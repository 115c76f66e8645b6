#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The Ginja disaster-recovery middleware.
//!
//! Ginja (Alcântara, Oliveira, Bessani — Middleware '17) replicates a
//! transactional DBMS to a cloud **object storage** service by
//! intercepting its file-system I/O: committed updates (WAL writes)
//! become *WAL objects*, checkpoints become *DB objects* (incremental,
//! or full *dumps*), and two parameters trade cost against data loss:
//!
//! * **Batch** (`B`/`TB`) — how many updates each cloud PUT carries;
//! * **Safety** (`S`/`TS`) — how many updates may be lost in a disaster
//!   (the DBMS is blocked when more are unconfirmed).
//!
//! # Lifecycle
//!
//! ```rust
//! use std::sync::Arc;
//! use std::time::Duration;
//! use ginja_core::{recover_into, Ginja, GinjaConfig};
//! use ginja_cloud::MemStore;
//! use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let local = Arc::new(MemFs::new());
//! let cloud = Arc::new(MemStore::new());
//! let processor = Arc::new(PostgresProcessor::new());
//! let config = GinjaConfig::builder().batch(2).safety(10).build()?;
//!
//! // 1. Boot: upload the current database state, start the pipeline.
//! let ginja = Ginja::boot(local.clone(), cloud.clone(), processor.clone(), config.clone())?;
//!
//! // 2. Run the DBMS over the intercepted file system.
//! let fs = InterceptFs::new(local.clone(), Arc::new(ginja.clone()));
//! fs.write("pg_xlog/000000000000000000000000", 0, b"commit record", true)?;
//! assert!(ginja.sync(Duration::from_secs(5)));
//! ginja.shutdown();
//!
//! // 3. Disaster: the primary site is gone. Rebuild from the cloud.
//! let rebuilt = Arc::new(MemFs::new());
//! let report = recover_into(rebuilt.as_ref(), cloud.as_ref(), &config)?;
//! assert_eq!(report.wal_objects_applied, 1);
//! assert_eq!(
//!     rebuilt.read_all("pg_xlog/000000000000000000000000")?,
//!     b"commit record"
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The module map follows the paper: [`queue`] is the `CommitQueue` of
//! §6, [`agg`] the update aggregation of Algorithm 2, [`names`]/[`view`]
//! the data model of §5.2, [`recovery`] Algorithm 1's Recovery mode,
//! and [`scrub`] the offline audit that classifies what in a bucket is
//! damaged — with [`recover_into`] into scratch, the backup
//! verification of §5.4. [`Ginja`] itself is split by stage into
//! private modules around its shared state (`ginja`): `startup`
//! (Algorithm 1), `upload` (Algorithm 2) and `checkpoint` (Algorithm 3).

pub mod agg;
pub mod apply;
pub mod archiver;
pub mod bundle;
pub mod fanout;
pub mod names;
pub mod queue;
pub mod recovery;
pub mod scrub;
pub mod view;

mod ack;
mod checkpoint;
mod config;
mod error;
mod ginja;
mod periodic;
mod startup;
mod stats;
mod upload;

pub use apply::{ApplyEngine, ApplyProgress};
pub use config::{GinjaConfig, GinjaConfigBuilder, IngestConfig, PitrConfig};
pub use error::GinjaError;
pub use fanout::FanoutExecutor;
pub use ginja::{Exposure, Ginja};
pub use ginja_cloud::{CloudUsage, RetryConfig, UsageLedger};
pub use names::{DbObjectKind, DbObjectName, WalObjectName, DB_PREFIX, WAL_PREFIX};
pub use periodic::PeriodicTask;
pub use recovery::{
    list_restore_points, recover_into, recover_to_point, RecoveryReport, RestorePoint,
    RestorePointKind,
};
pub use scrub::{scrub_bucket, Anomaly, AnomalyKind, ScrubReport};
pub use stats::{GinjaStats, GinjaStatsSnapshot, IngestSnapshot, LatencyHisto, LatencySnapshot};
pub use view::{CloudView, DbEntry, Listed};
