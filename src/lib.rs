#![warn(missing_docs)]
//! # Ginja — one-dollar cloud-based disaster recovery for databases
//!
//! This is a complete, self-contained Rust reproduction of
//! *"Ginja: One-dollar Cloud-based Disaster Recovery for Databases"*
//! (Alcântara, Oliveira, Bessani — Middleware '17).
//!
//! Ginja is a transparent middleware that intercepts the file-system I/O
//! of a transactional DBMS and replicates it to a cloud **object storage**
//! service (the paper used Amazon S3) — no backup VM required. Two knobs
//! control the cost/performance/data-loss trade-off:
//!
//! * **Batch** `B`/`TB` — updates aggregated per cloud synchronization;
//! * **Safety** `S`/`TS` — maximum updates that may be lost in a disaster
//!   (the DBMS blocks when more than `S` updates are unacknowledged).
//!
//! The facade crate re-exports the workspace members:
//!
//! * [`core`] (`ginja-core`) — the middleware itself: commit pipeline,
//!   checkpoints, garbage collection, boot/reboot/recovery, and the
//!   offline audit (`scrub_bucket`, then `recover_into` into scratch).
//! * [`db`] (`ginja-db`) — a miniature WAL-based DBMS with PostgreSQL and
//!   MySQL/InnoDB I/O profiles, used as the protected system.
//! * [`vfs`] (`ginja-vfs`) — the file-system interception layer (the
//!   FUSE stand-in) and the per-DBMS I/O processors.
//! * [`cloud`] (`ginja-cloud`) — the object-store abstraction plus
//!   simulated backends (latency, faults, metering, multi-cloud).
//! * [`codec`] (`ginja-codec`) — compression, AES-128-CTR, HMAC-SHA1.
//! * [`workload`] (`ginja-workload`) — TPC-C-style and synthetic drivers.
//! * [`cost`] (`ginja-cost`) — the §7 monetary cost model.
//! * [`standby`] (`ginja-standby`) — the warm standby: continuous
//!   cloud-tail apply into a shadow directory and bounded-RTO
//!   promotion.
//!
//! Two modules live in the facade itself:
//!
//! * [`crashpoint`] — the crash-point explorer: every mutating local
//!   I/O of a seeded workload becomes a kill point, and each survivor
//!   must recover locally, from the cloud, and via reboot.
//! * [`fault`] — local-disk fault injection ([`fault::FaultFs`] and
//!   its [`fault::VfsFaultPlan`]), the explorer's kill switch, on the
//!   cloud crate's one fault-rule engine ([`cloud::FaultSchedule`]).
//!
//! ## Quickstart
//!
//! ```rust
//! use std::sync::Arc;
//! use ginja::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A cloud (in-memory stand-in for S3) and a database behind Ginja.
//! let cloud = Arc::new(MemStore::new());
//! let config = GinjaConfig::builder().batch(2).safety(10).build()?;
//!
//! let local = Arc::new(MemFs::new());
//! let harness =
//!     ProtectedDb::boot(local, cloud, DbProfile::postgres_small(), config)?;
//!
//! // Commit a few transactions through the protected database.
//! harness.db().create_table(1, 64)?;
//! for i in 0..10u64 {
//!     harness.db().put(1, i, format!("row-{i}").into_bytes())?;
//! }
//! assert!(harness.sync());
//!
//! // Disaster! All local state is lost. Recover from the cloud alone.
//! let recovered = harness.disaster_and_recover()?;
//! assert_eq!(recovered.get(1, 3)?.unwrap(), b"row-3");
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for larger scenarios and `DESIGN.md` for the paper →
//! repository map.

pub use ginja_cloud as cloud;
pub use ginja_codec as codec;
pub use ginja_core as core;
pub use ginja_cost as cost;
pub use ginja_db as db;
pub use ginja_standby as standby;
pub use ginja_vfs as vfs;
pub use ginja_workload as workload;

pub mod crashpoint;
pub mod fault;
pub mod harness;

pub use crashpoint::{explore, CrashMode, CrashReport, ExplorerConfig, Violation};
pub use harness::{HarnessError, ProtectedDb};

/// Convenient re-exports of the most common entry points.
pub mod prelude {
    pub use crate::harness::ProtectedDb;
    pub use ginja_cloud::{MemStore, ObjectStore};
    pub use ginja_core::{Ginja, GinjaConfig};
    pub use ginja_db::{Database, DbProfile};
    pub use ginja_vfs::{FileSystem, MemFs};
}
