#![warn(missing_docs)]
//! Object-storage abstraction and simulated cloud backends for Ginja.
//!
//! The paper (§5) restricts Ginja to the lowest-common-denominator cloud
//! storage interface — "storage clouds provide REST interfaces containing
//! only a few basic operations (PUT, GET, LIST, and DELETE)" — so that any
//! provider (S3, Azure Blob Storage, Google Storage, Rackspace Files) can
//! be used. [`ObjectStore`] is that interface.
//!
//! Backends provided here:
//!
//! * [`MemStore`] — in-memory reference backend.
//! * [`LatencyStore`] — wraps any store with a WAN latency model
//!   (`base + bytes/bandwidth`, calibrated against the paper's Table 3).
//! * [`FaultStore`] — programmable fault injection for crash-consistency
//!   and disaster tests, scheduled by a [`FaultPlan`] over the one
//!   fault-rule engine, [`FaultSchedule`] (the local-disk fault layer
//!   in the `ginja` facade uses it too).
//! * [`ResilientStore`] — the one retry loop (bounded or durable, see
//!   [`GiveUp`]) and the one metering layer: every operation lands in
//!   a [`UsageLedger`] feeding the §7 cost model and the Table 3
//!   experiment.
//! * [`ReplicatedStore`] — cloud-of-clouds replication (the prototype
//!   "supports the replication of objects in multiple clouds, for
//!   tolerating provider-scale failures", §6).
//!
//! A production deployment would add one more implementation backed by a
//! real provider SDK; nothing in Ginja's core depends on anything beyond
//! the four operations.
//!
//! ```rust
//! use ginja_cloud::{MemStore, ObjectStore};
//!
//! # fn main() -> Result<(), ginja_cloud::StoreError> {
//! let store = MemStore::new();
//! store.put("WAL/0_seg1_0", b"bytes")?;
//! assert_eq!(store.get("WAL/0_seg1_0")?, b"bytes");
//! assert_eq!(store.list("WAL/")?, vec!["WAL/0_seg1_0".to_string()]);
//! store.delete("WAL/0_seg1_0")?;
//! # Ok(())
//! # }
//! ```

mod delta;
mod dir;
mod error;
mod fault;
mod latency;
mod mem;
mod replicated;
mod resilient;
mod store;
mod usage;

pub use delta::{DeltaLister, ListingDelta};
pub use dir::DirStore;
pub use error::StoreError;
pub use fault::{FaultKind, FaultPlan, FaultSchedule, FaultStore, OpKind};
pub use latency::{LatencyModel, LatencyStore};
pub use mem::MemStore;
pub use replicated::ReplicatedStore;
pub use resilient::{GiveUp, ResilientStore, RetryConfig, Retrying, StopSignal};
pub use store::ObjectStore;
pub use usage::{CloudUsage, PutSample, UsageLedger};
