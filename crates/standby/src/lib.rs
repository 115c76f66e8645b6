#![warn(missing_docs)]
//! Warm standby for Ginja: continuous cloud-tail apply and
//! bounded-RTO promotion.
//!
//! The paper's recovery story (§5.3, Algorithm 1) is *cold*: after a
//! disaster, a fresh machine downloads the whole bucket — dump, WAL
//! tail, checkpoints — and only then can the DBMS start. RTO therefore
//! scales with database size over WAN bandwidth. A [`Standby`] trades a
//! second always-on reader for a bounded RTO: it tails the bucket
//! continuously (one LIST per poll through
//! [`ginja_cloud::DeltaLister`], GETs only for objects it has not
//! applied yet), drives the *same* apply code cold recovery uses
//! ([`ginja_core::ApplyEngine`]) against a local shadow directory, and
//! keeps the shadow within one poll interval of the bucket. Promotion
//! ([`Standby::promote`]) fences the tail, replays the residual
//! suffix, and yields a bootable data directory — the work left at
//! disaster time is the *delta since the last poll*, not the database.
//!
//! Correctness is inherited, not re-derived: the base image comes from
//! [`ginja_core::ApplyEngine::cold_apply`] (steps 2–5 of Algorithm 1),
//! incremental cycles apply new WAL in timestamp order and new
//! complete checkpoints ascending — exactly the order a cold recovery
//! of the same bucket would use — and any out-of-order surprise (a
//! straggler part completing a checkpoint below the applied frontier,
//! a WAL object older than the applied tail, a new dump generation)
//! triggers a conservative rebase: wipe the shadow and cold-apply
//! again. Resets are counted, never hidden. A rebase does not fetch
//! the WAL again: the standby keeps the sealed WAL objects it has
//! fetched (up to a fixed byte cap, each dropped when the bucket
//! deletes it) and re-opens them, MAC and all, in the same cold order.
//!
//! The standby's cloud reads are real spend (§7: GETs are priced). A
//! standby built with [`Standby::attach_with`] over a live instance's
//! resilient store (`Ginja::resilient_cloud`) reads through it, so its
//! GETs land in the same [`ginja_cloud::UsageLedger`] as the pipeline's
//! traffic. Its counters stay its own: [`Standby::snapshot`].
//!
//! ```rust
//! use std::sync::Arc;
//! use ginja_cloud::MemStore;
//! use ginja_core::GinjaConfig;
//! use ginja_standby::{Standby, StandbyConfig};
//! use ginja_vfs::MemFs;
//!
//! # fn main() -> Result<(), ginja_core::GinjaError> {
//! let bucket = Arc::new(MemStore::new());
//! let shadow = Arc::new(MemFs::new());
//! let config = GinjaConfig::builder().build().unwrap();
//! let standby = Standby::attach(bucket, shadow, config, StandbyConfig::default())?;
//! let report = standby.run_cycle()?; // empty bucket: nothing to do yet
//! assert_eq!(report.wal_applied, 0);
//! assert_eq!(standby.snapshot().tail_cycles, 1);
//! # Ok(())
//! # }
//! ```

mod standby;
mod stats;

pub use standby::{PromotionReport, Standby, StandbyConfig, TailReport};
pub use stats::StandbySnapshot;
