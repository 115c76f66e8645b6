#![warn(missing_docs)]
//! The monetary cost model for cloud-backed database disaster recovery
//! (Ginja, §3 and §7).
//!
//! All quantities are closed-form: the paper derives monthly cost from
//! the S3 price sheet (May 2017) and the workload/configuration
//! parameters. This crate reproduces:
//!
//! * the four cost terms of §7.1 — [`GinjaCostModel`]:
//!   `C_Total = C_DB_Storage + C_DB_PUT + C_WAL_Storage + C_WAL_PUT`;
//! * the $1/month capacity frontier of Figure 1 — [`Budget::frontier`];
//! * the cost-vs-workload curves of Figure 4;
//! * the real-application comparison of Table 2 (Ginja vs a
//!   VM-based Pilot Light) — [`scenarios`];
//! * the recovery cost of §7.3 — [`GinjaCostModel::recovery_cost`].
//!
//! The operator picks B and S offline from this model; nothing here
//! retunes a running pipeline.
//!
//! ```rust
//! use ginja_cost::{GinjaCostModel, S3Pricing};
//!
//! // The paper's Figure 4 configuration: 10 GB database, B = 100.
//! let model = GinjaCostModel::paper_fig4(100.0, 100);
//! let cost = model.total();
//! assert!(cost > 0.0 && cost < 1.0, "Figure 4 mid-curve is under $1: {cost}");
//! # let _ = S3Pricing::may_2017();
//! ```

mod frontier;
mod model;
mod pricing;
pub mod scenarios;

pub use frontier::Budget;
pub use model::{GinjaCostModel, SyncRate, MINUTES_PER_MONTH};
pub use pricing::{Ec2Pricing, S3Pricing};
