//! Experiment harnesses reproducing the tables and figures of the Ginja
//! paper (Middleware '17).
//!
//! Each `benches/*.rs` target regenerates one table or figure,
//! printing the paper's reported values alongside the measured or
//! modelled ones. Timed experiments run in **scaled time** — every
//! latency in the system (local disk, FUSE crossing, cloud WAN) is
//! multiplied by the same factor, so latency *ratios* (what the figures
//! report) are preserved while a five-minute run finishes in seconds.
//!
//! Environment knobs:
//!
//! * `GINJA_BENCH_SCALE` — the time scale (default 0.02 = 50× faster);
//! * `GINJA_BENCH_MINUTES` — simulated minutes per TPC-C run (default
//!   1; the paper used 5).

pub mod rig;
pub mod sysres;
pub mod table;
pub mod timescale;

pub use rig::{BaselineKind, ProtectedRig, RigOptions};
pub use table::Table;
