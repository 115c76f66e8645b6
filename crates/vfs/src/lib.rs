#![warn(missing_docs)]
//! File-system interception substrate and DBMS I/O processors.
//!
//! The Ginja prototype is "an application-specific FUSE file system …
//! able to capture the semantics of the database's I/O operations
//! without having to change the DBMS" (§5). The paper is explicit that
//! the design "only assumes that the events of Table 1 are intercepted"
//! and could equally live in the kernel or the database itself.
//!
//! This crate is that interception point, expressed as a trait instead
//! of a kernel mount (see DESIGN.md §1 for the substitution rationale):
//!
//! * [`FileSystem`] — the file operations a DBMS performs on its data
//!   directory ([`MemFs`] in memory, [`DirFs`] over a real directory).
//! * [`InterceptFs`] — the FUSE stand-in: forwards every call to an
//!   inner file system, then reports it to an [`IoProcessor`]. Ginja's
//!   core implements `IoProcessor`.
//! * [`DbmsProcessor`] — classification of writes into the Table 1
//!   events, with [`PostgresProcessor`] and [`MySqlProcessor`]
//!   implementing the exact rules of the paper:
//!
//! | Event | PostgreSQL | MySQL/InnoDB |
//! |---|---|---|
//! | Update commit | sync. write to a `pg_xlog` file | sync. write to an `ib_logfile` (except header) |
//! | Checkpoint begin | sync. write to a `pg_clog` file | sync. write to a data file (`ibdata`, `.ibd`, `.frm`) |
//! | Checkpoint end | sync. write to `global/pg_control` | sync. write at offset 512/1536 of `ib_logfile0` |

mod delay;
mod dir;
mod error;
mod event;
mod fs;
mod intercept;
mod journal;
mod mem;
mod mysql;
mod postgres;

pub use delay::{precise_sleep, DelayFs};
pub use dir::DirFs;
pub use error::FsError;
pub use event::{DbmsProcessor, IoClass};
pub use fs::FileSystem;
pub use intercept::{InterceptFs, IoProcessor, NullProcessor, WriteEvent};
pub use journal::{JournaledFs, DEFAULT_SECTOR_SIZE};
pub use mem::MemFs;
pub use mysql::MySqlProcessor;
pub use postgres::PostgresProcessor;
