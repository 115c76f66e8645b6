//! Full `FileSystem` trait-surface conformance, run against every
//! backend and wrapper in the crate. The walk itself is
//! `surface/exercise.rs`, shared with the facade's suite for its
//! `ginja::fault::FaultFs` wrapper.
//!
//! Wrappers (`DelayFs`, `InterceptFs`, the facade's `FaultFs`) forward
//! each trait method by hand, so a newly added method (or a refactor of
//! an old one) can silently stop reaching the inner file system while
//! every wrapper-specific test still passes. This suite pins the behavior of
//! the *whole* surface — notably `truncate`, `rename`, the default
//! `exists`, and the default `wipe` — behind each wrapper.

use std::sync::Arc;
use std::time::Duration;

use ginja_vfs::{DelayFs, FileSystem, InterceptFs, JournaledFs, MemFs, NullProcessor};

#[path = "surface/exercise.rs"]
mod exercise;
use exercise::exercise;

#[test]
fn mem_fs_full_surface() {
    exercise(&MemFs::new());
}

#[test]
fn journaled_fs_full_surface() {
    exercise(&JournaledFs::new());
}

#[test]
fn delay_fs_full_surface() {
    exercise(&DelayFs::new(MemFs::new(), Duration::ZERO));
    // And with a real (tiny) delay, to prove pausing doesn't corrupt
    // any operation's semantics.
    exercise(&DelayFs::new(MemFs::new(), Duration::from_micros(5)));
}

#[test]
fn intercept_fs_full_surface() {
    exercise(&InterceptFs::new(MemFs::new(), Arc::new(NullProcessor)));
}

#[test]
fn arc_blanket_impl_full_surface() {
    let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    exercise(&fs);
}
