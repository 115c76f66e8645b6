//! Full `FileSystem` trait-surface conformance for the facade's
//! [`FaultFs`] wrapper, alone and in the stack the crash-point explorer
//! runs. The walk is `ginja-vfs`'s own surface helper, included by
//! path so both suites hold every wrapper to one definition.

use std::sync::Arc;

use ginja::fault::{FaultFs, VfsFaultPlan};
use ginja::vfs::{InterceptFs, JournaledFs, MemFs, NullProcessor};

#[path = "../crates/vfs/tests/surface/exercise.rs"]
mod exercise;
use exercise::exercise;

#[test]
fn fault_fs_without_faults_full_surface() {
    let plan = Arc::new(VfsFaultPlan::new());
    exercise(&FaultFs::new(MemFs::new(), plan));
}

#[test]
fn stacked_wrappers_full_surface() {
    // The stack the crash-point explorer uses: interception over fault
    // injection over the durability journal.
    let plan = Arc::new(VfsFaultPlan::new());
    let journal = Arc::new(JournaledFs::new());
    let fault = FaultFs::with_journal(journal, plan);
    exercise(&InterceptFs::new(fault, Arc::new(NullProcessor)));
}
