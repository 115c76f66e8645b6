//! Property tests over the crash-point explorer: random (fault kind ×
//! op index × profile) configurations must sweep clean. Where
//! `prop_recovery.rs` checks the happy synced path and one disaster
//! shape, this file drives the CrashFs harness itself through the
//! configuration space — every case is itself a full crash sweep.

use ginja::crashpoint::{explore, ExplorerConfig};
use ginja::db::ProfileKind;
use ginja::fault::FsFaultKind;
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = ProfileKind> {
    prop_oneof![Just(ProfileKind::Postgres), Just(ProfileKind::MySql)]
}

fn fault_kind_strategy() -> impl Strategy<Value = FsFaultKind> {
    prop_oneof![
        Just(FsFaultKind::Io),
        Just(FsFaultKind::NoSpace),
        Just(FsFaultKind::ShortWrite),
        Just(FsFaultKind::FsyncLoss),
    ]
}

fn sweep(cfg: &ExplorerConfig) {
    let report = explore(cfg);
    assert!(report.explored > 0);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "{} violations over {} replays:\n{}",
        violations.len(),
        report.explored,
        violations.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_crash_sweeps_are_clean(
        profile in profile_strategy(),
        seed in any::<u64>(),
        steps in 3usize..8,
        stride in 2usize..6,
        // 0 = the cloud darkens at the crash instant; 1–2 = that many
        // steps earlier, so the kill finds an un-acked window.
        dark_steps in 0usize..3,
    ) {
        let cfg = ExplorerConfig {
            seed,
            steps,
            stride,
            dark_steps,
            ..ExplorerConfig::new(profile)
        };
        sweep(&cfg);
    }

    #[test]
    fn faulted_crash_sweeps_are_clean(
        profile in profile_strategy(),
        kind in fault_kind_strategy(),
        fault_op in 0u64..24,
        seed in any::<u64>(),
    ) {
        // One survivable fault somewhere in the run, then every
        // stride-th crash point on top of it.
        let cfg = ExplorerConfig {
            seed,
            steps: 4,
            stride: 4,
            fault: Some((fault_op, kind)),
            ..ExplorerConfig::new(profile)
        };
        sweep(&cfg);
    }
}

/// Regression pinned from an early sweep: a `FsyncLoss` on the very
/// first mutating op of the run (the WAL append of step 0) under the
/// MySQL circular-WAL profile. Kept as a plain test so it always runs,
/// independent of the proptest sampler.
#[test]
fn fsync_loss_on_first_wal_append_mysql() {
    let cfg = ExplorerConfig {
        steps: 4,
        stride: 3,
        fault: Some((0, FsFaultKind::FsyncLoss)),
        ..ExplorerConfig::new(ProfileKind::MySql)
    };
    let report = explore(&cfg);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
}

/// Regression: a torn crash during the op immediately after a
/// checkpoint-triggering step — the window where the WAL tail rewrite
/// and the data-file write interleave.
#[test]
fn torn_crash_after_injected_short_write_postgres() {
    let cfg = ExplorerConfig {
        steps: 5,
        stride: 2,
        fault: Some((7, FsFaultKind::ShortWrite)),
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    let report = explore(&cfg);
    assert!(report.explored > 0);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
}
