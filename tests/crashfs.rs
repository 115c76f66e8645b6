//! CrashFs acceptance sweeps: exhaustive crash-point exploration over
//! both DBMS profiles, in both crash modes, with and without an extra
//! injected I/O fault. Zero violations is the bar.

use ginja::crashpoint::{explore, CrashReport, ExplorerConfig};
use ginja::db::ProfileKind;
use ginja::fault::FsFaultKind;

fn assert_clean(cfg: &ExplorerConfig) -> CrashReport {
    let report = explore(cfg);
    assert!(
        report.crash_points > cfg.steps as u64,
        "a {}-step workload must cross more than {} mutating fs ops, saw {}",
        cfg.steps,
        cfg.steps,
        report.crash_points
    );
    assert!(report.explored > 0);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "{} violations over {} replays:\n{}",
        violations.len(),
        report.explored,
        violations.join("\n")
    );
    report
}

#[test]
fn exhaustive_sweep_postgres() {
    let cfg = ExplorerConfig {
        steps: 8,
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    let report = explore(&cfg);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
    // Exhaustive + torn: two replays per crash point.
    assert_eq!(report.explored, report.crash_points * 2);
}

#[test]
fn exhaustive_sweep_mysql() {
    let cfg = ExplorerConfig {
        steps: 8,
        seed: 0x51ed_c0de,
        ..ExplorerConfig::new(ProfileKind::MySql)
    };
    assert_clean(&cfg);
}

#[test]
fn clean_mode_only_sweep() {
    let cfg = ExplorerConfig {
        steps: 10,
        torn: false,
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    let report = explore(&cfg);
    assert_eq!(report.explored, report.crash_points);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
}

#[test]
fn sweep_with_injected_write_error_stays_clean() {
    // A survivable write error early in the run, then the crash sweep
    // on top: "error, keep running, then die" histories.
    let cfg = ExplorerConfig {
        steps: 6,
        stride: 3,
        fault: Some((5, FsFaultKind::Io)),
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    let report = explore(&cfg);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
}

#[test]
fn sweep_with_injected_fsync_loss_stays_clean() {
    let cfg = ExplorerConfig {
        steps: 6,
        stride: 3,
        seed: 0xf5_c10e,
        fault: Some((4, FsFaultKind::FsyncLoss)),
        ..ExplorerConfig::new(ProfileKind::MySql)
    };
    let report = explore(&cfg);
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{}", violations.join("\n"));
}

#[test]
fn sweep_with_parallel_recovery_stays_clean() {
    // recovery_fanout > 1: every disaster recovery and reboot resync in
    // the sweep fetches GETs concurrently, so fetch completion order is
    // whatever the scheduler produces — the four invariants (notably
    // cloud-prefix and reboot-resync, which depend on applies landing in
    // timestamp order) prove the reorder buffer restores ordering.
    let cfg = ExplorerConfig {
        steps: 8,
        recovery_fanout: 4,
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    assert_clean(&cfg);
}

#[test]
fn sweep_with_parallel_recovery_mysql_stays_clean() {
    let cfg = ExplorerConfig {
        steps: 6,
        stride: 2,
        seed: 0x0fa0_u64,
        recovery_fanout: 8,
        ..ExplorerConfig::new(ProfileKind::MySql)
    };
    assert_clean(&cfg);
}

#[test]
fn sweep_with_cloud_dark_before_the_crash_stays_clean() {
    // The cloud goes dark two steps before the step that crashes, so
    // every kill lands on a pipeline whose un-acked window lives only
    // in RAM and in the local WAL. Reboot's resync must heal the cloud
    // from the WAL alone (invariant 4), the bucket the outage froze
    // must still be a scrub-clean prefix (2, 3) — clean and torn, on
    // both profiles.
    for (profile, seed) in [
        (ProfileKind::Postgres, 0x6a17_9a5c_3fd1_e208),
        (ProfileKind::MySql, 0x51ed_c0de),
    ] {
        let cfg = ExplorerConfig {
            steps: 8,
            stride: 3,
            seed,
            dark_steps: 2,
            ..ExplorerConfig::new(profile)
        };
        let report = assert_clean(&cfg);
        assert!(
            report.wal_resync_objects > 0,
            "{profile:?}: reboot never had to resync"
        );
    }
}

#[test]
fn torn_sweep_salvages_a_torn_wal_tail_without_losing_rows() {
    // With this seed a torn writeback lands on an in-place rewrite of
    // the newest WAL block, so crash recovery must salvage the block
    // from the tail journal. Invariant 1 checks that the reopened
    // database still holds every acknowledged row.
    let cfg = ExplorerConfig {
        steps: 8,
        seed: 7,
        ..ExplorerConfig::new(ProfileKind::Postgres)
    };
    let report = assert_clean(&cfg);
    assert!(
        report.torn_tails_truncated >= 1,
        "no replay tore a WAL tail block"
    );
}
