//! Live-sentinel integration tests: a real `Ginja` pipeline over an
//! in-memory file system and cloud, with damage injected directly into
//! the object store.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::{MemStore, ObjectStore};
use ginja_core::{Ginja, GinjaConfig, SentinelConfig};
use ginja_sentinel::{AnomalyKind, Sentinel};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

const SEG: &str = "pg_xlog/000000010000000000000001";

struct Rig {
    local: Arc<MemFs>,
    cloud: Arc<MemStore>,
    ginja: Ginja,
    fs: InterceptFs<Arc<MemFs>>,
}

fn rig() -> Rig {
    let local = Arc::new(MemFs::new());
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(8)
        .sentinel(SentinelConfig {
            scrub_sample: 0, // verify every payload every cycle
            ..SentinelConfig::default()
        })
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let fs = InterceptFs::new(local.clone(), Arc::new(ginja.clone()));
    Rig {
        local,
        cloud,
        ginja,
        fs,
    }
}

/// Writes `n` WAL records through the intercepted file system and waits
/// for them to be durable.
fn commit(rig: &Rig, n: usize) {
    let start = rig.local.len(SEG).unwrap_or(0);
    for i in 0..n {
        let data = format!("record-{:04}", start as usize + i);
        rig.fs
            .write(SEG, start + (i * 11) as u64, data.as_bytes(), true)
            .unwrap();
    }
    assert!(rig.ginja.sync(Duration::from_secs(10)), "pipeline drained");
}

#[test]
fn clean_pipeline_scrubs_clean() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    commit(&rig, 3);
    let cycle = sentinel.run_cycle().unwrap();
    assert!(cycle.scrub.is_clean(), "{:?}", cycle.scrub.anomalies);
    assert!(cycle.scrub.payloads_verified > 0);
    assert!(!rig.ginja.exposure().degraded);
    rig.ginja.shutdown();
}

#[test]
fn deleted_wal_object_detected_and_reuploaded() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    commit(&rig, 3);
    let victim = rig.cloud.list("WAL/").unwrap().remove(1);
    rig.cloud.delete(&victim).unwrap();

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.scrub.count(AnomalyKind::MissingWal), 1);
    assert_eq!(cycle.repair.uploaded, vec![victim.clone()]);
    assert!(cycle.repair.failed.is_empty());
    assert!(rig.cloud.get(&victim).is_ok(), "object restored");

    let cycle = sentinel.run_cycle().unwrap();
    assert!(cycle.scrub.is_clean());
    assert!(!rig.ginja.exposure().degraded);
    rig.ginja.shutdown();
}

#[test]
fn corrupt_wal_object_detected_and_reuploaded() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    commit(&rig, 2);
    let victim = rig.cloud.list("WAL/").unwrap().remove(0);
    let mut sealed = rig.cloud.get(&victim).unwrap();
    let mid = sealed.len() / 2;
    sealed[mid] ^= 0x20;
    rig.cloud.put(&victim, &sealed).unwrap();

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.scrub.count(AnomalyKind::Corrupt), 1);
    assert_eq!(cycle.repair.uploaded, vec![victim]);
    assert!(sentinel.run_cycle().unwrap().scrub.is_clean());
    rig.ginja.shutdown();
}

#[test]
fn orphan_quarantined_one_cycle_then_swept() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    commit(&rig, 1);
    // Garbage a failed GC DELETE might leave: validly named, untracked.
    let orphan = "WAL/999_pg_xlog/000000010000000000000009_0_4";
    rig.cloud.put(orphan, b"junk").unwrap();

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.scrub.count(AnomalyKind::Orphan), 1);
    assert!(
        cycle.repair.orphans_deleted.is_empty(),
        "first sighting only quarantines"
    );
    assert!(rig.cloud.get(orphan).is_ok());

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.repair.orphans_deleted, vec![orphan.to_string()]);
    assert!(rig.cloud.get(orphan).is_err(), "orphan swept");

    assert!(sentinel.run_cycle().unwrap().scrub.is_clean());
    let snap = rig.ginja.stats().sentinel;
    assert_eq!(snap.orphans_deleted, 1);
    rig.ginja.shutdown();
}

#[test]
fn corrupt_dump_healed_by_fresh_dump() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    // A database file so the dump has content worth restoring.
    rig.local.write("base/1", 0, b"table-data", false).unwrap();
    commit(&rig, 2);
    let dump = rig.cloud.list("DB/").unwrap().remove(0);
    let mut sealed = rig.cloud.get(&dump).unwrap();
    let mid = sealed.len() / 2;
    sealed[mid] ^= 0x01;
    rig.cloud.put(&dump, &sealed).unwrap();

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.scrub.count(AnomalyKind::Corrupt), 1);
    assert!(cycle.repair.dump_requested, "DB damage heals via re-dump");
    assert!(rig.ginja.sync(Duration::from_secs(10)));

    // The fresh dump superseded the corrupt one and its GC removed it.
    let cycle = sentinel.run_cycle().unwrap();
    assert!(cycle.scrub.is_clean(), "{:?}", cycle.scrub.anomalies);
    let rehearsal = sentinel.rehearse().unwrap();
    assert!(rehearsal.restorable());
    rig.ginja.shutdown();
}

#[test]
fn impossible_repair_degrades_then_heals() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    commit(&rig, 1);
    let victim = rig.cloud.list("WAL/").unwrap().remove(0);
    rig.cloud.delete(&victim).unwrap();
    // Local source of truth gone too: repair is impossible.
    let backup = rig.local.read_all(SEG).unwrap();
    rig.local.delete(SEG).unwrap();

    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.repair.failed, vec![victim.clone()]);
    assert!(rig.ginja.exposure().degraded, "unrepairable => degraded");
    assert!(rig.ginja.stats().sentinel.degraded);

    // The operator restores the local file; the next cycle self-heals.
    rig.local.write(SEG, 0, &backup, false).unwrap();
    let cycle = sentinel.run_cycle().unwrap();
    assert_eq!(cycle.repair.uploaded, vec![victim]);
    assert!(!rig.ginja.exposure().degraded, "healed => flag lowered");
    rig.ginja.shutdown();
}

#[test]
fn rehearsal_measures_rto_and_rpo() {
    let rig = rig();
    let sentinel = Sentinel::new(&rig.ginja);
    rig.local.write("base/1", 0, b"table-data", false).unwrap();
    commit(&rig, 4);

    let report = sentinel.rehearse().unwrap();
    assert!(report.restorable());
    assert!(report.rto > Duration::ZERO);
    assert_eq!(report.rpo_updates, Some(0), "synced pipeline: no loss");
    assert_eq!(report.rpo_within_bound, Some(true));

    let snap = rig.ginja.stats().sentinel;
    assert_eq!(snap.rehearsals, 1);
    assert_eq!(snap.rehearsal_failures, 0);
    assert!(snap.last_rto > Duration::ZERO);
    assert!(snap.last_rpo_within_bound);
    rig.ginja.shutdown();
}

#[test]
fn background_thread_runs_cycles_and_stops() {
    let local = Arc::new(MemFs::new());
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(8)
        .sentinel(SentinelConfig {
            scrub_interval: Duration::from_millis(5),
            rehearsal_interval: Duration::from_millis(20),
            scrub_sample: 0,
        })
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let sentinel = Sentinel::new(&ginja);
    sentinel.spawn();
    sentinel.spawn(); // idempotent

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = ginja.stats().sentinel;
        if snap.scrub_cycles >= 2 && snap.rehearsals >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "sentinel never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    sentinel.shutdown();
    let after = ginja.stats().sentinel.scrub_cycles;
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        ginja.stats().sentinel.scrub_cycles,
        after,
        "no cycles after shutdown"
    );
    ginja.shutdown();
}
