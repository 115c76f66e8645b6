//! End-to-end tests: a real (mini) DBMS running over Ginja's
//! interception, suffering a disaster, and being rebuilt from the cloud
//! alone — the complete Algorithm 1/2/3 stack.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ginja_cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, OpKind, RetryConfig, StoreError};
use ginja_core::{
    recover_into, recover_to_point, Ginja, GinjaConfig, IngestConfig, PitrConfig, WalObjectName,
    DB_PREFIX, WAL_PREFIX,
};
use ginja_db::{Database, DbProfile};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

fn fast_config() -> GinjaConfig {
    GinjaConfig::builder()
        .batch(4)
        .safety(64)
        .batch_timeout(Duration::from_millis(20))
        .safety_timeout(Duration::from_secs(30))
        .uploaders(3)
        .build()
        .unwrap()
}

/// Boots a protected database: schema created first, then Ginja Boot,
/// then the DBMS reopened over the intercepted file system.
fn protect(
    profile: &DbProfile,
    cloud: Arc<dyn ObjectStore>,
    config: GinjaConfig,
) -> (Database, Ginja, Arc<MemFs>) {
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);

    let ginja = Ginja::boot(local.clone(), cloud, profile.kind.processor(), config).unwrap();
    let intercepted: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(intercepted, profile.clone()).unwrap();
    (db, ginja, local)
}

fn val(i: u64) -> Vec<u8> {
    format!("row-{i:08}").into_bytes()
}

#[test]
fn disaster_recovery_roundtrip_both_profiles() {
    for profile in [DbProfile::postgres_small(), DbProfile::mysql_small()] {
        let cloud = Arc::new(MemStore::new());
        let config = fast_config();
        let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());

        for i in 0..100 {
            db.put(1, i, val(i)).unwrap();
        }
        assert!(ginja.sync(Duration::from_secs(10)), "pipeline must drain");
        ginja.shutdown();
        drop(db);

        // Disaster: everything local is gone; rebuild from the cloud.
        let rebuilt = Arc::new(MemFs::new());
        let report = recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
        assert!(report.wal_objects_applied > 0 || report.checkpoints_applied > 0);

        let db = Database::open(rebuilt, profile.clone()).unwrap();
        for i in 0..100 {
            assert_eq!(
                db.get(1, i).unwrap().unwrap(),
                val(i),
                "{:?} key {i}",
                profile.kind
            );
        }
    }
}

#[test]
fn recovery_after_checkpoints_and_gc() {
    for profile in [
        DbProfile::postgres_small().with_checkpoint_every(25),
        DbProfile::mysql_small().with_checkpoint_every(25),
    ] {
        let cloud = Arc::new(MemStore::new());
        let config = fast_config();
        let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());

        for i in 0..200 {
            db.put(1, i % 80, val(i)).unwrap();
        }
        assert!(ginja.sync(Duration::from_secs(10)));
        let stats = ginja.stats();
        assert!(stats.checkpoints_seen > 0, "{:?}", profile.kind);
        assert!(
            stats.gc_deletes > 0,
            "checkpoints must garbage-collect WAL objects"
        );
        ginja.shutdown();
        drop(db);

        let rebuilt = Arc::new(MemFs::new());
        recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
        let db = Database::open(rebuilt, profile.clone()).unwrap();
        for i in 120..200 {
            assert_eq!(
                db.get(1, i % 80).unwrap().unwrap(),
                val(i),
                "{:?}",
                profile.kind
            );
        }
    }
}

/// Boot, WAL, checkpoint and dump PUTs each land in `put_latency` once:
/// on a fault-free store the histogram counts exactly the PUTs the
/// resilience layer's ledger billed.
#[test]
fn put_latency_counts_every_put_once() {
    let profile = DbProfile::postgres_small().with_checkpoint_every(25);
    let (db, ginja, _local) = protect(&profile, Arc::new(MemStore::new()), fast_config());
    for i in 0..200 {
        db.put(1, i % 80, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    let stats = ginja.stats();
    assert!(stats.db_objects_uploaded > 0, "no checkpoint was uploaded");
    assert_eq!(stats.put_latency.count, ginja.usage_ledger().usage().puts);
    ginja.shutdown();
}

#[test]
fn pipeline_traffic_lands_in_one_ledger() {
    let profile = DbProfile::postgres_small();
    let (db, ginja, _local) = protect(&profile, Arc::new(MemStore::new()), fast_config());
    for i in 0..50u64 {
        db.put(1, i, b"v".to_vec()).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    let usage = ginja.usage_ledger().usage();
    // Boot (WAL segments + dump) and the batch uploads all metered.
    assert!(usage.puts > 0, "puts {}", usage.puts);
    assert!(usage.bytes_uploaded > 0);
    assert!(usage.stored_bytes > 0, "live objects tracked by size");
    assert!(ginja.usage_ledger().mean_put_latency() > Duration::ZERO);
    ginja.shutdown();
}

#[test]
fn safety_blocks_dbms_during_outage_and_bounds_loss() {
    let profile = DbProfile::postgres_small();
    let plan = Arc::new(FaultPlan::new());
    let mem = Arc::new(MemStore::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(8)
        .batch_timeout(Duration::from_millis(10))
        .safety_timeout(Duration::from_secs(60))
        .uploaders(2)
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud, config.clone());

    for i in 0..20 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));

    // The cloud goes down. Commits must proceed until S updates are
    // pending, then block the DBMS.
    plan.outage();
    let db = Arc::new(db);
    let db2 = db.clone();
    let writer = std::thread::spawn(move || {
        let mut committed = 20u64;
        for i in 20..60 {
            if db2.put(1, i, val(i)).is_err() {
                break;
            }
            committed = i + 1;
        }
        committed
    });
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        !writer.is_finished(),
        "writer must be blocked by the Safety limit during the outage"
    );
    assert!(
        ginja.pending_updates() >= 8,
        "pending {}",
        ginja.pending_updates()
    );

    // Cloud comes back: the writer unblocks and finishes.
    plan.restore();
    let committed = writer.join().unwrap();
    assert_eq!(committed, 60);
    assert!(ginja.stats().cloud_retries > 0);
    assert!(ginja.stats().updates_blocked > 0);
    assert!(ginja.stats().blocked_time > Duration::from_millis(100));
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
}

#[test]
fn recovery_loses_at_most_pending_updates() {
    // Outage, DBMS keeps committing locally until blocked, then
    // disaster: the recovered state must contain a prefix missing at
    // most S updates.
    let profile = DbProfile::postgres_small();
    let plan = Arc::new(FaultPlan::new());
    let mem = Arc::new(MemStore::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let safety = 8;
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(safety)
        .batch_timeout(Duration::from_millis(10))
        .safety_timeout(Duration::from_secs(60))
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud, config.clone());

    for i in 0..30 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));

    plan.outage();
    let db = Arc::new(db);
    let db2 = db.clone();
    let writer = std::thread::spawn(move || {
        for i in 30..60 {
            let _ = db2.put(1, i, val(i));
        }
    });
    std::thread::sleep(Duration::from_millis(500));
    // Disaster while the cloud is down and the writer is blocked.
    ginja.shutdown(); // releases the blocked writer (protection ends)
    writer.join().unwrap();

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();

    // Everything synced before the outage is there.
    for i in 0..30 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i), "key {i}");
    }
    // The recovered rows past 30 form a contiguous prefix of the
    // commits made during the outage, of length < S.
    let mut recovered_past = 0;
    for i in 30..60 {
        if let Some(v) = db.get(1, i).unwrap() {
            assert_eq!(v, val(i));
            assert_eq!(recovered_past, i - 30, "hole in recovered prefix at {i}");
            recovered_past = i - 30 + 1;
        }
    }
    assert!(
        (recovered_past as usize) < safety + 1,
        "recovered {recovered_past} outage-time updates with S={safety}"
    );
}

#[test]
fn dump_triggered_at_threshold_and_old_objects_deleted() {
    let profile = DbProfile::postgres_small().with_checkpoint_every(10);
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(50)
        .batch_timeout(Duration::from_millis(10))
        .dump_threshold(1.2)
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());

    // Overwrite the same rows repeatedly: checkpoints accumulate in the
    // cloud while the local database stays small → dump threshold hits.
    for round in 0..30u64 {
        for i in 0..20 {
            db.put(1, i, val(round * 100 + i)).unwrap();
        }
    }
    assert!(ginja.sync(Duration::from_secs(15)));
    let stats = ginja.stats();
    assert!(
        stats.dumps_uploaded > 1,
        "expected threshold-triggered dumps beyond the boot dump, got {}",
        stats.dumps_uploaded
    );
    ginja.shutdown();
    drop(db);

    // The dump GC must leave exactly one dump chain.
    let view = ginja_core::CloudView::from_listing(cloud.list("").unwrap()).unwrap();
    assert_eq!(view.dump_timestamps().len(), 1);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for i in 0..20 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(29 * 100 + i));
    }
}

/// A store that calls `hook` with each object's name before its PUT.
struct HookedPuts<F> {
    inner: MemStore,
    hook: F,
}

fn hooked<F: Fn(&str) + Send + Sync>(hook: F) -> Arc<HookedPuts<F>> {
    Arc::new(HookedPuts {
        inner: MemStore::new(),
        hook,
    })
}

impl<F: Fn(&str) + Send + Sync> ObjectStore for HookedPuts<F> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        (self.hook)(name);
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.get(name)
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(prefix)
    }
}

/// The dump rule counts the DB objects it decided, not the ones that
/// are durable, so the same writes decide the same dumps whatever the
/// upload speed, and a dump in flight does not set off another behind
/// it. A dump carries the database once, so after one the rule waits
/// for checkpoints to add up again instead of firing at the next one.
/// Here every checkpoint rewrites the whole two-page database, so at a
/// 1.2 threshold a dump follows every second checkpoint: 30 in 60.
#[test]
fn dump_decisions_do_not_depend_on_upload_speed() {
    let run = |cloud: Arc<dyn ObjectStore>| {
        let profile = DbProfile::postgres_small().with_checkpoint_every(10);
        let config = GinjaConfig::builder()
            .batch(2)
            .safety(50)
            .batch_timeout(Duration::from_millis(10))
            .dump_threshold(1.2)
            .build()
            .unwrap();
        let (db, ginja, _local) = protect(&profile, cloud, config);
        for round in 0..30u64 {
            for i in 0..20 {
                db.put(1, i, val(round * 100 + i)).unwrap();
            }
        }
        assert!(ginja.sync(Duration::from_secs(30)));
        let stats = ginja.stats();
        ginja.shutdown();
        (stats.checkpoints_seen, stats.dumps_uploaded)
    };
    let instant = run(Arc::new(MemStore::new()));
    // Every DB object PUT held back: each checkpoint or dump is still on
    // its way when the next checkpoint ends.
    let slow = run(hooked(|name| {
        if name.starts_with(DB_PREFIX) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }));
    assert!(instant.1 > 1, "no threshold-triggered dump: {instant:?}");
    // `dumps_uploaded` counts the boot dump too.
    let (checkpoints, decided_dumps) = (instant.0, instant.1 - 1);
    assert!(
        2 * decided_dumps <= checkpoints,
        "(checkpoints, dumps) {instant:?}: a dump on more than half the checkpoints"
    );
    assert_eq!(
        slow, instant,
        "(checkpoints, dumps) with slow DB PUTs vs instant ones"
    );
}

#[test]
fn reboot_mode_resumes_protection() {
    let profile = DbProfile::postgres_small();
    let cloud = Arc::new(MemStore::new());
    let config = fast_config();
    let (db, ginja, local) = protect(&profile, cloud.clone(), config.clone());

    for i in 0..10 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    // Clean stop, then resume with Reboot (no re-upload of state).
    let puts_before = cloud.len();
    let ginja = Ginja::reboot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    assert_eq!(cloud.len(), puts_before, "reboot must not upload anything");

    let intercepted: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(intercepted, profile.clone()).unwrap();
    for i in 10..20 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for i in 0..20 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
    }
}

/// Reboot wraps its cloud in exactly one `ResilientStore`, the one whose
/// counters `stats()` and `usage_ledger()` read, and that layer's loop
/// is the only one retrying. Under a second layer the inner one would
/// absorb the injected fault, so the outer one (the only one those
/// reads see) would report no retry at all; under an outer loop around
/// the layer, a PUT failing more often than one bounded operation's
/// `max_attempts` would count one retry short.
#[test]
fn reboot_wraps_its_cloud_in_one_resilience_layer() {
    let profile = DbProfile::postgres_small();
    let mem = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(64)
        .batch_timeout(Duration::from_millis(20))
        .retry(RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryConfig::default()
        })
        .build()
        .unwrap();
    let max_attempts = config.retry.max_attempts as usize;
    let (db, ginja, local) = protect(&profile, mem.clone(), config.clone());
    db.put(1, 0, val(0)).unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let ginja = Ginja::reboot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let intercepted: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(intercepted, profile).unwrap();

    // One retry per failed attempt, in one counter: for a single
    // failure, and for more failures than a bounded operation attempts.
    for (key, failures) in [(1u64, 1usize), (2, max_attempts + 2)] {
        let before: std::collections::BTreeSet<String> =
            mem.list("").unwrap().into_iter().collect();
        let puts_before = ginja.usage_ledger().usage().puts;
        let retries_before = ginja.stats().cloud_retries;

        plan.fail_next(OpKind::Put, failures);
        db.put(1, key, val(key)).unwrap();
        assert!(ginja.sync(Duration::from_secs(10)));

        assert_eq!(
            ginja.stats().cloud_retries - retries_before,
            failures as u64,
            "retries after {failures} failed PUT attempt(s)"
        );
        let gained = mem
            .list("")
            .unwrap()
            .into_iter()
            .filter(|name| !before.contains(name))
            .count() as u64;
        assert!(gained > 0, "the commit must reach the bucket");
        assert_eq!(ginja.usage_ledger().usage().puts - puts_before, gained);
    }
    ginja.shutdown();
}

#[test]
fn point_in_time_recovery_restores_old_state() {
    let profile = DbProfile::postgres_small().with_checkpoint_every(10);
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(50)
        .batch_timeout(Duration::from_millis(10))
        .dump_threshold(1.2)
        .pitr(PitrConfig { keep_snapshots: 64 })
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());

    db.put(1, 1, b"version-one".to_vec()).unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));
    let point = ginja.view().last_wal_ts();

    // Advance the cloud watermark past `point` before any checkpoint can
    // run, so later checkpoint objects carry ts > point (PITR restores
    // to object boundaries; a checkpoint at ts == point would legally
    // carry newer page contents).
    db.put(1, 200, b"filler".to_vec()).unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));

    for round in 0..20u64 {
        for i in 0..10 {
            db.put(1, i, val(round * 10 + i)).unwrap();
        }
    }
    assert!(ginja.sync(Duration::from_secs(15)));
    ginja.shutdown();
    drop(db);

    // Recover to the historic point: key 1 must hold "version-one".
    let rebuilt = Arc::new(MemFs::new());
    recover_to_point(rebuilt.as_ref(), cloud.as_ref(), &config, point).unwrap();
    let db = Database::open(rebuilt, profile.clone()).unwrap();
    assert_eq!(db.get(1, 1).unwrap().unwrap(), b"version-one");
    assert_eq!(
        db.get(1, 5).unwrap(),
        None,
        "future rows must not exist at the old point"
    );

    // And full recovery still gives the latest state.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(db.get(1, 1).unwrap().unwrap(), val(191));
}

#[test]
fn backup_verification_end_to_end() {
    let profile = DbProfile::mysql_small();
    let cloud = Arc::new(MemStore::new());
    let config = fast_config();
    let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());
    for i in 0..50 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    // Validation 1: every object MAC-checked and classified.
    let scrub = ginja_core::scrub_bucket(cloud.as_ref(), &config).unwrap();
    assert!(scrub.is_clean(), "{:?}", scrub.anomalies);
    assert!(scrub.payloads_verified > 0);
    let scratch = Arc::new(MemFs::new());
    recover_into(scratch.as_ref(), cloud.as_ref(), &config).unwrap();

    // Validation 2 + 3: the DBMS restarts over the rebuilt files and a
    // service-specific probe checks recent updates.
    let db = Database::open(scratch, profile).unwrap();
    for i in 0..50 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
    }
}

#[test]
fn transient_put_failures_are_retried_transparently() {
    let profile = DbProfile::postgres_small();
    let plan = Arc::new(FaultPlan::new());
    let mem = Arc::new(MemStore::new());
    let cloud = Arc::new(FaultStore::new(mem, plan.clone()));
    let config = fast_config();
    let (db, ginja, _local) = protect(&profile, cloud, config);

    plan.fail_next(OpKind::Put, 5);
    for i in 0..20 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    // The resilience layer absorbs the injected transient faults, one
    // retry each.
    let stats = ginja.stats();
    assert!(
        stats.cloud_retries >= 5,
        "expected >= 5 retries, got {}",
        stats.cloud_retries
    );
    ginja.shutdown();
}

#[test]
fn encrypted_compressed_protection_roundtrip() {
    let profile = DbProfile::postgres_small();
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(4)
        .safety(64)
        .batch_timeout(Duration::from_millis(20))
        .codec(
            ginja_codec::CodecConfig::new()
                .compression(true)
                .password("disaster-proof")
                .kdf_iterations(4),
        )
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());
    for i in 0..60 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    let stats = ginja.stats();
    assert!(
        stats.wal_seal_ratio() > 1.1,
        "compression should shrink WAL objects, ratio {}",
        stats.wal_seal_ratio()
    );
    ginja.shutdown();
    drop(db);

    // Recovery with the wrong password must fail...
    let wrong = GinjaConfig::builder()
        .codec(
            ginja_codec::CodecConfig::new()
                .password("oops")
                .kdf_iterations(4),
        )
        .build()
        .unwrap();
    let rebuilt = Arc::new(MemFs::new());
    assert!(recover_into(rebuilt.as_ref(), cloud.as_ref(), &wrong).is_err());

    // ...and with the right one must succeed.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for i in 0..60 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
    }
}

#[test]
fn multi_cloud_replication_survives_one_provider_loss() {
    let profile = DbProfile::postgres_small();
    let cloud_a = Arc::new(MemStore::new());
    let cloud_b = Arc::new(MemStore::new());
    let replicated = Arc::new(ginja_cloud::ReplicatedStore::all_of(vec![
        cloud_a.clone(),
        cloud_b.clone(),
    ]));
    let config = fast_config();
    let (db, ginja, _local) = protect(&profile, replicated, config.clone());
    for i in 0..40 {
        db.put(1, i, val(i)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    // Provider A is wiped out entirely; recover from B alone.
    cloud_a.clear();
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud_b.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for i in 0..40 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
    }
}

#[test]
fn no_loss_configuration_is_fully_synchronous() {
    let profile = DbProfile::postgres_small();
    let cloud = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(1)
        .batch_timeout(Duration::from_millis(5))
        .build()
        .unwrap();
    let (db, ginja, _local) = protect(&profile, cloud.clone(), config.clone());
    for i in 0..10 {
        db.put(1, i, val(i)).unwrap();
    }
    // With S = 1, at most one update can be unconfirmed at any time.
    assert!(ginja.pending_updates() <= 1);
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    // No-loss: every committed update except possibly the very last
    // in-flight one is recoverable; with a drained pipeline, all are.
    for i in 0..10 {
        assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
    }
}

const SEGMENT: &str = "pg_xlog/000000010000000000000001";

/// Boots Ginja over an empty PostgreSQL-shaped file system; returns it
/// with that file system seen through the interception.
fn protect_wal(
    cloud: Arc<dyn ObjectStore>,
    config: GinjaConfig,
) -> (Ginja, Arc<MemFs>, InterceptFs<Arc<MemFs>>) {
    let local = Arc::new(MemFs::new());
    let processor = Arc::new(PostgresProcessor::new());
    let ginja = Ginja::boot(local.clone(), cloud, processor, config).unwrap();
    let fs = InterceptFs::new(local.clone(), Arc::new(ginja.clone()));
    (ginja, local, fs)
}

/// The WAL objects in `cloud`, in timestamp order.
fn wal_objects(cloud: &dyn ObjectStore) -> Vec<WalObjectName> {
    let list = cloud.list(WAL_PREFIX).unwrap();
    let mut names: Vec<_> = list
        .iter()
        .map(|n| WalObjectName::parse(n).unwrap())
        .collect();
    names.sort_by_key(|n| n.ts);
    names
}

/// A partial batch is sealed only when an uploader is idle to take it:
/// with both uploaders stuck in a PUT, the queue fills to S and parks
/// the DBMS without a third batch being formed — no adaptive seal cuts
/// one short — and once the PUTs land, every batch is a full B.
#[test]
fn a_batch_is_formed_only_when_an_uploader_is_idle() {
    const B: u64 = 10;
    const S: u64 = 100;
    // WAL PUTs wait while the gate is shut; its counter counts them.
    let gate = Arc::new((Mutex::new(false), Condvar::new(), AtomicUsize::new(0)));
    let g = gate.clone();
    let store = hooked(move |name| {
        if name.starts_with(WAL_PREFIX) {
            g.2.fetch_add(1, Ordering::SeqCst);
            drop(g.1.wait_while(g.0.lock().unwrap(), |shut| *shut).unwrap());
            g.2.fetch_sub(1, Ordering::SeqCst);
        }
    });
    let shut = |closed: bool| {
        *gate.0.lock().unwrap() = closed;
        gate.1.notify_all();
    };
    let config = GinjaConfig::builder()
        .batch(B as usize)
        .safety(S as usize)
        .batch_timeout(Duration::from_secs(60))
        .safety_timeout(Duration::from_secs(60))
        .uploaders(2)
        .ingest(IngestConfig {
            adaptive_seal: true,
        })
        .build()
        .unwrap();
    let (ginja, _local, fs) = protect_wal(store.clone(), config);
    shut(true);

    let writes = S + 2 * B;
    let writer = std::thread::spawn(move || {
        for i in 0..writes {
            fs.write(SEGMENT, i * 8, &i.to_le_bytes(), true).unwrap();
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while gate.2.load(Ordering::SeqCst) < 2 || ginja.stats().ingest.put_parks == 0 {
        assert!(Instant::now() < deadline, "{:?}", ginja.stats().ingest);
        std::thread::sleep(Duration::from_millis(1));
    }
    // Time for a third batch to form, if anything would form one.
    std::thread::sleep(Duration::from_millis(100));
    let stats = ginja.stats();
    assert_eq!(ginja.pending_updates(), S as usize);
    assert_eq!(stats.batches_formed, 2, "formed while no uploader was idle");
    assert_eq!(stats.ingest.adaptive_seals, 0);

    shut(false);
    writer.join().unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));
    assert_eq!(ginja.stats().ingest.adaptive_seals, 0);
    ginja.shutdown();
    let lens: Vec<u64> = wal_objects(&store.inner).iter().map(|n| n.len).collect();
    assert_eq!(
        lens,
        vec![B * 8; (writes / B) as usize],
        "every batch a full B"
    );
}

/// Four uploaders racing over a store that completes PUTs out of order
/// (a seeded 0–3 ms wait each), while the DBMS rewrites its tail block
/// record after record, so consecutive batches carry overlapping
/// images of one block: WAL timestamps must still rise in batch order —
/// else recovery would apply a stale tail block over a fresh one — and
/// the recovered log must equal the local one byte for byte.
#[test]
fn wal_timestamps_follow_batch_order_across_racing_uploaders() {
    const BLOCK: usize = 64;
    let draws = AtomicU64::new(7);
    let store = hooked(move |name| {
        if name.starts_with(WAL_PREFIX) {
            let draw = draws.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
            let micros = (draw.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32) % 3000;
            std::thread::sleep(Duration::from_micros(micros));
        }
    });
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(16)
        .batch_timeout(Duration::from_millis(2))
        .uploaders(4)
        .build()
        .unwrap();
    let (ginja, local, fs) = protect_wal(store.clone(), config.clone());
    let mut log = Vec::new();
    for i in 0..300u64 {
        log.extend_from_slice(&i.to_le_bytes());
        let tail = (log.len() - 8) / BLOCK * BLOCK;
        fs.write(SEGMENT, tail as u64, &log[tail..], true).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)));
    ginja.shutdown();

    let ends: Vec<u64> = wal_objects(&store.inner)
        .iter()
        .map(|n| n.offset + n.len)
        .collect();
    assert!(
        ends.len() > 1 && ends.windows(2).all(|w| w[0] < w[1]),
        "a later timestamp carries an older tail: {ends:?}"
    );
    let rebuilt = MemFs::new();
    recover_into(&rebuilt, &store.inner, &config).unwrap();
    assert_eq!(rebuilt.read_all(SEGMENT).unwrap(), log);
    assert_eq!(local.read_all(SEGMENT).unwrap(), log);
}
