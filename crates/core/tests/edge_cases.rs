//! Edge-case integration tests for the middleware: degraded cloud
//! states and recovery fallbacks.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::{MemStore, ObjectStore};
use ginja_core::{recover_into, Ginja, GinjaConfig, GinjaError};
use ginja_db::{Database, DbProfile};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

fn config() -> GinjaConfig {
    GinjaConfig::builder()
        .batch(4)
        .safety(64)
        .batch_timeout(Duration::from_millis(20))
        .build()
        .unwrap()
}

fn protect(config: GinjaConfig) -> (Database, Ginja, Arc<MemStore>) {
    let local = Arc::new(MemFs::new());
    let profile = DbProfile::postgres_small();
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);
    let cloud = Arc::new(MemStore::new());
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, DbProfile::postgres_small()).unwrap();
    (db, ginja, cloud)
}

#[test]
fn recovery_falls_back_when_newest_dump_is_incomplete() {
    let (db, ginja, cloud) = protect(config());
    for i in 0..20u64 {
        db.put(1, i, format!("v{i}").into_bytes()).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    drop(db);

    // Forge an incomplete multi-part dump newer than everything: the
    // recovery must ignore it and use the boot dump.
    cloud
        .put("DB/999_dump_1000_0_3", b"half-uploaded garbage")
        .unwrap();
    let rebuilt = Arc::new(MemFs::new());
    let report = recover_into(rebuilt.as_ref(), cloud.as_ref(), &config()).unwrap();
    assert_eq!(
        report.dump_ts, 0,
        "must fall back to the complete boot dump"
    );
    let db = Database::open(rebuilt, DbProfile::postgres_small()).unwrap();
    assert_eq!(db.get(1, 5).unwrap().unwrap(), b"v5");
}

#[test]
fn boot_rejects_non_empty_bucket() {
    let cloud = Arc::new(MemStore::new());
    cloud
        .put("WAL/1_old_0_5", b"history of another database")
        .unwrap();
    let err = Ginja::boot(
        Arc::new(MemFs::new()),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config(),
    )
    .map(|g| g.shutdown())
    .unwrap_err();
    assert!(matches!(err, GinjaError::Config(_)), "{err}");
}

#[test]
fn reboot_rejects_foreign_objects_in_bucket() {
    let (db, ginja, cloud) = protect(config());
    db.put(1, 1, b"x".to_vec()).unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    drop(db);

    cloud.put("somebody-elses-file.txt", b"???").unwrap();
    let err = Ginja::reboot(
        Arc::new(MemFs::new()),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config(),
    )
    .map(|g| g.shutdown())
    .unwrap_err();
    assert!(matches!(err, GinjaError::BadObjectName(_)));
}

#[test]
fn sync_times_out_when_cloud_is_down() {
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), DbProfile::postgres_small()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);
    let plan = Arc::new(ginja_cloud::FaultPlan::new());
    let cloud = Arc::new(ginja_cloud::FaultStore::new(MemStore::new(), plan.clone()));
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, DbProfile::postgres_small()).unwrap();
    plan.outage();
    db.put(1, 1, b"stuck".to_vec()).unwrap();
    assert!(
        !ginja.sync(Duration::from_millis(300)),
        "sync must report failure"
    );
    plan.restore();
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_disables_protection() {
    let (db, ginja, _cloud) = protect(config());
    db.put(1, 1, b"before".to_vec()).unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    ginja.shutdown(); // second call must be a no-op

    // Writes after shutdown proceed locally, unprotected and unblocked.
    let before = ginja.stats().updates_intercepted;
    db.put(1, 2, b"after-shutdown".to_vec()).unwrap();
    assert_eq!(db.get(1, 2).unwrap().unwrap(), b"after-shutdown");
    assert_eq!(ginja.stats().updates_intercepted, before);
}

#[test]
fn exposure_reports_pending_risk() {
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), DbProfile::postgres_small()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);
    let plan = Arc::new(ginja_cloud::FaultPlan::new());
    let cloud = Arc::new(ginja_cloud::FaultStore::new(MemStore::new(), plan.clone()));
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        GinjaConfig::builder()
            .batch(1)
            .safety(16)
            .batch_timeout(Duration::from_millis(10))
            .build()
            .unwrap(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, DbProfile::postgres_small()).unwrap();

    // Idle: nothing exposed.
    assert_eq!(ginja.exposure().updates, 0);
    assert!(ginja.exposure().oldest_age.is_none());

    // Cloud down: exposure accumulates up to S.
    plan.outage();
    for i in 0..10 {
        db.put(1, i, b"x".to_vec()).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let exposure = ginja.exposure();
    assert!(exposure.updates >= 10, "{exposure:?}");
    assert!(exposure.oldest_age.unwrap() >= Duration::from_millis(40));

    // Cloud back: exposure drains to zero.
    plan.restore();
    assert!(ginja.sync(Duration::from_secs(20)));
    assert_eq!(ginja.exposure().updates, 0);
    ginja.shutdown();
}

#[test]
fn empty_database_boot_and_recover() {
    // Protect a database with no tables at all.
    let (db, ginja, cloud) = protect(config());
    drop(db);
    assert!(ginja.sync(Duration::from_secs(5)));
    ginja.shutdown();

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config()).unwrap();
    let db = Database::open(rebuilt, DbProfile::postgres_small()).unwrap();
    assert!(matches!(
        db.get(99, 0),
        Err(ginja_db::DbError::TableMissing(99))
    ));
}

/// A bucket whose first GET of a DB object fails with a non-retryable
/// `Unavailable` that says nothing about the object: the object itself
/// is intact.
struct FatalFirstDbGet {
    inner: MemStore,
    blipped: std::sync::atomic::AtomicBool,
}

impl ObjectStore for FatalFirstDbGet {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), ginja_cloud::StoreError> {
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ginja_cloud::StoreError> {
        let first = !self.blipped.swap(true, std::sync::atomic::Ordering::SeqCst);
        if first && name.starts_with("DB/") {
            return Err(ginja_cloud::StoreError::fatal("backend unavailable"));
        }
        self.inner.get(name)
    }

    fn delete(&self, name: &str) -> Result<(), ginja_cloud::StoreError> {
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, ginja_cloud::StoreError> {
        self.inner.list(prefix)
    }
}

#[test]
fn collision_merge_survives_a_non_retryable_get_failure() {
    // Nothing uploads until `sync` forces a flush, so the second
    // checkpoint starts at the first one's watermark and must merge.
    let config = GinjaConfig::builder()
        .batch(1000)
        .safety(2000)
        .batch_timeout(Duration::from_secs(60))
        .safety_timeout(Duration::from_secs(60))
        .build()
        .unwrap();
    let local = Arc::new(MemFs::new());
    let profile = DbProfile::postgres_small();
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);
    let cloud = Arc::new(FatalFirstDbGet {
        inner: MemStore::new(),
        blipped: std::sync::atomic::AtomicBool::new(false),
    });
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();
    let row = |key: u64| format!("row-{key:04}-{}", "x".repeat(40)).into_bytes();

    // First checkpoint: the only page images of rows 0..300; its GC
    // deletes the WAL that carried them.
    for key in 0..300u64 {
        db.put(1, key, row(key)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));

    // Second checkpoint, same timestamp, other pages. Its merge GET of
    // the first generation hits the blip. Giving the old generation up
    // as unusable would replace it with a non-superset.
    for key in 300..600u64 {
        db.put(1, key, row(key)).unwrap();
    }
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    assert_eq!(ginja.view().db_count(), 2, "dump + one merged checkpoint");
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), &cloud.inner, &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for key in 0..600u64 {
        assert_eq!(db.get(1, key).unwrap(), Some(row(key)), "row {key}");
    }
}

#[test]
fn gc_deletes_failing_non_retryably_are_deferred_not_dropped() {
    use ginja_cloud::{FaultPlan, FaultStore, OpKind, RetryConfig};

    // Every DELETE of the GC pass fails with a non-retryable error that
    // says nothing about the object. Each of those objects has already
    // left the view, so "done" would orphan it.
    let config = GinjaConfig::builder()
        .batch(4)
        .safety(64)
        .batch_timeout(Duration::from_millis(20))
        .retry(RetryConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        })
        .build()
        .unwrap();
    let local = Arc::new(MemFs::new());
    let profile = DbProfile::postgres_small();
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(MemStore::new(), plan.clone()));
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile).unwrap();

    // Every object in the bucket the view no longer tracks.
    let untracked = |ginja: &Ginja| -> usize {
        let view = ginja.view();
        let tracked: std::collections::BTreeSet<String> = view
            .wal_entries()
            .map(|w| w.to_name())
            .chain(
                view.db_entries()
                    .flat_map(|(_, e)| e.parts.iter().map(|p| p.to_name())),
            )
            .collect();
        let listed = cloud.inner().list("").unwrap();
        listed.iter().filter(|n| !tracked.contains(*n)).count()
    };

    for key in 0..200u64 {
        db.put(1, key, vec![key as u8; 48]).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    plan.fail_fatally(OpKind::Delete, usize::MAX);
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));

    let stats = ginja.stats();
    assert_eq!(stats.gc_deletes, 0);
    assert!(stats.gc_deletes_deferred > 1);
    assert_eq!(
        stats.gc_backlog as usize,
        untracked(&ginja),
        "every object GC failed to delete waits in the backlog"
    );

    // The cloud heals; the next checkpoint's GC pass drains the backlog.
    plan.clear();
    for key in 200..260u64 {
        db.put(1, key, vec![key as u8; 48]).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    assert_eq!(ginja.stats().gc_backlog, 0);
    assert_eq!(untracked(&ginja), 0, "no orphan is left in the bucket");
    ginja.shutdown();
}

#[test]
fn reboot_collects_an_aborted_generation_by_the_next_dump() {
    let mut config = config();
    config.dump_threshold = 1.01;
    let (db, ginja, cloud) = protect(config.clone());
    ginja.shutdown();
    drop(db);

    // One part of a larger dump beside the boot dump: an upload that
    // died with the process.
    let aborted = "DB/0_dump_999999_0_2";
    cloud.put(aborted, b"half-uploaded garbage").unwrap();

    // Restore, reboot over the restored files, and write to a dump.
    let local = Arc::new(MemFs::new());
    recover_into(local.as_ref(), cloud.as_ref(), &config).unwrap();
    let processor = Arc::new(PostgresProcessor::new());
    let ginja = Ginja::reboot(local.clone(), cloud.clone(), processor, config).unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, DbProfile::postgres_small()).unwrap();
    for round in 0..50u8 {
        if ginja.stats().dumps_uploaded > 0 {
            break;
        }
        for key in 0..20u64 {
            db.put(1, key, vec![round; 48]).unwrap();
        }
        db.checkpoint().unwrap();
        assert!(ginja.sync(Duration::from_secs(20)));
    }
    assert!(ginja.stats().dumps_uploaded > 0, "no dump was taken");
    let listed = cloud.list("").unwrap();
    assert!(!listed.iter().any(|n| n == aborted), "{listed:?}");
    ginja.shutdown();
}

/// A crash that cuts a checkpoint between its page flushes and its
/// upload leaves pages only the local disk holds, clean and so never
/// flushed again. The first checkpoint after Reboot is a dump, so the
/// GC of that checkpoint cannot take the only other copy of their rows.
#[test]
fn pages_of_a_checkpoint_the_crash_cut_reach_the_cloud_after_reboot() {
    // A page-sized row per key: each row is a page of its own and most
    // of a log block, so the checkpoint's redo point passes its record.
    let row = |key: u64| vec![key as u8; 4000];
    let local = Arc::new(MemFs::new());
    let profile = DbProfile::postgres_small();
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 4096).unwrap();
    drop(db);
    let plan = Arc::new(ginja_cloud::FaultPlan::new());
    let cloud = Arc::new(ginja_cloud::FaultStore::new(MemStore::new(), plan.clone()));
    let processor = Arc::new(PostgresProcessor::new());
    let ginja = Ginja::boot(local.clone(), cloud.clone(), processor.clone(), config()).unwrap();
    let fs: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();
    for key in 0..20 {
        db.put(1, key, row(key)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    plan.outage();
    db.checkpoint().unwrap();
    ginja.shutdown();
    drop(db);
    plan.restore();
    assert_eq!(
        ginja.stats().db_objects_uploaded,
        0,
        "the checkpoint was cut"
    );

    let ginja = Ginja::reboot(local.clone(), cloud.clone(), processor, config()).unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();
    db.put(1, 20, row(20)).unwrap();
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    assert_eq!(ginja.stats().dumps_uploaded, 1);
    assert!(ginja.stats().gc_deletes > 0, "the checkpoint collected WAL");
    ginja.shutdown();

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config()).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for key in 0..=20 {
        assert_eq!(db.get(1, key).unwrap(), Some(row(key)), "key {key}");
    }
}
