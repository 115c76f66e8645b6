//! Outage endurance, end to end: a prolonged cloud outage under live
//! traffic must keep the un-acked backlog within S (the DBMS blocks at
//! the bound, nothing is dropped), coalesce the checkpoints it queues,
//! survive a crash with that backlog un-uploaded (Reboot's resync heals
//! it from the local WAL), and — once the cloud answers again — catch
//! up to a scrub-clean bucket with zero acknowledged loss.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja::cloud::{FaultPlan, FaultStore, MemStore, RetryConfig};
use ginja::core::{recover_into, scrub_bucket, Ginja, GinjaConfig};
use ginja::db::{Database, DbProfile};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use ginja::workload::{probe_tpcc, Tpcc, TpccScale};

/// Polls `probe` until it returns true or `timeout` elapses.
fn wait_for(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    probe()
}

/// A retry policy that gives up on an operation within milliseconds,
/// leaving the pacing to the pipeline's own loop: a real outage
/// compressed from hours to milliseconds.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    }
}

const MARKER_TABLE: u32 = 77;

/// Checkpoints issued under the outage: more than the checkpoint queue
/// holds (8, plus the one the checkpointer is uploading), so the last
/// ones must coalesce.
const CKPT_BURST: u64 = 12;

/// The headline endurance scenario: TPC-C traffic, then the cloud goes
/// away entirely for a (simulated) long outage while commits keep
/// arriving. The un-acked backlog must never exceed S — a writer that
/// keeps committing ends up blocked at the bound, not dropped —
/// checkpoints queued during the outage must coalesce, and after the
/// cloud returns catch-up must leave a scrub-clean bucket and a lossless
/// recovery.
#[test]
fn outage_endures_with_bounded_ram_and_lossless_catchup() {
    const SAFETY: usize = 600;
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, 0x047A6E, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    db.create_table(MARKER_TABLE, 64).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(SAFETY)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .retry(fast_retry())
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Arc::new(Database::open(fs, profile.clone()).unwrap());

    // Every sample of the outage phase goes through here: the backlog
    // is the commit queue alone (≤ S).
    let assert_bounded = || {
        let pending = ginja.pending_updates();
        assert!(
            pending <= SAFETY,
            "backlog exceeded S: {pending} > {SAFETY}"
        );
    };

    // Healthy phase: real traffic lands in the cloud.
    for _ in 0..8 {
        tpcc.run_transaction(&db).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)), "healthy phase drains");

    // The outage: every cloud op fails from here on. Commits keep
    // coming — markers, a little more TPC-C, and a burst of
    // checkpoints (more than the queue holds, forcing coalescing).
    plan.outage();
    for seq in 0..120u64 {
        db.put(MARKER_TABLE, seq, format!("m{seq}").into_bytes())
            .unwrap();
    }
    for _ in 0..4 {
        tpcc.run_transaction(&db).unwrap();
    }
    for round in 0..CKPT_BURST {
        db.put(MARKER_TABLE, 200 + round, b"ckpt-bait".to_vec())
            .unwrap();
        db.checkpoint().unwrap();
    }

    // The checkpoint burst must coalesce, the backlog bounded the
    // whole time.
    let coalesced = wait_for(Duration::from_secs(20), || {
        assert_bounded();
        ginja.stats().ckpt_coalesced >= 1
    });
    assert!(
        coalesced,
        "checkpoint burst never coalesced: {:?}",
        ginja.stats()
    );

    // A writer that keeps committing through the outage fills the
    // queue to S and then sits blocked inside its commit — held, not
    // dropped, and not an error. `acked` counts the commits that
    // returned; the one in flight when the cloud comes back completes
    // then.
    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, acked, stop) = (db.clone(), acked.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let seq = 1000 + acked.load(Ordering::SeqCst);
                db.put(MARKER_TABLE, seq, format!("w{seq}").into_bytes())
                    .unwrap();
                acked.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    assert!(
        wait_for(Duration::from_secs(30), || {
            assert_bounded();
            ginja.stats().ingest.put_parks > 0
        }),
        "the writer never blocked at S: {:?} pending, {:?}",
        ginja.pending_updates(),
        ginja.stats().ingest
    );
    assert_bounded();
    assert!(!ginja.exposure().fatal, "blocking at S is not an error");

    // The cloud returns: the uploaders' retries get through, the writer
    // unblocks, and the pipeline drains.
    plan.restore();
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
    assert!(ginja.sync(Duration::from_secs(60)), "catch-up must drain");
    assert!(!ginja.exposure().fatal, "endurance is not an error");

    // The bucket the outage left behind is scrub-clean.
    let scrub = scrub_bucket(mem.as_ref(), &config).unwrap();
    assert!(
        scrub.is_clean(),
        "dirty bucket after catch-up: {:?}",
        scrub.anomalies
    );

    assert!(ginja.sync(Duration::from_secs(30)));
    ginja.shutdown();
    let reference_stock = db.dump_table(ginja::workload::tables::STOCK).unwrap();
    let reference_markers = db.dump_table(MARKER_TABLE).unwrap();
    drop(db);

    // Disaster after the outage: recovery sees every acknowledged row,
    // the blocked writer's included.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(
        db.dump_table(ginja::workload::tables::STOCK).unwrap(),
        reference_stock
    );
    assert_eq!(db.dump_table(MARKER_TABLE).unwrap(), reference_markers);
    let written = acked.load(Ordering::SeqCst);
    assert!(written > 0, "the writer never committed");
    for seq in 1000..1000 + written {
        assert_eq!(
            db.get(MARKER_TABLE, seq).unwrap(),
            Some(format!("w{seq}").into_bytes()),
            "row {seq} acknowledged at the Safety bound was lost"
        );
    }
    let probe = probe_tpcc(&db).unwrap();
    assert!(probe.is_consistent(), "{probe:?}");
}

/// A crash mid-outage strands the whole un-acked window in RAM — but
/// every one of those updates reached the local WAL before Ginja saw
/// it, so the next reboot's resync pass uploads them from there rather
/// than silently dropping un-acked commit content.
#[test]
fn crash_mid_outage_is_healed_by_reboot_resync() {
    const TABLE: u32 = 9;
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(TABLE, 64).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(1)
        .safety(10_000)
        .batch_timeout(Duration::from_millis(2))
        .safety_timeout(Duration::from_secs(60))
        .retry(fast_retry())
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();

    plan.outage();
    for seq in 0..8u64 {
        db.put(TABLE, seq, format!("crash-{seq}").into_bytes())
            .unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(20), || ginja.pending_updates() > 0),
        "no backlog before the crash: {:?}",
        ginja.exposure()
    );

    // Crash: the pipeline stops mid-outage; the backlog dies with it.
    ginja.shutdown();
    drop(db);

    // Reboot after the cloud returns: the resync pass uploads what the
    // local WAL holds and the cloud lacks.
    plan.restore();
    let ginja = Ginja::reboot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let snap = ginja.stats();
    assert!(
        snap.wal_resync_objects >= 1,
        "reboot resynced nothing: {snap:?}"
    );
    ginja.shutdown();

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for seq in 0..8u64 {
        assert_eq!(
            db.get(TABLE, seq).unwrap(),
            Some(format!("crash-{seq}").into_bytes()),
            "row {seq} lost across the crash"
        );
    }
}

/// With the default retry policy, catch-up starts within one back-off
/// of the cloud answering again: an uploader's durable PUT sleeps at
/// most `max_delay` (2 s) between attempts, and sixteen failures into
/// the outage, spread over the uploaders, its waits are still far
/// shorter, so a backlog of a few dozen updates drains
/// well inside 3 s of `restore()`. Nothing holds the pipeline off a
/// cloud that answers.
#[test]
fn catch_up_begins_within_one_backoff_of_the_cloud_returning() {
    const TABLE: u32 = 11;
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(TABLE, 64).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(1_000)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .retry(RetryConfig::default())
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();

    plan.outage();
    for seq in 0..20u64 {
        db.put(TABLE, seq, format!("r{seq}").into_bytes()).unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(60), || plan.injected_count() >= 16),
        "the uploaders never kept retrying: {} injected",
        plan.injected_count()
    );
    assert!(ginja.pending_updates() > 0);

    plan.restore();
    let restored = Instant::now();
    assert!(
        ginja.sync(Duration::from_secs(3)),
        "catch-up had not drained {:?} after the cloud returned: {:?}",
        restored.elapsed(),
        ginja.exposure()
    );
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for seq in 0..20u64 {
        assert_eq!(
            db.get(TABLE, seq).unwrap(),
            Some(format!("r{seq}").into_bytes()),
            "row {seq} lost across the outage"
        );
    }
}
