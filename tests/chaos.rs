//! Chaos testing: TPC-C traffic with randomized cloud faults injected
//! throughout, ending in a disaster — the recovered database must
//! always pass the consistency probe.

use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::{FaultPlan, FaultStore, MemStore, OpKind};
use ginja::core::{recover_into, Ginja, GinjaConfig, GinjaStatsSnapshot, RetryConfig};
use ginja::db::{Database, DbProfile, ProfileKind};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use ginja::workload::{probe_tpcc, Tpcc, TpccScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_chaos(kind: ProfileKind, seed: u64, rounds: usize) {
    let profile = match kind {
        ProfileKind::Postgres => DbProfile::postgres_small().with_checkpoint_every(30),
        ProfileKind::MySql => DbProfile::mysql_small().with_checkpoint_every(30),
    };
    let processor = kind.processor();
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, seed, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(6)
        .safety(90)
        .batch_timeout(Duration::from_millis(10))
        .safety_timeout(Duration::from_secs(30))
        // Production-scale backoff (10 ms…2 s) would dominate this
        // test's wall clock; scale it down while keeping the same shape.
        .retry(RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            ..RetryConfig::default()
        })
        .build()
        .unwrap();
    let ginja = Ginja::boot(local.clone(), cloud, processor, config.clone()).unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();

    // Interleave traffic with random fault injection.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4405);
    for _ in 0..rounds {
        match rng.gen_range(0..10u32) {
            0 => plan.fail_next(OpKind::Put, rng.gen_range(1..5)),
            1 => plan.fail_next(OpKind::Delete, rng.gen_range(1..8)),
            2 => plan.fail_matching(OpKind::Put, "DB/", 1),
            _ => {}
        }
        for _ in 0..rng.gen_range(1..12) {
            tpcc.run_transaction(&db).unwrap();
        }
    }

    // Let everything land, then disaster.
    assert!(
        ginja.sync(Duration::from_secs(30)),
        "pipeline must drain after chaos"
    );
    ginja.shutdown();
    let reference_stock = db.dump_table(ginja::workload::tables::STOCK).unwrap();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(
        db.dump_table(ginja::workload::tables::STOCK).unwrap(),
        reference_stock
    );
    let probe = probe_tpcc(&db).unwrap();
    assert!(probe.is_consistent(), "{kind:?} seed {seed}: {probe:?}");
}

#[test]
fn chaos_short_postgres() {
    for seed in [1u64, 2, 3] {
        run_chaos(ProfileKind::Postgres, seed, 25);
    }
}

#[test]
fn chaos_short_mysql() {
    for seed in [4u64, 5, 6] {
        run_chaos(ProfileKind::MySql, seed, 25);
    }
}

/// Long soak — run explicitly with `cargo test -- --ignored`.
#[test]
#[ignore = "long soak; run on demand"]
fn chaos_soak() {
    for kind in [ProfileKind::Postgres, ProfileKind::MySql] {
        for seed in 0..20u64 {
            run_chaos(kind, seed, 120);
        }
    }
}

/// Runs a fixed TPC-C workload against a cloud whose `put`s fail
/// transiently with probability `p`, under the given retry policy.
/// Returns the final stats; recovery must always be lossless, and that
/// part is asserted here.
fn run_with_put_faults(p: f64, seed: u64, retry: RetryConfig) -> GinjaStatsSnapshot {
    let profile = DbProfile::postgres_small().with_checkpoint_every(40);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, seed, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    // Small Batch/Safety so a stalled upload visibly blocks the DBMS.
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(4)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(30))
        .retry(retry)
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    // Faults start only after boot so both runs boot identically.
    plan.fail_randomly(OpKind::Put, p, seed);

    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();
    for _ in 0..120 {
        tpcc.run_transaction(&db).unwrap();
    }

    assert!(
        ginja.sync(Duration::from_secs(60)),
        "pipeline must drain despite faults"
    );
    let stats = ginja.stats();
    ginja.shutdown();
    plan.clear();
    let reference_stock = db.dump_table(ginja::workload::tables::STOCK).unwrap();
    drop(db);

    // Zero lost updates: the recovered database matches the survivor.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(
        db.dump_table(ginja::workload::tables::STOCK).unwrap(),
        reference_stock
    );
    let probe = probe_tpcc(&db).unwrap();
    assert!(probe.is_consistent(), "seed {seed}: {probe:?}");

    stats
}

/// With 20 % transient PUT failures a TPC-C run completes with zero
/// lost updates and a consistent TPC-C probe, the faults absorbed by
/// the one retry loop, under a fast policy and the default one alike.
#[test]
fn chaos_transient_put_faults_are_retried_losslessly() {
    let seed = 0xC4405;
    let fast = RetryConfig {
        max_attempts: 12,
        base_delay: Duration::from_micros(500),
        max_delay: Duration::from_millis(5),
    };
    for retry in [fast, RetryConfig::default()] {
        let stats = run_with_put_faults(0.2, seed, retry.clone());
        assert!(
            stats.cloud_retries > 0,
            "20% fault rate must force retries under {retry:?}: {stats:?}"
        );
    }
}

/// Regression pin for the `chaos_short_postgres` flake (deterministic
/// reproduction of its root cause).
///
/// Two bugs compounded. First, the checkpoint watermark *regressed*:
/// it was taken from `last_wal_ts()`, which is the max key of the WAL
/// map — and a checkpoint's own GC empties that map, so the next
/// checkpoint (if no WAL object landed in between) was stamped with a
/// stale, smaller timestamp. Colliding timestamps are resolved by
/// keeping one generation per ts (a dump beats a checkpoint; within a
/// kind, larger wins), and a checkpoint stamped at or before the
/// newest dump is invisible to recovery (`checkpoints_after` starts
/// after the dump) — so a regressed watermark can orphan freshly
/// flushed pages the moment their covering WAL is GC'd. The fix is
/// `CloudView::watermark()`: the frontier never regresses below the
/// newest DB object, so the post-GC checkpoint lands *on* its
/// predecessor's timestamp and must merge with it.
///
/// Second, that merge silently degraded. It starts by GETting the old
/// generation's parts, and the old code skipped the merge on the first
/// GET failure (e.g. during an outage), uploading a
/// non-superset object at the same timestamp. If that object was the
/// larger one, recovery discarded the old generation — the only
/// remaining image of its pages, their WAL having been GC'd when the
/// first checkpoint landed — and silently lost data. The fix retries
/// the merge GETs as stubbornly as uploads.
///
/// This test forces that exact sequence with no timing dependence:
/// rows A are checkpointed (their WAL objects are then GC'd, so the
/// next watermark would regress without the fix), the merge GETs of
/// the *next* checkpoint are made to fail transiently, and rows B —
/// chosen to make the colliding object strictly larger — are
/// checkpointed with no WAL object in between (Batch is far away and
/// the batch timeout long), forcing a same-timestamp merge. With both
/// fixes the uploaded object is a true superset and recovery must see
/// every row of A and B; with either bug present, rows A vanish.
#[test]
fn chaos_checkpoint_ts_collision_merge_survives_get_faults() {
    const TABLE: u32 = 91;
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    // Two slots per 8 KiB page: rows A and rows B occupy disjoint
    // pages, so neither checkpoint's object subsumes the other's
    // pages by accident.
    db.create_table(TABLE, 4000).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    // Large Batch + long batch timeout: WAL objects form only when
    // sync() force-flushes, so both manual checkpoints below capture
    // the same WAL frontier timestamp. Bounded retries are disabled;
    // the merge's GETs are durable and must outlast the injected faults
    // all the same.
    let config = GinjaConfig::builder()
        .batch(100)
        .safety(1000)
        .batch_timeout(Duration::from_secs(10))
        .safety_timeout(Duration::from_secs(30))
        .retry(RetryConfig::disabled())
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

    // Rows A, flushed to the cloud as WAL objects, then checkpointed.
    // The checkpoint's GC deletes those WAL objects: rows A now live
    // only in the checkpoint object.
    let big_row = |tag: &str, key: u64| -> Vec<u8> {
        let mut value = format!("{tag}-{key}").into_bytes();
        value.resize(3500, b'.');
        value
    };
    for key in 0..3u64 {
        db.put(TABLE, key, big_row("row-a", key)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)), "rows A must flush");
    let before = ginja.stats();
    db.checkpoint().unwrap();
    assert!(
        ginja.sync(Duration::from_secs(30)),
        "checkpoint 1 must land"
    );
    let after_first = ginja.stats();
    assert!(
        after_first.db_objects_uploaded > before.db_objects_uploaded,
        "checkpoint 1 must upload a DB object: {after_first:?}"
    );
    assert!(
        after_first.gc_deletes > before.gc_deletes,
        "checkpoint 1 must GC the covered WAL objects: {after_first:?}"
    );

    // Every DB-object GET now fails a few times: the old code skipped
    // the merge on the first failure, the fix keeps retrying.
    plan.fail_matching(OpKind::Get, "DB/", 4);

    // Rows B: strictly more pages than rows A, so the colliding object
    // is the larger generation — the one recovery will keep. No WAL
    // object forms before the checkpoint captures its timestamp
    // (9 updates < Batch=100, timeout far away), so this checkpoint
    // collides with checkpoint 1's timestamp and must merge.
    for key in 10..19u64 {
        db.put(TABLE, key, big_row("row-b", key)).unwrap();
    }
    db.checkpoint().unwrap();
    assert!(
        ginja.sync(Duration::from_secs(30)),
        "checkpoint 2 must land"
    );
    ginja.shutdown();
    drop(db);
    assert!(
        plan.injected_count() > 0,
        "vacuous test: checkpoint 2 never issued the merge GETs"
    );

    // Disaster. Every acknowledged row must survive: rows A exist only
    // in the (merged) checkpoint object at the collided timestamp.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    let big_row = |tag: &str, key: u64| -> Vec<u8> {
        let mut value = format!("{tag}-{key}").into_bytes();
        value.resize(3500, b'.');
        value
    };
    for key in 0..3u64 {
        assert_eq!(
            db.get(TABLE, key).unwrap(),
            Some(big_row("row-a", key)),
            "row A {key} lost: the ts-collision merge dropped the old generation"
        );
    }
    for key in 10..19u64 {
        assert_eq!(
            db.get(TABLE, key).unwrap(),
            Some(big_row("row-b", key)),
            "row B {key} lost"
        );
    }
}

/// The third compounding failure mode of the same collision family: a
/// *merge upload that dies mid-generation*. The merged object is a
/// superset and therefore larger, so if some of its parts land before
/// the wave aborts (retries exhausted, crash), the
/// bucket holds a partial generation that outranks the registered one
/// on kind/size alone — yet can never be applied, because recovery
/// skips incomplete entries. A listing-rebuilt view that let it win
/// would evict the complete generation recovery actually needs, whose
/// covering WAL is long GC'd: silent loss. `CloudView`'s one
/// generation order puts completeness first.
///
/// The partial generation is planted directly (one fabricated part
/// name next to the real checkpoint), making the scenario exact and
/// timing-free: neither the buggy nor the fixed path ever GETs the
/// partial object, so its bytes are irrelevant — only the name wars.
#[test]
fn chaos_aborted_merge_partial_generation_never_wins_recovery() {
    use ginja::cloud::ObjectStore;
    use ginja::core::{DbObjectKind, DbObjectName};

    const TABLE: u32 = 92;
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(TABLE, 4000).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(100)
        .safety(1000)
        .batch_timeout(Duration::from_secs(10))
        .safety_timeout(Duration::from_secs(30))
        .build()
        .unwrap();
    let ginja = Ginja::boot(
        local.clone(),
        mem.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();

    // Rows A, flushed as WAL objects and then checkpointed; the
    // checkpoint's GC deletes the WAL, so rows A now live only in the
    // checkpoint object.
    let big_row = |key: u64| -> Vec<u8> {
        let mut value = format!("row-a-{key}").into_bytes();
        value.resize(3500, b'.');
        value
    };
    for key in 0..3u64 {
        db.put(TABLE, key, big_row(key)).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)), "rows A must flush");
    let before = ginja.stats();
    db.checkpoint().unwrap();
    assert!(ginja.sync(Duration::from_secs(30)), "checkpoint must land");
    let after = ginja.stats();
    assert!(after.db_objects_uploaded > before.db_objects_uploaded);
    assert!(
        after.gc_deletes > before.gc_deletes,
        "checkpoint must GC the covered WAL objects: {after:?}"
    );
    ginja.shutdown();
    drop(db);

    // Plant the aborted merge: one part (of a declared two) of a
    // larger generation at the registered checkpoint's timestamp.
    let registered = mem
        .list("DB/")
        .unwrap()
        .into_iter()
        .map(|n| DbObjectName::parse(&n).unwrap())
        .find(|n| n.kind == DbObjectKind::Checkpoint)
        .expect("a registered checkpoint object");
    let partial = DbObjectName {
        ts: registered.ts,
        kind: DbObjectKind::Checkpoint,
        size: registered.size + 4096,
        part: 0,
        parts: 2,
    };
    mem.put(&partial.to_name(), b"aborted merge wreckage")
        .unwrap();

    // Disaster. The partial generation must not evict the complete
    // one: rows A have no other surviving image.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for key in 0..3u64 {
        assert_eq!(
            db.get(TABLE, key).unwrap(),
            Some(big_row(key)),
            "row A {key} lost: the partial generation won the listing"
        );
    }
}

/// A sustained outage must *block* the DBMS at the Safety limit —
/// never drop an update. When the cloud returns, the retries drain
/// everything and recovery is lossless.
#[test]
fn chaos_outage_blocks_dbms_and_drains() {
    let profile = DbProfile::postgres_small().with_checkpoint_every(1000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, 7, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(4)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .retry(RetryConfig {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
        })
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

    // Healthy warm-up.
    for _ in 0..10 {
        tpcc.run_transaction(&db).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)));

    // Total outage: every cloud op fails until restore().
    plan.outage();
    let writer = {
        let ginja = ginja.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                tpcc.run_transaction(&db).unwrap();
            }
            let _ = &ginja; // keep a handle so exposure polls race safely
            (db, tpcc)
        })
    };

    // Exposure must saturate at Safety (writes are blocking, not
    // failing, not being dropped).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let exposure = ginja.exposure();
        if exposure.updates >= config.safety {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queue never saturated: {exposure:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        !writer.is_finished(),
        "writer must be blocked at the Safety limit"
    );

    // Cloud returns: the retries get through, everything drains.
    plan.restore();
    let (db, _tpcc) = writer.join().unwrap();
    assert!(
        ginja.sync(Duration::from_secs(60)),
        "pipeline must drain after the outage"
    );
    let stats = ginja.stats();
    assert!(
        stats.updates_blocked > 0,
        "the outage must have blocked the DBMS: {stats:?}"
    );
    assert_eq!(ginja.pending_updates(), 0, "the queue drained");
    ginja.shutdown();

    let reference_stock = db.dump_table(ginja::workload::tables::STOCK).unwrap();
    drop(db);
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(
        db.dump_table(ginja::workload::tables::STOCK).unwrap(),
        reference_stock,
        "an outage must never lose an acknowledged update"
    );
    let probe = probe_tpcc(&db).unwrap();
    assert!(probe.is_consistent(), "{probe:?}");
}
