//! Outage endurance, end to end: a prolonged cloud outage under live
//! traffic must keep RAM bounded (ring + durable spill), escalate the
//! outage policy through its states, shed *loudly* at the disk
//! ceiling, survive a crash with records still spilled, and — once the
//! cloud answers again — catch up to a scrub-clean bucket with zero
//! acknowledged loss. Plus the fleet variant: one tenant's outage must
//! not drag its neighbor's commit latency down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja::cloud::{
    FaultPlan, FaultStore, MemStore, ObjectStore, OpKind, PrefixStore, RetryConfig,
};
use ginja::core::{recover_into, Ginja, GinjaConfig, OutageConfig, OutageState, SentinelConfig};
use ginja::db::{Database, DbProfile};
use ginja::fleet::{Fleet, FleetConfig, TenantSpec};
use ginja::sentinel::Sentinel;
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

/// A retry policy whose breaker opens within a few failures, so the
/// outage policy sees pressure promptly (a real outage compressed from
/// hours to milliseconds — the state machine only sees durations
/// through `enduring_after`, which is scaled down to match).
fn fast_breaker() -> RetryConfig {
    RetryConfig {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        breaker_probes: 1,
    }
}

const MARKER_TABLE: u32 = 77;

/// The headline endurance scenario: TPC-C traffic, then the cloud goes
/// away entirely for a (simulated) long outage while commits keep
/// arriving. The in-memory ring must never exceed its capacity — the
/// overflow spills to disk — the policy must reach `Enduring` and
/// widen B/TB (never S), checkpoints queued during the outage must
/// coalesce, and after the cloud returns the catch-up drain must leave
/// an empty spill, a scrub-clean bucket and a lossless recovery.
#[test]
fn outage_endures_with_bounded_ram_and_lossless_catchup() {
    const RING: usize = 4;
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
        .safety(600)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .retry(fast_breaker())
        .sentinel(SentinelConfig {
            scrub_sample: 0, // verify every payload
            ..SentinelConfig::default()
        })
        .outage(OutageConfig {
            ring_capacity: RING,
            ckpt_capacity: 2,
            enduring_after: Duration::from_millis(50),
            poll_interval: Duration::from_millis(5),
            ..OutageConfig::default()
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

    // Healthy phase: real traffic lands in the cloud.
    for _ in 0..8 {
        tpcc.run_transaction(&db).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)), "healthy phase drains");
    assert_eq!(ginja.exposure().outage, OutageState::Healthy);

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
    for round in 0..4u64 {
        db.put(MARKER_TABLE, 200 + round, b"ckpt-bait".to_vec())
            .unwrap();
        db.checkpoint().unwrap();
    }

    // The policy must escalate to Enduring — and the whole time, the
    // in-memory ring must stay within its bound (the backlog lives on
    // disk, not in RAM).
    let enduring = wait_for(Duration::from_secs(20), || {
        let snap = ginja.stats();
        assert!(
            snap.outage.ring_len <= RING as u64,
            "ring exceeded its capacity: {} > {RING}",
            snap.outage.ring_len
        );
        matches!(
            snap.outage.state,
            OutageState::Enduring | OutageState::Shedding
        )
    });
    assert!(
        enduring,
        "policy never reached Enduring: {:?}",
        ginja.stats().outage
    );

    let mid = ginja.stats();
    assert!(
        mid.outage.spilled > 0,
        "backlog never spilled: {:?}",
        mid.outage
    );
    assert!(
        mid.outage.spill_records > 0,
        "spill gauge empty: {:?}",
        mid.outage
    );
    assert!(
        mid.outage.outages >= 1,
        "outage not counted: {:?}",
        mid.outage
    );
    assert!(
        mid.outage.ckpt_coalesced >= 1,
        "checkpoint burst never coalesced: {:?}",
        mid.outage
    );
    // Adaptive backpressure went through the one-knob path: B widened
    // toward S, and S itself is untouchable.
    assert!(
        ginja.current_knobs().batch > config.batch,
        "Enduring must widen B: {:?}",
        ginja.current_knobs()
    );
    assert!(ginja.current_knobs().batch <= config.safety);
    assert_eq!(ginja.config().safety, 600, "S must never move");

    // The cloud returns: catch-up drains the spill (in order, through
    // its own lane), the pipeline drains, knobs restore, and the
    // policy walks back to Healthy.
    plan.restore();
    assert!(ginja.sync(Duration::from_secs(60)), "catch-up must drain");
    assert!(
        wait_for(Duration::from_secs(10), || {
            ginja.exposure().outage == OutageState::Healthy
        }),
        "policy stuck at {:?}",
        ginja.exposure().outage
    );
    assert!(
        wait_for(Duration::from_secs(10), || {
            ginja.current_knobs().batch == config.batch
        }),
        "knobs not restored: {:?}",
        ginja.current_knobs()
    );
    let fin = ginja.stats();
    assert_eq!(
        fin.outage.spill_records, 0,
        "spill not drained: {:?}",
        fin.outage
    );
    assert_eq!(fin.outage.spill_bytes, 0);
    assert!(
        fin.outage.drained >= mid.outage.spilled,
        "drain lost records: {:?}",
        fin.outage
    );
    assert!(fin.outage.outage_time > Duration::ZERO);
    assert!(!ginja.exposure().fatal, "endurance is not an error");

    // The bucket the outage left behind is scrub-clean.
    let sentinel = Sentinel::new(&ginja);
    let cycle = sentinel.run_cycle().unwrap();
    assert!(
        cycle.scrub.is_clean(),
        "dirty bucket after catch-up: {:?}",
        cycle.scrub.anomalies
    );

    assert!(ginja.sync(Duration::from_secs(30)));
    ginja.shutdown();
    let reference_stock = db.dump_table(ginja::workload::tables::STOCK).unwrap();
    let reference_markers = db.dump_table(MARKER_TABLE).unwrap();
    drop(db);

    // Disaster after the outage: recovery sees every acknowledged row.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(
        db.dump_table(ginja::workload::tables::STOCK).unwrap(),
        reference_stock
    );
    assert_eq!(db.dump_table(MARKER_TABLE).unwrap(), reference_markers);
    let probe = probe_tpcc(&db).unwrap();
    assert!(probe.is_consistent(), "{probe:?}");
}

/// At the spill disk ceiling the policy sheds — *loudly*: the state
/// goes to `Shedding`, `Exposure::fatal` turns on, and the shed is
/// counted. Nothing is dropped: the aggregator holds the line in RAM
/// and the DBMS saturates at S. When the cloud returns, the backlog
/// drains, the alarm clears, and recovery is lossless.
#[test]
fn outage_sheds_at_spill_ceiling_loudly_and_recovers() {
    const TABLE: u32 = 7;
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
        .retry(fast_breaker())
        .outage(OutageConfig {
            ring_capacity: 2,
            // Two ~8 KiB WAL records fill the ceiling.
            spill_ceiling: 16_384,
            enduring_after: Duration::from_millis(20),
            poll_interval: Duration::from_millis(2),
            ..OutageConfig::default()
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

    plan.outage();
    for seq in 0..12u64 {
        db.put(TABLE, seq, format!("shed-{seq}").into_bytes())
            .unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(20), || {
            ginja.exposure().outage == OutageState::Shedding
        }),
        "never shed: {:?}",
        ginja.stats().outage
    );
    let exp = ginja.exposure();
    assert!(exp.fatal, "shedding must be loud: {exp:?}");
    assert!(exp.outage_sheds >= 1, "shed not counted: {exp:?}");
    let snap = ginja.stats();
    assert!(
        snap.outage.spill_bytes >= 16_384,
        "shed below the ceiling: {:?}",
        snap.outage
    );
    assert!(snap.outage.ring_len <= 2);

    // Cloud back: the backlog drains below the ceiling, the alarm
    // clears, and nothing was lost.
    plan.restore();
    assert!(
        ginja.sync(Duration::from_secs(60)),
        "shed backlog must drain"
    );
    assert!(
        wait_for(Duration::from_secs(10), || {
            ginja.exposure().outage == OutageState::Healthy
        }),
        "policy stuck at {:?}",
        ginja.exposure().outage
    );
    assert!(!ginja.exposure().fatal, "alarm must clear after the drain");
    assert_eq!(ginja.stats().outage.spill_records, 0);

    ginja.shutdown();
    drop(db);
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    for seq in 0..12u64 {
        assert_eq!(
            db.get(TABLE, seq).unwrap(),
            Some(format!("shed-{seq}").into_bytes()),
            "row {seq} lost through the shed"
        );
    }
}

/// A crash mid-outage leaves records in the durable spill queue; the
/// next reboot must upload them (re-timestamped, ahead of the resync
/// pass) rather than silently dropping un-acked commit content.
#[test]
fn outage_spill_survives_crash_and_reboot() {
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
        .retry(fast_breaker())
        .outage(OutageConfig {
            ring_capacity: 2,
            poll_interval: Duration::from_millis(2),
            ..OutageConfig::default()
        })
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
        wait_for(Duration::from_secs(20), || ginja
            .stats()
            .outage
            .spill_records
            > 0),
        "no spill before the crash: {:?}",
        ginja.stats().outage
    );
    let spilled = ginja.stats().outage.spill_records;

    // Crash: the pipeline stops mid-outage; the spill stays on disk.
    ginja.shutdown();
    drop(db);

    // Reboot after the cloud returns: the spill drains into the cloud
    // before the WAL resync pass, then the queue is empty.
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
        snap.wal_resync_objects >= spilled,
        "reboot uploaded {} objects for {spilled} spilled records",
        snap.wal_resync_objects
    );
    assert_eq!(
        snap.outage.spill_records, 0,
        "spill must be empty after reboot"
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

/// Fleet isolation: one tenant enduring a cloud outage (its uploads
/// all fail, its backlog spills) must not wreck its neighbor's commit
/// latency — the catch-up and retry traffic competes through fair
/// scheduler lanes, so the neighbor's p99 stays within 2× its own
/// baseline (plus a small absolute floor for scheduler jitter on a
/// loaded CI box). The fleet roll-up must show exactly one tenant
/// enduring.
#[test]
fn fleet_outage_leaves_neighbor_latency_intact() {
    const N: usize = 200;
    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let fleet = Fleet::new(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        FleetConfig {
            width: 4,
            // Fast in-layer retries, breaker OFF: the fleet-wide
            // breaker is shared, so one tenant's dead prefix tripping
            // it would fail-fast every neighbor's ops — the opposite
            // of what this test wants to observe.
            retry: RetryConfig {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                breaker_threshold: 0,
                ..RetryConfig::default()
            },
            ..FleetConfig::default()
        },
    );
    let config = GinjaConfig::builder()
        .batch(2)
        .safety(400)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .outage(OutageConfig {
            ring_capacity: 4,
            // Fleet tenants have their in-layer breaker disabled (the
            // fleet store owns resilience), so Enduring is reached
            // through *sustained* spill: long enough that t1's
            // burst-only spill (healthy cloud, drained in tens of
            // milliseconds) never sustains it, short enough that t0's
            // stuck backlog does within the wait budget.
            enduring_after: Duration::from_secs(1),
            poll_interval: Duration::from_millis(5),
            ..OutageConfig::default()
        })
        .build()
        .unwrap();
    for name in ["t0", "t1"] {
        fleet
            .attach(TenantSpec::new(
                name,
                DbProfile::postgres_small().with_checkpoint_every(100_000),
                config.clone(),
            ))
            .unwrap();
    }
    let tenants = fleet.tenants();
    let (t0, t1) = (&tenants[0], &tenants[1]);
    t0.db().create_table(MARKER_TABLE, 64).unwrap();
    t1.db().create_table(MARKER_TABLE, 64).unwrap();
    assert!(fleet.sync_all(Duration::from_secs(30)));

    let p99_of = |lat: &mut Vec<Duration>| -> Duration {
        lat.sort();
        lat[lat.len() * 99 / 100]
    };

    // Baseline: both tenants healthy, measure t1's put latency.
    let mut base = Vec::with_capacity(N);
    for seq in 0..N as u64 {
        let t = Instant::now();
        t1.db()
            .put(MARKER_TABLE, seq, format!("t1-b{seq}").into_bytes())
            .unwrap();
        base.push(t.elapsed());
    }
    let p99_base = p99_of(&mut base);
    assert!(fleet.sync_all(Duration::from_secs(30)));

    // t0's cloud goes away (its prefix only); its backlog spills and
    // its policy endures while t1 keeps committing.
    plan.fail_matching(OpKind::Put, "tenants/t0/", 1_000_000);
    for seq in 0..60u64 {
        t0.db()
            .put(MARKER_TABLE, 1000 + seq, format!("t0-o{seq}").into_bytes())
            .unwrap();
    }
    assert!(
        wait_for(Duration::from_secs(20), || {
            matches!(
                t0.ginja().exposure().outage,
                OutageState::Enduring | OutageState::Shedding
            )
        }),
        "t0 never endured: {:?}",
        t0.ginja().stats().outage
    );

    let mut degraded = Vec::with_capacity(N);
    for seq in 0..N as u64 {
        let t = Instant::now();
        t1.db()
            .put(MARKER_TABLE, 2000 + seq, format!("t1-o{seq}").into_bytes())
            .unwrap();
        degraded.push(t.elapsed());
    }
    let p99_degraded = p99_of(&mut degraded);
    assert!(
        p99_degraded <= p99_base * 2 + Duration::from_millis(5),
        "neighbor p99 collapsed under t0's outage: {p99_degraded:?} vs baseline {p99_base:?}"
    );

    // The roll-up sees exactly one tenant enduring, with spill on disk.
    let snap = fleet.snapshot();
    assert_eq!(snap.totals.enduring_tenants, 1, "{:?}", snap.totals);
    assert!(snap.totals.outages >= 1);
    assert!(snap.totals.spill_records >= 1, "{:?}", snap.totals);
    let t1_state = snap.tenant("t1").unwrap().stats.outage.state;
    assert!(
        matches!(t1_state, OutageState::Healthy | OutageState::Degraded),
        "the outage must not leak to the neighbor: t1 is {t1_state:?}"
    );

    // Cloud back: everything drains; both tenants recover losslessly.
    plan.clear();
    assert!(
        fleet.sync_all(Duration::from_secs(60)),
        "fleet catch-up must drain"
    );
    assert_eq!(fleet.snapshot().totals.spill_records, 0);

    for tenant in &tenants {
        let view = PrefixStore::new(
            mem.clone() as Arc<dyn ObjectStore>,
            tenant.prefix().to_string(),
        );
        let target = Arc::new(MemFs::new());
        recover_into(target.as_ref(), &view, &config).unwrap();
        let db = Database::open(target, DbProfile::postgres_small()).unwrap();
        let rows = db.dump_table(MARKER_TABLE).unwrap();
        let written = if tenant.name() == "t0" { 60 } else { 2 * N };
        assert_eq!(
            rows.len(),
            written,
            "tenant {} lost acked rows after catch-up",
            tenant.name()
        );
    }
    fleet.shutdown();
}
