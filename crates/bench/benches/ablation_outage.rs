//! Ablation: bounded ring + disk spill vs RAM-only backlog under a
//! prolonged cloud outage.
//!
//! Two identical TPC-C rigs run the same three-phase script — healthy
//! traffic, a total cloud outage (every op fails while commits keep
//! arriving), then restore + catch-up — differing only in where the
//! outage backlog lives:
//!
//! * **spill** — the outage subsystem as shipped: a small in-memory
//!   upload ring whose overflow journals to the disk spill queue;
//! * **ram-only** — the ablated rig: a ring sized so large it never
//!   overflows, so the whole backlog sits in RAM.
//!
//! Both rigs must keep committing through the outage (the CommitQueue
//! holds the unacked window against S; neither rig is allowed to stall
//! below it) and both must catch up to a lossless recovery. The claim
//! under test is the memory bound: the spill rig's peak ring occupancy
//! stays at its configured capacity while the ram-only rig's peak
//! grows with the backlog — endurance costs disk, not RAM.
//!
//! With `BENCH_PR8_OUT=<path>` the headline numbers are written as a
//! small JSON document (CI smoke archives a trend point from it).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_bench::table::{fmt, Table};
use ginja_bench::timescale::{run_wall_duration, time_scale, to_sim_per_minute};
use ginja_cloud::{FaultPlan, FaultStore, MemStore, RetryConfig};
use ginja_core::{recover_into, Ginja, GinjaConfig, OutageConfig, OutageState};
use ginja_db::{Database, DbProfile};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use ginja_workload::{probe_tpcc, tables, Tpcc, TpccScale};

/// The shipped configuration's ring: small enough that an outage
/// backlog must overflow it within the first few batches.
const SPILL_RING: usize = 8;
/// The ablated rig's ring: large enough that nothing ever spills and
/// the whole backlog rides in RAM.
const RAM_RING: usize = 1 << 20;

struct RigReport {
    healthy_txns: usize,
    outage_txns: usize,
    peak_ring_len: u64,
    peak_ring_bytes: u64,
    peak_spill_records: u64,
    peak_spill_bytes: u64,
    reached_enduring: bool,
    catchup: Duration,
}

/// A breaker that opens within a few failed attempts: a real multi-hour
/// outage compressed to bench time (the policy only perceives duration
/// through `enduring_after`, scaled down to match).
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

fn run_rig(ring_capacity: usize, wall: Duration, scale: f64) -> RigReport {
    let profile = DbProfile::postgres_small().with_checkpoint_every(1_000_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).expect("create");
    let mut tpcc = Tpcc::new(1, 0x0A6E, TpccScale::tiny());
    tpcc.create_schema(&db).expect("schema");
    tpcc.load(&db).expect("load");
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(4)
        // S must comfortably hold the whole outage backlog: the claim
        // under test is where the backlog *lives*, not when the DBMS
        // saturates.
        .safety(100_000)
        .batch_timeout(Duration::from_secs_f64(0.05 * scale))
        .safety_timeout(Duration::from_secs(120))
        .retry(fast_breaker())
        .outage(OutageConfig {
            ring_capacity,
            ckpt_capacity: 2,
            enduring_after: Duration::from_millis(30),
            poll_interval: Duration::from_millis(5),
            ..OutageConfig::default()
        })
        .build()
        .expect("valid config");
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .expect("boot");
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).expect("open");

    // Phase 1: healthy traffic.
    let deadline = Instant::now() + wall / 3;
    let mut healthy_txns = 0;
    while Instant::now() < deadline {
        tpcc.run_transaction(&db).expect("healthy txn");
        healthy_txns += 1;
    }
    assert!(ginja.sync(Duration::from_secs(60)), "healthy phase drains");

    // Phase 2: the outage. Commits keep coming; sample the backlog
    // gauges after every commit to catch the peaks.
    plan.outage();
    let deadline = Instant::now() + wall / 3;
    let mut outage_txns = 0;
    let (mut peak_ring_len, mut peak_ring_bytes) = (0u64, 0u64);
    let (mut peak_spill_records, mut peak_spill_bytes) = (0u64, 0u64);
    let mut reached_enduring = false;
    while Instant::now() < deadline {
        tpcc.run_transaction(&db).expect("outage txn");
        outage_txns += 1;
        let snap = ginja.stats().outage;
        peak_ring_len = peak_ring_len.max(snap.ring_len);
        peak_ring_bytes = peak_ring_bytes.max(snap.ring_bytes);
        peak_spill_records = peak_spill_records.max(snap.spill_records);
        peak_spill_bytes = peak_spill_bytes.max(snap.spill_bytes);
        reached_enduring |= matches!(snap.state, OutageState::Enduring | OutageState::Shedding);
    }

    // Phase 3: restore + catch-up, timed until the pipeline is empty
    // and the policy is back to Healthy.
    plan.restore();
    let t0 = Instant::now();
    assert!(ginja.sync(Duration::from_secs(120)), "catch-up drains");
    let settle = Instant::now() + Duration::from_secs(15);
    while Instant::now() < settle {
        let snap = ginja.stats().outage;
        if snap.state == OutageState::Healthy && snap.spill_records == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let catchup = t0.elapsed();
    let fin = ginja.stats().outage;
    assert_eq!(fin.spill_records, 0, "spill not drained: {fin:?}");
    assert!(!ginja.exposure().fatal, "endurance must not be fatal");

    assert!(ginja.sync(Duration::from_secs(60)));
    ginja.shutdown();
    let reference = db.dump_table(tables::STOCK).expect("dump");
    drop(db);

    // Zero acknowledged loss, both rigs.
    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).expect("recover");
    let recovered = Database::open(rebuilt, profile).expect("open recovered");
    assert_eq!(
        recovered.dump_table(tables::STOCK).expect("dump"),
        reference,
        "acknowledged rows lost through the outage"
    );
    let probe = probe_tpcc(&recovered).expect("probe");
    assert!(probe.is_consistent(), "{probe:?}");

    RigReport {
        healthy_txns,
        outage_txns,
        peak_ring_len,
        peak_ring_bytes,
        peak_spill_records,
        peak_spill_bytes,
        reached_enduring,
        catchup,
    }
}

fn main() {
    let scale = time_scale();
    let wall = run_wall_duration();
    println!("time scale: {scale}");
    println!("== Ablation: bounded ring + disk spill vs RAM-only outage backlog ==\n");
    println!(
        "TPC-C, {:.2}s wall per rig (healthy / outage / catch-up thirds)",
        wall.as_secs_f64()
    );

    let spill = run_rig(SPILL_RING, wall, scale);
    let ram = run_rig(RAM_RING, wall, scale);

    let per_min = |txns: usize, thirds: Duration| {
        to_sim_per_minute(txns as f64 / (thirds.as_secs_f64() / 60.0).max(1e-9))
    };
    let mut t = Table::new(&[
        "rig",
        "outage txn/min",
        "peak ring",
        "peak ring KiB",
        "peak spill KiB",
        "catchup s",
    ]);
    for (name, r) in [("spill", &spill), ("ram-only", &ram)] {
        t.row(&[
            name.to_string(),
            fmt(per_min(r.outage_txns, wall / 3), 0),
            r.peak_ring_len.to_string(),
            fmt(r.peak_ring_bytes as f64 / 1024.0, 1),
            fmt(r.peak_spill_bytes as f64 / 1024.0, 1),
            fmt(r.catchup.as_secs_f64(), 2),
        ]);
    }
    t.print();
    println!(
        "\nspill rig: {} healthy + {} outage txns, enduring seen: {}; \
         ram-only rig: {} healthy + {} outage txns",
        spill.healthy_txns,
        spill.outage_txns,
        spill.reached_enduring,
        ram.healthy_txns,
        ram.outage_txns,
    );

    // -- Acceptance. -------------------------------------------------
    // Both rigs keep committing through the outage and catch up clean.
    assert!(spill.outage_txns > 0, "spill rig stalled during the outage");
    assert!(
        ram.outage_txns > 0,
        "ram-only rig stalled during the outage"
    );
    assert!(
        spill.reached_enduring,
        "spill rig's policy never reached Enduring"
    );
    // The memory-bound claim: the spill rig's ring never exceeds its
    // capacity and the overflow really went to disk; the ablated rig
    // held a larger backlog in RAM than the spill rig's whole bound.
    assert!(
        spill.peak_ring_len <= SPILL_RING as u64,
        "spill rig's ring exceeded its bound: {} > {SPILL_RING}",
        spill.peak_ring_len
    );
    assert!(
        spill.peak_spill_records > 0,
        "spill rig's backlog never reached disk"
    );
    assert_eq!(
        ram.peak_spill_records, 0,
        "ram-only rig unexpectedly spilled"
    );
    assert!(
        ram.peak_ring_len > SPILL_RING as u64,
        "ram-only rig's backlog ({} records) never outgrew the spill \
         rig's ring bound — outage phase too short to discriminate",
        ram.peak_ring_len
    );

    println!(
        "\nshape check: same outage, same commit stream — the shipped rig caps RAM at \
         {SPILL_RING} ring slot(s) (peak {} KiB) and journals {} KiB to disk; the ablated \
         rig holds {} KiB of backlog in RAM",
        fmt(spill.peak_ring_bytes as f64 / 1024.0, 1),
        fmt(spill.peak_spill_bytes as f64 / 1024.0, 1),
        fmt(ram.peak_ring_bytes as f64 / 1024.0, 1),
    );

    if let Ok(path) = std::env::var("BENCH_PR8_OUT") {
        let json = format!(
            "{{\n  \"spill_ring\": {SPILL_RING},\n  \
             \"spill_outage_txns\": {},\n  \"ram_outage_txns\": {},\n  \
             \"spill_peak_ring_len\": {},\n  \"spill_peak_ring_bytes\": {},\n  \
             \"spill_peak_spill_bytes\": {},\n  \"ram_peak_ring_len\": {},\n  \
             \"ram_peak_ring_bytes\": {},\n  \
             \"spill_catchup_secs\": {:.3},\n  \"ram_catchup_secs\": {:.3}\n}}\n",
            spill.outage_txns,
            ram.outage_txns,
            spill.peak_ring_len,
            spill.peak_ring_bytes,
            spill.peak_spill_bytes,
            ram.peak_ring_len,
            ram.peak_ring_bytes,
            spill.catchup.as_secs_f64(),
            ram.catchup.as_secs_f64(),
        );
        let mut file = std::fs::File::create(&path).expect("create BENCH_PR8_OUT");
        file.write_all(json.as_bytes())
            .expect("write BENCH_PR8_OUT");
        println!("\nwrote {path}");
    }
}
