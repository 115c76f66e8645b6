//! Ablation: warm-standby promotion vs cold recovery across database
//! sizes.
//!
//! Three buckets of growing size (a dump plus a long WAL tail, GC held
//! off) are each recovered two ways through the same intra-region
//! latency model and the same download fan-out:
//!
//! * **cold** — `recover_into` from nothing: every surviving object is
//!   downloaded and replayed at disaster time;
//! * **standby** — a warm standby that tailed the bucket while the
//!   primary was alive, so disaster time only pays for the residual
//!   delta since its last poll (here: the last commit wave).
//!
//! The claim under test is the paper's RTO asymmetry: cold recovery
//! time grows with database size while promotion time tracks the
//! *delta*, so the gap widens as the database grows — at the largest
//! size the standby must cut RTO by at least 3×. The standby's tail
//! GETs are real, metered spend: every GET it counts must show up in
//! the usage ledger of the store it reads through, and the Safety knob
//! `S` is never touched.
//!
//! With `BENCH_PR10_OUT=<path>` the headline numbers are written as a
//! small JSON document (CI smoke archives a trend point from it).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_bench::table::{fmt, Table};
use ginja_bench::timescale::{time_scale, to_sim_duration};
use ginja_cloud::{LatencyModel, LatencyStore, MemStore, ObjectStore};
use ginja_core::{recover_into, Ginja, GinjaConfig};
use ginja_db::{Database, DbProfile};
use ginja_standby::{Standby, StandbyConfig};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

const TABLE: u32 = 3;
/// Commit wave still in flight at disaster time — the only work a
/// promotion has to replay.
const DELTA_ROWS: u64 = 32;
/// Download fan-out, identical for both recovery paths.
const FANOUT: usize = 8;

struct SizeReport {
    base_rows: u64,
    objects: usize,
    tail_gets: u64,
    cold: Duration,
    promote: Duration,
    speedup: f64,
}

fn config(safety: usize) -> GinjaConfig {
    GinjaConfig::builder()
        .batch(4)
        .safety(safety)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(120))
        .recovery_fanout(FANOUT)
        .build()
        .expect("valid config")
}

fn run_size(base_rows: u64, scale: f64) -> SizeReport {
    // GC held off (no checkpoints): the WAL tail survives in full, so
    // the bucket — and with it cold recovery — grows with the row
    // count, exactly the regime the standby is for.
    let profile = DbProfile::postgres_small().with_checkpoint_every(100_000_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).expect("create");
    db.create_table(TABLE, 128).expect("table");
    drop(db);

    let mem = Arc::new(MemStore::new());
    let config = config(base_rows as usize * 2 + 64);
    let ginja = Ginja::boot(
        local.clone(),
        mem.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .expect("boot");
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).expect("open");

    // The standby reads the live bucket through the same intra-region
    // latency model cold recovery will pay at disaster time.
    let model = LatencyModel::s3_intra_region().scaled(scale);
    let lens: Arc<dyn ObjectStore> = Arc::new(LatencyStore::with_seed(
        mem.clone(),
        model.clone(),
        0x57A4D + base_rows,
    ));
    let standby = Standby::attach(
        lens,
        Arc::new(MemFs::new()),
        config.clone(),
        StandbyConfig {
            fanout: FANOUT,
            ..StandbyConfig::default()
        },
    )
    .expect("standby attaches");

    // The database's life before the disaster: the base rows land and
    // the tail absorbs them at leisure (this time is NOT RTO — the
    // primary is healthy while it happens).
    for seq in 0..base_rows {
        db.put(TABLE, seq, format!("base-{seq}").into_bytes())
            .expect("base row");
    }
    assert!(ginja.sync(Duration::from_secs(120)), "base wave drains");
    let report = standby.run_cycle().expect("tail cycle");
    assert!(report.rebased, "first cycle cold-applies the base");
    assert_eq!(report.lag_objects, 0, "tail drained: {report:?}");

    // The last commit wave: synced to the cloud, but the standby has
    // not polled since — this is the residual a promotion replays.
    for seq in base_rows..base_rows + DELTA_ROWS {
        db.put(TABLE, seq, format!("delta-{seq}").into_bytes())
            .expect("delta row");
    }
    assert!(ginja.sync(Duration::from_secs(120)), "delta wave drains");

    // Disaster. Both recovery paths read the same frozen bucket
    // through the same latency lens.
    let reference = db.dump_table(TABLE).expect("dump");
    ginja.shutdown();
    drop(db);
    let objects = mem.list("").expect("list").len();

    let cold_lens = LatencyStore::with_seed(mem.clone(), model, 0xC01D + base_rows);
    let cold_fs = Arc::new(MemFs::new());
    let t0 = Instant::now();
    recover_into(cold_fs.as_ref(), &cold_lens, &config).expect("cold recovery");
    let cold = t0.elapsed();
    let cold_db = Database::open(cold_fs, profile.clone()).expect("cold db opens");
    assert_eq!(
        cold_db.dump_table(TABLE).expect("dump"),
        reference,
        "cold recovery lost rows"
    );

    let promo = standby.promote().expect("promotion");
    assert!(promo.caught_up, "quiescent bucket: {promo:?}");
    let promoted = Database::open(standby.shadow(), profile).expect("promoted db opens");
    assert_eq!(
        promoted.dump_table(TABLE).expect("dump"),
        reference,
        "promotion lost rows"
    );

    // The tail's spend is real and metered: every GET the standby
    // counted landed in the ledger of the store it reads through.
    let usage = standby.ledger().usage();
    let counted = standby.snapshot().gets;
    assert!(
        counted > 0 && usage.gets >= counted,
        "tail GETs unmetered: {counted} counted, {usage:?}"
    );
    // And the knob contract: tailing and promotion never move S.
    assert_eq!(config.safety, base_rows as usize * 2 + 64, "S moved");

    SizeReport {
        base_rows,
        objects,
        tail_gets: usage.gets,
        cold,
        promote: promo.rto,
        speedup: cold.as_secs_f64() / promo.rto.as_secs_f64().max(1e-9),
    }
}

fn main() {
    let scale = time_scale();
    println!("time scale: {scale}");
    println!("== Ablation: warm-standby promotion vs cold recovery ==\n");
    println!(
        "{DELTA_ROWS}-row residual delta, fanout {FANOUT}, intra-region \
         latency model, GC held off\n"
    );

    let reports: Vec<SizeReport> = [96u64, 384, 1536]
        .into_iter()
        .map(|rows| run_size(rows, scale))
        .collect();

    let mut t = Table::new(&[
        "base rows",
        "bucket objs",
        "tail GETs",
        "cold RTO (sim s)",
        "promote RTO (sim s)",
        "RTO cut",
    ]);
    for r in &reports {
        t.row(&[
            r.base_rows.to_string(),
            r.objects.to_string(),
            r.tail_gets.to_string(),
            fmt(to_sim_duration(r.cold).as_secs_f64(), 2),
            fmt(to_sim_duration(r.promote).as_secs_f64(), 3),
            format!("{:.1}x", r.speedup),
        ]);
    }
    t.print();

    // -- Acceptance. -------------------------------------------------
    // Cold recovery grows with database size; promotion does not have
    // to (it tracks the delta), so the cut must widen — and at the
    // largest size it must be at least 3×.
    let largest = reports.last().expect("three sizes ran");
    assert!(
        to_sim_duration(largest.cold) > to_sim_duration(reports[0].cold),
        "cold RTO did not grow with database size"
    );
    assert!(
        largest.speedup >= 3.0,
        "standby must cut RTO >= 3x at {} rows, got {:.1}x ({:?} cold vs {:?} promote)",
        largest.base_rows,
        largest.speedup,
        largest.cold,
        largest.promote,
    );

    println!(
        "\nshape check: {}-row bucket — cold replays {} object(s) in {:.2?} (sim), \
         promotion replays the {DELTA_ROWS}-row residual in {:.3?} (sim): {:.1}x",
        largest.base_rows,
        largest.objects,
        to_sim_duration(largest.cold),
        to_sim_duration(largest.promote),
        largest.speedup,
    );

    if let Ok(path) = std::env::var("BENCH_PR10_OUT") {
        let per_size: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "    {{\"base_rows\": {}, \"objects\": {}, \"tail_gets\": {}, \
                     \"cold_sim_secs\": {:.4}, \"promote_sim_secs\": {:.4}, \
                     \"speedup\": {:.2}}}",
                    r.base_rows,
                    r.objects,
                    r.tail_gets,
                    to_sim_duration(r.cold).as_secs_f64(),
                    to_sim_duration(r.promote).as_secs_f64(),
                    r.speedup,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"delta_rows\": {DELTA_ROWS},\n  \"fanout\": {FANOUT},\n  \
             \"largest_speedup\": {:.2},\n  \"sizes\": [\n{}\n  ]\n}}\n",
            largest.speedup,
            per_size.join(",\n"),
        );
        let mut file = std::fs::File::create(&path).expect("create BENCH_PR10_OUT");
        file.write_all(json.as_bytes())
            .expect("write BENCH_PR10_OUT");
        println!("\nwrote {path}");
    }
}
