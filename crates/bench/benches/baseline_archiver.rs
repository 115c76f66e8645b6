//! Baseline comparison (paper §9): Ginja vs. PostgreSQL Continuous
//! Archiving.
//!
//! "The archiver process only operates over completed WAL segments, and
//! thus it does not provide any fine-grained control over the RPO." Both
//! mechanisms protect the same database through the same interception
//! point; after the same disaster, this harness reports how many
//! committed updates each one loses.

use std::sync::Arc;
use std::time::Duration;

use ginja_bench::table::Table;
use ginja_bench::timescale::{run_wall_duration, sim_minutes, time_scale};
use ginja_cloud::{LatencyModel, LatencyStore, MemStore, ObjectStore};
use ginja_core::archiver::{restore_archive, SegmentArchiver};
use ginja_core::{recover_into, Ginja, GinjaConfig};
use ginja_db::{Database, DbProfile};
use ginja_vfs::{FileSystem, InterceptFs, IoProcessor, MemFs, PostgresProcessor};

fn profile() -> DbProfile {
    // 1 MB segments: realistic ratio between segment size and the
    // experiment's update volume.
    let mut p = DbProfile::postgres_default();
    p.wal_segment_size = 1024 * 1024;
    p
}

fn config(batch: usize, safety: usize) -> GinjaConfig {
    let scale = time_scale();
    GinjaConfig::builder()
        .batch(batch)
        .safety(safety)
        .batch_timeout(Duration::from_secs_f64(5.0 * scale))
        .safety_timeout(Duration::from_secs_f64(30.0 * scale))
        .build()
        .expect("valid config")
}

/// Runs `updates` commits of ~120-byte rows against a protected
/// database, disasters it without warning, recovers, and returns the
/// number of lost updates.
fn run_scenario(mechanism: &str, updates: u64) -> (u64, u64) {
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile()).unwrap();
    db.create_table(1, 160).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let cloud = Arc::new(LatencyStore::new(
        MemStore::new(),
        LatencyModel::s3_wan().scaled(time_scale()),
    ));
    let _ = mem; // (kept for symmetry; the latency store owns its own MemStore)
    let cfg = config(10, 200);

    let mut archiver_handle: Option<Arc<SegmentArchiver>> = None;
    let (processor, ginja): (Arc<dyn IoProcessor>, Option<Ginja>) = match mechanism {
        "ginja" => {
            let g = Ginja::boot(
                local.clone(),
                cloud.clone(),
                Arc::new(PostgresProcessor::new()),
                cfg.clone(),
            )
            .unwrap();
            (Arc::new(g.clone()), Some(g))
        }
        _ => {
            let archiver = Arc::new(
                SegmentArchiver::start(
                    local.clone(),
                    cloud.clone(),
                    Arc::new(PostgresProcessor::new()),
                    &cfg,
                )
                .unwrap(),
            );
            archiver_handle = Some(archiver.clone());
            (archiver, None)
        }
    };

    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local.clone(), processor));
    let db = Database::open(fs, profile()).unwrap();
    for i in 0..updates {
        db.put(1, i, format!("update-{i:0100}").into_bytes())
            .unwrap();
    }
    if let Some(archiver) = &archiver_handle {
        let stats = archiver.stats();
        println!(
            "  [archiver] {} segment(s) archived, {} update(s) exposed in the unfinished segment",
            stats.segments_archived, stats.updates_since_last_archive
        );
    }
    // Disaster strikes mid-flight: no sync, no shutdown courtesy. (The
    // middleware threads are stopped afterwards only so the process can
    // reuse the port^Wcore; the cloud keeps exactly what had landed.)
    let snapshot = {
        let names = cloud.inner().list("").unwrap();
        let copy = MemStore::new();
        for name in names {
            copy.put(&name, &cloud.inner().get(&name).unwrap()).unwrap();
        }
        copy
    };
    if let Some(g) = &ginja {
        g.shutdown();
    }
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    let recovered: u64 = if ginja.is_some() {
        recover_into(rebuilt.as_ref(), &snapshot, &cfg).unwrap();
        let db = Database::open(rebuilt, profile()).unwrap();
        (0..updates)
            .take_while(|i| db.get(1, *i).unwrap().is_some())
            .count() as u64
    } else {
        restore_archive(rebuilt.as_ref(), &snapshot, &cfg).unwrap();
        let db = Database::open(rebuilt, profile()).unwrap();
        (0..updates)
            .take_while(|i| db.get(1, *i).unwrap().is_some())
            .count() as u64
    };
    (recovered, updates - recovered)
}

fn main() {
    println!(
        "time scale: {} | simulated minutes per run: {}",
        time_scale(),
        sim_minutes()
    );
    println!("== Baseline: Ginja (B=10, S=200) vs. Continuous Archiving (1 MB segments) ==");
    println!("(same workload, same surprise disaster, same cloud)\n");
    let _ = run_wall_duration(); // documented knob; this bench is volume-driven

    // Enough volume that the archiver completes some segments: the
    // point is that it still loses the entire unfinished one.
    let updates = 12_000u64;
    let mut t = Table::new(&["mechanism", "committed", "recovered", "LOST"]);
    let mut results = Vec::new();
    for mechanism in ["ginja", "archiver"] {
        let (recovered, lost) = run_scenario(mechanism, updates);
        t.row(&[
            mechanism.to_string(),
            updates.to_string(),
            recovered.to_string(),
            lost.to_string(),
        ]);
        results.push(lost);
    }
    println!();
    t.print();
    println!(
        "\nshape check: Ginja bounds loss by S=200 (lost {}), the archiver loses the whole \
         unfinished segment (lost {}) — \"no fine-grained control over the RPO\" (§9)",
        results[0], results[1]
    );
    assert!(results[0] <= 200, "ginja lost {} > S", results[0]);
    assert!(
        results[1] > results[0],
        "the archiver must lose more than Ginja ({} vs {})",
        results[1],
        results[0]
    );
}
