//! Figure 7: recovery times of Ginja for different database sizes
//! (1, 5, 10 TPC-C warehouses), recovering to an on-premises server
//! (WAN download from S3) vs. an EC2 VM in the same region as the data.
//!
//! The paper's observations: recovery time grows with database size,
//! and recovering inside the cloud region is markedly faster.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_bench::rig::{template, ProtectedRig, RigOptions};
use ginja_bench::table::{fmt, Table};
use ginja_bench::timescale::{run_wall_duration, time_scale, to_sim_duration};
use ginja_cloud::{LatencyModel, LatencyStore, ObjectStore};
use ginja_core::{recover_into, GinjaConfig};
use ginja_db::{Database, ProfileKind};
use ginja_vfs::MemFs;
use ginja_workload::TpccScale;

fn config() -> GinjaConfig {
    let scale = time_scale();
    GinjaConfig::builder()
        .batch(100)
        .safety(1000)
        .batch_timeout(Duration::from_secs_f64(5.0 * scale))
        .safety_timeout(Duration::from_secs_f64(30.0 * scale))
        .uploaders(5)
        .build()
        .expect("valid config")
}

fn main() {
    let scale = time_scale();
    println!("time scale: {scale}");
    println!("== Figure 7: recovery time vs. database size (PostgreSQL, TPC-C) ==\n");

    let mut t = Table::new(&[
        "warehouses",
        "cloud data MB",
        "on-premises (sim s)",
        "EC2 same-region (sim s)",
        "speedup",
        "EC2 fanout=8 (sim s)",
        "recovered rows ok",
    ]);
    let mut previous_onprem = 0.0f64;
    for warehouses in [1u64, 5, 10] {
        // Build and run a protected database to populate the cloud.
        let template_fs = template(ProfileKind::Postgres, warehouses, TpccScale::bench(), 0xF17);
        let mut options = RigOptions::postgres(config());
        options.warehouses = warehouses;
        options.seed = 0xF17;
        let rig = ProtectedRig::build(&template_fs, options);
        let _report = rig.run(run_wall_duration());
        // Objects as they stand after the run, beneath metering/latency.
        let raw = rig.snapshot_objects();
        let (_stats, usage) = rig.finish();
        let cloud_mb = usage.stored_bytes as f64 / 1e6;

        // Recover from the same (now latency-remodelled) objects:
        // WAN and intra-region serially (the paper's two bars), then
        // intra-region again with the recovery fan-out wide open.
        let mut times = Vec::new();
        for (latency, fanout) in [
            (LatencyModel::s3_wan(), 1usize),
            (LatencyModel::s3_intra_region(), 1),
            (LatencyModel::s3_intra_region(), 8),
        ] {
            let snapshot = copy_store(&raw);
            let cloud = LatencyStore::new(snapshot, latency.scaled(scale));
            let target = Arc::new(MemFs::new());
            let recover_config = GinjaConfig::builder()
                .recovery_fanout(fanout)
                .build()
                .expect("valid recovery config");
            let start = Instant::now();
            recover_into(target.as_ref(), &cloud, &recover_config).expect("recovery");
            times.push(to_sim_duration(start.elapsed()).as_secs_f64());

            // Validate only once (WAN pass): the DBMS must restart.
            if times.len() == 1 {
                let db = Database::open(
                    target,
                    ginja_bench::rig::layout_profile(ProfileKind::Postgres),
                )
                .expect("recovered db opens");
                assert!(db
                    .get(ginja_workload::tables::WAREHOUSE, 0)
                    .expect("warehouse row readable")
                    .is_some());
            }
        }

        let onprem = times[0];
        let ec2 = times[1];
        let ec2_fanout = times[2];
        t.row(&[
            warehouses.to_string(),
            fmt(cloud_mb, 1),
            fmt(onprem, 1),
            fmt(ec2, 1),
            format!("{:.1}x", onprem / ec2.max(1e-9)),
            fmt(ec2_fanout, 1),
            "yes".to_string(),
        ]);

        assert!(
            onprem >= previous_onprem * 0.8,
            "recovery time should grow with database size"
        );
        assert!(ec2 < onprem, "same-region recovery must be faster");
        // Backstop only: this bucket's bytes concentrate in a few large
        // dump parts whose decode is CPU-bound, so on a single-core runner
        // fan-out can come out modestly slower than serial (the sleeps of
        // the latency model end in a spin tail that contends). What
        // fan-out buys on a GET-bound bucket is `recover_s` and
        // `core.recover_fetch_wall_ms` on bench_e2e's `recover` workload.
        assert!(
            ec2_fanout <= ec2 * 1.5,
            "parallel recovery must not be pathologically slower than serial \
             ({ec2_fanout:.2} vs {ec2:.2})"
        );
        previous_onprem = onprem;
    }
    println!();
    t.print();
    println!(
        "\nshape check: recovery time grows with warehouses; EC2-local recovery is much \
         faster (paper: ~4 min vs ~1 min at 10 warehouses); recovery_fanout=8 cuts the \
         same-region time further (bench_e2e `recover`: recover_s, core.recover_fetch_wall_ms)"
    );
}

fn copy_store(src: &ginja_cloud::MemStore) -> ginja_cloud::MemStore {
    let dst = ginja_cloud::MemStore::new();
    for name in src.list("").expect("list") {
        dst.put(&name, &src.get(&name).expect("get")).expect("put");
    }
    dst
}
