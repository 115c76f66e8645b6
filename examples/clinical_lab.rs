//! The paper's Laboratory scenario (Table 2): a clinical laboratory's
//! database protected for well under a dollar a month.
//!
//! Drives a fixed-rate update stream (the lab processes "30 transactions
//! per minute … only 20% are updates" → 6 updates/minute) through a
//! protected database, meters actual cloud usage, and extrapolates the
//! measured usage to a month — next to the closed-form §7 model and the
//! VM-based alternative.
//!
//! ```sh
//! cargo run --release --example clinical_lab
//! ```

use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::MemStore;
use ginja::core::{Ginja, GinjaConfig};
use ginja::cost::scenarios::laboratory;
use ginja::cost::{Ec2Pricing, S3Pricing};
use ginja::db::{Database, DbProfile};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use ginja::workload::UpdateWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Clinical laboratory scenario (paper Table 2)\n");

    // The lab's database: PostgreSQL profile, ~520-byte patient records.
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), DbProfile::postgres_small())?;
    db.create_table(1, 560)?;
    let mut load = UpdateWorkload::new(1, 5_000, 520, 42);
    load.apply(&db, 5_000)?; // initial patient data
    db.checkpoint()?;
    drop(db);
    println!(
        "• loaded the laboratory database ({} MB)",
        local.total_bytes() / 1_000_000
    );

    // One cloud synchronization per minute: with 6 updates/minute that
    // is B = 6 (Table 2's "1 sync/m" column).
    let config = GinjaConfig::builder()
        .batch(6)
        .safety(60)
        .batch_timeout(Duration::from_millis(100))
        .build()?;
    let ginja = Ginja::boot(
        local.clone(),
        Arc::new(MemStore::new()),
        Arc::new(PostgresProcessor::new()),
        config,
    )?;
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, DbProfile::postgres_small())?;
    let ledger = ginja.usage_ledger();
    ledger.reset_counters();

    // Simulate one working day of updates: 6/minute over 8 hours =
    // 2 880 updates, with an hourly checkpoint.
    let mut stream = UpdateWorkload::new(1, 5_000, 520, 7);
    let updates_per_hour = 6 * 60;
    for _hour in 0..8 {
        stream.apply(&db, updates_per_hour)?;
        db.checkpoint()?;
    }
    ginja.sync(Duration::from_secs(30));
    let usage = ledger.usage();
    ginja.shutdown();
    println!(
        "• one simulated working day: {} updates → {} PUTs, {:.1} MB uploaded, {:.1} MB stored",
        stream.applied(),
        usage.puts,
        usage.bytes_uploaded as f64 / 1e6,
        usage.stored_bytes as f64 / 1e6
    );

    // Extrapolate measured usage to a month (22 working days) at S3
    // prices, and put it next to the paper's closed-form numbers.
    let pricing = S3Pricing::may_2017();
    let puts_month = usage.puts as f64 * 22.0;
    let put_cost = puts_month * pricing.put_op;
    let storage_cost = usage.stored_bytes as f64 / 1e9 * pricing.storage_gb_month;
    println!("\nMeasured → monthly extrapolation:");
    println!("  PUT operations: {puts_month:.0} → ${put_cost:.3}");
    println!(
        "  storage:        {:.2} GB → ${storage_cost:.3}",
        usage.stored_bytes as f64 / 1e9
    );
    println!(
        "  total ≈ ${:.2}/month (this miniature lab database)",
        put_cost + storage_cost
    );

    let scenario = laboratory();
    let vm = scenario.vm_cost(&Ec2Pricing::may_2017());
    println!("\nPaper-scale laboratory (10 GB database, §7 model):");
    println!(
        "  Ginja, 1 sync/minute:  ${:.2}/month  (paper: $0.42)",
        scenario.ginja_cost(1.0)
    );
    println!(
        "  Ginja, 6 syncs/minute: ${:.2}/month  (paper: $1.50)",
        scenario.ginja_cost(6.0)
    );
    println!("  EC2 Pilot Light:       ${vm:.1}/month (paper: $93.4)");
    println!(
        "  → {:.0}×–{:.0}× cheaper (paper: 62×–222×)",
        vm / scenario.ginja_cost(6.0),
        vm / scenario.ginja_cost(1.0)
    );
    Ok(())
}
