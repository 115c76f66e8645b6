//! Cloud-of-clouds replication (§6): tolerate the loss of an entire
//! storage provider.
//!
//! The Ginja prototype "supports the replication of objects in multiple
//! clouds, for tolerating provider-scale failures" (citing DepSky).
//! Here three providers replicate every object with a majority write
//! quorum: one provider can be down during operation, and recovery
//! succeeds from any single surviving provider.
//!
//! ```sh
//! cargo run --example multi_cloud
//! ```

use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, ReplicatedStore};
use ginja::core::{recover_into, scrub_bucket, Ginja, GinjaConfig};
use ginja::db::{Database, DbProfile};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, MySqlProcessor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three independent "providers", one with programmable faults.
    let aws = Arc::new(MemStore::new());
    let azure = Arc::new(MemStore::new());
    let gcp_faults = Arc::new(FaultPlan::new());
    let gcp = Arc::new(MemStore::new());
    let replicas: Vec<Arc<dyn ObjectStore>> = vec![
        aws.clone(),
        azure.clone(),
        Arc::new(FaultStore::new(gcp.clone(), gcp_faults.clone())),
    ];
    let multi = Arc::new(ReplicatedStore::majority_of(replicas));
    println!("• three providers, write quorum {}", multi.write_quorum());

    // A MySQL-profile database protected over the replicated cloud.
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), DbProfile::mysql_small())?;
    db.create_table(1, 128)?;
    drop(db);

    let config = GinjaConfig::builder()
        .batch(4)
        .safety(40)
        .batch_timeout(Duration::from_millis(30))
        .build()?;
    let ginja = Ginja::boot(
        local.clone(),
        multi.clone(),
        Arc::new(MySqlProcessor::new()),
        config.clone(),
    )?;
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, DbProfile::mysql_small())?;

    // Provider 3 goes down mid-run: the majority quorum hides it.
    for i in 0..25u64 {
        db.put(1, i, format!("order-{i}").into_bytes())?;
    }
    gcp_faults.outage();
    println!("• provider 3 is DOWN — writes continue on the 2-of-3 quorum");
    for i in 25..50u64 {
        db.put(1, i, format!("order-{i}").into_bytes())?;
    }
    ginja.sync(Duration::from_secs(10));
    ginja.shutdown();
    drop(db);

    // Disaster + total loss of provider 1. Recover from provider 2 alone.
    aws.clear();
    println!("• DISASTER, and provider 1's bucket was wiped too");
    let scrub = scrub_bucket(azure.as_ref(), &config)?;
    println!(
        "• provider 2 backup scrub: {} objects verified, anomalies: {}",
        scrub.payloads_verified,
        scrub.anomalies.len()
    );

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), azure.as_ref(), &config)?;
    let db = Database::open(rebuilt, DbProfile::mysql_small())?;
    for i in 0..50u64 {
        assert_eq!(db.get(1, i)?.unwrap(), format!("order-{i}").into_bytes());
    }
    println!("• all 50 orders recovered from the single surviving provider ✔");
    Ok(())
}
