//! Property tests over the full stack: random workloads and random
//! disaster points must always recover to a consistent committed state
//! with bounded loss.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::{FaultPlan, FaultStore, MemStore};
use ginja::core::{recover_into, Ginja, GinjaConfig};
use ginja::db::{Database, DbProfile, ProfileKind};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use proptest::prelude::*;

fn profile_for(kind: ProfileKind) -> DbProfile {
    match kind {
        ProfileKind::Postgres => DbProfile::postgres_small(),
        ProfileKind::MySql => DbProfile::mysql_small(),
    }
}

#[derive(Debug, Clone)]
enum Step {
    Put { key: u64, tag: u8 },
    Delete { key: u64 },
    Checkpoint,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0u64..60, any::<u8>()).prop_map(|(key, tag)| Step::Put { key, tag }),
        2 => (0u64..60).prop_map(|key| Step::Delete { key }),
        1 => Just(Step::Checkpoint),
    ]
}

fn value_for(key: u64, tag: u8, version: usize) -> Vec<u8> {
    format!("k{key}-t{tag}-v{version}").into_bytes()
}

fn run_case(kind: ProfileKind, steps: Vec<Step>, batch: usize, safety: usize) {
    let profile = profile_for(kind);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);

    let config = GinjaConfig::builder()
        .batch(batch)
        .safety(safety)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(30))
        .build()
        .unwrap();
    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let ginja = Ginja::boot(local.clone(), cloud, kind.processor(), config.clone()).unwrap();
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile.clone()).unwrap();

    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (version, step) in steps.iter().enumerate() {
        match step {
            Step::Put { key, tag } => {
                let value = value_for(*key, *tag, version);
                db.put(1, *key, value.clone()).unwrap();
                model.insert(*key, value);
            }
            Step::Delete { key } => {
                db.delete(1, *key).unwrap();
                model.remove(key);
            }
            Step::Checkpoint => db.checkpoint().unwrap(),
        }
    }
    // Drain fully, then disaster: recovered state must EQUAL the model.
    assert!(ginja.sync(Duration::from_secs(30)));
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    let rows: BTreeMap<u64, Vec<u8>> = db.dump_table(1).unwrap().into_iter().collect();
    assert_eq!(rows, model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn postgres_synced_recovery_is_exact(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        batch in 1usize..8,
    ) {
        run_case(ProfileKind::Postgres, steps, batch, batch * 10);
    }

    #[test]
    fn mysql_synced_recovery_is_exact(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        batch in 1usize..8,
    ) {
        run_case(ProfileKind::MySql, steps, batch, batch * 10);
    }

    #[test]
    fn outage_disaster_recovers_prefix_with_bounded_loss(
        committed_before in 5usize..40,
        during_outage in 1usize..30,
        safety in 4usize..12,
    ) {
        // Sync everything, then a cloud outage; commits continue until
        // the Safety limit blocks; disaster strikes. Recovery must hold
        // all pre-outage data and a contiguous prefix of outage-time
        // commits, losing at most `safety` of them.
        let profile = DbProfile::postgres_small();
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), profile.clone()).unwrap();
        db.create_table(1, 64).unwrap();
        drop(db);

        let config = GinjaConfig::builder()
            .batch(1)
            .safety(safety)
            .batch_timeout(Duration::from_millis(5))
            .safety_timeout(Duration::from_secs(30))
            .build()
            .unwrap();
        let mem = Arc::new(MemStore::new());
        let plan = Arc::new(FaultPlan::new());
        let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
        let ginja = Ginja::boot(
            local.clone(),
            cloud,
            Arc::new(PostgresProcessor::new()),
            config.clone(),
        )
        .unwrap();
        let protected: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
        let db = Arc::new(Database::open(protected, profile.clone()).unwrap());

        for i in 0..committed_before as u64 {
            db.put(1, i, value_for(i, 0, 0)).unwrap();
        }
        prop_assert!(ginja.sync(Duration::from_secs(30)));

        plan.outage();
        let db2 = db.clone();
        let base = committed_before as u64;
        let n = during_outage as u64;
        let writer = std::thread::spawn(move || {
            for i in base..base + n {
                let _ = db2.put(1, i, value_for(i, 0, 1));
            }
        });
        std::thread::sleep(Duration::from_millis(200));
        ginja.shutdown(); // disaster during the outage
        writer.join().unwrap();

        let rebuilt = Arc::new(MemFs::new());
        recover_into(rebuilt.as_ref(), mem.as_ref(), &config).unwrap();
        let db = Database::open(rebuilt, profile).unwrap();

        for i in 0..base {
            prop_assert_eq!(db.get(1, i).unwrap().unwrap(), value_for(i, 0, 0));
        }
        let mut prefix = 0u64;
        let mut gap = false;
        for i in base..base + n {
            match db.get(1, i).unwrap() {
                Some(v) => {
                    prop_assert!(!gap, "hole in recovered prefix at {}", i);
                    prop_assert_eq!(v, value_for(i, 0, 1));
                    prefix += 1;
                }
                None => gap = true,
            }
        }
        // Lost updates = commits made minus prefix recovered; commits
        // made is unknown exactly (writer may have been blocked), but
        // the recovered prefix can never exceed what Safety allowed out.
        prop_assert!(
            prefix <= safety as u64 + 1,
            "recovered {} outage-time updates with S={}",
            prefix,
            safety
        );
    }
}
