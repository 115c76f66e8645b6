//! Warm-standby acceptance, end to end: the cloud tail must absorb
//! commit waves incrementally, survive a full cloud outage (cycles
//! fail loudly, spend stops), catch up once the
//! cloud answers again, and promote to a bootable directory that
//! equals a cold recovery of the same bucket — with a mid-outage
//! promotion losing no more than the Safety bound `S`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja::cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, RetryConfig};
use ginja::core::{recover_into, Ginja, GinjaConfig};
use ginja::db::{Database, DbProfile};
use ginja::standby::{Standby, StandbyConfig};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};
use proptest::prelude::*;

const TABLE: u32 = 9;

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

fn config(safety: usize) -> GinjaConfig {
    GinjaConfig::builder()
        .batch(2)
        .safety(safety)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        .retry(fast_retry())
        .build()
        .unwrap()
}

/// The promoted shadow must be byte-identical to a cold recovery of
/// the same bucket.
fn assert_matches_cold(bucket: &MemStore, shadow: &Arc<dyn FileSystem>, config: &GinjaConfig) {
    let cold = MemFs::new();
    recover_into(&cold, bucket, config).unwrap();
    let mut cold_files = cold.list("").unwrap();
    let mut shadow_files = shadow.list("").unwrap();
    cold_files.sort();
    shadow_files.sort();
    assert_eq!(cold_files, shadow_files, "file sets diverge");
    for file in &cold_files {
        assert_eq!(
            cold.read_all(file).unwrap(),
            shadow.read_all(file).unwrap(),
            "divergence in {file}"
        );
    }
}

/// The headline chaos scenario: tail a live instance, cut the cloud,
/// keep committing, and check the standby's behavior at every stage —
/// failed cycles are counted and spend-free while the cloud is down,
/// a promotion taken mid-outage loses at most `S` updates, and after
/// the cloud returns a second standby's tail drains to byte-equality
/// with cold recovery.
#[test]
fn standby_endures_an_outage_and_promotes_with_bounded_loss() {
    const SAFETY: usize = 64;
    const WAVE1: u64 = 30;
    const WAVE2: u64 = 40; // < SAFETY: commits stay unblocked

    let profile = DbProfile::postgres_small();
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(TABLE, 64).unwrap();
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = config(SAFETY);
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).unwrap();

    // Two independent tails on the same bucket, both reading through
    // the faulty cloud: `drill` will be promoted mid-outage, `tail`
    // rides the outage out.
    let drill = Standby::attach(
        cloud.clone() as Arc<dyn ObjectStore>,
        Arc::new(MemFs::new()),
        config.clone(),
        StandbyConfig::default(),
    )
    .unwrap();
    let tail = Standby::attach(
        cloud as Arc<dyn ObjectStore>,
        Arc::new(MemFs::new()),
        config.clone(),
        StandbyConfig::default(),
    )
    .unwrap();

    // Healthy phase: both tails absorb the first wave completely.
    for seq in 0..WAVE1 {
        db.put(TABLE, seq, format!("w1-{seq}").into_bytes())
            .unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(30)), "healthy phase drains");
    let report = drill.run_cycle().unwrap();
    assert!(report.rebased, "first cycle cold-applies the base");
    assert_eq!(report.lag_objects, 0, "drained: {report:?}");
    assert_eq!(tail.run_cycle().unwrap().lag_objects, 0);

    // The outage: every cloud op fails. Commits keep coming (fewer
    // than S, so nothing blocks), and tail cycles fail loudly without
    // spending a single GET.
    plan.outage();
    for seq in WAVE1..WAVE1 + WAVE2 {
        db.put(TABLE, seq, format!("w2-{seq}").into_bytes())
            .unwrap();
    }
    let gets_before = tail.snapshot().gets;
    let mut failed = 0;
    for _ in 0..4 {
        if tail.run_cycle().is_err() {
            failed += 1;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mid = tail.snapshot();
    assert!(failed >= 3, "cycles must fail while the cloud is down");
    assert!(mid.tail_errors >= 3, "errors counted: {mid:?}");
    assert_eq!(
        mid.gets, gets_before,
        "no GET spend while the cloud is down"
    );

    // Promotion mid-outage: the drill standby fences on its last good
    // base. Everything synced before the outage must be there; what's
    // missing is bounded by S — exactly the paper's disaster contract.
    let promo = drill.promote().unwrap();
    let promoted = Database::open(drill.shadow(), profile.clone()).unwrap();
    let rows: BTreeMap<u64, Vec<u8>> = promoted.dump_table(TABLE).unwrap().into_iter().collect();
    for seq in 0..WAVE1 {
        assert_eq!(
            rows.get(&seq)
                .unwrap_or_else(|| panic!("pre-outage row {seq} lost")),
            &format!("w1-{seq}").into_bytes()
        );
    }
    let lost = (WAVE1 + WAVE2) - rows.len() as u64;
    assert!(
        lost <= SAFETY as u64,
        "mid-outage promotion lost {lost} > S = {SAFETY}"
    );
    assert!(drill.run_cycle().is_err(), "a promoted standby is fenced");
    drop(promoted);
    println!(
        "mid-outage promotion: rto {:?}, {lost} update(s) lost (S = {SAFETY})",
        promo.rto
    );

    // The cloud returns: the primary's catch-up drains its backlog,
    // and the surviving tail absorbs it all.
    plan.restore();
    assert!(ginja.sync(Duration::from_secs(60)), "catch-up must drain");
    assert!(
        wait_for(Duration::from_secs(10), || {
            tail.run_cycle().is_ok_and(|r| r.lag_objects == 0)
        }),
        "tail never caught up: {:?}",
        tail.snapshot()
    );
    let caught = tail.snapshot();
    assert!(caught.gets > gets_before, "catch-up fetched the backlog");

    // Final sync + promote: the promoted directory equals cold
    // recovery byte for byte, and holds every acknowledged update.
    let reference: BTreeMap<u64, Vec<u8>> = db.dump_table(TABLE).unwrap().into_iter().collect();
    assert!(ginja.sync(Duration::from_secs(30)));
    ginja.shutdown();
    drop(db);
    let promo = tail.promote().unwrap();
    assert!(promo.caught_up, "nothing in flight: {promo:?}");
    assert_matches_cold(mem.as_ref(), &tail.shadow(), &config);
    let promoted = Database::open(tail.shadow(), profile).unwrap();
    let rows: BTreeMap<u64, Vec<u8>> = promoted.dump_table(TABLE).unwrap().into_iter().collect();
    assert_eq!(rows, reference, "zero acknowledged loss after catch-up");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipeline-generated workloads, tailed live with a cycle after
    /// every few steps: at every quiescent point the promoted shadow
    /// must be byte-identical to a cold recovery of the same bucket.
    #[test]
    fn promoted_shadow_equals_cold_recovery(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        batch in 1usize..6,
        cycle_every in 2usize..9,
    ) {
        let profile = DbProfile::postgres_small();
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), profile.clone()).unwrap();
        db.create_table(TABLE, 64).unwrap();
        drop(db);

        let config = GinjaConfig::builder()
            .batch(batch)
            .safety(batch * 10)
            .batch_timeout(Duration::from_millis(5))
            .safety_timeout(Duration::from_secs(30))
            .build()
            .unwrap();
        let mem = Arc::new(MemStore::new());
        let ginja = Ginja::boot(
            local.clone(),
            mem.clone(),
            Arc::new(PostgresProcessor::new()),
            config.clone(),
        )
        .unwrap();
        let fs: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
        let db = Database::open(fs, profile.clone()).unwrap();
        let standby = Standby::attach(
            mem.clone() as Arc<dyn ObjectStore>,
            Arc::new(MemFs::new()),
            config.clone(),
            StandbyConfig::default(),
        )
        .unwrap();

        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (version, step) in steps.iter().enumerate() {
            match step {
                Step::Put { key, tag } => {
                    let value = format!("k{key}-t{tag}-v{version}").into_bytes();
                    db.put(TABLE, *key, value.clone()).unwrap();
                    model.insert(*key, value);
                }
                Step::Delete { key } => {
                    db.delete(TABLE, *key).unwrap();
                    model.remove(key);
                }
                Step::Checkpoint => db.checkpoint().unwrap(),
            }
            // Tail mid-stream at quiescent points: sync so the bucket
            // is stable, then absorb whatever landed.
            if version % cycle_every == 0 {
                prop_assert!(ginja.sync(Duration::from_secs(30)));
                standby.run_cycle().unwrap();
            }
        }
        prop_assert!(ginja.sync(Duration::from_secs(30)));
        ginja.shutdown();
        drop(db);

        let promo = standby.promote().unwrap();
        prop_assert!(promo.caught_up, "quiescent promote: {:?}", promo);
        assert_matches_cold(mem.as_ref(), &standby.shadow(), &config);
        let db = Database::open(standby.shadow(), profile).unwrap();
        let rows: BTreeMap<u64, Vec<u8>> =
            db.dump_table(TABLE).unwrap().into_iter().collect();
        prop_assert_eq!(rows, model);
    }
}
