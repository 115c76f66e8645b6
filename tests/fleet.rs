//! Fleet integration: eight concurrent TPC-C tenants over one shared
//! bucket, one fair-share executor and one fleet budget — through a
//! mid-run detach and a full cloud disaster.
//!
//! What this proves, end to end:
//!
//! * a width-6 executor carries eight tenants' upload traffic without
//!   ever exceeding its concurrency bound;
//! * budget arbitration never raises any tenant's Safety bound;
//! * detaching (and purging) one tenant mid-run leaves every other
//!   tenant's prefix scrub-clean;
//! * after a disaster that freezes the bucket mid-flight, every tenant
//!   recovers a contiguous prefix of its acknowledged updates, losing
//!   at most its own S.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, PrefixStore, RetryConfig};
use ginja::core::{recover_into, GinjaConfig};
use ginja::cost::BudgetConfig;
use ginja::db::{Database, DbProfile};
use ginja::fleet::{Fleet, FleetConfig, TenantSpec};
use ginja::vfs::MemFs;
use ginja::workload::{probe_tpcc, Tpcc, TpccScale};

const TENANTS: usize = 8;
const WIDTH: usize = 6;
const SAFETY: usize = 32;
/// Marker updates per tenant in the pre-disaster tail. More than S, so
/// the loss measurement covers the whole possible loss window.
const MARKERS: u64 = 48;
/// Table the markers land in (clear of the TPC-C tables 1..=9).
const MARKER_TABLE: u32 = 77;

fn tenant_config() -> GinjaConfig {
    GinjaConfig::builder()
        .batch(4)
        .safety(SAFETY)
        .batch_timeout(Duration::from_millis(200))
        // One uploader keeps each tenant's cloud WAL prefix-sealed, so
        // the post-disaster loss check is exact (see crashpoint.rs).
        .uploaders(1)
        .build()
        .unwrap()
}

#[test]
fn fleet_of_eight_tpcc_tenants_survives_detach_and_disaster() {
    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let fleet = Fleet::new(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        FleetConfig {
            width: WIDTH,
            // The disaster must surface instantly, not sit in backoff.
            retry: RetryConfig::disabled(),
            budget: Some(BudgetConfig {
                month: Duration::from_secs(60),
                ..BudgetConfig::new(TENANTS as f64)
            }),
        },
    );
    let config = tenant_config();
    for i in 0..TENANTS {
        fleet
            .attach(
                TenantSpec::new(format!("t{i}"), DbProfile::postgres_small(), config.clone())
                    .weight(1.0 + (i % 2) as f64),
            )
            .unwrap();
    }

    // -- Phase A: concurrent TPC-C, one tenant detached mid-run. -----
    let workers: Vec<_> = fleet
        .tenants()
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            std::thread::spawn(move || {
                let mut tpcc = Tpcc::new(1, 0xF1EE7 ^ i as u64, TpccScale::tiny());
                tpcc.create_schema(tenant.db()).unwrap();
                tpcc.load(tenant.db()).unwrap();
                // The marker table's DDL checkpoints its catalog to the
                // cloud; creating it here (ahead of the Phase A sync
                // barrier) keeps the Phase B loss tail pure WAL puts —
                // recovery does not replay DDL that never landed.
                tenant.db().create_table(MARKER_TABLE, 64).unwrap();
                // The doomed tenant quits early so it can be detached
                // while its neighbors are still under load.
                let txns = if i == TENANTS - 1 { 4 } else { 12 };
                for _ in 0..txns {
                    tpcc.run_transaction(tenant.db()).unwrap();
                }
            })
        })
        .collect();
    let (doomed, live) = workers.split_last().unwrap();
    while !doomed.is_finished() {
        fleet.governor_pass();
        std::thread::sleep(Duration::from_millis(2));
    }
    let victim = format!("t{}", TENANTS - 1);
    assert!(
        fleet
            .detach(&victim, true, Duration::from_secs(30))
            .unwrap(),
        "detached tenant must drain its in-flight waves"
    );
    assert!(
        mem.list(&format!("tenants/{victim}/")).unwrap().is_empty(),
        "purge must empty the detached tenant's prefix"
    );
    while live.iter().any(|w| !w.is_finished()) {
        fleet.governor_pass();
        std::thread::sleep(Duration::from_millis(2));
    }
    for worker in workers {
        worker.join().unwrap();
    }
    assert!(
        fleet.sync_all(Duration::from_secs(30)),
        "every surviving pipeline must drain"
    );

    // The purge ran while neighbors were uploading: every surviving
    // tenant's prefix must still scrub perfectly clean.
    for _ in 0..TENANTS - 1 {
        let (name, report) = fleet.scrub_next().unwrap().expect("tenants attached");
        assert!(
            report.is_clean(),
            "tenant {name} dirty after neighbor purge: {:?}",
            report.anomalies
        );
        assert!(report.objects_listed > 0, "tenant {name} prefix empty");
    }

    // Shared-infrastructure invariants, pre-disaster.
    let snap = fleet.snapshot();
    assert_eq!(snap.tenants.len(), TENANTS - 1);
    assert!(
        snap.max_in_flight <= WIDTH,
        "executor exceeded its width: {} > {WIDTH}",
        snap.max_in_flight
    );
    assert!(snap.totals.healthy(), "fleet unhealthy: {:?}", snap.totals);
    assert!(
        !snap.over_budget,
        "aggregate projected spend {} µ$ exceeds the fleet budget {} µ$",
        snap.projected_microusd, snap.budget_microusd
    );
    for tenant in fleet.tenants() {
        assert_eq!(
            tenant.ginja().config().safety,
            SAFETY,
            "arbitration must never touch tenant {}'s S",
            tenant.name()
        );
        assert!(
            tenant.ginja().current_knobs().batch <= SAFETY,
            "tenant {}'s B escaped [1, S]",
            tenant.name()
        );
    }

    // -- Phase B: a marker tail, then the disaster. ------------------
    // Each tenant acknowledges MARKERS sequential updates; the bucket
    // freezes immediately after, with the un-uploaded tail (≤ S by the
    // commit-queue guarantee) still in flight.
    let markers: Vec<_> = fleet
        .tenants()
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                for seq in 0..MARKERS {
                    tenant
                        .db()
                        .put(
                            MARKER_TABLE,
                            seq,
                            format!("{}-m{seq}", tenant.name()).into_bytes(),
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for worker in markers {
        worker.join().unwrap();
    }
    plan.outage(); // the disaster: every later cloud op fails

    // Every tenant recovers from its own prefix of the frozen bucket:
    // a contiguous marker prefix, missing at most S updates.
    for tenant in fleet.tenants() {
        let view = PrefixStore::new(
            mem.clone() as Arc<dyn ObjectStore>,
            tenant.prefix().to_string(),
        );
        let target = Arc::new(MemFs::new());
        recover_into(target.as_ref(), &view, &config).unwrap();
        let db = Database::open(target, DbProfile::postgres_small()).unwrap();

        let rows: BTreeMap<u64, Vec<u8>> =
            db.dump_table(MARKER_TABLE).unwrap().into_iter().collect();
        let recovered = rows.len() as u64;
        let lost = MARKERS - recovered;
        assert!(
            lost <= SAFETY as u64,
            "tenant {} lost {lost} acked updates with S = {SAFETY}",
            tenant.name()
        );
        for seq in 0..recovered {
            assert_eq!(
                rows.get(&seq).map(Vec::as_slice),
                Some(format!("{}-m{seq}", tenant.name()).as_bytes()),
                "tenant {}'s recovery is not a contiguous prefix",
                tenant.name()
            );
        }
        let probe = probe_tpcc(&db).unwrap();
        assert!(
            probe.is_consistent(),
            "tenant {} recovered inconsistent TPC-C state: {probe:?}",
            tenant.name()
        );
    }
    fleet.shutdown();
}
