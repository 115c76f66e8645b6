//! Property test for the cloud backends: retry-layer liveness under
//! arbitrary transient-fault rates.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::{
    FaultPlan, FaultStore, MemStore, ObjectStore, OpKind, ResilientStore, RetryConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Liveness: with any transient-fault rate p < 1, a `ResilientStore`
    /// with enough attempts completes every `put` — faults are absorbed
    /// by the retry layer, never surfaced, and never lose data. This is
    /// the property Ginja's Safety guarantee leans on (uploads
    /// eventually complete, so the DBMS blocks rather than loses
    /// updates).
    #[test]
    fn resilient_store_eventually_completes_every_put(
        p in 0.0f64..0.85,
        seed in any::<u64>(),
        objects in proptest::collection::vec(
            ("[a-z]{1,10}", proptest::collection::vec(any::<u8>(), 0..64)),
            1..16,
        ),
    ) {
        let plan = Arc::new(FaultPlan::new());
        plan.fail_randomly(OpKind::Put, p, seed);
        let store = ResilientStore::new(
            Arc::new(FaultStore::new(MemStore::new(), plan.clone())),
            RetryConfig {
                // 0.85^300 ~ 1e-21: exhausting the budget is not a
                // plausible source of flakes.
                max_attempts: 300,
                base_delay: Duration::from_micros(5),
                max_delay: Duration::from_micros(100),
            },
        );
        let mut expected = std::collections::BTreeMap::new();
        for (name, data) in &objects {
            // No outer loop: the retry layer alone absorbs every fault.
            prop_assert!(store.put(name, data).is_ok(), "put of {} surfaced a fault", name);
            expected.insert(name.clone(), data.clone());
        }
        for (name, data) in &expected {
            prop_assert_eq!(&store.get(name).unwrap(), data);
        }
        if p > 0.0 && plan.injected_count() > 0 {
            // Every injected fault that hit a put was retried away.
            prop_assert!(store.retries() > 0);
        }
    }
}
