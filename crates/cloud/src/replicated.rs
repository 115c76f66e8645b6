use std::sync::Arc;

use crate::{ObjectStore, StoreError};

/// Cloud-of-clouds replication over several [`ObjectStore`] backends.
///
/// The Ginja prototype "supports the replication of objects in multiple
/// clouds, for tolerating provider-scale failures" (§6, citing DepSky).
/// This implementation writes every object to all replicas and succeeds
/// once a configurable quorum acknowledges; reads fall through replicas
/// in order until one returns the object; listings are the union of all
/// reachable replicas (Ginja object names are immutable-once-written, so
/// a union is safe); deletes are best-effort everywhere.
#[derive(Clone)]
pub struct ReplicatedStore {
    replicas: Vec<Arc<dyn ObjectStore>>,
    write_quorum: usize,
}

impl std::fmt::Debug for ReplicatedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedStore")
            .field("replicas", &self.replicas.len())
            .field("write_quorum", &self.write_quorum)
            .finish()
    }
}

impl ReplicatedStore {
    /// Replicates over `replicas` requiring all writes to reach every
    /// replica (maximum durability).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn all_of(replicas: Vec<Arc<dyn ObjectStore>>) -> Self {
        let quorum = replicas.len();
        Self::with_quorum(replicas, quorum)
    }

    /// Replicates over `replicas` requiring a majority of acknowledgments
    /// per write (tolerates minority provider outages without blocking).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn majority_of(replicas: Vec<Arc<dyn ObjectStore>>) -> Self {
        let quorum = replicas.len() / 2 + 1;
        Self::with_quorum(replicas, quorum)
    }

    /// Replicates with an explicit write quorum.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or the quorum is zero or larger
    /// than the replica count.
    pub fn with_quorum(replicas: Vec<Arc<dyn ObjectStore>>, write_quorum: usize) -> Self {
        assert!(!replicas.is_empty(), "at least one replica is required");
        assert!(
            write_quorum >= 1 && write_quorum <= replicas.len(),
            "write quorum must be in 1..=replicas"
        );
        ReplicatedStore {
            replicas,
            write_quorum,
        }
    }

    /// The configured write quorum.
    pub fn write_quorum(&self) -> usize {
        self.write_quorum
    }

    /// Anti-entropy repair: copies every object that some replica holds
    /// to the replicas that miss it. Run after a provider outage so the
    /// lagging replica catches up (objects written under a quorum are
    /// absent from replicas that were down). Ginja object names are
    /// written once and never mutated, so copying by name is safe.
    ///
    /// Returns the number of `(replica, object)` copies performed.
    ///
    /// # Errors
    ///
    /// Fails if no replica can be listed; per-object copy failures are
    /// skipped (the next repair pass retries them).
    pub fn repair(&self) -> Result<usize, StoreError> {
        // Union of all object names across reachable replicas.
        let mut names = std::collections::BTreeSet::new();
        let mut listed_any = false;
        for replica in &self.replicas {
            if let Ok(list) = replica.list("") {
                listed_any = true;
                names.extend(list);
            }
        }
        if !listed_any {
            return Err(StoreError::unavailable("no replica can be listed"));
        }

        let mut copies = 0;
        for name in names {
            // Find a source holding the object.
            let Some(data) = self.replicas.iter().find_map(|r| r.get(&name).ok()) else {
                continue;
            };
            for replica in &self.replicas {
                if replica.get(&name).is_err() && replica.put(&name, &data).is_ok() {
                    copies += 1;
                }
            }
        }
        Ok(copies)
    }
}

impl ObjectStore for ReplicatedStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let mut acked = 0usize;
        for replica in &self.replicas {
            if replica.put(name, data).is_ok() {
                acked += 1;
            }
        }
        if acked >= self.write_quorum {
            Ok(())
        } else {
            Err(StoreError::QuorumNotReached {
                acked,
                required: self.write_quorum,
            })
        }
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let mut last_err = StoreError::NotFound(name.to_string());
        for replica in &self.replicas {
            match replica.get(name) {
                Ok(data) => return Ok(data),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        // Best-effort on every replica; success if any replica processed
        // it (a replica that is down keeps the object as garbage, which
        // is a cost problem, not a correctness problem).
        let mut any_ok = false;
        let mut last_err = None;
        for replica in &self.replicas {
            match replica.delete(name) {
                Ok(()) => any_ok = true,
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            Ok(())
        } else {
            Err(last_err.unwrap_or_else(|| StoreError::fatal("no replicas configured")))
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut names = std::collections::BTreeSet::new();
        let mut any_ok = false;
        let mut last_err = None;
        for replica in &self.replicas {
            match replica.list(prefix) {
                Ok(list) => {
                    any_ok = true;
                    names.extend(list);
                }
                Err(e) => last_err = Some(e),
            }
        }
        if any_ok {
            Ok(names.into_iter().collect())
        } else {
            Err(last_err.unwrap_or_else(|| StoreError::fatal("no replicas configured")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultStore, MemStore, OpKind};

    fn three_clouds() -> (Vec<Arc<dyn ObjectStore>>, Vec<Arc<FaultPlan>>) {
        let mut replicas: Vec<Arc<dyn ObjectStore>> = Vec::new();
        let mut plans = Vec::new();
        for _ in 0..3 {
            let plan = Arc::new(FaultPlan::new());
            replicas.push(Arc::new(FaultStore::new(MemStore::new(), plan.clone())));
            plans.push(plan);
        }
        (replicas, plans)
    }

    #[test]
    fn writes_reach_all_replicas() {
        let stores: Vec<Arc<dyn ObjectStore>> =
            vec![Arc::new(MemStore::new()), Arc::new(MemStore::new())];
        let mems: Vec<Arc<dyn ObjectStore>> = stores.clone();
        let repl = ReplicatedStore::all_of(stores);
        repl.put("o", b"data").unwrap();
        for m in &mems {
            assert_eq!(m.get("o").unwrap(), b"data");
        }
    }

    #[test]
    fn majority_survives_one_outage() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::majority_of(replicas);
        plans[0].outage();
        repl.put("o", b"d").unwrap(); // 2 of 3 ack
        assert_eq!(repl.get("o").unwrap(), b"d");
    }

    #[test]
    fn quorum_failure_reported() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::majority_of(replicas);
        plans[0].outage();
        plans[1].outage();
        let err = repl.put("o", b"d").unwrap_err();
        assert_eq!(
            err,
            StoreError::QuorumNotReached {
                acked: 1,
                required: 2
            }
        );
    }

    #[test]
    fn get_falls_through_to_healthy_replica() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::all_of(replicas);
        repl.put("o", b"d").unwrap();
        plans[0].fail_next(OpKind::Get, 1);
        assert_eq!(repl.get("o").unwrap(), b"d");
    }

    #[test]
    fn list_is_union() {
        let a = Arc::new(MemStore::new());
        let b = Arc::new(MemStore::new());
        a.put("WAL/1", b"").unwrap();
        b.put("WAL/2", b"").unwrap();
        b.put("WAL/1", b"").unwrap();
        let repl = ReplicatedStore::with_quorum(vec![a, b], 1);
        assert_eq!(repl.list("WAL/").unwrap(), vec!["WAL/1", "WAL/2"]);
    }

    #[test]
    fn delete_best_effort() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::all_of(replicas.clone());
        repl.put("o", b"d").unwrap();
        plans[2].fail_next(OpKind::Delete, 1);
        repl.delete("o").unwrap();
        // Replica 2 still has it (garbage), others do not.
        assert!(replicas[0].get("o").is_err());
        assert!(replicas[1].get("o").is_err());
        assert!(replicas[2].get("o").is_ok());
    }

    #[test]
    fn repair_heals_lagging_replica() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::majority_of(replicas.clone());
        plans[2].outage();
        for i in 0..10 {
            repl.put(&format!("WAL/{i}_f_0_4"), b"data").unwrap();
        }
        plans[2].restore();
        assert!(replicas[2].get("WAL/3_f_0_4").is_err());

        let copies = repl.repair().unwrap();
        assert_eq!(copies, 10);
        for i in 0..10 {
            assert_eq!(replicas[2].get(&format!("WAL/{i}_f_0_4")).unwrap(), b"data");
        }
        // Second pass: nothing to do.
        assert_eq!(repl.repair().unwrap(), 0);
    }

    #[test]
    fn repair_with_all_replicas_down_errors() {
        let (replicas, plans) = three_clouds();
        let repl = ReplicatedStore::all_of(replicas);
        for plan in &plans {
            plan.outage();
        }
        assert!(repl.repair().is_err());
    }

    #[test]
    fn get_missing_everywhere_is_not_found() {
        let (replicas, _) = three_clouds();
        let repl = ReplicatedStore::all_of(replicas);
        assert!(matches!(repl.get("missing"), Err(StoreError::NotFound(_))));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replicas_rejected() {
        let _ = ReplicatedStore::all_of(Vec::new());
    }

    #[test]
    #[should_panic(expected = "write quorum")]
    fn oversized_quorum_rejected() {
        let _ = ReplicatedStore::with_quorum(vec![Arc::new(MemStore::new())], 2);
    }
}
