//! The read path: cold recovery of snapshot B and standby promotion
//! across the A→B residual, both through a seeded intra-region latency
//! lens, each followed by `Database::open` and `probe_tpcc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ginja_cloud::{LatencyModel, LatencyStore, MemStore, ObjectStore, StoreError};
use ginja_core::{recover_into, GinjaConfig};
use ginja_db::{Database, DbProfile};
use ginja_standby::{Standby, StandbyConfig};
use ginja_vfs::{FileSystem, MemFs};
use ginja_workload::probe_tpcc;

use crate::probes::{copy_store, OpKind, OpLog, OpRec};
use crate::rig::Checks;
use crate::spec::RECOVERY_FANOUT;
use crate::stats::{median, union_ns};

/// Tail cycles a standby may need to reach lag 0 on a quiet bucket
/// (the first one cold-applies the base); more means it is not
/// converging.
const MAX_TAIL_CYCLES: usize = 8;

/// Stage times of one cold recovery, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColdRound {
    pub total_s: f64,
    pub list_s: f64,
    pub fetch_wall_s: f64,
    pub get_busy_s: f64,
    pub apply_s: f64,
    pub open_s: f64,
    pub probe_s: f64,
    pub gets: u64,
    pub lists: u64,
    pub get_p50_s: f64,
}

/// Stage times of one promotion, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct PromoteRound {
    /// promote() + Database::open + probe_tpcc.
    pub total_s: f64,
    pub apply_s: f64,
    pub tail_s: f64,
    pub residual_gets: u64,
    pub standby_gets: u64,
}

/// All rounds of one run.
#[derive(Debug, Default, Clone)]
pub struct ReadPath {
    pub cold: Vec<ColdRound>,
    pub promote: Vec<PromoteRound>,
}

impl ReadPath {
    pub fn recover_s(&self) -> f64 {
        self.cold_med(|r| r.total_s)
    }

    pub fn promote_s(&self) -> f64 {
        self.promote_med(|r| r.total_s)
    }

    /// Median of one field over the cold rounds.
    pub fn cold_med(&self, f: impl Fn(&ColdRound) -> f64) -> f64 {
        median(&self.cold.iter().map(f).collect::<Vec<_>>())
    }

    /// Median of one field over the promotion rounds.
    pub fn promote_med(&self, f: impl Fn(&PromoteRound) -> f64) -> f64 {
        median(&self.promote.iter().map(f).collect::<Vec<_>>())
    }
}

/// A store that answers either through the latency lens or straight
/// from memory: the standby's catch-up to snapshot A happens while the
/// primary is healthy and is not part of any recovery time, so it runs
/// with the lens off.
struct SwitchLens {
    slow: LatencyStore<Arc<MemStore>>,
    fast: Arc<MemStore>,
    lens_on: AtomicBool,
}

impl SwitchLens {
    fn pick(&self) -> &dyn ObjectStore {
        if self.lens_on.load(Ordering::SeqCst) {
            &self.slow
        } else {
            &*self.fast
        }
    }
}

impl ObjectStore for SwitchLens {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.pick().put(name, data)
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.pick().get(name)
    }
    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.pick().delete(name)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.pick().list(prefix)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The cloud side of one recovery, from its operation log (seconds).
struct Fetch {
    list_s: f64,
    /// Wall time with at least one GET in flight.
    wall_s: f64,
    /// Sum of GET durations.
    busy_s: f64,
    get_p50_s: f64,
    gets: u64,
    lists: u64,
}

fn fetch_stages(ops: &[OpRec]) -> Fetch {
    let of = |kind| ops.iter().filter(move |o| o.kind == kind);
    let list_ns: u64 = of(OpKind::List).map(|o| o.end_ns - o.start_ns).sum();
    let mut get_ns: Vec<u64> = of(OpKind::Get).map(|o| o.end_ns - o.start_ns).collect();
    let wall_ns = union_ns(of(OpKind::Get).map(|o| (o.start_ns, o.end_ns)).collect());
    Fetch {
        list_s: secs(list_ns),
        wall_s: secs(wall_ns),
        busy_s: secs(get_ns.iter().sum()),
        get_p50_s: secs(crate::stats::percentile(&mut get_ns, 0.5)),
        gets: get_ns.len() as u64,
        lists: of(OpKind::List).count() as u64,
    }
}

/// Every file of `fs` with its bytes.
fn file_map(fs: &dyn FileSystem) -> BTreeMap<String, Vec<u8>> {
    fs.list("")
        .unwrap_or_default()
        .into_iter()
        .filter_map(|path| fs.read_all(&path).ok().map(|data| (path, data)))
        .collect()
}

/// Opens and probes a recovered directory; returns `(open_s, probe_s)`.
fn open_and_probe(
    fs: Arc<dyn FileSystem>,
    profile: &DbProfile,
    what: &str,
    checks: &mut Checks,
) -> (f64, f64) {
    let t0 = Instant::now();
    let db = Database::open(fs, profile.clone());
    let open_s = t0.elapsed().as_secs_f64();
    checks.check(db.is_ok(), || format!("{what}: database did not open"));
    let Ok(db) = db else { return (open_s, 0.0) };
    let t1 = Instant::now();
    let consistent = probe_tpcc(&db).is_ok_and(|r| r.is_consistent());
    let probe_s = t1.elapsed().as_secs_f64();
    checks.check(consistent, || format!("{what}: probe_tpcc inconsistent"));
    (open_s, probe_s)
}

/// Makes `store` hold exactly what `target` holds.
fn advance(store: &MemStore, target: &MemStore) {
    let want = target.list("").expect("MemStore list cannot fail");
    for name in store.list("").expect("MemStore list cannot fail") {
        if want.binary_search(&name).is_err() {
            store.delete(&name).expect("MemStore delete cannot fail");
        }
    }
    for name in want {
        let data = target.get(&name).expect("listed object exists");
        if store.get(&name).ok().as_ref() != Some(&data) {
            store.put(&name, &data).expect("MemStore put cannot fail");
        }
    }
}

/// Runs `rounds` cold recoveries of `b` and `rounds` promotions of a
/// standby that had applied `a` when the bucket moved on to `b`.
#[allow(clippy::too_many_arguments)]
pub fn run_rounds(
    a: &Arc<MemStore>,
    b: &Arc<MemStore>,
    config: &GinjaConfig,
    profile: &DbProfile,
    model: &LatencyModel,
    rounds: usize,
    seed: u64,
    checks: &mut Checks,
) -> ReadPath {
    // What every recovery of B must produce, byte for byte.
    let reference_fs = MemFs::new();
    let reference = recover_into(&reference_fs, b.as_ref(), config);
    checks.check(reference.is_ok(), || {
        format!("reference recovery failed: {:?}", reference.as_ref().err())
    });
    let reference = file_map(&reference_fs);

    // One live bucket serves every promotion round: advanced A→B for
    // the promotion, rewound B→A for the next round's tail.
    let live = Arc::new(copy_store(a));
    let mut out = ReadPath::default();
    for round in 0..rounds as u64 {
        // ---- cold
        let lens = LatencyStore::with_seed(b.clone(), model.clone(), seed ^ (round << 8));
        let log = OpLog::new(Arc::new(lens));
        let fs = Arc::new(MemFs::new());
        let t0 = Instant::now();
        let result = recover_into(fs.as_ref(), &log, config);
        let recover_s = t0.elapsed().as_secs_f64();
        checks.check(result.is_ok(), || {
            format!("cold recovery failed: {:?}", result.as_ref().err())
        });
        let (open_s, probe_s) = open_and_probe(fs, profile, "cold recovery", checks);
        let fetch = fetch_stages(&log.take_ops());
        out.cold.push(ColdRound {
            total_s: recover_s + open_s + probe_s,
            list_s: fetch.list_s,
            fetch_wall_s: fetch.wall_s,
            get_busy_s: fetch.busy_s,
            apply_s: (recover_s - fetch.list_s - fetch.wall_s).max(0.0),
            open_s,
            probe_s,
            gets: fetch.gets,
            lists: fetch.lists,
            get_p50_s: fetch.get_p50_s,
        });

        // ---- promotion
        advance(&live, a);
        let lens = Arc::new(SwitchLens {
            slow: LatencyStore::with_seed(live.clone(), model.clone(), seed ^ (round << 8) ^ 1),
            fast: live.clone(),
            lens_on: AtomicBool::new(false),
        });
        let log = Arc::new(OpLog::new(lens.clone()));
        let shadow = Arc::new(MemFs::new());
        let standby = Standby::attach(
            log.clone(),
            shadow.clone(),
            config.clone(),
            StandbyConfig {
                fanout: RECOVERY_FANOUT,
                ..StandbyConfig::default()
            },
        )
        .expect("standby attaches");
        let tail_start = Instant::now();
        let mut caught_up = false;
        for _ in 0..MAX_TAIL_CYCLES {
            match standby.run_cycle() {
                Ok(report) if report.lag_objects == 0 && report.delta_added == 0 => {
                    caught_up = true;
                    break;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        let tail_s = tail_start.elapsed().as_secs_f64();
        checks.check(caught_up, || "standby did not reach lag 0 on A".into());

        advance(&live, b);
        lens.lens_on.store(true, Ordering::SeqCst);
        log.take_ops();
        let t0 = Instant::now();
        let promotion = standby.promote();
        let promote_s = t0.elapsed().as_secs_f64();
        checks.check(promotion.as_ref().is_ok_and(|p| p.caught_up), || {
            format!("promotion did not catch up: {promotion:?}")
        });
        // Untimed: the promoted directory equals a cold recovery of B.
        let equal = file_map(shadow.as_ref()) == reference;
        checks.check(equal, || {
            "promoted shadow differs from cold recovery".into()
        });
        let (open_s, probe_s) = open_and_probe(shadow, profile, "promotion", checks);
        let fetch = fetch_stages(&log.take_ops());
        out.promote.push(PromoteRound {
            total_s: promote_s + open_s + probe_s,
            apply_s: (promote_s - fetch.list_s - fetch.wall_s).max(0.0),
            tail_s,
            residual_gets: fetch.gets,
            standby_gets: standby.snapshot().gets,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_makes_stores_equal() {
        let (from, to) = (MemStore::new(), MemStore::new());
        from.put("gone", b"1").unwrap();
        from.put("same", b"2").unwrap();
        from.put("changed", b"3").unwrap();
        to.put("same", b"2").unwrap();
        to.put("changed", b"33").unwrap();
        to.put("new", b"4").unwrap();
        advance(&from, &to);
        assert_eq!(from.inventory(), to.inventory());
        assert_eq!(from.get("changed").unwrap(), b"33");
    }

    #[test]
    fn fetch_stages_split_list_and_overlapping_gets() {
        let op = |kind, start_ns, end_ns| OpRec {
            kind,
            start_ns,
            end_ns,
            bytes: 0,
            ok: true,
            name: None,
        };
        let ops = [
            op(OpKind::List, 0, 1_000_000),
            op(OpKind::Get, 1_000_000, 3_000_000),
            op(OpKind::Get, 2_000_000, 4_000_000),
            op(OpKind::Get, 6_000_000, 7_000_000),
        ];
        let f = fetch_stages(&ops);
        assert!((f.list_s - 0.001).abs() < 1e-12);
        assert!((f.wall_s - 0.004).abs() < 1e-12, "union of GET intervals");
        assert!((f.busy_s - 0.005).abs() < 1e-12);
        assert_eq!((f.gets, f.lists), (3, 1));
        assert!((f.get_p50_s - 0.002).abs() < 1e-12);
    }
}
