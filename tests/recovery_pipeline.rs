//! The recovery read path as one fetch → open → apply pipeline
//! (DESIGN.md §7, §12), pinned without sleeps: big objects and WAL are
//! in flight together under the `recovery_fanout` bound, every fan-out
//! width rebuilds the same bytes, a standby fed the bucket piecemeal
//! ends where a cold recovery does, a damaged object stops the apply at
//! exactly that object, and a pass is one wave.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ginja::cloud::{MemStore, ObjectStore, ResilientStore, StoreError};
use ginja::codec::Codec;
use ginja::core::{
    bundle, recover_into, recover_to_point, ApplyEngine, ApplyProgress, CloudView, DbObjectKind,
    DbObjectName, FanoutExecutor, GinjaConfig, WalObjectName, DB_PREFIX,
};
use ginja::standby::{Standby, StandbyConfig};
use ginja::vfs::{FileSystem, InterceptFs, IoProcessor, MemFs, WriteEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Control-block region at the head of every log file: dumps and
/// checkpoints write inside it, boot-time log images cover it, and WAL
/// objects newer than the dump stay clear of it (the InnoDB layout).
const HEADER: u64 = 8;

fn config(fanout: usize) -> GinjaConfig {
    GinjaConfig::builder()
        .recovery_fanout(fanout)
        .build()
        .unwrap()
}

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn put_wal(store: &MemStore, codec: &Codec, ts: u64, file: &str, offset: u64, data: &[u8]) {
    let name = WalObjectName {
        ts,
        file: file.into(),
        offset,
        len: data.len() as u64,
    }
    .to_name();
    store.put(&name, &codec.seal(&name, data).unwrap()).unwrap();
}

/// Seals a bundle as a DB entry cut into parts of at most `cap` bytes;
/// returns the part names.
fn put_db(
    store: &MemStore,
    codec: &Codec,
    ts: u64,
    kind: DbObjectKind,
    ranges: &[bundle::FileRange],
    cap: usize,
) -> Vec<String> {
    let encoded = bundle::encode(ranges);
    let size = encoded.len() as u64;
    let parts = bundle::chunk(encoded, cap);
    let n = parts.len() as u32;
    let mut names = Vec::new();
    for (part, data) in parts.iter().enumerate() {
        let name = DbObjectName {
            ts,
            kind,
            size,
            part: part as u32,
            parts: n,
        }
        .to_name();
        store.put(&name, &codec.seal(&name, data).unwrap()).unwrap();
        names.push(name);
    }
    names
}

fn range(path: String, offset: u64, data: Vec<u8>) -> bundle::FileRange {
    bundle::FileRange { path, offset, data }
}

/// A generated bucket: `pre_wal` boot-time log images older than a
/// multi-part dump, `post_wal` WAL objects newer than it, and `ckpts`
/// multi-part checkpoints among those. Returns the store and the
/// dump's timestamp.
fn build_bucket(seed: u64, pre_wal: u64, post_wal: u64, ckpts: u64) -> (MemStore, u64) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let codec = Codec::new(config(1).codec);
    let store = MemStore::new();
    let dump_ts = pre_wal + 1;
    for ts in 1..=pre_wal {
        let (file, len) = (rng.gen_range(0..2), rng.gen_range(8..48));
        put_wal(
            &store,
            &codec,
            ts,
            &format!("log/{file}"),
            0,
            &bytes(rng, len),
        );
    }
    let mut dump: Vec<bundle::FileRange> = (0..4)
        .map(|i| {
            let len = rng.gen_range(20..120);
            range(format!("base/{i}"), 0, bytes(rng, len))
        })
        .collect();
    for i in 0..2 {
        dump.push(range(format!("log/{i}"), 0, bytes(rng, HEADER as usize)));
    }
    put_db(&store, &codec, dump_ts, DbObjectKind::Dump, &dump, 64);
    for ts in dump_ts + 1..=dump_ts + post_wal {
        let (file, len) = (rng.gen_range(0..2), rng.gen_range(1..32));
        let offset = HEADER + rng.gen_range(0..64);
        put_wal(
            &store,
            &codec,
            ts,
            &format!("log/{file}"),
            offset,
            &bytes(rng, len),
        );
    }
    for i in 0..ckpts.min(post_wal) {
        // Distinct timestamps, some shared with a WAL object.
        let ts = dump_ts + 1 + i * post_wal / ckpts;
        let mut ranges = vec![range(
            "log/0".into(),
            rng.gen_range(0..HEADER - 2),
            bytes(rng, 2),
        )];
        for _ in 0..rng.gen_range(1..4) {
            let (file, len) = (rng.gen_range(0..4), rng.gen_range(1..40));
            ranges.push(range(
                format!("base/{file}"),
                rng.gen_range(0..60),
                bytes(rng, len),
            ));
        }
        put_db(&store, &codec, ts, DbObjectKind::Checkpoint, &ranges, 40);
    }
    (store, dump_ts)
}

/// Adds what colliding checkpoints can leave beside the DB object at
/// `ts`: the superset generation a merge uploads (`merge`), and the
/// first part of a still larger one whose upload died (`abort`).
/// Returns the names of the generation the merge supersedes, and of
/// the merged one.
fn collide(store: &MemStore, seed: u64, ts: u64, merge: bool, abort: bool) -> [Vec<String>; 2] {
    let rng = &mut StdRng::seed_from_u64(seed);
    let codec = Codec::new(config(1).codec);
    let view = CloudView::from_listing(store.list("").unwrap()).unwrap();
    let old = view.db_entry(ts).unwrap();
    let old_names: Vec<String> = old.parts.iter().map(DbObjectName::to_name).collect();
    let opened = old_names
        .iter()
        .map(|name| codec.open(name, &store.get(name).unwrap()).unwrap())
        .collect();
    let mut ranges = bundle::decode(&bundle::reassemble(opened)).unwrap();
    let mut grow = |ranges: &mut Vec<bundle::FileRange>| {
        let (file, offset) = (rng.gen_range(0..4), rng.gen_range(0..60));
        ranges.push(range(format!("base/{file}"), offset, bytes(rng, 24)));
    };
    grow(&mut ranges);
    let mut merged = Default::default();
    if merge {
        merged = [old_names, put_db(store, &codec, ts, old.kind, &ranges, 40)];
    }
    if abort {
        grow(&mut ranges);
        for lost in &put_db(store, &codec, ts, old.kind, &ranges, 40)[1..] {
            store.delete(lost).unwrap();
        }
    }
    merged
}

fn files(fs: &dyn FileSystem) -> BTreeMap<String, Vec<u8>> {
    let paths = fs.list("").unwrap();
    paths
        .into_iter()
        .map(|path| {
            let data = fs.read_all(&path).unwrap();
            (path, data)
        })
        .collect()
}

/// Records every write that reaches the file system, in order.
#[derive(Default)]
struct WriteLog(Mutex<Vec<(String, u64, usize)>>);

impl IoProcessor for WriteLog {
    fn on_write(&self, event: &WriteEvent) {
        let mut log = self.0.lock().unwrap();
        log.push((event.path.to_string(), event.offset, event.len()));
    }
}

// ---- (a) dump, checkpoints and WAL in flight together ---------------

/// Holds every GET until a dump part, a checkpoint part and a WAL
/// object are in flight at the same time, and tracks the high-water
/// mark of concurrent GETs.
struct GatedStore {
    inner: MemStore,
    state: Mutex<Gate>,
    opened: Condvar,
}

#[derive(Default)]
struct Gate {
    /// In-flight GETs of dump parts, checkpoint parts, WAL objects.
    in_flight: [usize; 3],
    max_in_flight: usize,
    open: bool,
}

impl ObjectStore for GatedStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let class = match DbObjectName::parse(name) {
            Ok(db) if db.kind == DbObjectKind::Dump => 0,
            Ok(_) => 1,
            Err(_) => 2,
        };
        let mut gate = self.state.lock().unwrap();
        gate.in_flight[class] += 1;
        gate.max_in_flight = gate.max_in_flight.max(gate.in_flight.iter().sum());
        if gate.in_flight.iter().all(|&n| n > 0) {
            gate.open = true;
            self.opened.notify_all();
        }
        // A pipeline that fetches the three kinds in separate waves
        // never opens the gate: fail the GET instead of hanging.
        let (gate, _) = self
            .opened
            .wait_timeout_while(gate, Duration::from_secs(20), |g| !g.open)
            .unwrap();
        let open = gate.open;
        drop(gate);
        let result = if open {
            self.inner.get(name)
        } else {
            Err(StoreError::Unavailable {
                reason: "gate never saw dump, checkpoint and WAL in flight together".into(),
                retryable: false,
            })
        };
        self.state.lock().unwrap().in_flight[class] -= 1;
        result
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(prefix)
    }
}

#[test]
fn dump_checkpoints_and_wal_are_in_flight_together_within_the_fanout() {
    // A two-part dump and a one-part checkpoint leave one of the four
    // slots to the WAL from the first instant.
    let codec = Codec::new(config(1).codec);
    let store = MemStore::new();
    put_wal(&store, &codec, 1, "log/0", 0, &[1; 24]);
    let dump = [
        range("base/0".into(), 0, vec![2; 70]),
        range("log/0".into(), 0, vec![3; HEADER as usize]),
    ];
    put_db(&store, &codec, 2, DbObjectKind::Dump, &dump, 64);
    for ts in 3..9 {
        put_wal(&store, &codec, ts, "log/0", HEADER + ts, &[ts as u8; 5]);
    }
    let ckpt = [range("base/0".into(), 4, vec![9; 8])];
    put_db(&store, &codec, 6, DbObjectKind::Checkpoint, &ckpt, 64);
    assert_eq!(store.list(DB_PREFIX).unwrap().len(), 3);
    let reference = MemFs::new();
    recover_into(&reference, &store, &config(1)).unwrap();

    let gated = GatedStore {
        inner: store,
        state: Mutex::default(),
        opened: Condvar::new(),
    };
    let fs = MemFs::new();
    let report = recover_into(&fs, &gated, &config(4)).unwrap();
    assert_eq!(report.wal_objects_applied, 7);
    assert_eq!(files(&fs), files(&reference));
    let gate = gated.state.lock().unwrap();
    assert!(gate.open);
    assert!(
        gate.max_in_flight <= 4,
        "{} GETs in flight at recovery_fanout 4",
        gate.max_in_flight
    );
}

// ---- (b) every width, every split: the same bytes --------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fanout_widths_and_standby_splits_agree_with_serial_recovery(
        seed in any::<u64>(),
        pre_wal in 0u64..5,
        post_wal in 1u64..14,
        ckpts in 0u64..4,
        cycles in 1u64..5,
        merge in any::<bool>(),
        abort in any::<bool>(),
    ) {
        let (store, dump_ts) = build_bucket(seed, pre_wal, post_wal, ckpts);
        // The collision lands on the first checkpoint, or on the dump.
        let first_db = if ckpts > 0 { dump_ts + 1 } else { dump_ts };
        let [superseded, merged] = collide(&store, seed, first_db, merge, abort);
        let rng = &mut StdRng::seed_from_u64(seed ^ 0x5eed);
        let middle = dump_ts + rng.gen_range(0..=post_wal);
        for point in [u64::MAX, middle] {
            let serial = MemFs::new();
            let expected = recover_to_point(&serial, &store, &config(1), point).unwrap();
            for fanout in [4, 8] {
                let fs = MemFs::new();
                let report = recover_to_point(&fs, &store, &config(fanout), point).unwrap();
                prop_assert_eq!(&report, &expected);
                prop_assert_eq!(files(&fs), files(&serial));
            }
        }

        // The same bucket, appearing in a standby's listing a random
        // subset at a time.
        let live = Arc::new(MemStore::new());
        let shadow = Arc::new(MemFs::new());
        let tail = StandbyConfig { fanout: 4, ..StandbyConfig::default() };
        let standby = Standby::attach(live.clone(), shadow.clone(), config(4), tail).unwrap();
        let names = store.list("").unwrap();
        let mut arrival: BTreeMap<&String, u64> =
            names.iter().map(|name| (name, rng.gen_range(0..cycles))).collect();
        // A merge lands after the generation it supersedes, as late as
        // the final poll, and deletes that one once it is whole.
        if let Some(&after) = superseded.iter().map(|name| &arrival[name]).max() {
            for name in &merged {
                arrival.insert(name, rng.gen_range(after..=cycles));
            }
        }
        let merged_at = merged.iter().map(|name| arrival[name]).max();
        let polls = (0..=cycles).map(|cycle| {
            for (name, _) in arrival.iter().filter(|(_, at)| **at == cycle) {
                live.put(name, &store.get(name).unwrap()).unwrap();
            }
            if merged_at == Some(cycle) {
                for name in &superseded {
                    live.delete(name).unwrap();
                }
            }
            standby.run_cycle().unwrap()
        });
        let last = polls.last().unwrap();
        prop_assert_eq!(last.lag_objects, 0);
        let cold = MemFs::new();
        recover_into(&cold, &store, &config(1)).unwrap();
        prop_assert_eq!(files(shadow.as_ref()), files(&cold));
    }
}

// ---- (c) a damaged object stops the apply exactly there --------------

#[test]
fn damaged_object_stops_the_apply_at_that_object() {
    let (pristine, dump_ts) = build_bucket(11, 2, 8, 0);
    // One checkpoint into a file nothing else writes, so any write to
    // it is a checkpoint apply.
    let codec = Codec::new(config(1).codec);
    let marker = [range("ckpt/only".into(), 0, vec![1; 90])];
    put_db(
        &pristine,
        &codec,
        dump_ts + 3,
        DbObjectKind::Checkpoint,
        &marker,
        40,
    );

    // Issue order: DB parts (dump, then checkpoint) sort before WAL in
    // the listing as they do in the plan.
    let mut plan = pristine.list(DB_PREFIX).unwrap();
    plan.extend(
        CloudView::from_listing(pristine.list("").unwrap())
            .unwrap()
            .wal_entries()
            .map(WalObjectName::to_name),
    );
    let last = plan.last().unwrap().clone();

    for (k, name) in plan.iter().enumerate() {
        let damaged = |also_last: bool| {
            let store = MemStore::new();
            for other in &plan {
                store.put(other, &pristine.get(other).unwrap()).unwrap();
            }
            let mut sealed = store.get(name).unwrap();
            let mid = sealed.len() / 2;
            sealed[mid] ^= 0xff;
            store.put(name, &sealed).unwrap();
            if also_last && *name != last {
                // A different error on a later object must not win.
                store.put(&last, b"xx").unwrap();
            }
            store
        };
        let recover = |store: &MemStore, fanout: usize| {
            let log = Arc::new(WriteLog::default());
            let fs = InterceptFs::new(MemFs::new(), log.clone());
            let err = recover_into(&fs, store, &config(fanout)).unwrap_err();
            let writes = std::mem::take(&mut *log.0.lock().unwrap());
            (err, writes, fs.exists("ckpt/only"))
        };
        let (serial_err, serial_writes, _) = recover(&damaged(false), 1);
        let (err, writes, ckpt_applied) = recover(&damaged(true), 4);
        assert_eq!(err, serial_err, "object {k} ({name})");
        assert_eq!(writes, serial_writes, "object {k} ({name})");
        assert!(!ckpt_applied, "object {k} ({name})");
    }
}

// ---- (d) one pass, one wave -------------------------------------------

#[test]
fn a_cold_recovery_and_each_fetching_standby_cycle_are_one_wave() {
    let (store, dump_ts) = build_bucket(3, 1, 6, 2);
    let config = config(4);
    let codec = Codec::new(config.codec.clone());

    let fanout = FanoutExecutor::new(4);
    let fs = MemFs::new();
    let view = CloudView::from_listing(store.list("").unwrap()).unwrap();
    ApplyEngine::new(&fs, &store, &codec, &fanout)
        .cold_apply(&view, u64::MAX, &mut ApplyProgress::new())
        .unwrap();
    assert_eq!(fanout.waves(), 1);

    let store = Arc::new(store);
    let fanout = Arc::new(FanoutExecutor::new(4));
    let resilient = Arc::new(ResilientStore::new(store.clone(), config.retry.clone()));
    let standby = Standby::attach_with(
        resilient,
        fanout.clone(),
        Arc::new(MemFs::new()),
        config,
        StandbyConfig::default(),
    )
    .unwrap();
    assert!(standby.run_cycle().unwrap().rebased);
    assert_eq!(fanout.waves(), 1);
    // Nothing new: no wave.
    assert_eq!(standby.run_cycle().unwrap().gets, 0);
    assert_eq!(fanout.waves(), 1);
    // Two WAL objects and a three-part checkpoint: still one wave.
    let top = dump_ts + 6;
    put_wal(&store, &codec, top + 1, "log/0", HEADER, b"tail-1");
    put_wal(&store, &codec, top + 2, "log/1", HEADER, b"tail-2");
    let ckpt = [range("base/0".into(), 0, vec![7; 60])];
    put_db(&store, &codec, top + 2, DbObjectKind::Checkpoint, &ckpt, 40);
    let report = standby.run_cycle().unwrap();
    assert_eq!((report.wal_applied, report.checkpoints_applied), (2, 1));
    assert_eq!(report.gets, 5);
    assert_eq!(fanout.waves(), 2);
}
