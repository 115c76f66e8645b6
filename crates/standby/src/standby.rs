//! The standby daemon: delta tail, incremental apply, promotion.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_cloud::{
    DeltaLister, GiveUp, ObjectStore, ResilientStore, StopSignal, StoreError, UsageLedger,
};
use ginja_codec::Codec;
use ginja_core::{
    ApplyEngine, ApplyProgress, CloudView, DbEntry, FanoutExecutor, GinjaConfig, GinjaError,
    Listed, PeriodicTask, RecoveryReport, WalObjectName, WAL_PREFIX,
};
use ginja_vfs::FileSystem;
use parking_lot::Mutex;

use crate::stats::{StandbySnapshot, StandbyStats};

/// Cap on the sealed WAL bytes a standby keeps for re-apply. Past it a
/// fetched WAL object is not kept, and a rebase GETs it again.
const WAL_CACHE_BYTES: usize = 64 << 20;

/// Tuning for the standby tail. Validated by [`StandbyConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct StandbyConfig {
    /// Interval between tail polls.
    pub poll_interval: Duration,
    /// GET fan-out width when the standby owns its executor
    /// ([`Standby::attach`]); ignored when an executor is supplied.
    pub fanout: usize,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            poll_interval: Duration::from_millis(500),
            fanout: 8,
        }
    }
}

impl StandbyConfig {
    /// Validates invariants, returning a description of the first
    /// violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.poll_interval.is_zero() {
            return Err("standby.poll_interval must be nonzero".into());
        }
        if self.fanout == 0 {
            return Err("standby.fanout must be at least 1".into());
        }
        Ok(())
    }
}

/// What one tail cycle did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Objects that appeared in the bucket since the previous poll.
    pub delta_added: usize,
    /// Objects that disappeared (garbage collection) since the
    /// previous poll.
    pub delta_removed: usize,
    /// WAL objects fetched and applied this cycle.
    pub wal_applied: u64,
    /// Complete checkpoint entries applied this cycle.
    pub checkpoints_applied: u64,
    /// Whether this cycle wiped the shadow and cold-applied (first
    /// base, new dump generation, or an out-of-order straggler).
    pub rebased: bool,
    /// GETs issued this cycle (a WAL object re-applied from the
    /// standby's cache is not one).
    pub gets: u64,
    /// Sealed bytes those GETs downloaded.
    pub bytes_fetched: u64,
    /// Tracked-but-unapplied objects after this cycle (normally parts
    /// of a bundle still mid-upload).
    pub lag_objects: u64,
}

/// The outcome of a promotion: the shadow is now the recovered data
/// directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionReport {
    /// Achieved RTO: wall-clock time from the promotion call to a
    /// bootable directory — the residual catch-up, not a full rebuild.
    pub rto: Duration,
    /// Whether the final catch-up poll-and-apply fully succeeded. Under
    /// a cloud outage the promotion still completes from the last
    /// applied state (`false` here), losing at most the unsynchronized
    /// suffix the Safety bound `S` already allowed for.
    pub caught_up: bool,
    /// Tracked-but-unapplied objects left behind (0 when `caught_up`).
    pub residual_objects: u64,
    /// Estimated sealed bytes of the residual.
    pub residual_bytes: u64,
    /// Cumulative apply counters for the whole tail session — the same
    /// shape cold recovery reports, for side-by-side comparison.
    pub recovery: RecoveryReport,
}

/// Tail state carried across cycles, under one lock.
struct TailState {
    lister: DeltaLister,
    view: CloudView,
    progress: ApplyProgress,
    /// Whether a cold base has been applied to the shadow yet.
    based: bool,
    /// The DB generations the shadow holds, ts → size: the base dump
    /// and the incremental checkpoints applied over it.
    applied: BTreeMap<u64, u64>,
    /// Last instant at which the shadow had nothing left to apply.
    drained_at: Instant,
}

/// A warm standby attached to a Ginja bucket. See the crate docs.
pub struct Standby {
    cloud: Arc<ResilientStore>,
    shadow: Arc<dyn FileSystem>,
    config: GinjaConfig,
    tail: StandbyConfig,
    codec: Codec,
    fanout: Arc<FanoutExecutor>,
    stats: StandbyStats,
    fenced: AtomicBool,
    state: Mutex<TailState>,
    wal_cache: Mutex<WalCache>,
    task: Mutex<Option<PeriodicTask>>,
}

impl std::fmt::Debug for Standby {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Standby")
            .field("snapshot", &self.stats.snapshot())
            .finish()
    }
}

impl Standby {
    /// Attaches a standalone standby to `bucket` (the recovery-site
    /// deployment): its own [`ResilientStore`] with a fresh ledger and
    /// its own GET executor of `tail.fanout` workers.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Config`] when `tail` or `config` is invalid.
    pub fn attach(
        bucket: Arc<dyn ObjectStore>,
        shadow: Arc<dyn FileSystem>,
        config: GinjaConfig,
        tail: StandbyConfig,
    ) -> Result<Arc<Self>, GinjaError> {
        tail.validate().map_err(GinjaError::Config)?;
        config.validate()?;
        let store = Arc::new(ResilientStore::new(bucket, config.retry.clone()));
        let fanout = Arc::new(FanoutExecutor::new(tail.fanout));
        Ok(Self::build(store, fanout, shadow, config, tail))
    }

    /// Attaches a standby over a prebuilt [`ResilientStore`] and
    /// fan-out executor, so the caller can read the executor's wave
    /// counters and the store's ledger. Beside a live instance, pass
    /// its `Ginja::resilient_cloud` and `Ginja::fanout`: the standby's
    /// GETs then share the pipeline's retry policy and usage ledger.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Config`] when `tail` or `config` is invalid.
    pub fn attach_with(
        store: Arc<ResilientStore>,
        fanout: Arc<FanoutExecutor>,
        shadow: Arc<dyn FileSystem>,
        config: GinjaConfig,
        tail: StandbyConfig,
    ) -> Result<Arc<Self>, GinjaError> {
        tail.validate().map_err(GinjaError::Config)?;
        config.validate()?;
        Ok(Self::build(store, fanout, shadow, config, tail))
    }

    fn build(
        cloud: Arc<ResilientStore>,
        fanout: Arc<FanoutExecutor>,
        shadow: Arc<dyn FileSystem>,
        config: GinjaConfig,
        tail: StandbyConfig,
    ) -> Arc<Self> {
        let codec = Codec::new(config.codec.clone());
        Arc::new(Standby {
            cloud,
            shadow,
            config,
            tail,
            codec,
            fanout,
            stats: StandbyStats::default(),
            fenced: AtomicBool::new(false),
            state: Mutex::new(TailState {
                lister: DeltaLister::new(),
                view: CloudView::new(),
                progress: ApplyProgress::new(),
                based: false,
                applied: BTreeMap::new(),
                drained_at: Instant::now(),
            }),
            wal_cache: Mutex::new(WalCache::default()),
            task: Mutex::new(None),
        })
    }

    /// The standby's counters.
    pub fn snapshot(&self) -> StandbySnapshot {
        self.stats.snapshot()
    }

    /// The shadow file system the tail applies into (the bootable
    /// directory after [`Standby::promote`]).
    pub fn shadow(&self) -> Arc<dyn FileSystem> {
        self.shadow.clone()
    }

    /// The ledger metering this standby's cloud reads.
    pub fn ledger(&self) -> Arc<UsageLedger> {
        self.cloud.ledger().clone()
    }

    /// The pipeline configuration of the deployment this standby
    /// shadows (its Safety bound `S` caps what a promotion can lose).
    pub fn config(&self) -> &GinjaConfig {
        &self.config
    }

    /// Whether [`Standby::promote`] has fenced the tail.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// One tail cycle: poll the listing delta, fold it into the view,
    /// apply whatever became applicable, and refresh the lag gauges.
    ///
    /// # Errors
    ///
    /// Cloud failures (once the retry policy gives up) propagate after
    /// being counted; [`GinjaError::ShutDown`] once fenced.
    pub fn run_cycle(&self) -> Result<TailReport, GinjaError> {
        if self.is_fenced() {
            return Err(GinjaError::ShutDown);
        }
        let mut state = self.state.lock();
        self.cycle_locked(&mut state, false, &StopSignal::new())
    }

    /// Fences the tail and finishes the job: one final best-effort
    /// catch-up cycle, then the shadow *is* the recovered data
    /// directory. The wall-clock of this call is the achieved RTO.
    ///
    /// Under a cloud outage the catch-up may fail; promotion still
    /// completes from the last applied state (`caught_up = false`),
    /// losing at most the suffix the Safety bound `S` already allowed
    /// for — exactly the paper's disaster semantics.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Recovery`] when called twice, or when no base was
    /// ever applied (an empty standby has nothing to promote; the
    /// fence is released so a later attempt can succeed).
    pub fn promote(&self) -> Result<PromotionReport, GinjaError> {
        if self.fenced.swap(true, Ordering::SeqCst) {
            return Err(GinjaError::Recovery("standby already promoted".into()));
        }
        let start = Instant::now();
        let mut state = self.state.lock();
        let caught_up = self
            .cycle_locked(&mut state, true, &StopSignal::new())
            .is_ok();
        if !state.based {
            self.fenced.store(false, Ordering::SeqCst);
            return Err(GinjaError::Recovery(
                "standby has no applied base to promote".into(),
            ));
        }
        let (residual_objects, residual_bytes) = pending(&state);
        let rto = start.elapsed();
        self.stats.record_promotion(rto);
        Ok(PromotionReport {
            rto,
            caught_up: caught_up && residual_objects == 0,
            residual_objects,
            residual_bytes,
            recovery: state.progress.report(),
        })
    }

    /// Starts the background tail thread (idempotent), one cycle every
    /// `tail.poll_interval`; a failed cycle (an outage, say) is
    /// counted and retried at the next interval.
    pub fn spawn(self: &Arc<Self>) {
        let mut slot = self.task.lock();
        if slot.is_some() {
            return;
        }
        let standby = self.clone();
        *slot = Some(PeriodicTask::spawn("ginja-standby", move |stop| {
            if standby.is_fenced() {
                return None;
            }
            let _ = standby.cycle_locked(&mut standby.state.lock(), false, stop);
            Some(standby.tail.poll_interval)
        }));
    }

    /// Stops the background thread (if running) and joins it.
    /// Idempotent; direct calls to `run_cycle`/`promote` still work
    /// afterwards.
    pub fn shutdown(&self) {
        if let Some(task) = self.task.lock().take() {
            task.shutdown();
        }
    }

    /// The cycle body, under the state lock. `best_effort` (promotion)
    /// pushes past poll/apply failures instead of propagating them;
    /// `stop` cuts the bounded retries' back-offs short.
    fn cycle_locked(
        &self,
        state: &mut TailState,
        best_effort: bool,
        stop: &StopSignal,
    ) -> Result<TailReport, GinjaError> {
        let mut report = TailReport::default();
        let mut straggler = false;
        let cloud = self.cloud.retrying(GiveUp::Bounded, stop);

        match state.lister.poll(&cloud) {
            Ok(delta) => {
                report.delta_added = delta.added.len();
                report.delta_removed = delta.removed.len();
                let mut cache = self.wal_cache.lock();
                for name in &delta.removed {
                    state.view.remove_object(name);
                    cache.evict(name);
                }
                drop(cache);
                let applied = state.progress.max_wal_ts().max(state.progress.dump_ts());
                for name in &delta.added {
                    // Anything the view rejects is not Ginja's
                    // (`scrub_bucket` calls it an orphan); ignore it.
                    if let Ok(Listed::Wal(ts)) = state.view.insert_name(name) {
                        // Cold order puts it before objects already
                        // applied: older WAL, or the dump's re-apply.
                        straggler |= state.based && ts <= applied;
                    }
                }
            }
            Err(err) => {
                self.stats.record_error();
                if !best_effort {
                    self.refresh_lag(state, &mut report);
                    self.stats.record_cycle(0, 0);
                    return Err(err.into());
                }
            }
        }

        match self.apply_locked(&cloud, state, straggler, &mut report) {
            Ok(()) => {}
            Err(err) => {
                self.stats.record_error();
                if !best_effort {
                    self.refresh_lag(state, &mut report);
                    self.stats.record_cycle(report.gets, report.bytes_fetched);
                    return Err(err);
                }
            }
        }

        self.refresh_lag(state, &mut report);
        self.stats.record_cycle(report.gets, report.bytes_fetched);
        Ok(report)
    }

    /// Applies whatever the updated view makes applicable, preserving
    /// cold-recovery order.
    fn apply_locked(
        &self,
        cloud: &dyn ObjectStore,
        state: &mut TailState,
        straggler: bool,
        report: &mut TailReport,
    ) -> Result<(), GinjaError> {
        // A dump newer than our base supersedes the shadow; a straggler
        // below the applied frontier would apply out of cold order, and
        // so would a different generation counting at an applied ts (a
        // merge's superset). All rebase: correctness first, resets
        // counted.
        let newest_dump = state.view.most_recent_dump().map(|(ts, _)| ts);
        let new_generation =
            state.based && newest_dump.is_some_and(|ts| ts != state.progress.dump_ts());
        let newest_applied = state.applied.keys().next_back();
        let ckpt_straggler = state
            .view
            .checkpoints_after(state.progress.dump_ts())
            .iter()
            .any(|(ts, _)| {
                !state.applied.contains_key(ts) && newest_applied.is_some_and(|max| ts < max)
            });
        let winner_changed = state
            .applied
            .iter()
            .any(|(ts, size)| state.view.db_entry(*ts).map(|e| e.size) != Some(*size));

        if !state.based || new_generation || straggler || ckpt_straggler || winner_changed {
            if newest_dump.is_none() {
                // Nothing restorable yet (a bucket with no complete
                // dump); keep waiting — the lag gauges say everything.
                return Ok(());
            }
            return self.rebase(cloud, state, report);
        }

        // Incremental, as one pipeline pass: new WAL in timestamp order,
        // then newly complete checkpoints ascending — the same order a
        // cold recovery of this bucket would use.
        let frontier = state.progress.max_wal_ts();
        let wal: Vec<&WalObjectName> = state
            .view
            .wal_entries()
            .filter(|w| w.ts > frontier)
            .collect();
        let (ckpt_ids, ckpts): (Vec<(u64, u64)>, Vec<&DbEntry>) = state
            .view
            .checkpoints_after(state.progress.dump_ts())
            .into_iter()
            .filter(|(ts, _)| !state.applied.contains_key(ts))
            .map(|(ts, e)| ((ts, e.size), e))
            .unzip();
        if wal.is_empty() && ckpts.is_empty() {
            return Ok(());
        }
        let wal_objects = wal.len() as u64;
        let progress = &mut state.progress;
        self.pass(cloud, report, |engine| {
            engine.apply_delta(wal, ckpts, progress)
        })?;
        report.wal_applied += wal_objects;
        report.checkpoints_applied += ckpt_ids.len() as u64;
        state.applied.extend(ckpt_ids);
        Ok(())
    }

    /// Wipes the shadow and cold-applies the current view; the WAL
    /// objects already fetched come from the cache (see [`WalCache`]).
    fn rebase(
        &self,
        cloud: &dyn ObjectStore,
        state: &mut TailState,
        report: &mut TailReport,
    ) -> Result<(), GinjaError> {
        if state.based {
            self.stats.record_reset();
        }
        for file in self.shadow.list("")? {
            self.shadow.delete(&file)?;
        }
        state.progress = ApplyProgress::new();
        state.applied.clear();
        state.based = false;

        let (view, progress) = (&state.view, &mut state.progress);
        self.pass(cloud, report, |engine| {
            engine.cold_apply(view, u64::MAX, progress)
        })?;

        state.based = true;
        let view = &state.view;
        state.applied = view
            .most_recent_dump()
            .into_iter()
            .chain(view.checkpoints_after(state.progress.dump_ts()))
            .map(|(ts, e)| (ts, e.size))
            .collect();
        let done = state.progress.report();
        report.rebased = true;
        report.wal_applied += done.wal_objects_applied;
        report.checkpoints_applied += done.checkpoints_applied;
        Ok(())
    }

    /// One engine pass whose fetches go through the WAL cache; adds the
    /// GETs it issued, and their bytes, to `report`. A pass that fails
    /// to open an object empties the cache, so a copy that was corrupt
    /// when fetched is fetched again next time rather than failing
    /// every later pass from the cache.
    fn pass(
        &self,
        cloud: &dyn ObjectStore,
        report: &mut TailReport,
        run: impl FnOnce(&ApplyEngine<'_>) -> Result<(), GinjaError>,
    ) -> Result<(), GinjaError> {
        let fetcher = CachedFetch {
            cloud,
            cache: &self.wal_cache,
            gets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        let engine = ApplyEngine::new(self.shadow.as_ref(), &fetcher, &self.codec, &self.fanout);
        let result = run(&engine);
        report.gets += fetcher.gets.into_inner();
        report.bytes_fetched += fetcher.bytes.into_inner();
        if matches!(result, Err(GinjaError::Codec(_))) {
            self.wal_cache.lock().clear();
        }
        result
    }

    /// Recomputes the lag gauges from the view against the applied
    /// frontiers.
    fn refresh_lag(&self, state: &mut TailState, report: &mut TailReport) {
        let (objects, bytes) = pending(state);
        let now = Instant::now();
        if objects == 0 {
            state.drained_at = now;
        }
        let age = now.duration_since(state.drained_at);
        report.lag_objects = objects;
        self.stats.set_lag(objects, bytes, age);
    }
}

/// The sealed WAL objects the standby has fetched, by name, so that a
/// rebase re-applies them without a second GET. WAL names are never
/// reused with other bytes, and each copy is opened (MAC verified)
/// again on every apply. An entry goes when the listing reports its
/// object deleted; the total is capped at [`WAL_CACHE_BYTES`].
#[derive(Default)]
struct WalCache {
    objects: HashMap<String, Vec<u8>>,
    bytes: usize,
}

impl WalCache {
    fn insert(&mut self, name: &str, sealed: &[u8]) {
        if self.bytes + sealed.len() > WAL_CACHE_BYTES || self.objects.contains_key(name) {
            return;
        }
        self.bytes += sealed.len();
        self.objects.insert(name.to_owned(), sealed.to_vec());
    }

    fn evict(&mut self, name: &str) {
        if let Some(sealed) = self.objects.remove(name) {
            self.bytes -= sealed.len();
        }
    }

    fn clear(&mut self) {
        *self = WalCache::default();
    }
}

/// The bucket as one engine pass sees it: a WAL object the cache holds
/// is served from there; anything else is a GET, counted, and a fetched
/// WAL object is kept. Only `get` is used by the engine.
struct CachedFetch<'a> {
    cloud: &'a dyn ObjectStore,
    cache: &'a Mutex<WalCache>,
    gets: AtomicU64,
    bytes: AtomicU64,
}

impl ObjectStore for CachedFetch<'_> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.cloud.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        if let Some(sealed) = self.cache.lock().objects.get(name) {
            return Ok(sealed.clone());
        }
        let sealed = self.cloud.get(name)?;
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(sealed.len() as u64, Ordering::Relaxed);
        if name.starts_with(WAL_PREFIX) {
            self.cache.lock().insert(name, &sealed);
        }
        Ok(sealed)
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.cloud.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.cloud.list(prefix)
    }
}

/// Tracked-but-unapplied (objects, estimated sealed bytes) in `state`.
fn pending(state: &TailState) -> (u64, u64) {
    let mut objects = 0u64;
    let mut bytes = 0u64;
    if !state.based {
        for wal in state.view.wal_entries() {
            objects += 1;
            bytes += wal.len;
        }
        for (_, entry) in state.view.db_entries() {
            objects += entry.parts.len() as u64;
            bytes += entry.size;
        }
        return (objects, bytes);
    }
    let frontier = state.progress.max_wal_ts();
    for wal in state.view.wal_entries() {
        if wal.ts > frontier {
            objects += 1;
            bytes += wal.len;
        }
    }
    for (ts, entry) in state.view.db_entries() {
        if ts < state.progress.dump_ts() || state.applied.get(&ts) == Some(&entry.size) {
            continue;
        }
        // A complete unapplied entry (a dump generation or checkpoint
        // awaiting the next cycle) or a bundle still mid-upload: its
        // present parts are work the shadow has not absorbed.
        objects += entry.parts.len() as u64;
        let per_part = entry
            .parts
            .first()
            .map_or(0, |p| p.size / u64::from(p.parts.max(1)));
        bytes += per_part * entry.parts.len() as u64;
    }
    (objects, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_cloud::MemStore;
    use ginja_core::{bundle, DbObjectKind, DbObjectName, DB_PREFIX};
    use ginja_vfs::MemFs;

    fn config() -> GinjaConfig {
        GinjaConfig::builder().build().unwrap()
    }

    fn seal_wal(cloud: &dyn ObjectStore, codec: &Codec, ts: u64, offset: u64, data: &[u8]) {
        let name = WalObjectName {
            ts,
            file: "pg_xlog/0001".into(),
            offset,
            len: data.len() as u64,
        };
        let sealed = codec.seal(&name.to_name(), data).unwrap();
        cloud.put(&name.to_name(), &sealed).unwrap();
    }

    fn seal_db(
        cloud: &dyn ObjectStore,
        codec: &Codec,
        ts: u64,
        kind: DbObjectKind,
        path: &str,
        data: &[u8],
    ) {
        let bytes = bundle::encode(&[bundle::FileRange {
            path: path.into(),
            offset: 0,
            data: data.to_vec(),
        }]);
        let name = DbObjectName {
            ts,
            kind,
            size: bytes.len() as u64,
            part: 0,
            parts: 1,
        };
        let sealed = codec.seal(&name.to_name(), &bytes).unwrap();
        cloud.put(&name.to_name(), &sealed).unwrap();
    }

    fn assert_matches_cold(bucket: &Arc<MemStore>, shadow: &Arc<MemFs>, config: &GinjaConfig) {
        let cold = MemFs::new();
        ginja_core::recover_into(&cold, bucket.as_ref(), config).unwrap();
        let mut cold_files = cold.list("").unwrap();
        let mut shadow_files = shadow.list("").unwrap();
        cold_files.sort();
        shadow_files.sort();
        assert_eq!(cold_files, shadow_files);
        for file in &cold_files {
            assert_eq!(
                cold.read_all(file).unwrap(),
                shadow.read_all(file).unwrap(),
                "divergence in {file}"
            );
        }
    }

    #[test]
    fn tail_applies_incrementally_and_promotes() {
        let config = config();
        let codec = Codec::new(config.codec.clone());
        let bucket = Arc::new(MemStore::new());
        seal_db(
            bucket.as_ref(),
            &codec,
            0,
            DbObjectKind::Dump,
            "base/1",
            b"AAAA",
        );
        seal_wal(bucket.as_ref(), &codec, 1, 0, b"w1");

        let shadow = Arc::new(MemFs::new());
        let standby = Standby::attach(
            bucket.clone(),
            shadow.clone(),
            config.clone(),
            StandbyConfig::default(),
        )
        .unwrap();

        let first = standby.run_cycle().unwrap();
        assert!(first.rebased);
        assert_eq!(first.wal_applied, 1);
        assert_matches_cold(&bucket, &shadow, &config);

        // New tail objects arrive; the next cycle fetches only them.
        seal_wal(bucket.as_ref(), &codec, 2, 2, b"w2");
        seal_db(
            bucket.as_ref(),
            &codec,
            2,
            DbObjectKind::Checkpoint,
            "base/1",
            b"BB",
        );
        let second = standby.run_cycle().unwrap();
        assert!(!second.rebased);
        assert_eq!(second.wal_applied, 1);
        assert_eq!(second.checkpoints_applied, 1);
        assert_eq!(second.gets, 2);
        assert_matches_cold(&bucket, &shadow, &config);

        // Steady state: an unchanged bucket costs one LIST, zero GETs.
        let idle = standby.run_cycle().unwrap();
        assert_eq!(idle.gets, 0);
        assert_eq!(idle.lag_objects, 0);

        let promotion = standby.promote().unwrap();
        assert!(promotion.caught_up);
        assert_eq!(promotion.residual_objects, 0);
        assert_eq!(promotion.recovery.wal_objects_applied, 2);
        assert_matches_cold(&bucket, &shadow, &config);

        let snap = standby.snapshot();
        assert_eq!(snap.promotions, 1);
        assert!(snap.tail_cycles >= 3);
        assert!(matches!(standby.run_cycle(), Err(GinjaError::ShutDown)));
        assert!(standby.promote().is_err());
    }

    /// A bucket that records the name of every GET it serves.
    struct GetLog {
        bucket: Arc<MemStore>,
        gets: parking_lot::Mutex<Vec<String>>,
    }

    impl GetLog {
        fn new(bucket: &Arc<MemStore>) -> Arc<Self> {
            let gets = parking_lot::Mutex::new(Vec::new());
            Arc::new(GetLog {
                bucket: bucket.clone(),
                gets,
            })
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut self.gets.lock())
        }
    }

    impl ObjectStore for GetLog {
        fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
            self.bucket.put(name, data)
        }
        fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
            self.gets.lock().push(name.to_owned());
            self.bucket.get(name)
        }
        fn delete(&self, name: &str) -> Result<(), StoreError> {
            self.bucket.delete(name)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
            self.bucket.list(prefix)
        }
    }

    #[test]
    fn new_dump_generation_rebases() {
        let config = config();
        let codec = Codec::new(config.codec.clone());
        let bucket = Arc::new(MemStore::new());
        seal_db(
            bucket.as_ref(),
            &codec,
            0,
            DbObjectKind::Dump,
            "base/1",
            b"old",
        );
        seal_wal(bucket.as_ref(), &codec, 1, 0, b"w1");
        seal_wal(bucket.as_ref(), &codec, 2, 2, b"w2");
        let log = GetLog::new(&bucket);
        let shadow = Arc::new(MemFs::new());
        let standby = Standby::attach(
            log.clone(),
            shadow.clone(),
            config.clone(),
            StandbyConfig::default(),
        )
        .unwrap();
        assert_eq!(standby.run_cycle().unwrap().gets, 3);
        assert_eq!(log.take().len(), 3);

        seal_db(
            bucket.as_ref(),
            &codec,
            5,
            DbObjectKind::Dump,
            "base/1",
            b"newer",
        );
        let report = standby.run_cycle().unwrap();
        assert!(report.rebased);
        assert_eq!(report.wal_applied, 2);
        // Only the new dump is fetched: both WAL objects come from the
        // cache, and the counters say so.
        let gets = log.take();
        assert_eq!(gets.len(), 1, "{gets:?}");
        assert!(gets[0].starts_with(DB_PREFIX), "{gets:?}");
        assert_eq!(report.gets, 1);
        assert_eq!(standby.snapshot().gets, 4);
        assert_eq!(standby.snapshot().resets, 1);
        assert_matches_cold(&bucket, &shadow, &config);
        assert_eq!(shadow.read_all("base/1").unwrap(), b"newer");

        // Objects the listing reports deleted leave the cache: here the
        // GC of the old dump and of WAL ts 1.
        for name in bucket.list("").unwrap() {
            if name.starts_with("DB/0_") || name.starts_with("WAL/1_") {
                bucket.delete(&name).unwrap();
            }
        }
        standby.run_cycle().unwrap();
        assert_eq!(standby.wal_cache.lock().objects.len(), 1);
    }

    #[test]
    fn wal_older_than_the_dump_arriving_late_rebases() {
        // A boot-time image of the log file (ts 3) covers bytes the dump
        // (ts 5) owns; listed only after the shadow was based on the
        // dump, it must not be applied on top of it.
        let config = config();
        let codec = Codec::new(config.codec.clone());
        let bucket = Arc::new(MemStore::new());
        let (store, log) = (bucket.as_ref(), "pg_xlog/0001");
        seal_db(store, &codec, 5, DbObjectKind::Dump, log, b"HEAD");
        let shadow = Arc::new(MemFs::new());
        let tail = StandbyConfig::default();
        let standby =
            Standby::attach(bucket.clone(), shadow.clone(), config.clone(), tail).unwrap();
        standby.run_cycle().unwrap();

        seal_wal(store, &codec, 3, 0, b"boot-image");
        assert!(standby.run_cycle().unwrap().rebased);
        assert_eq!(shadow.read_all(log).unwrap(), b"HEAD-image");
        assert_matches_cold(&bucket, &shadow, &config);
    }

    #[test]
    fn a_wal_straggler_rebases_without_fetching_applied_wal_again() {
        let config = config();
        let codec = Codec::new(config.codec.clone());
        let bucket = Arc::new(MemStore::new());
        let store = bucket.as_ref();
        seal_db(store, &codec, 0, DbObjectKind::Dump, "base/1", b"AAAA");
        seal_wal(store, &codec, 1, 0, b"w1");
        seal_wal(store, &codec, 4, 4, b"w4");
        let log = GetLog::new(&bucket);
        let shadow = Arc::new(MemFs::new());
        let tail = StandbyConfig::default();
        let standby = Standby::attach(log.clone(), shadow.clone(), config.clone(), tail).unwrap();
        standby.run_cycle().unwrap();
        log.take();

        // WAL ts 2 lands after ts 4 was applied: a straggler.
        seal_wal(store, &codec, 2, 2, b"w2");
        let report = standby.run_cycle().unwrap();
        assert!(report.rebased);
        assert_eq!(report.wal_applied, 3);
        let mut want: Vec<String> = bucket.list(DB_PREFIX).unwrap();
        want.extend(bucket.list("WAL/2_").unwrap());
        assert_eq!(log.take(), want, "GETs of the rebase");
        assert_eq!(report.gets, 2);
        assert_matches_cold(&bucket, &shadow, &config);
    }

    /// A dump, a WAL object and a checkpoint at ts 1 over `base/1`,
    /// and a standby that has applied them.
    fn tail_with_a_checkpoint(extra: &[&str]) -> (Arc<MemStore>, Arc<MemFs>, Arc<Standby>) {
        let codec = Codec::new(config().codec);
        let bucket = Arc::new(MemStore::new());
        let store = bucket.as_ref();
        seal_db(store, &codec, 0, DbObjectKind::Dump, "base/1", b"AAAA");
        seal_wal(store, &codec, 1, 0, b"w1");
        seal_db(store, &codec, 1, DbObjectKind::Checkpoint, "base/1", b"BB");
        for name in extra {
            store
                .put(name, &codec.seal(name, b"part").unwrap())
                .unwrap();
        }
        let shadow = Arc::new(MemFs::new());
        let tail = StandbyConfig::default();
        let standby = Standby::attach(bucket.clone(), shadow.clone(), config(), tail).unwrap();
        let report = standby.run_cycle().unwrap();
        assert_eq!((report.checkpoints_applied, report.lag_objects), (1, 0));
        (bucket, shadow, standby)
    }

    #[test]
    fn a_merged_generation_at_an_applied_timestamp_rebases() {
        let (bucket, shadow, standby) = tail_with_a_checkpoint(&[]);
        // A second checkpoint with no commit between collides at ts 1:
        // the merged generation lands, then the old one goes.
        let (codec, ckpt) = (Codec::new(config().codec), DbObjectKind::Checkpoint);
        let old = bucket.list(DB_PREFIX).unwrap().pop().unwrap();
        seal_db(bucket.as_ref(), &codec, 1, ckpt, "base/1", b"BBCC");
        bucket.delete(&old).unwrap();
        let report = standby.run_cycle().unwrap();
        assert!(report.rebased);
        assert_eq!(report.lag_objects, 0);
        standby.promote().unwrap();
        assert_eq!(shadow.read_all("base/1").unwrap(), b"BBCC");
        assert_matches_cold(&bucket, &shadow, &config());
    }

    #[test]
    fn an_aborted_larger_generation_does_not_hide_the_complete_one() {
        // One part of a larger merge whose upload died.
        let (bucket, shadow, standby) = tail_with_a_checkpoint(&["DB/1_checkpoint_4096_0_2"]);
        standby.promote().unwrap();
        assert_eq!(shadow.read_all("base/1").unwrap(), b"BBAA");
        assert_matches_cold(&bucket, &shadow, &config());
    }

    #[test]
    fn the_wal_cache_keeps_nothing_past_its_cap() {
        let mut cache = WalCache::default();
        cache.insert("a", b"12");
        cache.bytes = WAL_CACHE_BYTES - 1;
        cache.insert("b", b"12");
        assert!(!cache.objects.contains_key("b"));
        cache.bytes = 2;
        cache.evict("a");
        assert_eq!((cache.objects.len(), cache.bytes), (0, 0));
    }

    #[test]
    fn empty_bucket_waits_without_a_base() {
        let config = config();
        let bucket = Arc::new(MemStore::new());
        let standby = Standby::attach(
            bucket,
            Arc::new(MemFs::new()),
            config,
            StandbyConfig::default(),
        )
        .unwrap();
        let report = standby.run_cycle().unwrap();
        assert!(!report.rebased);
        assert_eq!(report.gets, 0);
        let err = standby.promote().unwrap_err();
        assert!(matches!(err, GinjaError::Recovery(_)));
        assert!(
            !standby.is_fenced(),
            "failed promotion must release the fence"
        );
    }

    #[test]
    fn config_validation_is_enforced() {
        let bad = StandbyConfig {
            poll_interval: Duration::ZERO,
            ..StandbyConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(StandbyConfig {
            fanout: 0,
            ..StandbyConfig::default()
        }
        .validate()
        .is_err());
        assert!(StandbyConfig::default().validate().is_ok());
    }
}
