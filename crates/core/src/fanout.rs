//! A bounded fan-out executor for the seal/PUT/GET hot paths.
//!
//! The uploader pool in `ginja.rs` already established the discipline this
//! module generalises: a fixed number of worker threads drain a queue of
//! independent jobs while a single consumer restores order. `FanoutExecutor`
//! packages that shape so the checkpointer, recovery, reboot resync, the
//! archiver and the sentinel repair path can all share it instead of each
//! growing a private thread pool.
//!
//! Three guarantees matter to every caller:
//!
//! * **In-order delivery.** `run_ordered` hands results to the consumer in
//!   exactly the input order, no matter how workers interleave. Completed
//!   out-of-order results park in a reorder buffer until their turn. This is
//!   what lets the checkpointer register a checkpoint in the cloud view only
//!   after *all* of its parts are durable, and lets recovery apply WAL
//!   objects in timestamp order while fetching them concurrently.
//! * **Abort on first error.** The first failure (from a worker or from the
//!   consumer) flips an abort flag; workers stop claiming new jobs, in-flight
//!   jobs finish and are discarded, and the earliest error in input order is
//!   returned. Callers therefore never observe a "later" success after a
//!   reported failure.
//! * **A bounded reorder buffer.** Workers claim no job more than
//!   [`REORDER_WINDOW`] × width past the next index to deliver, so one
//!   stalled head-of-line job cannot pull the rest of a bucket into memory.
//!   The bound covers results *parked* for the consumer; what the consumer
//!   does with a delivered result is its own business — recovery stashes
//!   checkpoint parts on arrival until the WAL pass is over, and those do
//!   not count against the window.
//!
//! `run_staged` is the read path's variant: each job is a gated `fetch`
//! (the GET — at most `width` in flight, under the fair permit) followed by
//! an ungated `work` (MAC, decrypt, decompress) on the same worker, with a
//! few extra workers so that a long decode never keeps a GET slot idle.
//!
//! Workers are spawned per wave with `std::thread::scope`, so job closures
//! may borrow non-`'static` state (`&dyn ObjectStore`, `&Codec`, local
//! buffers). A wave with one job — or an executor of width 1 — runs inline
//! on the caller's thread with zero spawns, keeping the serial path exactly
//! as cheap as it was before this module existed.
//!
//! # Fair sharing across tenants
//!
//! A plain executor bounds *one wave* at `width` concurrent jobs; when many
//! independent pipelines (fleet tenants) each run their own waves, nothing
//! bounds the total, and nothing stops one tenant's bulk dump from monopolising
//! the upload path while a neighbor's commit PUT waits. A **fair** executor
//! ([`FanoutExecutor::fair`]) adds a global admission gate: every job — wave
//! jobs and single PUT permits alike — must acquire one of `width` permits,
//! and a weighted **deficit round-robin** scheduler decides which *lane*
//! (tenant) the next free permit goes to. Each lane accrues credit in
//! proportion to its weight; a lane with queued work is never skipped more
//! than `⌈1/quantum⌉` full rotations before it is served, which bounds any
//! tenant's scheduling delay to roughly the sum of the other lanes' quanta —
//! the starvation bound the tests assert.
//!
//! [`FanoutHandle`] is the per-tenant view: a cheap clone of
//! `(executor, lane)` with the same `run_ordered`/`run_collect`/`run_staged`
//! surface, plus [`FanoutHandle::with_permit`] for gating individual
//! operations (the uploaders' commit PUTs). [`FanoutHandle::solo`] wraps a
//! private ungated executor so single-tenant pipelines pay nothing for the
//! feature.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Workers claim no job at or beyond `delivered + REORDER_WINDOW × width`:
/// the reorder buffer of a wave holds fewer results than that.
pub const REORDER_WINDOW: usize = 4;

/// Weights below this are clamped up: a zero quantum would never accrue
/// credit and the lane would starve by construction.
const MIN_WEIGHT: f64 = 1e-3;

/// One lane of the deficit round-robin scheduler.
#[derive(Debug)]
struct Lane {
    /// Quantum: credit gained per scheduler visit, i.e. the lane's weight.
    quantum: f64,
    /// Accumulated credit; one unit buys one job. Carries fractionally
    /// across rounds, resets when the lane has nothing queued.
    deficit: f64,
    /// Whether the lane has been topped up in its current turn — the
    /// quantum is charged once per visit, not once per grant, or a lane
    /// could re-earn credit without ever yielding the cursor.
    charged: bool,
    /// Acquire requests queued and not yet granted.
    pending: usize,
    /// Permits granted and consumable by this lane's waiting threads.
    grants: usize,
    /// Scheduler grants handed to this lane over its lifetime.
    granted: u64,
    /// Times the scheduler rotated away from this lane while it still had
    /// queued work (its turn's credit was spent).
    preemptions: u64,
    /// Waves run on this lane.
    waves: u64,
    /// Jobs run on this lane (wave jobs plus single permits).
    jobs: u64,
}

impl Lane {
    fn snapshot(&self, lane: usize) -> LaneSnapshot {
        LaneSnapshot {
            lane,
            weight: self.quantum,
            waves: self.waves,
            jobs: self.jobs,
            granted: self.granted,
            preemptions: self.preemptions,
            deficit_carry: self.deficit,
        }
    }
}

/// Deterministic weighted deficit round-robin core. Pure state machine —
/// no threads, no clocks — so the fairness and starvation properties are
/// unit-testable exactly.
#[derive(Debug, Default)]
struct DrrState {
    lanes: Vec<Lane>,
    cursor: usize,
    /// Jobs currently holding a permit, bounded by the executor width.
    in_flight: usize,
    /// High-water mark of `in_flight` — the observable proof that a shared
    /// executor really holds the fleet to one global width.
    max_in_flight: usize,
}

impl DrrState {
    fn register(&mut self, weight: f64) -> usize {
        self.lanes.push(Lane {
            quantum: weight.max(MIN_WEIGHT),
            deficit: 0.0,
            charged: false,
            pending: 0,
            grants: 0,
            granted: 0,
            preemptions: 0,
            waves: 0,
            jobs: 0,
        });
        self.lanes.len() - 1
    }

    fn total_pending(&self) -> usize {
        self.lanes.iter().map(|l| l.pending).sum()
    }

    /// Picks the lane the next permit goes to, consuming one pending
    /// request. Returns `None` only when nothing is queued.
    ///
    /// Classic DRR with unit job cost: visit the cursor lane; an empty lane
    /// forfeits its credit; a lane with work spends existing credit first,
    /// is topped up once per visit, and yields the cursor (a *preemption*)
    /// only when its credit is still short of one job. Termination is
    /// guaranteed because every full rotation adds `quantum > 0` to some
    /// lane with pending work.
    fn pick(&mut self) -> Option<usize> {
        if self.lanes.is_empty() || self.total_pending() == 0 {
            return None;
        }
        loop {
            let i = self.cursor;
            let n = self.lanes.len();
            let lane = &mut self.lanes[i];
            if lane.pending == 0 {
                lane.deficit = 0.0;
                lane.charged = false;
                self.cursor = (i + 1) % n;
                continue;
            }
            if !lane.charged {
                lane.deficit += lane.quantum;
                lane.charged = true;
            }
            if lane.deficit >= 1.0 {
                lane.deficit -= 1.0;
                lane.pending -= 1;
                lane.granted += 1;
                return Some(i);
            }
            // Charged but still short of one job: the turn is over and the
            // lane yields the cursor with work queued — a preemption. The
            // fractional deficit is carried, not lost.
            lane.preemptions += 1;
            lane.charged = false;
            self.cursor = (i + 1) % n;
        }
    }
}

/// Point-in-time scheduler counters for one lane, as rolled up into fleet
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSnapshot {
    /// Lane index (stable for the executor's lifetime).
    pub lane: usize,
    /// The lane's weight (DRR quantum).
    pub weight: f64,
    /// Waves run on this lane.
    pub waves: u64,
    /// Jobs run on this lane (wave jobs plus single permits).
    pub jobs: u64,
    /// Scheduler grants handed to this lane.
    pub granted: u64,
    /// Times the scheduler rotated away while this lane had queued work.
    pub preemptions: u64,
    /// Fractional credit the lane is currently carrying across rounds.
    pub deficit_carry: f64,
}

/// The admission gate of a fair executor: `width` permits, handed out by
/// the DRR scheduler, blocking acquirers per lane.
#[derive(Debug)]
struct FairGate {
    state: Mutex<DrrState>,
    granted: Condvar,
}

impl FairGate {
    fn new() -> Self {
        FairGate {
            state: Mutex::new(DrrState::default()),
            granted: Condvar::new(),
        }
    }

    /// Grants permits to scheduler-picked lanes while capacity remains.
    fn pump(&self, state: &mut DrrState, width: usize) {
        let mut any = false;
        while state.in_flight < width {
            match state.pick() {
                Some(lane) => {
                    state.lanes[lane].grants += 1;
                    state.in_flight += 1;
                    state.max_in_flight = state.max_in_flight.max(state.in_flight);
                    any = true;
                }
                None => break,
            }
        }
        if any {
            self.granted.notify_all();
        }
    }

    fn acquire(&self, lane: usize, width: usize) {
        let mut state = self.state.lock();
        if lane >= state.lanes.len() {
            // Unregistered lanes (defensive): admit without fairness
            // accounting rather than deadlock.
            return;
        }
        state.lanes[lane].pending += 1;
        self.pump(&mut state, width);
        while state.lanes[lane].grants == 0 {
            self.granted.wait(&mut state);
        }
        state.lanes[lane].grants -= 1;
    }

    fn release(&self, lane: usize, width: usize) {
        let mut state = self.state.lock();
        if lane >= state.lanes.len() {
            return;
        }
        state.in_flight -= 1;
        self.pump(&mut state, width);
    }
}

/// Releases the permit even if the gated job panics.
struct Permit<'a> {
    gate: &'a FairGate,
    lane: usize,
    width: usize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.lane, self.width);
    }
}

/// Claim state of one wave, shared by its workers and the consumer.
#[derive(Debug, Default)]
struct WaveState {
    /// Next unclaimed job index.
    next: usize,
    /// Results handed to the consumer so far.
    delivered: usize,
    /// Workers inside the gated stage.
    fetching: usize,
    abort: bool,
}

#[derive(Debug)]
struct Wave {
    state: Mutex<WaveState>,
    changed: Condvar,
    jobs: usize,
    width: usize,
}

impl Wave {
    fn new(jobs: usize, width: usize) -> Self {
        Wave {
            state: Mutex::new(WaveState::default()),
            changed: Condvar::new(),
            jobs,
            width,
        }
    }

    /// Claims the next job together with a slot of the gated stage, waiting
    /// while all `width` slots are taken or the job lies beyond the reorder
    /// window. `None` once the jobs are exhausted or the wave aborted.
    fn claim(&self) -> Option<usize> {
        let mut state = self.state.lock();
        loop {
            if state.abort || state.next >= self.jobs {
                return None;
            }
            if state.fetching < self.width
                && state.next < state.delivered + REORDER_WINDOW * self.width
            {
                state.next += 1;
                state.fetching += 1;
                return Some(state.next - 1);
            }
            self.changed.wait(&mut state);
        }
    }

    fn update(&self, f: impl FnOnce(&mut WaveState)) {
        f(&mut self.state.lock());
        self.changed.notify_all();
    }
}

struct AbortOnPanic<'a>(&'a Wave);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.update(|s| s.abort = true);
        }
    }
}

/// Shared, bounded fan-out executor. Cheap to keep around for the lifetime
/// of a pipeline: it holds no threads while idle, only the configured width
/// and a pair of usage counters (plus, for [fair](Self::fair) executors,
/// the scheduler state).
#[derive(Debug)]
pub struct FanoutExecutor {
    width: usize,
    waves: AtomicU64,
    jobs: AtomicU64,
    gate: Option<FairGate>,
}

impl FanoutExecutor {
    /// An executor that runs at most `width` jobs concurrently. A width of
    /// zero is clamped to one (serial).
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            waves: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            gate: None,
        }
    }

    /// A **fair-share** executor: at most `width` jobs in flight across
    /// *all* concurrent waves and permits, arbitrated between registered
    /// lanes by weighted deficit round-robin. Use [`Self::register_lane`]
    /// (or [`FanoutHandle::shared`]) to obtain lanes.
    pub fn fair(width: usize) -> Self {
        Self {
            width: width.max(1),
            waves: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            gate: Some(FairGate::new()),
        }
    }

    /// Whether this executor fair-shares a global width across lanes.
    pub fn is_fair(&self) -> bool {
        self.gate.is_some()
    }

    /// Maximum number of jobs in flight at once.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of waves (calls to `run_ordered`/`run_staged`/`run_collect`,
    /// on any lane) executed.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// Total jobs executed across all waves.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Registers a scheduler lane with the given weight and returns its
    /// index. On a non-fair executor this is a no-op returning lane 0.
    pub fn register_lane(&self, weight: f64) -> usize {
        match &self.gate {
            Some(gate) => gate.state.lock().register(weight),
            None => 0,
        }
    }

    /// Scheduler counters for every registered lane (empty on a non-fair
    /// executor).
    pub fn lane_snapshots(&self) -> Vec<LaneSnapshot> {
        match &self.gate {
            Some(gate) => {
                let state = gate.state.lock();
                state
                    .lanes
                    .iter()
                    .enumerate()
                    .map(|(lane, l)| l.snapshot(lane))
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Scheduler counters for one lane (`None` on a non-fair executor),
    /// read under the gate lock without cloning its neighbours.
    fn lane_snapshot(&self, lane: usize) -> Option<LaneSnapshot> {
        let state = self.gate.as_ref()?.state.lock();
        state.lanes.get(lane).map(|l| l.snapshot(lane))
    }

    /// High-water mark of concurrently admitted jobs — on a fair executor
    /// this never exceeds [`width`](Self::width), whatever the number of
    /// concurrent waves. Zero on a non-fair executor.
    pub fn max_in_flight(&self) -> usize {
        match &self.gate {
            Some(gate) => gate.state.lock().max_in_flight,
            None => 0,
        }
    }

    fn count_lane(&self, lane: usize, waves: u64, jobs: u64) {
        if let Some(gate) = &self.gate {
            let mut state = gate.state.lock();
            if let Some(l) = state.lanes.get_mut(lane) {
                l.waves += waves;
                l.jobs += jobs;
            }
        }
    }

    /// Runs `f` while holding one admission permit on `lane`. On a
    /// non-fair executor this is exactly `f()`.
    fn with_permit_on<R>(&self, lane: usize, f: impl FnOnce() -> R) -> R {
        match &self.gate {
            Some(gate) => {
                gate.acquire(lane, self.width);
                let _permit = Permit {
                    gate,
                    lane,
                    width: self.width,
                };
                f()
            }
            None => f(),
        }
    }

    /// Run `jobs` concurrently (bounded by `width`), delivering each result
    /// to `consume` strictly in input order. Returns the first error in
    /// input order, from either `work` or `consume`; on error no further
    /// results are delivered.
    pub fn run_ordered<T, R, E>(
        &self,
        jobs: Vec<T>,
        work: impl Fn(usize, T) -> Result<R, E> + Sync,
        consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        self.run_ordered_on(0, jobs, work, consume)
    }

    /// [`run_ordered`](Self::run_ordered), with every job admitted through
    /// the fair gate on `lane` (identical on a non-fair executor).
    pub fn run_ordered_on<T, R, E>(
        &self,
        lane: usize,
        jobs: Vec<T>,
        work: impl Fn(usize, T) -> Result<R, E> + Sync,
        consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        self.run_wave(lane, 0, jobs, work, |_, r| Ok(r), consume)
    }

    /// [`run_ordered_on`](Self::run_ordered_on) with each job split in two:
    /// `fetch` holds a slot (at most `width` in flight, each under the fair
    /// permit of `lane`), `work` runs on the same worker after the slot is
    /// released. Up to `min(width, cores)` extra workers keep the slots
    /// busy while others are inside `work`.
    pub fn run_staged_on<T, S, R, E>(
        &self,
        lane: usize,
        jobs: Vec<T>,
        fetch: impl Fn(usize, T) -> Result<S, E> + Sync,
        work: impl Fn(usize, S) -> Result<R, E> + Sync,
        consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_wave(lane, cores.min(self.width), jobs, fetch, work, consume)
    }

    fn run_wave<T, S, R, E>(
        &self,
        lane: usize,
        extra_workers: usize,
        jobs: Vec<T>,
        fetch: impl Fn(usize, T) -> Result<S, E> + Sync,
        work: impl Fn(usize, S) -> Result<R, E> + Sync,
        mut consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        let n = jobs.len();
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(n as u64, Ordering::Relaxed);
        self.count_lane(lane, 1, n as u64);
        let fetch = |idx: usize, job: T| self.with_permit_on(lane, || fetch(idx, job));

        // Serial fast path: nothing to overlap, so skip thread setup and run
        // on the caller's thread. Semantics are identical by construction.
        if self.width == 1 || n <= 1 {
            for (idx, job) in jobs.into_iter().enumerate() {
                consume(idx, work(idx, fetch(idx, job)?)?)?;
            }
            return Ok(());
        }

        let slots: Vec<parking_lot::Mutex<Option<T>>> = jobs
            .into_iter()
            .map(|j| parking_lot::Mutex::new(Some(j)))
            .collect();
        let wave = Wave::new(n, self.width);
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, Result<R, E>)>();
        let workers = (self.width + extra_workers).min(n);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (slots, wave, fetch, work) = (&slots, &wave, &fetch, &work);
                scope.spawn(move || {
                    // A worker that unwinds never sends its claimed index:
                    // without the abort its peers would wait on the window.
                    let _abort_on_panic = AbortOnPanic(wave);
                    while let Some(idx) = wave.claim() {
                        // The claim above is the only writer of this slot,
                        // so the job is always present.
                        let job = slots[idx].lock().take().expect("job claimed twice");
                        let fetched = fetch(idx, job);
                        wave.update(|s| s.fetching -= 1);
                        let result = fetched.and_then(|s| work(idx, s));
                        if result.is_err() {
                            wave.update(|s| s.abort = true);
                        }
                        if tx.send((idx, result)).is_err() {
                            // Consumer bailed; nothing left to report to.
                            return;
                        }
                    }
                });
            }
            drop(tx);

            // Reorder buffer: claimed indices always form a contiguous
            // prefix [0, k), and every claimed index sends exactly one
            // message, so waiting for `expect` either yields it or the
            // channel closes because workers aborted before claiming it.
            let mut parked: BTreeMap<usize, Result<R, E>> = BTreeMap::new();
            let mut expect = 0usize;
            let mut first_err: Option<(usize, E)> = None;
            while expect < n {
                let (idx, result) = match parked.remove(&expect) {
                    Some(r) => (expect, r),
                    None => match rx.recv() {
                        Ok(msg) => msg,
                        // Channel closed: workers aborted before claiming
                        // `expect`. The error that caused the abort is
                        // already parked or recorded.
                        Err(_) => break,
                    },
                };
                if idx != expect {
                    parked.insert(idx, result);
                    continue;
                }
                expect += 1;
                wave.update(|s| s.delivered += 1);
                match result {
                    Ok(value) => {
                        if first_err.is_some() {
                            continue; // discard successes after a failure
                        }
                        if let Err(e) = consume(idx, value) {
                            wave.update(|s| s.abort = true);
                            first_err = Some((idx, e));
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some((idx, e));
                        }
                    }
                }
            }
            // Pick the earliest error in input order: a worker error at a
            // lower index may still be parked if the consumer failed first.
            drop(rx);
            for (idx, result) in parked {
                if let Err(e) = result {
                    match &first_err {
                        Some((at, _)) if *at <= idx => {}
                        _ => first_err = Some((idx, e)),
                    }
                }
            }
            match first_err {
                Some((_, e)) => Err(e),
                None => Ok(()),
            }
        })
    }

    /// Run `jobs` concurrently and collect all results in input order.
    /// Convenience wrapper over [`run_ordered`](Self::run_ordered).
    pub fn run_collect<T, R, E>(
        &self,
        jobs: Vec<T>,
        work: impl Fn(usize, T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        let mut out = Vec::with_capacity(jobs.len());
        self.run_ordered(jobs, work, |_, r| {
            out.push(r);
            Ok(())
        })?;
        Ok(out)
    }
}

/// A lane-scoped handle to a (possibly shared) [`FanoutExecutor`].
///
/// This is what a pipeline holds: the executor plus the lane the pipeline's
/// jobs are billed to. Cloning is cheap (an `Arc` and an index). A
/// single-tenant pipeline uses [`solo`](Self::solo) and behaves exactly as
/// if it held the executor directly; fleet tenants share one fair executor
/// through per-tenant handles obtained with [`shared`](Self::shared).
#[derive(Debug, Clone)]
pub struct FanoutHandle {
    exec: Arc<FanoutExecutor>,
    lane: usize,
}

impl FanoutHandle {
    /// A private, ungated executor of the given width — the single-tenant
    /// configuration.
    pub fn solo(width: usize) -> Self {
        FanoutHandle {
            exec: Arc::new(FanoutExecutor::new(width)),
            lane: 0,
        }
    }

    /// Registers a new lane of the given weight on a shared executor and
    /// returns the handle for it.
    pub fn shared(exec: Arc<FanoutExecutor>, weight: f64) -> Self {
        let lane = exec.register_lane(weight);
        FanoutHandle { exec, lane }
    }

    /// The underlying executor.
    pub fn executor(&self) -> &Arc<FanoutExecutor> {
        &self.exec
    }

    /// This handle's scheduler lane.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The executor's width (global bound when fair).
    pub fn width(&self) -> usize {
        self.exec.width()
    }

    /// Waves run on this lane (executor-wide on a non-fair executor).
    pub fn waves(&self) -> u64 {
        match self.lane_snapshot() {
            Some(snap) => snap.waves,
            None => self.exec.waves(),
        }
    }

    /// Jobs run on this lane (executor-wide on a non-fair executor).
    pub fn jobs(&self) -> u64 {
        match self.lane_snapshot() {
            Some(snap) => snap.jobs,
            None => self.exec.jobs(),
        }
    }

    /// This lane's scheduler counters, if the executor is fair.
    pub fn lane_snapshot(&self) -> Option<LaneSnapshot> {
        self.exec.lane_snapshot(self.lane)
    }

    /// Runs `f` as one fair-scheduled job on this lane: acquires an
    /// admission permit, runs, releases. On a solo handle this is exactly
    /// `f()`. Use for single operations (a commit PUT) that must compete
    /// fairly with waves.
    pub fn with_permit<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.exec.is_fair() {
            self.exec.count_lane(self.lane, 0, 1);
        }
        self.exec.with_permit_on(self.lane, f)
    }

    /// [`FanoutExecutor::run_ordered`] on this handle's lane.
    pub fn run_ordered<T, R, E>(
        &self,
        jobs: Vec<T>,
        work: impl Fn(usize, T) -> Result<R, E> + Sync,
        consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        self.exec.run_ordered_on(self.lane, jobs, work, consume)
    }

    /// [`FanoutExecutor::run_staged_on`] on this handle's lane.
    pub fn run_staged<T, S, R, E>(
        &self,
        jobs: Vec<T>,
        fetch: impl Fn(usize, T) -> Result<S, E> + Sync,
        work: impl Fn(usize, S) -> Result<R, E> + Sync,
        consume: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        self.exec
            .run_staged_on(self.lane, jobs, fetch, work, consume)
    }

    /// [`FanoutExecutor::run_collect`] on this handle's lane.
    pub fn run_collect<T, R, E>(
        &self,
        jobs: Vec<T>,
        work: impl Fn(usize, T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
    {
        let mut out = Vec::with_capacity(jobs.len());
        self.run_ordered(jobs, work, |_, r| {
            out.push(r);
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn collects_in_order_despite_reversed_completion() {
        let exec = FanoutExecutor::new(8);
        // Later jobs finish sooner: delivery must still be 0..n.
        let jobs: Vec<u64> = (0..16).collect();
        let out = exec
            .run_collect(jobs, |idx, v| {
                std::thread::sleep(Duration::from_millis(20u64.saturating_sub(idx as u64)));
                Ok::<u64, ()>(v * 10)
            })
            .unwrap();
        assert_eq!(out, (0..16).map(|v| v * 10).collect::<Vec<u64>>());
        assert_eq!(exec.waves(), 1);
        assert_eq!(exec.jobs(), 16);
    }

    #[test]
    fn consume_sees_strictly_increasing_indices() {
        let exec = FanoutExecutor::new(4);
        let mut seen = Vec::new();
        exec.run_ordered(
            (0..32).collect::<Vec<u32>>(),
            |_, v| Ok::<u32, ()>(v),
            |idx, v| {
                assert_eq!(idx as u32, v);
                seen.push(idx);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..32).collect::<Vec<usize>>());
    }

    #[test]
    fn first_error_in_input_order_wins() {
        let exec = FanoutExecutor::new(8);
        let err = exec
            .run_collect((0..16).collect::<Vec<u32>>(), |idx, v| {
                if idx == 3 || idx == 11 {
                    // Make the later failure land first.
                    if idx == 3 {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                    Err(format!("job {v} failed"))
                } else {
                    Ok(v)
                }
            })
            .unwrap_err();
        assert_eq!(err, "job 3 failed");
    }

    #[test]
    fn error_stops_claiming_new_jobs() {
        let exec = FanoutExecutor::new(2);
        let started = AtomicUsize::new(0);
        let started_ref = &started;
        let result = exec.run_collect((0..1000).collect::<Vec<u32>>(), |idx, _| {
            started_ref.fetch_add(1, Ordering::Relaxed);
            if idx == 0 {
                Err("boom")
            } else {
                std::thread::sleep(Duration::from_millis(1));
                Ok(idx)
            }
        });
        assert_eq!(result.unwrap_err(), "boom");
        // With width 2 and an instant failure at idx 0, almost all of the
        // 1000 jobs must never start. Allow generous slack for scheduling.
        assert!(started.load(Ordering::Relaxed) < 100);
    }

    #[test]
    fn consumer_error_aborts_and_is_returned() {
        let exec = FanoutExecutor::new(4);
        let err = exec
            .run_ordered(
                (0..64).collect::<Vec<u32>>(),
                |_, v| Ok::<u32, &str>(v),
                |idx, _| if idx == 5 { Err("consumer") } else { Ok(()) },
            )
            .unwrap_err();
        assert_eq!(err, "consumer");
    }

    #[test]
    fn width_one_and_singleton_waves_run_inline() {
        let serial = FanoutExecutor::new(1);
        let out = serial
            .run_collect(vec![1, 2, 3], |_, v| Ok::<i32, ()>(v + 1))
            .unwrap();
        assert_eq!(out, vec![2, 3, 4]);

        let wide = FanoutExecutor::new(8);
        let out = wide.run_collect(vec![7], |_, v| Ok::<i32, ()>(v)).unwrap();
        assert_eq!(out, vec![7]);
        assert!(wide
            .run_collect(Vec::new(), |_, v: u8| Ok::<u8, ()>(v))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_width_is_clamped_to_serial() {
        let exec = FanoutExecutor::new(0);
        assert_eq!(exec.width(), 1);
        let out = exec.run_collect(vec![5u8], |_, v| Ok::<u8, ()>(v)).unwrap();
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn borrows_non_static_state() {
        // The whole point of scoped threads: closures may borrow locals.
        let data = [10u64, 20, 30, 40];
        let exec = FanoutExecutor::new(4);
        let out = exec
            .run_collect((0..data.len()).collect::<Vec<usize>>(), |_, i| {
                Ok::<u64, ()>(data[i] * 2)
            })
            .unwrap();
        assert_eq!(out, vec![20, 40, 60, 80]);
    }

    #[test]
    fn stalled_head_of_line_job_stops_claims_at_the_window() {
        // Job 0 blocks until every other job the window admits has
        // started; no job beyond the window may start before job 0 is
        // delivered, or the reorder buffer would be unbounded.
        let width = 4;
        let window = REORDER_WINDOW * width;
        let exec = FanoutExecutor::new(width);
        let (started_tx, started_rx) = crossbeam::channel::unbounded::<usize>();
        let released = AtomicBool::new(false);
        let beyond_window = AtomicUsize::new(0);
        let mut delivered = 0;
        exec.run_ordered(
            (0..window * 8).collect::<Vec<usize>>(),
            |idx, v| {
                if idx == 0 {
                    for _ in 1..window {
                        started_rx.recv().expect("the window's jobs all start");
                    }
                    released.store(true, Ordering::SeqCst);
                } else {
                    if !released.load(Ordering::SeqCst) && idx >= window {
                        beyond_window.fetch_add(1, Ordering::SeqCst);
                    }
                    started_tx.send(idx).expect("receiver outlives the wave");
                }
                Ok::<usize, ()>(v)
            },
            |idx, v| {
                assert_eq!(idx, v);
                delivered += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(delivered, window * 8);
        assert_eq!(beyond_window.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn staged_wave_gates_fetch_but_not_work() {
        // Every fetch slot is taken by a job whose `work` blocks until a
        // job beyond the width has been fetched: that only terminates if
        // a worker inside `work` holds no fetch slot.
        let width = 2;
        let exec = FanoutExecutor::new(width);
        let fetching = AtomicUsize::new(0);
        let max_fetching = AtomicUsize::new(0);
        let (late_tx, late_rx) = crossbeam::channel::unbounded::<()>();
        let mut seen = Vec::new();
        exec.run_staged_on(
            0,
            (0..8).collect::<Vec<usize>>(),
            |idx, v| {
                let now = fetching.fetch_add(1, Ordering::SeqCst) + 1;
                max_fetching.fetch_max(now, Ordering::SeqCst);
                if idx == width {
                    late_tx.send(()).expect("receiver outlives the wave");
                }
                fetching.fetch_sub(1, Ordering::SeqCst);
                Ok::<usize, ()>(v)
            },
            |idx, v| {
                if idx == 0 {
                    late_rx.recv().expect("a later job is fetched meanwhile");
                }
                Ok(v * 10)
            },
            |idx, v| {
                assert_eq!(v, idx * 10);
                seen.push(idx);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<usize>>());
        assert!(max_fetching.load(Ordering::SeqCst) <= width);
        assert_eq!(exec.waves(), 1);
    }

    // ---- deterministic DRR core ------------------------------------

    /// Drains `per_lane` pending jobs through the scheduler, returning the
    /// grant order.
    fn drain(state: &mut DrrState, per_lane: &[usize]) -> Vec<usize> {
        for (lane, &n) in per_lane.iter().enumerate() {
            state.lanes[lane].pending += n;
        }
        let mut order = Vec::new();
        while let Some(lane) = state.pick() {
            order.push(lane);
        }
        order
    }

    #[test]
    fn equal_weights_alternate() {
        let mut state = DrrState::default();
        state.register(1.0);
        state.register(1.0);
        let order = drain(&mut state, &[4, 4]);
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_set_the_service_ratio() {
        let mut state = DrrState::default();
        state.register(3.0);
        state.register(1.0);
        let order = drain(&mut state, &[30, 10]);
        // 3:1 quantum → the steady-state pattern serves lane 0 three
        // times per lane-1 grant, exactly.
        let lane0: usize = order.iter().filter(|&&l| l == 0).count();
        let lane1 = order.len() - lane0;
        assert_eq!((lane0, lane1), (30, 10));
        // Check the ratio holds in every window, not just in total: after
        // any prefix, the counts differ from 3:1 by at most one quantum.
        let mut c0 = 0f64;
        let mut c1 = 0f64;
        for &l in &order {
            if l == 0 {
                c0 += 1.0;
            } else {
                c1 += 1.0;
            }
            if c0 >= 3.0 && c1 >= 1.0 {
                assert!(
                    (c0 / c1.max(1.0) - 3.0).abs() <= 3.0,
                    "ratio drifted: {c0}:{c1}"
                );
            }
        }
    }

    #[test]
    fn fractional_weights_carry_deficit_across_rounds() {
        let mut state = DrrState::default();
        state.register(1.0);
        state.register(0.5);
        let order = drain(&mut state, &[8, 4]);
        // Lane 1 accrues 0.5 credit per visit: it is served on every
        // second rotation, with the fraction carried (not lost) between.
        let lane1: usize = order.iter().filter(|&&l| l == 1).count();
        assert_eq!(lane1, 4);
        // The first lane-1 grant requires two visits (0.5 + 0.5), so at
        // least one preemption must have been recorded for it.
        assert!(state.lanes[1].preemptions >= 1);
    }

    #[test]
    fn starvation_bound_holds_for_light_lanes() {
        // One heavy lane (weight 8) against three light ones: any light
        // lane with queued work is served within one full rotation's
        // worth of other lanes' quanta — ⌈8⌉ + 1 + 1 + slack grants.
        let mut state = DrrState::default();
        state.register(8.0);
        for _ in 0..3 {
            state.register(1.0);
        }
        let order = drain(&mut state, &[100, 10, 10, 10]);
        let bound = 8 + 3 + 1; // sum of the other lanes' quanta, rounded up
        for lane in 1..4 {
            let mut since = 0usize;
            let mut pending = 10usize;
            for &l in &order {
                if pending == 0 {
                    break;
                }
                if l == lane {
                    since = 0;
                    pending -= 1;
                } else {
                    since += 1;
                    assert!(
                        since <= bound,
                        "lane {lane} waited {since} grants (> {bound})"
                    );
                }
            }
        }
    }

    #[test]
    fn idle_lane_forfeits_credit() {
        let mut state = DrrState::default();
        state.register(1.0);
        state.register(1.0);
        // Lane 1 idles while lane 0 drains 10 jobs...
        let solo = drain(&mut state, &[10, 0]);
        assert!(solo.iter().all(|&l| l == 0));
        // ...then wakes with work: its deficit was reset, so it cannot
        // burst ahead of lane 0 beyond its quantum.
        let order = drain(&mut state, &[5, 5]);
        let first_zero = order.iter().position(|&l| l == 0).unwrap();
        assert!(
            first_zero <= 1,
            "lane 0 locked out by stale credit: {order:?}"
        );
    }

    #[test]
    fn deficit_carry_is_observable() {
        let mut state = DrrState::default();
        state.register(0.7);
        state.lanes[0].pending = 1;
        // First visit: 0.7 credit, short of a job → preempt, carry 0.7.
        assert_eq!(state.pick(), Some(0));
        // (pick loops internally until the grant: 0.7 then 1.4 → grant,
        // leaving 0.4 carried.)
        assert!((state.lanes[0].deficit - 0.4).abs() < 1e-9);
        assert_eq!(state.lanes[0].preemptions, 1);
    }

    // ---- the fair gate under real threads ---------------------------

    #[test]
    fn fair_executor_bounds_global_in_flight() {
        let exec = Arc::new(FanoutExecutor::fair(2));
        let a = FanoutHandle::shared(exec.clone(), 1.0);
        let b = FanoutHandle::shared(exec.clone(), 1.0);
        let live = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let run = |handle: FanoutHandle, live: Arc<AtomicUsize>, high: Arc<AtomicUsize>| {
            std::thread::spawn(move || {
                handle
                    .run_collect((0..20).collect::<Vec<u32>>(), |_, v| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        high.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        live.fetch_sub(1, Ordering::SeqCst);
                        Ok::<u32, ()>(v)
                    })
                    .unwrap();
            })
        };
        let t1 = run(a.clone(), live.clone(), high.clone());
        let t2 = run(b.clone(), live.clone(), high.clone());
        t1.join().unwrap();
        t2.join().unwrap();
        // Two concurrent waves of width-2 each would reach 4 in flight on
        // a plain executor; the fair gate holds the fleet to 2.
        assert!(high.load(Ordering::SeqCst) <= 2);
        assert!(exec.max_in_flight() <= 2);
        assert_eq!(a.jobs() + b.jobs(), 40);
        assert_eq!(a.waves(), 1);
        assert_eq!(b.waves(), 1);
    }

    #[test]
    fn flooding_lane_cannot_starve_a_light_one() {
        let exec = Arc::new(FanoutExecutor::fair(2));
        let bulk = FanoutHandle::shared(exec.clone(), 1.0);
        let latency = FanoutHandle::shared(exec.clone(), 1.0);
        let done = Arc::new(AtomicBool::new(false));

        // The bulk tenant floods long waves back to back.
        let flood = {
            let bulk = bulk.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    bulk.run_collect((0..16).collect::<Vec<u32>>(), |_, v| {
                        std::thread::sleep(Duration::from_millis(1));
                        Ok::<u32, ()>(v)
                    })
                    .unwrap();
                }
            })
        };

        // Give the flood a head start, then time single commit-style
        // permits on the light lane.
        std::thread::sleep(Duration::from_millis(20));
        let mut worst = Duration::ZERO;
        for _ in 0..20 {
            let t = std::time::Instant::now();
            latency.with_permit(|| std::thread::sleep(Duration::from_millis(1)));
            worst = worst.max(t.elapsed());
        }
        done.store(true, Ordering::SeqCst);
        flood.join().unwrap();

        // DRR guarantees the light lane a grant within ~one rotation of
        // the bulk lane's quantum: a handful of 1 ms jobs, not the whole
        // flood. Generous bound for slow CI machines.
        assert!(
            worst < Duration::from_millis(250),
            "light lane starved: worst wait {worst:?}"
        );
        let snaps = exec.lane_snapshots();
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].granted > 0 && snaps[1].granted > 0);
    }

    #[test]
    fn solo_handle_is_a_plain_executor() {
        let handle = FanoutHandle::solo(4);
        assert!(!handle.executor().is_fair());
        let out = handle
            .run_collect(vec![1u8, 2, 3], |_, v| Ok::<u8, ()>(v * 2))
            .unwrap();
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(handle.waves(), 1);
        assert_eq!(handle.jobs(), 3);
        assert_eq!(handle.with_permit(|| 42), 42);
        assert!(handle.lane_snapshot().is_none());
    }
}
