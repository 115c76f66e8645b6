//! A bounded fan-out executor for the seal/PUT/GET hot paths.
//!
//! The uploader pool in `upload.rs` already established the discipline this
//! module generalises: a fixed number of worker threads drain a queue of
//! independent jobs while a single consumer restores order. `FanoutExecutor`
//! packages that shape so the checkpointer, recovery, reboot resync, the
//! archiver and the standby can all share it instead of each growing a
//! private thread pool.
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
//! (the GET — at most `width` in flight) followed by an ungated `work`
//! (MAC, decrypt, decompress) on the same worker, with a few extra
//! workers so that a long decode never keeps a GET slot idle.
//!
//! Workers are spawned per wave with `std::thread::scope`, so job closures
//! may borrow non-`'static` state (`&dyn ObjectStore`, `&Codec`, local
//! buffers). A wave with one job — or an executor of width 1 — runs inline
//! on the caller's thread with zero spawns, keeping the serial path exactly
//! as cheap as it was before this module existed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

/// Workers claim no job at or beyond `delivered + REORDER_WINDOW × width`:
/// the reorder buffer of a wave holds fewer results than that.
pub const REORDER_WINDOW: usize = 4;

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
/// and a pair of usage counters.
#[derive(Debug)]
pub struct FanoutExecutor {
    width: usize,
    waves: AtomicU64,
    jobs: AtomicU64,
}

impl FanoutExecutor {
    /// An executor that runs at most `width` jobs concurrently. A width of
    /// zero is clamped to one (serial).
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            waves: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    /// Maximum number of jobs in flight at once.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of waves (calls to `run_ordered`/`run_staged`/`run_collect`)
    /// executed.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// Total jobs executed across all waves.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
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
        self.run_wave(0, jobs, work, |_, r| Ok(r), consume)
    }

    /// [`run_ordered`](Self::run_ordered) with each job split in two:
    /// `fetch` holds a slot (at most `width` in flight), `work` runs on
    /// the same worker after the slot is released. Up to
    /// `min(width, cores)` extra workers keep the slots busy while others
    /// are inside `work`.
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
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_wave(cores.min(self.width), jobs, fetch, work, consume)
    }

    fn run_wave<T, S, R, E>(
        &self,
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
        exec.run_staged(
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
}
