//! Outage endurance: the coalescing checkpoint queue and the Healthy →
//! Degraded → Enduring policy state machine.
//!
//! The paper bounds what a cloud outage can pile up with one mechanism:
//! "any attempt to put an element into a full CommitQueue will block"
//! (§6), capacity S. A commit-queue slot is released only by
//! `CommitQueue::ack_front`, after its object is durable, and an
//! uploader takes its next batch only once its last one is durable, so
//! the commit queue *is* the backlog: at most S un-acked updates — and
//! the DBMS's own WAL file is the durable copy, healed into the cloud by
//! Reboot's resync pass (DESIGN.md §11, §15). The pieces here are what
//! an outage needs besides that bound:
//!
//! * [`CkptQueue`] — a bounded checkpoint queue that *coalesces* under
//!   pressure. Checkpoint jobs carry page images and are not bounded by
//!   S, but they are mergeable by construction (the checkpointer
//!   already merges timestamp collisions), so at capacity the newest
//!   queued job absorbs the incoming one.
//! * [`OutagePolicy`] — the pure state machine deciding when the
//!   pipeline is merely degraded or enduring a real outage.
//! * [`Knobs`] — what an outage escalates: on entry to Enduring the
//!   control thread sets them to [`Knobs::outage_maxima`] (B/TB widened
//!   toward S, dumps deferred), and on exit back to
//!   [`Knobs::baseline`]. The outage policy is their only writer.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ginja_cloud::BreakerState;
use parking_lot::{Condvar, Mutex};

use crate::bundle::{self, FileRange};
use crate::config::GinjaConfig;
use crate::names::DbObjectKind;

/// The pipeline knobs an outage escalates. Never includes
/// `safety`/`safety_timeout`: escalation cannot loosen the RPO bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Batch size B: updates per cloud synchronization.
    pub batch: usize,
    /// TB: max age of a partial batch before it is flushed anyway.
    pub batch_timeout: Duration,
    /// Cloud-garbage ratio that triggers a fresh dump: raising it
    /// defers dump uploads.
    pub dump_threshold: f64,
}

impl Knobs {
    /// The knobs as configured: what a healthy pipeline runs with.
    pub(crate) fn baseline(config: &GinjaConfig) -> Self {
        Knobs {
            batch: config.batch,
            batch_timeout: config.batch_timeout,
            dump_threshold: config.dump_threshold,
        }
    }

    /// The knobs while Enduring: B = S and TB = max(TB, TS) (fewer,
    /// fuller PUTs once the cloud answers; S/TS already bound what may
    /// be lost, so this trades latency, not durability) and the dump
    /// threshold raised by 1.5.
    pub(crate) fn outage_maxima(config: &GinjaConfig) -> Self {
        Knobs {
            batch: config.safety,
            batch_timeout: config.safety_timeout.max(config.batch_timeout),
            dump_threshold: config.dump_threshold + 1.5,
        }
    }
}

/// A checkpoint ready to become a DB object.
pub(crate) struct CkptJob {
    pub(crate) ts: u64,
    pub(crate) kind: DbObjectKind,
    pub(crate) entries: Vec<FileRange>,
}

/// Where the pipeline stands relative to a cloud outage — the
/// operator-facing summary of upload pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutageState {
    /// The cloud is reachable and no upload is stuck retrying.
    #[default]
    Healthy,
    /// Pressure detected (breaker not closed, or an upload retrying)
    /// but not yet sustained long enough to call an outage.
    Degraded,
    /// A real outage: pressure has persisted past the configured
    /// threshold. Knobs are escalated — B/TB widened toward S, dumps
    /// deferred.
    Enduring,
}

impl OutageState {
    /// Stable integer encoding (for lock-free publication in an atomic).
    pub(crate) fn as_u64(self) -> u64 {
        match self {
            OutageState::Healthy => 0,
            OutageState::Degraded => 1,
            OutageState::Enduring => 2,
        }
    }

    /// Inverse of [`OutageState::as_u64`]; unknown values read Healthy.
    pub(crate) fn from_u64(v: u64) -> Self {
        match v {
            1 => OutageState::Degraded,
            2 => OutageState::Enduring,
            _ => OutageState::Healthy,
        }
    }
}

/// One observation fed to [`OutagePolicy::tick`].
#[derive(Debug, Clone, Copy)]
pub struct OutageObservation {
    /// Position of the resilience layer's circuit breaker.
    pub breaker: BreakerState,
    /// Uploads of this instance currently retrying: inside the outer
    /// safety loop past their first failed attempt.
    pub stalled_uploads: u64,
}

/// The outage state machine, pure and clock-injected for testability:
/// callers feed observations and a time, transitions come out.
#[derive(Debug)]
pub struct OutagePolicy {
    state: OutageState,
    /// When the current pressure episode began (set on leaving Healthy).
    pressured_since: Option<Instant>,
    /// Sustained-pressure threshold for Degraded → Enduring.
    enduring_after: Duration,
}

impl OutagePolicy {
    /// A policy in the Healthy state.
    pub fn new(enduring_after: Duration) -> Self {
        OutagePolicy {
            state: OutageState::Healthy,
            pressured_since: None,
            enduring_after,
        }
    }

    /// The current state.
    pub fn state(&self) -> OutageState {
        self.state
    }

    /// Advances the machine with one observation at time `now`;
    /// returns the (possibly unchanged) state.
    ///
    /// Pressure is "the breaker is not `Closed`, or an upload is
    /// retrying". A *half-open* breaker is still pressure: the cloud
    /// has not answered a probe yet, and reading it as recovery would
    /// restart the episode at every cooldown, so an outage shorter on
    /// each leg than `enduring_after` could never be called one. The
    /// retry gauge covers instances whose breaker is disabled. A full
    /// commit queue alone is deliberately *not* pressure: a CPU- or
    /// width-bound burst on a healthy cloud fills it too, and treating
    /// every such burst as an outage would thrash the knobs. Pressure is
    /// `Degraded` until it has lasted `enduring_after`, `Enduring`
    /// from then on, and `Healthy` the moment it is gone.
    pub fn tick(&mut self, obs: &OutageObservation, now: Instant) -> OutageState {
        let pressure = obs.breaker != BreakerState::Closed || obs.stalled_uploads > 0;
        self.state = if !pressure {
            self.pressured_since = None;
            OutageState::Healthy
        } else {
            let since = *self.pressured_since.get_or_insert(now);
            if now.duration_since(since) >= self.enduring_after {
                OutageState::Enduring
            } else {
                OutageState::Degraded
            }
        };
        self.state
    }
}

/// What [`CkptQueue::push`] did with the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CkptPush {
    /// Enqueued as its own job.
    Queued,
    /// Absorbed into the newest queued job (the queue was at capacity).
    /// The caller must drop its pending-jobs increment: two logical
    /// checkpoints will complete as one.
    Coalesced,
    /// The queue is closed (shutdown); the job was dropped.
    Closed,
}

/// A bounded checkpoint queue — the replacement for the old unbounded
/// checkpoint channel, whose jobs each carry up to a whole database of
/// page images. At capacity the incoming job is written over the newest
/// queued one ([`bundle::overlay`]: last writer wins per byte, each
/// byte carried once), the timestamp takes the max, and Dump-ness is
/// sticky. Applying the merged job gives the image that applying the
/// two in order would.
pub(crate) struct CkptQueue {
    inner: Mutex<CkptInner>,
    not_empty: Condvar,
    capacity: usize,
}

struct CkptInner {
    items: VecDeque<CkptJob>,
    closed: bool,
}

impl CkptQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        CkptQueue {
            inner: Mutex::new(CkptInner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&self, job: CkptJob) -> CkptPush {
        let mut inner = self.inner.lock();
        if inner.closed {
            return CkptPush::Closed;
        }
        if inner.items.len() >= self.capacity {
            let newest = inner
                .items
                .back_mut()
                .expect("capacity >= 1, so a full queue has a back");
            let older = std::mem::take(&mut newest.entries);
            newest.entries = bundle::overlay(older, job.entries);
            newest.ts = newest.ts.max(job.ts);
            if job.kind == DbObjectKind::Dump {
                newest.kind = DbObjectKind::Dump;
            }
            return CkptPush::Coalesced;
        }
        inner.items.push_back(job);
        self.not_empty.notify_one();
        CkptPush::Queued
    }

    /// Blocking pop: `None` only once closed *and* drained.
    pub(crate) fn pop(&self) -> Option<CkptJob> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.items.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BreakerState::{Closed, HalfOpen, Open};
    use OutageState::{Degraded, Enduring, Healthy};

    const ENDURING_AFTER: Duration = Duration::from_secs(30);

    /// Runs `(seconds, breaker, stalled uploads, expected state)` rows
    /// through a fresh policy; returns how often it entered `Enduring`
    /// (what the control thread counts as `outages`).
    fn run(rows: &[(u64, BreakerState, u64, OutageState)]) -> u64 {
        let mut p = OutagePolicy::new(ENDURING_AFTER);
        let t0 = Instant::now();
        let mut outages = 0;
        for &(secs, breaker, stalled_uploads, want) in rows {
            let prev = p.state();
            let obs = OutageObservation {
                breaker,
                stalled_uploads,
            };
            let got = p.tick(&obs, t0 + Duration::from_secs(secs));
            assert_eq!(got, want, "at t={secs}s, {obs:?}");
            outages += u64::from(got == Enduring && prev != Enduring);
        }
        outages
    }

    #[test]
    fn healthy_stays_healthy_without_pressure() {
        assert_eq!(
            run(&[(0, Closed, 0, Healthy), (3600, Closed, 0, Healthy)]),
            0
        );
    }

    #[test]
    fn breaker_blip_degrades_then_recovers() {
        assert_eq!(run(&[(0, Open, 0, Degraded), (1, Closed, 0, Healthy)]), 0);
    }

    #[test]
    fn sustained_breaker_pressure_becomes_enduring() {
        let outages = run(&[
            (0, Open, 0, Degraded),
            (29, Open, 0, Degraded),
            (30, Open, 0, Enduring),
            (31, Closed, 0, Healthy),
        ]);
        assert_eq!(outages, 1);
    }

    /// A total outage with the default timings (`breaker_cooldown` 5 s <
    /// `enduring_after` 30 s): the breaker half-opens at every cooldown
    /// and the probe fails. Half-open is not recovery — the episode
    /// must run on and reach Enduring.
    #[test]
    fn half_open_probes_do_not_restart_the_episode() {
        let outages = run(&[
            (0, Open, 0, Degraded),
            (5, HalfOpen, 0, Degraded),
            (6, Open, 0, Degraded),
            (11, HalfOpen, 0, Degraded),
            (12, Open, 0, Degraded),
            (29, HalfOpen, 0, Degraded),
            (30, Open, 0, Enduring),
            (35, HalfOpen, 0, Enduring),
            (36, Closed, 0, Healthy),
        ]);
        assert_eq!(outages, 1);
    }

    /// Breaker disabled: uploads stuck retrying are the only signal,
    /// and must be enough.
    #[test]
    fn stalled_uploads_alone_reach_enduring() {
        let outages = run(&[
            (0, Closed, 2, Degraded),
            (29, Closed, 5, Degraded),
            (30, Closed, 5, Enduring),
            // Draining: the last retrying upload still counts.
            (40, Closed, 1, Enduring),
            (41, Closed, 0, Healthy),
        ]);
        assert_eq!(outages, 1);
    }

    /// One PUT that failed once and then succeeded is a blip: Degraded
    /// and back, never an outage — and a later blip starts a fresh
    /// episode rather than inheriting the first one's clock.
    #[test]
    fn a_single_retried_put_is_a_blip_not_an_outage() {
        let outages = run(&[
            (0, Closed, 1, Degraded),
            (1, Closed, 0, Healthy),
            (40, Closed, 1, Degraded),
            (41, Closed, 0, Healthy),
        ]);
        assert_eq!(outages, 0);
    }

    #[test]
    fn state_u64_roundtrip() {
        for s in [Healthy, Degraded, Enduring] {
            assert_eq!(OutageState::from_u64(s.as_u64()), s);
        }
        assert_eq!(OutageState::from_u64(99), Healthy);
    }

    fn ckpt(ts: u64, kind: DbObjectKind, ranges: &[(&str, u64, &[u8])]) -> CkptJob {
        let entries = ranges
            .iter()
            .map(|&(path, offset, data)| FileRange {
                path: path.into(),
                offset,
                data: data.to_vec(),
            })
            .collect();
        CkptJob { ts, kind, entries }
    }

    /// Each written byte of `entries` applied in order, by (path, offset).
    fn image<'a>(
        entries: impl IntoIterator<Item = &'a FileRange>,
    ) -> std::collections::BTreeMap<(String, u64), u8> {
        let mut image = std::collections::BTreeMap::new();
        for e in entries {
            for (i, byte) in e.data.iter().enumerate() {
                image.insert((e.path.clone(), e.offset + i as u64), *byte);
            }
        }
        image
    }

    #[test]
    fn ckpt_queue_coalesces_at_capacity() {
        use DbObjectKind::{Checkpoint, Dump};
        let q = CkptQueue::new(2);
        let jobs = [
            ckpt(1, Checkpoint, &[("a", 0, b"1111")]),
            ckpt(2, Checkpoint, &[("a", 2, b"2222"), ("b", 0, b"22")]),
            ckpt(3, Dump, &[("a", 0, b"333"), ("c", 0, b"3")]),
            ckpt(4, Checkpoint, &[("a", 5, b"44"), ("b", 1, b"44")]),
        ];
        // What applying the last three one after another writes.
        let want = image(jobs[1..].iter().flat_map(|j| &j.entries));

        let pushed: Vec<CkptPush> = jobs.into_iter().map(|job| q.push(job)).collect();
        use CkptPush::{Coalesced, Queued};
        assert_eq!(pushed, [Queued, Queued, Coalesced, Coalesced]);
        assert_eq!(q.len(), 2);

        let first = q.pop().unwrap();
        assert_eq!(first.ts, 1);
        assert_eq!(first.entries.len(), 1);

        // The newest job absorbed both overflow jobs: max ts, sticky
        // Dump, the same image, and no byte carried twice.
        let merged = q.pop().unwrap();
        assert_eq!(merged.ts, 4);
        assert_eq!(merged.kind, Dump);
        let got = image(&merged.entries);
        assert_eq!(got, want);
        let carried: usize = merged.entries.iter().map(|e| e.data.len()).sum();
        assert_eq!(carried, got.len(), "a byte is carried twice");
    }

    #[test]
    fn ckpt_queue_close_drains_then_ends() {
        let q = CkptQueue::new(4);
        q.push(ckpt(1, DbObjectKind::Checkpoint, &[("a", 0, b"1")]));
        q.close();
        assert_eq!(
            q.push(ckpt(2, DbObjectKind::Checkpoint, &[("a", 0, b"2")])),
            CkptPush::Closed
        );
        assert_eq!(q.pop().unwrap().ts, 1);
        assert!(q.pop().is_none());
    }
}
