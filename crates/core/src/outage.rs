//! Outage endurance: the bounded upload ring, the coalescing checkpoint
//! queue, the spill-record codec, and the Healthy → Degraded → Enduring
//! → Shedding policy state machine.
//!
//! The paper's safety argument ("lose at most S acked updates") quietly
//! assumes the cloud returns before local state overwhelms the host.
//! Before this module, every pipeline stage rode an unbounded channel:
//! a multi-hour outage grew RAM without bound — checkpoint jobs are the
//! worst offenders, each carrying whole-database dumps — until the OOM
//! killer delivered a worse disaster than the one being insured
//! against. The pieces here bound every stage:
//!
//! * [`UploadRing`] — a bounded in-memory ring between the aggregator
//!   and the uploaders. When full, the aggregator spills overflow jobs
//!   to a durable [`ginja_vfs::SpillQueue`] instead of blocking or
//!   growing.
//! * [`CkptQueue`] — a bounded checkpoint queue that *coalesces* under
//!   pressure: checkpoint jobs are mergeable by construction (the
//!   checkpointer already merges timestamp collisions), so at capacity
//!   the newest queued job absorbs the incoming one.
//! * [`OutagePolicy`] — the pure state machine deciding when the
//!   pipeline is merely degraded, enduring a real outage (escalated
//!   knobs: B/TB widened toward S, dumps and scrub paused), or — at the
//!   configured spill ceiling — shedding, surfaced loudly through
//!   `Exposure::fatal`.
//!
//! Spilled-but-unuploaded WAL never leaves the commit queue (the DBMS
//! is never acked for it), so the at-most-S contract is untouched; the
//! spill merely moves the *waiting room* from RAM to disk.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::bundle::FileRange;
use crate::names::{DbObjectKind, WalObjectName};

/// An upload job for one WAL object.
pub(crate) struct UploadJob {
    pub(crate) batch_id: u64,
    pub(crate) name: WalObjectName,
    pub(crate) raw: Vec<u8>,
}

/// A checkpoint ready to become a DB object.
pub(crate) struct CkptJob {
    pub(crate) ts: u64,
    pub(crate) kind: DbObjectKind,
    pub(crate) entries: Vec<FileRange>,
}

/// Where the pipeline stands relative to a cloud outage — the
/// operator-facing summary of backlog pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutageState {
    /// The cloud is reachable and nothing has spilled.
    #[default]
    Healthy,
    /// Pressure detected (breaker open or a spill backlog exists) but
    /// not yet long or deep enough to call an outage.
    Degraded,
    /// A real outage: backlog has reached disk, or pressure has
    /// persisted past the configured threshold. Knobs are escalated —
    /// B/TB widened toward S, dumps deferred, sentinel scrub paused.
    Enduring,
    /// The spill backlog reached the configured disk ceiling. Incoming
    /// batches now block behind the ring (the DBMS saturates at the
    /// Safety limit), and the condition is surfaced through
    /// `Exposure::fatal` — loud, never silent.
    Shedding,
}

impl OutageState {
    /// Stable integer encoding (for lock-free publication in an atomic).
    pub(crate) fn as_u64(self) -> u64 {
        match self {
            OutageState::Healthy => 0,
            OutageState::Degraded => 1,
            OutageState::Enduring => 2,
            OutageState::Shedding => 3,
        }
    }

    /// Inverse of [`OutageState::as_u64`]; unknown values read Healthy.
    pub(crate) fn from_u64(v: u64) -> Self {
        match v {
            1 => OutageState::Degraded,
            2 => OutageState::Enduring,
            3 => OutageState::Shedding,
            _ => OutageState::Healthy,
        }
    }
}

/// One observation fed to [`OutagePolicy::tick`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OutageObservation {
    /// Whether the resilience layer's circuit breaker is open.
    pub breaker_open: bool,
    /// Live records in the spill queue.
    pub spill_records: u64,
    /// Live payload bytes in the spill queue.
    pub spill_bytes: u64,
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
    /// Spill-bytes ceiling for Enduring → Shedding.
    spill_ceiling: u64,
}

impl OutagePolicy {
    /// A policy in the Healthy state.
    pub fn new(enduring_after: Duration, spill_ceiling: u64) -> Self {
        OutagePolicy {
            state: OutageState::Healthy,
            pressured_since: None,
            enduring_after,
            spill_ceiling,
        }
    }

    /// The current state.
    pub fn state(&self) -> OutageState {
        self.state
    }

    /// Advances the machine with one observation at time `now`;
    /// returns the (possibly unchanged) state.
    ///
    /// Pressure is `breaker_open || spill_records > 0`. A full ring
    /// alone is deliberately *not* pressure: a healthy burst can fill
    /// the ring momentarily, and when it does the aggregator spills
    /// immediately, so any sustained condition shows up as spill
    /// records within one batch. Spill with a *closed* breaker is only
    /// Degraded at first — a CPU- or width-bound burst on a healthy
    /// cloud overflows the ring too, and treating every such burst as
    /// an outage would thrash the knobs (and the outage counters) on
    /// busy fleets. It escalates to Enduring when the breaker opens as
    /// well, or when the pressure simply persists past
    /// `enduring_after`.
    pub fn tick(&mut self, obs: &OutageObservation, now: Instant) -> OutageState {
        let pressure = obs.breaker_open || obs.spill_records > 0;
        let outage = obs.breaker_open && obs.spill_records > 0;
        self.state = match self.state {
            OutageState::Healthy => {
                if pressure {
                    self.pressured_since = Some(now);
                    // Backlog on disk with the cloud failing: an
                    // outage, not a blip — skip straight past Degraded.
                    if obs.spill_bytes >= self.spill_ceiling {
                        OutageState::Shedding
                    } else if outage {
                        OutageState::Enduring
                    } else {
                        OutageState::Degraded
                    }
                } else {
                    OutageState::Healthy
                }
            }
            OutageState::Degraded => {
                if !pressure {
                    self.pressured_since = None;
                    OutageState::Healthy
                } else if obs.spill_bytes >= self.spill_ceiling {
                    OutageState::Shedding
                } else if outage
                    || self
                        .pressured_since
                        .is_some_and(|since| now.duration_since(since) >= self.enduring_after)
                {
                    OutageState::Enduring
                } else {
                    OutageState::Degraded
                }
            }
            OutageState::Enduring => {
                if obs.spill_records == 0 && !obs.breaker_open {
                    // Catch-up finished and the cloud answers again.
                    self.pressured_since = None;
                    OutageState::Healthy
                } else if obs.spill_bytes >= self.spill_ceiling {
                    OutageState::Shedding
                } else {
                    OutageState::Enduring
                }
            }
            OutageState::Shedding => {
                if obs.spill_bytes < self.spill_ceiling {
                    if obs.spill_records == 0 && !obs.breaker_open {
                        self.pressured_since = None;
                        OutageState::Healthy
                    } else {
                        OutageState::Enduring
                    }
                } else {
                    OutageState::Shedding
                }
            }
        };
        self.state
    }
}

struct RingInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// What [`UploadRing::pop`] came back with.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Popped<T, W> {
    /// The oldest item of the ring.
    Item(T),
    /// The caller's claim on work outside the ring.
    Elsewhere(W),
    /// The ring is closed and drained.
    Closed,
}

/// A bounded MPMC ring between the aggregator and the uploader pool —
/// the replacement for the old unbounded upload channel. Capacity is in
/// items; a parallel byte gauge tracks payload RAM for observability.
pub(crate) struct UploadRing<T> {
    inner: Mutex<RingInner<T>>,
    /// Signalled when an item is pushed or the ring closes.
    not_empty: Condvar,
    /// Signalled when an item is popped or the ring closes.
    not_full: Condvar,
    capacity: usize,
    bytes: AtomicU64,
}

impl<T> UploadRing<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        UploadRing {
            inner: Mutex::new(RingInner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            bytes: AtomicU64::new(0),
        }
    }

    /// Non-blocking push; hands the item back when the ring is full so
    /// the caller can spill it instead. `Err` with the item also means
    /// closed (the caller is draining down anyway).
    pub(crate) fn try_push(&self, item: T, bytes: usize) -> Result<(), T> {
        let mut inner = self.inner.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits for space. Returns `false` when the ring
    /// closed before the item could be enqueued (the item is dropped —
    /// only ever on shutdown, when protection has ended).
    pub(crate) fn push(&self, item: T, bytes: usize) -> bool {
        let mut inner = self.inner.lock();
        while !inner.closed && inner.items.len() >= self.capacity {
            self.not_full.wait(&mut inner);
        }
        if inner.closed {
            return false;
        }
        inner.items.push_back(item);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.not_empty.notify_one();
        true
    }

    /// Blocking pop for a consumer with a second source of work.
    /// `elsewhere` claims that other work (the spill backlog) and is
    /// tried first, then the ring; `Closed` comes only once the ring is
    /// closed *and* drained, so shutdown never strands queued work.
    /// `elsewhere` runs under the ring lock, so whoever publishes such
    /// work and then calls [`UploadRing::nudge`] cannot slip between a
    /// consumer's check and its wait.
    pub(crate) fn pop<W>(
        &self,
        bytes_of: impl Fn(&T) -> usize,
        elsewhere: impl Fn() -> Option<W>,
    ) -> Popped<T, W> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(claim) = elsewhere() {
                return Popped::Elsewhere(claim);
            }
            if let Some(item) = inner.items.pop_front() {
                self.bytes
                    .fetch_sub(bytes_of(&item) as u64, Ordering::Relaxed);
                self.not_full.notify_one();
                return Popped::Item(item);
            }
            if inner.closed {
                return Popped::Closed;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Wakes one waiting consumer to re-run its `elsewhere` check.
    pub(crate) fn nudge(&self) {
        let _inner = self.inner.lock();
        self.not_empty.notify_one();
    }

    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
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
/// page images. At capacity the incoming job is merged into the newest
/// queued one: entries concatenate (later entries win at apply time,
/// exactly the order the checkpointer's own ts-collision merge uses),
/// the timestamp takes the max, and Dump-ness is sticky. This is the
/// same merge recovery itself performs, just earlier and in RAM.
pub(crate) struct CkptQueue {
    inner: Mutex<RingInner<CkptJob>>,
    not_empty: Condvar,
    capacity: usize,
}

impl CkptQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        CkptQueue {
            inner: Mutex::new(RingInner {
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
            newest.entries.extend(job.entries);
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

/// Serializes an [`UploadJob`] into a spill-queue payload. The payload
/// rides inside a `SpillQueue` record, which already carries a length
/// and checksum; this layer only needs an unambiguous field layout.
pub(crate) fn encode_spill_record(job: &UploadJob) -> Vec<u8> {
    let file = job.name.file.as_bytes();
    let mut out = Vec::with_capacity(32 + file.len() + job.raw.len());
    out.extend_from_slice(&job.batch_id.to_le_bytes());
    out.extend_from_slice(&job.name.ts.to_le_bytes());
    out.extend_from_slice(&job.name.offset.to_le_bytes());
    out.extend_from_slice(&(file.len() as u32).to_le_bytes());
    out.extend_from_slice(file);
    out.extend_from_slice(&job.raw);
    out
}

/// Inverse of [`encode_spill_record`]. `None` on a malformed payload —
/// possible only through external tampering, since the spill queue's
/// checksum already rejects torn records.
pub(crate) fn decode_spill_record(payload: &[u8]) -> Option<UploadJob> {
    if payload.len() < 28 {
        return None;
    }
    let batch_id = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let ts = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let offset = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let file_len = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
    let raw_start = 28usize.checked_add(file_len)?;
    if payload.len() < raw_start {
        return None;
    }
    let file = String::from_utf8(payload[28..raw_start].to_vec()).ok()?;
    let raw = payload[raw_start..].to_vec();
    let len = raw.len() as u64;
    Some(UploadJob {
        batch_id,
        name: WalObjectName {
            ts,
            file,
            offset,
            len,
        },
        raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consumer with no second source of work.
    fn ring_only() -> Option<()> {
        None
    }

    fn obs(breaker_open: bool, spill_records: u64, spill_bytes: u64) -> OutageObservation {
        OutageObservation {
            breaker_open,
            spill_records,
            spill_bytes,
        }
    }

    #[test]
    fn healthy_stays_healthy_without_pressure() {
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        assert_eq!(p.tick(&obs(false, 0, 0), t0), OutageState::Healthy);
        assert_eq!(
            p.tick(&obs(false, 0, 0), t0 + Duration::from_secs(3600)),
            OutageState::Healthy
        );
    }

    #[test]
    fn breaker_blip_degrades_then_recovers() {
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        assert_eq!(p.tick(&obs(true, 0, 0), t0), OutageState::Degraded);
        assert_eq!(
            p.tick(&obs(false, 0, 0), t0 + Duration::from_secs(1)),
            OutageState::Healthy
        );
    }

    #[test]
    fn sustained_breaker_pressure_becomes_enduring() {
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        p.tick(&obs(true, 0, 0), t0);
        assert_eq!(
            p.tick(&obs(true, 0, 0), t0 + Duration::from_secs(29)),
            OutageState::Degraded
        );
        assert_eq!(
            p.tick(&obs(true, 0, 0), t0 + Duration::from_secs(30)),
            OutageState::Enduring
        );
    }

    #[test]
    fn spill_under_open_breaker_escalates_immediately() {
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        p.tick(&obs(true, 0, 0), t0);
        assert_eq!(
            p.tick(&obs(true, 3, 300), t0 + Duration::from_millis(1)),
            OutageState::Enduring
        );
        // Straight from Healthy too: breaker open with backlog on disk
        // on the very first tick.
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        assert_eq!(p.tick(&obs(true, 1, 10), t0), OutageState::Enduring);
    }

    #[test]
    fn healthy_cloud_burst_spill_is_only_degraded_until_sustained() {
        // Ring overflow on a *healthy* cloud (closed breaker) is a
        // burst, not an outage: Degraded, and back to Healthy the
        // moment catch-up empties the spill...
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        assert_eq!(p.tick(&obs(false, 4, 400), t0), OutageState::Degraded);
        assert_eq!(
            p.tick(&obs(false, 0, 0), t0 + Duration::from_secs(1)),
            OutageState::Healthy
        );
        // ...but sustained past `enduring_after`, it is endurance even
        // with the breaker closed (the cloud answers, too slowly).
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        p.tick(&obs(false, 4, 400), t0);
        assert_eq!(
            p.tick(&obs(false, 4, 400), t0 + Duration::from_secs(29)),
            OutageState::Degraded
        );
        assert_eq!(
            p.tick(&obs(false, 4, 400), t0 + Duration::from_secs(30)),
            OutageState::Enduring
        );
    }

    #[test]
    fn ceiling_sheds_and_draining_unsheds() {
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1000);
        let t0 = Instant::now();
        p.tick(&obs(true, 5, 500), t0);
        assert_eq!(p.state(), OutageState::Enduring);
        assert_eq!(
            p.tick(&obs(true, 10, 1000), t0 + Duration::from_secs(1)),
            OutageState::Shedding
        );
        // Catch-up drains below the ceiling: back to Enduring...
        assert_eq!(
            p.tick(&obs(false, 4, 400), t0 + Duration::from_secs(2)),
            OutageState::Enduring
        );
        // ...and fully drained with a closed breaker: Healthy.
        assert_eq!(
            p.tick(&obs(false, 0, 0), t0 + Duration::from_secs(3)),
            OutageState::Healthy
        );
    }

    #[test]
    fn enduring_holds_while_spill_drains_breaker_closed() {
        // Cloud is back (breaker closed) but the spill still has
        // records: stay Enduring until catch-up finishes.
        let mut p = OutagePolicy::new(Duration::from_secs(30), 1 << 30);
        let t0 = Instant::now();
        p.tick(&obs(true, 8, 800), t0);
        assert_eq!(p.state(), OutageState::Enduring);
        assert_eq!(
            p.tick(&obs(false, 2, 200), t0 + Duration::from_secs(1)),
            OutageState::Enduring
        );
        assert_eq!(
            p.tick(&obs(false, 0, 0), t0 + Duration::from_secs(2)),
            OutageState::Healthy
        );
    }

    #[test]
    fn state_u64_roundtrip() {
        for s in [
            OutageState::Healthy,
            OutageState::Degraded,
            OutageState::Enduring,
            OutageState::Shedding,
        ] {
            assert_eq!(OutageState::from_u64(s.as_u64()), s);
        }
        assert_eq!(OutageState::from_u64(99), OutageState::Healthy);
    }

    #[test]
    fn ring_try_push_hands_back_on_full() {
        let ring: UploadRing<u32> = UploadRing::new(2);
        assert!(ring.try_push(1, 10).is_ok());
        assert!(ring.try_push(2, 20).is_ok());
        assert_eq!(ring.try_push(3, 30), Err(3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.bytes(), 30);
        assert_eq!(ring.pop(|_| 10, ring_only), Popped::Item(1));
        assert_eq!(ring.bytes(), 20);
        assert!(ring.try_push(3, 30).is_ok());
    }

    #[test]
    fn ring_blocking_push_waits_for_space() {
        let ring: std::sync::Arc<UploadRing<u32>> = std::sync::Arc::new(UploadRing::new(1));
        assert!(ring.push(1, 0));
        let r = ring.clone();
        let pusher = std::thread::spawn(move || r.push(2, 0));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "push must block on a full ring");
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Item(1));
        assert!(pusher.join().unwrap());
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Item(2));
    }

    #[test]
    fn ring_close_drains_then_ends() {
        let ring: UploadRing<u32> = UploadRing::new(4);
        ring.try_push(1, 0).unwrap();
        ring.try_push(2, 0).unwrap();
        ring.close();
        assert!(!ring.push(3, 0), "push after close is refused");
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Item(1));
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Item(2));
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Closed);
    }

    #[test]
    fn ring_pop_prefers_work_elsewhere_and_a_nudge_wakes_a_waiter() {
        let ring: std::sync::Arc<UploadRing<u32>> = std::sync::Arc::new(UploadRing::new(2));
        ring.try_push(1, 0).unwrap();
        assert_eq!(
            ring.pop(|_| 0, || Some("spill")),
            Popped::Elsewhere("spill")
        );
        assert_eq!(ring.pop(|_| 0, ring_only), Popped::Item(1));

        // A consumer asleep on the empty ring: work published elsewhere
        // plus a nudge brings it back with the claim.
        let published = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (r, flag) = (ring.clone(), published.clone());
        let consumer =
            std::thread::spawn(move || r.pop(|_| 0, || flag.load(Ordering::SeqCst).then_some(7u8)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "pop must wait on an empty ring");
        published.store(true, Ordering::SeqCst);
        ring.nudge();
        assert_eq!(consumer.join().unwrap(), Popped::Elsewhere(7));
    }

    fn ckpt(ts: u64, kind: DbObjectKind, tag: u8) -> CkptJob {
        CkptJob {
            ts,
            kind,
            entries: vec![FileRange {
                path: format!("file-{tag}"),
                offset: 0,
                data: vec![tag],
            }],
        }
    }

    #[test]
    fn ckpt_queue_coalesces_at_capacity() {
        let q = CkptQueue::new(2);
        assert_eq!(
            q.push(ckpt(1, DbObjectKind::Checkpoint, 1)),
            CkptPush::Queued
        );
        assert_eq!(
            q.push(ckpt(2, DbObjectKind::Checkpoint, 2)),
            CkptPush::Queued
        );
        assert_eq!(q.push(ckpt(3, DbObjectKind::Dump, 3)), CkptPush::Coalesced);
        assert_eq!(
            q.push(ckpt(4, DbObjectKind::Checkpoint, 4)),
            CkptPush::Coalesced
        );
        assert_eq!(q.len(), 2);

        let first = q.pop().unwrap();
        assert_eq!(first.ts, 1);
        assert_eq!(first.entries.len(), 1);

        // The newest job absorbed both overflow jobs: max ts, sticky
        // Dump, entries in arrival order (later wins at apply time).
        let merged = q.pop().unwrap();
        assert_eq!(merged.ts, 4);
        assert_eq!(merged.kind, DbObjectKind::Dump);
        let tags: Vec<u8> = merged.entries.iter().map(|e| e.data[0]).collect();
        assert_eq!(tags, [2, 3, 4]);
    }

    #[test]
    fn ckpt_queue_close_drains_then_ends() {
        let q = CkptQueue::new(4);
        q.push(ckpt(1, DbObjectKind::Checkpoint, 1));
        q.close();
        assert_eq!(
            q.push(ckpt(2, DbObjectKind::Checkpoint, 2)),
            CkptPush::Closed
        );
        assert_eq!(q.pop().unwrap().ts, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn spill_record_roundtrip() {
        let job = UploadJob {
            batch_id: 42,
            name: WalObjectName {
                ts: 7,
                file: "pg_xlog/000000000000000A".into(),
                offset: 8192,
                len: 5,
            },
            raw: b"hello".to_vec(),
        };
        let decoded = decode_spill_record(&encode_spill_record(&job)).unwrap();
        assert_eq!(decoded.batch_id, 42);
        assert_eq!(decoded.name, job.name);
        assert_eq!(decoded.raw, b"hello");
    }

    #[test]
    fn spill_record_rejects_malformed() {
        assert!(decode_spill_record(b"short").is_none());
        let job = UploadJob {
            batch_id: 1,
            name: WalObjectName {
                ts: 1,
                file: "f".into(),
                offset: 0,
                len: 0,
            },
            raw: Vec::new(),
        };
        let mut bytes = encode_spill_record(&job);
        // Claim a file length past the end of the payload.
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_spill_record(&bytes).is_none());
    }

    #[test]
    fn spill_record_empty_raw_roundtrip() {
        let job = UploadJob {
            batch_id: 0,
            name: WalObjectName {
                ts: 1,
                file: "wal".into(),
                offset: 100,
                len: 0,
            },
            raw: Vec::new(),
        };
        let decoded = decode_spill_record(&encode_spill_record(&job)).unwrap();
        assert_eq!(decoded.name.offset, 100);
        assert!(decoded.raw.is_empty());
    }
}
