//! The `CommitQueue` (§6): the bounded queue between the intercepted
//! WAL writes and the upload pipeline, enforcing the Batch and Safety
//! semantics of Algorithm 2.
//!
//! * capacity is **S** — "any attempt to put an element into a full
//!   CommitQueue will block";
//! * the consumer — the idle uploader holding the batch turn — takes up
//!   to **B** elements *without removing them*; they leave only through
//!   `ack_front`, which the `AckLedger` runs once their batch (and every
//!   earlier one) is durable in the cloud;
//! * **TS**: a put also blocks while the oldest unacked element is
//!   older than the safety timeout;
//! * **TB**: a partial batch is released once the batch timeout elapses
//!   since the last take or ack.
//!
//! One `Mutex<State>` and two condvars (`DESIGN.md` §16). `State::seal`
//! is the one sealing rule: `take_batch` acts on it, and `put` consults
//! it to wake the consumer only when the consumer must act. A busy
//! uploader is not waiting in `take_batch`, so nothing seals until one
//! is idle.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::config::IngestConfig;
use crate::stats::{IngestSnapshot, LatencyHisto};

/// One intercepted WAL write queued for upload.
#[derive(Debug, Clone)]
pub struct WalWrite {
    /// WAL segment file path, shared (a refcount bump, not a string
    /// copy) with the [`WriteEvent`](ginja_vfs::WriteEvent) it came from.
    pub file: Arc<str>,
    /// Byte offset of the write.
    pub offset: u64,
    /// The written bytes.
    pub data: Arc<[u8]>,
}

/// Outcome of [`CommitQueue::put`], reporting how long the caller (the
/// DBMS) was blocked — the quantity Figure 5 ultimately measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Time spent blocked on the Safety limit or timeout.
    pub blocked_for: Duration,
}

/// Why `State::seal` released a batch, in precedence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seal {
    Full,
    Adaptive,
    Flush,
    Timeout,
}

/// Everything the queue's one mutex guards.
struct State {
    /// Unacked items, oldest first, with their enqueue time:
    /// `items[..read]` were taken, `items[read..]` are unread.
    items: VecDeque<(Instant, WalWrite)>,
    read: usize,
    /// The TB reference point: the last take or ack. Counting from the
    /// take keeps pipelined uploads from sealing partials back-to-back.
    tb_from: Instant,
    force_flush: bool,
    closed: bool,
    producers_waiting: usize,
    consumer_waiting: bool,
    /// B and TB, fixed at construction.
    batch: usize,
    batch_timeout: Duration,
    adaptive_seal: bool,
    /// Producer waits, and sealed batches by `Seal` trigger.
    parks: u64,
    seals: [u64; 4],
}

impl State {
    fn unread(&self) -> usize {
        self.items.len() - self.read
    }

    /// The sealing rule, stated once. Releases the first `n` unread items
    /// (at most B) on the first trigger that holds, in order: B unread; a
    /// producer waiting on Safety with adaptive sealing on; a forced flush
    /// or close; TB elapsed since `tb_from`. Else returns the TB deadline
    /// to wait for, or `None` once it has passed with nothing unread.
    fn seal(&self, now: Instant) -> Result<(usize, Seal), Option<Instant>> {
        let n = self.unread().min(self.batch);
        let deadline = self.tb_from + self.batch_timeout;
        let why = if n == 0 {
            return Err((now < deadline).then_some(deadline));
        } else if n == self.batch {
            Seal::Full
        } else if self.adaptive_seal && self.producers_waiting > 0 {
            Seal::Adaptive
        } else if self.force_flush || self.closed {
            Seal::Flush
        } else if now >= deadline {
            Seal::Timeout
        } else {
            return Err(Some(deadline));
        };
        Ok((n, why))
    }
}

/// See the module docs.
///
/// ```rust
/// use std::sync::Arc;
/// use std::time::Duration;
/// use ginja_core::queue::{CommitQueue, WalWrite};
///
/// let q = CommitQueue::new(2, 10, Duration::from_millis(50), Duration::from_secs(5));
/// q.put(WalWrite { file: "seg".into(), offset: 0, data: Arc::from(&b"a"[..]) });
/// q.put(WalWrite { file: "seg".into(), offset: 1, data: Arc::from(&b"b"[..]) });
///
/// let batch = q.take_batch().unwrap(); // B = 2 reached
/// assert_eq!(batch.len(), 2);
/// assert_eq!(q.len(), 2, "taking does not remove");
/// q.ack_front(2); // ...acknowledgment does
/// assert!(q.is_empty());
/// ```
pub struct CommitQueue {
    state: Mutex<State>,
    not_full: Condvar,
    readable: Condvar,
    /// S and TS.
    safety: usize,
    safety_timeout: Duration,
    put_histo: LatencyHisto,
    blocked_histo: LatencyHisto,
}

impl CommitQueue {
    /// Creates a queue with the given B/S/TB/TS and default ingest tuning.
    pub fn new(batch: usize, safety: usize, tb: Duration, ts: Duration) -> Self {
        Self::with_ingest(batch, safety, tb, ts, IngestConfig::default())
    }

    /// Creates a queue with explicit ingest tuning (adaptive sealing).
    pub fn with_ingest(
        batch: usize,
        safety: usize,
        batch_timeout: Duration,
        safety_timeout: Duration,
        ingest: IngestConfig,
    ) -> Self {
        assert!(batch >= 1 && safety >= batch, "validated by GinjaConfig");
        CommitQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(safety),
                read: 0,
                tb_from: Instant::now(),
                force_flush: false,
                closed: false,
                producers_waiting: 0,
                consumer_waiting: false,
                batch,
                batch_timeout,
                adaptive_seal: ingest.adaptive_seal,
                parks: 0,
                seals: [0; 4],
            }),
            not_full: Condvar::new(),
            readable: Condvar::new(),
            safety,
            safety_timeout,
            put_histo: LatencyHisto::default(),
            blocked_histo: LatencyHisto::default(),
        }
    }

    /// Enqueues a write, blocking while S items are unacked or the oldest
    /// is older than TS (both clear only when the head is acked). Returns
    /// the time blocked, or `None` if closed (the write goes unprotected).
    pub fn put(&self, write: WalWrite) -> Option<PutOutcome> {
        let start = Instant::now();
        let mut blocked = false;
        let mut st = self.state.lock();
        let enqueued = loop {
            let now = Instant::now();
            if st.closed {
                return None;
            }
            let head_expired = st.items.front().is_some_and(|(enqueued, _)| {
                now.saturating_duration_since(*enqueued) >= self.safety_timeout
            });
            if st.items.len() < self.safety && !head_expired {
                break now;
            }
            // Blocked: what is pending must flush now.
            blocked = true;
            st.force_flush = true;
            st.producers_waiting += 1;
            st.parks += 1;
            if st.consumer_waiting && st.seal(now).is_ok() {
                self.readable.notify_one();
            }
            self.not_full.wait(&mut st);
            st.producers_waiting -= 1;
        };
        st.items.push_back((enqueued, write));
        // Wake the consumer only when it must act; otherwise it waits
        // for a TB deadline that has not passed yet.
        let wake = st.consumer_waiting && st.seal(enqueued).is_ok();
        drop(st);
        if wake {
            self.readable.notify_one();
        }
        let total = enqueued.saturating_duration_since(start);
        self.put_histo.record(total);
        let blocked_for = if blocked { total } else { Duration::ZERO };
        if blocked {
            self.blocked_histo.record(total);
        }
        Some(PutOutcome { blocked_for })
    }

    /// Takes the next batch *without removing it*, as soon as `State::seal`
    /// releases one. Returns `None` only when closed and fully drained.
    pub fn take_batch(&self) -> Option<Vec<WalWrite>> {
        let mut st = self.state.lock();
        loop {
            let now = Instant::now();
            let deadline = match st.seal(now) {
                Ok((n, why)) => {
                    st.seals[why as usize] += 1;
                    let taken = st.items.range(st.read..).take(n);
                    let batch = taken.map(|(_, w)| w.clone()).collect();
                    st.read += n;
                    st.tb_from = now;
                    // Drained: a forced flush is satisfied.
                    st.force_flush &= st.unread() > 0;
                    return Some(batch);
                }
                Err(_) if st.closed => return None,
                Err(deadline) => deadline,
            };
            st.consumer_waiting = true;
            if let Some(deadline) = deadline {
                self.readable.wait_until(&mut st, deadline);
            } else {
                self.readable.wait(&mut st);
            }
            st.consumer_waiting = false;
        }
    }

    /// Acknowledges the `n` oldest items as durable in the cloud: they
    /// leave the queue and producers unblock (the Unlocker's role in §6).
    pub fn ack_front(&self, n: usize) {
        let mut st = self.state.lock();
        debug_assert!(n <= st.read, "acking unread items");
        let n = n.min(st.read); // misuse under-acks, never drops unread items
        st.read -= n;
        st.tb_from = Instant::now();
        if st.producers_waiting > 0 {
            self.not_full.notify_all();
        }
        let acked: Vec<_> = st.items.drain(..n).collect();
        // Free the payloads after unlocking, off the producers' path.
        drop(st);
        drop(acked);
    }

    /// Requests an immediate flush of any pending items (`Ginja::sync`).
    pub fn force_flush(&self) {
        let mut st = self.state.lock();
        st.force_flush |= st.unread() > 0;
        self.readable.notify_all();
    }

    /// Closes: producers stop enqueuing; `take_batch` drains, then returns `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_full.notify_all();
        self.readable.notify_all();
    }

    /// Number of unacknowledged items.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items not yet taken into a batch.
    pub fn unread(&self) -> usize {
        self.state.lock().unread()
    }

    /// Age of the oldest unacknowledged item, the most exposed update.
    pub fn oldest_pending_age(&self) -> Option<Duration> {
        self.state.lock().items.front().map(|(t, _)| t.elapsed())
    }

    /// The ingest histograms and counters, for `Ginja::stats`.
    pub fn ingest_snapshot(&self) -> IngestSnapshot {
        let st = self.state.lock();
        IngestSnapshot {
            put_latency: self.put_histo.snapshot(),
            blocked_latency: self.blocked_histo.snapshot(),
            put_parks: st.parks,
            adaptive_seals: st.seals[Seal::Adaptive as usize],
            timeout_seals: st.seals[Seal::Timeout as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn write(i: u64) -> WalWrite {
        WalWrite {
            file: "seg".into(),
            offset: i * 10,
            data: Arc::from(&b"x"[..]),
        }
    }

    fn queue(b: usize, s: usize) -> CommitQueue {
        CommitQueue::new(b, s, Duration::from_millis(50), Duration::from_secs(60))
    }

    #[test]
    fn put_take_ack_cycle() {
        let q = queue(2, 10);
        q.put(write(1)).unwrap();
        q.put(write(2)).unwrap();
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(q.len(), 2, "take must not remove items");
        assert_eq!(q.unread(), 0);
        q.ack_front(2);
        assert!(q.is_empty());
    }

    #[test]
    fn batch_size_limited_to_b() {
        let q = queue(3, 100);
        for i in 0..7 {
            q.put(write(i)).unwrap();
        }
        assert_eq!(q.take_batch().unwrap().len(), 3);
        assert_eq!(q.take_batch().unwrap().len(), 3);
        // Remaining 1 item: released by TB timeout.
        let t = Instant::now();
        assert_eq!(q.take_batch().unwrap().len(), 1);
        assert!(
            t.elapsed() >= Duration::from_millis(30),
            "partial batch must wait for TB"
        );
    }

    #[test]
    fn put_blocks_at_safety_until_ack() {
        let q = Arc::new(queue(1, 2));
        q.put(write(1)).unwrap();
        q.put(write(2)).unwrap();

        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.put(write(3)).unwrap());
        std::thread::sleep(Duration::from_millis(80));
        assert!(!handle.is_finished(), "put must block at S=2");

        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1);
        q.ack_front(1);
        let outcome = handle.join().unwrap();
        assert!(outcome.blocked_for >= Duration::from_millis(50));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn safety_timeout_blocks_new_puts() {
        let q = Arc::new(CommitQueue::new(
            10, // B larger than what we enqueue: nothing flushes by count
            100,
            Duration::from_secs(60),
            Duration::from_millis(40), // TS
        ));
        q.put(write(1)).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // TS expired for item 1: the next put must block until ack.
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.put(write(2)).unwrap());
        std::thread::sleep(Duration::from_millis(60));
        assert!(!handle.is_finished(), "put must block on TS expiry");
        // Blocking also force-flushes: the uploader holding the batch
        // turn gets the partial batch.
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1);
        q.ack_front(1);
        handle.join().unwrap();
    }

    #[test]
    fn tb_timeout_releases_partial_batch() {
        let q = CommitQueue::new(
            100,
            1000,
            Duration::from_millis(40),
            Duration::from_secs(60),
        );
        q.put(write(1)).unwrap();
        let t = Instant::now();
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(t.elapsed() >= Duration::from_millis(25));
        assert_eq!(
            q.ingest_snapshot().timeout_seals,
            1,
            "TB expiry is counted as a timeout seal"
        );
    }

    #[test]
    fn force_flush_releases_immediately() {
        let q = Arc::new(CommitQueue::new(
            100,
            1000,
            Duration::from_secs(60),
            Duration::from_secs(60),
        ));
        q.put(write(1)).unwrap();
        q.force_flush();
        let t = Instant::now();
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn close_unblocks_producer_and_drains_consumer() {
        let q = Arc::new(queue(1, 1));
        q.put(write(1)).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.put(write(2)));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(producer.join().unwrap(), None, "closed queue returns None");
        // Consumer drains the remaining item, then sees None.
        assert_eq!(q.take_batch().unwrap().len(), 1);
        q.ack_front(1);
        assert!(q.take_batch().is_none());
    }

    #[test]
    fn take_batch_blocks_until_data() {
        let q = Arc::new(queue(1, 10));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.take_batch());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!consumer.is_finished());
        q.put(write(1)).unwrap();
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn oldest_pending_age_tracks_head() {
        let q = queue(2, 10);
        assert!(q.oldest_pending_age().is_none());
        q.put(write(1)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(q.oldest_pending_age().unwrap() >= Duration::from_millis(15));
        q.put(write(2)).unwrap();
        let _ = q.take_batch().unwrap();
        q.ack_front(2);
        assert!(q.oldest_pending_age().is_none());
    }

    #[test]
    fn items_delivered_in_order_across_batches() {
        let q = queue(2, 100);
        for i in 0..6 {
            q.put(write(i)).unwrap();
        }
        let mut offsets = Vec::new();
        for _ in 0..3 {
            for w in q.take_batch().unwrap() {
                offsets.push(w.offset);
            }
            q.ack_front(2);
        }
        assert_eq!(offsets, vec![0, 10, 20, 30, 40, 50]);
    }

    // ------------------------------------------------------------------
    // Executable spec: the exact `blocked_for` accounting and TB
    // reference-point rules any implementation must reproduce.
    // ------------------------------------------------------------------

    #[test]
    fn spec_blocked_for_is_zero_when_put_does_not_block() {
        let q = queue(2, 10);
        let outcome = q.put(write(1)).unwrap();
        assert!(
            outcome.blocked_for < Duration::from_millis(20),
            "an unblocked put must not report stall time: {:?}",
            outcome.blocked_for
        );
    }

    #[test]
    fn spec_blocked_for_covers_ts_stall() {
        // A put blocked by TS expiry reports (at least) the real stall.
        let q = Arc::new(CommitQueue::new(
            10,
            100,
            Duration::from_secs(60),
            Duration::from_millis(30), // TS
        ));
        q.put(write(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.put(write(2)).unwrap());
        std::thread::sleep(Duration::from_millis(60));
        let batch = q.take_batch().unwrap();
        q.ack_front(batch.len());
        let outcome = handle.join().unwrap();
        assert!(
            outcome.blocked_for >= Duration::from_millis(40),
            "TS stall must be reported: {:?}",
            outcome.blocked_for
        );
    }

    #[test]
    fn spec_tb_reference_resets_on_ack() {
        // The TB clock restarts when a synchronization *ends* (ack), not
        // when the oldest pending item was enqueued.
        let q = CommitQueue::new(
            100,
            1000,
            Duration::from_millis(60),
            Duration::from_secs(60),
        );
        q.put(write(1)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 1); // waited ~TB already
        q.ack_front(1);
        let t = Instant::now();
        q.put(write(2)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 1);
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "second partial batch must wait TB from the ack, not release \
             instantly off the stale first-enqueue reference"
        );
    }

    #[test]
    fn spec_tb_reference_includes_last_take() {
        // Pipelined uploads: a take (sync still in flight) also moves the
        // reference point, so back-to-back partial batches are not
        // stripped off while an upload is outstanding.
        let q = CommitQueue::new(2, 100, Duration::from_millis(60), Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(80)); // age the construction reference out
        q.put(write(1)).unwrap();
        q.put(write(2)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 2); // full batch, immediate
        let t = Instant::now();
        q.put(write(3)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 1);
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "partial batch must wait TB from the last take (no ack yet)"
        );
    }

    #[test]
    fn spec_take_advances_cursor_without_removing() {
        // Taking hands out each item exactly once (a cursor, not a pop):
        // unacked items stay counted, and a later take never re-delivers.
        let q = queue(2, 10);
        q.put(write(1)).unwrap();
        q.put(write(2)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 2);
        assert_eq!(q.len(), 2, "taken items remain until acked");
        assert_eq!(q.unread(), 0);
        assert!(q.oldest_pending_age().is_some(), "head still exposed");
        q.put(write(3)).unwrap();
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1, "no re-delivery of taken items");
        assert_eq!(batch[0].offset, 30);
        q.ack_front(3);
        assert!(q.is_empty());
    }

    // ------------------------------------------------------------------
    // The sealing rule as a table, waits and adaptive sealing.
    // ------------------------------------------------------------------

    /// A state with `items` unacked items, none taken, everything
    /// stamped at `t0`, B = `batch` and TB = 50 ms.
    fn state(t0: Instant, batch: usize, items: u64) -> State {
        State {
            items: (0..items).map(|i| (t0, write(i))).collect(),
            read: 0,
            tb_from: t0,
            force_flush: false,
            closed: false,
            producers_waiting: 0,
            consumer_waiting: false,
            batch,
            batch_timeout: Duration::from_millis(50),
            adaptive_seal: true,
            parks: 0,
            seals: [0; 4],
        }
    }

    #[test]
    fn seal_rule_table() {
        type Expect = Result<(usize, Seal), Option<u64>>;
        type Row = (&'static str, usize, u64, fn(&mut State), u64, Expect);
        let ms = Duration::from_millis;
        // (case, B, items, tweak, now - t0 in ms, expected); a returned
        // deadline is given in milliseconds after t0.
        #[rustfmt::skip]
        let rows: &[Row] = &[
            ("B unread", 3, 3, |_| {}, 1, Ok((3, Seal::Full))),
            ("more than B unread", 3, 7, |_| {}, 1, Ok((3, Seal::Full))),
            ("taken items do not count", 3, 3, |s| s.read = 1, 1, Err(Some(50))),
            ("B full outranks the rest", 2, 2,
                |s| (s.producers_waiting, s.force_flush, s.closed) = (1, true, true),
                60, Ok((2, Seal::Full))),
            ("adaptive: producer waiting", 3, 2, |s| s.producers_waiting = 1, 1,
                Ok((2, Seal::Adaptive))),
            ("adaptive off: wait for TB", 3, 2,
                |s| (s.producers_waiting, s.adaptive_seal) = (1, false), 1, Err(Some(50))),
            ("adaptive outranks flush", 3, 2,
                |s| (s.producers_waiting, s.force_flush) = (1, true), 1,
                Ok((2, Seal::Adaptive))),
            ("forced flush", 3, 2, |s| s.force_flush = true, 1, Ok((2, Seal::Flush))),
            ("closed, partial batch", 3, 2, |s| s.closed = true, 1, Ok((2, Seal::Flush))),
            ("closed, nothing unread", 3, 0, |s| s.closed = true, 60, Err(None)),
            ("TB not expired", 3, 2, |_| {}, 49, Err(Some(50))),
            ("TB expired", 3, 2, |_| {}, 50, Ok((2, Seal::Timeout))),
            ("TB counts from the last take or ack", 3, 2,
                |s| s.tb_from += Duration::from_millis(30), 60, Err(Some(80))),
            ("nothing unread: wait to TB", 3, 0, |_| {}, 1, Err(Some(50))),
            ("nothing unread, TB passed: no deadline", 3, 0, |_| {}, 60, Err(None)),
            ("nothing unread, even forced", 3, 2,
                |s| (s.read, s.force_flush, s.producers_waiting) = (2, true, 1), 60, Err(None)),
        ];
        let t0 = Instant::now();
        for &(case, batch, items, tweak, now, expect) in rows {
            let mut st = state(t0, batch, items);
            tweak(&mut st);
            let expect = expect.map_err(|d| d.map(|d| t0 + ms(d)));
            assert_eq!(st.seal(t0 + ms(now)), expect, "{case}");
        }
    }

    #[test]
    fn blocked_put_parks_until_ack() {
        let q = Arc::new(queue(1, 1));
        q.put(write(1)).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.put(write(2)).unwrap());
        std::thread::sleep(Duration::from_millis(80));
        assert!(!h.is_finished(), "put must wait at S = 1");
        assert!(q.ingest_snapshot().put_parks >= 1, "the blocked put parked");
        assert_eq!(q.take_batch().unwrap().len(), 1);
        q.ack_front(1); // the wakeup
        let outcome = h.join().unwrap();
        assert!(outcome.blocked_for >= Duration::from_millis(50));
        let snap = q.ingest_snapshot();
        assert_eq!(snap.put_latency.count, 2);
        assert_eq!(
            snap.blocked_latency.count, 1,
            "only the stalled put records"
        );
        assert!(snap.blocked_latency.p99 >= Duration::from_millis(32));
    }

    #[test]
    fn adaptive_seal_releases_partial_for_parked_producer() {
        // A partial batch + a producer parked against Safety: the
        // uploader holding the batch turn must seal early (long before
        // TB = 60 s) and count it, whether the producer parks before or
        // during the take.
        let q = Arc::new(CommitQueue::with_ingest(
            3,
            3,
            Duration::from_secs(60),
            Duration::from_secs(60),
            IngestConfig {
                adaptive_seal: true,
            },
        ));
        for i in 0..3 {
            q.put(write(i)).unwrap();
        }
        assert_eq!(q.take_batch().unwrap().len(), 3);
        q.ack_front(1);
        q.put(write(3)).unwrap(); // fits: one credit freed
        let q2 = q.clone();
        let parked = std::thread::spawn(move || q2.put(write(4)).unwrap());
        std::thread::sleep(Duration::from_millis(60));
        let t = Instant::now();
        let batch = q.take_batch().unwrap();
        assert_eq!(batch.len(), 1, "only the new item is unread");
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "partial batch sealed early, not at TB"
        );
        q.ack_front(3);
        parked.join().unwrap();
        assert_eq!(
            q.ingest_snapshot().adaptive_seals,
            1,
            "adaptive sealing must fire for a parked producer"
        );
    }

    #[test]
    fn adaptive_seal_disabled_still_flushes_via_force_flush() {
        // With adaptive sealing off, the blocked producer's force-flush
        // releases the partial batch.
        let q = Arc::new(CommitQueue::with_ingest(
            3,
            3,
            Duration::from_secs(60),
            Duration::from_secs(60),
            IngestConfig {
                adaptive_seal: false,
            },
        ));
        for i in 0..3 {
            q.put(write(i)).unwrap();
        }
        assert_eq!(q.take_batch().unwrap().len(), 3);
        q.ack_front(1);
        q.put(write(3)).unwrap();
        let q2 = q.clone();
        let parked = std::thread::spawn(move || q2.put(write(4)).unwrap());
        std::thread::sleep(Duration::from_millis(60));
        let t = Instant::now();
        assert_eq!(q.take_batch().unwrap().len(), 1);
        assert!(t.elapsed() < Duration::from_secs(5));
        assert_eq!(q.ingest_snapshot().adaptive_seals, 0);
        q.ack_front(3);
        parked.join().unwrap();
    }

    #[test]
    fn many_producers_deliver_every_item_in_fifo_per_producer_order() {
        let q = Arc::new(CommitQueue::new(
            8,
            32,
            Duration::from_millis(5),
            Duration::from_secs(60),
        ));
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 200;
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.put(WalWrite {
                            file: format!("p{p}").into(),
                            offset: i,
                            data: Arc::from(&b"y"[..]),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        let mut delivered: Vec<WalWrite> = Vec::new();
        while (delivered.len() as u64) < PRODUCERS * PER_PRODUCER {
            let batch = q.take_batch().unwrap();
            let n = batch.len();
            delivered.extend(batch);
            q.ack_front(n);
            assert!(q.len() <= 32, "never more than S unacked");
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly once, and in order within each producer.
        let mut next = [0u64; PRODUCERS as usize];
        for w in &delivered {
            let p: usize = w.file[1..].parse().unwrap();
            assert_eq!(w.offset, next[p], "per-producer FIFO violated");
            next[p] += 1;
        }
        assert!(next.iter().all(|&n| n == PER_PRODUCER));
    }

    #[test]
    fn no_loss_configuration_b1_s1() {
        // B = S = 1: every put blocks until the previous one is acked.
        let q = Arc::new(queue(1, 1));
        q.put(write(1)).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            q2.put(write(2)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished());
        assert_eq!(q.take_batch().unwrap().len(), 1);
        q.ack_front(1);
        h.join().unwrap();
    }
}
