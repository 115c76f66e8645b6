//! The `CommitQueue` (§6): the bounded queue between the intercepted
//! WAL writes and the upload pipeline, enforcing the Batch and Safety
//! semantics of Algorithm 2.
//!
//! * capacity is **S** — "any attempt to put an element into a full
//!   CommitQueue will block";
//! * the aggregator takes up to **B** elements *without removing them* —
//!   elements leave the queue only when the Unlocker learns their batch
//!   (and every earlier batch) is durable in the cloud;
//! * **TS**: a put also blocks when the oldest unconfirmed element has
//!   been waiting longer than the safety timeout;
//! * **TB**: a partial batch is released once the batch timeout elapses
//!   since the last synchronization ended.
//!
//! # Implementation (the PR 9 ingest fast path, `DESIGN.md` §16)
//!
//! The queue is a fixed ring of exactly S slots with three monotonic
//! sequence counters instead of a global mutex:
//!
//! * `tail` — the next ticket; producers claim a sequence number with a
//!   CAS that doubles as the Safety credit check (`tail - acked < S`);
//! * `read_pos` — the aggregator's cursor: items in `[acked, read_pos)`
//!   have been handed out but not yet confirmed durable;
//! * `acked` — the durability watermark the Unlocker publishes; items
//!   leave the queue (and their slots recycle) only here.
//!
//! A producer that cannot get credit spins briefly, then parks on a
//! condvar; `ack_front` issues at most one batched wakeup per
//! acknowledgment — and none at all when nobody is parked — replacing
//! the per-put `notify_all` broadcasts of the old mutex queue. The
//! aggregator may also seal a partial batch early when producers are
//! parked against Safety (adaptive group sealing), trading B for
//! latency without ever touching S.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::config::IngestConfig;
use crate::stats::{IngestSnapshot, LatencyHisto};

/// One intercepted WAL write queued for upload.
#[derive(Debug, Clone)]
pub struct WalWrite {
    /// WAL segment file path. `Arc<str>` so producers hand the queue a
    /// refcount bump, not a per-record string allocation — the path is
    /// shared with the [`WriteEvent`](ginja_vfs::WriteEvent) it came
    /// from and with every clone the aggregator takes.
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

/// One ring slot. The `stamp` carries the Vyukov-style sequence
/// protocol: `seq` = free for the producer holding ticket `seq`,
/// `seq + 1` = published (readable), `seq + S` = recycled for the next
/// lap. The cell itself is only touched by the ticket holder (write),
/// the single consumer (clone, before `read_pos` passes it) and the
/// acker (drop, after `read_pos` passed it).
struct Slot {
    stamp: AtomicU64,
    /// Enqueue time in nanoseconds since the queue's epoch, for the TS
    /// head-age check and `oldest_pending_age`.
    enqueued_nanos: AtomicU64,
    write: UnsafeCell<MaybeUninit<WalWrite>>,
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
    /// Exactly S slots: the ring *is* the Safety bound.
    slots: Box<[Slot]>,
    /// Zero point for every relative timestamp held in atomics.
    epoch: Instant,
    /// Next ticket to hand out; claimed via CAS under the credit check.
    tail: AtomicU64,
    /// The consumer's cursor (next sequence `take_batch` will deliver).
    read_pos: AtomicU64,
    /// The durability watermark: sequences below it have left the queue.
    acked: AtomicU64,
    /// Nanoseconds (since `epoch`) when the last ack landed.
    last_sync_end_nanos: AtomicU64,
    /// Nanoseconds (since `epoch`) of the last take; the TB reference
    /// point is the later of this and `last_sync_end_nanos`, so
    /// pipelined uploads do not cause partial batches to be stripped
    /// off back-to-back.
    last_take_nanos: AtomicU64,
    force_flush: AtomicBool,
    closed: AtomicBool,
    /// B — runtime-adjustable (the cost governor's backpressure hook),
    /// always clamped to `[1, safety]`.
    batch: AtomicUsize,
    /// S — immutable for the queue's lifetime: the RPO bound is never
    /// loosened at runtime, whatever the budget pressure.
    safety: usize,
    /// TB in nanoseconds — runtime-adjustable alongside B.
    batch_timeout_ns: AtomicU64,
    /// TS — immutable, like S.
    safety_timeout: Duration,
    ingest: IngestConfig,
    /// Producers park here when blocked on Safety; the gate carries no
    /// data (the counters above are the state), it only serializes the
    /// park/wake handshake.
    producer_gate: Mutex<()>,
    not_full: Condvar,
    producers_parked: AtomicUsize,
    /// The aggregator parks here waiting for data or a TB deadline.
    consumer_gate: Mutex<()>,
    readable: Condvar,
    consumer_parked: AtomicBool,
    /// Serializes `take_batch` callers (the pipeline has one aggregator,
    /// but the old queue tolerated concurrent takes, so this must too).
    take_gate: Mutex<()>,
    /// Serializes `ack_front` callers (in the pipeline any uploader may
    /// be one; the `AckLedger` decides their order).
    ack_gate: Mutex<()>,
    put_histo: LatencyHisto,
    blocked_histo: LatencyHisto,
    credit_retries: AtomicU64,
    put_spins: AtomicU64,
    put_parks: AtomicU64,
    ack_wakeups: AtomicU64,
    wakeups_suppressed: AtomicU64,
    adaptive_seals: AtomicU64,
    timeout_seals: AtomicU64,
}

// SAFETY: the `UnsafeCell` in each slot is the only non-Sync field. It
// is governed by the stamp protocol documented on `Slot`: the producer
// holding ticket `seq` has exclusive write access until it publishes
// `stamp = seq + 1` (Release); the consumer only reads after observing
// that stamp (Acquire) and before advancing `read_pos`; the acker only
// drops values below `read_pos` (its Acquire load of `read_pos` chains
// to the consumer's Release store, which chains to the producer's
// publication). Slot reuse is safe because a ticket `t` is only handed
// out once `acked > t - S`, i.e. after the previous occupant was
// dropped and its stamp reset.
unsafe impl Sync for CommitQueue {}

impl std::fmt::Debug for CommitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitQueue")
            .field("len", &self.len())
            .field("unread", &self.unread())
            .field("batch", &self.batch())
            .field("safety", &self.safety)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl CommitQueue {
    /// Creates a queue with the given B/S/TB/TS parameters and the
    /// default ingest tuning.
    pub fn new(
        batch: usize,
        safety: usize,
        batch_timeout: Duration,
        safety_timeout: Duration,
    ) -> Self {
        Self::with_ingest(
            batch,
            safety,
            batch_timeout,
            safety_timeout,
            IngestConfig::default(),
        )
    }

    /// Creates a queue with explicit ingest fast-path tuning (producer
    /// spin budget, adaptive partial-batch sealing).
    pub fn with_ingest(
        batch: usize,
        safety: usize,
        batch_timeout: Duration,
        safety_timeout: Duration,
        ingest: IngestConfig,
    ) -> Self {
        assert!(batch >= 1 && safety >= batch, "validated by GinjaConfig");
        let slots: Vec<Slot> = (0..safety)
            .map(|i| Slot {
                stamp: AtomicU64::new(i as u64),
                enqueued_nanos: AtomicU64::new(0),
                write: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        CommitQueue {
            slots: slots.into_boxed_slice(),
            epoch: Instant::now(),
            tail: AtomicU64::new(0),
            read_pos: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            last_sync_end_nanos: AtomicU64::new(0),
            last_take_nanos: AtomicU64::new(0),
            force_flush: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            batch: AtomicUsize::new(batch),
            safety,
            batch_timeout_ns: AtomicU64::new(batch_timeout.as_nanos() as u64),
            safety_timeout,
            ingest,
            producer_gate: Mutex::new(()),
            not_full: Condvar::new(),
            producers_parked: AtomicUsize::new(0),
            consumer_gate: Mutex::new(()),
            readable: Condvar::new(),
            consumer_parked: AtomicBool::new(false),
            take_gate: Mutex::new(()),
            ack_gate: Mutex::new(()),
            put_histo: LatencyHisto::default(),
            blocked_histo: LatencyHisto::default(),
            credit_retries: AtomicU64::new(0),
            put_spins: AtomicU64::new(0),
            put_parks: AtomicU64::new(0),
            ack_wakeups: AtomicU64::new(0),
            wakeups_suppressed: AtomicU64::new(0),
            adaptive_seals: AtomicU64::new(0),
            timeout_seals: AtomicU64::new(0),
        }
    }

    fn cap64(&self) -> u64 {
        self.slots.len() as u64
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The batch size B currently in force.
    pub fn batch(&self) -> usize {
        self.batch.load(Ordering::SeqCst)
    }

    /// The batch timeout TB currently in force.
    pub fn batch_timeout(&self) -> Duration {
        Duration::from_nanos(self.batch_timeout_ns.load(Ordering::SeqCst))
    }

    /// The (immutable) safety bound S.
    pub fn safety(&self) -> usize {
        self.safety
    }

    /// Retunes B at runtime, clamped to `[1, S]`. Returns the value
    /// actually applied. There is deliberately no `set_safety`: S and
    /// TS bound the loss window and cannot be moved on a live queue.
    pub fn set_batch(&self, batch: usize) -> usize {
        let applied = batch.clamp(1, self.safety);
        self.batch.store(applied, Ordering::SeqCst);
        // A smaller B may make already-queued items a full batch.
        self.wake_consumer();
        applied
    }

    /// Retunes TB at runtime. Returns the value actually applied.
    pub fn set_batch_timeout(&self, batch_timeout: Duration) -> Duration {
        self.batch_timeout_ns
            .store(batch_timeout.as_nanos() as u64, Ordering::SeqCst);
        // Wake the aggregator so a sleeping take_batch re-reads TB.
        self.wake_consumer();
        batch_timeout
    }

    /// Wakes a (possibly) parked aggregator. Locking the gate before
    /// notifying pairs with the consumer's park sequence, so a wakeup
    /// can never slip between its recheck and its wait.
    fn wake_consumer(&self) {
        let _gate = self.consumer_gate.lock();
        self.readable.notify_all();
    }

    /// Whether the oldest unconfirmed item has exceeded TS at time
    /// `now` (nanoseconds since `epoch` — callers on the put fast path
    /// pass their entry timestamp instead of reading the clock again;
    /// the nanoseconds of staleness only make the check conservative).
    /// `acked` is the caller's current head view; transient races (the
    /// head being acked or still unpublished while we look) only yield
    /// a conservative answer that the caller's retry loop corrects.
    fn head_expired(&self, acked: u64, tail: u64, now: u64) -> bool {
        if acked >= tail {
            return false;
        }
        let slot = &self.slots[(acked % self.cap64()) as usize];
        if slot.stamp.load(Ordering::Acquire) != acked + 1 {
            // Head ticket claimed but not yet published: age ~0.
            return false;
        }
        let enqueued = slot.enqueued_nanos.load(Ordering::Relaxed);
        now.saturating_sub(enqueued) >= self.safety_timeout.as_nanos() as u64
    }

    /// Claims the next ticket, enforcing S and TS. Returns the sequence
    /// number and whether the caller was ever blocked; `None` when the
    /// queue is closed.
    fn acquire_seq(&self, start_nanos: u64) -> Option<(u64, bool)> {
        let mut blocked = false;
        let mut spins_left = self.ingest.spin;
        let mut spin_counted = false;
        // On the fast path the caller's entry timestamp serves as "now"
        // for the TS check — one less clock read per put. Every retry
        // iteration refreshes it below.
        let mut now = start_nanos;
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            // Credit check: load `acked` first. `acked` is monotonic, so
            // a successful CAS on `tail` guarantees
            // `tail - acked_real <= tail - acked_loaded < S` — the ring
            // can never over-admit, whatever interleaving occurs.
            let acked = self.acked.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Relaxed);
            if tail.wrapping_sub(acked) < self.cap64() && !self.head_expired(acked, tail, now) {
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some((tail, blocked)),
                    Err(_) => {
                        self.credit_retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            }
            // Blocked: wake the aggregator so pending data flushes, and
            // wait for acknowledgments. Both conditions clear only when
            // the head of the queue is acknowledged.
            if !blocked {
                blocked = true;
                self.force_flush.store(true, Ordering::SeqCst);
                self.wake_consumer();
            }
            if spins_left > 0 {
                if !spin_counted {
                    self.put_spins.fetch_add(1, Ordering::Relaxed);
                    spin_counted = true;
                }
                spins_left -= 1;
                std::hint::spin_loop();
                now = self.now_nanos();
                continue;
            }
            self.park_producer();
            // Matches the old queue's 50 ms cadence: re-assert the flush
            // after each bounded park, in case a concurrent drain
            // cleared the flag while we stayed blocked.
            self.force_flush.store(true, Ordering::SeqCst);
            self.wake_consumer();
            now = self.now_nanos();
        }
    }

    /// Parks the calling producer until an ack (or close) wakes it, with
    /// a bounded wait so a lost race can cost at most 50 ms.
    fn park_producer(&self) {
        self.put_parks.fetch_add(1, Ordering::Relaxed);
        let mut gate = self.producer_gate.lock();
        self.producers_parked.fetch_add(1, Ordering::SeqCst);
        // Dekker handshake with `ack_front`: register as parked, fence,
        // re-check the counters. Either the acker sees our registration
        // (and wakes us), or we see its new watermark (and skip the
        // wait) — a wakeup can never be lost between the two.
        fence(Ordering::SeqCst);
        let acked = self.acked.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        let still_blocked = (tail.wrapping_sub(acked) >= self.cap64()
            || self.head_expired(acked, tail, self.now_nanos()))
            && !self.closed.load(Ordering::SeqCst);
        if still_blocked {
            self.not_full.wait_for(&mut gate, Duration::from_millis(50));
        }
        self.producers_parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Enqueues a write, blocking while the Safety conditions are
    /// violated. Returns how long the caller was blocked, or `None` if
    /// the queue is closed (protection disabled; the write proceeds
    /// unprotected).
    pub fn put(&self, write: WalWrite) -> Option<PutOutcome> {
        let start_nanos = self.now_nanos();
        let (seq, was_blocked) = self.acquire_seq(start_nanos)?;
        let slot = &self.slots[(seq % self.cap64()) as usize];
        debug_assert_eq!(
            slot.stamp.load(Ordering::Acquire),
            seq,
            "credit admitted an occupied slot"
        );
        let now = self.now_nanos();
        slot.enqueued_nanos.store(now, Ordering::Relaxed);
        // SAFETY: the credit CAS made this thread the sole owner of the
        // slot for ticket `seq` (see the `Sync` impl), and nothing reads
        // the cell until the stamp publication below.
        unsafe { (*slot.write.get()).write(write) };
        slot.stamp.store(seq + 1, Ordering::Release);
        // Dekker handshake with a parking aggregator: publish, fence,
        // read the parked flag. Either we see the flag (and wake it), or
        // its own fenced recheck sees our stamp. On the fast path — the
        // aggregator busy, the queue moving — this is a single relaxed
        // load and no lock.
        fence(Ordering::SeqCst);
        if self.consumer_parked.load(Ordering::Relaxed) {
            self.wake_consumer();
        }
        let total = Duration::from_nanos(now.saturating_sub(start_nanos));
        self.put_histo.record(total);
        let blocked_for = if was_blocked { total } else { Duration::ZERO };
        if !blocked_for.is_zero() {
            self.blocked_histo.record(blocked_for);
        }
        Some(PutOutcome { blocked_for })
    }

    /// Number of contiguously published items starting at `from`,
    /// capped at `limit`. Stops at the first unpublished slot, so a
    /// producer mid-publication never creates gaps in FIFO order.
    fn published(&self, from: u64, limit: usize) -> usize {
        let mut n = 0usize;
        while n < limit {
            let seq = from + n as u64;
            let slot = &self.slots[(seq % self.cap64()) as usize];
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                break;
            }
            n += 1;
        }
        n
    }

    /// The TB reference point: the later of the last completed
    /// synchronization and the last take.
    fn tb_reference(&self) -> Instant {
        let nanos = self
            .last_sync_end_nanos
            .load(Ordering::Relaxed)
            .max(self.last_take_nanos.load(Ordering::Relaxed));
        self.epoch + Duration::from_nanos(nanos)
    }

    /// Takes the next batch for upload *without removing it from the
    /// queue*: up to B items, released early on TB expiry, forced flush,
    /// adaptive sealing (producers parked against Safety), or shutdown.
    /// Returns `None` only when closed and fully drained.
    pub fn take_batch(&self) -> Option<Vec<WalWrite>> {
        let _serial = self.take_gate.lock();
        loop {
            let b = self.batch();
            let read = self.read_pos.load(Ordering::Relaxed);
            let avail = self.published(read, b);
            if avail >= b {
                return Some(self.take(read, b));
            }
            let closed = self.closed.load(Ordering::SeqCst);
            if avail > 0 {
                // Adaptive group sealing: a producer is parked against
                // Safety, so every queued item is gating DBMS progress —
                // seal the partial batch now instead of waiting for TB.
                if self.ingest.adaptive_seal && self.producers_parked.load(Ordering::SeqCst) > 0 {
                    self.adaptive_seals.fetch_add(1, Ordering::Relaxed);
                    return Some(self.take(read, avail));
                }
                if self.force_flush.load(Ordering::SeqCst) || closed {
                    return Some(self.take(read, avail));
                }
                // Partial batch: release when TB elapses since the last
                // completed synchronization (or the last batch taken,
                // whichever is later).
                let deadline = self.tb_reference() + self.batch_timeout();
                if Instant::now() >= deadline {
                    self.timeout_seals.fetch_add(1, Ordering::Relaxed);
                    return Some(self.take(read, avail));
                }
                self.park_consumer(read, avail, Some(deadline));
            } else {
                if closed {
                    return None;
                }
                self.park_consumer(read, 0, None);
            }
        }
    }

    /// Parks the aggregator until data arrives, a flush is forced, a
    /// knob changes, or the deadline passes. `seen` is the published
    /// count the caller just observed; the post-registration recheck
    /// pairs with producers' fenced `consumer_parked` load.
    fn park_consumer(&self, read: u64, seen: usize, deadline: Option<Instant>) {
        let mut gate = self.consumer_gate.lock();
        self.consumer_parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let changed = self.published(read, seen + 1) > seen
            || self.closed.load(Ordering::SeqCst)
            || (seen > 0
                && (self.force_flush.load(Ordering::SeqCst)
                    || (self.ingest.adaptive_seal
                        && self.producers_parked.load(Ordering::SeqCst) > 0)));
        if !changed {
            match deadline {
                Some(d) => {
                    self.readable.wait_until(&mut gate, d);
                }
                None => {
                    self.readable
                        .wait_for(&mut gate, Duration::from_millis(100));
                }
            }
        }
        self.consumer_parked.store(false, Ordering::SeqCst);
    }

    fn take(&self, read: u64, n: usize) -> Vec<WalWrite> {
        self.last_take_nanos
            .store(self.now_nanos(), Ordering::Relaxed);
        let mut batch = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let seq = read + i;
            let slot = &self.slots[(seq % self.cap64()) as usize];
            debug_assert_eq!(slot.stamp.load(Ordering::Acquire), seq + 1);
            // SAFETY: `published` observed `stamp == seq + 1` with
            // Acquire, so the producer's write happened-before this
            // read; the value stays live until `ack_front` passes
            // `read_pos`, which this consumer has not advanced yet.
            batch.push(unsafe { (*slot.write.get()).assume_init_ref().clone() });
        }
        self.read_pos.store(read + n as u64, Ordering::Release);
        if self.published(read + n as u64, 1) == 0 {
            // Drained every published item: the forced flush is
            // satisfied (the old queue cleared the flag at unread == 0;
            // a still-blocked producer re-asserts it on its next park
            // cycle, and adaptive sealing covers the window).
            self.force_flush.store(false, Ordering::SeqCst);
        }
        batch
    }

    /// Acknowledges the `n` oldest items as durable in the cloud: they
    /// leave the queue, producers unblock, and the TB reference point
    /// resets (the Unlocker's role in §6). One epoch publication — a
    /// single watermark store plus at most one batched wakeup — however
    /// many items the batch carried.
    pub fn ack_front(&self, n: usize) {
        let _serial = self.ack_gate.lock();
        let start = self.acked.load(Ordering::Relaxed);
        let read = self.read_pos.load(Ordering::Acquire);
        debug_assert!(start + n as u64 <= read, "acking unread items");
        // Release-mode clamp: never drop a slot the consumer has not
        // delivered (misuse then under-acks instead of corrupting).
        let end = (start + n as u64).min(read);
        for seq in start..end {
            let slot = &self.slots[(seq % self.cap64()) as usize];
            debug_assert_eq!(slot.stamp.load(Ordering::Acquire), seq + 1);
            // SAFETY: `seq < read_pos` (Acquire above), so the consumer
            // is done with the value; the producer's publication
            // happened-before via the read_pos chain (see `Sync` impl).
            unsafe { (*slot.write.get()).assume_init_drop() };
            slot.stamp.store(seq + self.cap64(), Ordering::Release);
        }
        // The epoch watermark: producers observe one atomic, not a
        // per-item handoff. Stamps were reset first, so any producer
        // admitted by this store finds its slot already recycled.
        self.acked.store(end, Ordering::SeqCst);
        self.last_sync_end_nanos
            .store(self.now_nanos(), Ordering::Relaxed);
        // Targeted wakeup: pairs with `park_producer`'s fenced
        // registration. No parked producers — the common, healthy case —
        // means no lock and no broadcast at all.
        fence(Ordering::SeqCst);
        if self.producers_parked.load(Ordering::SeqCst) > 0 {
            self.ack_wakeups.fetch_add(1, Ordering::Relaxed);
            let _gate = self.producer_gate.lock();
            self.not_full.notify_all();
        } else {
            self.wakeups_suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests an immediate flush of any pending items (used by
    /// `Ginja::sync`).
    pub fn force_flush(&self) {
        if self.unread() > 0 {
            self.force_flush.store(true, Ordering::SeqCst);
            self.wake_consumer();
        }
    }

    /// Closes the queue: producers stop blocking (and stop enqueuing);
    /// the aggregator drains what remains and then sees `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        {
            let _gate = self.producer_gate.lock();
            self.not_full.notify_all();
        }
        self.wake_consumer();
    }

    /// Number of unacknowledged items.
    pub fn len(&self) -> usize {
        // `acked` first: both counters are monotonic and acked <= tail,
        // so this order can never observe a negative length.
        let acked = self.acked.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(acked) as usize
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items not yet handed to the aggregator.
    pub fn unread(&self) -> usize {
        let read = self.read_pos.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(read) as usize
    }

    /// Age of the oldest unacknowledged item — how long the most
    /// exposed update has been waiting for cloud durability.
    pub fn oldest_pending_age(&self) -> Option<Duration> {
        // Seqlock-style read: the head slot may be acked and recycled
        // under us, so re-check the watermark after reading the
        // timestamp and retry on movement.
        for _ in 0..8 {
            let acked = self.acked.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            if acked >= tail {
                return None;
            }
            let slot = &self.slots[(acked % self.cap64()) as usize];
            if slot.stamp.load(Ordering::Acquire) != acked + 1 {
                // Claimed but unpublished head (a put in flight): that
                // update is exposed, but its age is essentially zero.
                if self.acked.load(Ordering::Acquire) == acked {
                    return Some(Duration::ZERO);
                }
                continue;
            }
            let enqueued = slot.enqueued_nanos.load(Ordering::Relaxed);
            if self.acked.load(Ordering::Acquire) != acked {
                continue;
            }
            return Some(Duration::from_nanos(
                self.now_nanos().saturating_sub(enqueued),
            ));
        }
        // Monitoring-grade fallback under heavy churn: report presence
        // with a conservative age; the next poll settles it.
        Some(Duration::ZERO)
    }

    /// A point-in-time copy of the ingest fast-path histograms and
    /// contention counters (merged into `GinjaStatsSnapshot` by
    /// `Ginja::stats`).
    pub fn ingest_snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            put_latency: self.put_histo.snapshot(),
            blocked_latency: self.blocked_histo.snapshot(),
            credit_retries: self.credit_retries.load(Ordering::Relaxed),
            put_spins: self.put_spins.load(Ordering::Relaxed),
            put_parks: self.put_parks.load(Ordering::Relaxed),
            ack_wakeups: self.ack_wakeups.load(Ordering::Relaxed),
            wakeups_suppressed: self.wakeups_suppressed.load(Ordering::Relaxed),
            adaptive_seals: self.adaptive_seals.load(Ordering::Relaxed),
            timeout_seals: self.timeout_seals.load(Ordering::Relaxed),
        }
    }
}

impl Drop for CommitQueue {
    fn drop(&mut self) {
        // Drop every published-but-unacked value. Claimed-but-never-
        // published slots (stamp == seq) hold no initialized value.
        let acked = *self.acked.get_mut();
        let tail = *self.tail.get_mut();
        let cap = self.slots.len() as u64;
        for seq in acked..tail {
            let slot = &mut self.slots[(seq % cap) as usize];
            if *slot.stamp.get_mut() == seq + 1 {
                // SAFETY: &mut self — no other thread can touch the cell.
                unsafe { (*slot.write.get()).assume_init_drop() };
            }
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
        // Blocking also force-flushes: the aggregator gets the partial batch.
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

    #[test]
    fn set_batch_retunes_live_queue_and_clamps_to_safety() {
        let q = queue(2, 10);
        assert_eq!(q.batch(), 2);
        // Raising B changes what a take returns.
        assert_eq!(q.set_batch(5), 5);
        for i in 0..5 {
            q.put(write(i)).unwrap();
        }
        assert_eq!(q.take_batch().unwrap().len(), 5);
        q.ack_front(5);
        // B can never exceed S, and never drop below 1.
        assert_eq!(q.set_batch(100), 10);
        assert_eq!(q.batch(), 10);
        assert_eq!(q.set_batch(0), 1);
        assert_eq!(q.safety(), 10, "S is immutable");
    }

    #[test]
    fn set_batch_timeout_wakes_sleeping_aggregator() {
        let q = Arc::new(CommitQueue::new(
            100,
            1000,
            Duration::from_secs(60), // TB so long the partial batch would wait forever
            Duration::from_secs(60),
        ));
        q.put(write(1)).unwrap();
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.take_batch());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!consumer.is_finished(), "partial batch held by long TB");
        q.set_batch_timeout(Duration::from_millis(1));
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(q.batch_timeout(), Duration::from_millis(1));
    }

    // ------------------------------------------------------------------
    // Executable spec pinned before the PR 9 fast-path rewrite: the
    // exact `blocked_for` accounting and TB reference-point rules any
    // replacement implementation must reproduce.
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
    // Fast-path specifics: contention counters, targeted wakeups,
    // adaptive sealing.
    // ------------------------------------------------------------------

    #[test]
    fn blocked_put_spins_then_parks() {
        let q = Arc::new(queue(1, 1)); // default ingest: spin = 64
        q.put(write(1)).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.put(write(2)).unwrap());
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(q.take_batch().unwrap().len(), 1);
        q.ack_front(1);
        h.join().unwrap();
        let snap = q.ingest_snapshot();
        assert!(snap.put_spins >= 1, "blocked put must enter the spin phase");
        assert!(
            snap.put_parks >= 1,
            "an 80ms stall must outlast the spin budget and park"
        );
        assert!(snap.ack_wakeups >= 1, "the ack found a parked producer");
        assert_eq!(snap.put_latency.count, 2);
        assert_eq!(
            snap.blocked_latency.count, 1,
            "only the stalled put records"
        );
        assert!(snap.blocked_latency.p99 >= Duration::from_millis(32));
    }

    #[test]
    fn uncontended_acks_suppress_wakeups() {
        let q = queue(2, 10);
        q.put(write(1)).unwrap();
        q.put(write(2)).unwrap();
        assert_eq!(q.take_batch().unwrap().len(), 2);
        q.ack_front(2);
        let snap = q.ingest_snapshot();
        assert_eq!(snap.ack_wakeups, 0);
        assert_eq!(
            snap.wakeups_suppressed, 1,
            "nobody parked: the old queue's broadcast is skipped entirely"
        );
        assert_eq!(snap.put_parks, 0);
    }

    #[test]
    fn adaptive_seal_releases_partial_for_parked_producer() {
        // A partial batch + a producer parked against Safety: the
        // aggregator must seal early (long before TB = 60 s) and count
        // it. Retried a few times because the parked producer briefly
        // unparks every 50 ms to re-check, which can race the take.
        let mut sealed_adaptively = false;
        for _ in 0..5 {
            let q = Arc::new(CommitQueue::with_ingest(
                3,
                3,
                Duration::from_secs(60),
                Duration::from_secs(60),
                IngestConfig {
                    spin: 0,
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
            if q.ingest_snapshot().adaptive_seals >= 1 {
                sealed_adaptively = true;
                break;
            }
        }
        assert!(
            sealed_adaptively,
            "adaptive sealing must fire for a parked producer"
        );
    }

    #[test]
    fn adaptive_seal_disabled_still_flushes_via_force_flush() {
        // With adaptive sealing off, the pre-PR-9 behavior holds: the
        // blocked producer's force-flush releases the partial batch.
        let q = Arc::new(CommitQueue::with_ingest(
            3,
            3,
            Duration::from_secs(60),
            Duration::from_secs(60),
            IngestConfig {
                spin: 0,
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
