//! The Ginja middleware: the instance, its shared state and the
//! interception that feeds its two working loops. The stages live in
//! their own modules: start-up (Algorithm 1's Boot and Reboot) in
//! `startup`, the commit pipeline (Algorithm 2) in `upload`, checkpoint
//! processing and garbage collection (Algorithm 3) in `checkpoint`.
//!
//! The thread architecture mirrors §6 / Figure 3 of the paper —
//! `uploaders + 1` threads per instance (DESIGN.md §2, "Thread model"),
//! each a loop over its step, the paper's Aggregator running on
//! whichever uploader is idle:
//!
//! ```text
//! DBMS → InterceptFs → Ginja::on_write ─ WAL writes → CommitQueue
//!                                      └ checkpoint writes → CkptAccum
//!                                        → (checkpoint end) CkptQueue
//! Uploader×n:   form_batch — under the batch turn, take ≤ B (no
//!               removal) → aggregate → one WAL ts per object → manifest;
//!               then carry each object: seal + PUT → view → complete;
//!               the one closing the oldest open batch acks, in batch
//!               order, through the AckLedger → CommitQueue.ack_front
//! Checkpointer: run_job — ts-collision merge → DB object (dump |
//!               incremental) seal + PUT → view → garbage collection
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_cloud::{ResilientStore, StopSignal, UsageLedger};
use ginja_codec::Codec;
use ginja_vfs::{DbmsProcessor, FileSystem, IoClass, IoProcessor, WriteEvent};
use parking_lot::Mutex;

use crate::ack::AckLedger;
use crate::checkpoint::{self, CkptAccum, CkptQueue};
use crate::config::GinjaConfig;
use crate::fanout::FanoutExecutor;
use crate::queue::{CommitQueue, WalWrite};
use crate::stats::{GinjaStats, GinjaStatsSnapshot};
use crate::view::CloudView;
use crate::GinjaError;

/// A point-in-time measurement of how much a disaster would cost —
/// see [`Ginja::exposure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exposure {
    /// Committed updates not yet confirmed durable in the cloud (≤ S).
    pub updates: usize,
    /// Checkpoint DB objects still uploading.
    pub pending_checkpoints: usize,
    /// Age of the oldest unconfirmed update (≈ the time-based RPO).
    pub oldest_age: Option<Duration>,
    /// Set when a pipeline stage hit a fatal data-path error (e.g. a
    /// seal failure) and stopped. The queue will no longer drain: the
    /// DBMS blocks at the Safety limit until the operator intervenes.
    /// An outage is *not* fatal — the same block lifts by itself when
    /// the cloud answers again.
    pub fatal: bool,
}

/// What every pipeline thread and the interception share; built once
/// by start-up.
pub(crate) struct Shared {
    pub(crate) config: GinjaConfig,
    pub(crate) codec: Codec,
    /// The cloud behind the resilience layer (retry with backoff).
    /// Every pipeline thread goes through this handle, so
    /// `config.retry` governs all cloud traffic.
    pub(crate) cloud: Arc<ResilientStore>,
    pub(crate) fs: Arc<dyn FileSystem>,
    pub(crate) processor: Arc<dyn DbmsProcessor>,
    pub(crate) view: Mutex<CloudView>,
    pub(crate) queue: CommitQueue,
    /// Orders batch acknowledgements into `queue` (the Unlocker's job,
    /// done by whichever uploader closes the oldest open batch).
    pub(crate) acks: AckLedger,
    pub(crate) stats: GinjaStats,
    /// The fan-out executor (width `config.recovery_fanout`) for bulk
    /// transfer waves: checkpoint part uploads, reboot resync.
    pub(crate) fanout: Arc<FanoutExecutor>,
    pub(crate) accum: Mutex<CkptAccum>,
    /// Bounded, coalescing checkpoint queue, and the one count of
    /// checkpoints not yet durable.
    pub(crate) ckpt_queue: CkptQueue,
    /// The batch turn over the next batch id, held across take → WAL ts
    /// → manifest (the uploader's *form a batch* step); taken before,
    /// never while holding, the view, ledger or queue lock. A `std`
    /// mutex: idle uploaders wait on it a whole batch fill, and
    /// `parking_lot`'s spin-and-yield before parking cost `mysql_mem`
    /// ~7 % CPU (2 vCPUs).
    pub(crate) batch_turn: std::sync::Mutex<u64>,
    /// Latched by [`Ginja::shutdown`]; every retry back-off a pipeline
    /// thread sleeps waits on it, so shutdown interrupts them at once.
    pub(crate) stop: StopSignal,
    pub(crate) threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Garbage objects whose bounded delete failed; retried at the next
    /// checkpoint's GC pass instead of leaking forever.
    /// Deduplicated and capped — overflow is dropped (counted); Reboot's
    /// LIST re-adopts a dropped name and the next checkpoint's GC
    /// deletes it.
    pub(crate) gc_backlog: Mutex<BTreeSet<String>>,
}

impl Shared {
    /// Records why a pipeline thread stops: a shutdown is the normal
    /// way out; anything else (a seal failure, say) is fatal to the data
    /// path and surfaces via `Exposure::fatal`.
    pub(crate) fn stop_on(&self, err: GinjaError) {
        if !matches!(err, GinjaError::ShutDown) {
            self.stats.pipeline_fatals.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The Ginja disaster-recovery middleware.
///
/// Create one with [`Ginja::boot`] (fresh protection: uploads the
/// current database to the cloud first) or [`Ginja::reboot`] (resume
/// after a clean stop: the cloud is already synchronized). Wire it to
/// the DBMS by wrapping the database's file system in a
/// [`ginja_vfs::InterceptFs`] with this value as the processor.
///
/// Cloning is cheap and shares the same middleware instance.
#[derive(Clone)]
pub struct Ginja {
    pub(crate) shared: Arc<Shared>,
}

impl std::fmt::Debug for Ginja {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ginja")
            .field("batch", &self.shared.config.batch)
            .field("safety", &self.shared.config.safety)
            .finish()
    }
}

impl Ginja {
    /// Blocks until every pending update and checkpoint is durable in
    /// the cloud, or `timeout` elapses. Returns whether it drained.
    pub fn sync(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let drained = self.shared.queue.is_empty() && self.shared.ckpt_queue.unsettled() == 0;
            if drained {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.shared.queue.force_flush();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the pipeline: the queue closes (the DBMS is no longer
    /// blocked — protection ends), pending work drains, and all threads
    /// join. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.stop();
        self.shared.queue.close();
        self.shared.ckpt_queue.close();
        let threads = std::mem::take(&mut *self.shared.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
    }

    /// Statistics snapshot, with the resilience layer's retry counter
    /// merged in.
    pub fn stats(&self) -> GinjaStatsSnapshot {
        let mut snap = self.shared.stats.snapshot();
        snap.cloud_retries = self.shared.cloud.retries();
        snap.gc_backlog = self.shared.gc_backlog.lock().len() as u64;
        // Ingest histograms and counters live on the CommitQueue itself.
        snap.ingest = self.shared.queue.ingest_snapshot();
        snap
    }

    /// Number of updates currently unconfirmed by the cloud.
    pub fn pending_updates(&self) -> usize {
        self.shared.queue.len()
    }

    /// The current data-loss exposure: what a disaster *right now*
    /// would cost. This is the operator-facing view of the §5.1
    /// trade-off — `updates` is bounded by `S`, `oldest_age` by `TS`
    /// (plus one upload round-trip).
    pub fn exposure(&self) -> Exposure {
        Exposure {
            updates: self.shared.queue.len(),
            pending_checkpoints: self.shared.ckpt_queue.unsettled(),
            oldest_age: self.shared.queue.oldest_pending_age(),
            fatal: self.shared.stats.pipeline_fatals.load(Ordering::Relaxed) > 0,
        }
    }

    /// The usage ledger every cloud operation of this instance lands
    /// in (boot uploads, batch uploads, checkpoint merges, GC, and —
    /// through [`Ginja::resilient_cloud`] — standby traffic).
    pub fn usage_ledger(&self) -> Arc<UsageLedger> {
        self.shared.cloud.ledger().clone()
    }

    /// A copy of the current cloud view (tests and tooling).
    pub fn view(&self) -> CloudView {
        self.shared.view.lock().clone()
    }

    /// The resilient cloud handle the pipeline itself uses. A standby
    /// attached to this instance reads through it, so its GETs share
    /// the same retry policy and usage ledger as regular traffic.
    pub fn resilient_cloud(&self) -> Arc<ResilientStore> {
        self.shared.cloud.clone()
    }

    /// The fan-out executor for this instance's bulk transfer waves. The
    /// checkpointer and reboot resync both issue their waves through it,
    /// so the middleware's total out-of-band cloud concurrency stays
    /// bounded by one knob.
    pub fn fanout(&self) -> &Arc<FanoutExecutor> {
        &self.shared.fanout
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> &GinjaConfig {
        &self.shared.config
    }
}

impl IoProcessor for Ginja {
    fn on_write(&self, event: &WriteEvent) {
        if self.shared.stop.is_stopped() {
            return;
        }
        match self.shared.processor.classify(event) {
            IoClass::WalAppend => {
                self.shared
                    .stats
                    .updates_intercepted
                    .fetch_add(1, Ordering::Relaxed);
                let outcome = self.shared.queue.put(WalWrite {
                    file: event.path.clone(),
                    offset: event.offset,
                    data: event.data.clone(),
                });
                if let Some(outcome) = outcome {
                    self.shared.stats.add_blocked(outcome.blocked_for);
                }
            }
            IoClass::DataFile => checkpoint::page_write(&self.shared, event),
            IoClass::ControlFile => checkpoint::checkpoint_end(&self.shared, event),
            IoClass::Other => {}
        }
    }
}
