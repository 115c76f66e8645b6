//! The Ginja middleware: interception, the commit pipeline (Algorithm
//! 2), checkpoint processing and garbage collection (Algorithm 3), and
//! the Boot/Reboot initialization modes (Algorithm 1).
//!
//! The thread architecture mirrors §6 / Figure 3 of the paper —
//! `uploaders + 1` threads per instance (DESIGN.md §2, "Thread model"),
//! the paper's Aggregator running on whichever uploader is idle:
//!
//! ```text
//! DBMS → InterceptFs → Ginja::on_write ─ WAL writes → CommitQueue
//!                                      └ checkpoint writes → accumulator
//! Uploader×n:   under the batch turn, take ≤ B (no removal) → aggregate
//!               → one WAL ts per object → manifest; then seal + PUT each
//!               object; the one closing the oldest open batch acks, in
//!               batch order, through the AckLedger → CommitQueue.ack_front
//! Checkpointer: DB objects (dump | incremental) → PUT → garbage collection
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_cloud::{GiveUp, ObjectStore, ResilientStore, StopSignal, StoreError, UsageLedger};
use ginja_codec::Codec;
use ginja_vfs::{DbmsProcessor, FileSystem, IoClass, IoProcessor, WriteEvent};
use parking_lot::Mutex;

use crate::ack::AckLedger;
use crate::agg;
use crate::bundle::{self, FileRange};
use crate::config::GinjaConfig;
use crate::fanout::FanoutExecutor;
use crate::names::{DbObjectKind, DbObjectName, WalObjectName};
use crate::outage::{CkptJob, CkptPush, CkptQueue};
use crate::queue::{CommitQueue, WalWrite};
use crate::stats::{GinjaStats, GinjaStatsSnapshot};
use crate::view::CloudView;
use crate::GinjaError;
use ginja_codec::bufpool;

/// Deferred-GC backlog cap: beyond this many distinct garbage names the
/// oldest leak-retry candidates win and newcomers are dropped (counted
/// in `gc_backlog_dropped`). A dropped name is a bounded cost leak, not
/// a correctness problem: Reboot's LIST re-adopts the name and the next
/// checkpoint's GC deletes it.
const GC_BACKLOG_CAP: usize = 4096;

/// Checkpoint jobs queued for upload before the next one coalesces
/// into the newest (see [`CkptQueue`]): checkpoint RAM stays bounded
/// at this many jobs however long the cloud is gone.
const CKPT_QUEUE_CAPACITY: usize = 8;

/// Largest WAL object Boot and Reboot's resync cut a local log file
/// into (or `max_object_size`, if smaller). An object is collectable
/// only whole, and a region the DBMS never rewrites — InnoDB's 2 kB
/// log file headers — pins the object that holds it for good; with one
/// object per segment that was the whole log, twice the database on the
/// benchmark's MySQL profile. At 1 MiB a header pins at most one chunk
/// per file, and Boot pays `segment_bytes / 1 MiB` PUTs once (16 on
/// that profile; 4 on the PostgreSQL one, whose first checkpoint
/// deletes them by timestamp anyway).
const BOOT_WAL_CHUNK: usize = 1 << 20;

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

/// Checkpoint accumulation state (the paper's Algorithm 3 lines 1–16).
struct CkptAccum {
    in_checkpoint: bool,
    /// The next checkpoint is a dump whatever the dump rule says: set by
    /// Reboot, whose local database files may hold pages no DB object
    /// carries.
    dump_next: bool,
    ts: u64,
    ranges: std::collections::BTreeMap<String, std::collections::BTreeMap<u64, Vec<u8>>>,
    decided: DecidedDb,
}

/// What the dump rule counts (Algorithm 3 line 8): the bundle size of
/// every DB object decided since the last dump decision — the dump and
/// each checkpoint after it — one total per dump chain the bucket keeps
/// (the newest, or the `keep_snapshots + 1` newest under PITR). Sizes
/// are counted when decided, not when durable, so the rule is a
/// function of the checkpoints alone: neither upload speed nor queue
/// coalescing moves it.
struct DecidedDb {
    /// Per-chain totals, oldest first; at most `keep` of them.
    chains: std::collections::VecDeque<u64>,
    keep: usize,
}

impl DecidedDb {
    /// The totals of the DB objects `view` holds, chain by chain.
    fn from_view(view: &CloudView, keep: usize) -> Self {
        let chains = std::collections::VecDeque::new();
        let mut decided = DecidedDb { chains, keep };
        for (_, entry) in view.db_entries() {
            decided.record(entry.kind, entry.size);
        }
        decided
    }

    fn total(&self) -> u64 {
        self.chains.iter().sum()
    }

    /// Counts one decided DB object: a dump starts a chain (and the
    /// oldest retained one goes), a checkpoint adds to the newest.
    fn record(&mut self, kind: DbObjectKind, size: u64) {
        match (kind, self.chains.back_mut()) {
            (DbObjectKind::Checkpoint, Some(chain)) => *chain += size,
            _ => {
                self.chains.push_back(size);
                if self.chains.len() > self.keep {
                    self.chains.pop_front();
                }
            }
        }
    }
}

impl CkptAccum {
    /// Folds one page write into its file's ranges. The path becomes an
    /// owned key only on the file's first write in a checkpoint.
    fn apply(&mut self, event: &WriteEvent) {
        match self.ranges.get_mut(&*event.path) {
            Some(ranges) => agg::apply(ranges, event.offset, &event.data),
            None => {
                let ranges = self.ranges.entry(event.path.to_string()).or_default();
                agg::apply(ranges, event.offset, &event.data);
            }
        }
    }
}

struct Shared {
    config: GinjaConfig,
    codec: Codec,
    /// The cloud behind the resilience layer (retry with backoff).
    /// Every pipeline thread goes through this handle, so
    /// `config.retry` governs all cloud traffic.
    cloud: Arc<ResilientStore>,
    fs: Arc<dyn FileSystem>,
    processor: Arc<dyn DbmsProcessor>,
    view: Mutex<CloudView>,
    queue: CommitQueue,
    /// Orders batch acknowledgements into `queue` (the Unlocker's job,
    /// done by whichever uploader closes the oldest open batch).
    acks: AckLedger,
    stats: GinjaStats,
    /// The fan-out executor (width `config.recovery_fanout`) for bulk
    /// transfer waves: checkpoint part uploads, reboot resync.
    fanout: Arc<FanoutExecutor>,
    accum: Mutex<CkptAccum>,
    /// Bounded, coalescing checkpoint queue (replaces the old unbounded
    /// channel, whose jobs each carry up to a whole database of pages).
    ckpt_queue: CkptQueue,
    pending_ckpt_jobs: AtomicUsize,
    /// The batch turn over the next batch id, held across take → WAL ts
    /// → manifest (see [`uploader_loop`]); taken before, never while
    /// holding, the view, ledger or queue lock. A `std` mutex: idle
    /// uploaders wait on it a whole batch fill, and `parking_lot`'s
    /// spin-and-yield before parking cost `mysql_mem` ~7 % CPU (2 vCPUs).
    batch_turn: std::sync::Mutex<u64>,
    /// Latched by [`Ginja::shutdown`]; every retry back-off a pipeline
    /// thread sleeps waits on it, so shutdown interrupts them at once.
    stop: StopSignal,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Garbage objects whose bounded delete failed; retried at the next
    /// checkpoint's GC pass instead of leaking forever.
    /// Deduplicated and capped at [`GC_BACKLOG_CAP`] — overflow is
    /// dropped (counted); Reboot's LIST re-adopts a dropped name and
    /// the next checkpoint's GC deletes it.
    gc_backlog: Mutex<BTreeSet<String>>,
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
    shared: Arc<Shared>,
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
    /// Boot mode (Algorithm 1 lines 7–18): upload every local WAL
    /// segment and a full dump of the database files, then start the
    /// pipeline. Call *before* starting the DBMS over the intercepted
    /// file system.
    ///
    /// # Errors
    ///
    /// Configuration, file-system, codec and cloud errors propagate —
    /// protection must not silently start half-initialized.
    pub fn boot(
        fs: Arc<dyn FileSystem>,
        cloud: Arc<dyn ObjectStore>,
        processor: Arc<dyn DbmsProcessor>,
        config: GinjaConfig,
    ) -> Result<Self, GinjaError> {
        config.validate()?;
        let fanout = Arc::new(FanoutExecutor::new(config.recovery_fanout));
        // Wrap the cloud in the resilience layer *before* the first
        // operation: boot uploads (WAL segments + the initial dump) get
        // the same retry treatment as pipeline traffic.
        let cloud = Arc::new(ResilientStore::new(cloud, config.retry.clone()));
        // A Boot into a bucket that already holds Ginja objects would
        // interleave two protection histories (timestamp collisions,
        // wrong dumps at recovery). Demand a fresh bucket; resuming an
        // existing history is what Reboot is for.
        if !cloud.list("")?.is_empty() {
            return Err(GinjaError::Config(
                "boot requires an empty bucket (use reboot to resume, or point at a new bucket)"
                    .into(),
            ));
        }
        let codec = Codec::new(config.codec.clone());
        let stats = GinjaStats::default();
        let mut view = CloudView::new();
        let direct_put = |name: &str, sealed: &[u8]| -> Result<(), GinjaError> {
            cloud.put(name, sealed).map_err(GinjaError::from)
        };

        // Every local WAL segment: the resync pass against an empty
        // view uploads each file whole.
        resync_local_wal(
            fs.as_ref(),
            &cloud,
            processor.as_ref(),
            &config,
            &codec,
            &fanout,
            &stats,
            &mut view,
        )?;

        // The initial dump, at the reserved timestamp 0 so every boot
        // WAL object (ts >= 1) is "newer than the dump" for recovery.
        let entries = read_db_files(fs.as_ref(), processor.as_ref())?;
        let bytes = bundle::encode(&entries);
        let total = bytes.len() as u64;
        let parts = bundle::chunk(bytes, config.max_object_size);
        let n = parts.len() as u32;
        let mut names = Vec::new();
        let mut jobs = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let name = DbObjectName {
                ts: 0,
                kind: DbObjectKind::Dump,
                size: total,
                part: i as u32,
                parts: n,
            };
            jobs.push(SealPut {
                name: name.to_name(),
                raw: part,
            });
            names.push(name);
        }
        seal_put_wave(&fanout, &codec, &stats, &direct_put, jobs, |idx, _| {
            view.add_db_part(names[idx].clone());
            Ok(())
        })?;

        let ginja = Self::assemble(fs, cloud, processor, config, codec, view, stats, fanout);
        ginja
            .shared
            .stats
            .dumps_uploaded
            .fetch_add(1, Ordering::Relaxed);
        Ok(ginja)
    }

    /// Reboot mode (Algorithm 1 lines 19–22): rebuild the `cloudView`
    /// from a LIST and start the pipeline.
    ///
    /// The paper's Reboot assumes a clean stop ("the cloud is already
    /// synchronized"). After a *crash* that assumption is false twice
    /// over, and Reboot heals both, so a disaster after the reboot loses
    /// nothing that was locally durable before it:
    ///
    /// * The local durable WAL may hold up to Safety-S acknowledged
    ///   updates the cloud never received, and the cloud's copy of a
    ///   rewritten tail block may be stale. Reboot resyncs first — it
    ///   compares the local WAL files against the cloud's reconstruction
    ///   of them and uploads fresh WAL objects for every log range that
    ///   differs. The pass is a no-op after a clean stop.
    /// * The local database files may be ahead of the cloud's DB
    ///   objects: the crash can cut a checkpoint between its page
    ///   flushes and its upload, and the pipeline's record of those
    ///   pages dies with the process. The pages are clean now, so no
    ///   later checkpoint would carry them. The resync therefore leaves
    ///   each WAL file's header ([`DbmsProcessor::wal_header_len`]) alone
    ///   — a checkpoint end reaches the cloud only in a DB object, with
    ///   the pages it vouches for — and the first checkpoint after the
    ///   reboot is a dump, whatever the dump rule says.
    ///
    /// # Errors
    ///
    /// Cloud, file-system and name-parsing errors propagate.
    pub fn reboot(
        fs: Arc<dyn FileSystem>,
        cloud: Arc<dyn ObjectStore>,
        processor: Arc<dyn DbmsProcessor>,
        config: GinjaConfig,
    ) -> Result<Self, GinjaError> {
        config.validate()?;
        let fanout = Arc::new(FanoutExecutor::new(config.recovery_fanout));
        let cloud = Arc::new(ResilientStore::new(cloud, config.retry.clone()));
        let codec = Codec::new(config.codec.clone());
        let stats = GinjaStats::default();
        let mut view = CloudView::from_listing(cloud.list("")?)?;

        let resync_objects = resync_local_wal(
            fs.as_ref(),
            &cloud,
            processor.as_ref(),
            &config,
            &codec,
            &fanout,
            &stats,
            &mut view,
        )?;
        stats
            .wal_resync_objects
            .fetch_add(resync_objects, Ordering::Relaxed);

        let ginja = Self::assemble(fs, cloud, processor, config, codec, view, stats, fanout);
        ginja.shared.accum.lock().dump_next = true;
        Ok(ginja)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        fs: Arc<dyn FileSystem>,
        cloud: Arc<ResilientStore>,
        processor: Arc<dyn DbmsProcessor>,
        config: GinjaConfig,
        codec: Codec,
        view: CloudView,
        stats: GinjaStats,
        fanout: Arc<FanoutExecutor>,
    ) -> Self {
        let queue = CommitQueue::with_ingest(
            config.batch,
            config.safety,
            config.batch_timeout,
            config.safety_timeout,
            config.ingest,
        );
        let chains_kept = config.pitr.map_or(1, |pitr| pitr.keep_snapshots + 1);
        let accum = CkptAccum {
            in_checkpoint: false,
            dump_next: false,
            ts: 0,
            ranges: std::collections::BTreeMap::new(),
            decided: DecidedDb::from_view(&view, chains_kept),
        };
        let shared = Arc::new(Shared {
            ckpt_queue: CkptQueue::new(CKPT_QUEUE_CAPACITY),
            config,
            codec,
            cloud,
            fs,
            processor,
            view: Mutex::new(view),
            queue,
            acks: AckLedger::default(),
            stats,
            fanout,
            accum: Mutex::new(accum),
            pending_ckpt_jobs: AtomicUsize::new(0),
            batch_turn: std::sync::Mutex::new(0),
            stop: StopSignal::default(),
            threads: Mutex::new(Vec::new()),
            gc_backlog: Mutex::new(BTreeSet::new()),
        });

        let spawn = |name: String, stage: fn(&Shared)| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(name)
                .spawn(move || stage(&shared))
                .expect("spawn pipeline thread")
        };
        let mut threads: Vec<_> = (0..shared.config.uploaders)
            .map(|i| spawn(format!("ginja-uploader-{i}"), uploader_loop))
            .collect();
        threads.push(spawn("ginja-checkpointer".into(), checkpointer_loop));
        *shared.threads.lock() = threads;
        Ginja { shared }
    }

    /// Blocks until every pending update and checkpoint is durable in
    /// the cloud, or `timeout` elapses. Returns whether it drained.
    pub fn sync(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let drained = self.shared.queue.is_empty()
                && self.shared.pending_ckpt_jobs.load(Ordering::SeqCst) == 0;
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
            pending_checkpoints: self.shared.pending_ckpt_jobs.load(Ordering::SeqCst),
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

    fn handle_data_write(&self, event: &WriteEvent) {
        let mut accum = self.shared.accum.lock();
        if !accum.in_checkpoint {
            accum.in_checkpoint = true;
            accum.ts = self.shared.view.lock().watermark();
        }
        accum.apply(event);
    }

    fn handle_control_write(&self, event: &WriteEvent) {
        let job = {
            let mut accum = self.shared.accum.lock();
            if !accum.in_checkpoint {
                // A checkpoint that flushed no data pages still moves
                // the control record; it forms a (tiny) DB object.
                accum.in_checkpoint = true;
                accum.ts = self.shared.view.lock().watermark();
            }
            accum.apply(event);

            // Checkpoint end: decide dump vs incremental (Alg. 3 l. 8–16).
            let ts = accum.ts;
            let ranges = bundle::from_ranges(std::mem::take(&mut accum.ranges));
            accum.in_checkpoint = false;

            let local_db_size = self.local_db_size();
            let dump_due = accum.dump_next
                || local_db_size > 0
                    && accum.decided.total() as f64
                        >= self.shared.config.dump_threshold * local_db_size as f64;
            let checkpoint = |entries| CkptJob {
                ts,
                kind: DbObjectKind::Checkpoint,
                entries,
            };
            let job = if dump_due {
                // Full dump, read synchronously here: this blocks the
                // DBMS's write path (not its commits in a multi-threaded
                // DBMS), which is the paper's consistency argument for
                // dumps ("Ginja will not execute any write in the local
                // DB files while the dump object is being created").
                match read_db_files(self.shared.fs.as_ref(), self.shared.processor.as_ref()) {
                    Ok(mut entries) => {
                        // The files just read already hold every page
                        // this checkpoint wrote (`InterceptFs` writes
                        // locally before it raises the event), so of its
                        // ranges the dump carries only those outside the
                        // database files: for MySQL the checkpoint
                        // *control block* inside `ib_logfile0`, a WAL
                        // file, which recovery needs after this dump's
                        // GC deletes the checkpoint objects that used to
                        // carry it.
                        let processor = self.shared.processor.as_ref();
                        let outside = ranges
                            .into_iter()
                            .filter(|r| !processor.is_db_file(&r.path));
                        entries.extend(outside);
                        accum.dump_next = false;
                        CkptJob {
                            ts,
                            kind: DbObjectKind::Dump,
                            entries,
                        }
                    }
                    Err(_) => checkpoint(ranges),
                }
            } else {
                checkpoint(ranges)
            };
            accum
                .decided
                .record(job.kind, bundle::encoded_len(&job.entries));
            job
        };

        self.shared
            .stats
            .checkpoints_seen
            .fetch_add(1, Ordering::Relaxed);
        if job.kind == DbObjectKind::Dump {
            self.shared
                .stats
                .dumps_uploaded
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.pending_ckpt_jobs.fetch_add(1, Ordering::SeqCst);
        match self.shared.ckpt_queue.push(job) {
            CkptPush::Queued => {}
            CkptPush::Coalesced => {
                // The queue was at capacity and the newest queued job
                // absorbed this one: two logical checkpoints complete as
                // one upload, so this one's pending count goes with it.
                self.shared
                    .stats
                    .ckpt_coalesced
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.pending_ckpt_jobs.fetch_sub(1, Ordering::SeqCst);
            }
            CkptPush::Closed => {
                // Shut down: the job is dropped (protection has ended).
                self.shared.pending_ckpt_jobs.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    fn local_db_size(&self) -> u64 {
        let Ok(files) = self.shared.fs.list("") else {
            return 0;
        };
        files
            .iter()
            .filter(|f| self.shared.processor.is_db_file(f))
            .filter_map(|f| self.shared.fs.len(f).ok())
            .sum()
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
            IoClass::DataFile => self.handle_data_write(event),
            IoClass::ControlFile => self.handle_control_write(event),
            IoClass::Other => {}
        }
    }
}

/// One object of a seal+PUT wave: the wire name plus raw payload.
struct SealPut {
    name: String,
    raw: Vec<u8>,
}

/// The PUT half of a wave: callers pass either a direct store PUT or
/// the uploader's retrying variant.
type PutFn<'a> = &'a (dyn Fn(&str, &[u8]) -> Result<(), GinjaError> + Sync);

/// Seals `raw` under `name` into a pooled buffer, timed into
/// `stats.seal_histo` and `stats.seal_micros`.
fn seal_timed(
    codec: &Codec,
    stats: &GinjaStats,
    name: &str,
    raw: &[u8],
) -> Result<Vec<u8>, GinjaError> {
    let mut sealed = bufpool::take();
    let seal_start = Instant::now();
    codec.seal_into(name, raw, &mut sealed)?;
    let seal_elapsed = seal_start.elapsed();
    stats.seal_histo.record(seal_elapsed);
    stats
        .seal_micros
        .fetch_add(seal_elapsed.as_micros() as u64, Ordering::Relaxed);
    Ok(sealed)
}

/// Seals and PUTs a wave of objects through the fan-out executor — the
/// one implementation of the seal+put loop that Boot (WAL segments and
/// the initial dump), Reboot resync and the checkpointer all share.
///
/// Workers run seal (pooled buffers, timed into `stats.seal_histo`) and
/// the PUT (timed into `stats.put_histo`) concurrently; `on_durable` is
/// called with `(index, sealed_len)` strictly in input order,
/// so callers may register objects in the view — and a checkpoint-end
/// marker only ever lands after every part at a lower index is durable.
/// The first error aborts the wave.
fn seal_put_wave(
    exec: &FanoutExecutor,
    codec: &Codec,
    stats: &GinjaStats,
    put: PutFn<'_>,
    jobs: Vec<SealPut>,
    on_durable: impl FnMut(usize, u64) -> Result<(), GinjaError>,
) -> Result<(), GinjaError> {
    exec.run_ordered(
        jobs,
        |_, job| {
            let sealed = seal_timed(codec, stats, &job.name, &job.raw)?;
            let put_start = Instant::now();
            put(&job.name, &sealed)?;
            stats.put_histo.record(put_start.elapsed());
            let sealed_len = sealed.len() as u64;
            bufpool::recycle(sealed);
            Ok(sealed_len)
        },
        on_durable,
    )
}

/// The resync pass, Boot's WAL upload and Reboot's heal: for each local
/// WAL file, rebuild the cloud's image of it (its WAL objects applied in
/// timestamp order) and upload a fresh WAL object for every byte range
/// where the local durable content differs — at Reboot, content the
/// DBMS acknowledged before the crash but Ginja never finished
/// uploading, or a tail-block rewrite whose cloud copy is stale. A
/// cloud object that cannot be fetched or opened counts as not covering
/// its range, so the pass also heals WAL objects lost from the bucket.
/// Runs are cut at `BOOT_WAL_CHUNK` and each file is one seal+PUT wave,
/// registered in the view in timestamp order.
///
/// A file the cloud does not cover at all is uploaded whole — an empty
/// one as a single 0-length object — since its records may exist
/// nowhere else; against Boot's empty view that is every file, headers
/// included (Boot's dump has none). When a file has coverage, bytes
/// *below* its lowest covered offset are skipped: those ranges were
/// garbage-collected after a checkpoint — their effects live in DB
/// objects and recovery never replays them — so re-uploading would be
/// pure cost. (WAL appends are forward-only, so GC'd ranges form a
/// prefix.) So is the file's header ([`DbmsProcessor::wal_header_len`]):
/// the control state there moves with checkpoints, which ship it in DB
/// objects together with the pages it vouches for.
///
/// Returns the number of objects uploaded.
#[allow(clippy::too_many_arguments)]
fn resync_local_wal(
    fs: &dyn FileSystem,
    cloud: &Arc<ResilientStore>,
    processor: &dyn DbmsProcessor,
    config: &GinjaConfig,
    codec: &Codec,
    exec: &FanoutExecutor,
    stats: &GinjaStats,
    view: &mut CloudView,
) -> Result<u64, GinjaError> {
    let chunk_size = config.max_object_size.min(BOOT_WAL_CHUNK);
    let mut wal_files = fs.list(processor.wal_prefix())?;
    wal_files.sort();
    let mut objects = 0u64;
    let direct_put = |name: &str, sealed: &[u8]| -> Result<(), GinjaError> {
        cloud.put(name, sealed).map_err(GinjaError::from)
    };
    for file in wal_files {
        let local = fs.read_all(&file)?;
        let names: Vec<WalObjectName> = view
            .wal_entries()
            .filter(|w| w.file == file)
            .cloned()
            .collect();
        let runs = if names.is_empty() {
            // Uncovered: the whole file; `max(1)` gives an empty one its
            // single 0-length object.
            (0..local.len().max(1))
                .step_by(chunk_size)
                .map(|start| start..local.len().min(start + chunk_size))
                .collect()
        } else {
            // Fetch + open the file's WAL objects as one concurrent wave;
            // `run_collect` hands results back in input order, so the apply
            // below still sees them oldest-timestamp-first.
            let fetched: Vec<Option<Vec<u8>>> = exec.run_collect(names.clone(), |_, name| {
                let opened = cloud
                    .get(&name.to_name())
                    .ok()
                    .and_then(|sealed| codec.open(&name.to_name(), &sealed).ok());
                Ok::<_, GinjaError>(opened)
            })?;
            // The cloud's image of this file: later timestamps win, `None`
            // marks bytes the cloud does not cover (an unreadable object
            // leaves its range uncovered).
            let mut image: Vec<Option<u8>> = vec![None; local.len()];
            for (name, opened) in names.iter().zip(fetched) {
                let Some(data) = opened else {
                    continue;
                };
                for (i, byte) in data.iter().enumerate() {
                    let pos = name.offset as usize + i;
                    if pos < image.len() {
                        image[pos] = Some(*byte);
                    }
                }
            }
            let skip_below = names.iter().map(|n| n.offset as usize).min().unwrap_or(0);
            let header = processor.wal_header_len(&file) as usize;

            // Every maximal differing run past the header, cut at
            // `chunk_size`.
            let mut runs = Vec::new();
            let mut pos = skip_below.max(header);
            while pos < local.len() {
                if image[pos] == Some(local[pos]) {
                    pos += 1;
                    continue;
                }
                let start = pos;
                while pos < local.len()
                    && image[pos] != Some(local[pos])
                    && pos - start < chunk_size
                {
                    pos += 1;
                }
                runs.push(start..pos);
            }
            runs
        };
        let (run_names, jobs): (Vec<_>, Vec<_>) = runs
            .into_iter()
            .map(|run| {
                let name = WalObjectName {
                    ts: view.alloc_wal_ts(),
                    file: file.clone(),
                    offset: run.start as u64,
                    len: run.len() as u64,
                };
                let job = SealPut {
                    name: name.to_name(),
                    raw: local[run].to_vec(),
                };
                (name, job)
            })
            .unzip();
        seal_put_wave(exec, codec, stats, &direct_put, jobs, |idx, _| {
            view.add_wal(run_names[idx].clone());
            objects += 1;
            Ok(())
        })?;
    }
    Ok(objects)
}

fn read_db_files(
    fs: &dyn FileSystem,
    processor: &dyn DbmsProcessor,
) -> Result<Vec<FileRange>, GinjaError> {
    let mut entries = Vec::new();
    for path in fs.list("")? {
        if processor.is_db_file(&path) {
            let data = fs.read_all(&path)?;
            entries.push(FileRange {
                path,
                offset: 0,
                data,
            });
        }
    }
    Ok(entries)
}

/// A durable PUT ([`GiveUp::Durable`]): returns once the object is
/// durable, or with [`GinjaError::ShutDown`] once shutdown stopped its
/// retries. It never gives up on its own: a WAL object that is never
/// uploaded blocks the DBMS at the Safety limit, which is exactly the
/// intended behavior (block, don't lose data).
fn put_durable(shared: &Shared, name: &str, sealed: &[u8]) -> Result<(), GinjaError> {
    shared
        .cloud
        .retrying(GiveUp::Durable, &shared.stop)
        .put(name, sealed)
        .map_err(|err| {
            if shared.stop.is_stopped() {
                GinjaError::ShutDown
            } else {
                err.into()
            }
        })
}

/// Outcome of fetching one part of an existing DB object for a
/// timestamp-collision merge.
enum PartFetch {
    /// The part was fetched and unsealed.
    Bytes(Vec<u8>),
    /// The part is gone or undecodable — recovery could not have used
    /// the old generation either, so replacing it outright is safe.
    Unusable,
    /// Shutdown was requested mid-retry.
    Shutdown,
}

/// Fetches one DB-object part with a durable GET, as stubborn as
/// [`put_durable`]. Giving up on a transient error here is not an
/// option: a skipped collision merge uploads a non-superset object at
/// the same timestamp, which can outrank the old generation at recovery
/// while lacking the only image of some of its pages (silent data
/// loss). Only proof that the part is gone or damaged makes the old
/// generation unusable.
fn fetch_part(shared: &Shared, name: &str) -> PartFetch {
    match shared
        .cloud
        .retrying(GiveUp::Durable, &shared.stop)
        .get(name)
    {
        Ok(sealed) => match shared.codec.open(name, &sealed) {
            Ok(raw) => PartFetch::Bytes(raw),
            // Tampered or corrupt: unusable for recovery too.
            Err(_) => PartFetch::Unusable,
        },
        Err(StoreError::NotFound(_) | StoreError::Corrupt(_)) => PartFetch::Unusable,
        // A durable GET returns any other error only at shutdown.
        Err(_) => PartFetch::Shutdown,
    }
}

/// The one WAL-object upload: seal, PUT until durable, account, recycle
/// both buffers (they feed this thread's next `bufpool::take`, so the
/// steady-state upload path stops allocating per object), and only then
/// register the object in the view — so the view, and through it GC and
/// recovery, never names an object that is not durable.
fn upload_wal_object(shared: &Shared, wal: WalObjectName, raw: Vec<u8>) -> Result<(), GinjaError> {
    let stats = &shared.stats;
    let name = wal.to_name();
    let sealed = seal_timed(&shared.codec, stats, &name, &raw)?;
    // Time-to-durable including the retries: that is what the queue
    // (and so the DBMS) actually waits on. `put_durable` itself records
    // nothing, so every object lands in the histogram once — here or
    // in `seal_put_wave`.
    let put_start = Instant::now();
    put_durable(shared, &name, &sealed)?;
    stats.put_histo.record(put_start.elapsed());
    stats.wal_objects_uploaded.fetch_add(1, Ordering::Relaxed);
    stats
        .wal_bytes_raw
        .fetch_add(raw.len() as u64, Ordering::Relaxed);
    stats
        .wal_bytes_sealed
        .fetch_add(sealed.len() as u64, Ordering::Relaxed);
    bufpool::recycle(sealed);
    bufpool::recycle(raw);
    shared.view.lock().add_wal(wal);
    Ok(())
}

/// Figure 3's uploader, and the paper's Aggregator while idle: under the
/// batch turn it takes the next batch, aggregates it, gives each object
/// the next WAL ts and manifests the batch, so batch order = ts order =
/// ack order however many uploaders race. Turn released, it uploads the
/// objects in order. A partial batch is thus sealed only when an
/// uploader is free to carry it; while all are busy the queue fills, up
/// to S. During an outage `put_durable` simply blocks here.
///
/// A seal failure stops the uploader rather than ack a batch whose bytes
/// never reached the cloud: the DBMS blocks at the Safety limit and the
/// fault surfaces via `Exposure::fatal`, not as silent data loss.
fn uploader_loop(shared: &Shared) {
    let ack = |items| shared.queue.ack_front(items);
    loop {
        let (batch_id, objects) = {
            let mut turn = shared.batch_turn.lock().expect("batch turn poisoned");
            let Some(batch) = shared.queue.take_batch() else {
                return;
            };
            let ranges = agg::aggregate(&batch, shared.config.max_object_size);
            let mut view = shared.view.lock();
            let objects: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let ts = view.alloc_wal_ts();
                    let len = range.data.len() as u64;
                    (
                        WalObjectName {
                            ts,
                            file: range.file,
                            offset: range.offset,
                            len,
                        },
                        range.data,
                    )
                })
                .collect();
            drop(view);
            let batch_id = *turn;
            *turn += 1;
            shared.stats.batches_formed.fetch_add(1, Ordering::Relaxed);
            shared
                .acks
                .manifest(batch_id, batch.len(), objects.len(), ack);
            (batch_id, objects)
        };
        for (name, raw) in objects {
            match upload_wal_object(shared, name, raw) {
                Ok(()) => shared.acks.complete(batch_id, ack),
                Err(GinjaError::ShutDown) => return,
                Err(_) => {
                    shared.stats.pipeline_fatals.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

fn checkpointer_loop(shared: &Shared) {
    while let Some(mut job) = shared.ckpt_queue.pop() {
        // Timestamp collision (two checkpoints with no commits between
        // them): merge with the DB object that counts at this ts, and
        // delete every generation there once the merge is durable.
        //
        // The generation order every reader of the view shares — same
        // ts, larger size wins — is only sound because the later upload
        // is a strict superset of the earlier one. A failed merge fetch
        // must therefore NOT silently degrade to "skip the merge": the
        // resulting non-superset can out-size (and so outrank) the old
        // object while lacking the only durable image of some of its
        // pages, whose WAL a later GC deletes — silent page-level row
        // loss. (Observed as the chaos_short_postgres flake: the merge
        // GETs met a non-retryable error that said nothing about the
        // object.)
        // Transient errors are retried as stubbornly as put_durable;
        // a generation that is provably unusable (gone or undecodable —
        // recovery could not use it either) is instead replaced
        // outright: removed from the view and deleted, so it can never
        // outrank this upload.
        let existing = shared.view.lock().db_entry(job.ts).cloned();
        if let Some(entry) = existing {
            let part_names: Vec<String> = entry.parts.iter().map(|p| p.to_name()).collect();
            let fetched = shared
                .fanout
                .run_collect(part_names, |_, name| {
                    Ok::<_, GinjaError>(fetch_part(shared, &name))
                })
                .unwrap_or_default();
            if fetched.iter().any(|f| matches!(f, PartFetch::Shutdown)) {
                shared.pending_ckpt_jobs.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            let usable = fetched.len() == entry.parts.len()
                && fetched.iter().all(|f| matches!(f, PartFetch::Bytes(_)));
            if usable {
                let old_parts: Vec<Vec<u8>> = fetched
                    .into_iter()
                    .map(|f| match f {
                        PartFetch::Bytes(b) => b,
                        _ => unreachable!("checked above"),
                    })
                    .collect();
                if let Ok(mut old_entries) = bundle::decode(&bundle::reassemble(old_parts)) {
                    old_entries.extend(job.entries);
                    job.entries = old_entries;
                    if entry.kind == DbObjectKind::Dump {
                        job.kind = DbObjectKind::Dump;
                    }
                }
                // An unreassemblable bundle is unusable garbage: fall
                // through and replace it.
            }
        }

        let bytes = bundle::encode(&job.entries);
        let total = bytes.len() as u64;
        let parts = bundle::chunk(bytes, shared.config.max_object_size);
        let n = parts.len() as u32;
        // Seal + PUT the parts as one concurrent wave. In-order durable
        // completion means `uploaded` (and hence the view update below,
        // which is what makes the checkpoint visible to recovery) only
        // ever extends over a durable prefix — a crash mid-wave leaves
        // orphan parts, exactly as the old serial loop did, never a
        // checkpoint that claims parts the cloud does not hold.
        let mut names = Vec::new();
        let mut jobs = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let name = DbObjectName {
                ts: job.ts,
                kind: job.kind,
                size: total,
                part: i as u32,
                parts: n,
            };
            jobs.push(SealPut {
                name: name.to_name(),
                raw: part,
            });
            names.push(name);
        }
        let durable_put = |name: &str, sealed: &[u8]| put_durable(shared, name, sealed);
        let mut uploaded = Vec::new();
        let wave = seal_put_wave(
            &shared.fanout,
            &shared.codec,
            &shared.stats,
            &durable_put,
            jobs,
            |idx, sealed_len| {
                shared
                    .stats
                    .db_objects_uploaded
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .db_bytes_sealed
                    .fetch_add(sealed_len, Ordering::Relaxed);
                uploaded.push(names[idx].clone());
                Ok(())
            },
        );
        if let Err(err) = wave {
            if !matches!(err, GinjaError::ShutDown) {
                // A seal failure (not a shutdown) is fatal to the data
                // path: the checkpoint never becomes visible, and the
                // fault surfaces via `Exposure::fatal`.
                shared.stats.pipeline_fatals.fetch_add(1, Ordering::Relaxed);
            }
            shared.pending_ckpt_jobs.fetch_sub(1, Ordering::SeqCst);
            return;
        }

        // The DB object is fully durable: update the view, then collect
        // garbage (Algorithm 3 lines 22–29). Order matters — WAL objects
        // are deleted only after the covering DB object is durable.
        let uploaded_names: Vec<String> = uploaded.iter().map(|n| n.to_name()).collect();

        let (wal_garbage, db_garbage) = {
            let mut view = shared.view.lock();
            // Merged or replaced, every generation at this ts is
            // superseded, a loser left by an aborted upload or a failed
            // DELETE included. A merge can reproduce an identical name
            // (same ts/kind/size): that object was just overwritten in
            // place — never delete it.
            let mut db_garbage: Vec<String> = view
                .remove_db_at(job.ts)
                .iter()
                .map(|p| p.to_name())
                .filter(|name| !uploaded_names.contains(name))
                .collect();
            for name in uploaded {
                view.add_db_part(name);
            }

            // Point-in-time retention: keep the newest (keep_snapshots
            // + 1) dump chains and all WAL since the oldest retained
            // dump — the floor, the oldest restorable point; without
            // PITR, standard Algorithm 3 GC applies.
            let pitr_floor = shared.config.pitr.map(|pitr| {
                let dumps = view.dump_timestamps();
                let keep = pitr.keep_snapshots + 1;
                if dumps.len() > keep {
                    dumps[dumps.len() - keep]
                } else {
                    *dumps.first().unwrap_or(&0)
                }
            });
            let wal_cutoff = pitr_floor.map_or(job.ts, |floor| job.ts.min(floor));
            // Algorithm 3's rule (delete everything up to the
            // checkpoint's timestamp) is only sound when checkpoints
            // flush every dirty page; for fuzzy checkpointers only WAL
            // the DBMS demonstrably rewrote may go, and under PITR only
            // when every restorable point applies the rewrite (see
            // CloudView::remove_covered_wal).
            let wal_garbage = if shared.processor.checkpoints_flush_all_dirty_pages() {
                view.remove_wal_up_to(wal_cutoff)
            } else {
                view.remove_covered_wal(wal_cutoff, pitr_floor.unwrap_or(u64::MAX))
            };
            let wal_garbage: Vec<String> = wal_garbage.iter().map(|w| w.to_name()).collect();

            if job.kind == DbObjectKind::Dump {
                let cutoff = pitr_floor.unwrap_or(job.ts);
                db_garbage.extend(view.remove_db_before(cutoff).iter().map(|d| d.to_name()));
            }
            (wal_garbage, db_garbage)
        };

        // GC pass: retry earlier deferred deletes first (a persistently
        // failed delete is a cost leak, never a correctness problem —
        // but "forever" is not an acceptable leak duration), then the
        // garbage this checkpoint produced. Each is one bounded delete;
        // only proof that the object is gone (deleted, or `NotFound`)
        // or shutdown, when the backlog would never drain anyway,
        // settles it. Everything else is deferred to the next
        // checkpoint — the object has already left the view, so
        // treating an error as "done" would orphan it.
        let backlog: BTreeSet<String> = std::mem::take(&mut *shared.gc_backlog.lock());
        let gc = shared.cloud.retrying(GiveUp::Bounded, &shared.stop);
        let mut deferred = Vec::new();
        for name in backlog
            .iter()
            .chain(wal_garbage.iter())
            .chain(db_garbage.iter())
        {
            let settled = match gc.delete(name) {
                Ok(()) => {
                    shared.stats.gc_deletes.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(StoreError::NotFound(_)) => true,
                Err(_) => shared.stop.is_stopped(),
            };
            if !settled {
                shared
                    .stats
                    .gc_deletes_deferred
                    .fetch_add(1, Ordering::Relaxed);
                deferred.push(name.clone());
            }
        }
        if !deferred.is_empty() {
            // Re-queue deduplicated (a name can be deferred repeatedly
            // during an outage) and capped: past GC_BACKLOG_CAP the
            // newcomer is dropped and counted — a bounded cost leak,
            // never unbounded RAM: Reboot's LIST re-adopts the name and
            // the next checkpoint's GC deletes it.
            let mut gc_backlog = shared.gc_backlog.lock();
            for name in deferred {
                if gc_backlog.contains(&name) {
                    continue;
                }
                if gc_backlog.len() >= GC_BACKLOG_CAP {
                    shared
                        .stats
                        .gc_backlog_dropped
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    gc_backlog.insert(name);
                }
            }
        }
        shared.pending_ckpt_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DbObjectKind::{Checkpoint, Dump};

    fn part(ts: u64, kind: DbObjectKind, size: u64) -> DbObjectName {
        let (part, parts) = (0, 1);
        DbObjectName {
            ts,
            kind,
            size,
            part,
            parts,
        }
    }

    #[test]
    fn decided_db_counts_each_retained_chain() {
        let mut view = CloudView::new();
        for (ts, kind, size) in [(0, Dump, 100), (3, Checkpoint, 10), (5, Dump, 90)] {
            view.add_db_part(part(ts, kind, size));
        }
        view.add_db_part(part(7, Checkpoint, 20));

        // Without PITR the newest chain is what the bucket keeps.
        let mut newest = DecidedDb::from_view(&view, 1);
        assert_eq!(newest.total(), 110);
        newest.record(Checkpoint, 5);
        assert_eq!(newest.total(), 115);
        newest.record(Dump, 95);
        assert_eq!(newest.total(), 95);

        // PITR keeping one older chain: both count, the third goes.
        let mut two = DecidedDb::from_view(&view, 2);
        assert_eq!(two.total(), 220);
        two.record(Dump, 95);
        assert_eq!(two.total(), 205);
    }
}
