//! The checkpoint stage (the paper's Algorithm 3): page writes gather
//! into the open checkpoint, its end decides dump vs incremental and
//! queues a job, and the checkpointer thread runs one job per step —
//! timestamp-collision merge → DB-object write → view update → GC.
//!
//! What the commit queue's S does not bound is checkpoint jobs, which
//! carry page images. [`CkptQueue`] bounds them instead: they are
//! mergeable by construction (the checkpointer already merges timestamp
//! collisions), so at capacity the newest queued job absorbs the
//! incoming one (DESIGN.md §15).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

use ginja_cloud::{GiveUp, ObjectStore, StoreError};
use ginja_vfs::WriteEvent;
use parking_lot::{Condvar, Mutex};

use crate::agg;
use crate::bundle::{self, FileRange};
use crate::ginja::Shared;
use crate::names::{DbObjectKind, DbObjectName};
use crate::startup::read_db_files;
use crate::upload::{put_durable, seal_put_wave, PutFn, SealPut};
use crate::view::CloudView;
use crate::GinjaError;

/// Deferred-GC backlog cap: beyond this many distinct garbage names the
/// oldest leak-retry candidates win and newcomers are dropped (counted
/// in `gc_backlog_dropped`). A dropped name is a bounded cost leak, not
/// a correctness problem: Reboot's LIST re-adopts the name and the next
/// checkpoint's GC deletes it.
const GC_BACKLOG_CAP: usize = 4096;

/// Checkpoint jobs queued for upload before the next one coalesces
/// into the newest (see [`CkptQueue`]): checkpoint RAM stays bounded
/// at this many jobs however long the cloud is gone.
pub(crate) const CKPT_QUEUE_CAPACITY: usize = 8;

/// Checkpoint accumulation state (the paper's Algorithm 3 lines 1–16).
pub(crate) struct CkptAccum {
    /// The open checkpoint's timestamp — the view's watermark when its
    /// first write arrived — or `None` between checkpoints.
    open: Option<u64>,
    /// The next checkpoint is a dump whatever the dump rule says: set by
    /// Reboot, whose local database files may hold pages no DB object
    /// carries.
    dump_next: bool,
    ranges: BTreeMap<String, BTreeMap<u64, Vec<u8>>>,
    pub(crate) decided: DecidedDb,
}

/// What the dump rule counts (Algorithm 3 line 8): the bundle size of
/// every DB object decided since the last dump decision — the dump and
/// each checkpoint after it — one total per dump chain the bucket keeps
/// (the newest, or the `keep_snapshots + 1` newest under PITR). Sizes
/// are counted when decided, not when durable, so the rule is a
/// function of the checkpoints alone: neither upload speed nor queue
/// coalescing moves it.
pub(crate) struct DecidedDb {
    /// Per-chain totals, oldest first; at most `keep` of them.
    chains: VecDeque<u64>,
    keep: usize,
}

impl DecidedDb {
    /// The totals of the DB objects `view` holds, chain by chain.
    fn from_view(view: &CloudView, keep: usize) -> Self {
        let mut decided = DecidedDb {
            chains: VecDeque::new(),
            keep,
        };
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
    pub(crate) fn record(&mut self, kind: DbObjectKind, size: u64) {
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
    /// No checkpoint open; the dump rule counts what `view` holds, per
    /// chain the bucket keeps.
    pub(crate) fn new(view: &CloudView, chains_kept: usize, dump_next: bool) -> Self {
        CkptAccum {
            open: None,
            dump_next,
            ranges: BTreeMap::new(),
            decided: DecidedDb::from_view(view, chains_kept),
        }
    }

    /// Folds one checkpoint write into the open checkpoint, opening one
    /// at `view`'s watermark if none is — a checkpoint that flushed no
    /// data pages still moves the control record and forms a (tiny) DB
    /// object. The path becomes an owned key only on the file's first
    /// write in a checkpoint.
    fn apply(&mut self, event: &WriteEvent, view: &Mutex<CloudView>) {
        self.open.get_or_insert_with(|| view.lock().watermark());
        match self.ranges.get_mut(&*event.path) {
            Some(ranges) => agg::apply(ranges, event.offset, &event.data),
            None => {
                let ranges = self.ranges.entry(event.path.to_string()).or_default();
                agg::apply(ranges, event.offset, &event.data);
            }
        }
    }

    /// Checkpoint end: closes the open checkpoint and decides dump vs
    /// incremental (Alg. 3 l. 8–16).
    fn end(&mut self, shared: &Shared) -> CkptJob {
        let ts = self
            .open
            .take()
            .expect("a checkpoint end follows its apply");
        let ranges = bundle::from_ranges(std::mem::take(&mut self.ranges));
        let local_db_size = local_db_size(shared);
        let dump_due = self.dump_next
            || local_db_size > 0
                && self.decided.total() as f64
                    >= shared.config.dump_threshold * local_db_size as f64;
        let mut job = CkptJob {
            ts,
            kind: DbObjectKind::Checkpoint,
            entries: ranges,
        };
        // Full dump, read synchronously here: this blocks the DBMS's
        // write path (not its commits in a multi-threaded DBMS), which
        // is the paper's consistency argument for dumps ("Ginja will not
        // execute any write in the local DB files while the dump object
        // is being created"). A failed read leaves the job incremental.
        if dump_due {
            if let Ok(mut entries) = read_db_files(shared.fs.as_ref(), shared.processor.as_ref()) {
                // The files just read already hold every page this
                // checkpoint wrote (`InterceptFs` writes locally before
                // it raises the event), so of its ranges the dump
                // carries only those outside the database files: for
                // MySQL the checkpoint *control block* inside
                // `ib_logfile0`, a WAL file, which recovery needs after
                // this dump's GC deletes the checkpoint objects that
                // used to carry it.
                let processor = shared.processor.as_ref();
                entries.extend(
                    job.entries
                        .into_iter()
                        .filter(|r| !processor.is_db_file(&r.path)),
                );
                job.entries = entries;
                job.kind = DbObjectKind::Dump;
                self.dump_next = false;
            }
        }
        self.decided
            .record(job.kind, bundle::encoded_len(&job.entries));
        job
    }
}

fn local_db_size(shared: &Shared) -> u64 {
    let Ok(files) = shared.fs.list("") else {
        return 0;
    };
    files
        .iter()
        .filter(|f| shared.processor.is_db_file(f))
        .filter_map(|f| shared.fs.len(f).ok())
        .sum()
}

/// A data-page write: folded into the open checkpoint.
pub(crate) fn page_write(shared: &Shared, event: &WriteEvent) {
    shared.accum.lock().apply(event, &shared.view);
}

/// A control-file write ends the checkpoint; its job is queued for the
/// checkpointer.
pub(crate) fn checkpoint_end(shared: &Shared, event: &WriteEvent) {
    let job = {
        let mut accum = shared.accum.lock();
        accum.apply(event, &shared.view);
        accum.end(shared)
    };
    let stats = &shared.stats;
    stats.checkpoints_seen.fetch_add(1, Ordering::Relaxed);
    if job.kind == DbObjectKind::Dump {
        stats.dumps_uploaded.fetch_add(1, Ordering::Relaxed);
    }
    if shared.ckpt_queue.push(job) == CkptPush::Coalesced {
        stats.ckpt_coalesced.fetch_add(1, Ordering::Relaxed);
    }
}

/// The one DB-object writer, for Boot's ts-0 dump and every checkpoint:
/// encodes `entries` as one bundle, chunks it at `max_object_size`,
/// names the parts and seals + PUTs them through `put` as one wave.
/// Returns the parts, all durable, and their sealed bytes; the caller
/// registers them in the view, so recovery never sees a DB object
/// whose parts the cloud does not all hold (a crash mid-wave leaves
/// orphan parts only).
pub(crate) fn write_db_object(
    shared: &Shared,
    put: PutFn<'_>,
    ts: u64,
    kind: DbObjectKind,
    entries: &[FileRange],
) -> Result<(Vec<DbObjectName>, u64), GinjaError> {
    let bytes = bundle::encode(entries);
    let size = bytes.len() as u64;
    let parts = bundle::chunk(bytes, shared.config.max_object_size);
    let n = parts.len() as u32;
    let (names, jobs): (Vec<_>, Vec<_>) = (0..n)
        .zip(parts)
        .map(|(part, raw)| {
            let name = DbObjectName {
                ts,
                kind,
                size,
                part,
                parts: n,
            };
            let job = SealPut {
                name: name.to_name(),
                raw,
            };
            (name, job)
        })
        .unzip();
    let mut sealed = 0;
    seal_put_wave(shared, put, jobs, |_, len| {
        sealed += len;
        Ok(())
    })?;
    Ok((names, sealed))
}

/// Figure 3's checkpointer: one job per step until the queue closes and
/// drains. A shutdown or a fatal error (a seal failure) ends the
/// thread; the job is settled either way.
pub(crate) fn checkpointer_loop(shared: &Shared) {
    while let Some(job) = shared.ckpt_queue.pop() {
        let stopped = run_job(shared, job).map_err(|err| shared.stop_on(err));
        shared.ckpt_queue.settle();
        if stopped.is_err() {
            return;
        }
    }
}

/// One checkpoint job: collision merge → DB-object write → view update
/// → GC (Algorithm 3 lines 17–29).
fn run_job(shared: &Shared, mut job: CkptJob) -> Result<(), GinjaError> {
    merge_collision(shared, &mut job)?;
    let durable_put = |name: &str, sealed: &[u8]| put_durable(shared, name, sealed);
    let (parts, sealed) = write_db_object(shared, &durable_put, job.ts, job.kind, &job.entries)?;
    let stats = &shared.stats;
    let n = parts.len() as u64;
    stats.db_objects_uploaded.fetch_add(n, Ordering::Relaxed);
    stats.db_bytes_sealed.fetch_add(sealed, Ordering::Relaxed);
    // The DB object is fully durable: update the view, then collect
    // garbage. Order matters — WAL objects are deleted only after the
    // covering DB object is durable.
    let garbage = update_view(shared, &job, parts);
    collect_garbage(shared, garbage);
    Ok(())
}

/// Timestamp collision (two checkpoints with no commits between them):
/// folds the DB object that counts at `job.ts` into `job` — old entries
/// first — so the upload is a strict superset of it.
///
/// The generation order every reader of the view shares — same ts,
/// larger size wins — is only sound because the later upload is a
/// strict superset of the earlier one. A failed merge fetch must
/// therefore NOT silently degrade to "skip the merge": the resulting
/// non-superset can out-size (and so outrank) the old object while
/// lacking the only durable image of some of its pages, whose WAL a
/// later GC deletes — silent page-level row loss. (Observed as the
/// chaos_short_postgres flake: the merge GETs met a non-retryable error
/// that said nothing about the object.) Transient errors are retried as
/// stubbornly as [`put_durable`]; a generation that is provably unusable
/// (gone or undecodable — recovery could not use it either) is instead
/// replaced outright: `update_view` removes every generation at this ts
/// and deletes it, so it can never outrank this upload.
fn merge_collision(shared: &Shared, job: &mut CkptJob) -> Result<(), GinjaError> {
    let Some(entry) = shared.view.lock().db_entry(job.ts).cloned() else {
        return Ok(());
    };
    let part_names: Vec<String> = entry.parts.iter().map(|p| p.to_name()).collect();
    let fetched = shared
        .fanout
        .run_collect(part_names, |_, name| {
            Ok::<_, GinjaError>(fetch_part(shared, &name))
        })
        .unwrap_or_default();
    if fetched.iter().any(|f| matches!(f, PartFetch::Shutdown)) {
        return Err(GinjaError::ShutDown);
    }
    let old_parts: Option<Vec<Vec<u8>>> = fetched
        .into_iter()
        .map(|f| match f {
            PartFetch::Bytes(b) => Some(b),
            _ => None,
        })
        .collect();
    // An unusable or unreassemblable bundle is garbage: replace it.
    let usable = old_parts.filter(|parts| parts.len() == entry.parts.len());
    if let Some(Ok(mut old_entries)) = usable.map(|p| bundle::decode(&bundle::reassemble(p))) {
        old_entries.append(&mut job.entries);
        job.entries = old_entries;
        if entry.kind == DbObjectKind::Dump {
            job.kind = DbObjectKind::Dump;
        }
    }
    Ok(())
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

/// Registers the durable `parts` of `job`'s DB object in the view and
/// takes out what it made garbage (Algorithm 3 lines 22–29): every
/// other generation at its ts, the WAL it covers and, for a dump, the
/// DB objects before it. Returns the garbage names.
fn update_view(shared: &Shared, job: &CkptJob, parts: Vec<DbObjectName>) -> Vec<String> {
    let uploaded: Vec<String> = parts.iter().map(|n| n.to_name()).collect();
    let mut view = shared.view.lock();
    // Merged or replaced, every generation at this ts is superseded, a
    // loser left by an aborted upload or a failed DELETE included. A
    // merge can reproduce an identical name (same ts/kind/size): that
    // object was just overwritten in place — never delete it.
    let mut garbage: Vec<String> = view
        .remove_db_at(job.ts)
        .iter()
        .map(|p| p.to_name())
        .filter(|name| !uploaded.contains(name))
        .collect();
    for part in parts {
        view.add_db_part(part);
    }

    // Point-in-time retention: keep the newest (keep_snapshots + 1)
    // dump chains and all WAL since the oldest retained dump — the
    // floor, the oldest restorable point; without PITR, standard
    // Algorithm 3 GC applies.
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
    // Algorithm 3's rule (delete everything up to the checkpoint's
    // timestamp) is only sound when checkpoints flush every dirty page;
    // for fuzzy checkpointers only WAL the DBMS demonstrably rewrote may
    // go, and under PITR only when every restorable point applies the
    // rewrite (see CloudView::remove_covered_wal).
    let wal_garbage = if shared.processor.checkpoints_flush_all_dirty_pages() {
        view.remove_wal_up_to(wal_cutoff)
    } else {
        view.remove_covered_wal(wal_cutoff, pitr_floor.unwrap_or(u64::MAX))
    };
    let mut names: Vec<String> = wal_garbage.iter().map(|w| w.to_name()).collect();
    if job.kind == DbObjectKind::Dump {
        let cutoff = pitr_floor.unwrap_or(job.ts);
        garbage.extend(view.remove_db_before(cutoff).iter().map(|d| d.to_name()));
    }
    names.append(&mut garbage);
    names
}

/// The GC pass: retries earlier deferred deletes first (a persistently
/// failed delete is a cost leak, never a correctness problem — but
/// "forever" is not an acceptable leak duration), then `garbage`. Each
/// is one bounded delete; only proof that the object is gone (deleted,
/// or `NotFound`) or shutdown, when the backlog would never drain
/// anyway, settles it. Everything else is deferred to the next
/// checkpoint — the object has already left the view, so treating an
/// error as "done" would orphan it.
fn collect_garbage(shared: &Shared, garbage: Vec<String>) {
    let stats = &shared.stats;
    let backlog: BTreeSet<String> = std::mem::take(&mut *shared.gc_backlog.lock());
    let gc = shared.cloud.retrying(GiveUp::Bounded, &shared.stop);
    let mut deferred = Vec::new();
    for name in backlog.into_iter().chain(garbage) {
        let settled = match gc.delete(&name) {
            Ok(()) => {
                stats.gc_deletes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(StoreError::NotFound(_)) => true,
            Err(_) => shared.stop.is_stopped(),
        };
        if !settled {
            stats.gc_deletes_deferred.fetch_add(1, Ordering::Relaxed);
            deferred.push(name);
        }
    }
    // Re-queue deduplicated (a name can be deferred repeatedly during an
    // outage) and capped: past GC_BACKLOG_CAP the newcomer is dropped
    // and counted — a bounded cost leak, never unbounded RAM: Reboot's
    // LIST re-adopts the name and the next checkpoint's GC deletes it.
    let mut gc_backlog = shared.gc_backlog.lock();
    for name in deferred {
        if gc_backlog.contains(&name) {
            continue;
        }
        if gc_backlog.len() >= GC_BACKLOG_CAP {
            stats.gc_backlog_dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            gc_backlog.insert(name);
        }
    }
}

/// A checkpoint ready to become a DB object.
pub(crate) struct CkptJob {
    pub(crate) ts: u64,
    pub(crate) kind: DbObjectKind,
    pub(crate) entries: Vec<FileRange>,
}

/// What [`CkptQueue::push`] did with the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CkptPush {
    /// Enqueued as its own job, and counted until settled.
    Queued,
    /// Absorbed into the newest queued job (the queue was at capacity).
    /// Not counted: two logical checkpoints complete as one.
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
///
/// It is also the one owner of the checkpoint count that `Ginja::sync`
/// and `Ginja::exposure` read: a queued job counts from its push until
/// the checkpointer [settles](CkptQueue::settle) it.
pub(crate) struct CkptQueue {
    inner: Mutex<CkptInner>,
    not_empty: Condvar,
    capacity: usize,
}

struct CkptInner {
    items: VecDeque<CkptJob>,
    /// Jobs queued or running: pushed as `Queued`, not yet settled.
    unsettled: usize,
    closed: bool,
}

impl CkptQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        CkptQueue {
            inner: Mutex::new(CkptInner {
                items: VecDeque::with_capacity(capacity.max(1)),
                unsettled: 0,
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
        inner.unsettled += 1;
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

    /// A popped job is done with — durable, or abandoned at shutdown.
    pub(crate) fn settle(&self) {
        self.inner.lock().unsettled -= 1;
    }

    /// Checkpoints queued or running: the count `Ginja::sync` waits on.
    pub(crate) fn unsettled(&self) -> usize {
        self.inner.lock().unsettled
    }

    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
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
    fn image<'a>(entries: impl IntoIterator<Item = &'a FileRange>) -> BTreeMap<(String, u64), u8> {
        let mut image = BTreeMap::new();
        for e in entries {
            for (i, byte) in e.data.iter().enumerate() {
                image.insert((e.path.clone(), e.offset + i as u64), *byte);
            }
        }
        image
    }

    #[test]
    fn ckpt_queue_coalesces_at_capacity() {
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
        // A coalesced push is not counted: two jobs until settled.
        assert_eq!(q.unsettled(), 2);

        let first = q.pop().unwrap();
        assert_eq!(first.ts, 1);
        assert_eq!(first.entries.len(), 1);
        assert_eq!(q.unsettled(), 2, "a popped job counts until settled");
        q.settle();

        // The newest job absorbed both overflow jobs: max ts, sticky
        // Dump, the same image, and no byte carried twice.
        let merged = q.pop().unwrap();
        assert_eq!(merged.ts, 4);
        assert_eq!(merged.kind, Dump);
        let got = image(&merged.entries);
        assert_eq!(got, want);
        let carried: usize = merged.entries.iter().map(|e| e.data.len()).sum();
        assert_eq!(carried, got.len(), "a byte is carried twice");
        q.settle();
        assert_eq!(q.unsettled(), 0);
    }

    #[test]
    fn ckpt_queue_close_drains_then_ends() {
        let q = CkptQueue::new(4);
        q.push(ckpt(1, Checkpoint, &[("a", 0, b"1")]));
        q.close();
        assert_eq!(
            q.push(ckpt(2, Checkpoint, &[("a", 0, b"2")])),
            CkptPush::Closed
        );
        assert_eq!(q.unsettled(), 1, "a closed push is not counted");
        assert_eq!(q.pop().unwrap().ts, 1);
        assert!(q.pop().is_none());
    }
}
