//! The apply engine: the fetch-and-rebuild half of recovery, factored
//! out of [`crate::recovery::recover_to_point`] so that a *standby*
//! (`ginja-standby`) can drive the very same pipeline incrementally.
//!
//! There is one primitive, a plan-driven **fetch → open → apply**
//! pipeline, and two plan builders over it:
//!
//! * [`ApplyEngine::cold_apply`] — steps 2–5 of Algorithm 1 against a
//!   full [`CloudView`] (cold recovery, point-in-time recovery, a
//!   standby's rebase);
//! * [`ApplyEngine::apply_delta`] — the WAL objects and checkpoint
//!   entries a standby found new since its last cycle, against the same
//!   [`ApplyProgress`].
//!
//! A plan is one job list in **issue order**: the parts of the dump,
//! then the parts of every checkpoint ascending, then the WAL objects
//! ascending — the large objects go out first, so their transfer and
//! decode overlap the many small WAL round trips. Workers GET an object
//! (at most `recovery_fanout` in flight; the slot covers the GET only)
//! and then verify, decrypt and decompress it. The caller's thread
//! receives the results strictly in issue order while later GETs are in
//! flight and turns them into the **apply order** of DESIGN.md §7, the
//! one place that order is argued: the dump is applied when its last
//! part is delivered, ahead of every WAL object; checkpoint parts are
//! stashed as they arrive and applied after the wave, so an error on
//! object *k* of the plan leaves no checkpoint and no WAL object after
//! *k* applied. A pass is one wave ([`FanoutExecutor::run_staged`]).
//!
//! The engine is deliberately transient: it borrows the file system,
//! cloud, codec and fan-out handle for the duration of a pass, while
//! the cumulative state (the [`crate::RecoveryReport`] counters and the
//! distinct-files-written set) lives in the caller-owned
//! [`ApplyProgress`] that survives across passes.

use std::collections::BTreeSet;

use ginja_cloud::ObjectStore;
use ginja_codec::Codec;
use ginja_vfs::FileSystem;

use crate::bundle;
use crate::fanout::FanoutExecutor;
use crate::names::{DbObjectKind, WalObjectName};
use crate::recovery::RecoveryReport;
use crate::view::{CloudView, DbEntry};
use crate::GinjaError;

/// Cumulative apply state: the recovery counters plus the set of
/// distinct files written, carried across engine passes. Cold recovery
/// uses one for the whole run; a standby keeps one alive for the whole
/// tail session so `files_written` deduplicates across cycles.
#[derive(Debug, Clone, Default)]
pub struct ApplyProgress {
    report: RecoveryReport,
    files_written: BTreeSet<String>,
}

impl ApplyProgress {
    /// A fresh, empty progress record.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters so far, with `files_written` filled in from the
    /// distinct-path set.
    pub fn report(&self) -> RecoveryReport {
        let mut report = self.report.clone();
        report.files_written = self.files_written.len() as u64;
        report
    }

    /// Timestamp of the dump this progress is based on (0 before any
    /// dump was applied).
    pub fn dump_ts(&self) -> u64 {
        self.report.dump_ts
    }

    /// Timestamp of the newest WAL object applied (0 if none).
    pub fn max_wal_ts(&self) -> u64 {
        self.report.max_wal_ts
    }
}

/// What one pass fetches, in issue order.
struct Plan<'v> {
    /// The base dump (cold passes only).
    dump: Option<&'v DbEntry>,
    /// Complete checkpoint entries, ascending.
    ckpts: Vec<&'v DbEntry>,
    /// WAL objects, ascending.
    wal: Vec<&'v WalObjectName>,
}

/// Where a fetched object belongs in its [`Plan`].
#[derive(Clone, Copy)]
enum Slot {
    Dump,
    Ckpt(usize),
    Wal(usize),
}

/// The reusable fetch-and-apply half of recovery. See the module docs.
pub struct ApplyEngine<'a> {
    fs: &'a dyn FileSystem,
    cloud: &'a dyn ObjectStore,
    codec: &'a Codec,
    fanout: &'a FanoutExecutor,
}

impl<'a> ApplyEngine<'a> {
    /// Builds an engine over the target file system, the cloud to fetch
    /// from, the codec that seals its objects, and the fan-out handle
    /// that bounds GET concurrency.
    pub fn new(
        fs: &'a dyn FileSystem,
        cloud: &'a dyn ObjectStore,
        codec: &'a Codec,
        fanout: &'a FanoutExecutor,
    ) -> Self {
        ApplyEngine {
            fs,
            cloud,
            codec,
            fanout,
        }
    }

    /// Steps 2–5 of Algorithm 1 against a full [`CloudView`]: the most
    /// recent complete dump at or before `point`, every surviving WAL
    /// object up to `point` (older than the dump or past a gap alike —
    /// see the recovery module docs), and the incremental checkpoints
    /// between the dump and `point`.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Recovery`] when no usable dump exists; cloud, codec
    /// and file-system errors propagate.
    pub fn cold_apply(
        &self,
        view: &CloudView,
        point: u64,
        progress: &mut ApplyProgress,
    ) -> Result<(), GinjaError> {
        let (dump_ts, dump) = view
            .db_entries()
            .rfind(|(ts, e)| *ts <= point && e.kind == DbObjectKind::Dump && e.is_complete())
            .ok_or_else(|| GinjaError::Recovery("no usable dump in the cloud".into()))?;
        progress.report.dump_ts = dump_ts;
        let plan = Plan {
            dump: Some(dump),
            ckpts: view
                .checkpoints_after(dump_ts)
                .into_iter()
                .take_while(|(ts, _)| *ts <= point)
                .map(|(_, entry)| entry)
                .collect(),
            wal: view
                .wal_entries()
                .take_while(|wal| wal.ts <= point)
                .collect(),
        };
        self.run(plan, progress)
    }

    /// A standby's incremental pass over an already based shadow: `wal`
    /// (ascending, all above the applied frontier), then `ckpts`
    /// (complete entries, ascending).
    ///
    /// # Errors
    ///
    /// Cloud, codec and file-system errors propagate.
    pub fn apply_delta(
        &self,
        wal: Vec<&WalObjectName>,
        ckpts: Vec<&DbEntry>,
        progress: &mut ApplyProgress,
    ) -> Result<(), GinjaError> {
        let dump = None;
        self.run(Plan { dump, ckpts, wal }, progress)
    }

    /// The pipeline: one wave over the plan's objects in issue order,
    /// applied in the order of the module docs.
    fn run(&self, plan: Plan<'_>, progress: &mut ApplyProgress) -> Result<(), GinjaError> {
        let dump = plan.dump.map(|entry| (Slot::Dump, entry));
        let ckpts = plan.ckpts.iter().enumerate();
        let mut jobs: Vec<(Slot, String)> = dump
            .into_iter()
            .chain(ckpts.map(|(i, entry)| (Slot::Ckpt(i), *entry)))
            .flat_map(|(slot, entry)| entry.parts.iter().map(move |p| (slot, p.to_name())))
            .collect();
        let wal = plan.wal.iter().enumerate();
        jobs.extend(wal.map(|(k, wal)| (Slot::Wal(k), wal.to_name())));

        let wal_files: BTreeSet<&str> = plan.wal.iter().map(|w| w.file.as_str()).collect();
        let dump_len = plan.dump.map_or(0, |e| e.parts.len());
        let mut dump_parts: Vec<Vec<u8>> = Vec::new();
        let mut dump_in_wal_files: Vec<bundle::FileRange> = Vec::new();
        let mut ckpt_parts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); plan.ckpts.len()];
        let ApplyProgress {
            report,
            files_written,
        } = progress;

        self.fanout.run_staged(
            jobs,
            |_, (slot, name)| {
                let sealed = self.cloud.get(&name)?;
                Ok::<_, GinjaError>((slot, name, sealed))
            },
            |_, (slot, name, sealed)| {
                let data = self.codec.open(&name, &sealed)?;
                Ok((slot, sealed.len() as u64, data))
            },
            |_, (slot, sealed_len, data)| {
                report.bytes_downloaded += sealed_len;
                match slot {
                    // Parts arrive in part order; the last one completes
                    // the bundle. Dumps carry whole files, so any stale
                    // local content is replaced: the file is deleted on
                    // the first entry for each path (a merged dump may
                    // carry later incremental ranges for the same file).
                    Slot::Dump => {
                        dump_parts.push(data);
                        if dump_parts.len() < dump_len {
                            return Ok(());
                        }
                        let bytes = bundle::reassemble(std::mem::take(&mut dump_parts));
                        for range in bundle::decode(&bytes)? {
                            if files_written.insert(range.path.clone()) {
                                self.fs.delete(&range.path)?;
                            }
                            self.write(&range)?;
                            if wal_files.contains(range.path.as_str()) {
                                dump_in_wal_files.push(range);
                            }
                        }
                    }
                    Slot::Ckpt(i) => ckpt_parts[i].push(data),
                    Slot::Wal(k) => {
                        let wal = plan.wal[k];
                        self.fs.write(&wal.file, wal.offset, &data, false)?;
                        files_written.insert(wal.file.clone());
                        report.wal_objects_applied += 1;
                        report.max_wal_ts = report.max_wal_ts.max(wal.ts);
                    }
                }
                Ok(())
            },
        )?;

        // The dump's ranges inside files the WAL pass wrote, again: its
        // checkpoint control block — which for InnoDB lives inside a WAL
        // file — must override whatever pre-dump log images just rewrote
        // it. Ranges in files no WAL object touched are already final.
        for range in &dump_in_wal_files {
            self.write(range)?;
        }
        // Checkpoints last, oldest first, so their data pages and control
        // blocks are the final word.
        for parts in ckpt_parts {
            for range in bundle::decode(&bundle::reassemble(parts))? {
                self.write(&range)?;
                files_written.insert(range.path);
            }
        }
        report.checkpoints_applied += plan.ckpts.len() as u64;
        Ok(())
    }

    fn write(&self, range: &bundle::FileRange) -> Result<(), GinjaError> {
        let bundle::FileRange { path, offset, data } = range;
        Ok(self.fs.write(path, *offset, data, false)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GinjaConfig;
    use crate::names::DbObjectKind::{Checkpoint, Dump};
    use crate::names::DbObjectName;
    use ginja_cloud::MemStore;
    use ginja_vfs::{InterceptFs, IoProcessor, MemFs, WriteEvent};
    use std::sync::{Arc, Mutex};

    fn codec() -> Codec {
        Codec::new(GinjaConfig::builder().build().unwrap().codec)
    }

    fn seal_wal(cloud: &MemStore, codec: &Codec, ts: u64, file: &str, offset: u64, data: &[u8]) {
        let name = WalObjectName {
            ts,
            file: file.into(),
            offset,
            len: data.len() as u64,
        };
        let sealed = codec.seal(&name.to_name(), data).unwrap();
        cloud.put(&name.to_name(), &sealed).unwrap();
    }

    fn seal_db(
        cloud: &MemStore,
        codec: &Codec,
        ts: u64,
        kind: DbObjectKind,
        ranges: &[(&str, u64, &[u8])],
    ) {
        let ranges: Vec<bundle::FileRange> = ranges
            .iter()
            .map(|(path, offset, data)| bundle::FileRange {
                path: (*path).into(),
                offset: *offset,
                data: data.to_vec(),
            })
            .collect();
        let bytes = bundle::encode(&ranges);
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

    #[test]
    fn incremental_passes_match_cold_apply() {
        // Apply a bucket in two different ways — one cold_apply vs a
        // cold base plus incremental delta passes — and the shadow
        // contents must agree.
        let codec = codec();
        let cloud = MemStore::new();
        seal_db(&cloud, &codec, 0, Dump, &[("base/1", 0, b"AAAA")]);
        let fanout = FanoutExecutor::new(2);
        let inc_fs = MemFs::new();
        let engine = ApplyEngine::new(&inc_fs, &cloud, &codec, &fanout);
        let mut progress = ApplyProgress::new();
        let base = CloudView::from_listing(cloud.list("").unwrap()).unwrap();
        engine.cold_apply(&base, u64::MAX, &mut progress).unwrap();

        seal_wal(&cloud, &codec, 1, "pg_xlog/0001", 0, b"w1");
        seal_wal(&cloud, &codec, 2, "pg_xlog/0001", 2, b"w2");
        seal_db(&cloud, &codec, 2, Checkpoint, &[("base/1", 0, b"BB")]);
        let view = CloudView::from_listing(cloud.list("").unwrap()).unwrap();
        // WAL one object at a time, then the checkpoint as its own pass.
        for wal in view.wal_entries() {
            engine
                .apply_delta(vec![wal], Vec::new(), &mut progress)
                .unwrap();
        }
        let ckpts = view.checkpoints_after(0).into_iter().map(|(_, e)| e);
        engine
            .apply_delta(Vec::new(), ckpts.collect(), &mut progress)
            .unwrap();

        let cold_fs = MemFs::new();
        let cold_engine = ApplyEngine::new(&cold_fs, &cloud, &codec, &fanout);
        let mut cold = ApplyProgress::new();
        cold_engine.cold_apply(&view, u64::MAX, &mut cold).unwrap();

        for file in ["base/1", "pg_xlog/0001"] {
            assert_eq!(
                cold_fs.read_all(file).unwrap(),
                inc_fs.read_all(file).unwrap()
            );
        }
        assert_eq!(cold.report().files_written, progress.report().files_written);
        assert_eq!(cold.report().wal_objects_applied, 2);
        assert_eq!(progress.report().checkpoints_applied, 1);
        assert_eq!(progress.max_wal_ts(), 2);
        assert_eq!(progress.dump_ts(), 0);
    }

    #[test]
    fn cold_apply_without_dump_is_an_error() {
        let (codec, cloud, fs) = (codec(), MemStore::new(), MemFs::new());
        let fanout = FanoutExecutor::new(2);
        let engine = ApplyEngine::new(&fs, &cloud, &codec, &fanout);
        let err = engine
            .cold_apply(&CloudView::new(), u64::MAX, &mut ApplyProgress::new())
            .unwrap_err();
        assert!(matches!(err, GinjaError::Recovery(_)));
    }

    /// Records every write that reaches the file system, in order.
    #[derive(Default)]
    struct WriteLog(Mutex<Vec<(String, u64)>>);

    impl IoProcessor for WriteLog {
        fn on_write(&self, event: &WriteEvent) {
            let mut log = self.0.lock().unwrap();
            log.push((event.path.to_string(), event.offset));
        }
    }

    #[test]
    fn dump_is_reapplied_only_inside_files_the_wal_pass_wrote() {
        // The InnoDB shape: the dump holds a data file and the control
        // block at the head of a log file; an older WAL object (a boot
        // image of the log file) covers that block; a checkpoint covers
        // the block and the data file.
        let codec = codec();
        let cloud = MemStore::new();
        seal_wal(&cloud, &codec, 1, "ib_logfile0", 0, b"wwwwwwww");
        seal_db(
            &cloud,
            &codec,
            2,
            Dump,
            &[("ibdata1", 0, b"dddddd"), ("ib_logfile0", 0, b"DDDD")],
        );
        seal_wal(&cloud, &codec, 3, "ib_logfile0", 8, b"xx");
        seal_db(
            &cloud,
            &codec,
            4,
            Checkpoint,
            &[("ib_logfile0", 0, b"CC"), ("ibdata1", 0, b"cc")],
        );
        let view = CloudView::from_listing(cloud.list("").unwrap()).unwrap();
        let fanout = FanoutExecutor::new(4);
        let log = Arc::new(WriteLog::default());
        let fs = InterceptFs::new(MemFs::new(), log.clone());

        // Up to the dump's neighbourhood only: dump bytes beat the older
        // WAL image.
        let engine = ApplyEngine::new(&fs, &cloud, &codec, &fanout);
        engine
            .cold_apply(&view, 3, &mut ApplyProgress::new())
            .unwrap();
        assert_eq!(fs.read_all("ib_logfile0").unwrap(), b"DDDDwwwwxx");
        assert_eq!(fs.read_all("ibdata1").unwrap(), b"dddddd");
        let writes = std::mem::take(&mut *log.0.lock().unwrap());
        let count = |path: &str| writes.iter().filter(|(p, _)| p == path).count();
        assert_eq!(count("ibdata1"), 1, "a pure data file is written once");
        // dump, WAL ts 1, WAL ts 3, dump again.
        assert_eq!(count("ib_logfile0"), 4);

        // The whole bucket: checkpoint bytes beat both.
        engine
            .cold_apply(&view, u64::MAX, &mut ApplyProgress::new())
            .unwrap();
        assert_eq!(fs.read_all("ib_logfile0").unwrap(), b"CCDDwwwwxx");
        assert_eq!(fs.read_all("ibdata1").unwrap(), b"ccdddd");
    }
}
