//! Start-up (the paper's Algorithm 1, Boot and Reboot modes): one path
//! builds the pipeline's shared state over the bucket, resyncs the
//! local WAL into it, and starts the `uploaders + 1` threads. Boot adds
//! the ts-0 dump; Reboot marks the next checkpoint a dump.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ginja_cloud::{ObjectStore, ResilientStore, StopSignal};
use ginja_codec::Codec;
use ginja_vfs::{DbmsProcessor, FileSystem, DEFAULT_SECTOR_SIZE};
use parking_lot::Mutex;

use crate::ack::AckLedger;
use crate::bundle::{self, FileRange};
use crate::checkpoint::{self, CkptAccum, CkptQueue, CKPT_QUEUE_CAPACITY};
use crate::config::GinjaConfig;
use crate::fanout::FanoutExecutor;
use crate::ginja::{Ginja, Shared};
use crate::names::{DbObjectKind, WalObjectName};
use crate::queue::CommitQueue;
use crate::stats::GinjaStats;
use crate::upload::{self, seal_put_wave, PutFn, SealPut};
use crate::view::CloudView;
use crate::GinjaError;

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

/// Which of Algorithm 1's start-up modes runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Boot,
    Reboot,
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
        start(fs, cloud, processor, config, Mode::Boot)
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
        start(fs, cloud, processor, config, Mode::Reboot)
    }
}

/// The one start-up path: validate → executor → `ResilientStore` →
/// codec → view (from the bucket's listing; Boot demands it empty) →
/// resync → Boot's dump → threads.
fn start(
    fs: Arc<dyn FileSystem>,
    cloud: Arc<dyn ObjectStore>,
    processor: Arc<dyn DbmsProcessor>,
    config: GinjaConfig,
    mode: Mode,
) -> Result<Ginja, GinjaError> {
    config.validate()?;
    let fanout = Arc::new(FanoutExecutor::new(config.recovery_fanout));
    // Wrap the cloud in the resilience layer *before* the first
    // operation: start-up uploads get the same retry treatment as
    // pipeline traffic.
    let cloud = Arc::new(ResilientStore::new(cloud, config.retry.clone()));
    let listing = cloud.list("")?;
    // A Boot into a bucket that already holds Ginja objects would
    // interleave two protection histories (timestamp collisions, wrong
    // dumps at recovery). Demand a fresh bucket; resuming an existing
    // history is what Reboot is for.
    if mode == Mode::Boot && !listing.is_empty() {
        return Err(GinjaError::Config(
            "boot requires an empty bucket (use reboot to resume, or point at a new bucket)".into(),
        ));
    }
    let view = CloudView::from_listing(listing)?;
    let chains_kept = config.pitr.map_or(1, |pitr| pitr.keep_snapshots + 1);
    let accum = CkptAccum::new(&view, chains_kept, mode == Mode::Reboot);
    let queue = CommitQueue::with_ingest(
        config.batch,
        config.safety,
        config.batch_timeout,
        config.safety_timeout,
        config.ingest,
    );
    let shared = Arc::new(Shared {
        codec: Codec::new(config.codec.clone()),
        config,
        cloud,
        fs,
        processor,
        view: Mutex::new(view),
        queue,
        acks: AckLedger::default(),
        stats: GinjaStats::default(),
        fanout,
        accum: Mutex::new(accum),
        ckpt_queue: CkptQueue::new(CKPT_QUEUE_CAPACITY),
        batch_turn: std::sync::Mutex::new(0),
        stop: StopSignal::default(),
        threads: Mutex::new(Vec::new()),
        gc_backlog: Mutex::new(BTreeSet::new()),
    });

    let direct_put = |name: &str, sealed: &[u8]| -> Result<(), GinjaError> {
        shared.cloud.put(name, sealed).map_err(GinjaError::from)
    };
    let stats = &shared.stats;
    // Against Boot's empty view the resync uploads every local WAL
    // segment whole.
    let resynced = resync_local_wal(&shared, &direct_put)?;
    match mode {
        Mode::Reboot => {
            stats
                .wal_resync_objects
                .fetch_add(resynced, Ordering::Relaxed);
        }
        Mode::Boot => {
            // The initial dump, at the reserved timestamp 0 so every
            // boot WAL object (ts >= 1) is "newer than the dump" for
            // recovery.
            let entries = read_db_files(shared.fs.as_ref(), shared.processor.as_ref())?;
            let dump = DbObjectKind::Dump;
            let (parts, _) = checkpoint::write_db_object(&shared, &direct_put, 0, dump, &entries)?;
            let size = bundle::encoded_len(&entries);
            shared.accum.lock().decided.record(dump, size);
            let mut view = shared.view.lock();
            for part in parts {
                view.add_db_part(part);
            }
            stats.dumps_uploaded.fetch_add(1, Ordering::Relaxed);
        }
    }

    let spawn = |name: String, stage: fn(&Shared)| {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name(name)
            .spawn(move || stage(&shared))
            .expect("spawn pipeline thread")
    };
    let mut threads: Vec<_> = (0..shared.config.uploaders)
        .map(|i| spawn(format!("ginja-uploader-{i}"), upload::uploader_loop))
        .collect();
    threads.push(spawn(
        "ginja-checkpointer".into(),
        checkpoint::checkpointer_loop,
    ));
    *shared.threads.lock() = threads;
    Ok(Ginja { shared })
}

/// The resync pass, Boot's WAL upload and Reboot's heal: for each local
/// WAL file, rebuild the cloud's image of it (its WAL objects applied in
/// timestamp order) and upload a fresh WAL object for every run of
/// sectors ([`DEFAULT_SECTOR_SIZE`]) where the local durable content
/// differs — at Reboot, content the DBMS acknowledged before the crash
/// but Ginja never finished uploading, or a tail-block rewrite whose
/// cloud copy is stale. A whole sector goes up, equal bytes inside it
/// included, so one rewritten log block is one object however its bytes
/// changed. A cloud object that cannot be fetched or opened counts as
/// not covering its range, so the pass also heals WAL objects lost from
/// the bucket. Runs are cut at `BOOT_WAL_CHUNK` and each file is one
/// seal+PUT wave, registered in the view in timestamp order.
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
/// Runs before the pipeline threads start. Returns the number of objects
/// uploaded.
fn resync_local_wal(shared: &Shared, put: PutFn<'_>) -> Result<u64, GinjaError> {
    let (fs, processor) = (shared.fs.as_ref(), shared.processor.as_ref());
    let chunk_size = shared.config.max_object_size.min(BOOT_WAL_CHUNK);
    let mut wal_files = fs.list(processor.wal_prefix())?;
    wal_files.sort();
    let mut objects = 0u64;
    let mut view = shared.view.lock();
    for file in wal_files {
        let local = fs.read_all(&file)?;
        let names: Vec<WalObjectName> = view
            .wal_entries()
            .filter(|w| w.file == file)
            .cloned()
            .collect();
        let runs = if names.is_empty() {
            std::iter::once(0..local.len()).collect()
        } else {
            // Fetch + open the file's WAL objects as one concurrent wave;
            // `run_collect` hands results back in input order, so the apply
            // below still sees them oldest-timestamp-first.
            let fetched: Vec<Option<Vec<u8>>> =
                shared.fanout.run_collect(names.clone(), |_, name| {
                    let opened = shared
                        .cloud
                        .get(&name.to_name())
                        .ok()
                        .and_then(|sealed| shared.codec.open(&name.to_name(), &sealed).ok());
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
            let floor = skip_below.max(processor.wal_header_len(&file) as usize);
            // Every maximal run of sectors holding a differing byte at
            // or past `floor`.
            let differs = |sector: usize| {
                (sector.max(floor)..local.len().min(sector + DEFAULT_SECTOR_SIZE))
                    .any(|i| image[i] != Some(local[i]))
            };
            let mut runs = Vec::new();
            let mut sector = floor / DEFAULT_SECTOR_SIZE * DEFAULT_SECTOR_SIZE;
            while sector < local.len() {
                let start = sector.max(floor);
                while sector < local.len() && differs(sector) {
                    sector += DEFAULT_SECTOR_SIZE;
                }
                if start < sector {
                    runs.push(start..local.len().min(sector));
                }
                sector += DEFAULT_SECTOR_SIZE;
            }
            runs
        };
        // Each run cut at `chunk_size`; `max(start + 1)` gives an empty
        // file its single 0-length object.
        let (run_names, jobs): (Vec<_>, Vec<_>) = runs
            .into_iter()
            .flat_map(|run| {
                (run.start..run.end.max(run.start + 1))
                    .step_by(chunk_size)
                    .map(move |start| start..run.end.min(start + chunk_size))
            })
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
        seal_put_wave(shared, put, jobs, |idx, _| {
            view.add_wal(run_names[idx].clone());
            objects += 1;
            Ok(())
        })?;
    }
    Ok(objects)
}

/// Every database file, whole: Boot's dump and the checkpointer's.
pub(crate) fn read_db_files(
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
