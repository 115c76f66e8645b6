//! The live sentinel: scrub, repair, and rehearse behind a running
//! [`Ginja`] instance.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use ginja_cloud::{DeltaLister, ObjectStore, StoreError};
use ginja_codec::Codec;
use ginja_core::{Ginja, GinjaError, PeriodicTask, SentinelSnapshot, SentinelStats, WalObjectName};
use parking_lot::Mutex;

use crate::rehearse::{rehearse_bucket, RehearsalReport};
use crate::scrub::{Anomaly, AnomalyKind, ScrubReport};

/// What one repair pass did about the scrub's findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Objects re-uploaded from local state (missing/corrupt WAL).
    pub uploaded: Vec<String>,
    /// Confirmed orphans deleted from the bucket.
    pub orphans_deleted: Vec<String>,
    /// Anomalies that could not be repaired (local state gone, cloud
    /// refused the upload). Any entry here raises the degraded flag.
    pub failed: Vec<String>,
    /// Whether a fresh full dump was requested to supersede damaged DB
    /// objects (the dump heals them; its GC removes the remains).
    pub dump_requested: bool,
}

/// The outcome of one scrub-and-repair cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// What the scrubber found.
    pub scrub: ScrubReport,
    /// What the repair loop did about it.
    pub repair: RepairReport,
}

/// Round-robin and quarantine state carried between cycles.
#[derive(Default)]
struct ScrubState {
    /// Orphans seen last cycle: deleted only when seen again, so an
    /// object whose PUT completed but whose view registration is still
    /// in flight is never swept.
    quarantine: BTreeSet<String>,
    /// Round-robin position in the sorted tracked-object list for
    /// payload verification.
    cursor: usize,
    /// The incrementally maintained bucket listing: one LIST per
    /// cycle, O(delta) processing instead of rebuilding an O(bucket)
    /// name set every scrub.
    lister: DeltaLister,
}

/// The DR sentinel attached to a live [`Ginja`] instance.
///
/// Create with [`Sentinel::new`] (which registers its counters with the
/// instance so they surface in [`Ginja::stats`] and [`Ginja::exposure`]),
/// then either call [`Sentinel::run_cycle`]/[`Sentinel::rehearse`]
/// directly (tests, tooling) or [`Sentinel::spawn`] a background thread
/// driven by the intervals in `config.sentinel`.
pub struct Sentinel {
    ginja: Ginja,
    stats: Arc<SentinelStats>,
    codec: Codec,
    state: Mutex<ScrubState>,
    task: Mutex<Option<PeriodicTask>>,
}

impl std::fmt::Debug for Sentinel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sentinel")
            .field("snapshot", &self.stats.snapshot())
            .finish()
    }
}

impl Sentinel {
    /// Creates a sentinel for `ginja` and registers its counters with
    /// the instance. Nothing runs until [`Sentinel::run_cycle`],
    /// [`Sentinel::rehearse`] or [`Sentinel::spawn`] is called.
    pub fn new(ginja: &Ginja) -> Arc<Self> {
        let stats = Arc::new(SentinelStats::default());
        ginja.attach_sentinel(stats.clone());
        let codec = Codec::new(ginja.config().codec.clone());
        Arc::new(Sentinel {
            ginja: ginja.clone(),
            stats,
            codec,
            state: Mutex::new(ScrubState::default()),
            task: Mutex::new(None),
        })
    }

    /// The sentinel's counters (shared with the attached [`Ginja`]).
    pub fn snapshot(&self) -> SentinelSnapshot {
        self.stats.snapshot()
    }

    /// Starts the background thread: scrub-and-repair every
    /// `sentinel.scrub_interval` (stretched by the outage policy's pace
    /// multiplier while the cloud is away — scrub GETs are pure
    /// re-verification cost, never durability), rehearse every
    /// `sentinel.rehearsal_interval`. Idempotent.
    pub fn spawn(self: &Arc<Self>) {
        let mut slot = self.task.lock();
        if slot.is_some() {
            return;
        }
        let sentinel = self.clone();
        let rehearsal_interval = self.ginja.config().sentinel.rehearsal_interval;
        let mut next_scrub = Instant::now() + self.ginja.scrub_interval();
        let mut next_rehearsal = Instant::now() + rehearsal_interval;
        *slot = Some(PeriodicTask::spawn("ginja-sentinel", move || {
            let now = Instant::now();
            if now >= next_scrub {
                // A failed cycle (e.g. breaker open) is not fatal to
                // the loop: the next interval retries against a
                // hopefully-healthier cloud. The interval is re-read
                // each cycle so an outage's pace change takes effect at
                // the next scheduling decision.
                let _ = sentinel.run_cycle();
                next_scrub = Instant::now() + sentinel.ginja.scrub_interval();
            }
            if now >= next_rehearsal {
                let _ = sentinel.rehearse();
                next_rehearsal = Instant::now() + rehearsal_interval;
            }
            Some(
                next_scrub
                    .min(next_rehearsal)
                    .saturating_duration_since(Instant::now()),
            )
        }));
    }

    /// Stops the background thread (if running) and joins it.
    /// Idempotent; direct calls to `run_cycle`/`rehearse` still work
    /// afterwards.
    pub fn shutdown(&self) {
        if let Some(task) = self.task.lock().take() {
            task.shutdown();
        }
    }

    /// One scrub-and-repair cycle.
    ///
    /// **Scrub.** The bucket listing is diffed against the live
    /// `CloudView`, snapshotted *before and after* the LIST so the
    /// pipeline racing the scrub can never fabricate an anomaly: an
    /// object is *missing* only if tracked in both snapshots yet absent
    /// from the listing, and an *orphan* only if listed yet tracked in
    /// neither. Payloads of `sentinel.scrub_sample` tracked objects are
    /// downloaded and envelope-verified, walking the inventory
    /// round-robin so every object is covered over successive cycles
    /// (`0` = verify everything every cycle).
    ///
    /// **Repair.** Missing/corrupt WAL objects are re-sealed from the
    /// local WAL files and re-uploaded under their original names
    /// through the pipeline's [`ginja_cloud::ResilientStore`] (same
    /// retry policy, same circuit breaker — an open breaker fails the
    /// cycle rather than hammering a sick cloud). Re-uploading current
    /// local bytes under an old timestamp is sound: recovery applies
    /// objects in timestamp order, so for any region later rewritten
    /// the newer object's bytes win anyway, and for regions never
    /// rewritten the local file *is* the authoritative content.
    /// Damaged DB objects cannot be rebuilt object-by-object (their
    /// checkpoint deltas are long gone from local state), so one fresh
    /// full dump is requested instead — it supersedes every DB object
    /// and its garbage collection removes the remains. Confirmed
    /// orphans (quarantined for one full cycle, so an in-flight upload
    /// can never be swept) are deleted.
    ///
    /// Any anomaly left unrepaired raises the degraded flag in
    /// [`Ginja::exposure`]; a later cycle that heals or finds a clean
    /// bucket lowers it.
    ///
    /// # Errors
    ///
    /// Cloud listing/GET failures (including breaker fast-fails)
    /// propagate; per-object damage is recorded in the report instead.
    pub fn run_cycle(&self) -> Result<CycleReport, GinjaError> {
        let cfg = self.ginja.config().sentinel;
        let cloud = self.ginja.resilient_cloud();
        let mut state = self.state.lock();

        // -------- scrub --------
        let before = tracked_names(&self.ginja);
        // One LIST, folded into the incrementally maintained name set:
        // steady state costs O(delta) processing, not an O(bucket)
        // set rebuild per cycle.
        let delta = state.lister.poll(cloud.as_ref())?;
        let after = tracked_names(&self.ginja);

        let mut scrub = ScrubReport {
            objects_listed: delta.total,
            ..ScrubReport::default()
        };
        let listing = state.lister.seen();
        for name in before.intersection(&after) {
            if !listing.contains(name) {
                let kind = if name.starts_with("WAL/") {
                    AnomalyKind::MissingWal
                } else {
                    AnomalyKind::MissingDb
                };
                scrub.anomalies.push(Anomaly {
                    kind,
                    name: name.clone(),
                });
            }
        }
        for name in listing {
            if !before.contains(name) && !after.contains(name) {
                scrub.anomalies.push(Anomaly {
                    kind: AnomalyKind::Orphan,
                    name: name.clone(),
                });
            }
        }

        // Round-robin payload verification over the objects both the
        // view and the bucket agree exist.
        let tracked: Vec<&String> = after.intersection(listing).collect();
        let sample = if cfg.scrub_sample == 0 {
            tracked.len()
        } else {
            cfg.scrub_sample.min(tracked.len())
        };
        let cursor = state.cursor;
        for i in 0..sample {
            let name = tracked[(cursor + i) % tracked.len()];
            match cloud.get(name) {
                Ok(sealed) => {
                    scrub.payloads_verified += 1;
                    if self.codec.verify(name, &sealed).is_err()
                        && !scrub.anomalies.iter().any(|a| &a.name == name)
                    {
                        scrub.anomalies.push(Anomaly {
                            kind: AnomalyKind::Corrupt,
                            name: name.clone(),
                        });
                    }
                }
                // Deleted between LIST and GET: a legitimate GC race,
                // not an anomaly — if it was a real loss, the next
                // cycle's diff will say so.
                Err(StoreError::NotFound(_)) => {}
                Err(err) => return Err(err.into()),
            }
        }
        let tracked_len = tracked.len();
        drop(tracked);
        if tracked_len > 0 {
            state.cursor = (cursor + sample) % tracked_len;
        }
        self.stats.record_scrub(
            scrub.objects_listed as u64,
            (scrub.count(AnomalyKind::MissingWal) + scrub.count(AnomalyKind::MissingDb)) as u64,
            scrub.count(AnomalyKind::Corrupt) as u64,
            scrub.count(AnomalyKind::Orphan) as u64,
        );

        // -------- repair --------
        let mut repair = RepairReport::default();
        let mut dump_needed = false;
        let mut unrepaired = 0usize;
        let mut wal_repairs: Vec<String> = Vec::new();
        for anomaly in &scrub.anomalies {
            match anomaly.kind {
                AnomalyKind::Orphan => {} // swept below, after quarantine
                AnomalyKind::MissingWal => wal_repairs.push(anomaly.name.clone()),
                AnomalyKind::Corrupt if anomaly.name.starts_with("WAL/") => {
                    wal_repairs.push(anomaly.name.clone())
                }
                AnomalyKind::MissingDb | AnomalyKind::Corrupt => dump_needed = true,
            }
        }
        // Re-seal + re-upload the damaged WAL objects as one concurrent
        // wave through the pipeline's shared fan-out executor. Each job
        // reports its own outcome (the closure never returns `Err`), so
        // one refused upload cannot abort the remaining repairs.
        let outcomes = self
            .ginja
            .fanout()
            .run_collect(wal_repairs, |_, name| {
                let ok = self.reupload_wal(&name).is_ok();
                Ok::<_, GinjaError>((name, ok))
            })
            .unwrap_or_default();
        for (name, ok) in outcomes {
            if ok {
                // Our own PUT: note it so the next poll's delta does
                // not re-report the repaired object as newly added.
                state.lister.note_put(&name);
                repair.uploaded.push(name);
            } else {
                repair.failed.push(name);
                unrepaired += 1;
            }
        }
        if dump_needed {
            match self.ginja.request_dump() {
                Ok(()) => repair.dump_requested = true,
                Err(_) => {
                    repair.failed.push("(request_dump)".into());
                    unrepaired += 1;
                }
            }
        }

        // Orphan sweep: only orphans already quarantined by the
        // previous cycle are deleted — one full cycle of grace covers
        // the window where an uploader's PUT has landed but its view
        // registration has not.
        let orphans_now: BTreeSet<String> = scrub
            .anomalies
            .iter()
            .filter(|a| a.kind == AnomalyKind::Orphan)
            .map(|a| a.name.clone())
            .collect();
        let confirmed: Vec<String> = state
            .quarantine
            .intersection(&orphans_now)
            .cloned()
            .collect();
        for name in confirmed {
            match cloud.delete(&name) {
                Ok(()) | Err(StoreError::NotFound(_)) => {
                    state.lister.note_delete(&name);
                    repair.orphans_deleted.push(name);
                }
                Err(_) => {
                    repair.failed.push(name);
                    unrepaired += 1;
                }
            }
        }
        state.quarantine = &orphans_now
            - &repair
                .orphans_deleted
                .iter()
                .cloned()
                .collect::<BTreeSet<_>>();

        self.stats.record_repair(
            repair.uploaded.len() as u64,
            repair.orphans_deleted.len() as u64,
            repair.failed.len() as u64,
        );
        // Degraded: damage exists that this cycle could not (or was not
        // allowed to) fix. A clean or fully-healed cycle clears it.
        self.stats.set_degraded(unrepaired > 0);

        Ok(CycleReport { scrub, repair })
    }

    /// Re-seals the object's byte range from the local WAL file and
    /// PUTs it under the original name.
    fn reupload_wal(&self, name: &str) -> Result<(), GinjaError> {
        let wal = WalObjectName::parse(name)?;
        let fs = self.ginja.local_fs();
        let data = fs.read(&wal.file, wal.offset, wal.len as usize)?;
        let sealed = self.codec.seal(name, &data)?;
        self.ginja.resilient_cloud().put(name, &sealed)?;
        Ok(())
    }

    /// One restore rehearsal: full verify-and-rebuild into a scratch
    /// in-memory file system, clocked as the achieved RTO, plus the
    /// achieved RPO (committed updates a disaster right now would
    /// lose) checked against the Safety bound `S`. Results are recorded
    /// in the stats merged into [`Ginja::stats`].
    ///
    /// # Errors
    ///
    /// Cloud listing failures propagate; a non-restorable backup is
    /// reported (and counted as a rehearsal failure), not errored.
    pub fn rehearse(&self) -> Result<RehearsalReport, GinjaError> {
        let cloud = self.ginja.resilient_cloud();
        let config = self.ginja.config();
        let (mut report, _scratch) = rehearse_bucket(cloud.as_ref(), config)?;
        let rpo = self.ginja.pending_updates();
        let within = rpo <= config.safety;
        report.rpo_updates = Some(rpo);
        report.rpo_within_bound = Some(within);
        self.stats
            .record_rehearsal(report.rto, rpo as u64, within, report.restorable());
        Ok(report)
    }
}

/// Every object name the live view currently tracks.
fn tracked_names(ginja: &Ginja) -> BTreeSet<String> {
    let view = ginja.view();
    let mut names: BTreeSet<String> = view.wal_entries().map(|w| w.to_name()).collect();
    for (_, entry) in view.db_entries() {
        for part in &entry.parts {
            names.insert(part.to_name());
        }
    }
    names
}
