//! CrashFs: exhaustive crash-point exploration for the VFS → WAL →
//! reboot path.
//!
//! The cloud side of Ginja has always been chaos-tested; this module
//! turns the same discipline on the *local* failure domain. A seeded
//! workload runs over the protected stack
//! `InterceptFs<FaultFs<JournaledFs>>`, and every mutating file-system
//! operation it performs is a **crash point**: the explorer replays the
//! identical run once per point, kills the "process" exactly there
//! (cleanly after the op, or mid-write with the interrupted bytes left
//! to a torn sector-granular writeback), pulls the plug on the page
//! cache, and then holds the survivors to four invariants:
//!
//! 1. **Local durability** — the database crash-recovers from the
//!    durable tier alone, to exactly the acknowledged state (the
//!    crash-interrupted operation may or may not have landed; nothing
//!    else may differ).
//! 2. **Cloud prefix** — disaster recovery from the cloud yields a
//!    contiguous prefix of the acknowledged history, losing at most
//!    Safety `S` acknowledged row steps (§5.1's headline guarantee: S
//!    bounds updates, and a checkpoint step logs none).
//! 3. **Scrub clean** — the bucket the crash left behind passes the
//!    offline [`ginja_core::scrub_bucket`] audit: no corrupt,
//!    orphaned, or missing objects. The one orphan a crash may leave
//!    is a superseded DB generation (the crash fell between a merge's
//!    upload and its DELETE); the next merge at that timestamp or the
//!    next dump collects it.
//! 4. **Reboot resync** — `Ginja::reboot` over the crash-recovered
//!    local state resynchronizes the cloud (the ≤ `S` updates the cloud
//!    never saw live only in the local WAL), and a subsequent disaster
//!    loses *nothing* that survived locally.
//!
//! By default the cloud goes dark at the crash instant. With
//! [`ExplorerConfig::dark_steps`] it goes dark that many workload steps
//! *earlier*, so the crash lands on a pipeline holding a full un-acked
//! window in RAM — the case where invariant 4 rests on the local WAL
//! alone.
//!
//! Optionally one survivable I/O fault ([`FsFaultKind`]) is
//! injected at a chosen op index before the crash, so the sweep also
//! covers "error, keep running, then die" histories — the schedule
//! space the fsync-gate studies showed real databases get wrong.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, RetryConfig};
use ginja_core::{recover_into, scrub_bucket, AnomalyKind, CloudView, Ginja, GinjaConfig};
use ginja_db::{Database, DbError, DbProfile, ProfileKind};
use ginja_vfs::{FileSystem, InterceptFs, JournaledFs};

use crate::fault::{FaultFs, FsFaultKind, VfsFaultPlan};

/// The table every explorer workload runs against.
const TABLE: u32 = 1;

/// The most WAL writes one workload step issues on either profile (a
/// commit record plus, on a checkpoint step, the checkpoint's own).
const MAX_WAL_WRITES_PER_STEP: usize = 2;

/// How the simulated power failure lands relative to the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The process dies between two I/Os and every un-synced byte
    /// vanishes atomically ([`JournaledFs::power_cut`]).
    Clean,
    /// The process dies *during* an I/O and each un-synced write
    /// persists a seeded random sector prefix of itself
    /// ([`JournaledFs::power_cut_torn`]) — the adversarial writeback
    /// schedules crash-consistency tools like ALICE explore.
    Torn,
}

impl std::fmt::Display for CrashMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashMode::Clean => "clean",
            CrashMode::Torn => "torn",
        })
    }
}

/// Parameters of one exploration sweep.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Which DBMS I/O profile the workload runs under.
    pub profile: ProfileKind,
    /// Seed for the workload, the torn-writeback draws, and any
    /// probabilistic choice the sweep makes. The seed fixes the crash
    /// points, the replays explored, the faults injected and every
    /// invariant verdict. It does not fix
    /// [`CrashReport::wal_resync_objects`], which depends on how far the
    /// uploader threads got before each crash.
    pub seed: u64,
    /// Number of workload steps (puts/deletes/checkpoints).
    pub steps: usize,
    /// Batch `B` for the middleware under test.
    pub batch: usize,
    /// Safety `S` — the loss bound invariant 2 checks against.
    pub safety: usize,
    /// Explore every `stride`-th crash point (1 = exhaustive). Use a
    /// larger stride to bound wall-clock time in CI sweeps.
    pub stride: usize,
    /// Whether each crash point is also explored in [`CrashMode::Torn`].
    pub torn: bool,
    /// Sector granularity of torn writebacks and short writes.
    pub sector_size: usize,
    /// Optionally inject one survivable fault at a mutating-op index
    /// before the crash (`fail_at_op`).
    pub fault: Option<(u64, FsFaultKind)>,
    /// Fan-out width for recovery/resync GETs in the middleware under
    /// test (`GinjaConfig::recovery_fanout`). 1 = serial; larger widths
    /// exercise the reorder buffer under out-of-order fetch completion.
    pub recovery_fanout: usize,
    /// How many workload steps before the step containing the crash
    /// point the cloud goes dark (0 = at the crash instant). Every
    /// update committed in the dark stays un-acked in the commit queue,
    /// and a workload that fills the queue blocks for good, as the DBMS
    /// would — so [`explore`] insists that the dark steps plus the
    /// crashing one fit in `safety` at two WAL writes each.
    pub dark_steps: usize,
}

impl ExplorerConfig {
    /// A small exhaustive sweep over `profile` with the default seed.
    pub fn new(profile: ProfileKind) -> Self {
        ExplorerConfig {
            profile,
            seed: 0x6a17_9a5c_3fd1_e208,
            steps: 10,
            batch: 2,
            safety: 8,
            stride: 1,
            torn: true,
            sector_size: 128,
            fault: None,
            recovery_fanout: 1,
            dark_steps: 0,
        }
    }
}

/// One invariant violation found by the sweep. An empty violation list
/// is the theorem the explorer proves for its configuration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The crash-point index (mutating-op count at the kill).
    pub point: u64,
    /// How the power failure landed.
    pub mode: CrashMode,
    /// Which invariant broke: `local-durability`, `cloud-prefix`,
    /// `scrub`, or `reboot-resync`.
    pub invariant: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash point {} ({}): {} — {}",
            self.point, self.mode, self.invariant, self.detail
        )
    }
}

/// Outcome of an exploration sweep.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Size of the crash-point space: mutating ops the fault-free
    /// census run performed.
    pub crash_points: u64,
    /// Crash replays actually executed (points × modes, after stride).
    pub explored: u64,
    /// Local faults injected across all replays (halts are not faults).
    pub fs_faults_injected: u64,
    /// Crash recoveries that salvaged a torn tail block from the
    /// doublewrite journal.
    pub torn_tails_truncated: u64,
    /// WAL objects `Ginja::reboot` re-uploaded to heal the cloud. Not
    /// fixed by [`ExplorerConfig::seed`]: what a reboot resyncs is what
    /// the cloud lacked at the crash, and that depends on uploader
    /// timing (one seed's sweep read 157, 184 and 139 across runs).
    pub wal_resync_objects: u64,
    /// Every invariant violation, in exploration order.
    pub violations: Vec<Violation>,
}

impl CrashReport {
    /// Whether every explored crash point upheld all four invariants.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, point: u64, mode: CrashMode, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            point,
            mode,
            invariant,
            detail,
        });
    }
}

/// One deterministic workload step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Put { key: u64, tag: u8 },
    Delete { key: u64 },
    Checkpoint,
}

/// What a step does to the logical row state; `None` for checkpoints.
type Effect = Option<(u64, Option<Vec<u8>>)>;

type Rows = BTreeMap<u64, Vec<u8>>;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn steps_for(seed: u64, n: usize) -> Vec<Step> {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    (0..n)
        .map(|_| {
            let r = splitmix64(&mut state);
            match r % 8 {
                0..=4 => Step::Put {
                    key: (r >> 8) % 10,
                    tag: (r >> 32) as u8,
                },
                5..=6 => Step::Delete { key: (r >> 8) % 10 },
                _ => Step::Checkpoint,
            }
        })
        .collect()
}

fn value_for(key: u64, tag: u8, version: usize) -> Vec<u8> {
    format!("k{key}-t{tag}-v{version}").into_bytes()
}

fn effect_of(step: &Step, version: usize) -> Effect {
    match step {
        Step::Put { key, tag } => Some((*key, Some(value_for(*key, *tag, version)))),
        Step::Delete { key } => Some((*key, None)),
        Step::Checkpoint => None,
    }
}

fn apply_effect(rows: &mut Rows, effect: &Effect) {
    if let Some((key, value)) = effect {
        match value {
            Some(v) => {
                rows.insert(*key, v.clone());
            }
            None => {
                rows.remove(key);
            }
        }
    }
}

/// `models[k]` = the logical row state after the first `k` acknowledged
/// steps.
fn prefix_models(acked: &[Effect]) -> Vec<Rows> {
    let mut models = Vec::with_capacity(acked.len() + 1);
    let mut rows = Rows::new();
    models.push(rows.clone());
    for effect in acked {
        apply_effect(&mut rows, effect);
        models.push(rows.clone());
    }
    models
}

fn profile_for(kind: ProfileKind) -> DbProfile {
    match kind {
        ProfileKind::Postgres => DbProfile::postgres_small(),
        ProfileKind::MySql => DbProfile::mysql_small(),
    }
}

/// Everything one replay runs over. Each crash point gets a fresh one:
/// crash exploration is only sound when no state leaks between points.
struct Stack {
    journal: Arc<JournaledFs>,
    vplan: Arc<VfsFaultPlan>,
    /// Fault-free view of the surviving bucket contents — what
    /// recoveries and scrubs read.
    view: Arc<dyn ObjectStore>,
    cplan: Arc<FaultPlan>,
    ginja: Ginja,
    db_fs: Arc<dyn FileSystem>,
    config: GinjaConfig,
    profile: DbProfile,
}

fn build_stack(cfg: &ExplorerConfig) -> Stack {
    let profile = profile_for(cfg.profile);
    let journal = Arc::new(JournaledFs::with_sector_size(cfg.sector_size));

    // Initialize the database over the raw journal — the crash-point
    // space starts at the protected run, with a durably created cluster
    // (create-time writes are synchronous by contract).
    let pre = Database::create(journal.clone() as Arc<dyn FileSystem>, profile.clone())
        .expect("create over a pristine fs");
    pre.create_table(TABLE, 64).expect("create workload table");
    drop(pre);

    let config = GinjaConfig::builder()
        .batch(cfg.batch)
        .safety(cfg.safety)
        .batch_timeout(Duration::from_millis(2))
        .safety_timeout(Duration::from_secs(30))
        // One uploader keeps cloud WAL timestamps prefix-sealed, which
        // is what makes invariant 2 (prefix, ≤ S lost) checkable
        // exactly rather than statistically.
        .uploaders(1)
        // No mid-run re-dumps: one boot dump per replay keeps the
        // bucket's expected shape independent of crash timing.
        .dump_threshold(64.0)
        // Surface cloud failures immediately — the outage at the crash
        // instant must not be absorbed by backoff loops.
        .retry(RetryConfig::disabled())
        .recovery_fanout(cfg.recovery_fanout.max(1))
        .build()
        .expect("explorer config");

    let mem = Arc::new(MemStore::new());
    let cplan = Arc::new(FaultPlan::new());
    let ginja = Ginja::boot(
        journal.clone() as Arc<dyn FileSystem>,
        Arc::new(FaultStore::new(mem.clone(), cplan.clone())),
        cfg.profile.processor(),
        config.clone(),
    )
    .expect("boot over healthy stores");

    let vplan = Arc::new(VfsFaultPlan::with_sector_size(cfg.sector_size));
    let fault = FaultFs::with_journal(journal.clone(), vplan.clone());
    let db_fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(fault, Arc::new(ginja.clone())));

    Stack {
        journal,
        vplan,
        view: mem,
        cplan,
        ginja,
        db_fs,
        config,
        profile,
    }
}

fn run_step(db: &Database, step: &Step, version: usize) -> Result<(), DbError> {
    match step {
        Step::Put { key, tag } => db.put(TABLE, *key, value_for(*key, *tag, version)),
        Step::Delete { key } => db.delete(TABLE, *key),
        Step::Checkpoint => db.checkpoint(),
    }
}

/// Runs the workload until it finishes or the first step error (an
/// injected fault or the crash halt), calling `before_step` with each
/// step's index first. Returns the acknowledged effects and, if a step
/// failed, its maybe-applied effect.
fn run_workload(
    db: &Database,
    steps: &[Step],
    mut before_step: impl FnMut(usize),
) -> (Vec<Effect>, Option<Effect>) {
    let mut acked = Vec::new();
    for (version, step) in steps.iter().enumerate() {
        before_step(version);
        match run_step(db, step, version) {
            Ok(()) => acked.push(effect_of(step, version)),
            Err(_) => return (acked, Some(effect_of(step, version))),
        }
    }
    (acked, None)
}

/// The crash-point space of a workload, sized by the fault-free census.
struct Census {
    /// Mutating ops the whole run performed.
    crash_points: u64,
    /// Mutating ops performed before each step began.
    step_starts: Vec<u64>,
}

impl Census {
    /// The step during which crash point `point` occurs; `None` when it
    /// strikes during DBMS startup, before any step.
    fn step_of(&self, point: u64) -> Option<usize> {
        self.step_starts
            .partition_point(|&start| start <= point)
            .checked_sub(1)
    }
}

/// The fault-free census: one full run counting the mutating ops — the
/// crash-point space the sweep then enumerates.
fn census(cfg: &ExplorerConfig, steps: &[Step]) -> Census {
    let stack = build_stack(cfg);
    if let Some((idx, kind)) = cfg.fault {
        stack.vplan.fail_at_op(idx, kind);
    }
    let mut step_starts = Vec::with_capacity(steps.len());
    if let Ok(db) = Database::open(stack.db_fs.clone(), stack.profile.clone()) {
        let _ = run_workload(&db, steps, |_| {
            step_starts.push(stack.vplan.mutating_ops_seen())
        });
    }
    stack.ginja.sync(Duration::from_secs(30));
    stack.ginja.shutdown();
    Census {
        crash_points: stack.vplan.mutating_ops_seen(),
        step_starts,
    }
}

fn recovered_rows(
    cloud: &dyn ObjectStore,
    config: &GinjaConfig,
    profile: &DbProfile,
) -> Result<Rows, String> {
    let rebuilt = Arc::new(ginja_vfs::MemFs::new());
    recover_into(rebuilt.as_ref(), cloud, config).map_err(|e| format!("recover_into: {e}"))?;
    let db =
        Database::open(rebuilt, profile.clone()).map_err(|e| format!("open recovered: {e}"))?;
    let rows = db
        .dump_table(TABLE)
        .map_err(|e| format!("dump recovered table: {e}"))?;
    Ok(rows.into_iter().collect())
}

fn rows_summary(rows: &Rows) -> String {
    let keys: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("{k}={}", String::from_utf8_lossy(v)))
        .collect();
    format!("{{{}}}", keys.join(", "))
}

/// Replays the run, crashes at `point` in `mode`, and checks all four
/// invariants, recording violations and counters into `report`.
/// `dark_from` is the step before which the cloud goes dark, if it does
/// so ahead of the crash.
fn run_crash_point(
    cfg: &ExplorerConfig,
    steps: &[Step],
    dark_from: Option<usize>,
    point: u64,
    mode: CrashMode,
    report: &mut CrashReport,
) {
    let stack = build_stack(cfg);
    if let Some((idx, kind)) = cfg.fault {
        stack.vplan.fail_at_op(idx, kind);
    }
    match mode {
        CrashMode::Clean => stack.vplan.halt_after_op(point),
        CrashMode::Torn => stack.vplan.halt_during_op(point),
    }

    // The doomed run: open the DBMS over the faulted stack, apply the
    // workload, stop at the first error (fault or halt).
    let (acked, inflight) = match Database::open(stack.db_fs.clone(), stack.profile.clone()) {
        Ok(db) => run_workload(&db, steps, |step| {
            if dark_from == Some(step) {
                // Drain first: the un-acked window at the crash is then
                // exactly the dark steps' updates, whatever the uploader
                // was behind on — which `explore` checked fits in S.
                stack.ginja.sync(Duration::from_secs(30));
                stack.cplan.outage();
            }
        }),
        // The crash (or fault) struck during DBMS startup.
        Err(_) => (Vec::new(), None),
    };

    // The crash: cloud traffic stops (if it had not already) at the
    // same instant the local process dies, then the power failure hits
    // the page cache.
    stack.cplan.outage();
    stack.ginja.shutdown();
    match mode {
        CrashMode::Clean => stack.journal.power_cut(),
        CrashMode::Torn => stack
            .journal
            .power_cut_torn(cfg.seed ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
    report.fs_faults_injected += stack.vplan.injected_count() as u64;

    let models = prefix_models(&acked);
    let len = acked.len();
    let base = models[len].clone();
    let with_inflight = inflight.as_ref().map(|effect| {
        let mut rows = base.clone();
        apply_effect(&mut rows, effect);
        rows
    });

    // ---- Invariant 1: local crash recovery from the durable tier.
    let local = match Database::open(
        stack.journal.clone() as Arc<dyn FileSystem>,
        stack.profile.clone(),
    ) {
        Ok(db) => db,
        Err(e) => {
            report.violate(
                point,
                mode,
                "local-durability",
                format!("crash recovery failed: {e}"),
            );
            return;
        }
    };
    report.torn_tails_truncated += local.stats().torn_tails_truncated;
    let local_rows: Rows = match local.dump_table(TABLE) {
        Ok(rows) => rows.into_iter().collect(),
        Err(e) => {
            report.violate(
                point,
                mode,
                "local-durability",
                format!("workload table unreadable after recovery: {e}"),
            );
            return;
        }
    };
    if local_rows != base && with_inflight.as_ref() != Some(&local_rows) {
        report.violate(
            point,
            mode,
            "local-durability",
            format!(
                "recovered {} but expected {} (± in-flight step)",
                rows_summary(&local_rows),
                rows_summary(&base)
            ),
        );
    }

    // ---- Invariant 2: disaster recovery from the cloud is a prefix of
    // the acknowledged history with at most S steps lost.
    match recovered_rows(stack.view.as_ref(), &stack.config, &stack.profile) {
        Err(e) => report.violate(point, mode, "cloud-prefix", e),
        Ok(cloud_rows) => {
            let mut matched = if with_inflight.as_ref() == Some(&cloud_rows) {
                Some(len)
            } else {
                None
            };
            if matched.is_none() {
                matched = (0..=len).rev().find(|&k| models[k] == cloud_rows);
            }
            match matched {
                None => report.violate(
                    point,
                    mode,
                    "cloud-prefix",
                    format!(
                        "recovered {} is no prefix of the {} acked steps",
                        rows_summary(&cloud_rows),
                        len
                    ),
                ),
                Some(k) => {
                    // S bounds un-acked updates, and a checkpoint step
                    // logs none: only the row steps lost count.
                    let lost = acked[k..].iter().filter(|e| e.is_some()).count();
                    if lost > cfg.safety {
                        let what = format!("lost {lost} acked row steps with S = {}", cfg.safety);
                        report.violate(point, mode, "cloud-prefix", what);
                    }
                }
            }
        }
    }

    // ---- Invariant 3: the bucket the crash left behind scrubs clean,
    // but for the superseded generations a merge had yet to delete.
    let listing = stack.view.list("").unwrap_or_default();
    let superseded: Vec<String> = CloudView::from_listing(listing).map_or(Vec::new(), |view| {
        view.superseded_parts().map(|p| p.to_name()).collect()
    });
    match scrub_bucket(stack.view.as_ref(), &stack.config) {
        Err(e) => report.violate(point, mode, "scrub", format!("scrub failed: {e}")),
        Ok(scrub) => {
            let damage: Vec<_> = scrub
                .anomalies
                .iter()
                .filter(|a| a.kind != AnomalyKind::Orphan || !superseded.contains(&a.name))
                .collect();
            if let Some(first) = damage.first() {
                let (n, kind, name) = (damage.len(), first.kind, &first.name);
                let what = format!("{n} anomalies, first: {kind} {name}");
                report.violate(point, mode, "scrub", what);
            }
        }
    }

    // ---- Invariant 4: reboot over the crash-recovered local state
    // resynchronizes the cloud; a later disaster loses nothing.
    drop(local);
    let ginja2 = match Ginja::reboot(
        stack.journal.clone() as Arc<dyn FileSystem>,
        stack.view.clone(),
        cfg.profile.processor(),
        stack.config.clone(),
    ) {
        Ok(g) => g,
        Err(e) => {
            report.violate(point, mode, "reboot-resync", format!("reboot failed: {e}"));
            return;
        }
    };
    report.wal_resync_objects += ginja2.stats().wal_resync_objects;
    let fs2: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(
        stack.journal.clone(),
        Arc::new(ginja2.clone()),
    ));
    match Database::open(fs2, stack.profile.clone()) {
        Err(e) => {
            report.violate(
                point,
                mode,
                "reboot-resync",
                format!("reopen under protection failed: {e}"),
            );
            ginja2.shutdown();
        }
        Ok(db) => {
            let mut expected = local_rows;
            for i in 0..3u64 {
                let key = 1_000 + point * 8 + i;
                let value = format!("post-crash-{point}-{i}").into_bytes();
                match db.put(TABLE, key, value.clone()) {
                    Ok(()) => {
                        expected.insert(key, value);
                    }
                    Err(e) => {
                        report.violate(
                            point,
                            mode,
                            "reboot-resync",
                            format!("post-reboot commit failed: {e}"),
                        );
                        break;
                    }
                }
            }
            if !ginja2.sync(Duration::from_secs(30)) {
                report.violate(
                    point,
                    mode,
                    "reboot-resync",
                    "pipeline failed to drain after reboot".into(),
                );
            }
            ginja2.shutdown();
            drop(db);
            match recovered_rows(stack.view.as_ref(), &stack.config, &stack.profile) {
                Err(e) => report.violate(point, mode, "reboot-resync", e),
                Ok(final_rows) => {
                    if final_rows != expected {
                        report.violate(
                            point,
                            mode,
                            "reboot-resync",
                            format!(
                                "disaster after reboot recovered {} but local had {}",
                                rows_summary(&final_rows),
                                rows_summary(&expected)
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Runs the sweep: a census to size the crash-point space, then one
/// replay per (point, mode) at the configured stride.
pub fn explore(cfg: &ExplorerConfig) -> CrashReport {
    assert!(
        cfg.dark_steps == 0 || (cfg.dark_steps + 1) * MAX_WAL_WRITES_PER_STEP <= cfg.safety,
        "dark_steps {} would block the workload at S = {}",
        cfg.dark_steps,
        cfg.safety
    );
    let steps = steps_for(cfg.seed, cfg.steps);
    let census = census(cfg, &steps);
    let mut report = CrashReport {
        crash_points: census.crash_points,
        ..CrashReport::default()
    };
    let stride = cfg.stride.max(1) as u64;
    let mut point = 0u64;
    while point < census.crash_points {
        let dark_from = match cfg.dark_steps {
            0 => None,
            k => census.step_of(point).map(|step| step.saturating_sub(k)),
        };
        run_crash_point(cfg, &steps, dark_from, point, CrashMode::Clean, &mut report);
        report.explored += 1;
        if cfg.torn {
            run_crash_point(cfg, &steps, dark_from, point, CrashMode::Torn, &mut report);
            report.explored += 1;
        }
        point += stride;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_per_seed() {
        assert_eq!(steps_for(7, 20), steps_for(7, 20));
        assert_ne!(steps_for(7, 20), steps_for(8, 20));
        // All step kinds appear in a modest window.
        let steps = steps_for(3, 64);
        assert!(steps.iter().any(|s| matches!(s, Step::Put { .. })));
        assert!(steps.iter().any(|s| matches!(s, Step::Delete { .. })));
        assert!(steps.iter().any(|s| matches!(s, Step::Checkpoint)));
    }

    #[test]
    fn prefix_models_track_effects() {
        let acked = vec![
            Some((1, Some(b"a".to_vec()))),
            None, // checkpoint
            Some((1, None)),
        ];
        let models = prefix_models(&acked);
        assert_eq!(models.len(), 4);
        assert!(models[0].is_empty());
        assert_eq!(models[1].get(&1).unwrap(), b"a");
        assert_eq!(models[2], models[1]);
        assert!(models[3].is_empty());
    }

    #[test]
    fn census_sizes_the_crash_point_space() {
        let cfg = ExplorerConfig {
            steps: 4,
            ..ExplorerConfig::new(ProfileKind::Postgres)
        };
        let steps = steps_for(cfg.seed, cfg.steps);
        let census = census(&cfg, &steps);
        // Every workload step performs at least one mutating fs op.
        let points = census.crash_points;
        assert!(points >= cfg.steps as u64, "{points} crash points");
        // ...so the step boundaries rise strictly and partition the
        // space: each point maps to the step that performs it.
        assert_eq!(census.step_starts.len(), cfg.steps);
        assert!(census.step_starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(census.step_of(census.step_starts[0]), Some(0));
        assert_eq!(census.step_of(census.step_starts[2] - 1), Some(1));
        assert_eq!(census.step_of(points - 1), Some(cfg.steps - 1));
    }

    #[test]
    fn strided_sweep_is_clean_on_postgres() {
        let cfg = ExplorerConfig {
            steps: 5,
            stride: 7,
            ..ExplorerConfig::new(ProfileKind::Postgres)
        };
        let report = explore(&cfg);
        assert!(report.explored > 0);
        let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(report.is_clean(), "{violations:#?}");
    }
}
