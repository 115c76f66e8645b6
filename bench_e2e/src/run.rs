//! One run of one workload: set-up, timed commit phase, snapshots and
//! disaster drill, read-path rounds, and the metrics computed from
//! them. `--trace 0` yields the end-to-end metrics; `--trace 1` runs
//! the same workload under the span decorators (after an untraced
//! reference pass) and yields the per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ginja_cloud::{LatencyModel, MemStore};
use ginja_core::GinjaStatsSnapshot;
use ginja_cost::S3Pricing;
use ginja_db::DbStats;

use crate::exposure::{self, Exposure};
use crate::probes::{OpKind, OpRec, WalWriteRec};
use crate::procfs;
use crate::recovery::{self, ReadPath};
use crate::replay::{self, Replay};
use crate::rig::{build_template, inventory, layout_profile, Checks, Load, Protection, Rig};
use crate::spec::{Workload, DELTA_TXNS_PER_SEC, TRACE_SAMPLE_EVERY, WARMUP_SHARE};
use crate::stats::{median, percentile, percentile_sorted, tail_quantile};
use crate::trace::{self, Span, SpanKind};

/// Payload bytes the op log keeps for the replay step.
const CAPTURE_BYTES: u64 = 32 << 20;

/// Reps of the traced run's untraced reference and of its traced pass.
const TRACE_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<std::path::PathBuf>,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (the JSON result holds exactly these).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Transactions and checks attempted / failed.
    pub checks: Checks,
    /// Sample counts and other context, printed but not gated.
    pub notes: Vec<String>,
}

/// Everything measured between load start and `sync()` done, on one
/// rig (one rep).
struct Commit {
    load: Load,
    window_s: f64,
    drain_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    ops: Vec<OpRec>,
    files: Vec<String>,
    writes: Vec<WalWriteRec>,
    wal_bytes: u64,
    stats0: GinjaStatsSnapshot,
    stats1: GinjaStatsSnapshot,
    db0: DbStats,
    db1: DbStats,
}

impl Commit {
    fn tps(&self) -> f64 {
        self.load.txns as f64 / self.load.wall.as_secs_f64()
    }

    fn count(&self, kind: OpKind) -> f64 {
        ok_ops(&self.ops, kind).count() as f64
    }
}

/// Both snapshots of one build, and the database size at B.
struct Snapshots {
    a: Arc<MemStore>,
    b: Arc<MemStore>,
    db_bytes: u64,
}

/// Timed transactions of one rep.
fn rep_txns(w: &Workload, seconds: f64) -> u64 {
    ((w.txns_per_sec as f64 * seconds) as u64).max(w.terminals * w.segments)
}

/// Template load + boot + open + warm-up + first sync; returns the rig
/// and how long it took.
fn set_up(w: &Workload, opts: &Options, traced: bool, checks: &mut Checks) -> (Rig, f64) {
    let start = Instant::now();
    let template = build_template(w.kind, opts.seed);
    let mut rig = Rig::boot(&template, w, opts.seed, Protection::Ginja, traced);
    let warm = rig.load((rep_txns(w, opts.seconds) as f64 * WARMUP_SHARE) as u64);
    count_load(&warm, checks);
    if w.quiesced() {
        rig.quiesce(checks);
    } else {
        rig.sync(checks);
    }
    (rig, start.elapsed().as_secs_f64())
}

fn count_load(load: &Load, checks: &mut Checks) {
    checks.attempted += load.txns;
    checks.failed += load.errors;
    if load.errors > 0 {
        eprintln!(
            "CHECK FAILED: {} transactions returned an error",
            load.errors
        );
    }
}

/// The timed commit phase on a warmed-up rig.
fn commit_phase(rig: &mut Rig, w: &Workload, total: u64, checks: &mut Checks) -> Commit {
    let ginja = rig.ginja.clone().expect("commit phase needs Ginja");
    let tap = rig.tap.clone().expect("commit phase needs the tap");
    rig.ops.take_ops();
    tap.set_recording(true);
    let stats0 = ginja.stats();
    let db0 = rig.db.stats();
    let (user0, sys0) = procfs::cpu_seconds();
    let window = Instant::now();

    // Quiesce (sync → checkpoint → sync) between segments; after the
    // last one only drain, so the snapshots keep its WAL objects.
    let mut load = Load::default();
    let mut drain_s = 0.0;
    for segment in 0..w.segments {
        load.merge(rig.load(total / w.segments));
        let drain = Instant::now();
        if segment + 1 < w.segments {
            rig.quiesce(checks);
        } else {
            rig.sync(checks);
        }
        drain_s += drain.elapsed().as_secs_f64();
    }

    let window_s = window.elapsed().as_secs_f64();
    let (user1, sys1) = procfs::cpu_seconds();
    tap.set_recording(false);
    let (files, writes, wal_bytes) = tap.take();
    count_load(&load, checks);
    Commit {
        load,
        window_s,
        drain_s,
        cpu_user_s: user1 - user0,
        cpu_sys_s: sys1 - sys0,
        ops: rig.ops.take_ops(),
        files,
        writes,
        wal_bytes,
        stats0,
        stats1: ginja.stats(),
        db0,
        db1: rig.db.stats(),
    }
}

/// Snapshot A, the residual transactions, snapshot B, the drill, and
/// shutdown.
fn snapshots_and_drill(
    rig: &mut Rig,
    w: &Workload,
    seconds: f64,
    checks: &mut Checks,
) -> Snapshots {
    let a = Arc::new(rig.bucket.freeze());
    let delta = rig.load(((DELTA_TXNS_PER_SEC as f64 * seconds) as u64).max(w.terminals));
    count_load(&delta, checks);
    rig.sync(checks);
    let b = Arc::new(rig.bucket.freeze());
    let db_bytes = rig.db_bytes();
    rig.disaster_drill(w.kind, checks);
    rig.shutdown();
    Snapshots { a, b, db_bytes }
}

fn read_path(
    w: &Workload,
    snaps: &Snapshots,
    rig: &Rig,
    opts: &Options,
    checks: &mut Checks,
) -> ReadPath {
    let rounds = ((w.rounds_per_sec * opts.seconds).round() as usize).max(3);
    recovery::run_rounds(
        &snaps.a,
        &snaps.b,
        &rig.config,
        &layout_profile(w.kind),
        &LatencyModel::s3_intra_region().scaled(w.recover_scale),
        rounds,
        opts.seed,
        checks,
    )
}

fn ok_ops(ops: &[OpRec], kind: OpKind) -> impl Iterator<Item = &OpRec> {
    ops.iter().filter(move |o| o.kind == kind && o.ok)
}

/// Exposure samples (each list sorted) of one commit phase, with the
/// check that every recorded WAL write was covered by a later PUT.
fn exposures(c: &Commit, checks: &mut Checks) -> Exposure {
    let mut exp = exposure::join(&c.files, &c.writes, &exposure::wal_puts(&c.ops));
    checks.check(exp.uncovered == 0, || {
        format!(
            "{} WAL writes were never covered by a PUT after sync()",
            exp.uncovered
        )
    });
    exp.ns.sort_unstable();
    exp.updates.sort_unstable();
    exp
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs one workload once.
pub fn run(w: &Workload, opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    }
}

fn run_untraced(w: &Workload, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let per_rep = rep_txns(w, opts.seconds);

    // Every rep is a whole experiment on a fresh rig from the same
    // seed: set-up, timed load, drain. The last one goes on to the
    // snapshots, the drill and the read path.
    let mut setup_s = Vec::new();
    let mut commits = Vec::new();
    let mut inventories = Vec::new();
    let mut last = None;
    for rep in 0..w.reps {
        let (mut rig, took) = set_up(w, opts, false, checks);
        setup_s.push(took);
        commits.push(commit_phase(&mut rig, w, per_rep, checks));
        if rep + 1 == w.reps {
            let snaps = snapshots_and_drill(&mut rig, w, opts.seconds, checks);
            inventories.push(snaps.a.inventory());
            last = Some((rig, snaps));
        } else {
            if w.quiesced() {
                inventories.push(rig.bucket.freeze().inventory());
            }
            rig.shutdown();
        }
    }
    let (rig, snaps) = last.expect("at least one rep");
    // Same seed, quiesced single terminal, no timers: the bucket must
    // be the same object for object.
    for pair in inventories.windows(2) {
        checks.check(pair[0] == pair[1], || {
            let differing: Vec<_> = pair[0]
                .iter()
                .filter(|o| !pair[1].contains(o))
                .chain(pair[1].iter().filter(|o| !pair[0].contains(o)))
                .take(8)
                .collect();
            format!(
                "two builds of one seed differ: {} vs {} objects; e.g. {differing:?}",
                pair[0].len(),
                pair[1].len()
            )
        });
    }
    let reads = read_path(w, &snaps, &rig, opts, checks);

    // Per rep first, then the median across reps.
    let price = S3Pricing::may_2017();
    let mut exposure_samples = 0;
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut all_lat = Vec::new();
    let mut all_exp = Vec::new();
    for c in &commits {
        let txns = c.load.txns as f64;
        let mut lat = c.load.lat_ns.clone();
        let exp = exposures(c, checks);
        exposure_samples += exp.ns.len();
        let mut put = |name, value| per_rep.entry(name).or_default().push(value);
        put("tps", c.tps());
        put("cpu_ms_per_ktxn", (c.cpu_user_s + c.cpu_sys_s) * 1e6 / txns);
        put("txn_p90_us", us(percentile(&mut lat, 0.9)));
        put(
            "exposure_updates_p50",
            percentile_sorted(&exp.updates, 0.5) as f64,
        );
        put("exposure_ms_p50", ms(percentile_sorted(&exp.ns, 0.5)));
        put("puts_per_ktxn", c.count(OpKind::Put) * 1e3 / txns);
        put(
            "upload_bytes_per_txn",
            ok_ops(&c.ops, OpKind::Put)
                .map(|o| o.bytes as f64)
                .sum::<f64>()
                / txns,
        );
        put(
            "usd_per_mtxn",
            ((c.count(OpKind::Put) + c.count(OpKind::List)) * price.put_op
                + c.count(OpKind::Get) * price.get_op)
                * 1e6
                / txns,
        );
        all_lat.extend(lat);
        all_exp.extend(exp.ns);
    }
    let (b_objects, b_bytes) = inventory(&snaps.b);

    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    for name in [
        "tps",
        "cpu_ms_per_ktxn",
        "txn_p90_us",
        "puts_per_ktxn",
        "upload_bytes_per_txn",
        "usd_per_mtxn",
        "exposure_updates_p50",
    ] {
        m.insert(name, median(&per_rep[name]));
    }
    m.insert("recover_s", reads.recover_s());
    m.insert("promote_s", reads.promote_s());
    m.insert(
        "stored_per_db_byte",
        b_bytes as f64 / snaps.db_bytes.max(1) as f64,
    );

    all_lat.sort_unstable();
    all_exp.sort_unstable();
    let (tail, q) = tail_quantile(all_lat.len());
    out.notes.push(format!(
        "samples: {} reps x {} txns ({} terminals, closed loop), {exposure_samples} exposure writes, {} cold + {} promotion rounds, {} cores",
        commits.len(),
        commits[0].load.txns,
        w.terminals,
        reads.cold.len(),
        reads.promote.len(),
        std::thread::available_parallelism().map_or(0, usize::from),
    ));
    for name in [
        "tps",
        "cpu_ms_per_ktxn",
        "txn_p90_us",
        "exposure_ms_p50",
        "exposure_updates_p50",
    ] {
        out.notes
            .push(format!("{name} per rep {:?}", per_rep[name]));
    }
    out.notes.push(format!(
        "reps pooled: txn us p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} p99 {:.1} {tail} {:.1} | exposure ms p50 {:.3} p99 {:.3}",
        us(percentile_sorted(&all_lat, 0.25)),
        us(percentile_sorted(&all_lat, 0.5)),
        us(percentile_sorted(&all_lat, 0.75)),
        us(percentile_sorted(&all_lat, 0.9)),
        us(percentile_sorted(&all_lat, 0.99)),
        us(percentile_sorted(&all_lat, q)),
        ms(percentile_sorted(&all_exp, 0.5)),
        ms(percentile_sorted(&all_exp, 0.99)),
    ));
    out.notes.push(format!(
        "recover_s per round {:?} | promote_s per round {:?} | snapshot B {b_objects} objects {b_bytes} B",
        reads.cold.iter().map(|r| r.total_s).collect::<Vec<_>>(),
        reads.promote.iter().map(|r| r.total_s).collect::<Vec<_>>()
    ));
    out
}

/// An untraced pass of one rep's stream under `protection`; returns
/// its transactions per second (and the commit data when it ran under
/// Ginja).
fn reference_pass(
    w: &Workload,
    opts: &Options,
    protection: Protection,
    checks: &mut Checks,
) -> (f64, Option<Commit>) {
    let total = rep_txns(w, opts.seconds);
    if protection == Protection::Ginja {
        let (mut rig, _) = set_up(w, opts, false, checks);
        let commit = commit_phase(&mut rig, w, total, checks);
        rig.shutdown();
        return (commit.tps(), Some(commit));
    }
    let template = build_template(w.kind, opts.seed);
    let mut rig = Rig::boot(&template, w, opts.seed, protection, false);
    let warm = rig.load((total as f64 * WARMUP_SHARE) as u64);
    count_load(&warm, checks);
    let load = rig.load(total);
    count_load(&load, checks);
    (load.txns as f64 / load.wall.as_secs_f64(), None)
}

fn run_traced(w: &Workload, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let total = rep_txns(w, opts.seconds);

    // Tracing overhead compares medians of TRACE_REPS untraced and
    // TRACE_REPS traced reps; one rep of each would mostly compare the
    // machine's mood.
    let mut untraced_tps = Vec::new();
    let mut reference = None;
    for _ in 0..TRACE_REPS {
        let (tps, commit) = reference_pass(w, opts, Protection::Ginja, checks);
        untraced_tps.push(tps);
        reference = commit;
    }
    let untraced_tps = median(&untraced_tps);
    let reference = reference.expect("Ginja pass returns its commit data");
    let (native_tps, _) = reference_pass(w, opts, Protection::Native, checks);
    let (fuse_tps, _) = reference_pass(w, opts, Protection::Fuse, checks);

    // The traced reps: spans on from the timed load to its drain. Spans
    // pool over the reps; counters come from the last one, which also
    // goes on to the snapshots, the drill and the read path.
    let mut traced_tps = Vec::new();
    let mut spans = Vec::new();
    let mut last = None;
    for rep in 0..TRACE_REPS {
        let (mut rig, _) = set_up(w, opts, true, checks);
        rig.ops.capture_up_to(CAPTURE_BYTES);
        trace::set_enabled(true);
        let c = commit_phase(&mut rig, w, total, checks);
        trace::set_enabled(false);
        spans.extend(trace::drain());
        traced_tps.push(c.tps());
        if rep + 1 == TRACE_REPS {
            last = Some((rig, c));
        } else {
            rig.shutdown();
        }
    }
    let traced_tps = median(&traced_tps);
    let (mut rig, c) = last.expect("TRACE_REPS is at least 1");
    let captured = rig.ops.take_captured();
    let snaps = snapshots_and_drill(&mut rig, w, opts.seconds, checks);
    let reads = read_path(w, &snaps, &rig, opts, checks);
    let replay = replay::run(
        &captured,
        &rig.config,
        layout_profile(w.kind).wal_block_size,
    );

    // Only spans inside a transaction enter the budget: the driver's
    // own quiesce checkpoints also pass through the traced file system.
    let in_txn: Vec<Span> = spans
        .iter()
        .filter(|s| s.txn != trace::NONE)
        .copied()
        .collect();
    let agg = trace::aggregate(&in_txn);
    let txn_total = agg[&SpanKind::Txn].total_ns.max(1) as f64;
    let on_write_self: u64 = [
        SpanKind::OnWriteWal,
        SpanKind::OnWriteData,
        SpanKind::OnWriteOther,
    ]
    .iter()
    .map(|k| agg[k].self_total_ns)
    .sum();
    let attributed = agg[&SpanKind::Txn].self_total_ns
        + agg[&SpanKind::LocalWrite].total_ns
        + agg[&SpanKind::FsWrite].self_total_ns
        + agg[&SpanKind::Classify].total_ns
        + on_write_self;
    let unattributed_pct = 100.0 * (1.0 - attributed as f64 / txn_total);
    // Layer budgets must add up: the five terminal-thread self times
    // cover the transaction span; what is left is non-write file ops.
    checks.check(unattributed_pct.abs() <= 5.0, || {
        format!("trace.unattributed_pct = {unattributed_pct:.2} exceeds 5")
    });
    let cold_sum =
        |r: &recovery::ColdRound| r.list_s + r.fetch_wall_s + r.apply_s + r.open_s + r.probe_s;
    let recover_unattributed_pct =
        100.0 * (1.0 - reads.cold_med(cold_sum) / reads.recover_s().max(1e-12));
    checks.check(recover_unattributed_pct.abs() <= 5.0, || {
        format!("recovery stages miss recover_s by {recover_unattributed_pct:.2} %")
    });

    let self_q = |kind: SpanKind, q: f64| {
        let mut v = agg[&kind].self_ns.clone();
        percentile(&mut v, q)
    };
    let dur_q = |kind: SpanKind, q: f64| {
        let mut v = agg[&kind].dur_ns.clone();
        percentile(&mut v, q)
    };
    let mut lat = c.load.lat_ns.clone();
    lat.sort_unstable();
    let txns = c.load.txns as f64;
    let (s0, s1) = (&c.stats0, &c.stats1);
    let d = |f: fn(&GinjaStatsSnapshot) -> u64| (f(s1) - f(s0)) as f64;
    let intercepted = d(|s| s.updates_intercepted);
    let wal_objects = d(|s| s.wal_objects_uploaded);
    let puts: Vec<&OpRec> = ok_ops(&c.ops, OpKind::Put).collect();
    let mut put_ns: Vec<u64> = puts.iter().map(|o| o.end_ns - o.start_ns).collect();
    let put_busy_s = put_ns.iter().sum::<u64>() as f64 / 1e9;
    put_ns.sort_unstable();
    let mut edges: Vec<(u64, i64)> = puts
        .iter()
        .flat_map(|o| [(o.start_ns, 1), (o.end_ns, -1)])
        .collect();
    edges.sort_unstable();
    let inflight_max = edges
        .iter()
        .scan(0i64, |n, (_, step)| {
            *n += step;
            Some(*n)
        })
        .max()
        .unwrap_or(0);
    let ref_exp = exposures(&reference, checks);
    exposures(&c, checks);
    let (b_objects, b_bytes) = inventory(&snaps.b);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let m = &mut out.metrics;
    m.insert("workload.txn_p50_us", us(percentile_sorted(&lat, 0.5)));
    m.insert("workload.txn_p99_us", us(percentile_sorted(&lat, 0.99)));
    m.insert("workload.txn_p999_us", us(percentile_sorted(&lat, 0.999)));
    m.insert(
        "core.exposure_ms_p50",
        ms(percentile_sorted(&ref_exp.ns, 0.5)),
    );
    m.insert(
        "core.exposure_ms_p99",
        ms(percentile_sorted(&ref_exp.ns, 0.99)),
    );
    m.insert(
        "core.exposure_updates_p99",
        percentile_sorted(&ref_exp.updates, 0.99) as f64,
    );
    m.insert("db.native_tps", native_tps);
    m.insert("db.fuse_tps", fuse_tps);
    m.insert("db.txn_self_us_p50", us(self_q(SpanKind::Txn, 0.5)));
    m.insert("db.wal_writes_per_txn", c.writes.len() as f64 / txns);
    m.insert("db.wal_bytes_per_txn", c.wal_bytes as f64 / txns);
    m.insert(
        "db.checkpoints",
        ((c.db1.checkpoints + c.db1.fuzzy_steps) - (c.db0.checkpoints + c.db0.fuzzy_steps)) as f64,
    );
    // Spans pool over the traced reps; counts are given per rep like
    // every other counter here.
    let per_rep = |count: u64| count as f64 / TRACE_REPS as f64;
    m.insert("vfs.write_calls", per_rep(agg[&SpanKind::FsWrite].count));
    m.insert(
        "vfs.local_write_us_p50",
        us(dur_q(SpanKind::LocalWrite, 0.5)),
    );
    m.insert(
        "vfs.intercept_self_us_p50",
        us(self_q(SpanKind::FsWrite, 0.5)),
    );
    m.insert("vfs.classify_ns_p50", dur_q(SpanKind::Classify, 0.5) as f64);
    m.insert(
        "vfs.classify_calls",
        per_rep(agg[&SpanKind::Classify].count),
    );
    m.insert(
        "core.on_write_wal_us_p50",
        us(self_q(SpanKind::OnWriteWal, 0.5)),
    );
    m.insert(
        "core.on_write_wal_us_p99",
        us(self_q(SpanKind::OnWriteWal, 0.99)),
    );
    m.insert(
        "core.on_write_wal_us_p999",
        us(self_q(SpanKind::OnWriteWal, 0.999)),
    );
    m.insert(
        "core.on_write_data_us_p50",
        us(self_q(SpanKind::OnWriteData, 0.5)),
    );
    m.insert(
        "core.blocked_share",
        ratio(d(|s| s.updates_blocked), intercepted),
    );
    m.insert(
        "core.blocked_ms_total",
        (s1.blocked_time - s0.blocked_time).as_secs_f64() * 1e3,
    );
    m.insert(
        "core.put_ns_p50",
        s1.ingest.put_latency.p50.as_nanos() as f64,
    );
    m.insert(
        "core.put_ns_p99",
        s1.ingest.put_latency.p99.as_nanos() as f64,
    );
    m.insert("core.parks", d(|s| s.ingest.put_parks));
    m.insert("core.adaptive_seals", d(|s| s.ingest.adaptive_seals));
    m.insert("core.timeout_seals", d(|s| s.ingest.timeout_seals));
    m.insert("core.batches", d(|s| s.batches_formed));
    m.insert("core.updates_per_object", ratio(intercepted, wal_objects));
    m.insert(
        "core.coalesce_ratio",
        ratio(d(|s| s.wal_bytes_raw), c.wal_bytes as f64),
    );
    m.insert("core.seal_ms_p50", s1.seal_latency.p50.as_secs_f64() * 1e3);
    m.insert("core.seal_ms_p99", s1.seal_latency.p99.as_secs_f64() * 1e3);
    m.insert(
        "core.seal_busy_s",
        (s1.seal_time - s0.seal_time).as_secs_f64(),
    );
    m.insert("core.ckpt_objects", d(|s| s.db_objects_uploaded));
    m.insert("core.dumps", d(|s| s.dumps_uploaded));
    m.insert("core.db_bytes_sealed", d(|s| s.db_bytes_sealed));
    m.insert("core.gc_deletes", d(|s| s.gc_deletes));
    m.insert("core.drain_s", c.drain_s);
    m.insert("core.threads_max", c.load.threads as f64);
    insert_replay(m, &replay);
    m.insert("cloud.put_count", puts.len() as f64);
    m.insert("cloud.put_bytes", puts.iter().map(|o| o.bytes as f64).sum());
    m.insert("cloud.put_ms_p50", ms(percentile_sorted(&put_ns, 0.5)));
    m.insert("cloud.put_ms_p99", ms(percentile_sorted(&put_ns, 0.99)));
    m.insert("cloud.put_busy_s", put_busy_s);
    m.insert("cloud.put_inflight_mean", put_busy_s / c.window_s);
    m.insert("cloud.put_inflight_max", inflight_max as f64);
    m.insert("cloud.get_count", reads.cold_med(|r| r.gets as f64));
    m.insert("cloud.get_ms_p50", reads.cold_med(|r| r.get_p50_s * 1e3));
    m.insert("cloud.list_count", reads.cold_med(|r| r.lists as f64));
    m.insert(
        "cloud.delete_count",
        ok_ops(&c.ops, OpKind::Delete).count() as f64,
    );
    m.insert("cloud.retries", d(|s| s.cloud_retries));
    m.insert(
        "cloud.failures",
        c.ops.iter().filter(|o| !o.ok).count() as f64,
    );
    m.insert("core.recover_list_ms", reads.cold_med(|r| r.list_s * 1e3));
    m.insert(
        "core.recover_fetch_wall_ms",
        reads.cold_med(|r| r.fetch_wall_s * 1e3),
    );
    m.insert(
        "core.recover_get_busy_ms",
        reads.cold_med(|r| r.get_busy_s * 1e3),
    );
    m.insert("core.recover_apply_ms", reads.cold_med(|r| r.apply_s * 1e3));
    m.insert("db.open_ms", reads.cold_med(|r| r.open_s * 1e3));
    m.insert("db.probe_ms", reads.cold_med(|r| r.probe_s * 1e3));
    m.insert("core.recover_objects", b_objects as f64);
    m.insert("core.recover_bytes", b_bytes as f64);
    m.insert(
        "standby.tail_cycle_ms",
        reads.promote_med(|r| r.tail_s * 1e3),
    );
    m.insert("standby.gets", reads.promote_med(|r| r.standby_gets as f64));
    m.insert(
        "standby.residual_objects",
        reads.promote_med(|r| r.residual_gets as f64),
    );
    m.insert(
        "standby.promote_apply_ms",
        reads.promote_med(|r| r.apply_s * 1e3),
    );
    m.insert("proc.peak_rss_mb", procfs::peak_rss_mb());
    m.insert("proc.cpu_user_s", c.cpu_user_s);
    m.insert("proc.cpu_sys_s", c.cpu_sys_s);
    m.insert(
        "trace.overhead_pct",
        100.0 * (untraced_tps - traced_tps) / untraced_tps,
    );
    m.insert("trace.unattributed_pct", unattributed_pct);
    m.insert("trace.recover_unattributed_pct", recover_unattributed_pct);

    out.notes.push(format!(
        "samples: {TRACE_REPS} traced reps, last {} txns, {} spans, {} captured objects, {} cold + {} promotion rounds; untraced reference {untraced_tps:.0} tps vs traced {traced_tps:.0} tps",
        lat.len(), spans.len(), captured.len(), reads.cold.len(), reads.promote.len()
    ));
    out.notes.push(format!(
        "recover_s {:.4} promote_s {:.4} (traced run; not end-to-end values)",
        reads.recover_s(),
        reads.promote_s()
    ));
    if let Some(path) = &opts.trace_out {
        if let Err(err) = write_trace(path, w, &spans, &out.metrics) {
            eprintln!("cannot write {}: {err}", path.display());
            out.checks.check(false, || "trace-out not written".into());
        }
    }
    out
}

fn insert_replay(m: &mut BTreeMap<&'static str, f64>, r: &Replay) {
    m.insert("core.replay_aggregate_mbps", r.aggregate_mbps);
    m.insert("core.replay_queue_mops", r.queue_mops);
    m.insert("codec.seal_mbps", r.seal_mbps);
    m.insert("codec.open_mbps", r.open_mbps);
    m.insert("codec.sealed_per_raw", r.sealed_per_raw);
    m.insert("codec.bufpool_hit_rate", r.bufpool_hit_rate);
    m.insert("cloud.resilient_overhead_ns", r.resilient_overhead_ns);
}

/// Writes the span aggregates and every 64th transaction's span tree.
fn write_trace(
    path: &std::path::Path,
    w: &Workload,
    spans: &[Span],
    metrics: &BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"workload\": \"{}\",", w.name)?;
    writeln!(f, " \"aggregates\": [")?;
    let agg = trace::aggregate(spans);
    let rows: Vec<String> = agg
        .iter()
        .map(|(kind, a)| {
            let (name, layer) = kind.label();
            let mut selfs = a.self_ns.clone();
            format!(
                "  {{\"span\": \"{name}\", \"layer\": \"{layer}\", \"count\": {}, \"total_ns\": {}, \"self_total_ns\": {}, \"self_p50_ns\": {}, \"self_p99_ns\": {}}}",
                a.count,
                a.total_ns,
                a.self_total_ns,
                percentile(&mut selfs, 0.5),
                percentile_sorted(&selfs, 0.99)
            )
        })
        .collect();
    writeln!(f, "{}\n ],", rows.join(",\n"))?;
    let per_layer: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value}"))
        .collect();
    writeln!(f, " \"per_layer\": {{\n{}\n }},", per_layer.join(",\n"))?;
    writeln!(f, " \"sampled_txns\": [")?;
    let sampled: Vec<String> = spans
        .iter()
        .filter(|s| s.txn != trace::NONE && s.txn % TRACE_SAMPLE_EVERY == 0)
        .map(|s| {
            let (name, layer) = s.kind.label();
            format!(
                "  {{\"txn\": {}, \"thread\": {}, \"id\": {}, \"parent\": {}, \"span\": \"{name}\", \"layer\": \"{layer}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.txn,
                s.thread,
                s.id,
                if s.parent == trace::NONE { -1 } else { i64::from(s.parent) },
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )
        })
        .collect();
    writeln!(f, "{}\n ]\n}}", sampled.join(",\n"))?;
    f.flush()
}
