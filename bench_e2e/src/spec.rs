//! The benchmark's fixed definition: constants, workloads and the metric
//! tables. `BENCHMARK.json` and the README glossary are generated from
//! these tables (`--emit-benchmark-json`, `--emit-glossary`) and a unit
//! test keeps the committed files equal to them.

use std::time::Duration;

use ginja_db::ProfileKind;

/// Every simulated latency (local disk flush, WAN PUT, batch and safety
/// timeouts) is the paper-testbed value times this. 0.02 puts a WAN PUT
/// at ~5 ms — still three orders of magnitude above the software path,
/// so the latency-exposed workload stays latency-exposed — while a run
/// fits in seconds.
pub const SCALE: f64 = 0.02;

/// Paper-testbed TB and TS (the values the repo's figure benches use),
/// scaled like every other latency.
pub const BATCH_TIMEOUT_SIM: Duration = Duration::from_secs(5);
pub const SAFETY_TIMEOUT_SIM: Duration = Duration::from_secs(30);

/// TPC-C warehouses. One warehouse at `TpccScale::bench()` is a ~3 MB
/// database: rows ≫ terminals, and it fits the engine's buffer pool,
/// so the commit path (not page I/O) is what is measured.
pub const WAREHOUSES: u64 = 1;

/// Share of the timed transaction count run untimed first, as part of
/// set-up: the first transactions after boot run ~8 % slower (cold
/// buffer pools, first-touch allocations in the pipeline threads).
pub const WARMUP_SHARE: f64 = 0.10;

/// Transactions committed between snapshot A (what the standby has
/// applied) and snapshot B (the bucket at disaster time), per second of
/// `--seconds`: the residual a promotion replays.
pub const DELTA_TXNS_PER_SEC: u64 = 50;

/// Table holding the disaster drill's marker rows.
pub const MARKER_TABLE: u32 = 100;

/// Marker commits beyond S: enough that a loss above S would show.
pub const MARKERS_OVER_SAFETY: u64 = 50;

/// The drill commits min(S, this) + [`MARKERS_OVER_SAFETY`] markers, so
/// the workload whose S is out of reach does not spend seconds on it.
pub const MAX_MARKER_BASE: u64 = 1_000;

/// Width of recovery GET fan-out (`GinjaConfig::recovery_fanout`
/// default) — also given to the standby so both paths fetch alike.
pub const RECOVERY_FANOUT: usize = 4;

/// Every 64th transaction's span tree goes to `--trace-out`.
pub const TRACE_SAMPLE_EVERY: u32 = 64;

/// Where the cloud is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cloud {
    /// Zero-latency `MemStore`: the software ceiling.
    Mem,
    /// `LatencyModel::s3_wan()` × [`SCALE`], seeded.
    Wan,
}

/// One workload. Counts are per second of `--seconds`, so a run's work
/// is fixed by its arguments and repeats exactly; nothing is sized by a
/// timer.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: ProfileKind,
    /// Closed-loop TPC-C terminals (each waits for its commit).
    pub terminals: u64,
    /// Identical repetitions of set-up + timed load per run, each on a
    /// fresh rig from the same seed. Every metric of the commit phase
    /// is computed per rep and reported as the median over reps.
    pub reps: usize,
    /// Timed transactions of one rep (all terminals together) per
    /// `--seconds`.
    pub txns_per_sec: u64,
    /// Transactions per second the terminals together may not exceed;
    /// `None` runs them back to back.
    pub pace_tps: Option<u64>,
    /// B and S of §5.1.
    pub batch: usize,
    pub safety: usize,
    pub uploaders: usize,
    /// Compression + encryption + MAC (else MAC only).
    pub full_codec: bool,
    pub cloud: Cloud,
    /// Simulated local commit flush (× [`SCALE`]); zero = no disk model.
    pub commit_flush_sim: Duration,
    /// Engine checkpoint cadence in commits. `None`: the driver quiesces
    /// (sync → checkpoint → sync) between [`Workload::segments`] instead,
    /// which makes the bucket a pure function of the seed.
    pub ckpt_every: Option<u64>,
    /// Quiesced segments the timed transactions are split into.
    pub segments: u64,
    /// Cold-recovery + promotion rounds per `--seconds`.
    pub rounds_per_sec: f64,
    /// Scale of `LatencyModel::s3_intra_region()` on the read path.
    pub recover_scale: f64,
}

impl Workload {
    /// Whether the driver, not the engine, places the checkpoints — the
    /// mode whose bucket is a pure function of the seed: quiesced
    /// segments, no batch or safety timers, no adaptive sealing.
    pub fn quiesced(&self) -> bool {
        self.ckpt_every.is_none()
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pg_mem",
        why: "PostgreSQL profile, compression+encryption+MAC, zero-latency cloud: byte-heavy software ceiling where codec and core aggregation do the work and cloud does none",
        kind: ProfileKind::Postgres,
        terminals: 2,
        reps: 7,
        txns_per_sec: 1_200,
        pace_tps: None,
        batch: 100,
        safety: 1_000,
        uploaders: 2,
        full_codec: true,
        cloud: Cloud::Mem,
        commit_flush_sim: Duration::ZERO,
        ckpt_every: Some(3_000),
        segments: 1,
        rounds_per_sec: 0.5,
        recover_scale: SCALE,
    },
    Workload {
        name: "mysql_mem",
        why: "MySQL profile (512 B log blocks, ~5 WAL writes/txn), B=10, MAC-only, zero-latency cloud: op-heavy software ceiling where vfs classify and core queue/batch bookkeeping dominate and codec does little",
        kind: ProfileKind::MySql,
        terminals: 2,
        reps: 7,
        txns_per_sec: 1_200,
        pace_tps: None,
        batch: 10,
        safety: 100,
        uploaders: 2,
        full_codec: false,
        cloud: Cloud::Mem,
        commit_flush_sim: Duration::ZERO,
        // 16 pages per fuzzy step: every 200 commits keeps the redo tail
        // inside the 16 MB circular log (no forced sharp checkpoints), and
        // puts the one ~23 MB dump the 150 % rule triggers mid-run.
        ckpt_every: Some(200),
        segments: 1,
        rounds_per_sec: 0.5,
        recover_scale: SCALE,
    },
    Workload {
        name: "pg_wan",
        why: "PostgreSQL profile in the paper's shape (8.8 ms disk flush, S3 WAN latency, B=10 S=100, 5 uploaders): latency-exposed, so tps is a guard and cost and exposure are what batching changes move",
        kind: ProfileKind::Postgres,
        terminals: 2,
        reps: 7,
        txns_per_sec: 500,
        pace_tps: None,
        batch: 10,
        safety: 100,
        uploaders: 5,
        full_codec: false,
        cloud: Cloud::Wan,
        commit_flush_sim: Duration::from_micros(8_800),
        ckpt_every: Some(3_000),
        segments: 1,
        rounds_per_sec: 0.5,
        recover_scale: SCALE,
    },
    Workload {
        name: "recover",
        why: "Read path: a seed-deterministic bucket (1 terminal, quiesced checkpoints) recovered cold and by standby promotion through unscaled intra-region latency: LIST/GET, codec open, core apply, db replay",
        kind: ProfileKind::Postgres,
        terminals: 1,
        reps: 4,
        txns_per_sec: 400,
        // A lone back-to-back terminal leaves CPU slack on 2 cores, and
        // whether it shares a core with a sealing uploader then halves
        // or doubles its rate from run to run. Paced well under capacity
        // its rate is a guard (it must hold the pace), and batch fill
        // time, hence exposure, repeats.
        pace_tps: Some(4_000),
        batch: 100,
        // Out of reach on purpose: a producer blocked at S re-asserts
        // the forced flush, which cuts batches by upload timing.
        safety: 50_000,
        uploaders: 2,
        full_codec: true,
        cloud: Cloud::Mem,
        commit_flush_sim: Duration::ZERO,
        ckpt_every: None,
        segments: 2,
        rounds_per_sec: 1.0,
        recover_scale: 1.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Owning layer (a module of this repo, or `proc`/`trace`).
    pub layer: &'static str,
    /// How it is measured.
    pub how: &'static str,
    /// End-to-end metric(s) it should move, and on which workload.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    layer: &'static str,
    how: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer,
        how,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    how: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        how,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, "all",
        "median over reps of one set-up: TPC-C template load, Ginja::boot (initial dump), Database::open, warm-up, first sync"),
    e2e("tps", "1/s", Higher, 0.25, "all",
        "committed transactions / wall time of one rep's timed load (closed loop, fixed count); median over reps"),
    e2e("cpu_ms_per_ktxn", "ms", Lower, 0.25, "all",
        "process user+sys CPU from load start to sync() done, per 1000 transactions (paper Table 4); median over reps"),
    e2e("txn_p90_us", "us", Lower, 0.25, "all",
        "90th percentile transaction latency as the terminal sees it, per rep; median over reps"),
    e2e("puts_per_ktxn", "count", Lower, 0.05, "core",
        "cloud PUTs (WAL + DB objects, as they reach the store) per 1000 transactions; median over reps"),
    e2e("upload_bytes_per_txn", "B", Lower, 0.2, "core",
        "sealed bytes PUT per transaction; median over reps"),
    e2e("usd_per_mtxn", "usd", Lower, 0.05, "cost",
        "request dollars per million transactions: (PUT+LIST) x put_op + GET x get_op from S3Pricing::may_2017(); median over reps"),
    e2e("exposure_updates_p50", "count", Lower, 0.25, "core",
        "median number of later WAL writes acknowledged between a write's on_write return and completion of the first PUT started afterwards that covers it (the RPO in updates that S bounds); median over reps"),
    e2e("recover_s", "s", Lower, 0.25, "core",
        "median over rounds: recover_into (LIST, GET, open, apply) + Database::open + probe_tpcc on snapshot B"),
    e2e("promote_s", "s", Lower, 0.25, "standby",
        "median over rounds: Standby::promote (residual A->B) + Database::open + probe_tpcc"),
    e2e("stored_per_db_byte", "ratio", Lower, 0.15, "core",
        "bucket bytes / local database bytes at snapshot B"),
];

/// Single-layer numbers from the traced run. No bounds: they explain a
/// move in an end-to-end metric, they do not gate.
pub const PER_LAYER: &[Metric] = &[
    layer("workload.txn_p50_us", "us", Lower, "workload", "median transaction latency (traced run)", "informational: on pg_wan the median sits on the edge between committing alone and waiting for the other terminal's flush, and flips between 240 and 390 us"),
    layer("workload.txn_p99_us", "us", Lower, "workload", "99th percentile transaction latency (traced run)", "informational tail: sits on the 4 ms scheduler quantum with 2 terminals + pipeline threads on 2 cores"),
    layer("workload.txn_p999_us", "us", Lower, "workload", "99.9th percentile transaction latency (traced run)", "informational tail"),
    layer("core.exposure_ms_p50", "ms", Lower, "core", "median time from a WAL write's on_write return to completion of its covering PUT (untraced reference pass)", "the time form of exposure_updates_p50; steady only on pg_wan, where the cloud sets it"),
    layer("core.exposure_ms_p99", "ms", Lower, "core", "99th percentile of the same", "informational tail"),
    layer("core.exposure_updates_p99", "count", Lower, "core", "99th percentile of exposure in updates (untraced reference pass); S bounds it", "informational tail of exposure_updates_p50"),
    layer("db.native_tps", "1/s", Higher, "db", "same transaction stream on a bare MemFs", "reference ceiling for tps; moves only if db changed"),
    layer("db.fuse_tps", "1/s", Higher, "db", "same stream through InterceptFs + NullProcessor", "reference ceiling for tps; moves only if db or vfs changed"),
    layer("db.txn_self_us_p50", "us", Lower, "db", "median self time of the transaction span (minus file-system calls)", "txn_p90_us, tps on all commit workloads"),
    layer("db.wal_writes_per_txn", "count", Lower, "db", "intercepted WAL writes / transactions", "puts_per_ktxn, cpu_ms_per_ktxn on mysql_mem"),
    layer("db.wal_bytes_per_txn", "B", Lower, "db", "intercepted WAL bytes / transactions", "upload_bytes_per_txn on pg_mem, pg_wan"),
    layer("db.checkpoints", "count", Lower, "db", "engine checkpoints (full or fuzzy steps) during the timed load", "upload_bytes_per_txn, stored_per_db_byte"),
    layer("vfs.write_calls", "count", Lower, "vfs", "writes through InterceptFs during the timed load", "cpu_ms_per_ktxn on mysql_mem"),
    layer("vfs.local_write_us_p50", "us", Lower, "vfs", "median duration of the write on the local MemFs", "txn_p90_us on mysql_mem (5 writes/txn)"),
    layer("vfs.intercept_self_us_p50", "us", Lower, "vfs", "median self time of InterceptFs::write (event construction, copies)", "txn_p90_us, cpu_ms_per_ktxn on mysql_mem; little on pg_mem"),
    layer("vfs.classify_ns_p50", "ns", Lower, "vfs", "median duration of DbmsProcessor::classify", "txn_p90_us on mysql_mem"),
    layer("vfs.classify_calls", "count", Lower, "vfs", "classify calls during the timed load", "cpu_ms_per_ktxn on mysql_mem"),
    layer("core.on_write_wal_us_p50", "us", Lower, "core", "median self time of Ginja::on_write for WAL appends (commit-to-unblock)", "txn_p90_us, tps on mysql_mem; none on pg_wan (unblocked)"),
    layer("core.on_write_wal_us_p99", "us", Lower, "core", "99th percentile of the same", "txn tail on mysql_mem"),
    layer("core.on_write_wal_us_p999", "us", Lower, "core", "99.9th percentile of the same", "txn tail on mysql_mem"),
    layer("core.on_write_data_us_p50", "us", Lower, "core", "median self time of Ginja::on_write for data/control writes", "txn tail at checkpoints"),
    layer("core.blocked_share", "ratio", Lower, "core", "updates_blocked / updates_intercepted (Ginja::stats)", "tps, txn_p90_us; must stay ~0 on pg_wan"),
    layer("core.blocked_ms_total", "ms", Lower, "core", "blocked_time (Ginja::stats)", "tps on mysql_mem"),
    layer("core.put_ns_p50", "ns", Lower, "core", "CommitQueue::put median (stats.ingest histogram, 2x buckets)", "txn_p90_us on mysql_mem"),
    layer("core.put_ns_p99", "ns", Lower, "core", "CommitQueue::put p99 (stats.ingest histogram, 2x buckets)", "txn tail on mysql_mem"),
    layer("core.parks", "count", Lower, "core", "producer park episodes (stats.ingest)", "tps, txn tail on mysql_mem"),
    layer("core.adaptive_seals", "count", Lower, "core", "partial batches sealed early for parked producers", "puts_per_ktxn on mysql_mem"),
    layer("core.timeout_seals", "count", Lower, "core", "partial batches released by TB expiry", "puts_per_ktxn, exposure_updates_p50 on pg_wan"),
    layer("core.batches", "count", Lower, "core", "batches formed during the timed load", "puts_per_ktxn, usd_per_mtxn on pg_wan"),
    layer("core.updates_per_object", "count", Higher, "core", "intercepted WAL updates / WAL objects uploaded", "puts_per_ktxn, usd_per_mtxn, exposure_updates_p50 on pg_wan"),
    layer("core.coalesce_ratio", "ratio", Lower, "core", "raw WAL object bytes / intercepted WAL bytes", "upload_bytes_per_txn on pg_mem, pg_wan"),
    layer("core.replay_aggregate_mbps", "MB/s", Higher, "core", "agg::aggregate over the captured WAL payloads re-cut into block writes (replay)", "cpu_ms_per_ktxn on mysql_mem, pg_mem"),
    layer("core.replay_queue_mops", "Mops/s", Higher, "core", "CommitQueue put/take_batch/ack_front cycles on one thread (replay)", "cpu_ms_per_ktxn on mysql_mem"),
    layer("core.seal_ms_p50", "ms", Lower, "core", "median seal time per object (stats.seal_latency, 2x buckets)", "cpu_ms_per_ktxn, tps on pg_mem"),
    layer("core.seal_ms_p99", "ms", Lower, "core", "p99 seal time per object (stats.seal_latency)", "exposure_updates_p50 on pg_mem"),
    layer("core.seal_busy_s", "s", Lower, "core", "total time spent sealing (stats.seal_time)", "cpu_ms_per_ktxn, tps on pg_mem"),
    layer("core.ckpt_objects", "count", Lower, "core", "DB objects uploaded during the timed load", "upload_bytes_per_txn, puts_per_ktxn on pg_mem"),
    layer("core.dumps", "count", Lower, "core", "full dumps uploaded during the timed load", "upload_bytes_per_txn, stored_per_db_byte"),
    layer("core.db_bytes_sealed", "B", Lower, "core", "sealed DB-object bytes uploaded during the timed load", "upload_bytes_per_txn on pg_mem"),
    layer("core.gc_deletes", "count", Higher, "core", "garbage-collected objects during the timed load", "stored_per_db_byte, recover_s"),
    layer("core.drain_s", "s", Lower, "core", "Ginja::sync after the load stops", "cpu_ms_per_ktxn window; exposure tail"),
    layer("core.threads_max", "count", Lower, "core", "threads in the process while the load runs", "cpu_ms_per_ktxn (scheduler pressure on 2 cores)"),
    layer("codec.seal_mbps", "MB/s", Higher, "codec", "Codec::seal_into over the captured payloads' plaintext (replay)", "cpu_ms_per_ktxn, tps on pg_mem; nothing on MAC-only workloads"),
    layer("codec.open_mbps", "MB/s", Higher, "codec", "Codec::open_into over the captured sealed payloads (replay)", "recover_s on pg_mem, recover"),
    layer("codec.sealed_per_raw", "ratio", Lower, "codec", "sealed bytes / plaintext bytes over the captured payloads", "upload_bytes_per_txn, stored_per_db_byte on pg_mem"),
    layer("codec.bufpool_hit_rate", "ratio", Higher, "codec", "bufpool hits / takes during the replay", "cpu_ms_per_ktxn on pg_mem"),
    layer("cloud.put_count", "count", Lower, "cloud", "PUTs reaching the store under ResilientStore during the timed load", "puts_per_ktxn, usd_per_mtxn"),
    layer("cloud.put_bytes", "B", Lower, "cloud", "bytes of those PUTs", "upload_bytes_per_txn"),
    layer("cloud.put_ms_p50", "ms", Lower, "cloud", "median PUT duration at the store", "exposure_updates_p50 on pg_wan"),
    layer("cloud.put_ms_p99", "ms", Lower, "cloud", "p99 PUT duration at the store", "exposure tail on pg_wan"),
    layer("cloud.put_busy_s", "s", Lower, "cloud", "sum of PUT durations", "exposure_updates_p50 on pg_wan; ~0 on mem workloads"),
    layer("cloud.put_inflight_mean", "count", Higher, "cloud", "put_busy_s / wall time of the timed load", "exposure_updates_p50 on pg_wan (uploader parallelism)"),
    layer("cloud.put_inflight_max", "count", Higher, "cloud", "most PUTs in flight at once", "exposure_updates_p50 on pg_wan"),
    layer("cloud.get_count", "count", Lower, "cloud", "GETs of one cold recovery round", "recover_s on recover"),
    layer("cloud.get_ms_p50", "ms", Lower, "cloud", "median GET duration in cold recovery", "recover_s on recover"),
    layer("cloud.list_count", "count", Lower, "cloud", "LISTs of one cold recovery round", "recover_s, usd_per_mtxn"),
    layer("cloud.delete_count", "count", Higher, "cloud", "DELETEs during the timed load", "stored_per_db_byte"),
    layer("cloud.retries", "count", Lower, "cloud", "ResilientStore retries (Ginja::stats)", "exposure_updates_p50; 0 on every workload here"),
    layer("cloud.failures", "count", Lower, "cloud", "store operations that returned an error", "0 on every workload here"),
    layer("cloud.resilient_overhead_ns", "ns", Lower, "cloud", "ResilientStore::put minus bare MemStore::put per captured payload (replay)", "cpu_ms_per_ktxn on mysql_mem (many small PUTs)"),
    layer("core.recover_list_ms", "ms", Lower, "core", "LIST time in cold recovery (median round)", "recover_s"),
    layer("core.recover_fetch_wall_ms", "ms", Lower, "core", "wall time with at least one GET in flight", "recover_s on recover"),
    layer("core.recover_get_busy_ms", "ms", Lower, "core", "sum of GET durations", "recover_s on recover (fan-out = busy / wall)"),
    layer("core.recover_apply_ms", "ms", Lower, "core", "recover_into wall minus LIST minus fetch wall: open + apply", "recover_s on pg_mem, mysql_mem"),
    layer("db.open_ms", "ms", Lower, "db", "Database::open on the recovered files (WAL redo)", "recover_s, promote_s"),
    layer("db.probe_ms", "ms", Lower, "db", "probe_tpcc on the recovered database", "recover_s, promote_s"),
    layer("core.recover_objects", "count", Lower, "core", "objects in snapshot B", "recover_s, stored_per_db_byte"),
    layer("core.recover_bytes", "B", Lower, "core", "bytes in snapshot B", "recover_s, stored_per_db_byte"),
    layer("standby.tail_cycle_ms", "ms", Lower, "standby", "run_cycle time to bring the shadow to snapshot A (zero-latency lens)", "none end to end (paid while the primary is healthy)"),
    layer("standby.gets", "count", Lower, "standby", "GETs the standby issued in total (Standby::snapshot)", "usd of standing by"),
    layer("standby.residual_objects", "count", Lower, "standby", "objects fetched inside promote()", "promote_s"),
    layer("standby.promote_apply_ms", "ms", Lower, "standby", "promote() wall minus LIST minus fetch wall", "promote_s"),
    layer("proc.peak_rss_mb", "MiB", Lower, "proc", "VmHWM at exit", "-"),
    layer("proc.cpu_user_s", "s", Lower, "proc", "user CPU of the traced load window", "-"),
    layer("proc.cpu_sys_s", "s", Lower, "proc", "system CPU of the traced load window", "-"),
    layer("trace.overhead_pct", "%", Lower, "trace", "(untraced reference tps - traced tps) / untraced tps", "-"),
    layer("trace.unattributed_pct", "%", Lower, "trace", "share of transaction time not in db self, local write, intercept self, classify or on_write (non-write file ops)", "-"),
    layer("trace.recover_unattributed_pct", "%", Lower, "trace", "share of recover_s not in list + fetch wall + apply + db open + probe", "-"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "name {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.batch <= w.safety && w.segments >= 1 && w.reps >= 1);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}
