//! One protected database: TPC-C terminals → `ginja-db` engine →
//! `InterceptFs` → `Ginja` → `ResilientStore` → [`OpLog`] → (latency) →
//! [`Bucket`], plus the load generator and the disaster drill.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ginja_cloud::{LatencyModel, LatencyStore, MemStore, ObjectStore};
use ginja_codec::CodecConfig;
use ginja_core::{recover_into, Ginja, GinjaConfig, IngestConfig};
use ginja_db::{Database, DbProfile, IoDelay, ProfileKind};
use ginja_vfs::{
    DbmsProcessor, FileSystem, InterceptFs, IoProcessor, MemFs, MySqlProcessor, NullProcessor,
    PostgresProcessor,
};
use ginja_workload::{probe_tpcc, Tpcc, TpccScale};

use crate::probes::{Bucket, OpLog, TapProcessor, TracedClassifier, TracedFs};
use crate::spec::{
    Cloud, Workload, BATCH_TIMEOUT_SIM, MARKERS_OVER_SAFETY, MARKER_TABLE, MAX_MARKER_BASE,
    RECOVERY_FANOUT, SAFETY_TIMEOUT_SIM, SCALE, WAREHOUSES,
};
use crate::trace::{self, SpanKind};

/// How long `Ginja::sync` may take before the run counts it as failed.
const SYNC_TIMEOUT: Duration = Duration::from_secs(60);

/// TB and TS of a workload whose bucket must not depend on timing:
/// longer than any run.
const TIMER_FREE_TIMEOUT: Duration = Duration::from_secs(3600);

/// Counts of checks made and failed; every correctness check of a run
/// lands here and decides the exit code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; prints the reason when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// File layout per DBMS kind, with run-time delays off. Segments are
/// smaller than the real systems' so boot uploads stay quick while
/// rollover (PG) and circular wrap (MySQL) still happen within a run.
pub fn layout_profile(kind: ProfileKind) -> DbProfile {
    match kind {
        ProfileKind::Postgres => DbProfile {
            wal_segment_size: 4 * 1024 * 1024,
            ..DbProfile::postgres_default()
        },
        ProfileKind::MySql => DbProfile {
            wal_segment_size: 8 * 1024 * 1024,
            ..DbProfile::mysql_default()
        },
    }
}

fn run_profile(w: &Workload) -> DbProfile {
    let mut profile = layout_profile(w.kind);
    if !w.commit_flush_sim.is_zero() {
        profile = profile.with_io_delay(IoDelay {
            commit_flush: w.commit_flush_sim,
            ..IoDelay::hdd_15k().scaled(SCALE)
        });
    }
    match w.ckpt_every {
        Some(every) => profile.with_checkpoint_every(every),
        None => profile,
    }
}

fn base_classifier(kind: ProfileKind) -> Arc<dyn DbmsProcessor> {
    match kind {
        ProfileKind::Postgres => Arc::new(PostgresProcessor::new()),
        ProfileKind::MySql => Arc::new(MySqlProcessor::new()),
    }
}

/// The Ginja configuration of a workload.
pub fn ginja_config(w: &Workload) -> GinjaConfig {
    let codec = if w.full_codec {
        CodecConfig::new()
            .compression(true)
            .password("bench-e2e-password")
    } else {
        CodecConfig::new()
    };
    // A bucket that must be a pure function of the seed cannot have
    // batches cut by a clock or by how far the uploaders happen to lag:
    // only B-count seals and the explicit sync() flushes remain.
    let timer_free = w.quiesced();
    let (tb, ts) = if timer_free {
        (TIMER_FREE_TIMEOUT, TIMER_FREE_TIMEOUT)
    } else {
        (
            BATCH_TIMEOUT_SIM.mul_f64(SCALE),
            SAFETY_TIMEOUT_SIM.mul_f64(SCALE),
        )
    };
    GinjaConfig::builder()
        .batch(w.batch)
        .safety(w.safety)
        .batch_timeout(tb)
        .safety_timeout(ts)
        .ingest(IngestConfig {
            adaptive_seal: !timer_free,
            ..IngestConfig::default()
        })
        .uploaders(w.uploaders)
        .recovery_fanout(RECOVERY_FANOUT)
        .codec(codec)
        .build()
        .expect("workload table holds valid configurations")
}

/// A database image loaded with TPC-C data and the drill's marker
/// table, checkpointed, ready to fork.
pub fn build_template(kind: ProfileKind, seed: u64) -> Arc<MemFs> {
    let fs = Arc::new(MemFs::new());
    let db = Database::create(fs.clone(), layout_profile(kind)).expect("create template");
    let mut tpcc = Tpcc::new(WAREHOUSES, seed, TpccScale::bench());
    tpcc.create_schema(&db).expect("schema");
    db.create_table(MARKER_TABLE, 32).expect("marker table");
    tpcc.load(&db).expect("load");
    db.checkpoint().expect("checkpoint after load");
    fs
}

/// What sits between the engine and its files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Bare `MemFs` (the paper's "ext4" bar).
    Native,
    /// `InterceptFs` + `NullProcessor` (the "FUSE" bar).
    Fuse,
    /// Full Ginja.
    Ginja,
}

/// Result of one closed-loop load.
#[derive(Debug, Default, Clone)]
pub struct Load {
    /// Per-transaction latency, all terminals, unsorted.
    pub lat_ns: Vec<u64>,
    pub wall: Duration,
    pub txns: u64,
    pub errors: u64,
    /// Process threads while the terminals were running.
    pub threads: u64,
}

impl Load {
    pub fn merge(&mut self, other: Load) {
        self.lat_ns.extend(other.lat_ns);
        self.wall += other.wall;
        self.txns += other.txns;
        self.errors += other.errors;
        self.threads = self.threads.max(other.threads);
    }
}

/// One experiment instance.
pub struct Rig {
    pub db: Arc<Database>,
    pub ginja: Option<Ginja>,
    pub bucket: Arc<Bucket>,
    pub ops: Arc<OpLog>,
    pub tap: Option<Arc<TapProcessor>>,
    pub config: GinjaConfig,
    pace_tps: Option<u64>,
    terminals: Vec<Tpcc>,
    next_txn: u32,
    next_marker: u64,
}

impl Rig {
    /// Forks `template` and starts the stack. `traced` adds the span
    /// decorators; the tap and the op log are always there.
    pub fn boot(
        template: &MemFs,
        w: &Workload,
        seed: u64,
        protection: Protection,
        traced: bool,
    ) -> Rig {
        let local = Arc::new(template.fork());
        let bucket = Arc::new(Bucket::new());
        let front: Arc<dyn ObjectStore> = match w.cloud {
            Cloud::Mem => bucket.clone(),
            Cloud::Wan => Arc::new(LatencyStore::with_seed(
                bucket.clone(),
                LatencyModel::s3_wan().scaled(SCALE),
                seed,
            )),
        };
        let ops = Arc::new(OpLog::new(front));
        let config = ginja_config(w);
        // Ginja reads the raw local files (boot dump, checkpoint
        // merges): that I/O is core's own cost, not the engine's.
        let engine_local: Arc<dyn FileSystem> = if traced {
            Arc::new(TracedFs::local(local.clone()))
        } else {
            local.clone()
        };

        let (inner, ginja, tap): (Arc<dyn FileSystem>, _, _) = match protection {
            Protection::Native => (engine_local, None, None),
            Protection::Fuse => (
                Arc::new(InterceptFs::new(engine_local, Arc::new(NullProcessor))),
                None,
                None,
            ),
            Protection::Ginja => {
                let base = base_classifier(w.kind);
                let classifier: Arc<dyn DbmsProcessor> = if traced {
                    Arc::new(TracedClassifier::new(base.clone()))
                } else {
                    base.clone()
                };
                let cloud: Arc<dyn ObjectStore> = ops.clone();
                let ginja =
                    Ginja::boot(local, cloud, classifier, config.clone()).expect("ginja boot");
                let processor: Arc<dyn IoProcessor> = Arc::new(ginja.clone());
                let tap = Arc::new(TapProcessor::new(processor, base));
                (
                    Arc::new(InterceptFs::new(engine_local, tap.clone())),
                    Some(ginja),
                    Some(tap),
                )
            }
        };
        let fs: Arc<dyn FileSystem> = if traced {
            Arc::new(TracedFs::outer(inner))
        } else {
            inner
        };
        let db = Arc::new(Database::open(fs, run_profile(w)).expect("open db"));
        let terminals = (0..w.terminals)
            .map(|t| Tpcc::for_terminal(WAREHOUSES, seed, TpccScale::bench(), t, w.terminals))
            .collect();
        Rig {
            db,
            ginja,
            bucket,
            ops,
            tap,
            config,
            pace_tps: w.pace_tps,
            terminals,
            next_txn: 0,
            next_marker: 0,
        }
    }

    /// Runs `total` transactions split evenly over the terminals, each
    /// terminal issuing its next only after the previous committed —
    /// and, on a paced workload, not before its slot on the schedule.
    pub fn load(&mut self, total: u64) -> Load {
        let per_terminal = (total / self.terminals.len() as u64).max(1);
        let slot = self
            .pace_tps
            .map(|tps| Duration::from_secs_f64(self.terminals.len() as f64 / tps as f64));
        let barrier = Barrier::new(self.terminals.len() + 1);
        let db = &self.db;
        let first_txn = self.next_txn;
        let n_terminals = self.terminals.len() as u32;
        let mut load = Load::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .terminals
                .iter_mut()
                .enumerate()
                .map(|(t, tpcc)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_terminal as usize);
                        let mut errors = 0u64;
                        barrier.wait();
                        let begun = Instant::now();
                        for i in 0..per_terminal as u32 {
                            if let Some(slot) = slot {
                                // Plain sleep: spinning to the slot would
                                // show up as the workload's own CPU.
                                std::thread::sleep((slot * i).saturating_sub(begun.elapsed()));
                            }
                            trace::set_txn(first_txn + i * n_terminals + t as u32);
                            let start = Instant::now();
                            let span = trace::enter(SpanKind::Txn);
                            let result = tpcc.run_transaction(db);
                            drop(span);
                            lat.push(start.elapsed().as_nanos() as u64);
                            errors += u64::from(result.is_err());
                        }
                        (lat, errors)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            load.threads = crate::procfs::threads();
            for handle in handles {
                let (lat, errors) = handle.join().expect("terminal panicked");
                load.lat_ns.extend(lat);
                load.errors += errors;
            }
            load.wall = start.elapsed();
        });
        load.txns = per_terminal * self.terminals.len() as u64;
        self.next_txn += load.txns as u32;
        load
    }

    /// `Ginja::sync`, as a check. Returns how long it took.
    pub fn sync(&self, checks: &mut Checks) -> Duration {
        let start = Instant::now();
        if let Some(ginja) = &self.ginja {
            let drained = ginja.sync(SYNC_TIMEOUT);
            checks.check(drained, || "Ginja::sync did not drain".into());
        }
        start.elapsed()
    }

    /// sync → engine checkpoint → sync: afterwards the bucket holds
    /// the checkpoint and garbage collection has run, so its contents
    /// do not depend on upload timing.
    pub fn quiesce(&self, checks: &mut Checks) {
        self.sync(checks);
        let ok = self.db.checkpoint().is_ok();
        checks.check(ok, || "engine checkpoint failed".into());
        self.sync(checks);
    }

    /// The disaster drill: min(S, 1000) + 50 sequential marker commits, the bucket
    /// cut at one instant *without* `sync()`, recovered into a fresh
    /// file system; then (a) the database opens and probes consistent,
    /// (b) the recovered markers are a contiguous prefix, (c) at most S
    /// markers are lost.
    pub fn disaster_drill(&mut self, kind: ProfileKind, checks: &mut Checks) {
        let markers = (self.config.safety as u64).min(MAX_MARKER_BASE) + MARKERS_OVER_SAFETY;
        let first = self.next_marker;
        for seq in first..first + markers {
            let ok = self
                .db
                .put(MARKER_TABLE, seq, seq.to_le_bytes().to_vec())
                .is_ok();
            checks.check(ok, || format!("marker commit {seq} failed"));
        }
        self.next_marker += markers;
        let frozen = self.bucket.freeze();

        let fs = Arc::new(MemFs::new());
        let recovered = recover_into(fs.as_ref(), &frozen, &self.config);
        checks.check(recovered.is_ok(), || {
            format!("drill recovery failed: {:?}", recovered.as_ref().err())
        });
        let db = match Database::open(fs, layout_profile(kind)) {
            Ok(db) => db,
            Err(err) => {
                checks.check(false, || format!("drill database did not open: {err}"));
                return;
            }
        };
        let consistent = probe_tpcc(&db).is_ok_and(|r| r.is_consistent());
        checks.check(consistent, || "drill database probes inconsistent".into());
        let keys: Vec<u64> = db
            .dump_table(MARKER_TABLE)
            .map(|rows| rows.into_iter().map(|(k, _)| k).collect())
            .unwrap_or_default();
        let contiguous = keys.iter().copied().eq(0..keys.len() as u64);
        checks.check(contiguous, || {
            let gap = keys.iter().zip(0u64..).find(|(k, i)| *k != i);
            format!(
                "recovered markers are not a contiguous prefix: {} of {} recovered, first gap {gap:?}, last {:?}",
                keys.len(),
                first + markers,
                keys.last()
            )
        });
        let lost = (first + markers).saturating_sub(keys.len() as u64);
        checks.check(lost <= self.config.safety as u64, || {
            format!("lost {lost} markers > S = {}", self.config.safety)
        });
    }

    /// Stops the middleware (joins its threads).
    pub fn shutdown(&self) {
        if let Some(ginja) = &self.ginja {
            ginja.shutdown();
        }
    }

    /// Bytes of the engine's non-WAL files.
    pub fn db_bytes(&self) -> u64 {
        self.db.db_size_bytes().unwrap_or(0)
    }
}

/// Copy of a frozen bucket's `(objects, bytes)`.
pub fn inventory(store: &MemStore) -> (u64, u64) {
    (store.len() as u64, store.total_bytes())
}
