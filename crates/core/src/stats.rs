//! Runtime statistics of the middleware — blocking time, uploads,
//! object sizes. These counters feed the Table 3/4 experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A lock-free latency histogram with power-of-two nanosecond buckets.
///
/// Bucket `b` holds samples whose nanosecond value has bit-width `b`
/// (bucket 0 is exactly 0 ns, bucket 1 is 1 ns, bucket 2 is 2–3 ns, …,
/// bucket 63 everything from 2^62 ns, about 146 years, up), so
/// recording is a `bit_width` plus one relaxed `fetch_add` — cheap
/// enough to sit on the seal and PUT hot paths it instruments, and fine
/// enough for the sub-microsecond `CommitQueue::put`.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; 64],
    total_nanos: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHisto {
    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX >> 1)) as u64;
        let bucket = (u64::BITS - nanos.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time summary (count, mean, p50, p99).
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return LatencySnapshot::default();
        }
        // A bucket's representative value is its lower bound: exact for
        // buckets 0 and 1, within 2x above that — plenty for p50/p99
        // over the order-of-magnitude spreads these stages exhibit.
        let quantile = |q: f64| -> Duration {
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (b, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    let lower = if b == 0 { 0u64 } else { 1u64 << (b - 1) };
                    return Duration::from_nanos(lower);
                }
            }
            Duration::ZERO
        };
        LatencySnapshot {
            count,
            mean: Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed) / count),
            p50: quantile(0.50),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time summary of a [`LatencyHisto`], embedded per stage in
/// [`GinjaStatsSnapshot`]. Percentiles are bucket lower bounds (exact to
/// within 2x).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Median latency (bucket lower bound).
    pub p50: Duration,
    /// 99th-percentile latency (bucket lower bound).
    pub p99: Duration,
}

/// A point-in-time view of the commit queue between intercepted WAL
/// writes and the uploaders (`DESIGN.md` §16), embedded in
/// [`GinjaStatsSnapshot`].
///
/// The latency histograms answer the paper's Figure 5 question ("how
/// much latency does Ginja add to a synchronous WAL write?") directly:
/// `put_latency` is the full cost of `CommitQueue::put`, and
/// `blocked_latency` is the distribution of nonzero Safety stalls. The
/// counters say how often producers waited and why partial batches
/// sealed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Full `CommitQueue::put` latency (stalls included).
    pub put_latency: LatencySnapshot,
    /// Nonzero Safety/TS stall durations (`PutOutcome::blocked_for`).
    pub blocked_latency: LatencySnapshot,
    /// Park episodes: a producer blocked on Safety waited on the
    /// not-full condvar (one put may wait several times).
    pub put_parks: u64,
    /// Partial batches an idle uploader sealed early because producers
    /// were parked against Safety (adaptive group sealing).
    pub adaptive_seals: u64,
    /// Partial batches released by TB expiry.
    pub timeout_seals: u64,
}

/// Shared atomic counters updated by every pipeline stage.
#[derive(Debug, Default)]
pub struct GinjaStats {
    pub(crate) updates_intercepted: AtomicU64,
    pub(crate) updates_blocked: AtomicU64,
    pub(crate) blocked_micros: AtomicU64,
    pub(crate) batches_formed: AtomicU64,
    pub(crate) wal_objects_uploaded: AtomicU64,
    pub(crate) wal_bytes_raw: AtomicU64,
    pub(crate) wal_bytes_sealed: AtomicU64,
    pub(crate) db_objects_uploaded: AtomicU64,
    pub(crate) db_bytes_sealed: AtomicU64,
    pub(crate) checkpoints_seen: AtomicU64,
    pub(crate) dumps_uploaded: AtomicU64,
    pub(crate) gc_deletes: AtomicU64,
    pub(crate) gc_deletes_deferred: AtomicU64,
    pub(crate) seal_micros: AtomicU64,
    pub(crate) wal_resync_objects: AtomicU64,
    pub(crate) pipeline_fatals: AtomicU64,
    pub(crate) gc_backlog_dropped: AtomicU64,
    pub(crate) ckpt_coalesced: AtomicU64,
    pub(crate) seal_histo: LatencyHisto,
    pub(crate) put_histo: LatencyHisto,
}

impl GinjaStats {
    pub(crate) fn add_blocked(&self, blocked: Duration) {
        if !blocked.is_zero() {
            self.updates_blocked.fetch_add(1, Ordering::Relaxed);
            self.blocked_micros
                .fetch_add(blocked.as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> GinjaStatsSnapshot {
        GinjaStatsSnapshot {
            updates_intercepted: self.updates_intercepted.load(Ordering::Relaxed),
            updates_blocked: self.updates_blocked.load(Ordering::Relaxed),
            blocked_time: Duration::from_micros(self.blocked_micros.load(Ordering::Relaxed)),
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            wal_objects_uploaded: self.wal_objects_uploaded.load(Ordering::Relaxed),
            wal_bytes_raw: self.wal_bytes_raw.load(Ordering::Relaxed),
            wal_bytes_sealed: self.wal_bytes_sealed.load(Ordering::Relaxed),
            db_objects_uploaded: self.db_objects_uploaded.load(Ordering::Relaxed),
            db_bytes_sealed: self.db_bytes_sealed.load(Ordering::Relaxed),
            checkpoints_seen: self.checkpoints_seen.load(Ordering::Relaxed),
            dumps_uploaded: self.dumps_uploaded.load(Ordering::Relaxed),
            gc_deletes: self.gc_deletes.load(Ordering::Relaxed),
            gc_deletes_deferred: self.gc_deletes_deferred.load(Ordering::Relaxed),
            gc_backlog: 0,
            seal_time: Duration::from_micros(self.seal_micros.load(Ordering::Relaxed)),
            wal_resync_objects: self.wal_resync_objects.load(Ordering::Relaxed),
            pipeline_fatals: self.pipeline_fatals.load(Ordering::Relaxed),
            gc_backlog_dropped: self.gc_backlog_dropped.load(Ordering::Relaxed),
            ckpt_coalesced: self.ckpt_coalesced.load(Ordering::Relaxed),
            seal_latency: self.seal_histo.snapshot(),
            put_latency: self.put_histo.snapshot(),
            cloud_retries: 0,
            // Ingest histograms/counters live on the CommitQueue itself;
            // `Ginja::stats` merges them in.
            ingest: IngestSnapshot::default(),
        }
    }
}

/// A point-in-time copy of [`GinjaStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GinjaStatsSnapshot {
    /// WAL writes intercepted (Ginja's unit of "database update").
    pub updates_intercepted: u64,
    /// Updates whose `put` blocked on Safety.
    pub updates_blocked: u64,
    /// Total time the DBMS spent blocked on Safety.
    pub blocked_time: Duration,
    /// Batches the uploaders took from the commit queue.
    pub batches_formed: u64,
    /// WAL objects successfully uploaded.
    pub wal_objects_uploaded: u64,
    /// Raw (pre-seal) WAL bytes.
    pub wal_bytes_raw: u64,
    /// Sealed (post-compression/encryption) WAL bytes uploaded.
    pub wal_bytes_sealed: u64,
    /// DB object parts successfully uploaded.
    pub db_objects_uploaded: u64,
    /// Sealed DB bytes uploaded.
    pub db_bytes_sealed: u64,
    /// DBMS checkpoints observed (begin→end pairs).
    pub checkpoints_seen: u64,
    /// Full dumps uploaded (initial boot dump included).
    pub dumps_uploaded: u64,
    /// Cloud DELETE operations issued by garbage collection.
    pub gc_deletes: u64,
    /// GC DELETEs that exhausted their retry budget, or failed with a
    /// non-retryable error that says nothing about the object, and
    /// were deferred to the next checkpoint's garbage-collection pass.
    pub gc_deletes_deferred: u64,
    /// Deferred GC DELETEs currently waiting for the next checkpoint
    /// (a gauge, not a counter).
    pub gc_backlog: u64,
    /// Garbage names dropped because the deferred-delete backlog was at
    /// its cap — each one a bounded cost leak, never unbounded RAM
    /// growth: Reboot's LIST re-adopts the name and the next
    /// checkpoint's GC deletes it.
    pub gc_backlog_dropped: u64,
    /// CPU-ish time spent sealing objects (compression + encryption +
    /// MAC) — the codec contribution to Table 4's CPU overhead.
    pub seal_time: Duration,
    /// WAL objects uploaded by the Reboot resync pass (local durable
    /// WAL content the cloud was missing after a crash — see
    /// `Ginja::reboot`).
    pub wal_resync_objects: u64,
    /// Fatal pipeline errors: failures on the data path (e.g. a seal
    /// error in an uploader) that stop the stage rather than being
    /// silently dropped. Any nonzero value means the pipeline is no
    /// longer draining and the DBMS will block at Safety.
    pub pipeline_fatals: u64,
    /// Seal-stage latency (compress + encrypt + MAC per object).
    pub seal_latency: LatencySnapshot,
    /// Cloud PUT latency as observed by the pipeline (through the
    /// resilience layer, so retries are included).
    pub put_latency: LatencySnapshot,
    /// Store operations re-issued by the resilience layer's one retry
    /// loop (one per failed attempt it retried), across every cloud
    /// operation, bounded and durable alike.
    pub cloud_retries: u64,
    /// Checkpoint jobs absorbed into a queued one because the bounded
    /// checkpoint queue was at capacity.
    pub ckpt_coalesced: u64,
    /// Commit-queue state: put/blocked latency histograms, parks and
    /// seal counts, merged in by `Ginja::stats`.
    pub ingest: IngestSnapshot,
}

impl GinjaStatsSnapshot {
    /// Compression+encryption ratio achieved on WAL data (raw/sealed).
    pub fn wal_seal_ratio(&self) -> f64 {
        if self.wal_bytes_sealed == 0 {
            1.0
        } else {
            self.wal_bytes_raw as f64 / self.wal_bytes_sealed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = GinjaStats::default();
        stats.updates_intercepted.store(10, Ordering::Relaxed);
        stats.wal_objects_uploaded.store(2, Ordering::Relaxed);
        stats.wal_bytes_sealed.store(300, Ordering::Relaxed);
        stats.wal_bytes_raw.store(600, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.updates_intercepted, 10);
        assert!((snap.wal_seal_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_accounting() {
        let stats = GinjaStats::default();
        stats.add_blocked(Duration::ZERO);
        assert_eq!(stats.snapshot().updates_blocked, 0);
        stats.add_blocked(Duration::from_millis(5));
        stats.add_blocked(Duration::from_millis(7));
        let snap = stats.snapshot();
        assert_eq!(snap.updates_blocked, 2);
        assert_eq!(snap.blocked_time, Duration::from_millis(12));
    }

    #[test]
    fn empty_snapshot_ratios_are_neutral() {
        let snap = GinjaStats::default().snapshot();
        assert!((snap.wal_seal_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_histo_quantiles() {
        let h = LatencyHisto::default();
        assert_eq!(h.snapshot(), LatencySnapshot::default());
        // 100 fast samples and 10 slow outliers: the p50 must stay in
        // the fast band while the p99 lands on the outliers' bucket.
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(80));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 110);
        // 100 000 ns has bit-width 17 -> bucket lower bound 65 536 ns.
        assert_eq!(snap.p50, Duration::from_nanos(65_536));
        // 80 000 000 ns has bit-width 27 -> bucket lower bound 2^26 ns.
        assert_eq!(snap.p99, Duration::from_nanos(1 << 26));
        let mean = snap.mean.as_micros() as u64;
        let expect = (100 * 100 + 10 * 80_000) / 110;
        assert!(mean.abs_diff(expect) <= 1, "mean {mean} µs");
    }

    #[test]
    fn latency_histo_zero_and_one_nano_are_exact() {
        let h = LatencyHisto::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(1));
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.p50, Duration::ZERO);
        assert_eq!(snap.p99, Duration::from_nanos(1));
    }

    #[test]
    fn latency_histo_resolves_sub_microsecond_puts() {
        // The `CommitQueue::put` band: a microsecond-bucketed histogram
        // read these as 0; nanosecond buckets keep them apart.
        let h = LatencyHisto::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(300));
        }
        h.record(Duration::from_nanos(900));
        h.record(Duration::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.p50, Duration::from_nanos(256));
        assert_eq!(snap.p99, Duration::from_nanos(512));
    }

    #[test]
    fn stage_latencies_surface_in_snapshot() {
        let stats = GinjaStats::default();
        stats.seal_histo.record(Duration::from_micros(10));
        stats.put_histo.record(Duration::from_millis(30));
        stats.pipeline_fatals.store(1, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.seal_latency.count, 1);
        assert_eq!(snap.put_latency.count, 1);
        assert_eq!(snap.pipeline_fatals, 1);
        assert!(snap.put_latency.mean >= snap.seal_latency.mean);
    }
}
