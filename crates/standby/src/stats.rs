//! The standby's counters: tail cycles, GETs, lag gauges, promotions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ginja_core::{LatencyHisto, LatencySnapshot};

/// Shared atomic counters updated by a warm standby; read through
/// [`crate::Standby::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct StandbyStats {
    tail_cycles: AtomicU64,
    gets: AtomicU64,
    bytes_fetched: AtomicU64,
    tail_errors: AtomicU64,
    lag_objects: AtomicU64,
    lag_bytes: AtomicU64,
    lag_micros: AtomicU64,
    resets: AtomicU64,
    promotions: AtomicU64,
    promotion_histo: LatencyHisto,
}

impl StandbyStats {
    /// Records one completed tail cycle: the GETs it issued and the
    /// sealed bytes they downloaded.
    pub(crate) fn record_cycle(&self, gets: u64, bytes: u64) {
        self.tail_cycles.fetch_add(1, Ordering::Relaxed);
        self.gets.fetch_add(gets, Ordering::Relaxed);
        self.bytes_fetched.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one failed tail cycle (cloud unreachable).
    pub(crate) fn record_error(&self) {
        self.tail_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the lag gauges: objects and bytes in the bucket the shadow
    /// has not absorbed yet, and how stale the shadow is in wall time.
    pub(crate) fn set_lag(&self, objects: u64, bytes: u64, age: Duration) {
        self.lag_objects.store(objects, Ordering::Relaxed);
        self.lag_bytes.store(bytes, Ordering::Relaxed);
        self.lag_micros.store(
            age.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records one shadow reset (a new dump generation forced a full
    /// re-apply).
    pub(crate) fn record_reset(&self) {
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one promotion and its wall-clock residual-replay time —
    /// the *achieved* RTO of the standby path.
    pub(crate) fn record_promotion(&self, rto: Duration) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.promotion_histo.record(rto);
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> StandbySnapshot {
        StandbySnapshot {
            tail_cycles: self.tail_cycles.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
            tail_errors: self.tail_errors.load(Ordering::Relaxed),
            lag_objects: self.lag_objects.load(Ordering::Relaxed),
            lag_bytes: self.lag_bytes.load(Ordering::Relaxed),
            lag: Duration::from_micros(self.lag_micros.load(Ordering::Relaxed)),
            resets: self.resets.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            promotion_latency: self.promotion_histo.snapshot(),
        }
    }
}

/// A point-in-time copy of a standby's counters
/// ([`crate::Standby::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandbySnapshot {
    /// Completed tail cycles (each one LIST delta + the GETs it
    /// implied).
    pub tail_cycles: u64,
    /// GETs the tail issued (metered in the ledger of the store it
    /// reads through; a WAL object re-applied from the standby's cache
    /// is not one).
    pub gets: u64,
    /// Sealed bytes the tail downloaded.
    pub bytes_fetched: u64,
    /// Tail cycles that failed outright (cloud unreachable) — lag
    /// grows across these.
    pub tail_errors: u64,
    /// Objects in the bucket the shadow has not absorbed yet (gauge).
    pub lag_objects: u64,
    /// Bytes those unabsorbed objects carry (gauge).
    pub lag_bytes: u64,
    /// Wall-clock staleness of the shadow: how long the tail has been
    /// behind the bucket (gauge; zero when fully drained).
    pub lag: Duration,
    /// Shadow resets forced by a new dump generation.
    pub resets: u64,
    /// Promotions performed (normally 0 or 1; drills may add more).
    pub promotions: u64,
    /// Distribution of promotion residual-replay times — the achieved
    /// RTO histogram the ablation reads.
    pub promotion_latency: LatencySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standby_stats_accumulate_and_snapshot() {
        let s = StandbyStats::default();
        s.record_cycle(3, 900);
        s.record_cycle(0, 0);
        s.record_error();
        s.set_lag(5, 4096, Duration::from_millis(250));
        s.record_reset();
        s.record_promotion(Duration::from_millis(12));
        let snap = s.snapshot();
        assert_eq!(snap.tail_cycles, 2);
        assert_eq!(snap.gets, 3);
        assert_eq!(snap.bytes_fetched, 900);
        assert_eq!(snap.tail_errors, 1);
        assert_eq!(snap.lag_objects, 5);
        assert_eq!(snap.lag_bytes, 4096);
        assert_eq!(snap.lag, Duration::from_millis(250));
        assert_eq!(snap.resets, 1);
        assert_eq!(snap.promotions, 1);
        assert_eq!(snap.promotion_latency.count, 1);
    }
}
