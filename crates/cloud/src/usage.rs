//! Cloud-usage accounting: the [`UsageLedger`].
//!
//! A ledger is a shared, thread-safe set of counters that the one
//! metering layer, [`crate::ResilientStore`], records every operation
//! into: boot, uploader, checkpointer, GC and standby traffic all land
//! in a single ledger, which feeds the §7 cost model, the Table 3
//! experiment, stats and tooling. Readers call the ledger directly
//! (`Ginja::usage_ledger`, [`crate::ResilientStore::ledger`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// One recorded PUT: payload size and observed end-to-end latency.
///
/// The per-configuration averages of these samples are exactly what the
/// paper's Table 3 reports ("Num. PUTs", "Object Size", "PUT latency").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PutSample {
    /// Uploaded object size in bytes.
    pub bytes: u64,
    /// Wall-clock latency of the PUT (includes simulated WAN time when
    /// stacked over a [`crate::LatencyStore`]).
    pub latency: Duration,
}

/// A snapshot of accumulated cloud usage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CloudUsage {
    /// Successful PUT operations.
    pub puts: u64,
    /// Successful GET operations.
    pub gets: u64,
    /// Successful DELETE operations.
    pub deletes: u64,
    /// Successful LIST operations.
    pub lists: u64,
    /// Failed operations of any kind.
    pub failures: u64,
    /// Total bytes uploaded by successful PUTs.
    pub bytes_uploaded: u64,
    /// Total bytes downloaded by successful GETs.
    pub bytes_downloaded: u64,
    /// Bytes currently stored (sum of live object sizes).
    pub stored_bytes: u64,
    /// High-water mark of `stored_bytes`.
    pub peak_stored_bytes: u64,
}

/// Bounded ring of PUT samples with an eviction counter.
#[derive(Debug)]
struct SampleRing {
    samples: VecDeque<PutSample>,
    capacity: usize,
    dropped: u64,
}

impl SampleRing {
    fn new(capacity: usize) -> Self {
        SampleRing {
            samples: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, sample: PutSample) {
        if self.samples.len() >= self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }
}

/// Shared, thread-safe cloud-usage accounting.
///
/// Cheap atomic counters plus a name → size map (so live stored bytes
/// work over any backend) and a bounded [`PutSample`] ring. Clone the
/// `Arc` and hand it to every layer that issues
/// cloud operations — all of them land in one ledger.
///
/// ```rust
/// use std::sync::Arc;
/// use ginja_cloud::UsageLedger;
/// use std::time::Duration;
///
/// let ledger = Arc::new(UsageLedger::new());
/// ledger.record_put("a", 100, Duration::from_millis(3));
/// ledger.record_get(100);
/// let usage = ledger.usage();
/// assert_eq!((usage.puts, usage.gets, usage.stored_bytes), (1, 1, 100));
/// ```
#[derive(Debug)]
pub struct UsageLedger {
    puts: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
    lists: AtomicU64,
    failures: AtomicU64,
    bytes_uploaded: AtomicU64,
    bytes_downloaded: AtomicU64,
    stored_bytes: AtomicU64,
    peak_stored_bytes: AtomicU64,
    sizes: Mutex<HashMap<String, u64>>,
    ring: Mutex<SampleRing>,
}

impl Default for UsageLedger {
    fn default() -> Self {
        UsageLedger::new()
    }
}

impl UsageLedger {
    /// A fresh ledger retaining the 8 192 most recent PUT samples:
    /// bounded so a month-long run cannot grow the ring without limit;
    /// once full, the oldest sample is evicted and counted
    /// ([`UsageLedger::dropped_put_samples`]).
    pub fn new() -> Self {
        UsageLedger::with_sample_capacity(8192)
    }

    /// A fresh ledger retaining at most `capacity` PUT samples.
    pub fn with_sample_capacity(capacity: usize) -> Self {
        UsageLedger {
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            lists: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            bytes_uploaded: AtomicU64::new(0),
            bytes_downloaded: AtomicU64::new(0),
            stored_bytes: AtomicU64::new(0),
            peak_stored_bytes: AtomicU64::new(0),
            sizes: Mutex::new(HashMap::new()),
            ring: Mutex::new(SampleRing::new(capacity.max(1))),
        }
    }

    /// Records one successful PUT of `bytes` for object `name`.
    pub fn record_put(&self, name: &str, bytes: u64, latency: Duration) {
        self.puts.fetch_add(1, Ordering::SeqCst);
        self.bytes_uploaded.fetch_add(bytes, Ordering::SeqCst);
        self.update_stored(name, Some(bytes));
        self.ring.lock().push(PutSample { bytes, latency });
    }

    /// Records one successful GET that downloaded `bytes`.
    pub fn record_get(&self, bytes: u64) {
        self.gets.fetch_add(1, Ordering::SeqCst);
        self.bytes_downloaded.fetch_add(bytes, Ordering::SeqCst);
    }

    /// Records one successful DELETE of object `name`.
    pub fn record_delete(&self, name: &str) {
        self.deletes.fetch_add(1, Ordering::SeqCst);
        self.update_stored(name, None);
    }

    /// Records one successful LIST.
    pub fn record_list(&self) {
        self.lists.fetch_add(1, Ordering::SeqCst);
    }

    /// Records one failed operation of any kind.
    pub fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::SeqCst);
    }

    /// Current usage snapshot.
    pub fn usage(&self) -> CloudUsage {
        CloudUsage {
            puts: self.puts.load(Ordering::SeqCst),
            gets: self.gets.load(Ordering::SeqCst),
            deletes: self.deletes.load(Ordering::SeqCst),
            lists: self.lists.load(Ordering::SeqCst),
            failures: self.failures.load(Ordering::SeqCst),
            bytes_uploaded: self.bytes_uploaded.load(Ordering::SeqCst),
            bytes_downloaded: self.bytes_downloaded.load(Ordering::SeqCst),
            stored_bytes: self.stored_bytes.load(Ordering::SeqCst),
            peak_stored_bytes: self.peak_stored_bytes.load(Ordering::SeqCst),
        }
    }

    /// The retained PUT samples, oldest first (cloned). The ring is
    /// bounded; [`UsageLedger::dropped_put_samples`] counts the older
    /// samples it evicted.
    pub fn put_samples(&self) -> Vec<PutSample> {
        self.ring.lock().samples.iter().copied().collect()
    }

    /// How many PUT samples were evicted because the ring was full.
    pub fn dropped_put_samples(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Mean PUT latency over the retained samples, or zero when empty.
    pub fn mean_put_latency(&self) -> Duration {
        let samples = self.put_samples();
        if samples.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = samples.iter().map(|s| s.latency).sum();
        total / samples.len() as u32
    }

    /// Resets counters and samples (stored-size tracking is kept, as
    /// the objects remain in the backend).
    pub fn reset_counters(&self) {
        self.puts.store(0, Ordering::SeqCst);
        self.gets.store(0, Ordering::SeqCst);
        self.deletes.store(0, Ordering::SeqCst);
        self.lists.store(0, Ordering::SeqCst);
        self.failures.store(0, Ordering::SeqCst);
        self.bytes_uploaded.store(0, Ordering::SeqCst);
        self.bytes_downloaded.store(0, Ordering::SeqCst);
        {
            let mut ring = self.ring.lock();
            ring.samples.clear();
            ring.dropped = 0;
        }
        let stored = self.stored_bytes.load(Ordering::SeqCst);
        self.peak_stored_bytes.store(stored, Ordering::SeqCst);
    }

    fn update_stored(&self, name: &str, new_size: Option<u64>) {
        let mut sizes = self.sizes.lock();
        let old = match new_size {
            Some(size) => sizes.insert(name.to_string(), size),
            None => sizes.remove(name),
        };
        let old = old.unwrap_or(0);
        let new = new_size.unwrap_or(0);
        let stored = if new >= old {
            self.stored_bytes.fetch_add(new - old, Ordering::SeqCst) + (new - old)
        } else {
            self.stored_bytes.fetch_sub(old - new, Ordering::SeqCst) - (old - new)
        };
        self.peak_stored_bytes.fetch_max(stored, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_records_ops() {
        let ledger = UsageLedger::new();
        ledger.record_put("a", 100, Duration::from_millis(1));
        ledger.record_put("b", 50, Duration::from_millis(3));
        ledger.record_get(100);
        ledger.record_list();
        ledger.record_delete("b");
        ledger.record_failure();
        let u = ledger.usage();
        assert_eq!(u.puts, 2);
        assert_eq!(u.gets, 1);
        assert_eq!(u.lists, 1);
        assert_eq!(u.deletes, 1);
        assert_eq!(u.failures, 1);
        assert_eq!(u.bytes_uploaded, 150);
        assert_eq!(u.bytes_downloaded, 100);
        assert_eq!(u.stored_bytes, 100);
        assert_eq!(u.peak_stored_bytes, 150);
    }

    #[test]
    fn sample_ring_caps_and_counts_drops() {
        let ledger = UsageLedger::with_sample_capacity(4);
        for i in 0..10 {
            ledger.record_put(&format!("o{i}"), i, Duration::from_micros(i));
        }
        let samples = ledger.put_samples();
        assert_eq!(samples.len(), 4);
        assert_eq!(ledger.dropped_put_samples(), 6);
        // The ring keeps the most recent samples.
        assert_eq!(samples[0].bytes, 6);
        assert_eq!(samples[3].bytes, 9);
    }

    #[test]
    fn reset_clears_counters_and_drops() {
        let ledger = UsageLedger::with_sample_capacity(2);
        ledger.record_put("a", 1, Duration::ZERO);
        ledger.record_put("b", 1, Duration::ZERO);
        ledger.record_put("c", 1, Duration::ZERO);
        assert_eq!(ledger.dropped_put_samples(), 1);
        ledger.reset_counters();
        assert_eq!(ledger.dropped_put_samples(), 0);
        assert!(ledger.put_samples().is_empty());
        assert_eq!(ledger.usage().puts, 0);
        // Stored bytes survive a reset: the objects are still there.
        assert_eq!(ledger.usage().stored_bytes, 3);
    }

    #[test]
    fn mean_latency_zero_when_empty() {
        let ledger = UsageLedger::new();
        assert_eq!(ledger.mean_put_latency(), Duration::ZERO);
    }

    #[test]
    fn concurrent_recording_consistent() {
        use std::sync::Arc;
        let ledger = Arc::new(UsageLedger::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let ledger = ledger.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    ledger.record_put(&format!("o-{t}-{i}"), 10, Duration::ZERO);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let u = ledger.usage();
        assert_eq!(u.puts, 200);
        assert_eq!(u.bytes_uploaded, 2000);
        assert_eq!(u.stored_bytes, 2000);
    }

    #[test]
    fn stored_bytes_follow_puts_and_deletes() {
        let ledger = UsageLedger::new();
        ledger.record_put("a", 100, Duration::ZERO);
        assert_eq!(ledger.usage().stored_bytes, 100);
        ledger.record_put("a", 40, Duration::ZERO); // overwrite shrinks
        assert_eq!(ledger.usage().stored_bytes, 40);
        ledger.record_put("b", 60, Duration::ZERO);
        assert_eq!(ledger.usage().stored_bytes, 100);
        ledger.record_delete("a");
        assert_eq!(ledger.usage().stored_bytes, 60);
        assert_eq!(ledger.usage().peak_stored_bytes, 100);
    }

    #[test]
    fn delete_missing_does_not_underflow() {
        let ledger = UsageLedger::new();
        ledger.record_delete("never-existed");
        assert_eq!(ledger.usage().stored_bytes, 0);
    }
}
