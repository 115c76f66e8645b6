use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Sleeps with microsecond precision: sleep for all but a short tail,
/// spin the remainder (bounded CPU steal; see `ginja_vfs::precise_sleep`
/// for the rationale — duplicated to avoid a dependency edge).
fn precise_sleep(duration: Duration) {
    const SPIN_TAIL: Duration = Duration::from_micros(150);
    if duration.is_zero() {
        return;
    }
    let deadline = Instant::now() + duration;
    if duration > SPIN_TAIL {
        std::thread::sleep(duration - SPIN_TAIL);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ObjectStore, StoreError};

/// A first-order model of cloud-storage operation latency:
/// `t = base + bytes / bandwidth`, with multiplicative jitter.
///
/// The defaults of [`LatencyModel::s3_wan`] are calibrated against the
/// paper's Table 3, which reports average PUT latencies from an academic
/// network in Lisbon to S3 US-East: ~0.69 s for 386 kB objects and
/// ~7.7 s for 10 MB objects — a fit of roughly 0.4 s base latency and
/// 1.4 MB/s sustained upload bandwidth. Downloads (used during recovery,
/// Figure 7) are several times faster.
///
/// `time_scale` shrinks simulated time uniformly so that experiments
/// complete in seconds: scaling *every* latency in the system (cloud and
/// local I/O alike, see `ginja-db`) by the same factor preserves all
/// latency ratios, which is what the paper's figures report.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-PUT latency (request setup, TLS, first byte).
    pub put_base: Duration,
    /// Upload bandwidth in bytes/second.
    pub upload_bandwidth: f64,
    /// Fixed per-GET latency.
    pub get_base: Duration,
    /// Download bandwidth in bytes/second.
    pub download_bandwidth: f64,
    /// Fixed LIST latency.
    pub list_base: Duration,
    /// Fixed DELETE latency.
    pub delete_base: Duration,
    /// Uniform multiplicative jitter: a sample in `[1-j, 1+j]` scales
    /// each latency. Zero disables jitter.
    pub jitter: f64,
    /// Global multiplier applied to every computed latency.
    pub time_scale: f64,
}

impl LatencyModel {
    /// WAN path to a remote region — the paper's primary-site view of S3.
    ///
    /// Fit jointly to Table 3's PUT latencies (386 kB → 692 ms,
    /// 3 MB → 2.9 s, 10 MB → 7.7 s) and the No-Loss throughput of
    /// Figure 5 (248 Tpm ⇒ ~240 ms per small-object PUT).
    pub fn s3_wan() -> Self {
        LatencyModel {
            put_base: Duration::from_millis(250),
            upload_bandwidth: 1.25e6,
            get_base: Duration::from_millis(150),
            download_bandwidth: 7.5e6,
            list_base: Duration::from_millis(200),
            delete_base: Duration::from_millis(80),
            jitter: 0.10,
            time_scale: 1.0,
        }
    }

    /// Intra-region path (an EC2 VM talking to S3 in the same region) —
    /// used for the "recover into a cloud VM" half of Figure 7.
    pub fn s3_intra_region() -> Self {
        LatencyModel {
            put_base: Duration::from_millis(30),
            upload_bandwidth: 60e6,
            get_base: Duration::from_millis(20),
            download_bandwidth: 60e6,
            list_base: Duration::from_millis(25),
            delete_base: Duration::from_millis(15),
            jitter: 0.10,
            time_scale: 1.0,
        }
    }

    /// Zero-latency model (useful to meter without waiting).
    pub fn instant() -> Self {
        LatencyModel {
            put_base: Duration::ZERO,
            upload_bandwidth: f64::INFINITY,
            get_base: Duration::ZERO,
            download_bandwidth: f64::INFINITY,
            list_base: Duration::ZERO,
            delete_base: Duration::ZERO,
            jitter: 0.0,
            time_scale: 1.0,
        }
    }

    /// Returns a copy with every latency multiplied by `scale`.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "time scale must be non-negative");
        self.time_scale = scale;
        self
    }

    /// Deterministic (jitter-free) PUT latency for `bytes`, after scaling.
    pub fn put_latency(&self, bytes: usize) -> Duration {
        self.scale(self.put_base, bytes as f64 / self.upload_bandwidth)
    }

    fn scale(&self, base: Duration, transfer_secs: f64) -> Duration {
        let total = base.as_secs_f64()
            + if transfer_secs.is_finite() {
                transfer_secs
            } else {
                0.0
            };
        Duration::from_secs_f64(total * self.time_scale)
    }
}

/// Wraps an [`ObjectStore`] and sleeps according to a [`LatencyModel`]
/// before forwarding each operation.
#[derive(Debug)]
pub struct LatencyStore<S> {
    inner: S,
    model: LatencyModel,
    rng: Mutex<StdRng>,
}

impl<S: ObjectStore> LatencyStore<S> {
    /// Wraps `inner` with `model`, seeding jitter deterministically.
    pub fn new(inner: S, model: LatencyModel) -> Self {
        Self::with_seed(inner, model, 0x6a1b_93e5)
    }

    /// Wraps with an explicit jitter seed (tests use this for
    /// reproducibility across runs).
    pub fn with_seed(inner: S, model: LatencyModel, seed: u64) -> Self {
        LatencyStore {
            inner,
            model,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    fn sleep(&self, nominal: Duration) {
        let jittered = if self.model.jitter > 0.0 {
            let factor = {
                let mut rng = self.rng.lock();
                1.0 + rng.gen_range(-self.model.jitter..=self.model.jitter)
            };
            nominal.mul_f64(factor.max(0.0))
        } else {
            nominal
        };
        if !jittered.is_zero() {
            precise_sleep(jittered);
        }
    }
}

impl<S: ObjectStore> ObjectStore for LatencyStore<S> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.sleep(self.model.put_latency(data.len()));
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        // Charge the base cost before knowing the size, then the
        // transfer cost for the bytes actually returned.
        self.sleep(self.model.get_base.mul_f64(self.model.time_scale));
        let data = self.inner.get(name)?;
        self.sleep(self.model.scale(
            Duration::ZERO,
            data.len() as f64 / self.model.download_bandwidth,
        ));
        Ok(data)
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.sleep(self.model.delete_base.mul_f64(self.model.time_scale));
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.sleep(self.model.list_base.mul_f64(self.model.time_scale));
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::time::Instant;

    #[test]
    fn wan_model_matches_table3_calibration() {
        let m = LatencyModel::s3_wan();
        // Paper Table 3, PostgreSQL plain: 386 kB → 692 ms, 10081 kB →
        // 7707 ms; the fit trades some small-object accuracy for the
        // No-Loss (tiny object ≈ 240 ms) end — stay within ~25 %.
        let small = m.put_latency(386 * 1000).as_secs_f64();
        let large = m.put_latency(10081 * 1000).as_secs_f64();
        let tiny = m.put_latency(8 * 1024).as_secs_f64();
        assert!((0.45..=0.80).contains(&small), "small {small}");
        assert!((6.2..=9.5).contains(&large), "large {large}");
        assert!((0.18..=0.32).contains(&tiny), "tiny {tiny}");
    }

    #[test]
    fn scaling_preserves_ratios() {
        let m = LatencyModel::s3_wan();
        let s = m.clone().scaled(0.01);
        let r_full = m.put_latency(1_000_000).as_secs_f64() / m.put_latency(10_000).as_secs_f64();
        let r_scaled = s.put_latency(1_000_000).as_secs_f64() / s.put_latency(10_000).as_secs_f64();
        // Durations round to whole nanoseconds, so allow a small tolerance.
        assert!(
            (r_full - r_scaled).abs() / r_full < 1e-4,
            "{r_full} vs {r_scaled}"
        );
    }

    #[test]
    fn instant_model_does_not_sleep() {
        let store = LatencyStore::new(MemStore::new(), LatencyModel::instant());
        let start = Instant::now();
        for i in 0..100 {
            store.put(&format!("o{i}"), &[0u8; 1024]).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn put_latency_grows_with_size() {
        let m = LatencyModel::s3_wan().scaled(1.0);
        assert!(m.put_latency(10_000_000) > m.put_latency(10_000));
    }

    #[test]
    fn scaled_store_sleeps_roughly_right() {
        // 100 kB at 1.25 MB/s + 250 ms base ≈ 330 ms; at 1% scale ≈ 3.3 ms.
        let mut model = LatencyModel::s3_wan().scaled(0.01);
        model.jitter = 0.0;
        let store = LatencyStore::new(MemStore::new(), model);
        let start = Instant::now();
        store.put("o", &[0u8; 100_000]).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(3), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
    }

    #[test]
    fn jitter_is_bounded() {
        let mut model = LatencyModel::instant();
        model.put_base = Duration::from_millis(10);
        model.jitter = 0.5;
        model.time_scale = 0.1; // 1 ms nominal
        let store = LatencyStore::new(MemStore::new(), model);
        for _ in 0..20 {
            let start = Instant::now();
            store.put("o", b"x").unwrap();
            let e = start.elapsed();
            assert!(e <= Duration::from_millis(60), "{e:?}");
        }
    }

    #[test]
    fn forwards_errors() {
        let store = LatencyStore::new(MemStore::new(), LatencyModel::instant());
        assert!(matches!(store.get("missing"), Err(StoreError::NotFound(_))));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scale_rejected() {
        let _ = LatencyModel::s3_wan().scaled(-1.0);
    }
}
