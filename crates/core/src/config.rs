use std::time::Duration;

use ginja_cloud::RetryConfig;
use ginja_codec::CodecConfig;

use crate::GinjaError;

/// Point-in-time-recovery retention (§5.4): instead of deleting
/// superseded dump chains at garbage-collection time, keep the most
/// recent `keep_snapshots` chains so the database can be restored to an
/// earlier state (protection against operator mistakes and ransomware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PitrConfig {
    /// Number of superseded dump chains to retain (in addition to the
    /// live chain). Zero is equivalent to disabling PITR.
    pub keep_snapshots: usize,
}

/// Ingest tuning: whether an idle uploader may seal a partial batch
/// early on behalf of producers (DBMS threads blocked inside an intercepted
/// WAL write; see `DESIGN.md` §16).
///
/// This shapes *latency*, never *safety*: the queue enforces S and TS
/// regardless of what is set here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Whether an idle uploader seals a partial batch early when
    /// producers are parked against the Safety bound — trading B for
    /// latency under the Safety bound (S is never raised).
    pub adaptive_seal: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            adaptive_seal: true,
        }
    }
}

/// Configuration of the Ginja middleware.
///
/// The two headline parameters come straight from §5.1:
///
/// * **Batch** (`batch`/`batch_timeout` = B/TB) — a batch of updates is
///   sent to the cloud when `B` updates accumulate, or when `TB` elapses
///   since the last synchronization ended with updates pending.
/// * **Safety** (`safety`/`safety_timeout` = S/TS) — a WAL write blocks
///   the DBMS when more than `S` updates are unconfirmed, or when `TS`
///   has elapsed since the first unconfirmed update.
///
/// `B = S = 1` is synchronous replication (the paper's *No-Loss*
/// configuration); large `B`/`S` approach pure asynchrony.
#[derive(Debug, Clone)]
pub struct GinjaConfig {
    /// B — updates per cloud synchronization.
    pub batch: usize,
    /// TB — flush a partial batch after this long.
    pub batch_timeout: Duration,
    /// S — maximum unconfirmed updates before blocking the DBMS.
    pub safety: usize,
    /// TS — block the DBMS when the oldest unconfirmed update is older
    /// than this.
    pub safety_timeout: Duration,
    /// Number of parallel uploader threads (the paper found 5 best in
    /// its environment, §8).
    pub uploaders: usize,
    /// Fan-out width for bulk cloud transfers outside the steady-state
    /// uploader pool: recovery GETs, checkpoint/dump part uploads and
    /// reboot resync waves. 1 means fully serial (the pre-fan-out
    /// behaviour); larger values cut RTO roughly by this factor on
    /// latency-bound stores.
    pub recovery_fanout: usize,
    /// Maximum size of a single cloud object; larger payloads are split
    /// (§5.2 footnote: 20 MB default, "to optimize the upload latency").
    pub max_object_size: usize,
    /// Upload a full dump when the DB objects in the cloud reach this
    /// multiple of the local database size (§5.3: 150 %). Fixed for the
    /// instance's life, like B and TB: an outage does not move it.
    pub dump_threshold: f64,
    /// Object protection: compression / encryption / MAC settings.
    pub codec: CodecConfig,
    /// Optional point-in-time-recovery retention.
    pub pitr: Option<PitrConfig>,
    /// Cloud-path resilience policy: retry with jittered backoff.
    /// Every cloud operation Ginja issues (boot uploads, batch uploads,
    /// checkpoint merges, garbage collection) goes through this policy.
    pub retry: RetryConfig,
    /// Ingest tuning: adaptive partial-batch sealing.
    pub ingest: IngestConfig,
}

impl GinjaConfig {
    /// Starts building a configuration from the defaults
    /// (B = 100, S = 1000, TB = 1 s, TS = 5 s, 5 uploaders, 20 MB
    /// objects, 150 % dump threshold, MAC-only codec).
    pub fn builder() -> GinjaConfigBuilder {
        GinjaConfigBuilder::new()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Config`] when a constraint is violated.
    pub fn validate(&self) -> Result<(), GinjaError> {
        if self.batch == 0 {
            return Err(GinjaError::Config("batch (B) must be at least 1".into()));
        }
        if self.safety < self.batch {
            return Err(GinjaError::Config(format!(
                "safety (S = {}) must be >= batch (B = {}), or the queue can never fill a batch",
                self.safety, self.batch
            )));
        }
        if self.uploaders == 0 {
            return Err(GinjaError::Config(
                "at least one uploader thread is required".into(),
            ));
        }
        if self.recovery_fanout == 0 {
            return Err(GinjaError::Config(
                "recovery fan-out must be at least 1 (1 = serial)".into(),
            ));
        }
        if self.max_object_size < 4096 {
            return Err(GinjaError::Config(
                "max object size must be at least 4 KiB".into(),
            ));
        }
        // NaN must be rejected too, hence the explicit comparison shape.
        if self.dump_threshold.is_nan() || self.dump_threshold <= 1.0 {
            return Err(GinjaError::Config(
                "dump threshold must be greater than 1.0".into(),
            ));
        }
        self.retry.validate().map_err(GinjaError::Config)?;
        Ok(())
    }
}

/// Builder for [`GinjaConfig`].
#[derive(Debug, Clone)]
pub struct GinjaConfigBuilder {
    config: GinjaConfig,
}

impl Default for GinjaConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GinjaConfigBuilder {
    /// Starts from the defaults described on [`GinjaConfig::builder`].
    pub fn new() -> Self {
        GinjaConfigBuilder {
            config: GinjaConfig {
                batch: 100,
                batch_timeout: Duration::from_secs(1),
                safety: 1000,
                safety_timeout: Duration::from_secs(5),
                uploaders: 5,
                recovery_fanout: 4,
                max_object_size: 20 * 1024 * 1024,
                dump_threshold: 1.5,
                codec: CodecConfig::new(),
                pitr: None,
                retry: RetryConfig::default(),
                ingest: IngestConfig::default(),
            },
        }
    }

    /// Sets B, the batch size.
    #[must_use]
    pub fn batch(mut self, b: usize) -> Self {
        self.config.batch = b;
        self
    }

    /// Sets TB, the batch timeout.
    #[must_use]
    pub fn batch_timeout(mut self, tb: Duration) -> Self {
        self.config.batch_timeout = tb;
        self
    }

    /// Sets S, the safety limit.
    #[must_use]
    pub fn safety(mut self, s: usize) -> Self {
        self.config.safety = s;
        self
    }

    /// Sets TS, the safety timeout.
    #[must_use]
    pub fn safety_timeout(mut self, ts: Duration) -> Self {
        self.config.safety_timeout = ts;
        self
    }

    /// Sets the number of parallel uploader threads.
    #[must_use]
    pub fn uploaders(mut self, n: usize) -> Self {
        self.config.uploaders = n;
        self
    }

    /// Sets the fan-out width for recovery GETs, checkpoint part
    /// uploads and reboot resync (1 = serial).
    #[must_use]
    pub fn recovery_fanout(mut self, n: usize) -> Self {
        self.config.recovery_fanout = n;
        self
    }

    /// Sets the maximum cloud-object size.
    #[must_use]
    pub fn max_object_size(mut self, bytes: usize) -> Self {
        self.config.max_object_size = bytes;
        self
    }

    /// Sets the dump threshold (default 1.5 = the paper's 150 %).
    #[must_use]
    pub fn dump_threshold(mut self, ratio: f64) -> Self {
        self.config.dump_threshold = ratio;
        self
    }

    /// Sets the object codec configuration (compression/encryption).
    #[must_use]
    pub fn codec(mut self, codec: CodecConfig) -> Self {
        self.config.codec = codec;
        self
    }

    /// Enables point-in-time recovery with the given retention.
    #[must_use]
    pub fn pitr(mut self, pitr: PitrConfig) -> Self {
        self.config.pitr = Some(pitr);
        self
    }

    /// Sets the cloud-path resilience policy (retry with backoff). Use
    /// [`RetryConfig::disabled`] to make every bounded cloud operation
    /// surface its first failure (ablation studies only); pipeline
    /// writes still never give up.
    #[must_use]
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.config.retry = retry;
        self
    }

    /// Sets the ingest tuning (adaptive partial-batch sealing).
    #[must_use]
    pub fn ingest(mut self, ingest: IngestConfig) -> Self {
        self.config.ingest = ingest;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`GinjaError::Config`] when a constraint is violated.
    pub fn build(self) -> Result<GinjaConfig, GinjaError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The option surface, pinned at compile time. The rule (DESIGN.md
    /// §4): an option exists only if something outside its own
    /// validation test sets it. Every pattern below is exhaustive — no
    /// `..` — so adding a field to any of the three structs breaks this
    /// test, and the fix is to name, next to the new binding, the caller
    /// that sets it.
    #[test]
    fn option_surface_is_pinned() {
        let GinjaConfig {
            batch: _,           // bench_e2e rig, every example
            batch_timeout: _,   // bench_e2e rig
            safety: _,          // bench_e2e rig, every example
            safety_timeout: _,  // bench_e2e rig, `ginja-cli outage`
            uploaders: _,       // bench_e2e rig, crashpoint sweep
            recovery_fanout: _, // bench_e2e rig, fig7, crashpoint sweep
            max_object_size: _, // the paper's §5.2 parameter; no caller yet
            dump_threshold: _,  // crashpoint sweep
            codec: _,           // bench_e2e rig, `ginja-cli`
            pitr: _,            // examples/point_in_time.rs
            retry,
            ingest,
        } = GinjaConfig::builder().build().unwrap();
        let RetryConfig {
            max_attempts: _, // `ginja-cli outage`, tests/outage.rs
            base_delay: _,   // `ginja-cli outage`, tests/outage.rs
            max_delay: _,    // `ginja-cli outage`, tests/outage.rs
        } = retry;
        let IngestConfig {
            adaptive_seal: _, // bench_e2e rig (`recover` turns it off)
        } = ingest;
    }

    #[test]
    fn defaults_are_valid() {
        let c = GinjaConfig::builder().build().unwrap();
        assert_eq!(c.batch, 100);
        assert_eq!(c.safety, 1000);
        assert_eq!(c.uploaders, 5);
        assert_eq!(c.max_object_size, 20 * 1024 * 1024);
        assert!((c.dump_threshold - 1.5).abs() < 1e-9);
    }

    #[test]
    fn no_loss_config_is_valid() {
        // B = S = 1: the paper's synchronous-replication configuration.
        let c = GinjaConfig::builder().batch(1).safety(1).build().unwrap();
        assert_eq!((c.batch, c.safety), (1, 1));
    }

    #[test]
    fn batch_above_safety_rejected() {
        let err = GinjaConfig::builder()
            .batch(100)
            .safety(10)
            .build()
            .unwrap_err();
        assert!(matches!(err, GinjaError::Config(_)));
    }

    #[test]
    fn zero_batch_rejected() {
        assert!(GinjaConfig::builder().batch(0).build().is_err());
    }

    #[test]
    fn zero_uploaders_rejected() {
        assert!(GinjaConfig::builder().uploaders(0).build().is_err());
    }

    #[test]
    fn recovery_fanout_carried_through_and_validated() {
        let c = GinjaConfig::builder().build().unwrap();
        assert_eq!(c.recovery_fanout, 4, "default fan-out");
        let c = GinjaConfig::builder().recovery_fanout(8).build().unwrap();
        assert_eq!(c.recovery_fanout, 8);
        assert!(GinjaConfig::builder().recovery_fanout(1).build().is_ok());
        assert!(GinjaConfig::builder().recovery_fanout(0).build().is_err());
    }

    #[test]
    fn tiny_object_size_rejected() {
        assert!(GinjaConfig::builder().max_object_size(100).build().is_err());
    }

    #[test]
    fn ingest_carried_through_and_validated() {
        let c = GinjaConfig::builder().build().unwrap();
        assert!(c.ingest.adaptive_seal, "adaptive sealing defaults on");

        let c = GinjaConfig::builder()
            .ingest(IngestConfig {
                adaptive_seal: false,
            })
            .build()
            .unwrap();
        assert!(!c.ingest.adaptive_seal);
    }

    #[test]
    fn dump_threshold_must_exceed_one() {
        assert!(GinjaConfig::builder().dump_threshold(1.0).build().is_err());
        assert!(GinjaConfig::builder().dump_threshold(0.5).build().is_err());
        assert!(GinjaConfig::builder().dump_threshold(1.01).build().is_ok());
    }

    #[test]
    fn pitr_carried_through() {
        let c = GinjaConfig::builder()
            .pitr(PitrConfig { keep_snapshots: 3 })
            .build()
            .unwrap();
        assert_eq!(c.pitr.unwrap().keep_snapshots, 3);
    }

    #[test]
    fn retry_policy_carried_through() {
        let c = GinjaConfig::builder()
            .retry(RetryConfig {
                max_attempts: 9,
                ..RetryConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(c.retry.max_attempts, 9);
    }

    #[test]
    fn invalid_retry_policy_rejected() {
        let zero_attempts = RetryConfig {
            max_attempts: 0,
            ..RetryConfig::default()
        };
        assert!(GinjaConfig::builder().retry(zero_attempts).build().is_err());

        let inverted_delays = RetryConfig {
            base_delay: Duration::from_secs(9),
            max_delay: Duration::from_secs(1),
            ..RetryConfig::default()
        };
        assert!(GinjaConfig::builder()
            .retry(inverted_delays)
            .build()
            .is_err());

        assert!(GinjaConfig::builder()
            .retry(RetryConfig::disabled())
            .build()
            .is_ok());
    }
}
