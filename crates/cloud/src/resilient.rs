//! Retry with backoff for every cloud operation.
//!
//! Ginja's safety guarantee (paper §4, Algorithm 2) only holds if
//! uploads eventually complete: when the cloud stalls, the DBMS blocks
//! at the Safety limit, so every transient `put` failure that is not
//! absorbed here becomes application downtime. [`ResilientStore`]
//! wraps any [`ObjectStore`] with one policy, driven by a
//! [`RetryConfig`]: each [retryable](StoreError::is_retryable) failure
//! is retried up to `max_attempts` times, sleeping a uniformly random
//! duration in `[0, min(base_delay · 2^attempt, max_delay)]` between
//! attempts (full jitter avoids retry synchronization across the
//! uploader pool). Backend pacing hints ([`StoreError::retry_after`])
//! are honoured as a minimum delay.
//!
//! A longer outage is not this layer's business: once an operation's
//! attempts are spent the error surfaces, the caller's own loop
//! (`put_with_retry` in ginja-core) tries again, and the commit queue
//! fills to S and blocks the DBMS until the cloud answers (paper §6).
//! The layer also meters every operation into a [`UsageLedger`];
//! [`ResilientStore::retries`] counts the attempts it re-issued.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::unit_draw;
use crate::usage::UsageLedger;
use crate::{ObjectStore, StoreError};

/// Tuning for [`ResilientStore`]. Defaults suit a WAN object store
/// (S3-class latency); tests shrink the delays by orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per operation (1 = no retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Cap on the backoff delay. Must be ≥ `base_delay`.
    pub max_delay: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryConfig {
    /// No retries: the wrapper becomes a metered pass-through (used as
    /// the ablation baseline).
    pub fn disabled() -> Self {
        RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        }
    }

    /// Validates invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("retry.max_attempts must be >= 1".into());
        }
        if self.base_delay > self.max_delay {
            return Err(format!(
                "retry.base_delay ({:?}) must not exceed retry.max_delay ({:?})",
                self.base_delay, self.max_delay
            ));
        }
        Ok(())
    }
}

/// An [`ObjectStore`] decorator adding retry with backoff (see the
/// module docs for the policy details).
///
/// Cloning is cheap and shares all state, so one wrapper can serve
/// Ginja's whole uploader pool and report pooled statistics.
#[derive(Clone)]
pub struct ResilientStore {
    inner: Arc<dyn ObjectStore>,
    config: Arc<RetryConfig>,
    retries: Arc<AtomicU64>,
    /// Usage accounting shared with every layer that issues cloud ops
    /// through this wrapper (`Ginja::usage_ledger` hands it out).
    ledger: Arc<UsageLedger>,
    /// splitmix64 state for jitter draws.
    jitter_state: Arc<AtomicU64>,
}

impl std::fmt::Debug for ResilientStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientStore")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ResilientStore {
    /// Wraps `inner` with the given policy.
    ///
    /// # Panics
    ///
    /// If `config` fails [`RetryConfig::validate`] (construction is the
    /// last line of defence; `GinjaConfig::validate` rejects bad
    /// configs with a proper error first).
    pub fn new(inner: Arc<dyn ObjectStore>, config: RetryConfig) -> Self {
        ResilientStore::with_ledger(inner, config, Arc::new(UsageLedger::new()))
    }

    /// Wraps `inner` with the given policy, recording every operation
    /// into an existing shared `ledger`.
    ///
    /// # Panics
    ///
    /// Same validation as [`ResilientStore::new`].
    pub fn with_ledger(
        inner: Arc<dyn ObjectStore>,
        config: RetryConfig,
        ledger: Arc<UsageLedger>,
    ) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid RetryConfig: {why}");
        }
        ResilientStore {
            inner,
            config: Arc::new(config),
            retries: Arc::new(AtomicU64::new(0)),
            ledger,
            jitter_state: Arc::new(AtomicU64::new(0x5DEE_CE66_D1CE_4E5B)),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &RetryConfig {
        &self.config
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn ObjectStore> {
        &self.inner
    }

    /// The usage ledger every operation through this wrapper lands in.
    pub fn ledger(&self) -> &Arc<UsageLedger> {
        &self.ledger
    }

    /// Retry attempts issued so far (beyond each operation's first
    /// attempt). Cheap; safe to poll.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Backoff before attempt `attempt + 1` (0-based), honouring a
    /// backend pacing hint as the floor.
    fn backoff_delay(&self, attempt: u32, hint: Option<Duration>) -> Duration {
        let exp = self
            .config
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.config.max_delay);
        exp.mul_f64(unit_draw(&self.jitter_state))
            .max(hint.unwrap_or(Duration::ZERO))
    }

    /// The retry loop shared by all four operations.
    fn run<T>(
        &self,
        mut operation: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt: u32 = 0;
        loop {
            match operation() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() && attempt + 1 < self.config.max_attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.backoff_delay(attempt, e.retry_after()));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl ObjectStore for ResilientStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        match self.run(|| self.inner.put(name, data)) {
            Ok(()) => {
                self.ledger
                    .record_put(name, data.len() as u64, started.elapsed());
                Ok(())
            }
            Err(e) => {
                self.ledger.record_failure();
                Err(e)
            }
        }
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        match self.run(|| self.inner.get(name)) {
            Ok(data) => {
                self.ledger.record_get(data.len() as u64);
                Ok(data)
            }
            Err(e) => {
                self.ledger.record_failure();
                Err(e)
            }
        }
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        match self.run(|| self.inner.delete(name)) {
            Ok(()) => {
                self.ledger.record_delete(name);
                Ok(())
            }
            Err(e) => {
                self.ledger.record_failure();
                Err(e)
            }
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        match self.run(|| self.inner.list(prefix)) {
            Ok(names) => {
                self.ledger.record_list();
                Ok(names)
            }
            Err(e) => {
                self.ledger.record_failure();
                Err(e)
            }
        }
    }
}

impl crate::usage::UsageMeter for ResilientStore {
    fn usage(&self) -> crate::usage::CloudUsage {
        self.ledger.usage()
    }

    fn put_samples(&self) -> Vec<crate::usage::PutSample> {
        self.ledger.put_samples()
    }

    fn dropped_put_samples(&self) -> u64 {
        self.ledger.dropped_put_samples()
    }

    fn reset_counters(&self) {
        self.ledger.reset_counters()
    }

    fn elapsed(&self) -> Duration {
        self.ledger.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usage::UsageMeter;
    use crate::{FaultPlan, FaultStore, MemStore, OpKind};

    /// Fast test policy: microsecond-scale delays.
    fn fast_config(max_attempts: u32) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(200),
        }
    }

    fn faulty_store(config: RetryConfig) -> (ResilientStore, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new());
        let store = FaultStore::new(MemStore::new(), plan.clone());
        (ResilientStore::new(Arc::new(store), config), plan)
    }

    #[test]
    fn passes_through_when_healthy() {
        let (store, plan) = faulty_store(fast_config(3));
        store.put("a", b"1").unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert_eq!(store.list("").unwrap(), vec!["a".to_string()]);
        store.delete("a").unwrap();
        assert_eq!(plan.injected_count(), 0);
        assert_eq!(store.retries(), 0);
    }

    #[test]
    fn retries_transient_failures_and_counts() {
        let (store, plan) = faulty_store(fast_config(5));
        plan.fail_next(OpKind::Put, 3);
        store.put("a", b"1").unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert_eq!(store.retries(), 3);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (store, plan) = faulty_store(fast_config(3));
        plan.fail_next(OpKind::Put, usize::MAX);
        assert!(store.put("a", b"1").is_err());
        assert_eq!(plan.injected_count(), 3);
        assert_eq!(store.retries(), 2);
    }

    #[test]
    fn does_not_retry_fatal_errors() {
        let (store, plan) = faulty_store(fast_config(5));
        plan.fail_fatally(OpKind::Put, 1);
        let err = store.put("a", b"1").unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(plan.injected_count(), 1, "fatal error must not be retried");
        assert_eq!(store.retries(), 0);
    }

    #[test]
    fn does_not_retry_not_found() {
        let (store, plan) = faulty_store(fast_config(5));
        assert!(matches!(store.get("missing"), Err(StoreError::NotFound(_))));
        assert_eq!(plan.injected_count(), 0);
        assert_eq!(store.retries(), 0);
    }

    #[test]
    fn honours_throttle_retry_after_hint() {
        let (store, plan) = faulty_store(fast_config(3));
        let hint = Duration::from_millis(30);
        plan.throttle_next(OpKind::Put, 1, Some(hint));
        let started = Instant::now();
        store.put("a", b"1").unwrap();
        assert!(
            started.elapsed() >= hint,
            "retry fired after {:?}, before the {hint:?} pacing hint",
            started.elapsed()
        );
        assert_eq!(store.retries(), 1);
    }

    #[test]
    fn disabled_config_is_single_shot() {
        let (store, plan) = faulty_store(RetryConfig::disabled());
        plan.fail_next(OpKind::Put, 1);
        assert!(store.put("a", b"1").is_err());
        store.put("a", b"1").unwrap();
        assert_eq!(store.retries(), 0);
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let (store, _plan) = faulty_store(RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            ..fast_config(3)
        });
        for attempt in 0..32 {
            let delay = store.backoff_delay(attempt, None);
            assert!(delay <= Duration::from_millis(4));
        }
        // The pacing hint is a floor even over the cap.
        let hinted = store.backoff_delay(0, Some(Duration::from_millis(50)));
        assert!(hinted >= Duration::from_millis(50));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let bad = RetryConfig {
            max_attempts: 0,
            ..RetryConfig::default()
        };
        assert!(bad.validate().is_err());

        let bad = RetryConfig {
            base_delay: Duration::from_secs(10),
            max_delay: Duration::from_secs(1),
            ..RetryConfig::default()
        };
        assert!(bad.validate().is_err());

        assert!(RetryConfig::default().validate().is_ok());
        assert!(RetryConfig::disabled().validate().is_ok());
    }

    #[test]
    fn ledger_meters_every_operation() {
        let (store, plan) = faulty_store(fast_config(5));
        store.put("a", b"12345").unwrap();
        store.get("a").unwrap();
        store.list("").unwrap();
        store.delete("a").unwrap();
        // A transiently failing put still lands as ONE successful put
        // in the ledger (attempt-level failures are the resilience
        // layer's business; billing counts the logical operation).
        plan.fail_next(OpKind::Put, 2);
        store.put("b", b"xy").unwrap();
        let u = store.usage();
        assert_eq!(u.puts, 2);
        assert_eq!(u.gets, 1);
        assert_eq!(u.lists, 1);
        assert_eq!(u.deletes, 1);
        assert_eq!(u.bytes_uploaded, 7);
        assert_eq!(u.stored_bytes, 2);
        assert_eq!(u.failures, 0);
        // An exhausted put is a ledger failure.
        plan.fail_next(OpKind::Put, usize::MAX);
        assert!(store.put("c", b"z").is_err());
        assert_eq!(store.usage().failures, 1);
        assert_eq!(store.put_samples().len(), 2);
    }

    #[test]
    fn concurrent_clones_share_state() {
        // 0.3^16 per-put chance of exhausting attempts: negligible.
        let (store, plan) = faulty_store(fast_config(16));
        plan.fail_randomly(OpKind::Put, 0.3, 11);
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    store.put(&format!("o-{t}-{i}"), b"x").unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(store.retries() > 0);
        assert_eq!(store.inner().list("").unwrap().len(), 200);
    }
}
