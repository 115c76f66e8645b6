//! The one retry loop for every cloud operation.
//!
//! Ginja's safety guarantee (paper §4, Algorithm 2) only holds if
//! uploads eventually complete: when the cloud stalls, the DBMS blocks
//! at the Safety limit, so every transient `put` failure that is not
//! absorbed here becomes application downtime. [`ResilientStore`]
//! wraps any [`ObjectStore`] and is the only code that re-issues a
//! failed store operation. Every operation runs one loop on one
//! schedule, driven by a [`RetryConfig`]: between attempts it waits a
//! uniformly random duration in `[0, min(base_delay · 2^attempt,
//! max_delay)]` (full jitter avoids retry synchronization across the
//! uploader pool), with a backend pacing hint
//! ([`StoreError::retry_after`]) as the floor.
//!
//! The caller picks the rest ([`ResilientStore::retrying`]): its
//! [`StopSignal`], on which the back-offs wait so that a shutdown ends
//! them at once, and one of two give-up rules ([`GiveUp`]):
//!
//! * [`GiveUp::Bounded`]: `max_attempts` attempts, retryable errors
//!   only. The [`ObjectStore`] impl runs it (boot and reboot uploads,
//!   reboot's LIST), and so do the standby and GC deletes.
//! * [`GiveUp::Durable`]: until success or shutdown. The uploaders' and
//!   the checkpointer's PUTs and the collision-merge GETs run it. A
//!   long outage is then the Safety limit's business: the commit queue
//!   fills to S and blocks the DBMS until the cloud answers (paper §6).
//!
//! The layer also meters every operation into one [`UsageLedger`];
//! [`ResilientStore::retries`] counts the attempts it re-issued.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::fault::{splitmix64, unit_draw};
use crate::usage::UsageLedger;
use crate::{ObjectStore, StoreError};

/// Tuning for [`ResilientStore`]. Defaults suit a WAN object store
/// (S3-class latency); tests shrink the delays by orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Attempts per [bounded](GiveUp::Bounded) operation (1 = no
    /// retries). Must be ≥ 1.
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
    /// Bounded operations are not retried (the ablation baseline);
    /// durable ones still retry until success or shutdown.
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

/// When [`ResilientStore`]'s loop stops re-issuing a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUp {
    /// After `max_attempts` attempts, and at once on an error that is
    /// not [retryable](StoreError::is_retryable).
    Bounded,
    /// Never on its own: every error is retried until success or
    /// shutdown, except [`StoreError::NotFound`] and
    /// [`StoreError::Corrupt`], which prove the object gone or damaged
    /// (a PUT meets neither).
    Durable,
}

/// A latched stop flag that threads can both poll (one atomic load) and
/// sleep on (interruptible by [`StopSignal::stop`]).
#[derive(Debug, Default)]
pub struct StopSignal {
    stopped: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

/// The signal of an operation no caller can stop: the
/// [`ObjectStore`] impl's.
static UNSTOPPED: StopSignal = StopSignal::new();

impl StopSignal {
    /// A signal that is not stopped.
    pub const fn new() -> Self {
        StopSignal {
            stopped: AtomicBool::new(false),
            gate: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Whether [`StopSignal::stop`] was called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Latches the flag and wakes every waiter. The flag is stored
    /// under `gate`, so a waiter that checked it under the same lock
    /// cannot miss the notification.
    pub fn stop(&self) {
        let _gate = self.gate.lock();
        self.stopped.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Sleeps up to `timeout`; returns whether the signal is stopped
    /// (immediately when it already is).
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut gate = self.gate.lock();
        while !self.is_stopped() {
            if self.wake.wait_until(&mut gate, deadline).timed_out() {
                break;
            }
        }
        self.is_stopped()
    }
}

/// The process-wide splitmix64 stream each new [`ResilientStore`] draws
/// its jitter seed from, so stores that share a provider and start
/// together do not retry in lockstep.
static JITTER_SEEDS: AtomicU64 = AtomicU64::new(0x5DEE_CE66_D1CE_4E5B);

/// An [`ObjectStore`] decorator adding retry with backoff and usage
/// metering (see the module docs).
///
/// Cloning is cheap and shares all state, so one wrapper can serve
/// Ginja's whole uploader pool and report pooled statistics.
#[derive(Clone)]
pub struct ResilientStore {
    inner: Arc<dyn ObjectStore>,
    config: Arc<RetryConfig>,
    retries: Arc<AtomicU64>,
    /// Usage accounting shared with every clone (`Ginja::usage_ledger`
    /// hands it out).
    ledger: Arc<UsageLedger>,
    /// splitmix64 state for jitter draws, seeded per store from
    /// [`JITTER_SEEDS`].
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
    /// Wraps `inner` with the given policy and a fresh ledger.
    ///
    /// # Panics
    ///
    /// If `config` fails [`RetryConfig::validate`] (construction is the
    /// last line of defence; `GinjaConfig::validate` rejects bad
    /// configs with a proper error first).
    pub fn new(inner: Arc<dyn ObjectStore>, config: RetryConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid RetryConfig: {why}");
        }
        ResilientStore {
            inner,
            config: Arc::new(config),
            retries: Arc::new(AtomicU64::new(0)),
            ledger: Arc::new(UsageLedger::new()),
            // A mixed draw, not the raw state: two seeds one gamma
            // apart would give the same stream shifted by one draw.
            jitter_state: Arc::new(AtomicU64::new(splitmix64(&JITTER_SEEDS))),
        }
    }

    /// The usage ledger every operation through this wrapper lands in.
    pub fn ledger(&self) -> &Arc<UsageLedger> {
        &self.ledger
    }

    /// Retry attempts issued so far (beyond each operation's first
    /// attempt), under either rule. Cheap; safe to poll.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// This store under `give_up`, its back-offs cut short by `stop`
    /// (the failed attempt's error is returned then). The
    /// [`ObjectStore`] impl is `retrying(GiveUp::Bounded, <a signal
    /// nothing stops>)`.
    pub fn retrying<'a>(&'a self, give_up: GiveUp, stop: &'a StopSignal) -> Retrying<'a> {
        Retrying {
            store: self,
            give_up,
            stop,
        }
    }

    /// Backoff before attempt `attempt + 1` (0-based), honouring a
    /// backend pacing hint as the floor.
    fn retry_delay(&self, attempt: u32, hint: Option<Duration>) -> Duration {
        let exp = self
            .config
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.config.max_delay);
        exp.mul_f64(unit_draw(&self.jitter_state))
            .max(hint.unwrap_or(Duration::ZERO))
    }

    /// The retry loop: the one place a failed store operation is
    /// re-issued.
    fn run<T>(
        &self,
        give_up: GiveUp,
        stop: &StopSignal,
        mut operation: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt: u32 = 0;
        loop {
            let err = match operation() {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let retry = match give_up {
                GiveUp::Bounded => err.is_retryable() && attempt + 1 < self.config.max_attempts,
                GiveUp::Durable => !matches!(err, StoreError::NotFound(_) | StoreError::Corrupt(_)),
            };
            if !retry {
                return Err(err);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            if stop.wait(self.retry_delay(attempt, err.retry_after())) {
                return Err(err);
            }
            attempt = attempt.saturating_add(1);
        }
    }
}

/// A [`ResilientStore`] under one give-up rule and stop signal (see
/// [`ResilientStore::retrying`]): each operation runs the retry loop,
/// then lands in the ledger — a success as itself, an operation the
/// loop gave up on as one failure.
pub struct Retrying<'a> {
    store: &'a ResilientStore,
    give_up: GiveUp,
    stop: &'a StopSignal,
}

impl Retrying<'_> {
    fn run<T>(
        &self,
        operation: impl FnMut() -> Result<T, StoreError>,
        record: impl FnOnce(&UsageLedger, &T),
    ) -> Result<T, StoreError> {
        let result = self.store.run(self.give_up, self.stop, operation);
        match &result {
            Ok(value) => record(&self.store.ledger, value),
            Err(_) => self.store.ledger.record_failure(),
        }
        result
    }
}

impl ObjectStore for Retrying<'_> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        self.run(
            || self.store.inner.put(name, data),
            |ledger, ()| ledger.record_put(name, data.len() as u64, started.elapsed()),
        )
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.run(
            || self.store.inner.get(name),
            |ledger, data| ledger.record_get(data.len() as u64),
        )
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.run(
            || self.store.inner.delete(name),
            |ledger, ()| ledger.record_delete(name),
        )
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.run(
            || self.store.inner.list(prefix),
            |ledger, _| ledger.record_list(),
        )
    }
}

impl ObjectStore for ResilientStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.retrying(GiveUp::Bounded, &UNSTOPPED).put(name, data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.retrying(GiveUp::Bounded, &UNSTOPPED).get(name)
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.retrying(GiveUp::Bounded, &UNSTOPPED).delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.retrying(GiveUp::Bounded, &UNSTOPPED).list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Nor under the durable rule: it proves the object gone.
        let never = StopSignal::new();
        let durable = store.retrying(GiveUp::Durable, &never).get("missing");
        assert!(matches!(durable, Err(StoreError::NotFound(_))));
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
    fn retry_delay_is_capped_and_jittered() {
        let (store, _plan) = faulty_store(RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            ..fast_config(3)
        });
        for attempt in 0..32 {
            let delay = store.retry_delay(attempt, None);
            assert!(delay <= Duration::from_millis(4));
        }
        // The pacing hint is a floor even over the cap.
        let hinted = store.retry_delay(0, Some(Duration::from_millis(50)));
        assert!(hinted >= Duration::from_millis(50));
    }

    #[test]
    fn fresh_stores_draw_different_backoffs() {
        let config = RetryConfig {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_secs(1),
            ..fast_config(3)
        };
        let draws = |store: &ResilientStore| -> Vec<Duration> {
            (0..8).map(|_| store.retry_delay(5, None)).collect()
        };
        let (a, _) = faulty_store(config.clone());
        let (b, _) = faulty_store(config);
        assert_ne!(draws(&a), draws(&b));
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
        let u = store.ledger().usage();
        assert_eq!(u.puts, 2);
        assert_eq!(u.gets, 1);
        assert_eq!(u.bytes_downloaded, 5);
        assert_eq!(u.lists, 1);
        assert_eq!(u.deletes, 1);
        assert_eq!(u.bytes_uploaded, 7);
        assert_eq!(u.stored_bytes, 2);
        assert_eq!(u.failures, 0);
        // An exhausted put is a ledger failure.
        plan.fail_next(OpKind::Put, usize::MAX);
        assert!(store.put("c", b"z").is_err());
        assert_eq!(store.ledger().usage().failures, 1);
        assert_eq!(store.ledger().usage().puts, 2);
        assert_eq!(store.ledger().put_samples().len(), 2);
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
        assert_eq!(store.list("").unwrap().len(), 200);
        assert_eq!(
            store.ledger().usage().puts,
            200,
            "one ledger for all clones"
        );
    }

    #[test]
    fn durable_operations_outlast_max_attempts() {
        let (store, plan) = faulty_store(fast_config(2));
        plan.fail_next(OpKind::Put, 5);
        let never = StopSignal::new();
        let durable = store.retrying(GiveUp::Durable, &never);
        durable.put("a", b"1").unwrap();
        assert_eq!(store.retries(), 5, "one retry per failed attempt");
        // Errors a bounded operation surfaces at once are retried too.
        plan.fail_fatally(OpKind::Get, 3);
        assert_eq!(durable.get("a").unwrap(), b"1");
        assert_eq!(store.retries(), 8);
        assert_eq!(store.ledger().usage().failures, 0);
    }

    #[test]
    fn stop_cuts_a_durable_backoff_short() {
        let (store, plan) = faulty_store(RetryConfig {
            max_attempts: 2,
            base_delay: Duration::from_secs(30),
            max_delay: Duration::from_secs(60),
        });
        plan.outage();
        let stop = Arc::new(StopSignal::new());
        let stopper = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                stop.stop();
            })
        };
        let started = Instant::now();
        let durable = store.retrying(GiveUp::Durable, &stop);
        let err = durable.put("a", b"1").unwrap_err();
        stopper.join().unwrap();
        assert!(err.is_retryable(), "the attempt's own error: {err:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
        // A stopped signal still lets the first attempt through.
        plan.restore();
        durable.put("b", b"1").unwrap();
        assert_eq!(store.ledger().usage().failures, 1);
    }
}
