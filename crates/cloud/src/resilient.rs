//! Retry and circuit-breaking for the cloud upload path.
//!
//! Ginja's safety guarantee (paper §4, Algorithm 2) only holds if
//! uploads eventually complete: when the cloud stalls, the DBMS blocks
//! at the Safety limit, so every transient `put` failure that is not
//! absorbed here becomes application downtime. [`ResilientStore`]
//! wraps any [`ObjectStore`] with two standard availability
//! techniques, both driven by a [`RetryConfig`]:
//!
//! * **Retry with exponential backoff and full jitter** — each
//!   [retryable](StoreError::is_retryable) failure is retried up to
//!   `max_attempts` times, sleeping a uniformly random duration in
//!   `[0, min(base_delay · 2^attempt, max_delay)]` between attempts
//!   (full jitter avoids retry synchronization across the uploader
//!   pool). Backend pacing hints ([`StoreError::retry_after`]) are
//!   honoured as a minimum delay.
//! * **Circuit breaker** — after `breaker_threshold` consecutive
//!   retryable failures the breaker *opens* and operations fail fast
//!   (without hitting the backend) for `breaker_cooldown`; it then
//!   *half-opens*, letting probe operations through, and closes again
//!   after `breaker_probes` consecutive successes. Fast-failing keeps
//!   uploader threads from piling onto a dead provider and gives
//!   `Ginja::exposure` a crisp "cloud is down" signal.
//!
//! Everything the layer does is observable through
//! [`ResilientStore::snapshot`], which Ginja merges into its
//! `GinjaStats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

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
    /// Consecutive retryable failures that open the breaker;
    /// 0 disables circuit breaking.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before half-opening.
    pub breaker_cooldown: Duration,
    /// Consecutive half-open successes required to close the breaker.
    /// Must be ≥ 1 when the breaker is enabled.
    pub breaker_probes: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(5),
            breaker_probes: 2,
        }
    }
}

impl RetryConfig {
    /// No retries, no breaker: the wrapper becomes a
    /// pass-through (used as the ablation baseline).
    pub fn disabled() -> Self {
        RetryConfig {
            max_attempts: 1,
            breaker_threshold: 0,
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
        if self.breaker_threshold > 0 && self.breaker_probes < 1 {
            return Err("retry.breaker_probes must be >= 1 when the breaker is enabled".into());
        }
        Ok(())
    }
}

/// Circuit-breaker position, surfaced through `Ginja::exposure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Failing fast; the backend is presumed down.
    Open,
    /// Cooldown elapsed; probe operations are being let through.
    HalfOpen,
}

/// Point-in-time counters from a [`ResilientStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceSnapshot {
    /// Retry attempts issued (beyond each operation's first attempt).
    pub retries: u64,
    /// Closed → open transitions.
    pub breaker_trips: u64,
    /// Operations rejected without reaching the backend while open.
    pub breaker_fast_fails: u64,
    /// Cumulative time spent with the breaker open.
    pub breaker_open_time: Duration,
    /// Current breaker position.
    pub breaker_state: BreakerState,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Set while `state == Open`.
    opened_at: Option<Instant>,
    half_open_successes: u32,
}

#[derive(Debug)]
struct Breaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
    probes: u32,
    trips: AtomicU64,
    fast_fails: AtomicU64,
    /// Completed open periods, in nanoseconds (the current one is added
    /// at snapshot time).
    open_nanos: AtomicU64,
}

impl Breaker {
    fn new(config: &RetryConfig) -> Self {
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                half_open_successes: 0,
            }),
            threshold: config.breaker_threshold,
            cooldown: config.breaker_cooldown,
            probes: config.breaker_probes.max(1),
            trips: AtomicU64::new(0),
            fast_fails: AtomicU64::new(0),
            open_nanos: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// Whether an operation may proceed; transitions open → half-open
    /// once the cooldown has elapsed.
    fn allow(&self) -> bool {
        if !self.enabled() {
            return true;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let opened_at = inner.opened_at.expect("open breaker has opened_at");
                if opened_at.elapsed() >= self.cooldown {
                    self.open_nanos
                        .fetch_add(opened_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    inner.state = BreakerState::HalfOpen;
                    inner.opened_at = None;
                    inner.half_open_successes = 0;
                    true
                } else {
                    self.fast_fails.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.half_open_successes += 1;
                if inner.half_open_successes >= self.probes {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                }
            }
            // A success can race in from a call admitted before the
            // breaker opened; it does not close an open breaker.
            BreakerState::Open => {}
        }
    }

    fn on_failure(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    self.trip(&mut inner);
                }
            }
            // Any half-open failure re-opens immediately.
            BreakerState::HalfOpen => self.trip(&mut inner),
            BreakerState::Open => {}
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = Some(Instant::now());
        inner.half_open_successes = 0;
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    fn open_time(&self) -> Duration {
        let completed = Duration::from_nanos(self.open_nanos.load(Ordering::Relaxed));
        let current = self
            .inner
            .lock()
            .opened_at
            .map(|at| at.elapsed())
            .unwrap_or_default();
        completed + current
    }
}

/// An [`ObjectStore`] decorator adding retry and circuit breaking
/// (see the module docs for the policy details).
///
/// Cloning is cheap and shares all state, so one wrapper can serve
/// Ginja's whole uploader pool and report pooled statistics.
#[derive(Clone)]
pub struct ResilientStore {
    inner: Arc<dyn ObjectStore>,
    config: Arc<RetryConfig>,
    breaker: Arc<Breaker>,
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
            .field("breaker", &self.breaker.state())
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
        let breaker = Arc::new(Breaker::new(&config));
        ResilientStore {
            inner,
            config: Arc::new(config),
            breaker,
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

    /// Current breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Point-in-time counters (cheap; safe to poll).
    pub fn snapshot(&self) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker.trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker.fast_fails.load(Ordering::Relaxed),
            breaker_open_time: self.breaker.open_time(),
            breaker_state: self.breaker.state(),
        }
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

    /// The retry + breaker loop shared by all four operations.
    fn run<T>(
        &self,
        mut operation: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt: u32 = 0;
        loop {
            let result = if self.breaker.allow() {
                let result = operation();
                match &result {
                    Ok(_) => self.breaker.on_success(),
                    Err(e) if e.is_retryable() => self.breaker.on_failure(),
                    // Non-retryable errors say nothing about backend
                    // health (NotFound, InvalidName, Corrupt), so they
                    // neither trip nor reset the breaker.
                    Err(_) => {}
                }
                result
            } else {
                // Non-retryable on purpose: an open breaker means the
                // backend is presumed down for the whole cooldown, so
                // sleeping through this layer's backoff schedule would
                // just fail slow. Returning immediately lets the outer
                // safety loop (put_with_retry in ginja-core) pace, and
                // keeps breaker_fast_fails at one per operation.
                Err(StoreError::fatal("circuit breaker open"))
            };
            match result {
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

    /// Fast test policy: microsecond-scale delays, breaker off.
    fn fast_config(max_attempts: u32) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(200),
            breaker_threshold: 0,
            ..RetryConfig::default()
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
        assert_eq!(store.snapshot().retries, 0);
    }

    #[test]
    fn retries_transient_failures_and_counts() {
        let (store, plan) = faulty_store(fast_config(5));
        plan.fail_next(OpKind::Put, 3);
        store.put("a", b"1").unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert_eq!(store.snapshot().retries, 3);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (store, plan) = faulty_store(fast_config(3));
        plan.fail_next(OpKind::Put, usize::MAX);
        assert!(store.put("a", b"1").is_err());
        assert_eq!(plan.injected_count(), 3);
        assert_eq!(store.snapshot().retries, 2);
    }

    #[test]
    fn does_not_retry_fatal_errors() {
        let (store, plan) = faulty_store(fast_config(5));
        plan.fail_fatally(OpKind::Put, 1);
        let err = store.put("a", b"1").unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(plan.injected_count(), 1, "fatal error must not be retried");
        assert_eq!(store.snapshot().retries, 0);
    }

    #[test]
    fn does_not_retry_not_found() {
        let (store, plan) = faulty_store(fast_config(5));
        assert!(matches!(store.get("missing"), Err(StoreError::NotFound(_))));
        assert_eq!(plan.injected_count(), 0);
        assert_eq!(store.snapshot().retries, 0);
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
        assert_eq!(store.snapshot().retries, 1);
    }

    #[test]
    fn disabled_config_is_single_shot() {
        let (store, plan) = faulty_store(RetryConfig::disabled());
        plan.fail_next(OpKind::Put, 1);
        assert!(store.put("a", b"1").is_err());
        store.put("a", b"1").unwrap();
        let snapshot = store.snapshot();
        assert_eq!(snapshot.retries, 0);
        assert_eq!(snapshot.breaker_trips, 0);
    }

    fn breaker_config() -> RetryConfig {
        RetryConfig {
            max_attempts: 1,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(30),
            breaker_probes: 2,
            ..fast_config(1)
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_fast_fails() {
        let (store, plan) = faulty_store(breaker_config());
        plan.fail_next(OpKind::Put, usize::MAX);
        for _ in 0..3 {
            assert!(store.put("a", b"1").is_err());
        }
        assert_eq!(store.breaker_state(), BreakerState::Open);
        let before = plan.injected_count();
        assert!(store.put("a", b"1").is_err());
        assert_eq!(
            plan.injected_count(),
            before,
            "open breaker must not hit the backend"
        );
        let snapshot = store.snapshot();
        assert_eq!(snapshot.breaker_trips, 1);
        assert!(snapshot.breaker_fast_fails >= 1);
        assert!(snapshot.breaker_open_time > Duration::ZERO);
    }

    #[test]
    fn breaker_half_opens_then_closes_after_probes() {
        let (store, plan) = faulty_store(breaker_config());
        plan.fail_next(OpKind::Put, 3);
        for _ in 0..3 {
            assert!(store.put("a", b"1").is_err());
        }
        assert_eq!(store.breaker_state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(35));
        // Cooldown elapsed: probes pass through to a healthy backend.
        store.put("p1", b"x").unwrap();
        assert_eq!(store.breaker_state(), BreakerState::HalfOpen);
        store.put("p2", b"x").unwrap();
        assert_eq!(store.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let (store, plan) = faulty_store(breaker_config());
        plan.fail_next(OpKind::Put, usize::MAX);
        for _ in 0..3 {
            assert!(store.put("a", b"1").is_err());
        }
        std::thread::sleep(Duration::from_millis(35));
        assert!(store.put("a", b"1").is_err()); // probe fails
        assert_eq!(store.breaker_state(), BreakerState::Open);
        assert_eq!(store.snapshot().breaker_trips, 2);
    }

    #[test]
    fn half_open_probe_success_recloses_under_concurrent_load() {
        // A pool's worth of uploader threads all hit the store the
        // moment the cooldown elapses. The first caller through
        // `allow()` flips Open → HalfOpen; every concurrent caller is
        // then admitted as a probe (the transition serializes on the
        // breaker mutex, so none of them fast-fails), the probe quota
        // re-closes the breaker, and the trip counter stays exact —
        // the concurrent successes must not be double-counted into
        // extra transitions.
        let (store, plan) = faulty_store(breaker_config());
        plan.fail_next(OpKind::Put, 3);
        for _ in 0..3 {
            assert!(store.put("a", b"1").is_err());
        }
        assert_eq!(store.breaker_state(), BreakerState::Open);
        let fast_fails_before = store.snapshot().breaker_fast_fails;
        std::thread::sleep(Duration::from_millis(35));

        let store = Arc::new(store);
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8)
            .map(|i| {
                let store = store.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    store.put(&format!("w{i}"), b"x")
                })
            })
            .collect();
        for worker in workers {
            assert!(
                worker.join().unwrap().is_ok(),
                "a healthy backend after the cooldown must admit every caller"
            );
        }
        assert_eq!(store.breaker_state(), BreakerState::Closed);
        let snapshot = store.snapshot();
        assert_eq!(snapshot.breaker_trips, 1, "reclose must not re-trip");
        assert_eq!(
            snapshot.breaker_fast_fails, fast_fails_before,
            "no caller may fast-fail once the cooldown has elapsed"
        );

        // The reclose reset the failure streak: threshold-1 fresh
        // failures plus a success must leave the breaker closed.
        plan.fail_next(OpKind::Put, 2);
        assert!(store.put("b", b"1").is_err());
        assert!(store.put("b", b"1").is_err());
        store.put("b", b"1").unwrap();
        assert_eq!(store.breaker_state(), BreakerState::Closed);
        assert_eq!(store.snapshot().breaker_trips, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens_under_concurrent_load() {
        // Same concurrent burst against a backend that is still down:
        // however many callers were admitted into the half-open
        // window, the first failure re-trips and the rest land on the
        // already-open breaker — exactly ONE new trip per window, not
        // one per failed probe.
        let (store, plan) = faulty_store(breaker_config());
        plan.fail_next(OpKind::Put, usize::MAX);
        for _ in 0..3 {
            assert!(store.put("a", b"1").is_err());
        }
        assert_eq!(store.breaker_state(), BreakerState::Open);
        assert_eq!(store.snapshot().breaker_trips, 1);
        std::thread::sleep(Duration::from_millis(35));

        let store = Arc::new(store);
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8)
            .map(|i| {
                let store = store.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    store.put(&format!("w{i}"), b"x").is_err()
                })
            })
            .collect();
        for worker in workers {
            assert!(worker.join().unwrap(), "backend is down: every put fails");
        }
        assert_eq!(store.breaker_state(), BreakerState::Open);
        assert_eq!(
            store.snapshot().breaker_trips,
            2,
            "one half-open window, one re-trip — concurrent probe \
             failures must not inflate the count"
        );
    }

    #[test]
    fn open_breaker_fails_fast_and_nonretryable() {
        // With in-layer retries enabled, an open breaker must not burn
        // the backoff schedule before surfacing: the fast-fail is
        // non-retryable (the outer safety loop paces instead) and
        // counts exactly once per operation, not once per attempt.
        let (store, plan) = faulty_store(RetryConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(60),
            breaker_probes: 1,
            ..fast_config(4)
        });
        plan.fail_next(OpKind::Put, usize::MAX);
        while store.breaker_state() != BreakerState::Open {
            assert!(store.put("a", b"1").is_err());
        }
        let before = store.snapshot();
        let err = store.put("a", b"1").unwrap_err();
        assert!(
            !err.is_retryable(),
            "breaker fast-fail must not be retried in-layer"
        );
        let after = store.snapshot();
        assert_eq!(after.breaker_fast_fails, before.breaker_fast_fails + 1);
        assert_eq!(
            after.retries, before.retries,
            "no in-layer retries while open"
        );
    }

    #[test]
    fn not_found_does_not_move_the_breaker() {
        let (store, _plan) = faulty_store(breaker_config());
        for _ in 0..10 {
            assert!(store.get("missing").is_err());
        }
        assert_eq!(store.breaker_state(), BreakerState::Closed);
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

        let bad = RetryConfig {
            breaker_probes: 0,
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
        assert!(store.snapshot().retries > 0);
        assert_eq!(store.inner().list("").unwrap().len(), 200);
    }
}
