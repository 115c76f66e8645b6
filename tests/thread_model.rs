//! The thread model of DESIGN.md §2, pinned from the outside: an
//! instance runs exactly `uploaders + 1` threads, and `shutdown()`
//! interrupts every timer and retry back-off instead of waiting it out.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ginja::cloud::{FaultPlan, FaultStore, MemStore, RetryConfig};
use ginja::core::{Ginja, GinjaConfig, GinjaConfigBuilder};
use ginja::db::{Database, DbProfile};
use ginja::standby::{Standby, StandbyConfig};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

/// `ginja-*` thread names are process-wide state: the tests of this
/// file take turns so the census counts only its own instance.
static SERIAL: Mutex<()> = Mutex::new(());

const TABLE: u32 = 5;
const LONG: Duration = Duration::from_secs(60);

/// Polls `probe` until it returns true or `timeout` elapses.
fn wait_for(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    probe()
}

/// A retry policy that gives up on an operation within milliseconds.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    }
}

fn builder() -> GinjaConfigBuilder {
    GinjaConfig::builder()
        .batch(2)
        .safety(64)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(LONG)
        .uploaders(3)
        .retry(fast_retry())
}

/// A protected database over a cloud whose faults `plan` controls.
fn protect(config: GinjaConfig) -> (Database, Ginja, Arc<FaultPlan>, Arc<MemStore>) {
    let profile = DbProfile::postgres_small();
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(TABLE, 64).unwrap();
    drop(db);
    let bucket = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(bucket.clone(), plan.clone()));
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config,
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    (Database::open(fs, profile).unwrap(), ginja, plan, bucket)
}

/// Names of this process's live threads that start with `ginja-`.
#[cfg(target_os = "linux")]
fn ginja_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("ginja-"))
        .collect();
    names.sort();
    names
}

#[cfg(target_os = "linux")]
#[test]
fn an_instance_runs_uploaders_plus_one_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (db, ginja, _plan, _bucket) = protect(builder().build().unwrap());
    db.put(TABLE, 1, b"row".to_vec()).unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));
    // Three uploaders and the checkpointer. A spawned thread takes its
    // name when it first runs, and `sync` needs only one of them.
    wait_for(Duration::from_secs(5), || ginja_threads().len() == 4);
    let running = ginja_threads();
    assert_eq!(running.len(), 4, "{running:?}");
    ginja.shutdown();
    // `join` returns when a thread has finished; the kernel unlinks its
    // `/proc` entry a moment later.
    assert!(
        wait_for(Duration::from_secs(5), || ginja_threads().is_empty()),
        "left running: {:?}",
        ginja_threads()
    );
}

/// Under the fast policy, the default one and one whose back-offs are
/// long: every back-off a Ginja thread sleeps waits on its stop signal,
/// so shutdown cuts it short whatever the policy.
#[test]
fn shutdown_interrupts_long_timers_and_retry_backoffs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let prompt = Duration::from_millis(250);
    let long_backoffs = RetryConfig {
        max_attempts: 6,
        base_delay: Duration::from_millis(200),
        max_delay: Duration::from_secs(2),
    };
    // Retries to wait for before shutting down: the fast and default
    // policies grow their back-off to its longest waits (10 ms doubling
    // under the default: seven failures in, the next wait is up to
    // 1.28 s); the long one is mid back-off from its first failure.
    for (retry, retries) in [
        (fast_retry(), 7),
        (RetryConfig::default(), 7),
        (long_backoffs, 1),
    ] {
        let config = builder().uploaders(1).retry(retry.clone()).build().unwrap();
        let (db, ginja, plan, bucket) = protect(config.clone());
        let standby = Standby::attach(
            Arc::new(FaultStore::new(bucket, plan.clone())),
            Arc::new(MemFs::new()),
            config,
            StandbyConfig {
                poll_interval: LONG,
                ..StandbyConfig::default()
            },
        )
        .unwrap();
        standby.spawn();

        // Every PUT fails from here on.
        plan.outage();
        for key in 0..6u64 {
            db.put(TABLE, key, b"stuck".to_vec()).unwrap();
        }
        assert!(wait_for(Duration::from_secs(30), || {
            ginja.stats().cloud_retries >= retries
        }));

        for (what, stop) in [
            ("standby", &(|| standby.shutdown()) as &dyn Fn()),
            ("ginja", &|| ginja.shutdown()),
        ] {
            let start = Instant::now();
            stop();
            let took = start.elapsed();
            assert!(
                took < prompt,
                "{what} shutdown took {took:?} under {retry:?}"
            );
        }
    }
}
