//! The periodic-task helper for timer-driven daemons (the standby's tail
//! loop), and the stop signal the pipeline's retry back-offs wait on. A
//! task is a named thread calling a `tick` closure; each call returns
//! how long to wait before the next one (`None` ends the task). The wait
//! is a `Condvar` wait on the task's stop signal, so a shutdown
//! interrupts it at once whatever the interval — no short-sleep polling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A latched stop flag that threads can both poll (one atomic load) and
/// sleep on (interruptible by [`StopSignal::stop`]).
#[derive(Default)]
pub(crate) struct StopSignal {
    stopped: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

impl StopSignal {
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Latches the flag and wakes every waiter. The flag is stored
    /// under `gate`, so a waiter that checked it under the same lock
    /// cannot miss the notification.
    pub(crate) fn stop(&self) {
        let _gate = self.gate.lock();
        self.stopped.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Sleeps up to `timeout`; returns whether the signal is stopped
    /// (immediately when it already is).
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
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

/// A named background thread running a `tick` closure on the schedule
/// the closure itself returns. Stopped and joined by
/// [`PeriodicTask::shutdown`] or on drop.
pub struct PeriodicTask {
    stop: Arc<StopSignal>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl PeriodicTask {
    /// Spawns thread `name`. `tick` is called at once and then again
    /// after each duration it returns, until it returns `None` or the
    /// task is shut down.
    pub fn spawn(name: &str, mut tick: impl FnMut() -> Option<Duration> + Send + 'static) -> Self {
        let stop = Arc::new(StopSignal::default());
        let signal = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !signal.is_stopped() {
                    match tick() {
                        Some(wait) if !signal.wait(wait) => {}
                        _ => break,
                    }
                }
            })
            .expect("spawn periodic task");
        PeriodicTask {
            stop,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Signals the task to stop and joins its thread. Idempotent.
    pub fn shutdown(&self) {
        self.stop.stop();
        if let Some(handle) = self.thread.lock().take() {
            // A task whose closure held the last reference to its owner
            // drops the owner — and so this handle — on its own thread:
            // it is already exiting, and joining itself would deadlock.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for PeriodicTask {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ticks_at_once_then_on_its_own_schedule_until_none() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = ticks.clone();
        let task = PeriodicTask::spawn("ginja-test-tick", move || {
            (seen.fetch_add(1, Ordering::SeqCst) < 2).then_some(Duration::from_millis(1))
        });
        while ticks.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        task.shutdown();
        assert_eq!(ticks.load(Ordering::SeqCst), 3, "None ends the task");
    }

    #[test]
    fn shutdown_interrupts_a_long_wait() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = ticks.clone();
        let task = PeriodicTask::spawn("ginja-test-wait", move || {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(Duration::from_secs(3600))
        });
        while ticks.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let start = Instant::now();
        task.shutdown();
        task.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(ticks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stop_signal_wait_times_out_then_latches() {
        let stop = StopSignal::default();
        assert!(!stop.wait(Duration::from_millis(1)));
        stop.stop();
        assert!(stop.wait(Duration::from_secs(3600)), "returns at once");
    }
}
