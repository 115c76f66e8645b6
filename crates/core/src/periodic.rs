//! The periodic-task helper for timer-driven daemons (the standby's tail
//! loop). A task is a named thread calling a `tick` closure; each call
//! returns how long to wait before the next one (`None` ends the task).
//! The wait is on the task's [`StopSignal`] (the one the cloud retry
//! loop's back-offs wait on too), so a shutdown interrupts it at once
//! whatever the interval — no short-sleep polling.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::StopSignal;
use parking_lot::Mutex;

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
    /// task is shut down. It is handed the task's stop signal, for the
    /// retry back-offs it sleeps.
    pub fn spawn(
        name: &str,
        mut tick: impl FnMut(&StopSignal) -> Option<Duration> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(StopSignal::default());
        let signal = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !signal.is_stopped() {
                    match tick(&signal) {
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn ticks_at_once_then_on_its_own_schedule_until_none() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = ticks.clone();
        let task = PeriodicTask::spawn("ginja-test-tick", move |_| {
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
        let task = PeriodicTask::spawn("ginja-test-wait", move |_| {
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
