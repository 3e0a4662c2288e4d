use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

/// A time source that is not the wall clock: what a simulated transport
/// implements to run blocking clients under virtual time.
pub trait Timeline: Send + Sync {
    /// The current instant on this timeline.
    fn now(&self) -> Instant;
    /// Blocks the calling thread until `duration` has passed on this
    /// timeline.
    fn sleep(&self, duration: Duration);
    /// Runs `body` on a new thread this timeline schedules; the returned
    /// closure waits for it to end.
    fn spawn(&self, name: String, body: Box<dyn FnOnce() + Send>) -> Box<dyn FnOnce() + Send>;
    /// Blocks the calling thread until [`Timeline::unlocked`] names `lock`.
    fn wait_unlock(&self, lock: usize);
    /// Lets the threads waiting for `lock` run again.
    fn unlocked(&self, lock: usize);
}

/// The clock protocol timing runs on: the wall clock by default, or a
/// [`Timeline`] a simulated transport hands out. What dials a transport's
/// connections reports the transport's clock, so the sleeps and deadlines
/// that decide protocol behaviour — retry backoff, hole-fill waits — run on
/// the transport's time, not on a clock of their own.
#[derive(Clone, Default)]
pub struct Clock(Option<Arc<dyn Timeline>>);

impl Clock {
    /// The wall clock.
    pub fn real() -> Self {
        Self(None)
    }

    /// A clock that reads and sleeps on `timeline`.
    pub fn on(timeline: Arc<dyn Timeline>) -> Self {
        Self(Some(timeline))
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        match &self.0 {
            None => Instant::now(),
            Some(timeline) => timeline.now(),
        }
    }

    /// Blocks the calling thread for `duration`.
    pub fn sleep(&self, duration: Duration) {
        match &self.0 {
            None => std::thread::sleep(duration),
            Some(timeline) => timeline.sleep(duration),
        }
    }

    /// Runs `body` on a new thread named `name` that this clock's time
    /// governs: an OS thread on the wall clock, a scheduled one on a
    /// timeline.
    pub fn spawn(&self, name: &str, body: impl FnOnce() + Send + 'static) -> Joiner {
        match &self.0 {
            None => Joiner::Thread(
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn(body)
                    .unwrap_or_else(|e| panic!("spawn {name}: {e}")),
            ),
            Some(timeline) => Joiner::Scheduled(timeline.spawn(name.into(), Box::new(body))),
        }
    }

    /// Takes `mutex`, a lock that may be held across a call or a sleep on
    /// this clock. On the wall clock that is `mutex.lock()` after one
    /// `try_lock`; on a timeline a waiter blocks until the holder's guard
    /// drops, so the holder gets to run meanwhile.
    pub fn lock<'a, T>(&self, mutex: &'a Mutex<T>) -> ClockGuard<'a, T> {
        let key = mutex as *const Mutex<T> as usize;
        let wake = self.0.clone().map(|timeline| (timeline, key));
        if let Some(guard) = mutex.try_lock() {
            return ClockGuard { guard: Some(guard), wake };
        }
        let Some((timeline, _)) = &wake else {
            return ClockGuard { guard: Some(mutex.lock()), wake };
        };
        loop {
            timeline.wait_unlock(key);
            if let Some(guard) = mutex.try_lock() {
                return ClockGuard { guard: Some(guard), wake };
            }
        }
    }
}

/// A lock [`Clock::lock`] took; dropping it wakes the threads a timeline
/// parked waiting for it.
pub struct ClockGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    wake: Option<(Arc<dyn Timeline>, usize)>,
}

impl<T> Deref for ClockGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_deref().expect("held until dropped")
    }
}

impl<T> DerefMut for ClockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_deref_mut().expect("held until dropped")
    }
}

impl<T> Drop for ClockGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if let Some((timeline, key)) = &self.wake {
            timeline.unlocked(*key);
        }
    }
}

/// Waits for a thread [`Clock::spawn`] started.
pub enum Joiner {
    /// An OS thread on the wall clock.
    Thread(JoinHandle<()>),
    /// A thread a [`Timeline`] schedules.
    Scheduled(Box<dyn FnOnce() + Send>),
}

impl Joiner {
    /// Waits for the thread to end (a panic in it is not propagated).
    pub fn join(self) {
        match self {
            Joiner::Thread(handle) => {
                let _ = handle.join();
            }
            Joiner::Scheduled(wait) => wait(),
        }
    }
}
