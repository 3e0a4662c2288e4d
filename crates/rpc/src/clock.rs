use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
