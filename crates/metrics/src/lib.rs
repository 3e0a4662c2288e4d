//! # tango-metrics
//!
//! A dependency-free, lock-free metrics registry for the Tango/CORFU stack.
//!
//! Three instrument kinds:
//!
//! - [`Counter`] — a monotonically increasing `u64` (one relaxed `fetch_add`
//!   per increment).
//! - [`Gauge`] — a signed point-in-time value (`set`/`add`/`sub`).
//! - [`Histogram`] — a log₂-bucketed value distribution. Recording a sample
//!   touches one bucket with a single relaxed `fetch_add` (plus one more for
//!   the running sum so snapshots can report a mean). Latency helpers record
//!   elapsed nanoseconds.
//!
//! Instruments are cheap handles (an `Option<Arc<..>>`); cloning one or
//! cloning the [`Registry`] shares the underlying atomics. A registry created
//! with [`Registry::disabled`] hands out handles whose inner pointer is
//! `None`, so every record call reduces to one branch — cheap enough that
//! instrumentation can stay unconditionally compiled in.
//!
//! [`Registry::snapshot`] reads every atomic with relaxed loads while writers
//! keep going: the result is consistent-enough for monitoring (each value is
//! individually atomic; cross-metric skew is bounded by the scan time). A
//! [`Snapshot`] carries the registry's event journal too, has one wire
//! encoding ([`Snapshot::to_bytes`], what a node answers a scrape with) and
//! one human rendering ([`Snapshot::to_text`]); [`ClusterSnapshot`] merges
//! the nodes' and [`HealthReport`]/[`ClusterHealth`] judge them.
//!
//! ```
//! use tango_metrics::Registry;
//!
//! let registry = Registry::new();
//! let appends = registry.counter("corfu.client.appends");
//! let latency = registry.histogram("corfu.client.append_latency_ns");
//!
//! appends.inc();
//! latency.record(1_250);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("corfu.client.appends"), 1);
//! println!("{}", snap.to_text());
//! ```

mod cluster;
pub mod events;
pub mod health;
mod ring;
mod snapshot;
pub mod trace;

pub use cluster::{ClusterSnapshot, TimelineEntry};
pub use events::{EventKind, EventRecord, Events};
pub use health::{ClusterHealth, HealthReason, HealthReport, HealthStatus};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotDecodeError};
pub use trace::{Span, SpanKind, SpanRecord, TraceConfig, TraceContext, Tracer};

/// Scopes an instrument name to a log (shard): log 0 keeps the bare name
/// so single-log clusters stay byte-compatible with historical output,
/// other logs get a `.log{N}` suffix.
///
/// ```
/// assert_eq!(tango_metrics::log_scoped("corfu.seq.tail", 0), "corfu.seq.tail");
/// assert_eq!(tango_metrics::log_scoped("corfu.seq.tail", 2), "corfu.seq.tail.log2");
/// ```
pub fn log_scoped(name: &str, log: u64) -> String {
    if log == 0 {
        name.to_string()
    } else {
        format!("{name}.log{log}")
    }
}

/// The inverse of [`log_scoped`]: the log `name` scopes `base` to (the bare
/// `base` is log 0), or `None` when `name` is some other instrument.
///
/// ```
/// assert_eq!(tango_metrics::scoped_log("corfu.seq.tail.log2", "corfu.seq.tail"), Some(2));
/// assert_eq!(tango_metrics::scoped_log("corfu.seq.tails", "corfu.seq.tail"), None);
/// ```
pub fn scoped_log(name: &str, base: &str) -> Option<u64> {
    if name == base {
        return Some(0);
    }
    name.strip_prefix(base)?.strip_prefix(".log")?.parse().ok()
}

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `i` (1..=64) holds
/// values in `[2^(i-1), 2^i - 1]`, so the full `u64` range is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Returns the bucket index for a sample value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (0 for the zero bucket).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self { buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS], sum: AtomicU64::new(0) }
    }
}

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Clone, Default)]
pub struct Counter {
    core: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A permanently disabled counter (all operations are no-ops).
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            core.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A signed point-in-time value. Clones share the same cell.
#[derive(Clone, Default)]
pub struct Gauge {
    core: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A permanently disabled gauge (all operations are no-ops).
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(core) = &self.core {
            core.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(core) = &self.core {
            core.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.core.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram. Clones share the same buckets.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A permanently disabled histogram (all operations are no-ops).
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// True if recording actually lands anywhere. Lets callers skip
    /// sample preparation (e.g. `Instant::now`) when metrics are off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.is_enabled() {
            self.record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Starts a latency measurement; call [`Timer::stop`] (or drop the
    /// timer) to record. When the histogram is disabled no clock is read.
    #[inline]
    pub fn start(&self) -> Timer {
        Timer { target: self.core.as_ref().map(|c| (Arc::clone(c), Instant::now())) }
    }

    /// Starts a timer on the events `sampler` selects; the rest get an
    /// inert timer and pay neither the clock read nor the record. Use on
    /// hot paths where two `Instant::now` calls per event would be a
    /// measurable tax: the histogram's shape stays representative while
    /// its `count` becomes a 1-in-N sample (keep an exact [`Counter`]
    /// alongside when totals matter).
    #[inline]
    pub fn start_sampled(&self, sampler: &Sampler) -> Timer {
        if self.is_enabled() && sampler.hit() {
            self.start()
        } else {
            Timer { target: None }
        }
    }

    /// Times a closure, recording its wall-clock duration in nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let timer = self.start();
        let out = f();
        timer.stop();
        out
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum())
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

/// In-flight latency measurement from [`Histogram::start`].
///
/// Records on [`Timer::stop`] or on drop, whichever comes first.
pub struct Timer {
    target: Option<(Arc<HistogramCore>, Instant)>,
}

impl Timer {
    /// A timer that records nothing. For callers that make their own
    /// sampling decision (e.g. to share one decision between a timer and
    /// a trace span) and need an inert placeholder on the miss path.
    pub fn inert() -> Timer {
        Timer { target: None }
    }

    /// Stops the timer and records the elapsed nanoseconds.
    #[inline]
    pub fn stop(mut self) {
        self.observe();
    }

    /// Discards the measurement without recording (e.g. on error paths
    /// that should not pollute a success-latency histogram).
    #[inline]
    pub fn discard(mut self) {
        self.target = None;
    }

    fn observe(&mut self) {
        if let Some((core, started)) = self.target.take() {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            core.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.observe();
    }
}

/// A 1-in-2ᵏ gate for [`Histogram::start_sampled`]: one relaxed
/// `fetch_add` per event, hit on every 2ᵏ-th. Clones share the tick, so
/// one sampler can pace several histograms. The first event always hits,
/// which keeps single-shot tests deterministic.
#[derive(Clone)]
pub struct Sampler {
    mask: u64,
    tick: Arc<AtomicU64>,
}

impl Sampler {
    /// Samples one event in `period`, which must be a power of two.
    pub fn one_in(period: u64) -> Self {
        assert!(period.is_power_of_two(), "sampling period must be a power of two");
        Self { mask: period - 1, tick: Arc::new(AtomicU64::new(0)) }
    }

    /// True for the selected 1-in-N events.
    #[inline]
    pub fn hit(&self) -> bool {
        self.tick.fetch_add(1, Ordering::Relaxed) & self.mask == 0
    }
}

impl Default for Sampler {
    /// 1-in-16: cuts timer clock reads by 16x while a few hundred events
    /// still fill out the histogram.
    fn default() -> Self {
        Self::one_in(16)
    }
}

struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    tracer: Arc<trace::TracerInner>,
    events: Arc<events::EventJournalInner>,
}

/// A named collection of instruments.
///
/// Cloning is cheap and shares all instruments. Requesting the same name
/// twice returns handles over the same cell, so independently constructed
/// components can contribute to one metric.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// Creates an enabled registry with the default [`TraceConfig`].
    pub fn new() -> Self {
        Self::with_trace(TraceConfig::default())
    }

    /// Creates an enabled registry with an explicit trace configuration
    /// (sampling period, slow-request threshold, ring capacities).
    pub fn with_trace(cfg: TraceConfig) -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                tracer: Arc::new(trace::TracerInner::new(&cfg)),
                events: Arc::new(events::EventJournalInner::new(cfg.event_capacity)),
            })),
        }
    }

    /// Creates a disabled registry: every instrument it hands out is a
    /// no-op handle and [`Registry::snapshot`] is always empty.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True unless constructed with [`Registry::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock_map<K: Ord, V>(
        map: &Mutex<BTreeMap<K, V>>,
    ) -> std::sync::MutexGuard<'_, BTreeMap<K, V>> {
        map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter registered under `name`, creating it if needed.
    pub fn counter(&self, name: &str) -> Counter {
        let core = self.inner.as_ref().map(|inner| {
            let mut map = Self::lock_map(&inner.counters);
            Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(0))))
        });
        Counter { core }
    }

    /// Returns the gauge registered under `name`, creating it if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        let core = self.inner.as_ref().map(|inner| {
            let mut map = Self::lock_map(&inner.gauges);
            Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicI64::new(0))))
        });
        Gauge { core }
    }

    /// Returns the histogram registered under `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> Histogram {
        let core = self.inner.as_ref().map(|inner| {
            let mut map = Self::lock_map(&inner.histograms);
            Arc::clone(
                map.entry(name.to_string()).or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        });
        Histogram { core }
    }

    /// The tracer recording spans into this registry's rings. Handles
    /// from a disabled registry are inert.
    pub fn tracer(&self) -> Tracer {
        Tracer { inner: self.inner.as_ref().map(|i| Arc::clone(&i.tracer)) }
    }

    /// All stable spans in the span ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer().spans()
    }

    /// All stable spans in the slow-request ring, oldest first.
    pub fn slow_spans(&self) -> Vec<SpanRecord> {
        self.tracer().slow_spans()
    }

    /// The control-plane event journal of this registry. Handles from a
    /// disabled registry are inert.
    pub fn events(&self) -> Events {
        Events { inner: self.inner.as_ref().map(|i| Arc::clone(&i.events)) }
    }

    /// All stable events currently in the journal, in node-sequence
    /// order.
    pub fn event_records(&self) -> Vec<EventRecord> {
        self.events().records()
    }

    /// Captures the current value of every instrument without blocking
    /// writers (individual values are atomic; the set is scanned under
    /// the registration lock, which records never take).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let mut counters: Vec<(String, u64)> = Self::lock_map(&inner.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        // Trace bookkeeping surfaces as synthetic counters so it rides
        // along in every snapshot/merge/scrape without extra plumbing.
        counters.push((
            "trace.slow_requests".to_string(),
            inner.tracer.slow_requests.load(Ordering::Relaxed),
        ));
        counters.push((
            "events.recorded".to_string(),
            inner.events.events_recorded.load(Ordering::Relaxed),
        ));
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let gauges = Self::lock_map(&inner.gauges)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = Self::lock_map(&inner.histograms)
            .iter()
            .map(|(name, core)| {
                let buckets: Vec<u64> =
                    core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                HistogramSnapshot {
                    name: name.clone(),
                    sum: core.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        Snapshot { counters, gauges, histograms, events: inner.events.records() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same cell.
        assert_eq!(r.counter("ops").get(), 5);

        let g = r.gauge("depth");
        g.set(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [0, 1, 2, 3, 900, 1100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2006);
    }

    #[test]
    fn timer_records_on_stop_and_drop() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.start().stop();
        {
            let _t = h.start();
        }
        h.start().discard();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("ops");
        c.add(100);
        assert_eq!(c.get(), 0);
        let h = r.histogram("lat");
        assert!(!h.is_enabled());
        h.record(5);
        h.time(|| ());
        assert_eq!(h.count(), 0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_reflects_all_kinds() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.gauge("b").set(-3);
        r.histogram("c").record(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 2);
        assert_eq!(snap.gauge("b"), -3);
        let h = snap.histogram("c").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 7);
    }
}
