//! Request tracing: trace contexts, spans, and a lock-free span ring.
//!
//! A *trace* follows one logical request (an `append`, `read`, or `sync`)
//! across components and — via the wire v3 trace extension — across
//! processes. The client opens a *root span*; every downstream component
//! that sees the propagated [`TraceContext`] opens a *child span* whose
//! `parent_span_id` is the caller's span, so the recorded spans form a
//! tree per `trace_id`.
//!
//! Recording is sampled with the same 1-in-N discipline as the latency
//! histograms (default 1-in-16; the first request always hits, which
//! keeps single-shot tests deterministic). Sampled root spans that exceed
//! [`TraceConfig::slow_threshold`] are additionally copied into a dedicated
//! slow-request ring and counted in `trace.slow_requests`, so slow
//! requests are never evicted by fast ones. Spans are read in-process
//! ([`Tracer::spans`], [`Tracer::slow_spans`]); they are not part of a
//! snapshot.
//!
//! The rings are bounded and lock-free: each slot is a seqlock made of
//! plain `AtomicU64`s. Writers claim a slot with one `fetch_add` on the
//! head and a CAS on the slot's sequence word; readers skip slots whose
//! sequence word is odd (write in progress) or changed while reading.
//! Under extreme overrun a record can be dropped, never torn into
//! undefined behaviour — every access is atomic.
//!
//! Propagation inside a process is by thread-local context: creating a
//! span installs its context for the current thread and restores the
//! previous one when the span finishes. The in-process transport calls
//! handlers on the caller's thread, so context flows through a whole
//! `LocalCluster` with no plumbing; the TCP transport carries the context
//! in the frame header and installs it around the server-side handler.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ring::SeqlockRing;
use crate::Sampler;

/// The identity a request carries across component and process
/// boundaries: which trace it belongs to and which span is the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree; identical in every span of it.
    pub trace_id: u64,
    /// The currently active span — children record it as their parent.
    pub span_id: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context active on this thread, if any.
#[inline]
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` as the current thread's trace context until the guard
/// drops (used by transports to bracket a server-side handler call).
pub fn install(ctx: Option<TraceContext>) -> ContextGuard {
    ContextGuard { prev: CURRENT.with(|c| c.replace(ctx)), _not_send: PhantomData }
}

/// Restores the previously installed context on drop.
pub struct ContextGuard {
    prev: Option<TraceContext>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// What a span measured. Kept as a closed enum so a [`SpanRecord`] stays
/// six plain `u64`s in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A client-side `append` (root of the append tree).
    ClientAppend = 0,
    /// A client-side random `read`.
    ClientRead = 1,
    /// A stream-level `sync` (tail query + playback).
    ClientSync = 2,
    /// Sequencer token grant (`Next`/`NextObserve`).
    SeqGrant = 3,
    /// Sequencer tail/stream query.
    SeqQuery = 4,
    /// Storage-node page write (data or junk fill).
    StorageWrite = 5,
    /// Storage-node page read.
    StorageRead = 6,
    /// Storage-node control operation (seal, trim, copy, tail).
    StorageCtl = 7,
    /// Anything else.
    Other = 8,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientAppend => "client.append",
            SpanKind::ClientRead => "client.read",
            SpanKind::ClientSync => "client.sync",
            SpanKind::SeqGrant => "seq.grant",
            SpanKind::SeqQuery => "seq.query",
            SpanKind::StorageWrite => "storage.write",
            SpanKind::StorageRead => "storage.read",
            SpanKind::StorageCtl => "storage.ctl",
            SpanKind::Other => "other",
        }
    }

    fn from_u64(v: u64) -> Self {
        match v {
            0 => SpanKind::ClientAppend,
            1 => SpanKind::ClientRead,
            2 => SpanKind::ClientSync,
            3 => SpanKind::SeqGrant,
            4 => SpanKind::SeqQuery,
            5 => SpanKind::StorageWrite,
            6 => SpanKind::StorageRead,
            7 => SpanKind::StorageCtl,
            _ => SpanKind::Other,
        }
    }
}

/// One finished span as read back from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the process).
    pub span_id: u64,
    /// Parent span id, 0 for root spans.
    pub parent_span_id: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Start time in nanoseconds since the registry was created. Only
    /// comparable within one process — cross-node span trees are joined
    /// by ids, not clocks.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
}

impl SpanRecord {
    /// True for root spans (no parent).
    pub fn is_root(&self) -> bool {
        self.parent_span_id == 0
    }
}

const SPAN_WORDS: usize = 6;

/// Bounded lock-free MPMC ring of [`SpanRecord`]s (overwrites oldest).
/// The seqlock slot discipline lives in [`crate::ring::SeqlockRing`],
/// shared with the event journal.
pub(crate) struct SpanRing {
    ring: SeqlockRing<SPAN_WORDS>,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { ring: SeqlockRing::new(capacity) }
    }

    pub(crate) fn push(&self, rec: &SpanRecord) {
        self.ring.push(&[
            rec.trace_id,
            rec.span_id,
            rec.parent_span_id,
            rec.kind as u64,
            rec.start_ns,
            rec.duration_ns,
        ]);
    }

    /// Every stable record currently in the ring, oldest first by start
    /// time. Concurrent writers may overwrite slots mid-scan; such slots
    /// are skipped, never misread.
    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .ring
            .snapshot()
            .iter()
            .map(|words| SpanRecord {
                trace_id: words[0],
                span_id: words[1],
                parent_span_id: words[2],
                kind: SpanKind::from_u64(words[3]),
                start_ns: words[4],
                duration_ns: words[5],
            })
            .collect();
        out.sort_by_key(|r| r.start_ns);
        out
    }
}

/// How a registry samples and retains spans.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Root spans are sampled 1-in-`sample_one_in` (power of two). The
    /// corfu client shares its histogram sampler instead, so traces and
    /// latency samples cover the same requests.
    pub sample_one_in: u64,
    /// Sampled root spans at least this slow are copied to the slow ring
    /// and counted in `trace.slow_requests`.
    pub slow_threshold: Duration,
    /// Capacity of the control-plane event journal (see
    /// [`crate::events`]).
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { sample_one_in: 16, slow_threshold: Duration::from_millis(10), event_capacity: 1024 }
    }
}

/// Capacity of the main span ring.
const RING_CAPACITY: usize = 1024;
/// Capacity of the slow-request ring.
const SLOW_CAPACITY: usize = 128;

pub(crate) struct TracerInner {
    ring: SpanRing,
    slow: SpanRing,
    sampler: Sampler,
    slow_threshold_ns: AtomicU64,
    pub(crate) slow_requests: AtomicU64,
    epoch: Instant,
}

impl TracerInner {
    pub(crate) fn new(cfg: &TraceConfig) -> Self {
        Self {
            ring: SpanRing::new(RING_CAPACITY),
            slow: SpanRing::new(SLOW_CAPACITY),
            sampler: Sampler::one_in(cfg.sample_one_in),
            slow_threshold_ns: AtomicU64::new(
                cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64
            ),
            slow_requests: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    pub(crate) fn slow_spans(&self) -> Vec<SpanRecord> {
        self.slow.snapshot()
    }
}

/// Process-wide span-id allocator: ids are unique within a process and
/// never 0 (0 means "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Derives a well-mixed, non-zero trace id from a root span id
/// (splitmix64 finalizer), so traces are distinguishable even though
/// span ids are sequential.
fn trace_id_for(span_id: u64) -> u64 {
    let mut z = span_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// Handle for creating spans against one registry's rings. Cheap to
/// clone; a handle from a disabled registry is inert.
#[derive(Clone, Default)]
pub struct Tracer {
    pub(crate) inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A permanently disabled tracer (all spans are inert).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True if spans created here can be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span, subject to this tracer's own sampler.
    pub fn root(&self, kind: SpanKind) -> Span {
        match &self.inner {
            Some(inner) if inner.sampler.hit() => self.start(kind, true),
            _ => Span::inert(),
        }
    }

    /// Opens a root span unconditionally (when enabled). Callers that
    /// already made a sampling decision — e.g. the corfu client, which
    /// shares one sampler between its latency timer and its trace — use
    /// this so both observations cover the same requests.
    pub fn root_forced(&self, kind: SpanKind) -> Span {
        if self.inner.is_some() {
            self.start(kind, true)
        } else {
            Span::inert()
        }
    }

    /// Opens a child of the current thread's trace context, or an inert
    /// span when there is none (i.e. the request was not sampled). One
    /// thread-local read on the untraced path.
    pub fn child(&self, kind: SpanKind) -> Span {
        if self.inner.is_some() && current().is_some() {
            self.start(kind, false)
        } else {
            Span::inert()
        }
    }

    fn start(&self, kind: SpanKind, root: bool) -> Span {
        let inner = self.inner.as_ref().expect("checked by callers");
        let span_id = next_span_id();
        let (trace_id, parent) = if root {
            (trace_id_for(span_id), 0)
        } else {
            let ctx = current().expect("checked by callers");
            (ctx.trace_id, ctx.span_id)
        };
        let ctx = TraceContext { trace_id, span_id };
        let prev = CURRENT.with(|c| c.replace(Some(ctx)));
        Span {
            state: Some(SpanState {
                inner: Arc::clone(inner),
                ctx,
                parent,
                kind,
                start: Instant::now(),
                prev,
            }),
            _not_send: PhantomData,
        }
    }

    /// Changes the slow-request threshold at runtime.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        if let Some(inner) = &self.inner {
            inner
                .slow_threshold_ns
                .store(threshold.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        }
    }

    /// All stable spans currently in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.as_ref().map(|i| i.spans()).unwrap_or_default()
    }

    /// All stable spans in the slow-request ring, oldest first.
    pub fn slow_spans(&self) -> Vec<SpanRecord> {
        self.inner.as_ref().map(|i| i.slow_spans()).unwrap_or_default()
    }
}

struct SpanState {
    inner: Arc<TracerInner>,
    ctx: TraceContext,
    parent: u64,
    kind: SpanKind,
    start: Instant,
    prev: Option<TraceContext>,
}

/// An open span. Records into the ring and restores the previous trace
/// context when dropped (or [`Span::finish`]ed). Must stay on the thread
/// that created it — it is `!Send` for that reason.
#[derive(Default)]
pub struct Span {
    state: Option<SpanState>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// A span that records nothing (unsampled or disabled).
    pub fn inert() -> Self {
        Self::default()
    }

    /// The context this span propagates, if it is live.
    pub fn context(&self) -> Option<TraceContext> {
        self.state.as_ref().map(|s| s.ctx)
    }

    /// Ends the span now (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        CURRENT.with(|c| c.set(s.prev));
        let rec = SpanRecord {
            trace_id: s.ctx.trace_id,
            span_id: s.ctx.span_id,
            parent_span_id: s.parent,
            kind: s.kind,
            start_ns: s.start.duration_since(s.inner.epoch).as_nanos().min(u64::MAX as u128) as u64,
            duration_ns: s.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        };
        s.inner.ring.push(&rec);
        if rec.parent_span_id == 0
            && rec.duration_ns >= s.inner.slow_threshold_ns.load(Ordering::Relaxed)
        {
            s.inner.slow.push(&rec);
            s.inner.slow_requests.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn root_and_child_nest_via_thread_local() {
        let r = Registry::new();
        let t = r.tracer();
        assert!(t.is_enabled());
        assert!(current().is_none());

        let root = t.root_forced(SpanKind::ClientAppend);
        let root_ctx = root.context().unwrap();
        assert_eq!(current(), Some(root_ctx));

        {
            let child = t.child(SpanKind::SeqGrant);
            let child_ctx = child.context().unwrap();
            assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
            assert_ne!(child_ctx.span_id, root_ctx.span_id);
            assert_eq!(current(), Some(child_ctx));
        }
        // Child restored the root context.
        assert_eq!(current(), Some(root_ctx));
        drop(root);
        assert!(current().is_none());

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root_rec = spans.iter().find(|s| s.kind == SpanKind::ClientAppend).unwrap();
        let child_rec = spans.iter().find(|s| s.kind == SpanKind::SeqGrant).unwrap();
        assert!(root_rec.is_root());
        assert_eq!(child_rec.parent_span_id, root_rec.span_id);
        assert_eq!(child_rec.trace_id, root_rec.trace_id);
    }

    #[test]
    fn child_without_context_is_inert() {
        let r = Registry::new();
        let t = r.tracer();
        let span = t.child(SpanKind::StorageWrite);
        assert!(span.context().is_none());
        drop(span);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn disabled_tracer_is_inert_and_leaves_no_context() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.root_forced(SpanKind::ClientRead);
        assert!(span.context().is_none());
        assert!(current().is_none());
        drop(span);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn install_restores_previous_context() {
        let ctx = TraceContext { trace_id: 7, span_id: 9 };
        {
            let _g = install(Some(ctx));
            assert_eq!(current(), Some(ctx));
            {
                let _g2 = install(None);
                assert!(current().is_none());
            }
            assert_eq!(current(), Some(ctx));
        }
        assert!(current().is_none());
    }

    #[test]
    fn ring_wraps_and_keeps_latest() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(&SpanRecord {
                trace_id: 1,
                span_id: i + 1,
                parent_span_id: 0,
                kind: SpanKind::Other,
                start_ns: i,
                duration_ns: 5,
            });
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_survives_concurrent_writers() {
        use std::thread;
        let r = Registry::new();
        let t = r.tracer();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    for _ in 0..500 {
                        t.root_forced(SpanKind::Other).finish();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let spans = t.spans();
        assert!(!spans.is_empty());
        assert!(spans.len() <= 1024);
        for s in &spans {
            assert_eq!(s.kind, SpanKind::Other);
            assert!(s.is_root());
            assert_ne!(s.span_id, 0);
        }
    }

    #[test]
    fn slow_roots_are_forced_into_the_slow_ring() {
        let r = Registry::with_trace(TraceConfig {
            slow_threshold: Duration::from_nanos(0),
            ..TraceConfig::default()
        });
        let t = r.tracer();
        t.root_forced(SpanKind::ClientAppend).finish();
        // Children are never "slow requests" — only roots are.
        let root = t.root_forced(SpanKind::ClientAppend);
        t.child(SpanKind::SeqGrant).finish();
        root.finish();

        let slow = t.slow_spans();
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().all(|s| s.is_root()));
        assert_eq!(r.snapshot().counter("trace.slow_requests"), 2);
    }

    #[test]
    fn fast_roots_stay_out_of_the_slow_ring() {
        let r = Registry::with_trace(TraceConfig {
            slow_threshold: Duration::from_secs(3600),
            ..TraceConfig::default()
        });
        let t = r.tracer();
        t.root_forced(SpanKind::ClientAppend).finish();
        assert!(t.slow_spans().is_empty());
        assert_eq!(r.snapshot().counter("trace.slow_requests"), 0);
    }

    #[test]
    fn sampled_root_respects_sampler() {
        let r = Registry::with_trace(TraceConfig { sample_one_in: 4, ..TraceConfig::default() });
        let t = r.tracer();
        for _ in 0..16 {
            t.root(SpanKind::ClientRead).finish();
        }
        assert_eq!(t.spans().len(), 4);
    }
}
