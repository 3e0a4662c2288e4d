//! The benchmark's own spans: a root span per operation and a child span
//! around every RPC the client under test issues for it. Spans are recorded
//! from outside the program (the call sites in `workloads.rs` and the
//! connection wrapper in `sut.rs`), kept in memory, and analysed or written
//! out only after the measured phase ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock for op
/// samples and spans, so they can be laid on the same axis.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names of the RPC classes, by the kind of node called.
pub const RPC_SEQ: &str = "rpc.seq";
pub const RPC_STORAGE: &str = "rpc.storage";
pub const RPC_META: &str = "rpc.meta";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one operation.
    pub op_id: u64,
    pub id: u64,
    /// The span that caused this one; 0 for an operation's root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request/response payload sizes (RPC spans only).
    pub req_bytes: u32,
    pub resp_bytes: u32,
}

/// One client's span recorder. The client issues some RPCs from its own
/// fan-out pool threads, so the "current span" is shared state rather than a
/// thread-local: whichever thread makes the call, the span attaches to the
/// operation the load thread has open on this client.
pub struct Probe {
    current_op: AtomicU64,
    current_parent: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span opened with [`Probe::open`], to be handed back to [`Probe::close`].
pub struct OpenSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Probe {
    /// `lane` namespaces the ids so spans of different clients (and
    /// rounds) never collide; `capacity` pre-allocates the buffer so recording does not
    /// reallocate inside the measured phase.
    pub fn new(lane: u64, capacity: usize) -> Self {
        Self {
            current_op: AtomicU64::new(0),
            current_parent: AtomicU64::new(0),
            next_id: AtomicU64::new((lane + 1) << 40),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    // The atomics publish no other data: each is read back either by the
    // thread that wrote it or by a pool thread that received the work over
    // a channel (which orders the accesses), so Relaxed suffices.
    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span under this client's innermost open span (a root
    /// span, and a new operation, when none is open).
    pub fn open(&self, name: &'static str) -> OpenSpan {
        let id = self.fresh_id();
        let parent = self.current_parent.swap(id, Ordering::Relaxed);
        if parent == 0 {
            self.current_op.store(id, Ordering::Relaxed);
        }
        OpenSpan { name, id, parent, start_ns: now_ns() }
    }

    pub fn close(&self, open: OpenSpan) {
        let end_ns = now_ns();
        self.current_parent.store(open.parent, Ordering::Relaxed);
        self.push(Span {
            name: open.name,
            op_id: self.current_op.load(Ordering::Relaxed),
            id: open.id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
            req_bytes: 0,
            resp_bytes: 0,
        });
    }

    /// Records one finished RPC under whatever span is open right now
    /// (operation 0, which the analysis ignores, when none is).
    pub fn rpc(&self, name: &'static str, start_ns: u64, end_ns: u64, req: usize, resp: usize) {
        let parent = self.current_parent.load(Ordering::Relaxed);
        self.push(Span {
            name,
            op_id: if parent == 0 { 0 } else { self.current_op.load(Ordering::Relaxed) },
            id: self.fresh_id(),
            parent,
            start_ns,
            end_ns,
            req_bytes: req as u32,
            resp_bytes: resp as u32,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no recorder panics while holding the buffer").push(span);
    }

    /// Drains the buffer (spans recorded during set-up are dropped this way
    /// before the measured phase starts).
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("no recorder panics while holding the buffer"),
        )
    }
}

/// Time inside `[start, end)` that none of `children` covers. Children may
/// overlap each other, nest, or stick out of the parent interval.
pub fn self_time_ns(start_ns: u64, end_ns: u64, children: &[(u64, u64)]) -> u64 {
    (end_ns.saturating_sub(start_ns)).saturating_sub(covered_ns(start_ns, end_ns, children))
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
pub fn covered_ns(start_ns: u64, end_ns: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start_ns), e.min(end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start_ns;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

/// What one RPC class contributed to the traced operations.
#[derive(Debug, Default, Clone)]
pub struct ClassUse {
    pub calls: u64,
    /// Duration of every call, µs.
    pub call_us: Vec<f64>,
    /// Σ over operations of the time covered by at least one call of this
    /// class (parallel calls count once).
    pub covered_ns: u64,
}

/// Per-operation accounting of a traced round.
#[derive(Debug, Default, Clone)]
pub struct InSitu {
    pub ops: u64,
    /// Σ root span durations.
    pub op_ns: u64,
    pub rpc_calls: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub seq: ClassUse,
    pub storage: ClassUse,
    pub meta: ClassUse,
    /// Per operation: root duration minus the union of all its RPC spans.
    pub self_us: Vec<f64>,
    /// Durations of non-root, non-RPC spans by name (e.g. `tx.exec`), µs.
    pub phases: Vec<(&'static str, Vec<f64>)>,
}

/// Folds a round's spans into per-operation accounting. Spans whose
/// operation has no root span in `spans` (set-up traffic) are ignored.
pub fn analyze(spans: &[Span]) -> InSitu {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.op_id, s.parent != 0, s.start_ns));
    let mut out = InSitu::default();
    for op in sorted.chunk_by(|a, b| a.op_id == b.op_id) {
        let root = op[0];
        if root.parent != 0 || root.op_id == 0 {
            continue;
        }
        out.ops += 1;
        out.op_ns += root.end_ns - root.start_ns;
        let mut all = Vec::new();
        let mut by_class: [Vec<(u64, u64)>; 3] = Default::default();
        for span in &op[1..] {
            let class = match span.name {
                RPC_SEQ => 0,
                RPC_STORAGE => 1,
                RPC_META => 2,
                name => {
                    let us = (span.end_ns - span.start_ns) as f64 / 1e3;
                    match out.phases.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, v)) => v.push(us),
                        None => out.phases.push((name, vec![us])),
                    }
                    continue;
                }
            };
            out.rpc_calls += 1;
            out.req_bytes += u64::from(span.req_bytes);
            out.resp_bytes += u64::from(span.resp_bytes);
            all.push((span.start_ns, span.end_ns));
            by_class[class].push((span.start_ns, span.end_ns));
        }
        for (class, intervals) in
            [&mut out.seq, &mut out.storage, &mut out.meta].into_iter().zip(&by_class)
        {
            class.calls += intervals.len() as u64;
            class.call_us.extend(intervals.iter().map(|(s, e)| (e - s) as f64 / 1e3));
            class.covered_ns += covered_ns(root.start_ns, root.end_ns, intervals);
        }
        out.self_us.push(self_time_ns(root.start_ns, root.end_ns, &all) as f64 / 1e3);
    }
    out
}

/// Writes spans as CSV, one per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,op_id,id,parent,start_ns,end_ns,req_bytes,resp_bytes")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.name, s.op_id, s.id, s.parent, s.start_ns, s.end_ns, s.req_bytes, s.resp_bytes
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_overlapping_nested_and_protruding_children() {
        // Parent [100, 200). Children: [110,130) and [120,150) overlap;
        // [125,128) nests; [190,260) sticks out; [0,50) is outside.
        let children = [(110, 130), (120, 150), (125, 128), (190, 260), (0, 50)];
        assert_eq!(covered_ns(100, 200, &children), 40 + 10);
        assert_eq!(self_time_ns(100, 200, &children), 50);
        assert_eq!(self_time_ns(100, 200, &[]), 100);
        assert_eq!(self_time_ns(100, 200, &[(0, 1000)]), 0);
        // Back-to-back children leave no gap and are not double counted.
        assert_eq!(self_time_ns(0, 30, &[(0, 10), (10, 20), (20, 30)]), 0);
    }

    #[test]
    fn probe_attaches_rpcs_to_the_innermost_open_span() {
        let probe = Probe::new(0, 16);
        probe.rpc(RPC_META, 1, 2, 10, 10); // set-up traffic: no op open
        let root = probe.open("tx");
        let exec = probe.open("tx.exec");
        probe.close(exec);
        let commit = probe.open("tx.commit");
        let t = now_ns();
        probe.rpc(RPC_SEQ, t, t + 5, 30, 40);
        probe.close(commit);
        probe.close(root);
        let spans = probe.take();
        assert!(probe.take().is_empty());
        let root = spans.iter().find(|s| s.name == "tx").unwrap();
        let commit = spans.iter().find(|s| s.name == "tx.commit").unwrap();
        let rpc = spans.iter().find(|s| s.name == RPC_SEQ).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(commit.parent, root.id);
        assert_eq!(rpc.parent, commit.id);
        assert!(spans.iter().filter(|s| s.name != RPC_META).all(|s| s.op_id == root.id));

        let a = analyze(&spans);
        assert_eq!((a.ops, a.rpc_calls, a.seq.calls, a.meta.calls), (1, 1, 1, 0));
        assert_eq!((a.req_bytes, a.resp_bytes), (30, 40));
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn analyze_counts_parallel_calls_once_in_class_coverage() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            op_id: 7,
            id,
            parent,
            start_ns,
            end_ns,
            req_bytes: 1,
            resp_bytes: 2,
        };
        let spans = [
            span("replay", 7, 0, 0, 1000),
            span(RPC_STORAGE, 8, 7, 100, 400),
            span(RPC_STORAGE, 9, 7, 200, 500),
            span(RPC_SEQ, 10, 7, 600, 700),
        ];
        let a = analyze(&spans);
        assert_eq!(a.storage.calls, 2);
        assert_eq!(a.storage.covered_ns, 400);
        assert_eq!(a.seq.covered_ns, 100);
        assert_eq!(a.self_us, vec![0.5]);
        assert_eq!(a.op_ns, 1000);
    }
}
