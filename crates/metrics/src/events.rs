//! The flight recorder: a lock-free per-node journal of typed
//! control-plane events.
//!
//! Tango's correctness story rests on a small set of control-plane
//! transitions — seals, projection installs, shard remaps, hole/junk
//! fills, quorum repairs, replica replacements. The journal records each
//! as a fixed-width [`EventRecord`] in a bounded seqlock ring (same
//! discipline as the span ring, see module `ring`), so emitting an
//! event costs a handful of relaxed atomics and never blocks or
//! allocates.
//!
//! Every record carries a monotonic per-node sequence number, wall and
//! monotonic timestamps, the protocol epoch, the log/shard id, a
//! kind-specific detail word, and the active trace id (0 when the
//! emitting request was not sampled) so events correlate with the span
//! rings. Cross-node ordering is by `(epoch, node, node_seq)` — see
//! [`crate::ClusterSnapshot::timeline`] — which is replay-stable because
//! it uses no clocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::ring::SeqlockRing;

/// What a control-plane event records. Closed enum so an [`EventRecord`]
/// stays eight plain `u64`s in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A sequencer or storage set was sealed at `epoch`; `detail` is the
    /// sealed tail where known.
    Sealed = 0,
    /// A new projection (layout) won the epoch CAS; `detail` is the
    /// installing node's id where known.
    ProjectionInstalled = 1,
    /// A stream's home shard changed; `detail` is the stream id.
    ShardRemapped = 2,
    /// A sequencer adopted a remapped stream's window; `detail` is the
    /// stream id.
    StreamAdopted = 3,
    /// A client filled a hole by copying the winning value forward;
    /// `detail` is the offset.
    HoleFilled = 4,
    /// A client forced junk into an unwritten offset; `detail` is the
    /// offset.
    JunkForced = 5,
    /// A cross-log multiappend commit/abort decision at the home anchor;
    /// `detail` is 1 for commit, 0 for abort.
    CrossLogDecision = 6,
    /// A metalog read rolled a half-written round forward; `detail` is
    /// the repaired position.
    QuorumRepair = 7,
    /// A failed sequencer or storage replica was replaced; `detail` is
    /// the replacement node's id.
    ReplicaReplaced = 8,
    /// The transport dropped an inbound connection (over capacity or
    /// registration failure); `detail` is the live-connection count.
    ConnDropped = 9,
    /// Anything else.
    Other = 10,
    /// A storage node reclaimed whole cold segments below the prefix-trim
    /// horizon; `detail` is the number of segments released.
    SegmentReclaimed = 11,
    /// A storage node migrated hot pages into the cold tier; `detail` is
    /// the number of pages moved.
    ColdMigration = 12,
}

impl EventKind {
    /// Stable display name (used by the timeline rendering).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Sealed => "sealed",
            EventKind::ProjectionInstalled => "projection_installed",
            EventKind::ShardRemapped => "shard_remapped",
            EventKind::StreamAdopted => "stream_adopted",
            EventKind::HoleFilled => "hole_filled",
            EventKind::JunkForced => "junk_forced",
            EventKind::CrossLogDecision => "cross_log_decision",
            EventKind::QuorumRepair => "quorum_repair",
            EventKind::ReplicaReplaced => "replica_replaced",
            EventKind::ConnDropped => "conn_dropped",
            EventKind::Other => "other",
            EventKind::SegmentReclaimed => "segment_reclaimed",
            EventKind::ColdMigration => "cold_migration",
        }
    }

    pub(crate) fn from_u64(v: u64) -> Self {
        match v {
            0 => EventKind::Sealed,
            1 => EventKind::ProjectionInstalled,
            2 => EventKind::ShardRemapped,
            3 => EventKind::StreamAdopted,
            4 => EventKind::HoleFilled,
            5 => EventKind::JunkForced,
            6 => EventKind::CrossLogDecision,
            7 => EventKind::QuorumRepair,
            8 => EventKind::ReplicaReplaced,
            9 => EventKind::ConnDropped,
            11 => EventKind::SegmentReclaimed,
            12 => EventKind::ColdMigration,
            _ => EventKind::Other,
        }
    }
}

/// One recorded control-plane event as read back from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic 1-based sequence number within the emitting node. The
    /// causal order of a node's own events, independent of clocks.
    pub node_seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock microseconds since the UNIX epoch at emit time. For
    /// humans only — replay-stable orderings never consult it.
    pub wall_us: u64,
    /// Nanoseconds since the registry was created. Only comparable
    /// within one process.
    pub mono_ns: u64,
    /// The protocol epoch the event happened under.
    pub epoch: u64,
    /// The log (shard) the event concerns, or 0 when log-independent.
    pub log: u64,
    /// Kind-specific payload (offset, stream id, node id, …).
    pub detail: u64,
    /// Trace id of the request that emitted the event, 0 when unsampled
    /// or emitted outside any request.
    pub trace_id: u64,
}

impl EventRecord {
    /// The clock-free total order used for canonical merges:
    /// `(epoch, node_seq, kind, log, detail)` with the timestamps and
    /// trace id as final tie-breakers.
    pub(crate) fn causal_key(&self) -> (u64, u64, EventKind, u64, u64, u64, u64, u64) {
        (
            self.epoch,
            self.node_seq,
            self.kind,
            self.log,
            self.detail,
            self.wall_us,
            self.mono_ns,
            self.trace_id,
        )
    }
}

pub(crate) const EVENT_WORDS: usize = 8;

impl EventRecord {
    pub(crate) fn to_words(&self) -> [u64; EVENT_WORDS] {
        [
            self.node_seq,
            self.kind as u64,
            self.wall_us,
            self.mono_ns,
            self.epoch,
            self.log,
            self.detail,
            self.trace_id,
        ]
    }

    pub(crate) fn from_words(words: &[u64; EVENT_WORDS]) -> Self {
        Self {
            node_seq: words[0],
            kind: EventKind::from_u64(words[1]),
            wall_us: words[2],
            mono_ns: words[3],
            epoch: words[4],
            log: words[5],
            detail: words[6],
            trace_id: words[7],
        }
    }
}

pub(crate) struct EventJournalInner {
    ring: SeqlockRing<EVENT_WORDS>,
    node_seq: AtomicU64,
    pub(crate) events_recorded: AtomicU64,
    epoch: Instant,
}

impl EventJournalInner {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ring: SeqlockRing::new(capacity),
            node_seq: AtomicU64::new(0),
            events_recorded: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    pub(crate) fn records(&self) -> Vec<EventRecord> {
        let mut out: Vec<EventRecord> =
            self.ring.snapshot().iter().map(EventRecord::from_words).collect();
        out.sort_by_key(|e| e.node_seq);
        out
    }
}

/// Handle for emitting events into one registry's journal. Cheap to
/// clone; a handle from a disabled registry is inert.
#[derive(Clone, Default)]
pub struct Events {
    pub(crate) inner: Option<Arc<EventJournalInner>>,
}

impl Events {
    /// A permanently disabled journal handle (all emits are no-ops).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True if emitted events can be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. The node sequence number is assigned here; the
    /// trace id is taken from the current thread's trace context.
    pub fn emit(&self, kind: EventKind, epoch: u64, log: u64, detail: u64) {
        let Some(inner) = &self.inner else { return };
        let node_seq = inner.node_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let wall_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mono_ns = inner.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let trace_id = crate::trace::current().map(|c| c.trace_id).unwrap_or(0);
        let rec = EventRecord { node_seq, kind, wall_us, mono_ns, epoch, log, detail, trace_id };
        inner.ring.push(&rec.to_words());
        inner.events_recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// All stable events currently in the journal, in node-sequence order.
    pub fn records(&self) -> Vec<EventRecord> {
        self.inner.as_ref().map(|i| i.records()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn emit_assigns_monotonic_node_sequence() {
        let r = Registry::new();
        let ev = r.events();
        assert!(ev.is_enabled());
        ev.emit(EventKind::Sealed, 3, 0, 42);
        ev.emit(EventKind::ProjectionInstalled, 4, 0, 7);
        let records = ev.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].node_seq, 1);
        assert_eq!(records[1].node_seq, 2);
        assert_eq!(records[0].kind, EventKind::Sealed);
        assert_eq!(records[0].epoch, 3);
        assert_eq!(records[0].detail, 42);
        assert_eq!(records[1].kind, EventKind::ProjectionInstalled);
    }

    #[test]
    fn disabled_journal_is_inert() {
        let ev = Events::disabled();
        ev.emit(EventKind::Sealed, 1, 0, 0);
        assert!(ev.records().is_empty());
        let r = Registry::disabled();
        let ev = r.events();
        assert!(!ev.is_enabled());
        ev.emit(EventKind::Sealed, 1, 0, 0);
        assert!(ev.records().is_empty());
    }

    #[test]
    fn journal_wraps_and_keeps_latest() {
        let r = Registry::with_trace(crate::TraceConfig {
            event_capacity: 4,
            ..crate::TraceConfig::default()
        });
        let ev = r.events();
        for i in 0..10u64 {
            ev.emit(EventKind::HoleFilled, 1, 0, i);
        }
        let records = ev.records();
        assert_eq!(records.len(), 4);
        let seqs: Vec<u64> = records.iter().map(|e| e.node_seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        // Sequence numbers keep counting even when the ring evicts.
        assert_eq!(r.snapshot().counter("events.recorded"), 10);
    }

    #[test]
    fn emit_captures_current_trace_id() {
        let r = Registry::new();
        let t = r.tracer();
        let ev = r.events();
        ev.emit(EventKind::Sealed, 1, 0, 0);
        let root = t.root_forced(crate::SpanKind::ClientAppend);
        let trace_id = root.context().unwrap().trace_id;
        ev.emit(EventKind::HoleFilled, 1, 0, 5);
        root.finish();
        let records = ev.records();
        assert_eq!(records[0].trace_id, 0);
        assert_eq!(records[1].trace_id, trace_id);
    }

    #[test]
    fn journal_survives_concurrent_writers() {
        use std::thread;
        let r = Registry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ev = r.events();
                thread::spawn(move || {
                    for i in 0..500u64 {
                        ev.emit(EventKind::Other, 1, 0, i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let records = r.events().records();
        assert!(!records.is_empty());
        assert!(records.len() <= 1024);
        let mut seqs: Vec<u64> = records.iter().map(|e| e.node_seq).collect();
        let sorted = seqs.clone();
        seqs.dedup();
        // node_seq values are unique and the snapshot is sorted.
        assert_eq!(seqs, sorted);
    }
}
