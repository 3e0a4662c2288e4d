//! The sequencer: a networked counter with per-stream backpointer state (§5).

use std::collections::HashMap;
use std::collections::VecDeque;

use parking_lot::Mutex;
use tango_metrics::Registry;
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec, Decode, Encode, Reader, Writer};

use crate::metrics::SequencerMetrics;
use crate::proto::{SequencerRequest, SequencerResponse};
use crate::{compose, Epoch, LogOffset, StreamId};

/// Snapshot of sequencer state, used by reconfiguration to bootstrap a
/// replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencerState {
    /// The next offset to be issued.
    pub tail: LogOffset,
    /// Last-K issued offsets per stream, most recent first.
    pub streams: Vec<(StreamId, Vec<LogOffset>)>,
}

impl Encode for SequencerState {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.tail);
        w.put_varint(self.streams.len() as u64);
        for (id, offs) in &self.streams {
            w.put_u32(*id);
            w.put_varint(offs.len() as u64);
            for &o in offs {
                w.put_u64(o);
            }
        }
    }
}

impl Decode for SequencerState {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        let tail = r.get_u64()?;
        let n = r.get_len(1 << 24)?;
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let m = r.get_len(1 << 16)?;
            let mut offs = Vec::with_capacity(m);
            for _ in 0..m {
                offs.push(r.get_u64()?);
            }
            streams.push((id, offs));
        }
        Ok(Self { tail, streams })
    }
}

/// The CORFU sequencer.
///
/// Holds a single 64-bit tail counter plus, for the streaming extension,
/// the last `K` offsets *issued* for each stream id (issued, not written:
/// a token holder may crash before writing, which is why stream playback
/// must tolerate junk at the end of a backpointer chain). The state is soft;
/// a replacement sequencer recovers it from the log (see [`crate::reconfig`]).
///
/// In a sharded deployment each log has its own sequencer, created with
/// [`SequencerServer::new_for_log`]. The tail counter and token offsets
/// stay *raw* (within-log), but the per-stream backpointers are stored and
/// returned as *composite* offsets (log id in the high bits): backpointer
/// chains are followed by readers, whose addressing is composite, and a
/// stream remapped to another log can carry its chain along verbatim via
/// `AdoptStream`. For log 0 composite equals raw, so single-log
/// deployments are unchanged.
pub struct SequencerServer {
    inner: Mutex<Inner>,
    k: usize,
    log_id: u32,
    metrics: SequencerMetrics,
}

struct Inner {
    epoch: Epoch,
    tail: LogOffset,
    streams: HashMap<StreamId, VecDeque<LogOffset>>,
    tokens_issued: u64,
}

impl Inner {
    /// The last-K issued offsets of each of `streams`, most recent first.
    fn last_k(&self, streams: &[StreamId]) -> Vec<Vec<LogOffset>> {
        streams
            .iter()
            .map(|s| self.streams.get(s).map(|d| d.iter().copied().collect()).unwrap_or_default())
            .collect()
    }
}

impl SequencerServer {
    /// Creates a fresh sequencer at epoch 0 with `k` backpointers per
    /// stream, serving log 0.
    pub fn new(k: usize) -> Self {
        Self::new_for_log(k, 0)
    }

    /// Creates a fresh sequencer for log `log_id` of a sharded deployment.
    /// Issued offsets stay raw; backpointers are composed with `log_id`.
    pub fn new_for_log(k: usize, log_id: u32) -> Self {
        assert!(k >= 1, "at least one backpointer per stream is required");
        Self {
            inner: Mutex::new(Inner {
                epoch: 0,
                tail: 0,
                streams: HashMap::new(),
                tokens_issued: 0,
            }),
            k,
            log_id,
            metrics: SequencerMetrics::default(),
        }
    }

    /// Records `corfu.seq.*` metrics into `registry` (off by default).
    /// Names are scoped to this sequencer's log (log 0 keeps the bare
    /// names), so shard sequencers sharing one registry stay tellable
    /// apart.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = SequencerMetrics::for_log(registry, self.log_id as u64);
        self
    }

    /// The number of backpointers maintained per stream.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total tokens issued (for tests and benchmarks).
    pub fn tokens_issued(&self) -> u64 {
        self.inner.lock().tokens_issued
    }

    /// Processes a decoded request (also used directly by unit tests).
    pub fn process(&self, req: SequencerRequest) -> SequencerResponse {
        let span_kind = match req {
            SequencerRequest::Next { .. } | SequencerRequest::NextObserve { .. } => {
                tango_metrics::SpanKind::SeqGrant
            }
            SequencerRequest::Query { .. } => tango_metrics::SpanKind::SeqQuery,
            _ => tango_metrics::SpanKind::Other,
        };
        // Records only when the request arrived with a trace context.
        let _span = self.metrics.tracer.child(span_kind);
        let mut inner = self.inner.lock();
        match req {
            SequencerRequest::Next { epoch, streams } => {
                self.grant(&mut inner, epoch, &streams, &[])
            }
            SequencerRequest::NextObserve { epoch, streams, observe } => {
                self.grant(&mut inner, epoch, &streams, &observe)
            }
            SequencerRequest::Query { epoch, streams } => {
                if epoch != inner.epoch {
                    return SequencerResponse::ErrSealed { epoch: inner.epoch };
                }
                let backpointers = inner.last_k(&streams);
                SequencerResponse::TailInfo { tail: inner.tail, backpointers }
            }
            SequencerRequest::Seal { epoch } => {
                if epoch <= inner.epoch {
                    return SequencerResponse::ErrSealed { epoch: inner.epoch };
                }
                inner.epoch = epoch;
                self.metrics.epoch.set(epoch as i64);
                self.metrics.events.emit(
                    tango_metrics::EventKind::Sealed,
                    epoch,
                    self.log_id as u64,
                    inner.tail,
                );
                SequencerResponse::Ok
            }
            SequencerRequest::Dump { epoch } => {
                if epoch != inner.epoch {
                    return SequencerResponse::ErrSealed { epoch: inner.epoch };
                }
                let mut streams: Vec<(StreamId, Vec<LogOffset>)> = inner
                    .streams
                    .iter()
                    .map(|(&id, offs)| (id, offs.iter().copied().collect()))
                    .collect();
                streams.sort_by_key(|(id, _)| *id);
                SequencerResponse::State { tail: inner.tail, streams }
            }
            SequencerRequest::Bootstrap { epoch, tail, streams } => {
                // Into an epoch once, like a seal: a second reconfigurer's
                // state for the same epoch may be older than the tokens
                // this node has issued since the first one's install.
                if epoch <= inner.epoch {
                    return SequencerResponse::ErrSealed { epoch: inner.epoch };
                }
                inner.epoch = epoch;
                inner.tail = tail;
                inner.streams = streams
                    .into_iter()
                    .map(|(id, offs)| (id, offs.into_iter().take(self.k).collect()))
                    .collect();
                self.metrics.epoch.set(epoch as i64);
                self.metrics.tail.set(tail as i64);
                SequencerResponse::Ok
            }
            SequencerRequest::AdoptStream { epoch, stream, backpointers } => {
                if epoch != inner.epoch {
                    return SequencerResponse::ErrSealed { epoch: inner.epoch };
                }
                // Merge: the adopted window is newest. Both logs are sealed
                // while the override is installed, so everything issued for
                // the stream since it last left this log lives in the source
                // log — any local leftover window (from a remap cycle that
                // brought the stream back) is strictly older and fills in
                // behind the adopted offsets.
                let entry = inner.streams.entry(stream).or_default();
                let mut merged: VecDeque<LogOffset> = backpointers.iter().copied().collect();
                for &b in entry.iter() {
                    if !merged.contains(&b) {
                        merged.push_back(b);
                    }
                }
                merged.truncate(self.k);
                *entry = merged;
                self.metrics.events.emit(
                    tango_metrics::EventKind::StreamAdopted,
                    epoch,
                    self.log_id as u64,
                    stream as u64,
                );
                SequencerResponse::Ok
            }
        }
    }

    /// Grants one token joining `streams` and reads `observe`'s windows
    /// under the same lock, so the observation is exactly as of the grant.
    /// Inlined into `process`: outlined, a plain `Next` paid ~10 ns for it.
    #[inline]
    fn grant(
        &self,
        inner: &mut Inner,
        epoch: Epoch,
        streams: &[StreamId],
        observe: &[StreamId],
    ) -> SequencerResponse {
        if epoch != inner.epoch {
            return SequencerResponse::ErrSealed { epoch: inner.epoch };
        }
        let offset = inner.tail;
        inner.tail += 1;
        inner.tokens_issued += 1;
        let composite = compose(self.log_id, offset);
        let mut backpointers = Vec::with_capacity(streams.len());
        for &stream in streams {
            let entry = inner.streams.entry(stream).or_default();
            backpointers.push(entry.iter().copied().collect());
            entry.push_front(composite);
            entry.truncate(self.k);
        }
        self.metrics.tokens_granted.inc();
        self.metrics.tail.set(inner.tail as i64);
        SequencerResponse::Token { offset, backpointers, observed: inner.last_k(observe) }
    }

    /// Exports the current state (for tests; reconfiguration rebuilds state
    /// from the log instead, because a failed sequencer cannot be asked).
    pub fn state(&self) -> SequencerState {
        let inner = self.inner.lock();
        let mut streams: Vec<(StreamId, Vec<LogOffset>)> =
            inner.streams.iter().map(|(&id, offs)| (id, offs.iter().copied().collect())).collect();
        streams.sort_by_key(|(id, _)| *id);
        SequencerState { tail: inner.tail, streams }
    }
}

impl RpcHandler for SequencerServer {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let response = match decode_from_slice::<SequencerRequest>(request) {
            Ok(req) => self.process(req),
            Err(_) => SequencerResponse::ErrSealed { epoch: u64::MAX },
        };
        encode_to_vec(&response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issues_monotonic_offsets() {
        let s = SequencerServer::new(4);
        for expect in 0..10 {
            match s.process(SequencerRequest::Next { epoch: 0, streams: vec![] }) {
                SequencerResponse::Token { offset, .. } => assert_eq!(offset, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(s.tokens_issued(), 10);
    }

    #[test]
    fn stream_backpointers_track_last_k() {
        let s = SequencerServer::new(2);
        let mut offsets = Vec::new();
        for _ in 0..4 {
            match s.process(SequencerRequest::Next { epoch: 0, streams: vec![7] }) {
                SequencerResponse::Token { offset, backpointers, .. } => {
                    // Backpointers exclude the new offset and are most
                    // recent first, capped at K=2.
                    let expected: Vec<u64> = offsets.iter().rev().take(2).copied().collect();
                    assert_eq!(backpointers, vec![expected]);
                    offsets.push(offset);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn query_does_not_increment() {
        let s = SequencerServer::new(4);
        s.process(SequencerRequest::Next { epoch: 0, streams: vec![1] });
        let q = s.process(SequencerRequest::Query { epoch: 0, streams: vec![1, 2] });
        match q {
            SequencerResponse::TailInfo { tail, backpointers } => {
                assert_eq!(tail, 1);
                assert_eq!(backpointers, vec![vec![0], vec![]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Tail unchanged by the query.
        match s.process(SequencerRequest::Next { epoch: 0, streams: vec![] }) {
            SequencerResponse::Token { offset, .. } => assert_eq!(offset, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn next_observe_answers_what_a_query_after_the_grant_would() {
        let observing = SequencerServer::new(2);
        let querying = SequencerServer::new(2);
        for s in [&observing, &querying] {
            for streams in [vec![1], vec![1, 2], vec![2], vec![2]] {
                s.process(SequencerRequest::Next { epoch: 0, streams });
            }
        }
        // Stream 3 was never written; stream 1 is both written and observed.
        let observe = vec![2, 3, 1];
        let granted = observing.process(SequencerRequest::NextObserve {
            epoch: 0,
            streams: vec![1],
            observe: observe.clone(),
        });
        let plain = querying.process(SequencerRequest::Next { epoch: 0, streams: vec![1] });
        let queried = querying.process(SequencerRequest::Query { epoch: 0, streams: observe });
        match (granted, plain, queried) {
            (
                SequencerResponse::Token { offset, backpointers, observed },
                SequencerResponse::Token { offset: o2, backpointers: b2, observed: none },
                SequencerResponse::TailInfo { tail, backpointers: q },
            ) => {
                assert_eq!((offset, &backpointers), (o2, &b2));
                assert!(none.is_empty());
                assert_eq!(tail, offset + 1);
                assert_eq!(observed, q);
                assert_eq!(observed, vec![vec![3, 2], vec![], vec![4, 1]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(observing.state(), querying.state());
        assert_eq!(
            observing.process(SequencerRequest::NextObserve {
                epoch: 9,
                streams: vec![],
                observe: vec![1]
            }),
            SequencerResponse::ErrSealed { epoch: 0 }
        );
    }

    #[test]
    fn seal_stops_token_issue() {
        let s = SequencerServer::new(4);
        assert_eq!(s.process(SequencerRequest::Seal { epoch: 3 }), SequencerResponse::Ok);
        assert_eq!(
            s.process(SequencerRequest::Next { epoch: 0, streams: vec![] }),
            SequencerResponse::ErrSealed { epoch: 3 }
        );
        assert_eq!(
            s.process(SequencerRequest::Next { epoch: 3, streams: vec![] }),
            SequencerResponse::Token { offset: 0, backpointers: vec![], observed: vec![] }
        );
    }

    #[test]
    fn sharded_sequencer_composes_backpointers() {
        let s = SequencerServer::new_for_log(4, 2);
        // Offsets are raw; backpointers carry the log id in the high bits.
        match s.process(SequencerRequest::Next { epoch: 0, streams: vec![7] }) {
            SequencerResponse::Token { offset, backpointers, .. } => {
                assert_eq!(offset, 0);
                assert_eq!(backpointers, vec![vec![]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.process(SequencerRequest::Next { epoch: 0, streams: vec![7] }) {
            SequencerResponse::Token { offset, backpointers, .. } => {
                assert_eq!(offset, 1);
                assert_eq!(backpointers, vec![vec![compose(2, 0)]]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adopt_stream_merges_window() {
        let s = SequencerServer::new_for_log(3, 1);
        // Adopt a window from another log (composite offsets of log 0).
        let resp = s.process(SequencerRequest::AdoptStream {
            epoch: 0,
            stream: 9,
            backpointers: vec![40, 30, 20, 10],
        });
        assert_eq!(resp, SequencerResponse::Ok);
        match s.process(SequencerRequest::Query { epoch: 0, streams: vec![9] }) {
            SequencerResponse::TailInfo { backpointers, .. } => {
                // Truncated to K=3, order preserved (most recent first).
                assert_eq!(backpointers, vec![vec![40, 30, 20]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // New tokens in this log stack in front of the adopted window.
        s.process(SequencerRequest::Next { epoch: 0, streams: vec![9] });
        match s.process(SequencerRequest::Query { epoch: 0, streams: vec![9] }) {
            SequencerResponse::TailInfo { backpointers, .. } => {
                assert_eq!(backpointers, vec![vec![compose(1, 0), 40, 30]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A later adoption (the stream coming back from another log) is
        // newer than any local leftover window: adopted offsets lead, the
        // stale local ones fill in behind.
        let resp = s.process(SequencerRequest::AdoptStream {
            epoch: 0,
            stream: 9,
            backpointers: vec![99, 98],
        });
        assert_eq!(resp, SequencerResponse::Ok);
        match s.process(SequencerRequest::Query { epoch: 0, streams: vec![9] }) {
            SequencerResponse::TailInfo { backpointers, .. } => {
                assert_eq!(backpointers, vec![vec![99, 98, compose(1, 0)]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Wrong epoch is rejected.
        assert_eq!(
            s.process(SequencerRequest::AdoptStream { epoch: 5, stream: 9, backpointers: vec![] }),
            SequencerResponse::ErrSealed { epoch: 0 }
        );
    }

    #[test]
    fn bootstrap_installs_state() {
        let s = SequencerServer::new(4);
        let resp = s.process(SequencerRequest::Bootstrap {
            epoch: 2,
            tail: 100,
            streams: vec![(5, vec![99, 97, 90, 80, 70])],
        });
        assert_eq!(resp, SequencerResponse::Ok);
        match s.process(SequencerRequest::Next { epoch: 2, streams: vec![5] }) {
            SequencerResponse::Token { offset, backpointers, .. } => {
                assert_eq!(offset, 100);
                // Truncated to K=4.
                assert_eq!(backpointers, vec![vec![99, 97, 90, 80]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A twin's bootstrap into the same epoch must not rewind the tail.
        let again = SequencerRequest::Bootstrap { epoch: 2, tail: 100, streams: vec![] };
        assert_eq!(s.process(again), SequencerResponse::ErrSealed { epoch: 2 });
        assert_eq!(s.state().tail, 101);
    }
}
