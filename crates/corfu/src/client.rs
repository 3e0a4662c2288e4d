//! The CORFU client library (§2.2).
//!
//! Appends acquire a token from the sequencer, then write the entry to the
//! offset's replica chain head-to-tail (client-driven chain replication
//! [45]); reads go to the chain tail and *repair* half-written chains by
//! propagating the head's value forward. Write-once storage arbitrates all
//! races: if another client (usually a hole-filler) consumed our token's
//! slot, the append retries with a fresh token. Every request is epoch-
//! stamped; on `ErrSealed` the client refreshes its projection from the
//! layout service and retries.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::RwLock;
use tango_metrics::{Registry, Span, SpanKind, Timer};
use tango_rpc::{ClientConn, Clock};
use tango_wire::{decode_from_slice, encode_to_vec, Decode, Encode};

use crate::entry::{CrossLogLink, EntryEnvelope, StreamHeader};
use crate::layout::LayoutClient;
use crate::metrics::{ClientLogMetrics, ClientMetrics};
use crate::proto::{
    Pages, SequencerRequest, SequencerResponse, StorageRequest, StorageResponse, WriteKind,
    WriteRef, WRITE_HEAD_MAX,
};
use crate::{
    compose, log_of_offset, CorfuError, Epoch, LogOffset, NodeId, NodeInfo, Page, Projection,
    Result, StreamId,
};

/// Creates connections to nodes named by the projection's address book.
pub trait ConnFactory: Send + Sync {
    /// Opens (or reuses) a connection to `node`.
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn>;

    /// The clock the factory's connections run on: the wall clock unless
    /// the transport simulates time.
    fn clock(&self) -> Clock {
        Clock::real()
    }
}

impl<F> ConnFactory for F
where
    F: Fn(&NodeInfo) -> Arc<dyn ClientConn> + Send + Sync,
{
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        self(node)
    }
}

/// First poll interval while waiting on an unwritten offset. Each poll that
/// still finds it unwritten doubles the interval, up to [`HOLE_POLL_MAX`].
const HOLE_POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Cap on the poll backoff: keeps a slow writer from turning every waiting
/// reader into a busy-poller while bounding how stale the reader's view of
/// the offset gets.
const HOLE_POLL_MAX: Duration = Duration::from_millis(16);
/// How many times an operation retries across epoch changes before giving
/// up.
const MAX_EPOCH_RETRIES: u32 = 32;
/// How many times an append retries lost tokens before giving up.
const MAX_TOKEN_RETRIES: u32 = 64;

/// What a deployment may set on its clients.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// How long a reader waits on an unwritten offset before patching it
    /// with junk (the paper's default is 100ms).
    pub hole_fill_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self { hole_fill_timeout: Duration::from_millis(100) }
    }
}

/// Last-K offset windows (most recent first), one per stream, in the order
/// the streams were named in the request.
pub type StreamWindows = Vec<Vec<LogOffset>>;

/// A reserved log position plus per-stream backpointers (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The reserved global offset.
    pub offset: LogOffset,
    /// For each stream in the request, the previous K offsets of that
    /// stream (most recent first).
    pub backpointers: Vec<Vec<LogOffset>>,
    /// For each stream the grant was asked to observe, its last K offsets
    /// as of the grant (most recent first).
    pub observed: StreamWindows,
}

/// What a visitor is shown as the reply of a page that holds no data.
static NO_REPLY: Bytes = Bytes::new();

/// The buffer `page`'s data lies in, as a bulk read's visitor is shown it
/// with the page.
fn reply_of(page: &Page<Bytes>) -> &Bytes {
    match page {
        Page::Data(bytes) => bytes,
        _ => &NO_REPLY,
    }
}

/// What a reader walking a stream backward lets the storage nodes read
/// beyond the offsets it names (see [`StorageRequest::ReadChase`]).
pub struct Chase<'a> {
    /// The stream whose backpointers the nodes follow.
    pub stream: StreamId,
    /// Per log, the lowest composite offset the reader has any use for.
    pub floor: &'a dyn Fn(u32) -> LogOffset,
    /// Pages per storage round trip, the named offsets included.
    pub limit: usize,
}

/// What [`CorfuClient::visit_many`] shows a page to: the page's position
/// among the offsets asked for (`None`: a page a [`Chase`] brought along,
/// which nobody named), its offset, what it holds, lent from the reply it
/// arrived in, and that reply — which a visitor that keeps the page keeps a
/// handle on instead of a copy (see [`crate::Entry::in_reply`]).
pub type PageVisitor<'v> =
    dyn FnMut(Option<usize>, LogOffset, Page<&[u8]>, &Bytes) -> Result<()> + 'v;

/// One storage node's answer to its share of a bulk read.
struct BulkReply {
    /// The replica set that answered.
    set: usize,
    /// What it was asked: input positions and local addresses, in request
    /// order.
    asked: Vec<(usize, u64)>,
    /// The encoded `BatchOutcomes` or `Chased` response.
    reply: Bytes,
}

/// One operation's view of the cluster: a layout and, beside it, what is
/// only good for that layout. An operation takes one `Arc` of it and every
/// step — token, chain write, read — works from that; nothing in it
/// changes, a refresh installs a new one.
pub(crate) struct View {
    pub(crate) proj: Arc<Projection>,
    /// Connections dialled under `proj`, parallel to `proj.nodes`.
    conns: Vec<OnceLock<Arc<dyn ClientConn>>>,
    /// The per-log instrument bundles, indexed by log id.
    log_metrics: Vec<ClientLogMetrics>,
}

impl View {
    /// A view of `proj`. Of `prev`'s connections it keeps those to nodes
    /// whose id *and* address are unchanged: a node that kept its id but
    /// moved is another node.
    fn new(proj: Arc<Projection>, registry: &Registry, prev: Option<&View>) -> Self {
        let carried = |node: &NodeInfo| {
            let at = prev?.proj.nodes.iter().position(|n| n == node)?;
            prev?.conns[at].get().cloned().map(OnceLock::from)
        };
        let logs = 0..proj.num_logs() as u64;
        Self {
            conns: proj.nodes.iter().map(|n| carried(n).unwrap_or_default()).collect(),
            log_metrics: logs.map(|log| ClientLogMetrics::for_log(registry, log)).collect(),
            proj,
        }
    }
}

/// The error for a storage response `what` has no use for. A sealed
/// server's answer becomes [`CorfuError::Sealed`], the one `with_retry`
/// refreshes on; anything else is reported as it came.
pub(crate) fn storage_refusal(what: impl std::fmt::Display, resp: StorageResponse) -> CorfuError {
    match resp {
        StorageResponse::ErrSealed { epoch } => CorfuError::Sealed { server_epoch: epoch },
        other => CorfuError::Storage(format!("{what} failed: {other:?}")),
    }
}

/// [`storage_refusal`] for the sequencer's answers.
pub(crate) fn sequencer_refusal(what: &str, resp: SequencerResponse) -> CorfuError {
    match resp {
        SequencerResponse::ErrSealed { epoch } => CorfuError::Sealed { server_epoch: epoch },
        other => CorfuError::Codec(format!("unexpected {what} response {other:?}")),
    }
}

/// A CORFU client handle. Cheap to clone; safe to share across threads.
#[derive(Clone)]
pub struct CorfuClient {
    layout: LayoutClient,
    factory: Arc<dyn ConnFactory>,
    state: Arc<RwLock<Arc<View>>>,
    opts: ClientOptions,
    registry: Registry,
    metrics: ClientMetrics,
}

impl CorfuClient {
    /// Creates a client: fetches the projection from `layout`, connects to
    /// nodes via `factory`, and records into `registry` (pass
    /// [`Registry::disabled`] to turn instrumentation off).
    pub fn with_options_and_metrics(
        layout: LayoutClient,
        factory: Arc<dyn ConnFactory>,
        opts: ClientOptions,
        registry: Registry,
    ) -> Result<Self> {
        let state = Arc::new(View::new(Arc::new(layout.get()?), &registry, None));
        let metrics = ClientMetrics::from_registry(&registry);
        Ok(Self { layout, factory, state: Arc::new(RwLock::new(state)), opts, registry, metrics })
    }

    /// The metrics registry this client records into. Snapshot it to
    /// observe `corfu.client.*` (and, when the registry is shared with the
    /// servers and transport, the whole deployment).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Replaces the 1-in-16 gate that paces latency sampling *and* root
    /// trace spans. Tests pass `Sampler::one_in(1)` to trace every
    /// operation deterministically.
    pub fn set_sampling(&mut self, sampler: tango_metrics::Sampler) {
        self.metrics.sampler = sampler;
    }

    /// The clock the client's connections run on: its retry backoff and
    /// hole-fill waits take their time from it, and so may its callers'.
    pub fn clock(&self) -> Clock {
        self.factory.clock()
    }

    /// The layout the client is operating under: a shared handle, not a
    /// copy.
    pub fn projection(&self) -> Arc<Projection> {
        Arc::clone(&self.state.read().proj)
    }

    /// The epoch the client is operating at.
    pub fn epoch(&self) -> Epoch {
        self.state.read().proj.epoch
    }

    /// The installed view: what an operation starts from.
    pub(crate) fn view(&self) -> Arc<View> {
        Arc::clone(&self.state.read())
    }

    /// Re-fetches the projection from the layout service. Returns the new
    /// epoch.
    pub fn refresh_layout(&self) -> Result<Epoch> {
        Ok(self.refresh()?.proj.epoch)
    }

    /// Re-fetches the projection, installs a view of it if it is newer, and
    /// returns the installed view.
    fn refresh(&self) -> Result<Arc<View>> {
        let fresh = self.layout.get()?;
        let mut state = self.state.write();
        if fresh.epoch > state.proj.epoch {
            *state = Arc::new(View::new(Arc::new(fresh), &self.registry, Some(&state)));
        }
        Ok(Arc::clone(&state))
    }

    /// `view`'s connection to `node`, dialled on first use. No lock and no
    /// hashing: the address book of a view is a handful of entries.
    fn conn<'v>(&self, view: &'v View, node: NodeId) -> Result<&'v Arc<dyn ClientConn>> {
        let nodes = &view.proj.nodes;
        let at = nodes
            .iter()
            .position(|n| n.id == node)
            .ok_or_else(|| CorfuError::Layout(format!("node {node} not in projection")))?;
        Ok(view.conns[at].get_or_init(|| self.factory.connect(&nodes[at])))
    }

    /// One RPC to `node` over `view`'s connection: pre-encoded request
    /// bytes out, a decoded response back.
    fn call_raw<Resp: Decode>(&self, view: &View, node: NodeId, request: &[u8]) -> Result<Resp> {
        Ok(decode_from_slice(&self.conn(view, node)?.call(request)?)?)
    }

    fn call<Resp: Decode>(&self, view: &View, node: NodeId, req: &impl Encode) -> Result<Resp> {
        self.call_raw(view, node, &encode_to_vec(req))
    }

    /// A request to log `log`'s sequencer.
    pub(crate) fn sequencer_call(
        &self,
        view: &View,
        log: u32,
        req: &SequencerRequest,
    ) -> Result<SequencerResponse> {
        self.call(view, view.proj.sequencer_of(log), req)
    }

    /// The one log hosting every stream of `streams` (log 0 for none), or
    /// `None` when they span logs.
    fn single_log(proj: &Projection, streams: &[StreamId]) -> Option<u32> {
        let log = streams.first().map_or(0, |&s| proj.log_of_stream(s));
        streams.iter().all(|&s| proj.log_of_stream(s) == log).then_some(log)
    }

    /// Groups `streams` by their hosting log, ascending by log id, with
    /// each group preserving the input order.
    fn group_by_log(proj: &Projection, streams: &[StreamId]) -> Vec<(u32, Vec<StreamId>)> {
        let mut groups: Vec<(u32, Vec<StreamId>)> = Vec::new();
        for &s in streams {
            let log = proj.log_of_stream(s);
            match groups.iter_mut().find(|(l, _)| *l == log) {
                Some((_, g)) => g.push(s),
                None => groups.push((log, vec![s])),
            }
        }
        groups.sort_by_key(|&(l, _)| l);
        groups
    }

    /// A root trace span for the client operations the sampler selects.
    /// Misses (and disabled metrics) get an inert span that costs nothing.
    fn sampled_root(&self, kind: SpanKind) -> Span {
        if self.metrics.sampler.hit() {
            self.metrics.tracer.root_forced(kind)
        } else {
            Span::inert()
        }
    }

    /// Runs `op` on `view` with automatic projection refresh on
    /// `ErrSealed`: a refresh swaps `view` for the new one, which is what
    /// the operation's later steps see too. With `retry_rpc` it also
    /// refreshes and retries on transport failures. Used for sequencer
    /// operations: a dead sequencer is expected to be replaced by
    /// reconfiguration, so clients re-fetch the projection instead of giving
    /// up (§5 reports replacing a failed sequencer within 10ms).
    fn with_retry<T>(
        &self,
        what: &'static str,
        retry_rpc: bool,
        view: &mut Arc<View>,
        mut op: impl FnMut(&View) -> Result<T>,
    ) -> Result<T> {
        let mut last_rpc_error = None;
        for attempt in 0..MAX_EPOCH_RETRIES {
            match op(view) {
                Err(CorfuError::Sealed { .. }) => self.metrics.seal_retries.inc(),
                Err(CorfuError::Rpc(e)) if retry_rpc => last_rpc_error = Some(CorfuError::Rpc(e)),
                other => return other,
            }
            // Reconfiguration in progress: pick up the new projection (a
            // replaced sequencer is another node in it, so it gets dialled
            // afresh); back off briefly if it has not landed yet.
            let before = view.proj.epoch;
            *view = self.refresh()?;
            if view.proj.epoch == before && attempt > 0 {
                self.clock().sleep(Duration::from_millis(1 << attempt.min(6)));
            }
        }
        Err(last_rpc_error.unwrap_or(CorfuError::RetriesExhausted { what }))
    }

    /// Reserves the next log offset; `streams` become members of the entry
    /// and their backpointers are returned. All streams must live in the
    /// same log (the offset returned is that log's next composite offset);
    /// an empty stream set targets log 0.
    pub fn token(&self, streams: &[StreamId]) -> Result<Token> {
        self.routed(|view| {
            let log = streams.first().map_or(0, |&s| view.proj.log_of_stream(s));
            debug_assert_eq!(Self::single_log(&view.proj, streams), Some(log), "split per log");
            let routed = Some(view.proj.epoch);
            self.token_in_log(view, log, routed, streams, &[])
        })
    }

    /// Runs `op` on the installed view, and again on a fresh one each time
    /// it reports [`CorfuError::Rerouted`].
    fn routed<T>(&self, mut op: impl FnMut(&mut Arc<View>) -> Result<T>) -> Result<T> {
        for _ in 0..MAX_EPOCH_RETRIES {
            match op(&mut self.view()) {
                Err(CorfuError::Rerouted) => continue,
                other => return other,
            }
        }
        Err(CorfuError::Rerouted)
    }

    /// [`CorfuClient::token`] targeting an explicit log. With a non-empty
    /// `observe` (streams of the same log) the grant also reports their
    /// last-K offsets. `routed` is the epoch of the projection whose shard
    /// map chose `log` (`None`: the log is pinned): a retry on a newer one
    /// that homes `streams` or `observe` elsewhere is
    /// [`CorfuError::Rerouted`] — a grant here would fork the stream.
    fn token_in_log(
        &self,
        view: &mut Arc<View>,
        log: u32,
        routed: Option<Epoch>,
        streams: &[StreamId],
        observe: &[StreamId],
    ) -> Result<Token> {
        self.with_retry("token", true, view, |view| {
            let proj = &view.proj;
            if routed.is_some_and(|epoch| epoch != proj.epoch)
                && streams.iter().chain(observe).any(|&s| proj.log_of_stream(s) != log)
            {
                return Err(CorfuError::Rerouted);
            }
            let epoch = view.proj.epoch_of_log(log);
            let streams = streams.to_vec();
            let req = if observe.is_empty() {
                SequencerRequest::Next { epoch, streams }
            } else {
                SequencerRequest::NextObserve { epoch, streams, observe: observe.to_vec() }
            };
            match self.sequencer_call(view, log, &req)? {
                SequencerResponse::Token { offset, backpointers, observed }
                    if observed.len() == observe.len() =>
                {
                    self.metrics.tokens.inc();
                    Ok(Token { offset: compose(log, offset), backpointers, observed })
                }
                other => Err(sequencer_refusal("token", other)),
            }
        })
    }

    /// Queries the log tail and last-K offsets for `streams` without
    /// reserving anything — the fast check (§2.2) and the stream-sync
    /// primitive (§5). With a sharded projection the query fans out to
    /// every log hosting one of `streams` (one round trip per log) and the
    /// reported tail is the *highest composite tail* across them; because
    /// any offset of a lower log orders below every offset of a higher
    /// one, that single value upper-bounds every offset the backpointers
    /// can name.
    pub fn tail_info(&self, streams: &[StreamId]) -> Result<(LogOffset, Vec<Vec<LogOffset>>)> {
        let mut view = self.view();
        if let Some(log) = Self::single_log(&view.proj, streams) {
            let (tail, backs) = self.tail_info_log(&mut view, log, streams)?;
            return Ok((compose(log, tail), backs));
        }
        let mut tail = 0;
        let mut by_stream: HashMap<StreamId, Vec<LogOffset>> = HashMap::new();
        for (log, group) in &Self::group_by_log(&view.proj, streams) {
            let (log_tail, backs) = self.tail_info_log(&mut view, *log, group)?;
            tail = tail.max(compose(*log, log_tail));
            for (&s, b) in group.iter().zip(backs) {
                by_stream.insert(s, b);
            }
        }
        let backpointers =
            streams.iter().map(|s| by_stream.remove(s).unwrap_or_default()).collect();
        Ok((tail, backpointers))
    }

    /// One log's tail (raw) + backpointers for a stream subset of that log.
    fn tail_info_log(
        &self,
        view: &mut Arc<View>,
        log: u32,
        streams: &[StreamId],
    ) -> Result<(LogOffset, Vec<Vec<LogOffset>>)> {
        self.with_retry("tail_info", true, view, |view| {
            let epoch = view.proj.epoch_of_log(log);
            let req = SequencerRequest::Query { epoch, streams: streams.to_vec() };
            match self.sequencer_call(view, log, &req)? {
                SequencerResponse::TailInfo { tail, backpointers } => {
                    self.metrics.tail_queries.inc();
                    Ok((tail, backpointers))
                }
                other => Err(sequencer_refusal("query", other)),
            }
        })
    }

    /// The fast tail check: one round trip to log 0's sequencer (plus one
    /// per additional log in a sharded deployment). Returns the highest
    /// composite tail.
    pub fn check_tail_fast(&self) -> Result<LogOffset> {
        let mut view = self.view();
        let mut tail = 0;
        for log in 0..view.proj.num_logs() {
            tail = tail.max(compose(log, self.tail_info_log(&mut view, log, &[])?.0));
        }
        Ok(tail)
    }

    /// The raw tail of one log, from its sequencer.
    pub fn log_tail_fast(&self, log: u32) -> Result<LogOffset> {
        Ok(self.tail_info_log(&mut self.view(), log, &[])?.0)
    }

    /// The slow tail check: query every storage node's local tail and invert
    /// the mapping (used when the sequencer is unavailable). Returns the
    /// highest composite tail across logs.
    pub fn check_tail_slow(&self) -> Result<LogOffset> {
        self.with_retry("check_tail_slow", false, &mut self.view(), |view| {
            let proj = &view.proj;
            let mut tail = 0;
            for log in 0..proj.num_logs() {
                let layout = proj.log(log);
                let epoch = layout.epoch;
                let mut local_tails = vec![0u64; layout.replica_sets.len()];
                for (set_idx, set) in layout.replica_sets.iter().enumerate() {
                    for &node in set {
                        match self.call(view, node, &StorageRequest::LocalTail { epoch })? {
                            StorageResponse::Tail(t) => {
                                local_tails[set_idx] = local_tails[set_idx].max(t)
                            }
                            other => return Err(storage_refusal("local tail", other)),
                        }
                    }
                }
                tail = tail.max(compose(log, layout.tail_from_local(&local_tails)));
            }
            Ok(tail)
        })
    }

    /// Writes pre-encoded entry bytes at a reserved offset via chain
    /// replication. Fails with [`CorfuError::TokenLost`] if another client
    /// consumed the slot.
    pub fn write_at(&self, offset: LogOffset, body: &[u8]) -> Result<()> {
        let mut framed = [&[0; WRITE_HEAD_MAX][..], body].concat();
        self.chain_write(&mut self.view(), offset, &mut framed)
    }

    /// Chain-writes at `offset` the entry bytes that `framed` holds behind
    /// [`WRITE_HEAD_MAX`] spare ones. The write request is framed in that
    /// spare room, once, and every hop of the chain is sent the same bytes.
    fn chain_write(
        &self,
        view: &mut Arc<View>,
        offset: LogOffset,
        framed: &mut [u8],
    ) -> Result<()> {
        let body_len = framed.len() - WRITE_HEAD_MAX;
        self.with_retry("write_at", false, view, |view| {
            let proj = &view.proj;
            let epoch = proj.epoch_of_log(log_of_offset(offset));
            let (_, local) = proj.map(offset);
            let request = WriteRef::stamp(framed, epoch, local, WriteKind::Data);
            for (pos, &node) in proj.chain_for(offset).iter().enumerate() {
                match self.call_raw(view, node, request)? {
                    StorageResponse::Ok => {}
                    StorageResponse::ErrAlreadyWritten if pos == 0 => {
                        // The head arbitrates: someone else (a hole filler)
                        // owns this offset now.
                        return Err(CorfuError::TokenLost { offset });
                    }
                    StorageResponse::ErrAlreadyWritten => {
                        // A repairing reader raced us past the head; the
                        // value is ours either way (head-first ordering).
                    }
                    StorageResponse::ErrTrimmed => return Err(CorfuError::Trimmed { offset }),
                    StorageResponse::ErrTooLarge { max } => {
                        return Err(CorfuError::EntryTooLarge { len: body_len, max: max as usize })
                    }
                    other => return Err(storage_refusal(format_args!("write at {offset}"), other)),
                }
            }
            Ok(())
        })
    }

    /// Appends a raw payload (no stream membership) and returns its offset.
    pub fn append(&self, payload: Bytes) -> Result<LogOffset> {
        self.append_streams(&[], payload).map(|(off, _)| off)
    }

    /// Appends a payload to `streams` (the `multiappend` of §4): acquires a
    /// token, builds the entry envelope with backpointer headers, and chain-
    /// writes it. Retries with a fresh token if the slot was stolen by a
    /// hole fill.
    ///
    /// When `streams` spans more than one log of a sharded projection the
    /// append becomes a *cross-log multiappend*: one entry per participating
    /// log, all carrying the same [`CrossLogLink`], with the lowest log's
    /// entry written last as the atomic commit anchor (see
    /// `CorfuClient::append_cross_log`). The returned offset is the
    /// anchor's.
    pub fn append_streams(
        &self,
        streams: &[StreamId],
        payload: Bytes,
    ) -> Result<(LogOffset, EntryEnvelope)> {
        self.timed_append(|| {
            self.routed(|view| match Self::single_log(&view.proj, streams) {
                Some(log) => {
                    let routed = Some(view.proj.epoch);
                    self.append_in_log(view, log, routed, streams, &[], &payload)
                        .map(|(off, envelope, _)| (off, envelope))
                }
                None => {
                    let groups = Self::group_by_log(&view.proj, streams);
                    self.append_cross_log(view, &groups, &payload)
                }
            })
        })
    }

    /// Runs one append under the client's sampling decision, which covers
    /// both the latency timer and the trace: a sampled append gets a root
    /// span whose context rides in every RPC it makes (token grant, chain
    /// writes), so the servers' child spans land in the same trace.
    fn timed_append<T>(&self, append: impl FnOnce() -> Result<T>) -> Result<T> {
        // One sampling decision, spent on both observations: the latency
        // timer and the root trace span.
        let (timer, _span) = if self.metrics.sampler.hit() {
            let span = self.metrics.tracer.root_forced(SpanKind::ClientAppend);
            (self.metrics.append_latency_ns.start(), span)
        } else {
            (Timer::inert(), Span::inert())
        };
        let result = append();
        match result.is_ok() {
            true => timer.stop(),
            false => timer.discard(),
        }
        result
    }

    /// [`CorfuClient::append_streams`] whose token grant also observes
    /// `observe` (streams the entry does *not* join): the third result is,
    /// per observed stream in input order, its last-K offsets as of the
    /// grant — what [`CorfuClient::tail_info`] would have answered at that
    /// instant, without the second sequencer call. It is `None` when the
    /// append has no such observation and the caller must ask: a cross-log
    /// append, or an observed stream homed in another log than the entry (a
    /// log's sequencer knows nothing of streams homed elsewhere).
    pub fn append_streams_observing(
        &self,
        streams: &[StreamId],
        observe: &[StreamId],
        payload: Bytes,
    ) -> Result<(LogOffset, EntryEnvelope, Option<StreamWindows>)> {
        let routed = self.routed(|view| {
            let proj = &view.proj;
            let log = Self::single_log(proj, streams)
                .filter(|&log| observe.iter().all(|&s| proj.log_of_stream(s) == log));
            let Some(log) = log else { return Ok(None) };
            let routed = Some(proj.epoch);
            self.timed_append(|| self.append_in_log(view, log, routed, streams, observe, &payload))
                .map(|(off, envelope, observed)| Some((off, envelope, Some(observed))))
        })?;
        match routed {
            Some(appended) => Ok(appended),
            None => {
                self.append_streams(streams, payload).map(|(off, envelope)| (off, envelope, None))
            }
        }
    }

    /// Appends to `streams` forcing the entry into log `log`, bypassing the
    /// shard map. Reconfiguration uses this to pin sequencer-state
    /// checkpoints into the log whose recovery scan must find them.
    pub(crate) fn append_streams_in_log(
        &self,
        log: u32,
        streams: &[StreamId],
        payload: Bytes,
    ) -> Result<(LogOffset, EntryEnvelope)> {
        self.append_in_log(&mut self.view(), log, None, streams, &[], &payload)
            .map(|(off, envelope, _)| (off, envelope))
    }

    /// One token-acquire/chain-write attempt loop confined to a single log.
    /// Returns [`CorfuError::TokenLost`] to the *caller* only via retry
    /// exhaustion — individual lost tokens retry here.
    fn append_in_log(
        &self,
        view: &mut Arc<View>,
        log: u32,
        routed: Option<Epoch>,
        streams: &[StreamId],
        observe: &[StreamId],
        payload: &Bytes,
    ) -> Result<(LogOffset, EntryEnvelope, StreamWindows)> {
        for _ in 0..MAX_TOKEN_RETRIES {
            let Token { offset, backpointers, observed } =
                self.token_in_log(view, log, routed, streams, observe)?;
            let headers = streams
                .iter()
                .zip(backpointers)
                .map(|(&stream, backpointers)| StreamHeader { stream, backpointers })
                .collect();
            let envelope = EntryEnvelope { headers, payload: payload.clone(), link: None };
            let mut framed = envelope.encode_after(WRITE_HEAD_MAX, offset)?;
            match self.chain_write(view, offset, &mut framed) {
                Ok(()) => {
                    view.log_metrics[log as usize].appends.inc();
                    return Ok((offset, envelope, observed));
                }
                Err(CorfuError::TokenLost { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(CorfuError::RetriesExhausted { what: "append" })
    }

    /// The cross-log multiappend (§4's OCC machinery applied across logs).
    ///
    /// Protocol — the *home anchor*: with stream groups sorted ascending by
    /// log id, (1) reserve one token in every participating log; (2) build
    /// a [`CrossLogLink`] naming every reserved offset, with `home` = the
    /// lowest log's offset; (3) write the non-home bodies first (each
    /// carries the full payload, its own log's stream headers, and the
    /// link); (4) write the home entry *last*. The home write is the atomic
    /// decision: write-once storage accepts it exactly once, so the
    /// multiappend committed iff the home slot holds a data entry with this
    /// link. If any write loses its token (hole-filled by a racing reader),
    /// the whole attempt restarts with fresh tokens everywhere — the
    /// stranded bodies of the failed attempt resolve as aborted because
    /// their home slot can never acquire the matching link.
    fn append_cross_log(
        &self,
        view: &mut Arc<View>,
        groups: &[(u32, Vec<StreamId>)],
        payload: &Bytes,
    ) -> Result<(LogOffset, EntryEnvelope)> {
        let routed = Some(view.proj.epoch);
        'attempt: for _ in 0..MAX_TOKEN_RETRIES {
            // (1) One token per participating log, ascending log order.
            let mut tokens = Vec::with_capacity(groups.len());
            for (log, streams) in groups {
                tokens.push(self.token_in_log(view, *log, routed, streams, &[])?);
            }
            // (2) The link every part carries.
            let mut parts: Vec<LogOffset> = tokens.iter().map(|t| t.offset).collect();
            parts.sort_unstable();
            let home = parts[0];
            let link = CrossLogLink { home, parts };
            // (3) Non-home bodies first, (4) home anchor last. Each part
            // gets its own child span under the append's root trace, so a
            // sampled multiappend shows up as one trace whose children
            // cover every participating log.
            let home_log = log_of_offset(home);
            let mut anchor = None;
            for pass in [false, true] {
                for ((log, streams), token) in groups.iter().zip(&tokens) {
                    if (token.offset == home) != pass {
                        continue;
                    }
                    let part_span = self.metrics.tracer.child(SpanKind::ClientAppend);
                    let headers = streams
                        .iter()
                        .zip(token.backpointers.iter())
                        .map(|(&stream, backs)| StreamHeader {
                            stream,
                            backpointers: backs.clone(),
                        })
                        .collect();
                    let envelope = EntryEnvelope {
                        headers,
                        payload: payload.clone(),
                        link: Some(link.clone()),
                    };
                    let mut framed = envelope.encode_after(WRITE_HEAD_MAX, token.offset)?;
                    match self.chain_write(view, token.offset, &mut framed) {
                        Ok(()) => {
                            drop(part_span);
                            view.log_metrics[*log as usize].appends.inc();
                            if pass {
                                anchor = Some(envelope);
                            }
                        }
                        Err(CorfuError::TokenLost { .. }) => {
                            // This attempt can no longer commit: its home
                            // slot will hold junk or a foreign entry, so any
                            // bodies already written resolve aborted. Start
                            // over with fresh tokens in every log.
                            self.metrics.events.emit(
                                tango_metrics::EventKind::CrossLogDecision,
                                view.proj.epoch_of_log(home_log),
                                home_log as u64,
                                0,
                            );
                            continue 'attempt;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            // The home write landed: the multiappend is committed.
            self.metrics.events.emit(
                tango_metrics::EventKind::CrossLogDecision,
                view.proj.epoch_of_log(home_log),
                home_log as u64,
                1,
            );
            return Ok((home, anchor.expect("home group written on pass 2")));
        }
        Err(CorfuError::RetriesExhausted { what: "append" })
    }

    /// Reads the value at `offset` from the chain tail, repairing
    /// half-completed chain writes by propagating the head's value forward.
    pub fn read(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        let _span = self.sampled_root(SpanKind::ClientRead);
        self.with_retry("read", false, &mut self.view(), |view| {
            self.read_with(view, &view.proj, offset)
        })
    }

    /// Reads `offset` over `view`'s connections using an explicit projection
    /// (and thus epoch), which an operation takes from `view` itself.
    /// Reconfiguration passes another: it scans the log at the new epoch
    /// before the projection is published.
    pub(crate) fn read_with(
        &self,
        view: &View,
        proj: &Projection,
        offset: LogOffset,
    ) -> Result<Page<Bytes>> {
        let epoch = proj.epoch_of_log(log_of_offset(offset));
        let (_, local) = proj.map(offset);
        let chain = proj.chain_for(offset);
        let tail = *chain.last().expect("non-empty chain");
        match self.call(view, tail, &StorageRequest::Read { epoch, addr: local })? {
            StorageResponse::Page(Page::Unwritten) if chain.len() > 1 => {
                self.repair_chain(view, proj, offset)
            }
            StorageResponse::Page(page) => Ok(page),
            other => Err(storage_refusal(format_args!("read at {offset}"), other)),
        }
    }

    /// Reads and decodes the entry envelope at `offset`.
    pub fn read_entry(&self, offset: LogOffset) -> Result<EntryEnvelope> {
        match self.read(offset)? {
            Page::Data(bytes) => EntryEnvelope::decode(&bytes, offset),
            Page::Junk => Err(CorfuError::Storage(format!("offset {offset} holds junk"))),
            Page::Unwritten => Err(CorfuError::Unwritten { offset }),
            Page::Trimmed => Err(CorfuError::Trimmed { offset }),
        }
    }

    /// Completes a chain whose tail is missing the value: reads the head
    /// and pushes its value (data or junk) down the chain. Returns the
    /// authoritative value, or `Unwritten` if the head has nothing.
    fn repair_chain(
        &self,
        view: &View,
        proj: &Projection,
        offset: LogOffset,
    ) -> Result<Page<Bytes>> {
        let epoch = proj.epoch_of_log(log_of_offset(offset));
        let (_, local) = proj.map(offset);
        let chain = proj.chain_for(offset);
        let head = chain[0];
        let page = match self.call(view, head, &StorageRequest::Read { epoch, addr: local })? {
            StorageResponse::Page(page) => page,
            other => return Err(storage_refusal(format_args!("repair read at {offset}"), other)),
        };
        let (kind, payload) = match &page {
            Page::Data(bytes) => (WriteKind::Data, bytes.clone()),
            Page::Junk => (WriteKind::Junk, Bytes::new()),
            Page::Unwritten | Page::Trimmed => return Ok(page),
        };
        let write = StorageRequest::Write { epoch, addr: local, kind, payload };
        let what = format_args!("repair write at {offset}");
        if !self.write_past_head(view, chain, &encode_to_vec(&write), what)? {
            return Ok(Page::Trimmed);
        }
        Ok(page)
    }

    /// Sends `request`, a write whose value `chain`'s head already holds, to
    /// every node past the head: the rest of a hole fill or a chain repair.
    /// A node that has the value already is as good as one that takes it.
    /// `false`: a prefix trim overtook the writes and the offset is gone.
    fn write_past_head(
        &self,
        view: &View,
        chain: &[NodeId],
        request: &[u8],
        what: impl std::fmt::Display,
    ) -> Result<bool> {
        for &node in &chain[1..] {
            match self.call_raw(view, node, request)? {
                StorageResponse::Ok | StorageResponse::ErrAlreadyWritten => {}
                StorageResponse::ErrTrimmed => return Ok(false),
                other => return Err(storage_refusal(what, other)),
            }
        }
        Ok(true)
    }

    /// Patches the hole at `offset` with junk (§3.2). If a writer got there
    /// first, completes and returns the existing value instead.
    pub fn fill(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        // The backlog gauge brackets the whole chase, retries included —
        // the health plane reads a sustained non-zero value as readers
        // stuck behind slow or dead writers.
        self.metrics.hole_backlog.add(1);
        let result = self.with_retry("fill", false, &mut self.view(), |view| {
            self.fill_with(view, &view.proj, offset)
        });
        self.metrics.hole_backlog.add(-1);
        result
    }

    /// [`CorfuClient::fill`] over `view`'s connections at an explicit
    /// projection's epoch, the way [`CorfuClient::read_with`] reads: the
    /// recovery scan patches the holes it meets at the epoch it is about to
    /// install (a client crashed mid-append; the scan cannot wait).
    pub(crate) fn fill_with(
        &self,
        view: &View,
        proj: &Projection,
        offset: LogOffset,
    ) -> Result<Page<Bytes>> {
        let log = log_of_offset(offset);
        let epoch = proj.epoch_of_log(log);
        let (_, local) = proj.map(offset);
        let chain = proj.chain_for(offset);
        // One request, head to tail, as for a data write.
        let request = encode_to_vec(&StorageRequest::Write {
            epoch,
            addr: local,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        });
        match self.call_raw(view, chain[0], &request)? {
            StorageResponse::Ok => {
                self.metrics.junk_forced.inc();
                self.metrics.events.emit(
                    tango_metrics::EventKind::JunkForced,
                    epoch,
                    log as u64,
                    local,
                );
                let what = format_args!("fill at {offset}");
                Ok(match self.write_past_head(view, chain, &request, what)? {
                    true => Page::Junk,
                    false => Page::Trimmed,
                })
            }
            StorageResponse::ErrAlreadyWritten => {
                // A writer won; complete its chain and return the value.
                self.metrics.events.emit(
                    tango_metrics::EventKind::HoleFilled,
                    epoch,
                    log as u64,
                    local,
                );
                if chain.len() == 1 {
                    self.read_with(view, proj, offset)
                } else {
                    self.repair_chain(view, proj, offset)
                }
            }
            StorageResponse::ErrTrimmed => Ok(Page::Trimmed),
            other => Err(storage_refusal(format_args!("fill at {offset}"), other)),
        }
    }

    /// [`CorfuClient::wait_read_many`] of one offset.
    pub fn wait_read(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        Ok(self.wait_read_many(&[offset])?.pop().expect("one outcome per offset"))
    }

    /// Reads a batch of offsets in bulk: offsets are grouped by replica
    /// set, each group goes out as (at most `MAX_READ_BATCH`-sized)
    /// `ReadBatch` requests to the chain tails — all of them started before
    /// any is awaited, so they are in flight together — and the per-offset
    /// outcomes are stitched back in input order.
    ///
    /// Like [`CorfuClient::read`], a tail-side `Unwritten` on a replicated
    /// chain is resolved through chain repair before being reported, so an
    /// `Unwritten` result really means no writer has reached the head.
    pub fn read_many(&self, offsets: &[LogOffset]) -> Result<Vec<Page<Bytes>>> {
        self.collect_many(offsets, false)
    }

    /// [`CorfuClient::read_many`] that waits for in-flight writers and
    /// finally patches what is still a hole after `hole_fill_timeout` with
    /// junk (§3.2), so the result never contains `Unwritten`. The offsets
    /// that come back `Unwritten` share one deadline: they are re-read
    /// together, and a reader behind K abandoned tokens waits one timeout,
    /// not K.
    ///
    /// Each poll is a bulk read of what is still unwritten, so polling
    /// backs off exponentially (1 ms doubling to 16 ms) instead of hammering
    /// the tails at a fixed interval.
    pub fn wait_read_many(&self, offsets: &[LogOffset]) -> Result<Vec<Page<Bytes>>> {
        self.collect_many(offsets, true)
    }

    /// [`CorfuClient::visit_many`] with a copy of every page kept.
    fn collect_many(&self, offsets: &[LogOffset], wait: bool) -> Result<Vec<Page<Bytes>>> {
        let mut out = vec![Page::Unwritten; offsets.len()];
        self.visit_many(offsets, wait, None, &mut |index, _, page, _| {
            out[index.expect("no chase, so only what was asked for")] = page.to_owned();
            Ok(())
        })?;
        Ok(out)
    }

    /// The bulk read every other one is made of: reads `offsets` as
    /// [`CorfuClient::read_many`] does — or, with `wait`, as
    /// [`CorfuClient::wait_read_many`] does — and shows `visit` each page
    /// where it lies in the storage node's reply, so a reader that decodes
    /// what it reads copies nothing it does not keep. Every offset is
    /// visited exactly once, in no particular order; an error from `visit`
    /// ends the read and is returned.
    ///
    /// With a `chase` the reader is walking `chase.stream` backward from
    /// `offsets`: the storage nodes go on reading where the stream's
    /// backpointers lead on their own pages, and the entries they find are
    /// visited too — the reader's next strides, in this round trip. Only
    /// `offsets` are waited for, repaired or filled; of the rest, an offset
    /// that holds no data is simply not mentioned.
    pub fn visit_many(
        &self,
        offsets: &[LogOffset],
        wait: bool,
        chase: Option<&Chase<'_>>,
        visit: &mut PageVisitor<'_>,
    ) -> Result<()> {
        if !wait {
            return self.visit_bulk(offsets, chase, visit);
        }
        // Input positions of the offsets still unwritten.
        let mut holes: Vec<usize> = Vec::new();
        self.visit_bulk(offsets, chase, &mut |index, offset, page, reply| match (index, page) {
            (Some(i), Page::Unwritten) => {
                holes.push(i);
                Ok(())
            }
            _ => visit(index, offset, page, reply),
        })?;
        if holes.is_empty() {
            return Ok(());
        }
        let clock = self.clock();
        let deadline = clock.now() + self.opts.hole_fill_timeout;
        let mut backoff = HOLE_POLL_INTERVAL;
        while !holes.is_empty() {
            let now = clock.now();
            if now >= deadline {
                for &i in &holes {
                    let filled = self.fill(offsets[i])?;
                    visit(Some(i), offsets[i], filled.lent(), reply_of(&filled))?;
                }
                break;
            }
            self.metrics.hole_polls.inc();
            clock.sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(HOLE_POLL_MAX);
            let unwritten: Vec<LogOffset> = holes.iter().map(|&i| offsets[i]).collect();
            let mut still = Vec::new();
            self.visit_bulk(&unwritten, None, &mut |index, offset, page, reply| {
                let i = holes[index.expect("no chase, so only what was asked for")];
                match page {
                    Page::Unwritten => still.push(i),
                    page => visit(Some(i), offset, page, reply)?,
                }
                Ok(())
            })?;
            holes = still;
        }
        Ok(())
    }

    /// One bulk read as an operation: sampled, and retried across a seal.
    /// A retry repeats round trips, never a visit: the replies are all in
    /// hand before the first page is shown.
    fn visit_bulk(
        &self,
        offsets: &[LogOffset],
        chase: Option<&Chase<'_>>,
        visit: &mut PageVisitor<'_>,
    ) -> Result<()> {
        if offsets.is_empty() {
            return Ok(());
        }
        let _span = self.sampled_root(SpanKind::ClientRead);
        let mut view = self.view();
        let replies = self.with_retry("read_many", false, &mut view, |view| {
            self.bulk_replies(view, offsets, chase)
        })?;
        // The layout the replies were asked under.
        let proj = Arc::clone(&view.proj);
        // A tail that answered Unwritten on a replicated chain may be
        // lagging a half-finished chain write; those few stragglers are
        // resolved through the repair path before they are reported.
        let mut stragglers: Vec<usize> = Vec::new();
        for BulkReply { set, asked, reply } in &replies {
            let mut pages = Pages::peek(reply).expect("bulk_replies keeps nothing else")?;
            if pages.len() < asked.len() || (!pages.addressed() && pages.len() > asked.len()) {
                return Err(CorfuError::Codec(format!(
                    "batch answered {} of {} addrs",
                    pages.len(),
                    asked.len()
                )));
            }
            for (&(idx, _), page) in asked.iter().zip(pages.by_ref()) {
                match page?.1 {
                    Page::Unwritten if proj.chain_for(offsets[idx]).len() > 1 => {
                        stragglers.push(idx)
                    }
                    page => visit(Some(idx), offsets[idx], page, reply)?,
                }
            }
            // Only what a page the node chose to read holds is of use; what
            // it does not hold is the business of whoever asks for it.
            for page in pages {
                if let (Some(local), Page::Data(bytes)) = page? {
                    visit(None, proj.unmap(*set, local), Page::Data(bytes), reply)?;
                }
            }
        }
        for idx in stragglers {
            let repaired = self.with_retry("read_many", false, &mut view, |view| {
                self.repair_chain(view, &view.proj, offsets[idx])
            })?;
            visit(Some(idx), offsets[idx], repaired.lent(), reply_of(&repaired))?;
        }
        Ok(())
    }

    /// The round trips of a bulk read. With a `chase` each group's request
    /// is a `ReadChase`, whose reply also holds the data pages the tail read
    /// beyond `offsets`; grouping does not know the difference.
    fn bulk_replies(
        &self,
        view: &View,
        offsets: &[LogOffset],
        chase: Option<&Chase<'_>>,
    ) -> Result<Vec<BulkReply>> {
        let proj = &*view.proj;
        // Group offsets by (global) replica set, remembering where each one
        // sits in the input so outcomes can be stitched back in order.
        let mut groups: Vec<Vec<(usize, u64)>> = vec![Vec::new(); proj.num_sets() as usize];
        for (idx, &off) in offsets.iter().enumerate() {
            let (set, local) = proj.map(off);
            groups[set].push((idx, local));
        }
        // Start one request per chunk of each group, stamped with the epoch
        // of the log owning the set, at the chain tail as in the
        // single-offset path. Nothing is awaited until all are on the wire.
        let mut started = Vec::new();
        for (set, group) in groups.iter().enumerate().filter(|(_, group)| !group.is_empty()) {
            let conn = self.conn(view, *proj.replica_set(set).last().expect("non-empty chain"))?;
            let log = proj.log_of_set(set);
            let layout = proj.log(log);
            let epoch = layout.epoch;
            for asked in group.chunks(crate::storage::MAX_READ_BATCH) {
                self.metrics.read_batches.inc();
                let addrs = asked.iter().map(|&(_, local)| local).collect();
                let request = encode_to_vec(&match chase {
                    None => StorageRequest::ReadBatch { epoch, addrs },
                    Some(chase) => StorageRequest::ReadChase {
                        epoch,
                        addrs,
                        stream: chase.stream,
                        stripe: layout.num_sets() as u32,
                        floor: proj.local_trim_horizon_in_log(
                            log,
                            set - proj.set_base(log),
                            (chase.floor)(log),
                        ),
                        limit: chase.limit as u32,
                    },
                });
                started.push((set, conn, conn.start(&request), asked));
            }
        }
        // An error drops the tickets behind it, which abandons their calls.
        let mut replies = Vec::with_capacity(started.len());
        for (set, conn, ticket, asked) in started {
            // Bytes once per round trip: the entries a reader keeps of the
            // reply share it.
            let reply = Bytes::from(conn.finish(ticket)?);
            if Pages::peek(&reply).is_none() {
                return Err(storage_refusal("batch read", decode_from_slice(&reply)?));
            }
            replies.push(BulkReply { set, asked: asked.to_vec(), reply });
        }
        Ok(replies)
    }

    /// Trims a single offset, marking it garbage-collectable.
    ///
    /// Random (per-address) trims are the expensive kind for flash — they
    /// punch holes that only a later sequential prefix trim reclaims — so
    /// the storage nodes count them apart (`corfu.storage.random_trims`)
    /// from the [`CorfuClient::trim_prefix`] path.
    pub fn trim(&self, offset: LogOffset) -> Result<()> {
        self.with_retry("trim", false, &mut self.view(), |view| {
            let proj = &view.proj;
            let epoch = proj.epoch_of_log(log_of_offset(offset));
            let (_, local) = proj.map(offset);
            for &node in proj.chain_for(offset) {
                match self.call(view, node, &StorageRequest::Trim { epoch, addr: local })? {
                    StorageResponse::Ok => {}
                    other => return Err(storage_refusal(format_args!("trim at {offset}"), other)),
                }
            }
            Ok(())
        })
    }

    /// Trims every offset below `horizon` *within the horizon's own log*
    /// (sequential trim across that log's replica sets). With a composite
    /// horizon in log L only log L is trimmed; other logs keep their own
    /// horizons — callers garbage-collect per log.
    pub fn trim_prefix(&self, horizon: LogOffset) -> Result<()> {
        let log = log_of_offset(horizon);
        self.with_retry("trim_prefix", false, &mut self.view(), |view| {
            let proj = &view.proj;
            let layout = proj.log(log);
            let epoch = layout.epoch;
            for (set_idx, set) in layout.replica_sets.iter().enumerate() {
                let local_horizon = proj.local_trim_horizon_in_log(log, set_idx, horizon);
                for &node in set {
                    let req = StorageRequest::TrimPrefix { epoch, horizon: local_horizon };
                    match self.call(view, node, &req)? {
                        StorageResponse::Ok => {}
                        other => return Err(storage_refusal("trim_prefix", other)),
                    }
                }
            }
            Ok(())
        })
    }

    /// The layout client, for reconfiguration tooling.
    pub fn layout(&self) -> &LayoutClient {
        &self.layout
    }

    /// The connection factory (used by reconfiguration to reach nodes that
    /// are not yet part of the installed projection).
    pub(crate) fn factory(&self) -> &Arc<dyn ConnFactory> {
        &self.factory
    }

    /// The client options in effect.
    pub fn options(&self) -> &ClientOptions {
        &self.opts
    }
}
