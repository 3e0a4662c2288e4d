//! Seal-based reconfiguration (§5, "Failure Handling"), per log.
//!
//! The streaming extension makes the sequencer a first-class member of the
//! projection: because it is the single source of backpointers for its log,
//! the system can no longer tolerate multiple live sequencers per log, so
//! every membership change — and every fencing barrier — moves *that log* to
//! a new epoch, by one procedure:
//!
//! 1. **seal** ([`seal`]): move every storage node of the log, any node about
//!    to join it, and its sequencer to the log's next epoch. This fences
//!    every operation stamped with the old epoch (stale-epoch writes are
//!    rejected) and yields the per-replica-set local tails, which invert to
//!    the log's tail (the slow check);
//! 2. **change the projection**: whatever the caller is there to do, at the
//!    new epoch, against nodes no client can reach yet;
//! 3. **install** ([`install`]): propose the new projection to the layout
//!    service (epoch CAS — a concurrent reconfigurer loses cleanly).
//!
//! The five public procedures differ only in step 2:
//!
//! | procedure | changes |
//! |---|---|
//! | [`replace_sequencer_in_log`] | the sequencer: backward scan of the log for each stream's last `k` offsets, `Bootstrap` of the replacement |
//! | [`replace_storage_node`] | one replica: `CopyRange` stream from the head-most survivor of each chain onto the replacement, spliced in |
//! | [`seal_log`] | nothing (a fencing barrier for one log) |
//! | [`bump_epoch`] | nothing, for every log, under one install |
//! | [`remap_stream`] | the shard map: source and target log sealed, the stream's backpointer window handed over by `AdoptStream` |
//!
//! With a sharded projection only the affected logs are sealed: other logs
//! keep their epochs and their sequencers stay live. Clients racing the
//! reconfiguration of a sealed log observe `ErrSealed`, refresh their
//! projection, and retry.
//!
//! Concurrent reconfigurations converge, and one that died half-way does not
//! wedge the log: a node that answers `ErrSealed` at *exactly* the target
//! epoch has had that step done — by a twin, or by a predecessor that sealed
//! and never installed — so the step counts as done and the procedure goes
//! on (the work in step 2 is idempotent: write-once arbitration makes a
//! second copy harmless, a sequencer is bootstrapped into an epoch once).
//! The layout CAS picks exactly one winner. A node *beyond* the target, or a
//! lost CAS, is [`CorfuError::RaceLost`] carrying the winning epoch,
//! distinguishing "someone else finished the job" from a real layout
//! failure.

use std::collections::HashMap;
use std::sync::Arc;

use tango_metrics::EventKind;
use tango_rpc::ClientConn;
use tango_wire::{decode_from_slice, encode_to_vec, Decode, Encode};

use crate::client::{sequencer_refusal, storage_refusal, CorfuClient, ReadOutcome};
use crate::entry::EntryEnvelope;
use crate::metrics::ReconfigMetrics;
use crate::proto::{
    PageCopy, SequencerRequest, SequencerResponse, StorageRequest, StorageResponse, WriteKind,
};
use crate::sequencer::SequencerState;
use crate::{
    compose, CorfuError, Epoch, LogOffset, NodeId, NodeInfo, Projection, Result, StreamId,
};

/// A node called by address. Reconfiguration talks to nodes the installed
/// projection does not carry yet (a replacement before its install) and to
/// ones it is about to drop (a dead sequencer), so it dials every node by
/// its [`NodeInfo`] rather than through a client's view of one projection.
struct Node {
    id: NodeId,
    conn: Arc<dyn ClientConn>,
}

impl Node {
    fn dial(client: &CorfuClient, info: &NodeInfo) -> Self {
        Self { id: info.id, conn: client.factory().connect(info) }
    }

    /// Dials `id`, a member of `proj`.
    fn member(client: &CorfuClient, proj: &Projection, id: NodeId) -> Result<Self> {
        let addr = proj
            .addr_of(id)
            .ok_or_else(|| CorfuError::Layout(format!("node {id} missing from projection")))?;
        Ok(Self::dial(client, &NodeInfo { id, addr: addr.to_owned() }))
    }

    fn call<Resp: Decode>(&self, req: &impl Encode) -> Result<Resp> {
        Ok(decode_from_slice(&self.conn.call(&encode_to_vec(req))?)?)
    }
}

/// The one answer to "this node is already sealed". At exactly `target` the
/// step has been done — by a twin running the same step, or by a
/// predecessor that sealed and died before its install — and the caller goes
/// on; the layout CAS arbitrates at the end. Beyond `target` a
/// farther-ahead reconfiguration has won outright.
fn already_at(target: Epoch, sealed_at: Epoch) -> Result<()> {
    if sealed_at == target {
        Ok(())
    } else {
        Err(CorfuError::RaceLost { winner: sealed_at })
    }
}

/// A refusal as a reconfigurer reports it: every request after the seal
/// carries the target epoch, so a node that calls it stale has been moved
/// past it by someone else.
fn lost(e: CorfuError) -> CorfuError {
    match e {
        CorfuError::Sealed { server_epoch } => CorfuError::RaceLost { winner: server_epoch },
        e => e,
    }
}

/// Step one of every reconfiguration: moves log `log` of `old` to its next
/// epoch on every storage node serving it, on every node `joining` it, and
/// then on its sequencer (which keeps its tail and backpointer state; the
/// seal only fences tokens issued under the old epoch). Returns the log's
/// raw tail, inverted from the per-replica-set local tails (max across
/// replicas).
///
/// `dead` names the one member that need not answer — the node being
/// replaced, storage or sequencer. Its seal is still attempted: if it is
/// actually alive (a decommission) this fences it; if it is down the call
/// just fails.
fn seal(
    client: &CorfuClient,
    metrics: &ReconfigMetrics,
    old: &Projection,
    log: u32,
    dead: Option<NodeId>,
    joining: &[&Node],
) -> Result<LogOffset> {
    let layout = old.log(log);
    let target = layout.epoch + 1;
    let mut members = Vec::new();
    for (set, chain) in layout.replica_sets.iter().enumerate() {
        for &id in chain {
            members.push((Node::member(client, old, id)?, set));
        }
    }
    let members = members.iter().map(|(node, set)| (node, Some(*set)));
    let mut local_tails = vec![0u64; layout.replica_sets.len()];
    for (node, set) in members.chain(joining.iter().map(|&node| (node, None))) {
        let sealed: Result<StorageResponse> = node.call(&StorageRequest::Seal { epoch: target });
        if Some(node.id) == dead {
            continue;
        }
        let mut answer = sealed?;
        if let StorageResponse::ErrSealed { epoch } = answer {
            already_at(target, epoch)?;
            answer = node.call(&StorageRequest::LocalTail { epoch: target })?;
        }
        let StorageResponse::Tail(tail) = answer else {
            return Err(lost(storage_refusal(format_args!("seal of node {}", node.id), answer)));
        };
        if let Some(set) = set {
            local_tails[set] = local_tails[set].max(tail);
        }
    }

    let sequencer = Node::member(client, old, layout.sequencer)?;
    let sealed: Result<SequencerResponse> =
        sequencer.call(&SequencerRequest::Seal { epoch: target });
    if Some(sequencer.id) != dead {
        match sealed? {
            SequencerResponse::Ok => {}
            SequencerResponse::ErrSealed { epoch } => already_at(target, epoch)?,
            other => return Err(sequencer_refusal("seal", other)),
        }
    }

    let tail = layout.tail_from_local(&local_tails);
    // The coordinator journals the seal: a sequencer being replaced is
    // usually dead, so its own journal never records this epoch's seal.
    metrics.events.emit(EventKind::Sealed, target, log as u64, tail);
    Ok(tail)
}

/// `old` at the next global epoch — the next metalog position — with each
/// of `logs` at its next epoch: what sealing those logs commits a
/// reconfigurer to proposing, before whatever else it changes.
fn successor(old: &Projection, logs: impl IntoIterator<Item = u32>) -> Projection {
    let mut next = old.clone();
    next.epoch += 1;
    for log in logs {
        next.logs[log as usize].epoch += 1;
    }
    next
}

/// The last step of every reconfiguration: CAS-proposes `new_proj` and
/// moves the coordinating client onto it. Losing the CAS to the very
/// projection proposed is convergence (a twin did identical work); losing
/// it to anything else is [`CorfuError::RaceLost`] with the winner's epoch.
fn install(
    client: &CorfuClient,
    metrics: &ReconfigMetrics,
    new_proj: Projection,
    log: u32,
    detail: u64,
) -> Result<Projection> {
    match client.layout().propose(new_proj.clone())? {
        Some(winner) if winner != new_proj => {
            return Err(CorfuError::RaceLost { winner: winner.epoch })
        }
        _ => {}
    }
    client.refresh_layout()?;
    metrics.events.emit(EventKind::ProjectionInstalled, new_proj.epoch, log as u64, detail);
    Ok(new_proj)
}

/// What a completed reconfiguration produced.
#[derive(Debug, Clone)]
pub struct ReconfigOutcome {
    /// The newly installed projection.
    pub projection: Projection,
    /// The affected log's tail recovered from its sealed storage nodes, as
    /// a composite offset (equal to the raw tail for log 0).
    pub recovered_tail: LogOffset,
    /// Number of log entries scanned to rebuild backpointer state.
    pub entries_scanned: u64,
}

/// Replaces log 0's sequencer with `new_seq` — the single-log form of
/// [`replace_sequencer_in_log`]. `k` is the deployment's backpointer count
/// per stream.
pub fn replace_sequencer(
    client: &CorfuClient,
    new_seq: NodeInfo,
    k: usize,
) -> Result<ReconfigOutcome> {
    replace_sequencer_in_log(client, 0, new_seq, k)
}

/// Replaces log `log`'s sequencer with `new_seq` (which must be a fresh
/// [`crate::SequencerServer`] for that log, reachable through the client's
/// connection factory). Only `log` is sealed; every other log of a sharded
/// projection keeps operating at its current epoch.
///
/// On a lost race (seal or CAS) the error is [`CorfuError::RaceLost`]
/// carrying the winning epoch; the caller can simply refresh, since someone
/// else completed a reconfiguration.
pub fn replace_sequencer_in_log(
    client: &CorfuClient,
    log: u32,
    new_seq: NodeInfo,
    k: usize,
) -> Result<ReconfigOutcome> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    let old_seq = old.sequencer_of(log);
    let tail = seal(client, &metrics, &old, log, Some(old_seq), &[])?;

    // Same replica sets, new sequencer.
    let mut new_proj = successor(&old, [log]);
    new_proj.logs[log as usize].sequencer = new_seq.id;
    new_proj.nodes.retain(|n| n.id != old_seq);
    if new_proj.nodes.iter().all(|n| n.id != new_seq.id) {
        new_proj.nodes.push(new_seq.clone());
    }
    let target = new_proj.epoch_of_log(log);

    // Rebuild backpointer state by backward scan at the new epoch (junk
    // entries contribute nothing, exactly as in the paper), and bootstrap
    // the replacement with it.
    let (state, entries_scanned) = rebuild_stream_state(client, &new_proj, log, tail, k)?;
    let bootstrap = SequencerRequest::Bootstrap { epoch: target, tail, streams: state.streams };
    match Node::dial(client, &new_seq).call(&bootstrap)? {
        SequencerResponse::Ok => {}
        // A sequencer is bootstrapped into an epoch once: a twin got here
        // first, from the same sealed log, and the node may be serving.
        SequencerResponse::ErrSealed { epoch } => already_at(target, epoch)?,
        other => return Err(CorfuError::Layout(format!("sequencer bootstrap failed: {other:?}"))),
    }

    let projection = install(client, &metrics, new_proj, log, new_seq.id as u64)?;
    Ok(ReconfigOutcome { projection, recovered_tail: compose(log, tail), entries_scanned })
}

/// What a completed storage-node replacement produced.
#[derive(Debug, Clone)]
pub struct RebuildOutcome {
    /// The newly installed projection, with the replacement spliced in.
    pub projection: Projection,
    /// Consumed pages (data, junk, and trim marks) copied to the
    /// replacement.
    pub pages_copied: u64,
    /// Payload bytes copied to the replacement.
    pub bytes_copied: u64,
    /// Replica chains the dead node served (and the replacement now
    /// serves).
    pub chains_rebuilt: usize,
}

/// Addresses scanned per `CopyRange` round trip during a rebuild.
pub const COPY_CHUNK_PAGES: u32 = 256;

/// Replaces the dead (or decommissioned) storage node `dead` with
/// `replacement`, a fresh [`crate::StorageServer`] reachable through the
/// client's connection factory: seals the dead node's log into a new epoch,
/// copies the dead node's chain positions from the head-most surviving
/// replica of each chain, and CAS-installs a projection with the
/// replacement spliced in (the striping function is unchanged). Other logs
/// of a sharded projection are untouched. Clients racing the replacement
/// observe `ErrSealed`, refresh, and retry transparently.
///
/// The node being replaced does not have to be down — replacing a live
/// node decommissions it cleanly (its seal is attempted best-effort).
///
/// On a lost race the error is [`CorfuError::RaceLost`] with the winning
/// epoch: two concurrent replacements of the same node converge, with
/// exactly one winning the layout CAS.
pub fn replace_storage_node(
    client: &CorfuClient,
    dead: NodeId,
    replacement: NodeInfo,
) -> Result<RebuildOutcome> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;

    // Validate the membership change up front. Storage nodes track one
    // epoch, so a node serves exactly one log.
    let owning: Vec<u32> = (0..old.num_logs())
        .filter(|&l| old.log(l).replica_sets.iter().flatten().any(|&n| n == dead))
        .collect();
    if old.logs.iter().any(|l| l.sequencer == dead) {
        return Err(CorfuError::Layout(format!(
            "node {dead} is a sequencer; use replace_sequencer"
        )));
    }
    if owning.is_empty() {
        // The node is in no chain: a concurrent replacement already spliced
        // it out (it may even have started after ours and still won the
        // CAS first). Converge instead of failing.
        return Err(CorfuError::RaceLost { winner: old.epoch });
    }
    if owning.len() > 1 {
        return Err(CorfuError::Layout(format!(
            "node {dead} serves multiple logs; per-node epochs require one log per storage node"
        )));
    }
    let log = owning[0];
    let layout = old.log(log);
    if old.addr_of(replacement.id).is_some() {
        return Err(CorfuError::Layout(format!(
            "replacement id {} is already in the projection",
            replacement.id
        )));
    }
    // The copy source of each chain the dead node served is its head-most
    // surviving replica: the head arbitrates write-once races, so its pages
    // are a superset of every acked entry in the chain. Pages it lacks were
    // never acked and surface as holes.
    let mut sources = Vec::new();
    for (set_idx, set) in layout.replica_sets.iter().enumerate() {
        if set.contains(&dead) {
            let survivor = set.iter().find(|&&n| n != dead).ok_or_else(|| {
                CorfuError::Storage(format!(
                    "replica set {set_idx} has no surviving replica to copy from"
                ))
            })?;
            sources.push(Node::member(client, &old, *survivor)?);
        }
    }

    // The replacement is sealed with the log, so it serves the new epoch
    // from birth: no old-epoch straggler can ever write to it.
    let repl = Node::dial(client, &replacement);
    seal(client, &metrics, &old, log, Some(dead), &[&repl])?;
    let new_proj = old.with_replaced_node(dead, &replacement);
    debug_assert_eq!(new_proj.epoch_of_log(log), layout.epoch + 1, "the epoch sealed");

    // Rebuild the dead node's chain positions onto the replacement.
    let mut pages_copied = 0u64;
    let mut bytes_copied = 0u64;
    for source in &sources {
        let (pages, bytes) = copy_chain_position(source, &repl, new_proj.epoch_of_log(log))?;
        pages_copied += pages;
        bytes_copied += bytes;
    }

    let projection = install(client, &metrics, new_proj, log, dead as u64)?;
    metrics.events.emit(
        EventKind::ReplicaReplaced,
        projection.epoch,
        log as u64,
        replacement.id as u64,
    );
    Ok(RebuildOutcome { projection, pages_copied, bytes_copied, chains_rebuilt: sources.len() })
}

/// Streams every consumed page of `source` onto the replacement `repl`,
/// reproducing data, junk fills, random trim marks, and the prefix-trim
/// horizon, so the replacement's write-once arbitration is exactly as
/// strict as the original's. Returns (pages, payload bytes) copied.
/// Write-once arbitration makes the copy idempotent, so two racing rebuilds
/// of the same node are safe.
fn copy_chain_position(source: &Node, repl: &Node, epoch: Epoch) -> Result<(u64, u64)> {
    let mut pages_copied = 0u64;
    let mut bytes_copied = 0u64;
    let mut start = 0u64;
    let mut horizon_installed = false;
    loop {
        let req = StorageRequest::CopyRange { epoch, start, count: COPY_CHUNK_PAGES };
        let (local_tail, prefix_trim, next, pages) = match source.call(&req)? {
            StorageResponse::PageChunk { local_tail, prefix_trim, next, pages } => {
                (local_tail, prefix_trim, next, pages)
            }
            other => {
                let what = format_args!("copy from node {}", source.id);
                return Err(lost(storage_refusal(what, other)));
            }
        };
        if !horizon_installed && prefix_trim > 0 {
            match repl.call(&StorageRequest::TrimPrefix { epoch, horizon: prefix_trim })? {
                StorageResponse::Ok => {}
                other => return Err(lost(storage_refusal("replacement trim_prefix", other))),
            }
        }
        horizon_installed = true;
        for (addr, page) in pages {
            let req = match page {
                PageCopy::Data(payload) => {
                    bytes_copied += payload.len() as u64;
                    StorageRequest::Write { epoch, addr, kind: WriteKind::Data, payload }
                }
                PageCopy::Junk => StorageRequest::Write {
                    epoch,
                    addr,
                    kind: WriteKind::Junk,
                    payload: bytes::Bytes::new(),
                },
                PageCopy::Trimmed => StorageRequest::Trim { epoch, addr },
            };
            match repl.call(&req)? {
                // AlreadyWritten: a racing rebuild (or a new-epoch client
                // write that beat us here) owns the slot; either way the
                // slot is consumed with an arbitrated value.
                StorageResponse::Ok
                | StorageResponse::ErrAlreadyWritten
                | StorageResponse::ErrTrimmed => pages_copied += 1,
                other => return Err(lost(storage_refusal("replacement install", other))),
            }
        }
        if next >= local_tail {
            return Ok((pages_copied, bytes_copied));
        }
        start = next;
    }
}

/// Scans log `log` backward from its raw `tail`, decoding entry envelopes
/// to recover the last `k` issued-and-written offsets of every stream
/// (as composite offsets, which is what the sequencer serves). Junk entries
/// (filled holes) and undecodable entries contribute nothing. The scan
/// stops early at the trim horizon — or at a sequencer-state checkpoint
/// (see [`checkpoint_sequencer_state`]): entries below a checkpoint's
/// captured tail are already reflected in it, so only the suffix is
/// scanned and the checkpoint is merged in underneath.
fn rebuild_stream_state(
    client: &CorfuClient,
    proj: &Projection,
    log: u32,
    tail: LogOffset,
    k: usize,
) -> Result<(SequencerState, u64)> {
    let mut per_stream: HashMap<StreamId, Vec<LogOffset>> = HashMap::new();
    let mut scanned = 0u64;
    let mut floor = 0u64;
    let mut seed: Option<SequencerState> = None;
    let mut offset = tail;
    let view = client.view();
    while offset > floor {
        offset -= 1;
        let composite = compose(log, offset);
        match client.read_with(&view, proj, composite)? {
            ReadOutcome::Data(bytes) => {
                scanned += 1;
                if let Ok(envelope) = EntryEnvelope::decode(&bytes, composite) {
                    if seed.is_none() && envelope.belongs_to(crate::SEQUENCER_CHECKPOINT_STREAM) {
                        if let Ok(state) = decode_from_slice::<SequencerState>(&envelope.payload) {
                            // Everything below the checkpoint's captured
                            // tail is already in it.
                            floor = state.tail;
                            seed = Some(state);
                            continue;
                        }
                    }
                    for header in &envelope.headers {
                        let entry = per_stream.entry(header.stream).or_default();
                        if entry.len() < k {
                            entry.push(composite);
                        }
                    }
                }
            }
            ReadOutcome::Junk => {
                scanned += 1;
            }
            ReadOutcome::Unwritten => {
                // A hole below the tail: a client crashed mid-append. The
                // scan cannot wait; patch it so playback never stalls on it.
                let _ = client.fill_with(&view, proj, composite);
                scanned += 1;
            }
            ReadOutcome::Trimmed => break,
        }
    }
    // Merge the checkpoint underneath the scanned suffix: scanned offsets
    // are all newer than anything the checkpoint captured.
    if let Some(seed) = seed {
        for (id, older) in seed.streams {
            let entry = per_stream.entry(id).or_default();
            for off in older {
                if entry.len() >= k {
                    break;
                }
                entry.push(off);
            }
        }
    }
    let mut streams: Vec<(StreamId, Vec<LogOffset>)> = per_stream.into_iter().collect();
    streams.sort_by_key(|(id, _)| *id);
    Ok((SequencerState { tail, streams }, scanned))
}

/// Writes log 0's sequencer state into the log — the single-log form of
/// [`checkpoint_sequencer_state_in_log`].
pub fn checkpoint_sequencer_state(client: &CorfuClient) -> Result<LogOffset> {
    checkpoint_sequencer_state_in_log(client, 0)
}

/// Writes log `log`'s sequencer soft state into *that log* on the reserved
/// [`crate::SEQUENCER_CHECKPOINT_STREAM`], bounding the backward scan a
/// future [`replace_sequencer_in_log`] must perform. The entry is forced
/// into `log` (bypassing the shard map) because that is the log the
/// recovery scan reads. Call periodically from an operational task.
pub fn checkpoint_sequencer_state_in_log(client: &CorfuClient, log: u32) -> Result<LogOffset> {
    let view = client.view();
    let epoch = view.proj.epoch_of_log(log);
    let state = match client.sequencer_call(&view, log, &SequencerRequest::Dump { epoch })? {
        SequencerResponse::State { tail, streams } => SequencerState { tail, streams },
        SequencerResponse::ErrSealed { epoch } => {
            return Err(CorfuError::Sealed { server_epoch: epoch })
        }
        other => return Err(CorfuError::Codec(format!("unexpected dump response {other:?}"))),
    };
    let payload = bytes::Bytes::from(encode_to_vec(&state));
    let (offset, _) =
        client.append_streams_in_log(log, &[crate::SEQUENCER_CHECKPOINT_STREAM], payload)?;
    Ok(offset)
}

/// Moves the whole cluster — every log's storage nodes and sequencer, and
/// the projection — to the next epoch without changing membership: the
/// per-log seal over every log, under one install. Live sequencers keep
/// their tail and backpointer state across the seal. Useful as a fencing
/// barrier: after `bump_epoch` returns, no operation stamped with an old
/// epoch can take effect anywhere. Returns the new global epoch and the
/// highest composite tail recovered from the seals.
pub fn bump_epoch(client: &CorfuClient) -> Result<(Epoch, LogOffset)> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    let mut tail = 0;
    for log in 0..old.num_logs() {
        tail = tail.max(compose(log, seal(client, &metrics, &old, log, None, &[])?));
    }
    let installed = install(client, &metrics, successor(&old, 0..old.num_logs()), 0, tail)?;
    Ok((installed.epoch, tail))
}

/// Seals *one log* of a sharded projection into its next epoch without
/// changing membership — the per-log fencing barrier. Other logs keep their
/// epochs and their live sequencers. Returns the new global epoch and the
/// sealed log's composite tail.
pub fn seal_log(client: &CorfuClient, log: u32) -> Result<(Epoch, LogOffset)> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    let tail = seal(client, &metrics, &old, log, None, &[])?;
    let installed = install(client, &metrics, successor(&old, [log]), log, tail)?;
    Ok((installed.epoch, compose(log, tail)))
}

/// Moves `stream` to `to_log`: seals the source and target logs, hands the
/// stream's backpointer window from the source sequencer to the target
/// sequencer (`AdoptStream`), and CAS-installs a projection whose shard map
/// pins the stream to `to_log`. The stream's existing entries stay in the
/// source log — backpointers are composite offsets, so playback crosses
/// logs transparently; no entry is lost or duplicated by the remap.
///
/// Appends racing the remap either land in the source log before its seal
/// or observe `ErrSealed`, refresh, and route to the target log. The window
/// handed over is read *after* the source seal, so it reflects every append
/// the old epoch admitted.
pub fn remap_stream(client: &CorfuClient, stream: StreamId, to_log: u32) -> Result<Projection> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    if to_log >= old.num_logs() {
        return Err(CorfuError::Layout(format!(
            "target log {to_log} out of range ({} logs)",
            old.num_logs()
        )));
    }
    let from_log = old.log_of_stream(stream);
    if from_log == to_log {
        return Ok(old);
    }
    // Both logs: this fences every in-flight append of the stream under the
    // old epochs.
    for log in [from_log, to_log] {
        seal(client, &metrics, &old, log, None, &[])?;
    }
    let mut new_proj = successor(&old, [from_log, to_log]);
    new_proj.shard = old.shard.with_override(stream, to_log);

    // Read the stream's backpointer window from the *sealed* source
    // sequencer (soft state survives a seal), so it covers every append the
    // old epoch admitted.
    let query =
        SequencerRequest::Query { epoch: new_proj.epoch_of_log(from_log), streams: vec![stream] };
    let window = match Node::member(client, &old, old.sequencer_of(from_log))?.call(&query)? {
        SequencerResponse::TailInfo { backpointers, .. } => {
            backpointers.into_iter().next().unwrap_or_default()
        }
        other => return Err(lost(sequencer_refusal("query", other))),
    };
    let window: Vec<LogOffset> = window.into_iter().filter(|&b| b != u64::MAX).collect();

    // Hand the window to the target sequencer. The composite offsets keep
    // pointing into the source log, where the entries live.
    let adopt = SequencerRequest::AdoptStream {
        epoch: new_proj.epoch_of_log(to_log),
        stream,
        backpointers: window,
    };
    match Node::member(client, &old, old.sequencer_of(to_log))?.call(&adopt)? {
        SequencerResponse::Ok => {}
        other => return Err(lost(sequencer_refusal("adopt", other))),
    }

    let installed = install(client, &metrics, new_proj, to_log, stream as u64)?;
    metrics.stream_remaps.inc();
    metrics.events.emit(EventKind::ShardRemapped, installed.epoch, to_log as u64, stream as u64);
    Ok(installed)
}
