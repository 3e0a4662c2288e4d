//! Seal-based reconfiguration (§5, "Failure Handling"), per log.
//!
//! The streaming extension makes the sequencer a first-class member of the
//! projection: because it is the single source of backpointers for its log,
//! the system can no longer tolerate multiple live sequencers per log, so a
//! failed sequencer is replaced by moving *that log* to a new epoch:
//!
//! 1. seal the log's storage nodes at its new epoch (this fences all tokens
//!    issued by the old sequencer: stale-epoch writes are rejected) and
//!    collect local tails;
//! 2. invert the mapping to recover the log's tail (the slow check);
//! 3. rebuild the per-stream backpointer state by scanning the log backward
//!    from the tail, decoding entry envelopes (junk entries contribute
//!    nothing, exactly as in the paper);
//! 4. bootstrap the replacement sequencer with the recovered state;
//! 5. propose the new projection to the layout service (epoch CAS — a
//!    concurrent reconfigurer loses cleanly).
//!
//! With a sharded projection only the affected log is sealed: other logs
//! keep their epochs and their sequencers stay live. Clients racing the
//! reconfiguration of the sealed log observe `ErrSealed`, refresh their
//! projection, and retry.
//!
//! Storage-node replacement ([`replace_storage_node`]) follows the same
//! seal-based recipe to rebuild a dead flash node's chain position:
//!
//! 1. seal the surviving storage nodes of the dead node's log (and that
//!    log's sequencer, which keeps its soft state) at the new epoch,
//!    fencing all old-epoch operations;
//! 2. copy the dead node's local pages to a fresh replacement by streaming
//!    `CopyRange` chunks from the head-most surviving replica of each chain
//!    the dead node served — data pages, junk fills, random trim marks, and
//!    the prefix-trim horizon are all reproduced, so the replacement's
//!    write-once arbitration is exactly as strict as the original's;
//! 3. CAS-propose a projection with the replacement spliced into the dead
//!    node's chain positions (the striping function is unchanged);
//! 4. let racing clients observe `ErrSealed`, refresh, and retry.
//!
//! [`remap_stream`] moves one stream to a different log: both logs are
//! sealed, the source sequencer's backpointer window for the stream is
//! adopted by the target sequencer, and a projection carrying a shard-map
//! override is proposed. The stream's existing entries stay where they are
//! — backpointers are composite offsets, so playback follows them across
//! logs transparently.
//!
//! Concurrent reconfigurations converge: sealing a node that is already at
//! the target epoch is treated as that step being done (two replacements of
//! the same node do identical work and write-once arbitration makes the
//! copy idempotent), and the layout CAS picks exactly one winner. The loser
//! gets [`CorfuError::RaceLost`] carrying the winning epoch, distinguishing
//! "someone else finished the job" from a real layout failure.

use std::collections::HashMap;
use std::sync::Arc;

use tango_rpc::ClientConn;
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::client::{CorfuClient, ReadOutcome};
use crate::entry::EntryEnvelope;
use crate::metrics::ReconfigMetrics;
use crate::projection::LogLayout;
use crate::proto::{
    PageCopy, SequencerRequest, SequencerResponse, StorageRequest, StorageResponse, WriteKind,
};
use crate::sequencer::SequencerState;
use crate::{
    compose, log_of_offset, CorfuError, Epoch, LogOffset, NodeId, NodeInfo, Projection, Result,
    StreamId,
};

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
    let layout = old.log(log).clone();
    let old_seq = layout.sequencer;
    let log_epoch = layout.epoch + 1;

    // Build the new projection: same replica sets, new sequencer, this
    // log's epoch bumped; the global epoch advances to the next metalog
    // position.
    let mut nodes: Vec<NodeInfo> = old.nodes.iter().filter(|n| n.id != old_seq).cloned().collect();
    if nodes.iter().all(|n| n.id != new_seq.id) {
        nodes.push(new_seq.clone());
    }
    let mut logs = old.logs.clone();
    logs[log as usize] = LogLayout {
        epoch: log_epoch,
        replica_sets: layout.replica_sets.clone(),
        sequencer: new_seq.id,
    };
    let new_proj = Projection { epoch: old.epoch + 1, logs, shard: old.shard.clone(), nodes };

    // 1. Seal this log's storage nodes, collecting local tails (max across
    // replicas).
    let mut local_tails = vec![0u64; layout.replica_sets.len()];
    for (set_idx, set) in layout.replica_sets.iter().enumerate() {
        for &node in set {
            match client.storage_call(node, &StorageRequest::Seal { epoch: log_epoch })? {
                StorageResponse::Tail(t) => local_tails[set_idx] = local_tails[set_idx].max(t),
                StorageResponse::ErrSealed { epoch } if epoch >= log_epoch => {
                    // Another reconfigurer got here first; bail out and let
                    // the layout CAS pick the winner.
                    return Err(CorfuError::RaceLost { winner: epoch });
                }
                other => {
                    return Err(CorfuError::Storage(format!("seal of node {node}: {other:?}")))
                }
            }
        }
    }

    // 2. Seal the old sequencer, best effort (it may be the failed node).
    if let Some(addr) = old.addr_of(old_seq) {
        let conn = client.factory().connect(&NodeInfo { id: old_seq, addr: addr.to_owned() });
        let _ = conn.call(&encode_to_vec(&SequencerRequest::Seal { epoch: log_epoch }));
    }

    let recovered_tail = layout.tail_from_local(&local_tails);
    // The coordinator journals the seal: the old sequencer is usually dead
    // (that is why it is being replaced), so its own journal never records
    // this epoch's seal.
    metrics.events.emit(tango_metrics::EventKind::Sealed, log_epoch, log as u64, recovered_tail);

    // 3. Rebuild backpointer state by backward scan at the new epoch.
    let (stream_state, entries_scanned) =
        rebuild_stream_state(client, &new_proj, log, recovered_tail, k)?;

    // 4. Bootstrap the replacement sequencer.
    let conn = client.factory().connect(&new_seq);
    let req = SequencerRequest::Bootstrap {
        epoch: log_epoch,
        tail: recovered_tail,
        streams: stream_state.streams,
    };
    let resp = conn.call(&encode_to_vec(&req))?;
    match decode_from_slice::<SequencerResponse>(&resp)? {
        SequencerResponse::Ok => {}
        other => return Err(CorfuError::Layout(format!("sequencer bootstrap failed: {other:?}"))),
    }

    // 5. Publish the projection.
    match client.layout().propose(new_proj.clone())? {
        None => {}
        Some(winner) => return Err(CorfuError::RaceLost { winner: winner.epoch }),
    }
    client.refresh_layout()?;
    metrics.events.emit(
        tango_metrics::EventKind::ProjectionInstalled,
        new_proj.epoch,
        log as u64,
        new_seq.id as u64,
    );
    Ok(ReconfigOutcome {
        projection: new_proj,
        recovered_tail: compose(log, recovered_tail),
        entries_scanned,
    })
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
/// replacement spliced in. Other logs of a sharded projection are
/// untouched. Clients racing the replacement observe `ErrSealed`, refresh,
/// and retry transparently.
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
    let layout = old.log(log).clone();
    let new_epoch = layout.epoch + 1;
    let affected: Vec<usize> = layout
        .replica_sets
        .iter()
        .enumerate()
        .filter(|(_, set)| set.contains(&dead))
        .map(|(idx, _)| idx)
        .collect();
    if old.logs.iter().any(|l| l.sequencer == replacement.id)
        || old.logs.iter().any(|l| l.replica_sets.iter().any(|set| set.contains(&replacement.id)))
    {
        return Err(CorfuError::Layout(format!(
            "replacement id {} is already in the projection",
            replacement.id
        )));
    }
    for &set_idx in &affected {
        if layout.replica_sets[set_idx].iter().all(|&n| n == dead) {
            return Err(CorfuError::Storage(format!(
                "replica set {set_idx} has no surviving replica to copy from"
            )));
        }
    }

    // 1. Seal the log's survivors. A node already at exactly the target
    // epoch was sealed by a concurrent replacement doing the same job —
    // that step is done, keep going; the layout CAS arbitrates at the end.
    // A node beyond the target means a farther-ahead reconfiguration won
    // outright.
    for node in old.storage_nodes_of(log) {
        if node == dead {
            continue;
        }
        match client.storage_call(node, &StorageRequest::Seal { epoch: new_epoch })? {
            StorageResponse::Tail(_) => {}
            StorageResponse::ErrSealed { epoch } if epoch == new_epoch => {}
            StorageResponse::ErrSealed { epoch } => {
                return Err(CorfuError::RaceLost { winner: epoch })
            }
            other => return Err(CorfuError::Storage(format!("seal of node {node}: {other:?}"))),
        }
    }
    // Best-effort seal of the dead node: if it is actually alive (a
    // decommission), this fences it; if it is down, the call just fails.
    let _ = client.storage_call(dead, &StorageRequest::Seal { epoch: new_epoch });

    // 2. Seal the log's sequencer. It keeps its tail and backpointer state;
    // the seal only fences tokens issued under the old epoch.
    let seq_addr = old
        .addr_of(layout.sequencer)
        .ok_or_else(|| CorfuError::Layout("sequencer missing from projection".into()))?;
    let seq_conn =
        client.factory().connect(&NodeInfo { id: layout.sequencer, addr: seq_addr.to_owned() });
    let resp = seq_conn.call(&encode_to_vec(&SequencerRequest::Seal { epoch: new_epoch }))?;
    match decode_from_slice::<SequencerResponse>(&resp)? {
        SequencerResponse::Ok => {}
        SequencerResponse::ErrSealed { epoch } if epoch == new_epoch => {}
        SequencerResponse::ErrSealed { epoch } => {
            return Err(CorfuError::RaceLost { winner: epoch })
        }
        other => return Err(CorfuError::Layout(format!("sequencer seal failed: {other:?}"))),
    }

    // 3. Seal the replacement so it serves the new epoch from birth: no
    // old-epoch straggler can ever write to it.
    let repl_conn = client.factory().connect(&replacement);
    match raw_storage_call(&repl_conn, &StorageRequest::Seal { epoch: new_epoch })? {
        StorageResponse::Tail(_) => {}
        StorageResponse::ErrSealed { epoch } if epoch == new_epoch => {}
        StorageResponse::ErrSealed { epoch } => return Err(CorfuError::RaceLost { winner: epoch }),
        other => return Err(CorfuError::Storage(format!("replacement seal: {other:?}"))),
    }

    // 4. Rebuild the dead node's chain positions onto the replacement. The
    // copy source is the head-most surviving replica: the head arbitrates
    // write-once races, so its pages are a superset of every acked entry in
    // the chain. Pages it lacks were never acked and surface as holes.
    let mut pages_copied = 0u64;
    let mut bytes_copied = 0u64;
    for &set_idx in &affected {
        let source = *layout.replica_sets[set_idx]
            .iter()
            .find(|&&n| n != dead)
            .expect("validated: a survivor exists");
        let (pages, bytes) = copy_chain_position(client, &repl_conn, source, new_epoch)?;
        pages_copied += pages;
        bytes_copied += bytes;
    }

    // 5. Publish the spliced projection; the CAS picks one winner.
    let new_proj = old.with_replaced_node(dead, &replacement);
    debug_assert_eq!(new_proj.epoch, old.epoch + 1);
    debug_assert_eq!(new_proj.epoch_of_log(log), new_epoch);
    match client.layout().propose(new_proj.clone())? {
        None => {}
        Some(winner) => return Err(CorfuError::RaceLost { winner: winner.epoch }),
    }
    client.refresh_layout()?;
    metrics.events.emit(
        tango_metrics::EventKind::ReplicaReplaced,
        new_proj.epoch,
        log as u64,
        replacement.id as u64,
    );
    metrics.events.emit(
        tango_metrics::EventKind::ProjectionInstalled,
        new_proj.epoch,
        log as u64,
        dead as u64,
    );
    Ok(RebuildOutcome {
        projection: new_proj,
        pages_copied,
        bytes_copied,
        chains_rebuilt: affected.len(),
    })
}

/// Streams every consumed page of `source` onto the replacement behind
/// `repl_conn`, reproducing data, junk fills, random trim marks, and the
/// prefix-trim horizon. Returns (pages, payload bytes) copied. Write-once
/// arbitration makes the copy idempotent, so two racing rebuilds of the
/// same node are safe.
fn copy_chain_position(
    client: &CorfuClient,
    repl_conn: &Arc<dyn ClientConn>,
    source: NodeId,
    epoch: Epoch,
) -> Result<(u64, u64)> {
    let mut pages_copied = 0u64;
    let mut bytes_copied = 0u64;
    let mut start = 0u64;
    let mut horizon_installed = false;
    loop {
        let req = StorageRequest::CopyRange { epoch, start, count: COPY_CHUNK_PAGES };
        let (local_tail, prefix_trim, next, pages) = match client.storage_call(source, &req)? {
            StorageResponse::PageChunk { local_tail, prefix_trim, next, pages } => {
                (local_tail, prefix_trim, next, pages)
            }
            StorageResponse::ErrSealed { epoch } => {
                return Err(CorfuError::RaceLost { winner: epoch })
            }
            other => {
                return Err(CorfuError::Storage(format!("copy from node {source}: {other:?}")))
            }
        };
        if !horizon_installed && prefix_trim > 0 {
            let req = StorageRequest::TrimPrefix { epoch, horizon: prefix_trim };
            match raw_storage_call(repl_conn, &req)? {
                StorageResponse::Ok => {}
                other => {
                    return Err(CorfuError::Storage(format!("replacement trim_prefix: {other:?}")))
                }
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
            match raw_storage_call(repl_conn, &req)? {
                // AlreadyWritten: a racing rebuild (or a new-epoch client
                // write that beat us here) owns the slot; either way the
                // slot is consumed with an arbitrated value.
                StorageResponse::Ok | StorageResponse::ErrAlreadyWritten => pages_copied += 1,
                StorageResponse::ErrTrimmed => pages_copied += 1,
                StorageResponse::ErrSealed { epoch } => {
                    return Err(CorfuError::RaceLost { winner: epoch })
                }
                other => {
                    return Err(CorfuError::Storage(format!("replacement install: {other:?}")))
                }
            }
        }
        if next >= local_tail {
            return Ok((pages_copied, bytes_copied));
        }
        start = next;
    }
}

/// A storage call on a connection to a node that is not (yet) in the
/// installed projection.
fn raw_storage_call(conn: &Arc<dyn ClientConn>, req: &StorageRequest) -> Result<StorageResponse> {
    let resp = conn.call(&encode_to_vec(req))?;
    Ok(decode_from_slice(&resp)?)
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
                        if let Ok(state) =
                            tango_wire::decode_from_slice::<SequencerState>(&envelope.payload)
                        {
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
                let _ = client_fill_at(client, proj, composite);
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
    let payload = bytes::Bytes::from(tango_wire::encode_to_vec(&state));
    let (offset, _) =
        client.append_streams_in_log(log, &[crate::SEQUENCER_CHECKPOINT_STREAM], payload)?;
    Ok(offset)
}

/// Fills a hole found during recovery, at the recovery epoch of the
/// offset's log.
fn client_fill_at(client: &CorfuClient, proj: &Projection, offset: LogOffset) -> Result<()> {
    use crate::proto::WriteKind;
    let epoch = proj.epoch_of_log(log_of_offset(offset));
    let (_, local) = proj.map(offset);
    for &node in proj.chain_for(offset) {
        let req = StorageRequest::Write {
            epoch,
            addr: local,
            kind: WriteKind::Junk,
            payload: bytes::Bytes::new(),
        };
        match client.storage_call(node, &req)? {
            StorageResponse::Ok | StorageResponse::ErrAlreadyWritten => {}
            other => return Err(CorfuError::Storage(format!("recovery fill: {other:?}"))),
        }
    }
    Ok(())
}

/// Moves the whole cluster — every log's storage nodes and sequencer, and
/// the projection — to the next epoch without changing membership. Live
/// sequencers keep their tail and backpointer state across the seal.
/// Useful as a fencing barrier: after `bump_epoch` returns, no operation
/// stamped with an old epoch can take effect anywhere. Returns the new
/// global epoch and the highest composite tail recovered from the seals.
pub fn bump_epoch(client: &CorfuClient) -> Result<(Epoch, LogOffset)> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    let mut tail = 0;
    let mut logs = old.logs.clone();
    for (log, layout) in old.logs.iter().enumerate() {
        let new_epoch = layout.epoch + 1;
        let mut local_tails = vec![0u64; layout.replica_sets.len()];
        for (set_idx, set) in layout.replica_sets.iter().enumerate() {
            for &node in set {
                match client.storage_call(node, &StorageRequest::Seal { epoch: new_epoch })? {
                    StorageResponse::Tail(t) => local_tails[set_idx] = local_tails[set_idx].max(t),
                    other => {
                        return Err(CorfuError::Storage(format!("seal of node {node}: {other:?}")))
                    }
                }
            }
        }
        // The sequencer keeps its soft state; sealing only bumps its epoch.
        let addr = old
            .addr_of(layout.sequencer)
            .ok_or_else(|| CorfuError::Layout("sequencer missing from projection".into()))?;
        let conn =
            client.factory().connect(&NodeInfo { id: layout.sequencer, addr: addr.to_owned() });
        let resp = conn.call(&encode_to_vec(&SequencerRequest::Seal { epoch: new_epoch }))?;
        match decode_from_slice::<SequencerResponse>(&resp)? {
            SequencerResponse::Ok => {}
            other => return Err(CorfuError::Layout(format!("sequencer seal failed: {other:?}"))),
        }
        tail = tail.max(compose(log as u32, layout.tail_from_local(&local_tails)));
        logs[log].epoch = new_epoch;
    }
    let new_proj = Projection {
        epoch: old.epoch + 1,
        logs,
        shard: old.shard.clone(),
        nodes: old.nodes.clone(),
    };
    if let Some(winner) = client.layout().propose(new_proj)? {
        return Err(CorfuError::RaceLost { winner: winner.epoch });
    }
    client.refresh_layout()?;
    metrics.events.emit(tango_metrics::EventKind::ProjectionInstalled, old.epoch + 1, 0, tail);
    Ok((old.epoch + 1, tail))
}

/// Seals *one log* of a sharded projection into its next epoch without
/// changing membership — the per-log fencing barrier. Other logs keep their
/// epochs and their live sequencers. Returns the new global epoch and the
/// sealed log's composite tail.
pub fn seal_log(client: &CorfuClient, log: u32) -> Result<(Epoch, LogOffset)> {
    let metrics = ReconfigMetrics::from_registry(client.metrics());
    let old = client.layout().get()?;
    let layout = old.log(log).clone();
    let new_epoch = layout.epoch + 1;
    let mut local_tails = vec![0u64; layout.replica_sets.len()];
    for (set_idx, set) in layout.replica_sets.iter().enumerate() {
        for &node in set {
            match client.storage_call(node, &StorageRequest::Seal { epoch: new_epoch })? {
                StorageResponse::Tail(t) => local_tails[set_idx] = local_tails[set_idx].max(t),
                StorageResponse::ErrSealed { epoch } => {
                    return Err(CorfuError::RaceLost { winner: epoch })
                }
                other => {
                    return Err(CorfuError::Storage(format!("seal of node {node}: {other:?}")))
                }
            }
        }
    }
    let addr = old
        .addr_of(layout.sequencer)
        .ok_or_else(|| CorfuError::Layout("sequencer missing from projection".into()))?;
    let conn = client.factory().connect(&NodeInfo { id: layout.sequencer, addr: addr.to_owned() });
    let resp = conn.call(&encode_to_vec(&SequencerRequest::Seal { epoch: new_epoch }))?;
    match decode_from_slice::<SequencerResponse>(&resp)? {
        SequencerResponse::Ok => {}
        SequencerResponse::ErrSealed { epoch } => {
            return Err(CorfuError::RaceLost { winner: epoch })
        }
        other => return Err(CorfuError::Layout(format!("sequencer seal failed: {other:?}"))),
    }
    let mut logs = old.logs.clone();
    logs[log as usize].epoch = new_epoch;
    let new_proj = Projection {
        epoch: old.epoch + 1,
        logs,
        shard: old.shard.clone(),
        nodes: old.nodes.clone(),
    };
    if let Some(winner) = client.layout().propose(new_proj)? {
        return Err(CorfuError::RaceLost { winner: winner.epoch });
    }
    client.refresh_layout()?;
    let sealed_tail = layout.tail_from_local(&local_tails);
    metrics.events.emit(tango_metrics::EventKind::Sealed, new_epoch, log as u64, sealed_tail);
    metrics.events.emit(
        tango_metrics::EventKind::ProjectionInstalled,
        old.epoch + 1,
        log as u64,
        sealed_tail,
    );
    Ok((old.epoch + 1, compose(log, sealed_tail)))
}

/// Moves `stream` to `to_log`: seals the source and target logs, hands the
/// stream's backpointer window from the source sequencer to the target
/// sequencer (`AdoptStream`), and CAS-installs a projection whose shard map
/// pins the stream to `to_log`. The stream's existing entries stay in the
/// source log — backpointers are composite offsets, so playback crosses
/// logs transparently; no entry is lost or duplicated by the remap.
///
/// Appends racing the remap either land in the source log before its seal
/// (and are then behind the adopted window via the sealed sequencer's
/// state... see below) or observe `ErrSealed`, refresh, and route to the
/// target log. The window handed over is read *after* the source seal, so
/// it reflects every append the old epoch admitted.
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
    let from_epoch = old.epoch_of_log(from_log) + 1;
    let to_epoch = old.epoch_of_log(to_log) + 1;

    let seq_conn = |log: u32| -> Result<Arc<dyn ClientConn>> {
        let id = old.sequencer_of(log);
        let addr = old
            .addr_of(id)
            .ok_or_else(|| CorfuError::Layout("sequencer missing from projection".into()))?;
        Ok(client.factory().connect(&NodeInfo { id, addr: addr.to_owned() }))
    };
    let seq_call = |log: u32, req: &SequencerRequest| -> Result<SequencerResponse> {
        let resp = seq_conn(log)?.call(&encode_to_vec(req))?;
        Ok(decode_from_slice(&resp)?)
    };

    // 1. Seal both logs (storage + sequencer) at their next epochs. This
    // fences every in-flight append of the stream under the old epochs.
    for (log, epoch) in [(from_log, from_epoch), (to_log, to_epoch)] {
        for node in old.storage_nodes_of(log) {
            match client.storage_call(node, &StorageRequest::Seal { epoch })? {
                StorageResponse::Tail(_) => {}
                StorageResponse::ErrSealed { epoch: e } if e == epoch => {}
                StorageResponse::ErrSealed { epoch: e } => {
                    return Err(CorfuError::RaceLost { winner: e })
                }
                other => {
                    return Err(CorfuError::Storage(format!("seal of node {node}: {other:?}")))
                }
            }
        }
        match seq_call(log, &SequencerRequest::Seal { epoch })? {
            SequencerResponse::Ok => {}
            SequencerResponse::ErrSealed { epoch: e } if e == epoch => {}
            SequencerResponse::ErrSealed { epoch: e } => {
                return Err(CorfuError::RaceLost { winner: e })
            }
            other => return Err(CorfuError::Layout(format!("sequencer seal failed: {other:?}"))),
        }
    }

    // 2. Read the stream's backpointer window from the *sealed* source
    // sequencer (soft state survives a seal), so it covers every append
    // the old epoch admitted.
    let window = match seq_call(
        from_log,
        &SequencerRequest::Query { epoch: from_epoch, streams: vec![stream] },
    )? {
        SequencerResponse::TailInfo { backpointers, .. } => {
            backpointers.into_iter().next().unwrap_or_default()
        }
        SequencerResponse::ErrSealed { epoch } => {
            return Err(CorfuError::RaceLost { winner: epoch })
        }
        other => return Err(CorfuError::Codec(format!("unexpected query response {other:?}"))),
    };
    let window: Vec<LogOffset> = window.into_iter().filter(|&b| b != u64::MAX).collect();

    // 3. Hand the window to the target sequencer. The composite offsets
    // keep pointing into the source log, where the entries live.
    match seq_call(
        to_log,
        &SequencerRequest::AdoptStream { epoch: to_epoch, stream, backpointers: window },
    )? {
        SequencerResponse::Ok => {}
        SequencerResponse::ErrSealed { epoch } => {
            return Err(CorfuError::RaceLost { winner: epoch })
        }
        other => return Err(CorfuError::Codec(format!("unexpected adopt response {other:?}"))),
    }

    // 4. Publish the projection with the override installed.
    let mut logs = old.logs.clone();
    logs[from_log as usize].epoch = from_epoch;
    logs[to_log as usize].epoch = to_epoch;
    let new_proj = Projection {
        epoch: old.epoch + 1,
        logs,
        shard: old.shard.with_override(stream, to_log),
        nodes: old.nodes.clone(),
    };
    match client.layout().propose(new_proj.clone())? {
        None => {}
        Some(winner) => return Err(CorfuError::RaceLost { winner: winner.epoch }),
    }
    client.refresh_layout()?;
    metrics.stream_remaps.inc();
    metrics.events.emit(
        tango_metrics::EventKind::ShardRemapped,
        new_proj.epoch,
        to_log as u64,
        stream as u64,
    );
    Ok(new_proj)
}
