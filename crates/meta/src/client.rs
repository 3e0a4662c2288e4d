//! The metalog quorum client: client-driven replication with write-once
//! arbitration, majority reads, repair, discovery, and failover. The
//! latest record is read from the first majority to answer when it agrees,
//! and through a quorum tail round and repairing reads when it does not.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use tango_metrics::Registry;
use tango_rpc::{ClientConn, Clock};
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::metrics::MetaMetrics;
use crate::proto::{MetaRequest, MetaResponse, ReplicaInfo};
use crate::{quorum, MetaError, Position, Result};

/// Opens connections to metalog replicas. The deployment decides what an
/// address means (in-process registry name, TCP `host:port`, ...).
pub trait Dial: Send + Sync {
    /// Opens (or reuses) a connection to `replica`.
    fn dial(&self, replica: &ReplicaInfo) -> Arc<dyn ClientConn>;

    /// The clock the dialled connections run on; the quorum backoff sleeps
    /// on it.
    fn clock(&self) -> Clock {
        Clock::real()
    }
}

impl<F> Dial for F
where
    F: Fn(&ReplicaInfo) -> Arc<dyn ClientConn> + Send + Sync,
{
    fn dial(&self, replica: &ReplicaInfo) -> Arc<dyn ClientConn> {
        self(replica)
    }
}

/// Whole-quorum rounds retried (with exponential backoff) when fewer than a
/// majority of replicas answer. The first attempt is free; a budget of 4
/// means up to 5 rounds.
pub const QUORUM_RETRIES: u32 = 4;
/// Backoff before the first quorum retry; doubles per retry up to
/// [`QUORUM_BACKOFF_MAX`].
const QUORUM_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Cap on the quorum retry backoff.
const QUORUM_BACKOFF_MAX: Duration = Duration::from_millis(50);

/// What one quorum round concluded, or that it must be retried.
enum Round<T> {
    Done(T),
    NoQuorum { reachable: usize, needed: usize },
}

/// The metalog quorum client.
///
/// Writes go to replicas in ascending list order, so the lowest-indexed
/// reachable replica arbitrates write-once races; a proposer that meets an
/// incumbent record before any of its own writes landed adopts it and
/// helps copy it forward (exactly how data-plane readers repair
/// half-written chains). An operation commits once a majority of replicas
/// holds its record; reads likewise require a majority holding one value,
/// completing half-written positions on the way. [`MetaClient::latest`]
/// asks only as many replicas as it needs: what a majority agrees on needs
/// no repair, and a stray record outside that majority is not seen.
pub struct MetaClient {
    replicas: RwLock<Vec<ReplicaInfo>>,
    dial: Arc<dyn Dial>,
    conns: Mutex<HashMap<u32, Arc<dyn ClientConn>>>,
    metrics: MetaMetrics,
}

impl MetaClient {
    /// A client over `replicas` (in arbitration order), dialing through
    /// `dial`, with disabled instruments.
    pub fn new(replicas: Vec<ReplicaInfo>, dial: Arc<dyn Dial>) -> Self {
        assert!(!replicas.is_empty(), "a metalog needs at least one replica");
        Self {
            replicas: RwLock::new(replicas),
            dial,
            conns: Mutex::new(HashMap::new()),
            metrics: MetaMetrics::default(),
        }
    }

    /// Binds this client's `meta.*` instruments in `registry`.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = MetaMetrics::from_registry(registry);
        self
    }

    /// This client's `meta.*` instrument bundle.
    pub fn metrics(&self) -> &MetaMetrics {
        &self.metrics
    }

    /// The client's current view of the replica set.
    pub fn replicas(&self) -> Vec<ReplicaInfo> {
        self.replicas.read().clone()
    }

    /// Replaces the client's replica view (e.g. after an out-of-band
    /// membership change). Prefer [`MetaClient::discover`], which asks the
    /// replicas themselves.
    pub fn set_replicas(&self, replicas: Vec<ReplicaInfo>) {
        assert!(!replicas.is_empty(), "a metalog needs at least one replica");
        let mut cur = self.replicas.write();
        self.conns.lock().retain(|id, _| replicas.iter().any(|r| r.id == *id));
        *cur = replicas;
    }

    /// Asks the replicas for their current peer list and adopts the first
    /// non-empty answer that differs from this client's view. Returns
    /// whether the view changed. Quorum rounds call this automatically
    /// before retrying, so clients ride through replica replacement.
    pub fn discover(&self) -> bool {
        for replica in self.replicas() {
            match self.call_replica(&replica, &MetaRequest::Peers) {
                Ok(MetaResponse::Peers(peers)) if !peers.is_empty() => {
                    if peers != *self.replicas.read() {
                        self.set_replicas(peers);
                        return true;
                    }
                    return false;
                }
                _ => continue,
            }
        }
        false
    }

    fn conn(&self, replica: &ReplicaInfo) -> Arc<dyn ClientConn> {
        let mut conns = self.conns.lock();
        if let Some(c) = conns.get(&replica.id) {
            return Arc::clone(c);
        }
        let c = self.dial.dial(replica);
        conns.insert(replica.id, Arc::clone(&c));
        c
    }

    /// One replica round trip. Transport failures drop the cached
    /// connection (the next attempt re-dials) and count as a failover.
    fn call_replica(&self, replica: &ReplicaInfo, req: &MetaRequest) -> Result<MetaResponse> {
        let conn = self.conn(replica);
        match conn.call(&encode_to_vec(req)) {
            Ok(bytes) => {
                let detail = match decode_from_slice::<MetaResponse>(&bytes)? {
                    // Our encoder cannot emit a malformed request, so this
                    // means the frame was corrupted in transit.
                    MetaResponse::ErrMalformed { reason } => {
                        format!("request rejected as malformed: {reason}")
                    }
                    // One replica's disk, not the metalog, failed.
                    MetaResponse::ErrStorage { reason } => format!("store failed: {reason}"),
                    resp => return Ok(resp),
                };
                // Retriable, and counted as a failover like any other
                // per-replica fault.
                self.metrics.failovers.inc();
                Err(MetaError::Unreachable { replica: replica.id, detail })
            }
            Err(e) => {
                self.conns.lock().remove(&replica.id);
                self.metrics.failovers.inc();
                Err(MetaError::Unreachable { replica: replica.id, detail: e.to_string() })
            }
        }
    }

    /// Runs `round` with bounded exponential-backoff retry on quorum loss,
    /// re-discovering the replica set between rounds.
    fn with_quorum_retry<T>(&self, mut round: impl FnMut() -> Result<Round<T>>) -> Result<T> {
        let mut backoff = QUORUM_BACKOFF_BASE;
        let mut last = (0usize, 0usize);
        for attempt in 0..=QUORUM_RETRIES {
            match round()? {
                Round::Done(v) => return Ok(v),
                Round::NoQuorum { reachable, needed } => {
                    last = (reachable, needed);
                    if attempt < QUORUM_RETRIES {
                        self.metrics.retries.inc();
                        self.dial.clock().sleep(backoff);
                        backoff = (backoff * 2).min(QUORUM_BACKOFF_MAX);
                        // A replaced replica set is the common cause of a
                        // lost quorum; pick it up before trying again.
                        self.discover();
                    }
                }
            }
        }
        Err(MetaError::QuorumUnavailable { reachable: last.0, needed: last.1 })
    }

    /// Proposes `record` at `pos`. `Ok(None)` means this record was
    /// installed; `Ok(Some(winner))` means write-once arbitration picked a
    /// different record (read your own winner back from it).
    pub fn propose_at(&self, pos: Position, record: Bytes) -> Result<Option<Bytes>> {
        let outcome = self.with_quorum_retry(|| self.propose_round(pos, &record))?;
        // The journal records what the quorum decided at this position:
        // detail 1 = our record installed, 0 = an incumbent won arbitration.
        match &outcome {
            None => {
                self.metrics.installs.inc();
                self.metrics.events.emit(tango_metrics::EventKind::ProjectionInstalled, pos, 0, 1);
            }
            Some(_) => {
                self.metrics.events.emit(tango_metrics::EventKind::ProjectionInstalled, pos, 0, 0);
            }
        }
        Ok(outcome)
    }

    fn propose_round(&self, pos: Position, record: &Bytes) -> Result<Round<Option<Bytes>>> {
        let replicas = self.replicas();
        let needed = quorum(replicas.len());
        // The value being replicated; switches to the incumbent if we lose
        // arbitration before any replica accepted ours.
        let mut value = record.clone();
        let mut winner: Option<Bytes> = None;
        let mut acks = 0usize;
        let mut reachable = 0usize;
        for replica in &replicas {
            match self.call_replica(replica, &MetaRequest::Write { pos, record: value.clone() }) {
                Ok(MetaResponse::Ok) => {
                    reachable += 1;
                    acks += 1;
                }
                Ok(MetaResponse::AlreadyWritten(existing)) => {
                    reachable += 1;
                    if acks == 0 {
                        // Lost at the arbitrating replica: adopt the
                        // incumbent and help copy it forward.
                        winner = Some(existing.clone());
                        value = existing;
                        acks = 1;
                    }
                    // With acks > 0 a lower-indexed replica already accepted
                    // our value; keep pushing it — the majority decides, and
                    // write-once cells guarantee at most one value can ever
                    // reach it.
                }
                Ok(other) => {
                    return Err(MetaError::Protocol(format!(
                        "replica {} answered write with {other:?}",
                        replica.id
                    )))
                }
                Err(MetaError::Unreachable { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if acks >= needed {
            Ok(Round::Done(winner))
        } else {
            Ok(Round::NoQuorum { reachable, needed })
        }
    }

    /// Quorum-reads the record decided at `pos`: `Some(record)` once a
    /// majority holds one value, `None` if a majority answered and none of
    /// them has the position. A half-written position (its proposer died
    /// mid-flight) is repaired on the way: the record from the
    /// lowest-indexed written replica is copied to unwritten ones until a
    /// majority holds it.
    pub fn read_decided(&self, pos: Position) -> Result<Option<Bytes>> {
        self.with_quorum_retry(|| self.read_round(pos))
    }

    fn read_round(&self, pos: Position) -> Result<Round<Option<Bytes>>> {
        let replicas = self.replicas();
        let needed = quorum(replicas.len());
        let mut written: Vec<(usize, Bytes)> = Vec::new();
        let mut unwritten: Vec<usize> = Vec::new();
        for (idx, replica) in replicas.iter().enumerate() {
            match self.call_replica(replica, &MetaRequest::Read { pos }) {
                Ok(MetaResponse::Record(rec)) => written.push((idx, rec)),
                Ok(MetaResponse::Unwritten) => unwritten.push(idx),
                Ok(other) => {
                    return Err(MetaError::Protocol(format!(
                        "replica {} answered read with {other:?}",
                        replica.id
                    )))
                }
                Err(MetaError::Unreachable { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        let reachable = written.len() + unwritten.len();
        // Decided already?
        for (_, candidate) in &written {
            if written.iter().filter(|(_, r)| r == candidate).count() >= needed {
                return Ok(Round::Done(Some(candidate.clone())));
            }
        }
        if reachable < needed {
            return Ok(Round::NoQuorum { reachable, needed });
        }
        if written.is_empty() {
            // A majority answered and none has the position.
            return Ok(Round::Done(None));
        }
        // Half-written: complete the record from the lowest-indexed holder
        // (the arbitration rule writers follow), like data-plane chain
        // repair. Write-once cells make this race-safe against concurrent
        // proposers and other repairers.
        let value = written.iter().min_by_key(|(idx, _)| *idx).expect("non-empty").1.clone();
        let mut acks = written.iter().filter(|(_, r)| *r == value).count();
        let mut repaired = 0u64;
        for &idx in &unwritten {
            if acks >= needed {
                break;
            }
            match self
                .call_replica(&replicas[idx], &MetaRequest::Write { pos, record: value.clone() })
            {
                Ok(MetaResponse::Ok) => {
                    self.metrics.catchup_reads.inc();
                    repaired += 1;
                    acks += 1;
                }
                Ok(MetaResponse::AlreadyWritten(existing)) if existing == value => acks += 1,
                _ => {}
            }
        }
        if repaired > 0 {
            self.metrics.events.emit(tango_metrics::EventKind::QuorumRepair, pos, 0, repaired);
        }
        if acks >= needed {
            Ok(Round::Done(Some(value)))
        } else {
            Ok(Round::NoQuorum { reachable, needed })
        }
    }

    /// The highest decided position and its record, in one round when a
    /// majority agrees: replicas are asked in list order for their tail and
    /// the record below it until a majority has answered, and if all of
    /// them report one tail `t` and one record, that record is decided at
    /// `t - 1` — a majority holds it — and nothing above it is, since a
    /// decided position's majority meets this one. Otherwise tails are
    /// gathered from a majority and positions below the maximum tail that
    /// turn out undecided (a proposer died before any replica accepted) are
    /// skipped downward, half-written ones repaired on the way. So a stray
    /// record held only by replicas outside the majority that answered
    /// reads as undecided, as it does while its holders are unreachable.
    pub fn latest(&self) -> Result<(Position, Bytes)> {
        if let Some(agreed) = self.agreed_latest() {
            return Ok(agreed);
        }
        let max_tail = self.with_quorum_retry(|| self.tail_round())?;
        if max_tail == 0 {
            return Err(MetaError::Empty);
        }
        for pos in (0..max_tail).rev() {
            if let Some(record) = self.read_decided(pos)? {
                return Ok((pos, record));
            }
        }
        Err(MetaError::Empty)
    }

    /// The one-round answer of [`MetaClient::latest`]: `None` unless the
    /// first majority to answer agrees on a tail above 0 and its record.
    fn agreed_latest(&self) -> Option<(Position, Bytes)> {
        let replicas = self.replicas();
        let needed = quorum(replicas.len());
        let mut agreed: Option<(Position, Bytes)> = None;
        let mut answered = 0;
        for replica in &replicas {
            match self.call_replica(replica, &MetaRequest::Latest) {
                Ok(MetaResponse::Latest { tail, record }) if tail > 0 => {
                    match &agreed {
                        Some(first) if first.0 != tail || first.1 != record => return None,
                        Some(_) => {}
                        None => agreed = Some((tail, record)),
                    }
                    answered += 1;
                    if answered == needed {
                        return agreed.map(|(tail, record)| (tail - 1, record));
                    }
                }
                Err(MetaError::Unreachable { .. }) => {}
                _ => return None,
            }
        }
        None
    }

    fn tail_round(&self) -> Result<Round<Position>> {
        let replicas = self.replicas();
        let needed = quorum(replicas.len());
        let mut tails = Vec::new();
        for replica in &replicas {
            match self.call_replica(replica, &MetaRequest::Tail) {
                Ok(MetaResponse::Tail(t)) => tails.push(t),
                Ok(other) => {
                    return Err(MetaError::Protocol(format!(
                        "replica {} answered tail with {other:?}",
                        replica.id
                    )))
                }
                Err(MetaError::Unreachable { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if tails.len() >= needed {
            Ok(Round::Done(tails.into_iter().max().unwrap_or(0)))
        } else {
            Ok(Round::NoQuorum { reachable: tails.len(), needed })
        }
    }

    /// Copies every decided record onto the replica behind `target` (a
    /// fresh replacement catching up, or a stale rejoiner). Returns how
    /// many records were copied. Write-once cells make this idempotent and
    /// race-safe against live proposals.
    pub fn catch_up(&self, target: &Arc<dyn ClientConn>) -> Result<u64> {
        let (latest, _) = self.latest()?;
        let mut copied = 0u64;
        for pos in 0..=latest {
            let Some(record) = self.read_decided(pos)? else { continue };
            let resp = target
                .call(&encode_to_vec(&MetaRequest::Write { pos, record }))
                .map_err(|e| MetaError::Protocol(format!("catch-up target unreachable: {e}")))?;
            match decode_from_slice::<MetaResponse>(&resp)? {
                MetaResponse::Ok => {
                    self.metrics.catchup_reads.inc();
                    copied += 1;
                }
                MetaResponse::AlreadyWritten(_) => {}
                other => {
                    return Err(MetaError::Protocol(format!("catch-up write answered {other:?}")))
                }
            }
        }
        if copied > 0 {
            self.metrics.events.emit(tango_metrics::EventKind::QuorumRepair, latest, 0, copied);
        }
        Ok(copied)
    }

    /// Installs `peers` as the replica-set view on every reachable replica
    /// in `peers` (operations plane: run after replacing a crashed
    /// replica), then adopts it locally.
    pub fn install_peers(&self, peers: Vec<ReplicaInfo>) -> Result<()> {
        assert!(!peers.is_empty(), "a metalog needs at least one replica");
        let mut reached = 0usize;
        for replica in &peers {
            if let Ok(MetaResponse::Ok) =
                self.call_replica(replica, &MetaRequest::SetPeers(peers.clone()))
            {
                reached += 1;
            }
        }
        let needed = quorum(peers.len());
        if reached < needed {
            return Err(MetaError::QuorumUnavailable { reachable: reached, needed });
        }
        self.set_replicas(peers);
        Ok(())
    }
}
