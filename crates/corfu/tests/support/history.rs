//! What a schedule's clients did, and one checker that judges it.
//!
//! A [`Recorder`] records each call a schedule makes as an invocation and a
//! completion on the schedule's clock ([`Recorder::invoke`],
//! [`Recorder::complete`], or both around one call with
//! [`Recorder::record`]). A [`History`] records the calls to the log — an
//! append, a `write_at`, a read, a fill, a trim, a stream replay;
//! [`History::client`] wraps a client so that its log calls record
//! themselves. The object suites record transactions and reads in a
//! recorder made [`Recorder::beside`] the history, so one sequence counter
//! orders both.
//!
//! At the end, [`History::judge`] reads every address of every storage
//! replica the installed projection names straight from the server — no
//! client, so nothing is repaired or filled on the way — and holds the
//! history to what they hold:
//!
//! - an offset never reads two values, across epochs, replacements,
//!   replicas and clients, and a replica nearer the head of its chain holds
//!   whatever one nearer the tail does;
//! - a value a client was told of — an acked append or write, a read or
//!   fill that returned data or junk — is on every replica, unless a trim
//!   took it; a filled offset reads junk forever, and a filler that saw data
//!   saw the winner's bytes;
//! - a write told its token was lost never landed: no replica holds its
//!   body and no client saw it;
//! - a trim that completed, or a read that saw the offset trimmed, leaves it
//!   trimmed on every replica and for every later read;
//! - an acked append's entry belongs to the streams it was appended to, and
//!   each stream's acked entries point back at the stream's acked entries
//!   just before them, newest first, less offsets that never landed;
//! - an append lands once: one log's entries carry its payload at one
//!   offset (a cross-log append has one part a log), and no two appends or
//!   writes are told they landed at the same offset;
//! - a cross-log append whose home part holds its link holds it on every
//!   part;
//! - a stream replay delivers the stream's entries in order, each once, and
//!   every acked one that no trim overlapping the replay took.
//!
//! The checks are the log's own order replayed, so no search over
//! interleavings is needed: real-time order comes from the sequence counter
//! that every invocation and completion steps, which on the simulated
//! transport (one thread runs at a time) is the order the calls happened in.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{Cluster, Transport};
use corfu::proto::{StorageRequest, StorageResponse};
use corfu::{
    compose, log_of_offset, raw_of_offset, CorfuClient, CorfuError, EntryEnvelope, LogOffset,
    NodeId, Page, Result, StreamId, MAX_READ_BATCH,
};
use tango_rpc::Clock;

/// A call to the log, as the checks read it.
type LogCall = Call<Op, Ret>;

/// A call a client made to the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `append_streams(streams, payload)`; a plain `append` has no streams.
    Append { streams: Vec<StreamId>, payload: Bytes },
    /// `write_at(offset, body)`.
    Write { offset: LogOffset, body: Bytes },
    /// A read of one offset (`read`, `wait_read`, one offset of `read_many`).
    Read { offset: LogOffset },
    /// `fill(offset)`.
    Fill { offset: LogOffset },
    /// `trim(offset)`.
    Trim { offset: LogOffset },
    /// `trim_prefix(horizon)`: every offset of the horizon's log below it.
    TrimPrefix { horizon: LogOffset },
    /// A replay of `stream` from its beginning.
    Replay { stream: StreamId },
}

/// What a log call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ret {
    /// An append's offset.
    Offset(LogOffset),
    /// What a read or fill found.
    Page(Page<Bytes>),
    /// A write or trim took.
    Done,
    /// A write was told another client owns its offset: its body never
    /// landed.
    TokenLost,
    /// The offsets a replay delivered, in delivery order.
    Delivered(Vec<LogOffset>),
    /// The call failed: whether it took effect is unknown.
    Failed(String),
}

impl Ret {
    /// What a log call that returned `result` returned: `ok` of its value,
    /// or how it failed.
    pub fn of<T>(result: &Result<T>, ok: impl FnOnce(&T) -> Ret) -> Ret {
        match result {
            Ok(value) => ok(value),
            Err(CorfuError::TokenLost { .. }) => Ret::TokenLost,
            Err(e) => Ret::Failed(e.to_string()),
        }
    }
}

/// One call: who made it, what it was, and when it was invoked and
/// completed — in virtual time for the messages, in steps of the recorder's
/// sequence counter for real-time order.
#[derive(Debug, Clone)]
pub struct Call<O, R> {
    pub client: String,
    pub op: O,
    pub at: Duration,
    pub invoked: u64,
    /// Completion step and result; `None` for a call that never returned.
    pub done: Option<(u64, R)>,
}

impl<O, R> Call<O, R> {
    /// The call completed before `other` was invoked.
    pub fn precedes(&self, other: &Self) -> bool {
        self.done.as_ref().is_some_and(|(step, _)| *step < other.invoked)
    }

    pub fn ret(&self) -> Option<&R> {
        self.done.as_ref().map(|(_, ret)| ret)
    }
}

impl fmt::Display for Call<Op, Ret> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match &self.op {
            Op::Append { streams, payload } => format!("append {} to {streams:?}", show(payload)),
            Op::Write { offset, body } => format!("write {} at {offset}", show(body)),
            Op::Read { offset } => format!("read of {offset}"),
            Op::Fill { offset } => format!("fill of {offset}"),
            Op::Trim { offset } => format!("trim of {offset}"),
            Op::TrimPrefix { horizon } => format!("trim below {horizon}"),
            Op::Replay { stream } => format!("replay of stream {stream}"),
        };
        write!(f, "{}'s {op} (invoked at {:?})", self.client, self.at)
    }
}

/// Names a call in progress, for [`Recorder::complete`].
#[must_use]
pub struct CallId(usize);

/// The calls of type `O`, returning `R`, that a schedule's clients made,
/// shared by every thread of the schedule. Recorders made [`beside`] one
/// another share its clock and sequence counter, so calls of different
/// types are ordered against each other too.
///
/// [`beside`]: Recorder::beside
pub struct Recorder<O, R> {
    clock: Clock,
    start: Instant,
    steps: Arc<AtomicU64>,
    calls: Arc<Mutex<Vec<Call<O, R>>>>,
}

/// The calls to the log.
pub type History = Recorder<Op, Ret>;

impl<O, R> Clone for Recorder<O, R> {
    fn clone(&self) -> Self {
        Self {
            clock: self.clock.clone(),
            start: self.start,
            steps: Arc::clone(&self.steps),
            calls: Arc::clone(&self.calls),
        }
    }
}

impl<O, R> Recorder<O, R> {
    /// An empty recorder whose calls are timed on `clock`.
    pub fn new(clock: Clock) -> Self {
        let start = clock.now();
        Self { clock, start, steps: Arc::default(), calls: Arc::default() }
    }

    /// An empty recorder of other calls, on this one's clock and counter.
    pub fn beside<P, S>(&self) -> Recorder<P, S> {
        let (clock, start, steps) = (self.clock.clone(), self.start, Arc::clone(&self.steps));
        Recorder { clock, start, steps, calls: Arc::default() }
    }

    /// `client` invokes `op`.
    pub fn invoke(&self, client: &str, op: O) -> CallId {
        let at = self.clock.now() - self.start;
        let mut calls = self.calls.lock().unwrap();
        let invoked = self.steps.fetch_add(1, Ordering::SeqCst) + 1;
        calls.push(Call { client: client.to_owned(), op, at, invoked, done: None });
        CallId(calls.len() - 1)
    }

    /// The call `id` names returned `ret`.
    pub fn complete(&self, id: CallId, ret: R) {
        let mut calls = self.calls.lock().unwrap();
        let step = self.steps.fetch_add(1, Ordering::SeqCst) + 1;
        calls[id.0].done = Some((step, ret));
    }

    /// Runs `call` as `client`'s `op`, recording what `ret` makes of its
    /// result.
    pub fn record<T>(
        &self,
        client: &str,
        op: O,
        call: impl FnOnce() -> T,
        ret: impl FnOnce(&T) -> R,
    ) -> T {
        let id = self.invoke(client, op);
        let result = call();
        self.complete(id, ret(&result));
        result
    }

    /// The calls so far.
    pub fn calls(&self) -> MutexGuard<'_, Vec<Call<O, R>>> {
        self.calls.lock().unwrap()
    }
}

/// Panics with `violations`, the ways a history of `what` fails its checks,
/// if there are any.
pub fn verdict(what: &str, violations: &[String]) {
    if !violations.is_empty() {
        let shown = violations.len().min(20);
        panic!(
            "the {what} history fails {} check(s):\n{}",
            violations.len(),
            violations[..shown].join("\n")
        );
    }
}

impl History {
    /// `client`, under `name`, with its log calls recorded here.
    pub fn client(&self, name: &str, client: CorfuClient) -> Recorded {
        Recorded { name: name.into(), client, history: self.clone() }
    }

    /// Reads every replica of `cluster` and panics with every way the
    /// history fails to match it; returns what the replicas hold.
    pub fn judge<T: Transport>(&self, cluster: &Cluster<T>) -> Log {
        let log = Log::scan(cluster);
        verdict("log", &self.violations(&log));
        log
    }

    /// Every way the history fails to match `log`.
    pub fn violations(&self, log: &Log) -> Vec<String> {
        let calls = self.calls();
        let mut out = Vec::new();
        one_value_per_offset(&calls, log, &mut out);
        told_values_stay(&calls, log, &mut out);
        lost_tokens_never_land(&calls, log, &mut out);
        trims_stay(&calls, log, &mut out);
        appends_join_their_streams(&calls, log, &mut out);
        appends_land_once(&calls, log, &mut out);
        offsets_are_acked_once(&calls, &mut out);
        cross_log_appends_are_whole(log, &mut out);
        replays_deliver_the_stream(&calls, log, &mut out);
        out
    }
}

/// What every storage replica of the installed projection holds, offset by
/// offset, each offset's replicas in chain order (head first).
#[derive(Debug, Default, Clone)]
pub struct Log {
    chains: BTreeMap<LogOffset, Vec<(NodeId, Page<Bytes>)>>,
    /// The entry each offset that holds data holds, decoded once.
    entries: BTreeMap<LogOffset, EntryEnvelope>,
}

impl Log {
    /// The log whose offsets' replicas hold `chains`.
    pub fn new(chains: BTreeMap<LogOffset, Vec<(NodeId, Page<Bytes>)>>) -> Log {
        let mut log = Log { chains, entries: BTreeMap::new() };
        for &offset in log.chains.keys() {
            if let Page::Data(bytes) = log.value(offset) {
                if let Ok(entry) = EntryEnvelope::decode(&bytes, offset) {
                    log.entries.insert(offset, entry);
                }
            }
        }
        log
    }

    /// Reads every address below the highest local tail of each chain, on
    /// every node of the chain, straight from its server: no client, so no
    /// repair.
    pub fn scan<T: Transport>(cluster: &Cluster<T>) -> Log {
        // The metadata plane may be lossy in the schedule; a dropped call
        // is retried.
        let proj = (0..1000)
            .find_map(|_| cluster.layout_client().get().ok())
            .expect("the installed projection is readable");
        let mut chains = BTreeMap::new();
        for (id, layout) in proj.logs.iter().enumerate() {
            for (set, chain) in layout.replica_sets.iter().enumerate() {
                let nodes: Vec<_> = chain
                    .iter()
                    .map(|&node| {
                        let server = cluster
                            .storage_server(node)
                            .or_else(|| cluster.storage().get(node as usize).cloned())
                            .unwrap_or_else(|| panic!("storage node {node} has no server"));
                        (node, server)
                    })
                    .collect();
                let ask = |server: &corfu::StorageServer,
                           request: &dyn Fn(u64) -> StorageRequest| {
                    let mut epoch = layout.epoch;
                    loop {
                        match server.process(request(epoch)) {
                            StorageResponse::ErrSealed { epoch: sealed } if sealed != epoch => {
                                epoch = sealed
                            }
                            other => return other,
                        }
                    }
                };
                let tail = nodes
                    .iter()
                    .map(|(node, server)| {
                        match ask(server, &|epoch| StorageRequest::LocalTail { epoch }) {
                            StorageResponse::Tail(tail) => tail,
                            other => panic!("local tail of node {node}: {other:?}"),
                        }
                    })
                    .max()
                    .unwrap_or(0);
                // Batches of addresses, each one request a node.
                let addrs: Vec<u64> = (0..tail).collect();
                for batch in addrs.chunks(MAX_READ_BATCH) {
                    let mut pages: Vec<Vec<(NodeId, Page<Bytes>)>> = vec![Vec::new(); batch.len()];
                    for (node, server) in &nodes {
                        let read =
                            |epoch| StorageRequest::ReadBatch { epoch, addrs: batch.to_vec() };
                        let StorageResponse::BatchOutcomes(read) = ask(server, &read) else {
                            panic!("read of {batch:?} on node {node} failed");
                        };
                        for (chain, page) in pages.iter_mut().zip(read) {
                            chain.push((*node, page));
                        }
                    }
                    for (&addr, chain) in batch.iter().zip(pages) {
                        chains.insert(compose(id as u32, layout.unmap(set, addr)), chain);
                    }
                }
            }
        }
        Log::new(chains)
    }

    /// The value `offset` holds: the data or junk on its replicas, else
    /// trimmed if a replica is, else unwritten.
    pub fn value(&self, offset: LogOffset) -> Page<Bytes> {
        let pages = self.chains.get(&offset).map(Vec::as_slice).unwrap_or_default();
        let written = pages.iter().find(|(_, page)| matches!(page, Page::Data(_) | Page::Junk));
        let trimmed = pages.iter().find(|(_, page)| *page == Page::Trimmed);
        written.or(trimmed).map_or(Page::Unwritten, |(_, page)| page.clone())
    }

    /// The entry at `offset`, if it holds one.
    pub fn entry(&self, offset: LogOffset) -> Option<&EntryEnvelope> {
        self.entries.get(&offset)
    }

    /// Whether `entry` is in the log: a part of a cross-log append is when
    /// the append's home part holds its link (the append committed); an
    /// entry with no link is by being there.
    pub fn committed(&self, entry: &EntryEnvelope) -> bool {
        let Some(link) = &entry.link else { return true };
        self.entry(link.home).is_some_and(|home| home.link.as_ref() == Some(link))
    }

    /// The entries that landed — those of a cross-log append only if it
    /// committed — in offset order.
    pub fn committed_entries(&self) -> impl Iterator<Item = (LogOffset, &EntryEnvelope)> {
        self.entries.iter().filter(|(_, e)| self.committed(e)).map(|(&offset, e)| (offset, e))
    }

    /// The home offsets of the cross-log appends that committed.
    pub fn committed_links(&self) -> BTreeSet<LogOffset> {
        self.entries
            .values()
            .filter_map(|entry| entry.link.as_ref().filter(|_| self.committed(entry)))
            .map(|link| link.home)
            .collect()
    }

    /// The offsets of the committed entries of `stream`, ascending.
    pub fn members(&self, stream: StreamId) -> Vec<LogOffset> {
        self.entries
            .iter()
            .filter(|(_, entry)| entry.belongs_to(stream) && self.committed(entry))
            .map(|(&offset, _)| offset)
            .collect()
    }
}

/// A page, short enough for a message.
fn show_page(page: &Page<Bytes>) -> String {
    match page {
        Page::Data(bytes) => format!("data {}", show(bytes)),
        other => format!("{other:?}").to_lowercase(),
    }
}

fn show(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(&bytes[bytes.len().saturating_sub(24)..]).into_owned();
    format!("{:?}{}", text, if bytes.len() > 24 { " (tail)" } else { "" })
}

/// Whether a trim call covers `offset`.
fn covers(op: &Op, offset: LogOffset) -> bool {
    match *op {
        Op::Trim { offset: trimmed } => trimmed == offset,
        Op::TrimPrefix { horizon } => {
            log_of_offset(horizon) == log_of_offset(offset)
                && raw_of_offset(offset) < raw_of_offset(horizon)
        }
        _ => false,
    }
}

/// The offset a call reads or writes, with the value it saw or wrote there.
fn told_value(call: &LogCall) -> Option<(LogOffset, Page<Bytes>)> {
    match (&call.op, call.ret()?) {
        (Op::Read { offset } | Op::Fill { offset }, Ret::Page(page))
            if matches!(page, Page::Data(_) | Page::Junk) =>
        {
            Some((*offset, page.clone()))
        }
        (Op::Write { offset, body }, Ret::Done) => Some((*offset, Page::Data(body.clone()))),
        _ => None,
    }
}

/// An offset holds one value: every replica and every client that saw data
/// or junk there saw the same. A replica nearer the head holds whatever one
/// nearer the tail does (the chain writes head first; a rebuilt node copies
/// from a surviving one).
fn one_value_per_offset(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    let written = |page: &Page<Bytes>| matches!(page, Page::Data(_) | Page::Junk);
    let mut two = |offset,
                   (first, by): (&Page<Bytes>, String),
                   (other, who): (&Page<Bytes>, String)| {
        let (first, other) = (show_page(first), show_page(other));
        out.push(format!("offset {offset} reads two values: {first} ({by}) and {other} ({who})"));
    };
    // The value a replica holds, else the first a client saw, is the one.
    let mut seen: BTreeMap<LogOffset, (Page<Bytes>, &LogCall)> = BTreeMap::new();
    for call in calls {
        let Some((offset, page)) = told_value(call) else { continue };
        let chain = log.chains.get(&offset).map(Vec::as_slice).unwrap_or_default();
        if let Some((node, held)) = chain.iter().find(|(_, held)| written(held)) {
            if *held != page {
                two(offset, (held, format!("replica {node}")), (&page, call.to_string()));
            }
        } else if let Some((first, by)) = seen.get(&offset) {
            if *first != page {
                two(offset, (first, by.to_string()), (&page, call.to_string()));
            }
        } else {
            seen.insert(offset, (page, call));
        }
    }
    for (&offset, chain) in &log.chains {
        let mut held = chain.iter().filter(|(_, page)| written(page));
        if let Some((first_node, first)) = held.next() {
            for (node, page) in held.filter(|(_, page)| page != first) {
                two(
                    offset,
                    (first, format!("replica {first_node}")),
                    (page, format!("replica {node}")),
                );
            }
        }
    }
    for (&offset, chain) in &log.chains {
        for (ahead, behind) in chain.iter().zip(chain.iter().skip(1)) {
            if ahead.1 == Page::Unwritten && matches!(behind.1, Page::Data(_) | Page::Junk) {
                out.push(format!(
                    "offset {offset}: replica {} holds {} but replica {}, ahead of it in the \
                     chain, is unwritten",
                    behind.0,
                    show_page(&behind.1),
                    ahead.0
                ));
            }
        }
    }
}

/// A value a client was told of is on every replica, unless a trim took it:
/// no acked append or write is lost, a fill's junk stays junk, a read's data
/// stays.
fn told_values_stay(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    let trims: Vec<&LogCall> = calls.iter().filter(|call| is_trim(&call.op)).collect();
    let trimmed = |offset| trims.iter().any(|trim| covers(&trim.op, offset));
    for call in calls {
        // An acked append's page is an entry carrying the payload; anything
        // else told is the very page.
        let (offset, told) = match (&call.op, call.ret()) {
            (Op::Append { payload, .. }, Some(Ret::Offset(offset))) => {
                let entry = log.entry(*offset).filter(|entry| entry.payload == *payload);
                (*offset, entry.map(|_| log.value(*offset)))
            }
            _ => match told_value(call) {
                Some((offset, page)) => (offset, Some(page)),
                None => continue,
            },
        };
        let chain = log.chains.get(&offset).map(Vec::as_slice).unwrap_or_default();
        if chain.is_empty() && !trimmed(offset) {
            out.push(format!("{call} at {offset}: lost, no replica holds the offset"));
        }
        for (node, page) in chain {
            let taken = *page == Page::Trimmed && trimmed(offset);
            if !(told.as_ref() == Some(page) || taken) {
                let held = show_page(page);
                out.push(format!("{call} at {offset}: lost, replica {node} holds {held}"));
            }
        }
    }
}

/// A write told its token was lost never landed: another client owns the
/// offset, so no replica holds the write's body and no client saw it there.
fn lost_tokens_never_land(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    for call in calls {
        let (Op::Write { offset, body }, Some(Ret::TokenLost)) = (&call.op, call.ret()) else {
            continue;
        };
        let landed = Page::Data(body.clone());
        let chain = log.chains.get(offset).map(Vec::as_slice).unwrap_or_default();
        if let Some((node, _)) = chain.iter().find(|(_, page)| *page == landed) {
            out.push(format!("{call} was told its token was lost; replica {node} holds its body"));
        }
        for seen in calls.iter().filter(|seen| told_value(seen) == Some((*offset, landed.clone())))
        {
            out.push(format!("{call} was told its token was lost; {seen} saw its body"));
        }
    }
}

fn is_trim(op: &Op) -> bool {
    matches!(op, Op::Trim { .. } | Op::TrimPrefix { .. })
}

/// A trim that completed, or a read that saw the offset trimmed, leaves it
/// trimmed on every replica and for every read invoked after it.
fn trims_stay(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    let trims: Vec<&LogCall> = calls.iter().filter(|call| is_trim(&call.op)).collect();
    let mut reads: BTreeMap<LogOffset, Vec<&LogCall>> = BTreeMap::new();
    for call in calls {
        if let Op::Read { offset } = call.op {
            reads.entry(offset).or_default().push(call);
        }
    }
    for (offset, chain) in &log.chains {
        let reads = reads.get(offset).map(Vec::as_slice).unwrap_or_default();
        let done = trims.iter().find(|t| covers(&t.op, *offset) && t.ret() == Some(&Ret::Done));
        let seen = reads.iter().find(|read| read.ret() == Some(&Ret::Page(Page::Trimmed)));
        let Some(trim) = done.or(seen) else {
            if let Some((node, _)) = chain.iter().find(|(_, page)| *page == Page::Trimmed) {
                if !trims.iter().any(|trim| covers(&trim.op, *offset)) {
                    out.push(format!("offset {offset} is trimmed on replica {node}, by no trim"));
                }
            }
            continue;
        };
        for (node, page) in chain.iter().filter(|(_, page)| *page != Page::Trimmed) {
            let held = show_page(page);
            out.push(format!("offset {offset} after {trim}: replica {node} holds {held}"));
        }
        for read in reads.iter().filter(|read| trim.precedes(read)) {
            if let Some(Ret::Page(page)) =
                read.ret().filter(|ret| **ret != Ret::Page(Page::Trimmed))
            {
                out.push(format!("{read} found {} after {trim}", show_page(page)));
            }
        }
    }
}

/// The offsets at which the entry of an acked append lies, with the entry:
/// one, or one per part of a cross-log append. `None` where a trim took it.
fn landed(log: &Log, offset: LogOffset) -> Option<Vec<(LogOffset, &EntryEnvelope)>> {
    let entry = log.entry(offset)?;
    match &entry.link {
        None => Some(vec![(offset, entry)]),
        Some(link) => link.parts.iter().map(|&part| Some((part, log.entry(part)?))).collect(),
    }
}

/// Each acked append belongs to exactly the streams it was appended to. Per
/// stream, in the order the appends were acked, each entry's backpointers
/// less the offsets that never landed in the stream are the stream's acked
/// entries just before it, newest first.
fn appends_join_their_streams(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    let mut acked: Vec<(u64, &LogCall, LogOffset)> = calls
        .iter()
        .filter_map(|call| match (&call.op, &call.done) {
            (Op::Append { .. }, Some((step, Ret::Offset(offset)))) => Some((*step, call, *offset)),
            _ => None,
        })
        .collect();
    acked.sort_by_key(|&(step, _, _)| step);
    let mut streams: BTreeMap<StreamId, Vec<(LogOffset, Option<&EntryEnvelope>)>> = BTreeMap::new();
    for &(_, call, offset) in &acked {
        let Op::Append { streams: asked, .. } = &call.op else { unreachable!() };
        let set = |streams: &mut Vec<StreamId>| {
            streams.sort_unstable();
            streams.dedup();
        };
        let mut asked = asked.clone();
        set(&mut asked);
        match landed(log, offset) {
            Some(parts) => {
                let mut joined: Vec<StreamId> =
                    parts.iter().flat_map(|(_, e)| e.headers.iter().map(|h| h.stream)).collect();
                set(&mut joined);
                if joined != asked {
                    out.push(format!("{call} at {offset}: the entry belongs to {joined:?}"));
                }
                for (part, entry) in parts {
                    for header in &entry.headers {
                        streams.entry(header.stream).or_default().push((part, Some(entry)));
                    }
                }
            }
            // Trimmed: in the stream at its ack offset, if in one log.
            None => {
                for &stream in &asked {
                    streams.entry(stream).or_default().push((offset, None));
                }
            }
        }
    }
    for (stream, members) in streams {
        let acked: BTreeSet<LogOffset> = members.iter().map(|(offset, _)| *offset).collect();
        for (i, (offset, entry)) in members.iter().enumerate() {
            let Some(header) = entry.and_then(|e| e.header_for(stream)) else { continue };
            let landed: Vec<LogOffset> =
                header.backpointers.iter().copied().filter(|b| acked.contains(b)).collect();
            let newest = members[..i].iter().rev().take(landed.len()).map(|(b, _)| *b);
            if !landed.iter().copied().eq(newest.clone()) {
                let newest: Vec<LogOffset> = newest.collect();
                out.push(format!(
                    "stream {stream}'s entry {i} at {offset} points back at {landed:?}, not at \
                     the stream's newest acked entries {newest:?}"
                ));
            }
        }
    }
}

/// An append lands once: a log's committed entries carry a recorded
/// append's payload at no more offsets than appends of it may have landed in
/// that log — the acked ones whose entry is there (a cross-log append has one
/// part a log; the bodies of an attempt whose home part was lost are not
/// committed), and those whose outcome or entry is unknown.
fn appends_land_once(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    // Per payload: its appends, and per log (`None`: any) how many of them
    // may have landed there.
    let mut appends: BTreeMap<&[u8], Vec<&LogCall>> = BTreeMap::new();
    let mut may_land: BTreeMap<(&[u8], Option<u32>), usize> = BTreeMap::new();
    for call in calls {
        let Op::Append { payload, .. } = &call.op else { continue };
        appends.entry(payload).or_default().push(call);
        let entry = match call.ret() {
            Some(Ret::Offset(offset)) => log.entry(*offset).map(|entry| (*offset, entry)),
            _ => None,
        };
        let logs: Vec<Option<u32>> = match entry {
            None => vec![None],
            Some((offset, entry)) => match &entry.link {
                None => vec![Some(log_of_offset(offset))],
                Some(link) => link.parts.iter().map(|&part| Some(log_of_offset(part))).collect(),
            },
        };
        for at in logs {
            *may_land.entry((payload, at)).or_default() += 1;
        }
    }
    let mut held: BTreeMap<(u32, &[u8]), Vec<LogOffset>> = BTreeMap::new();
    for (offset, entry) in log.committed_entries() {
        if appends.contains_key(&entry.payload[..]) {
            held.entry((log_of_offset(offset), &entry.payload)).or_default().push(offset);
        }
    }
    for ((at, payload), offsets) in held {
        let count = |at| may_land.get(&(payload, at)).copied().unwrap_or(0);
        if offsets.len() > count(Some(at)) + count(None) {
            out.push(format!("{} landed at {offsets:?}", appends[payload][0]));
        }
    }
}

/// An offset is acked once: no two appends or writes were told they landed
/// at the same offset (a cross-log append is told its home part's).
fn offsets_are_acked_once(calls: &[LogCall], out: &mut Vec<String>) {
    let mut acked: BTreeMap<LogOffset, &LogCall> = BTreeMap::new();
    for call in calls {
        let offset = match (&call.op, call.ret()) {
            (Op::Append { .. }, Some(Ret::Offset(offset))) => *offset,
            (Op::Write { offset, .. }, Some(Ret::Done)) => *offset,
            _ => continue,
        };
        if let Some(first) = acked.insert(offset, call) {
            out.push(format!("{first} and {call} were both told they landed at {offset}"));
        }
    }
}

/// A cross-log append whose home part holds its link holds it on every
/// part: all or nothing.
fn cross_log_appends_are_whole(log: &Log, out: &mut Vec<String>) {
    let mut checked = BTreeSet::new();
    for entry in log.entries.values() {
        let Some(link) = &entry.link else { continue };
        if !log.committed(entry) || !checked.insert(link.home) {
            continue;
        }
        for &part in &link.parts {
            let holds = log.entry(part).is_some_and(|e| e.link.as_ref() == Some(link));
            if !holds && log.value(part) != Page::Trimmed {
                out.push(format!(
                    "the cross-log append committed at {} is torn: part {part} holds {}",
                    link.home,
                    show_page(&log.value(part))
                ));
            }
        }
    }
}

/// A replay delivers entries of the stream only, in offset order, each
/// once, and every acked one that no trim invoked before the replay ended
/// took.
fn replays_deliver_the_stream(calls: &[LogCall], log: &Log, out: &mut Vec<String>) {
    for replay in calls {
        let (Op::Replay { stream }, Some(Ret::Delivered(delivered))) = (&replay.op, replay.ret())
        else {
            continue;
        };
        let mut acked = BTreeSet::new();
        for call in calls {
            if let (Op::Append { streams, .. }, Some(Ret::Offset(offset))) = (&call.op, call.ret())
            {
                if streams.contains(stream) {
                    match landed(log, *offset) {
                        Some(parts) => acked.extend(
                            parts.iter().filter(|(_, e)| e.belongs_to(*stream)).map(|(p, _)| *p),
                        ),
                        None => drop(acked.insert(*offset)),
                    }
                }
            }
        }
        let members: BTreeSet<LogOffset> =
            log.members(*stream).into_iter().chain(acked.iter().copied()).collect();
        if let Some(w) = delivered.windows(2).find(|w| w[0] >= w[1]) {
            out.push(format!("{replay} delivered {} before {}", w[0], w[1]));
        }
        if let Some(stray) = delivered.iter().find(|offset| !members.contains(offset)) {
            out.push(format!("{replay} delivered {stray}, not an entry of the stream"));
        }
        let trims: Vec<&LogCall> = calls.iter().filter(|call| is_trim(&call.op)).collect();
        let overlapping =
            |offset| trims.iter().any(|trim| covers(&trim.op, offset) && !replay.precedes(trim));
        let delivered: BTreeSet<LogOffset> = delivered.iter().copied().collect();
        if let Some(lost) = acked.iter().find(|&&o| !delivered.contains(&o) && !overlapping(o)) {
            out.push(format!("{replay} lost the acked entry at {lost}, which no trim took"));
        }
    }
}

/// A client whose log calls record themselves in a [`History`]. A call it
/// does not record goes to the client by name, through
/// [`Recorded::unrecorded`].
#[derive(Clone)]
pub struct Recorded {
    name: Arc<str>,
    client: CorfuClient,
    history: History,
}

impl Recorded {
    fn record<T>(
        &self,
        op: Op,
        call: impl FnOnce(&CorfuClient) -> Result<T>,
        ret: impl FnOnce(&T) -> Ret,
    ) -> Result<T> {
        self.history.record(&self.name, op, || call(&self.client), |result| Ret::of(result, ret))
    }

    /// The client, for calls the checker does not judge: tokens,
    /// projections, tails.
    pub fn unrecorded(&self) -> &CorfuClient {
        &self.client
    }

    pub fn append(&self, payload: Bytes) -> Result<LogOffset> {
        self.append_streams(&[], payload).map(|(offset, _)| offset)
    }

    pub fn append_streams(
        &self,
        streams: &[StreamId],
        payload: Bytes,
    ) -> Result<(LogOffset, EntryEnvelope)> {
        let op = Op::Append { streams: streams.to_vec(), payload: payload.clone() };
        self.record(op, |c| c.append_streams(streams, payload), |(offset, _)| Ret::Offset(*offset))
    }

    pub fn write_at(&self, offset: LogOffset, body: &[u8]) -> Result<()> {
        let op = Op::Write { offset, body: Bytes::copy_from_slice(body) };
        self.record(op, |c| c.write_at(offset, body), |_| Ret::Done)
    }

    pub fn read(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        self.record(Op::Read { offset }, |c| c.read(offset), |page| Ret::Page(page.clone()))
    }

    pub fn wait_read(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        self.record(Op::Read { offset }, |c| c.wait_read(offset), |page| Ret::Page(page.clone()))
    }

    pub fn fill(&self, offset: LogOffset) -> Result<Page<Bytes>> {
        self.record(Op::Fill { offset }, |c| c.fill(offset), |page| Ret::Page(page.clone()))
    }

    pub fn trim(&self, offset: LogOffset) -> Result<()> {
        self.record(Op::Trim { offset }, |c| c.trim(offset), |_| Ret::Done)
    }
}
