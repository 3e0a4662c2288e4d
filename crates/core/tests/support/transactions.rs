//! What clients of Tango objects did — transactions and plain updates with
//! what they wrote and were told, linearizable reads with what they saw —
//! recorded [`beside`] the log's [`History`], and the checker that judges it
//! against the log the raw-log checker scanned (`support::history` of the
//! corfu suites).
//!
//! The log is the serialization order, so the checker replays it rather
//! than searching interleavings:
//!
//! - **Transactions.** Each commit record is decided from the log alone: it
//!   commits unless a committed write to what it read lies between the
//!   version it read and its own position in that object's log (a cross-log
//!   commit: its part in that log). The decision agrees with every decision
//!   record in the log. Per write set, the commits the log applies are at
//!   least those whose clients were told "committed" and at most those plus
//!   the ones whose outcome is unknown, and every "aborted" a client was told
//!   has an aborted commit record, with the committed write that aborted it
//!   as its witness.
//! - **Objects.** The committed updates, in log order, go into a
//!   [`PlaybackModel`]. A read's value is the state the model gives at some
//!   prefix of the log that holds every committed record of a write that
//!   ended — told "committed" or not — before the read was invoked, and no
//!   more than the log held when it completed.
//!
//! Writes are matched to records by what they write, so a schedule records
//! every write to an object whose reads it records.
//!
//! Integration test binaries mount this beside the model (`model`) and the
//! corfu suites' support (`support`); not every binary uses every item.
//!
//! [`beside`]: Recorder::beside
//! [`History`]: crate::support::history::History
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use corfu::{log_of_offset, EntryEnvelope, LogOffset};
use tango::{ApplyMeta, LogRecord, ObjectView, Oid, ReadKey, StateMachine, TxId, TxStatus};
use tango_wire::decode_from_slice;

use crate::model::PlaybackModel;
use crate::support::history::{verdict, Call, Recorder};

/// One update: the object, its key, the buffer.
pub type Write = (Oid, Option<u64>, Bytes);

/// Decides, from the updates an object was delivered in order, whether a
/// read saw that state.
type Matches = Arc<dyn Fn(&[Bytes]) -> bool + Send + Sync>;

/// A call a client made to an object.
pub enum TxOp {
    /// A transaction's end, or a plain update: what it writes.
    Write(Vec<Write>),
    /// A linearizable read of `oid`.
    Read { oid: Oid },
}

/// What an object call returned.
pub enum TxRet {
    /// What a write was told.
    Told(Told),
    /// What a read saw, shown, and which states it matches.
    Saw { observed: String, matches: Matches },
}

/// What a write was told; the order indexes `told_outcomes`' counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Told {
    Committed,
    Aborted,
    /// An error: the outcome is unknown.
    Unknown,
}

/// The calls of a schedule's object clients.
pub type Transactions = Recorder<TxOp, TxRet>;

type TxCall = Call<TxOp, TxRet>;

impl TxRet {
    /// A read that saw `observed` when it ran `query` on an object of type
    /// `S`.
    pub fn saw<S, R>(query: impl Fn(&S) -> R + Send + Sync + 'static, observed: R) -> Self
    where
        S: StateMachine + Default,
        R: PartialEq + Debug + Send + Sync + 'static,
    {
        let shown = format!("{observed:?}");
        let matches = move |updates: &[Bytes]| {
            let mut state = S::default();
            for update in updates {
                state.apply(update, &ApplyMeta::synthetic());
            }
            query(&state) == observed
        };
        TxRet::Saw { observed: shown, matches: Arc::new(matches) }
    }
}

impl Transactions {
    /// `client` ends a transaction that wrote `writes`, with `end`.
    pub fn end_tx(
        &self,
        client: &str,
        writes: Vec<Write>,
        end: impl FnOnce() -> tango::Result<TxStatus>,
    ) -> tango::Result<TxStatus> {
        self.record(client, TxOp::Write(writes), end, |status| {
            TxRet::Told(match status {
                Ok(TxStatus::Committed) => Told::Committed,
                Ok(TxStatus::Aborted) => Told::Aborted,
                Err(_) => Told::Unknown,
            })
        })
    }

    /// `client` writes `write` outside a transaction, with `update`.
    pub fn update(
        &self,
        client: &str,
        write: Write,
        update: impl FnOnce() -> tango::Result<()>,
    ) -> tango::Result<()> {
        self.record(client, TxOp::Write(vec![write]), update, |result| {
            TxRet::Told(if result.is_ok() { Told::Committed } else { Told::Unknown })
        })
    }

    /// `client` reads `view` linearizably (keyed by `key`) through `query`.
    pub fn query<S, R>(
        &self,
        client: &str,
        view: &ObjectView<S>,
        key: Option<u64>,
        query: impl Fn(&S) -> R + Clone + Send + Sync + 'static,
    ) -> R
    where
        S: StateMachine + Default,
        R: PartialEq + Debug + Clone + Send + Sync + 'static,
    {
        let read = || view.query(key, query.clone()).unwrap();
        self.record(client, TxOp::Read { oid: view.oid() }, read, |observed| {
            TxRet::saw(query.clone(), observed.clone())
        })
    }

    /// Panics with every way the calls fail to match `entries`: the
    /// entries of the log that landed, in offset order, as the raw-log
    /// checker read them off the replicas.
    pub fn judge<'a>(&self, entries: impl IntoIterator<Item = (LogOffset, &'a EntryEnvelope)>) {
        verdict("object", &self.violations(entries));
    }

    /// Every way the calls fail to match `entries`.
    pub fn violations<'a>(
        &self,
        entries: impl IntoIterator<Item = (LogOffset, &'a EntryEnvelope)>,
    ) -> Vec<String> {
        let calls = self.calls();
        let log = Replay::of(entries);
        let mut out = Vec::new();
        for (&home, commit) in &log.commits {
            if let Some(&(at, said)) = log.decisions.get(&commit.txid) {
                let decided = log.decide(commit.txid);
                if said != decided.committed {
                    out.push(format!(
                        "the decision record at {at} says committed={said} for the commit at \
                         {home}; its reads say committed={} (witness {:?})",
                        decided.committed, decided.witness
                    ));
                }
            }
        }
        let (model, records) = log.model();
        told_outcomes(&calls, &records, &mut out);
        reads_see_a_prefix(&calls, &model, &records, &mut out);
        out
    }
}

/// A write in an object's stream: its offset, its key and, for a
/// transaction's write, the home offset of the commit.
type StreamWrite = (LogOffset, Option<u64>, Option<LogOffset>);

/// Per write set, the home offsets of the records that carry it, ascending,
/// each with whether it committed.
type Records = HashMap<Vec<Write>, Vec<(LogOffset, bool)>>;

/// A commit record, at its home part.
struct Commit {
    txid: TxId,
    reads: Vec<ReadKey>,
    /// A cross-log commit's parts, one per log.
    parts: Option<Vec<LogOffset>>,
    /// Speculative updates first, in their entries' order, then inline.
    writes: Vec<Write>,
}

/// A commit's outcome by the log.
#[derive(Clone, Copy)]
struct Decided {
    committed: bool,
    /// The newest committed write the commit conflicts with.
    witness: Option<LogOffset>,
}

/// The log's records, as the checker replays them.
#[derive(Default)]
struct Replay {
    commits: BTreeMap<LogOffset, Commit>,
    /// Per transaction, its commit's home offset.
    homes: HashMap<TxId, LogOffset>,
    /// Per transaction, the first decision record: where, and what it says.
    decisions: HashMap<TxId, (LogOffset, bool)>,
    /// Plain updates, at their offsets.
    updates: BTreeMap<LogOffset, Write>,
    /// Per object, the writes to it in its stream.
    writes: HashMap<Oid, Vec<StreamWrite>>,
    /// The log each object's stream lives in.
    logs: HashMap<Oid, u32>,
    decided: Mutex<HashMap<TxId, Decided>>,
}

impl Replay {
    fn of<'a>(entries: impl IntoIterator<Item = (LogOffset, &'a EntryEnvelope)>) -> Self {
        let mut log = Replay::default();
        let mut speculative: HashMap<LogOffset, Vec<Write>> = HashMap::new();
        let write = |u: tango::UpdateRecord| (u.oid, u.key, u.data);
        for (offset, entry) in entries {
            for header in &entry.headers {
                log.logs.insert(header.stream, log_of_offset(offset));
            }
            let home = entry.link.as_ref().map_or(offset, |link| link.home);
            let writes: Vec<(Oid, Option<u64>, Option<LogOffset>)> =
                match decode_from_slice::<LogRecord>(&entry.payload) {
                    Ok(LogRecord::Update(u)) => {
                        log.updates.insert(offset, write(u.clone()));
                        vec![(u.oid, u.key, None)]
                    }
                    Ok(LogRecord::Speculative { updates, .. }) => {
                        speculative.insert(offset, updates.into_iter().map(write).collect());
                        Vec::new()
                    }
                    Ok(LogRecord::Commit {
                        txid, reads, updates, speculative: spilled, ..
                    }) => {
                        let mut writes: Vec<Write> = spilled
                            .iter()
                            .flat_map(|off| speculative.get(off).cloned().unwrap_or_default())
                            .collect();
                        writes.extend(updates.into_iter().map(write));
                        let keys = writes.iter().map(|(oid, key, _)| (*oid, *key, Some(home)));
                        let keys = keys.collect();
                        let parts = entry.link.as_ref().map(|link| link.parts.clone());
                        log.homes.insert(txid, home);
                        log.commits.entry(home).or_insert(Commit { txid, reads, parts, writes });
                        keys
                    }
                    Ok(LogRecord::Decision { txid, committed, .. }) => {
                        log.decisions.entry(txid).or_insert((offset, committed));
                        Vec::new()
                    }
                    _ => Vec::new(),
                };
            for (oid, key, home) in writes.into_iter().filter(|(oid, ..)| entry.belongs_to(*oid)) {
                log.writes.entry(oid).or_default().push((offset, key, home));
            }
        }
        log
    }

    /// The offset below which `commit`'s read of an object in `log` is
    /// validated: the commit's own, or a cross-log commit's part in that log
    /// (all of the log if it has none there).
    fn pin(commit: &Commit, home: LogOffset, log: u32) -> LogOffset {
        match &commit.parts {
            None => home,
            Some(parts) => {
                parts.iter().copied().find(|&p| log_of_offset(p) == log).unwrap_or(LogOffset::MAX)
            }
        }
    }

    /// Whether the commit of `txid` commits, by its reads alone. A commit
    /// whose decision depends on itself (a cycle through cross-log pins)
    /// takes its decision record's word, or commits.
    fn decide(&self, txid: TxId) -> Decided {
        let home = self.homes[&txid];
        {
            let mut decided = self.decided.lock().unwrap();
            if let Some(&decided) = decided.get(&txid) {
                return decided;
            }
            let said = self.decisions.get(&txid).is_none_or(|&(_, said)| said);
            decided.insert(txid, Decided { committed: said, witness: None });
        }
        let commit = &self.commits[&home];
        let mut witness = None;
        for read in &commit.reads {
            let Some(&log) = self.logs.get(&read.oid) else { continue };
            let pin = Self::pin(commit, home, log);
            let writes = self.writes.get(&read.oid).map(Vec::as_slice).unwrap_or_default();
            let conflicting = writes.iter().rev().filter(|&&(offset, key, _)| {
                offset >= read.version
                    && offset < pin
                    && (read.key.is_none() || key.is_none() || key == read.key)
            });
            for &(offset, _, home) in conflicting {
                if home.is_none_or(|home| self.decide(self.commits[&home].txid).committed) {
                    witness = witness.max(Some(offset));
                    break;
                }
            }
        }
        let decided = Decided { committed: witness.is_none(), witness };
        self.decided.lock().unwrap().insert(txid, decided);
        decided
    }

    /// The committed writes, at the offsets playback applies them, into the
    /// model; and per write set, the home offsets of the records that carry
    /// it with whether each committed.
    fn model(&self) -> (PlaybackModel<Bytes>, Records) {
        let mut model = PlaybackModel::default();
        let mut applied: BTreeMap<LogOffset, Vec<(Oid, Bytes)>> = BTreeMap::new();
        let mut records = Records::new();
        for (&offset, (oid, key, data)) in &self.updates {
            applied.entry(offset).or_default().push((*oid, data.clone()));
            records.entry(vec![(*oid, *key, data.clone())]).or_default().push((offset, true));
        }
        for (&home, commit) in &self.commits {
            let committed = self.decide(commit.txid).committed;
            records.entry(sorted(&commit.writes)).or_default().push((home, committed));
            if !committed {
                continue;
            }
            for (oid, _, data) in &commit.writes {
                let Some(&log) = self.logs.get(oid) else { continue };
                let at = commit.parts.as_ref().map_or(Some(home), |parts| {
                    parts.iter().copied().find(|&p| log_of_offset(p) == log)
                });
                if let Some(at) = at {
                    applied.entry(at).or_default().push((*oid, data.clone()));
                }
            }
        }
        for (offset, updates) in applied {
            for (oid, _) in &updates {
                model.host(*oid);
            }
            model.wrote(offset, updates);
        }
        for offsets in records.values_mut() {
            offsets.sort_unstable();
        }
        (model, records)
    }
}

fn sorted(writes: &[Write]) -> Vec<Write> {
    let mut writes = writes.to_vec();
    writes.sort();
    writes
}

/// The write set a call writes, sorted, if it is a write.
fn write_set(call: &TxCall) -> Option<Vec<Write>> {
    match &call.op {
        TxOp::Write(writes) => Some(sorted(writes)),
        TxOp::Read { .. } => None,
    }
}

/// Per write set, what the log applied against what clients were told.
fn told_outcomes(calls: &[TxCall], records: &Records, out: &mut Vec<String>) {
    let mut told: HashMap<Vec<Write>, [usize; 3]> = HashMap::new();
    for call in calls {
        let Some(writes) = write_set(call) else { continue };
        // A call that never returned was told nothing.
        let outcome = match call.ret() {
            Some(TxRet::Told(told)) => *told,
            _ => Told::Unknown,
        };
        told.entry(writes).or_default()[outcome as usize] += 1;
    }
    for (writes, [committed, aborted, unknown]) in told {
        let records = records.get(&writes).map(Vec::as_slice).unwrap_or_default();
        let applied = records.iter().filter(|(_, c)| *c).count();
        let refused = records.len() - applied;
        if applied < committed {
            out.push(format!(
                "{committed} client(s) were told {writes:?} committed; the log applies it \
                 {applied} time(s)"
            ));
        }
        if applied > committed + unknown {
            out.push(format!(
                "the log applies {writes:?} {applied} time(s); {committed} client(s) were told it \
                 committed and {aborted} that it aborted"
            ));
        }
        if refused < aborted {
            out.push(format!(
                "{aborted} client(s) were told {writes:?} aborted; the log has {refused} aborted \
                 commit record(s) for it, so some abort has no witness"
            ));
        }
    }
}

/// A read saw the state the model gives at a prefix of the log holding
/// every committed record of a write that ended before the read was invoked
/// and no more than the log held when it completed.
fn reads_see_a_prefix(
    calls: &[TxCall],
    model: &PlaybackModel<Bytes>,
    records: &Records,
    out: &mut Vec<String>,
) {
    let writes: Vec<(&TxCall, Vec<Write>)> =
        calls.iter().filter_map(|call| Some((call, write_set(call)?))).collect();
    for read in calls {
        let (TxOp::Read { oid }, Some((completed, TxRet::Saw { observed, matches }))) =
            (&read.op, &read.done)
        else {
            continue;
        };
        // Per write set, its committed records lie below the prefix as far
        // as the calls that ended before the read reach: at least one per
        // call told "committed", and all but one per call still open when
        // the read was invoked. Its m records of calls invoked before the
        // read ended bound what lies below, so the (m+1)-th does not.
        let (mut low, mut high) = (0, LogOffset::MAX);
        let mut groups: HashMap<&Vec<Write>, (usize, usize, usize)> = HashMap::new();
        for (call, set) in &writes {
            let (acked, open, invoked) = groups.entry(set).or_default();
            if !call.precedes(read) {
                *open += 1;
            } else if matches!(call.ret(), Some(TxRet::Told(Told::Committed))) {
                *acked += 1;
            }
            if call.invoked < *completed {
                *invoked += 1;
            }
        }
        for (set, (acked, open, invoked)) in groups {
            let records = records.get(set).map(Vec::as_slice).unwrap_or_default();
            let committed: Vec<LogOffset> =
                records.iter().filter(|(_, c)| *c).map(|(o, _)| *o).collect();
            let below = acked.max(committed.len().saturating_sub(open));
            if let Some(&offset) = below.checked_sub(1).and_then(|i| committed.get(i)) {
                low = low.max(offset + 1);
            }
            if let Some(&(offset, _)) = records.get(invoked) {
                high = high.min(offset);
            }
        }
        let applied = |prefix: LogOffset| -> Vec<Bytes> {
            let owed = model.pending(prefix);
            owed.into_iter().filter(|(_, o, _)| o == oid).map(|(_, _, data)| data).collect()
        };
        let mut candidates = vec![low];
        candidates.extend(
            model
                .pending(LogOffset::MAX)
                .iter()
                .filter(|(_, o, _)| o == oid)
                .map(|(at, ..)| at + 1),
        );
        let seen =
            candidates.into_iter().filter(|&p| low <= p && p <= high).any(|p| matches(&applied(p)));
        if !seen {
            out.push(format!(
                "{}'s read of object {oid} saw {observed}, the state at no prefix of the log \
                 between {low} (what ended before it) and {high} (what it could have seen)",
                read.client
            ));
        }
    }
}
