//! The history checker's own tests, on hand-built histories: one clean
//! history passes, and each fault injected into it — an acked append lost or
//! landed twice, two appends told one offset, a stale read, a torn cross-log
//! commit, a fill over data, a write told its token was lost that landed, a
//! read that misses half of a commit that ended before it — is flagged with a
//! message that names the offset or the call.
//!
//! They live in a binary of their own: the checker is shared test support,
//! and every binary that includes it would run them again.

#[path = "support/mod.rs"]
mod model;
#[path = "support/transactions.rs"]
mod transactions;
// The sweeps are not what this binary runs.
#[allow(unused_macros, unused_imports)]
#[path = "../../corfu/tests/support/mod.rs"]
mod support;

use std::collections::BTreeMap;

use bytes::Bytes;
use corfu::{compose, CrossLogLink, EntryEnvelope, LogOffset, Page, StreamHeader, StreamId};
use support::history::{History, Log, Op, Ret};
use tango::{ApplyMeta, LogRecord, ReadKey, StateMachine, TxId, UpdateRecord};
use tango_rpc::Clock;
use tango_wire::encode_to_vec;
use transactions::{Told, Transactions, TxOp, TxRet};

/// One counter; an update is its new value.
#[derive(Default)]
struct Counter(i64);

impl StateMachine for Counter {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        self.0 = i64::from_le_bytes(data.try_into().unwrap());
    }
}

fn value(v: i64) -> Bytes {
    Bytes::copy_from_slice(&v.to_le_bytes())
}

/// The page an entry of `stream` at `offset` is stored as.
fn entry(offset: LogOffset, stream: StreamId, back: Vec<LogOffset>, payload: Bytes) -> Page<Bytes> {
    linked(offset, stream, back, payload, None)
}

fn linked(
    offset: LogOffset,
    stream: StreamId,
    backpointers: Vec<LogOffset>,
    payload: Bytes,
    link: Option<CrossLogLink>,
) -> Page<Bytes> {
    let headers = vec![StreamHeader { stream, backpointers }];
    Page::Data(EntryEnvelope { headers, payload, link }.encode(offset).unwrap().into())
}

/// Every page on both replicas of a chain of two.
fn replicated(pages: BTreeMap<LogOffset, Page<Bytes>>) -> Log {
    Log::new(
        pages
            .into_iter()
            .map(|(offset, page)| (offset, vec![(0, page.clone()), (1, page)]))
            .collect(),
    )
}

/// `client` called `op` and was told `ret`.
fn called(history: &History, client: &str, op: Op, ret: Ret) {
    let id = history.invoke(client, op);
    history.complete(id, ret);
}

/// A fault injected into a clean history.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// The second append's entry is lost.
    LostAck,
    /// The second append's entry lands again, at a fresh offset, while
    /// another append of its payload lands in log 1.
    LandedTwice,
    /// A third append is told it landed at the second's offset.
    AckedTwice,
    /// The fill's offset holds data.
    FillOverData,
    /// The write told its token was lost landed, and the fill saw it.
    LostTokenLanded,
    /// A read of object 1 misses the last two writes.
    StaleRead,
    /// The cross-log commit's part in log 1 is junk.
    TornCommit,
    /// The cross-log commit ends with its outcome unknown, and a later read
    /// of object 1 misses it though it committed.
    HalfSeenCommit,
}

/// Two appends to stream 7, a fill and a read, and a write that lost its
/// token to a fill; the log they leave, with `fault`. The raw-log checker's
/// verdict.
fn appends(fault: Fault) -> Vec<String> {
    let history = History::new(Clock::real());
    let mut pages = BTreeMap::new();
    for (offset, payload) in [(0, "x"), (1, "y")] {
        let payload = Bytes::from_static(payload.as_bytes());
        let op = Op::Append { streams: vec![7], payload: payload.clone() };
        called(&history, "appender", op, Ret::Offset(offset));
        let back = (0..offset).rev().collect();
        pages.insert(offset, entry(offset, 7, back, payload));
    }
    let y = |stream| Op::Append { streams: vec![stream], payload: Bytes::from("y") };
    match fault {
        Fault::LostAck => drop(pages.remove(&1)),
        Fault::LandedTwice => {
            pages.insert(4, entry(4, 7, vec![1, 0], Bytes::from("y")));
            let elsewhere = compose(1, 0);
            called(&history, "appender", y(8), Ret::Offset(elsewhere));
            pages.insert(elsewhere, entry(elsewhere, 8, vec![], Bytes::from("y")));
        }
        Fault::AckedTwice => called(&history, "other", y(7), Ret::Offset(1)),
        _ => {}
    }
    called(&history, "filler", Op::Fill { offset: 2 }, Ret::Page(Page::Junk));
    let stored = match fault {
        Fault::FillOverData => entry(2, 8, vec![], Bytes::from_static(b"z")),
        _ => Page::Junk,
    };
    pages.insert(2, stored);
    called(&history, "reader", Op::Read { offset: 0 }, Ret::Page(pages[&0].clone()));
    let written = entry(3, 9, vec![], Bytes::from_static(b"w"));
    let Page::Data(body) = written.clone() else { unreachable!() };
    called(&history, "writer", Op::Write { offset: 3, body }, Ret::TokenLost);
    let stored = if fault == Fault::LostTokenLanded { written } else { Page::Junk };
    called(&history, "filler", Op::Fill { offset: 3 }, Ret::Page(stored.clone()));
    pages.insert(3, stored);
    history.violations(&replicated(pages))
}

fn record(record: &LogRecord) -> Bytes {
    encode_to_vec(record).into()
}

fn update(oid: u32, v: i64) -> LogRecord {
    LogRecord::Update(UpdateRecord { oid, key: None, data: value(v) })
}

fn commit(seq: u64, read_version: u64, writes: &[(u32, i64)]) -> LogRecord {
    LogRecord::Commit {
        txid: TxId { client: 1, seq },
        reads: vec![ReadKey { oid: 1, key: None, version: read_version }],
        updates: writes
            .iter()
            .map(|&(oid, v)| UpdateRecord { oid, key: None, data: value(v) })
            .collect(),
        speculative: Vec::new(),
        needs_decision: true,
    }
}

/// Object 1 in log 0, object 2 in log 1: two plain updates, a read after
/// both, a commit that validates, one that aborts with its decision record,
/// a cross-log commit, and a read of each object after it; with `fault`.
/// Both checkers' verdicts.
fn objects(fault: Fault) -> Vec<String> {
    let history = History::new(Clock::real());
    let txs: Transactions = history.beside();
    let mut pages = BTreeMap::new();
    let write = |client: &str, writes: &[(u32, i64)], told: Told| {
        let writes = writes.iter().map(|&(oid, v)| (oid, None, value(v))).collect();
        let id = txs.invoke(client, TxOp::Write(writes));
        txs.complete(id, TxRet::Told(told));
    };
    let read = |client: &str, oid: u32, seen: i64| {
        let id = txs.invoke(client, TxOp::Read { oid });
        txs.complete(id, TxRet::saw(|c: &Counter| c.0, seen));
    };
    for (offset, v) in [(0, 1), (1, 2)] {
        write("writer", &[(1, v)], Told::Committed);
        pages.insert(offset, entry(offset, 1, vec![], record(&update(1, v))));
    }
    read("reader", 1, if fault == Fault::StaleRead { 1 } else { 2 });
    // Reads what offset 1 wrote: commits. Then one that read the same and
    // meets the first's write: aborts, and its decision record says so.
    write("tx", &[(1, 3)], Told::Committed);
    pages.insert(2, entry(2, 1, vec![1, 0], record(&commit(0, 2, &[(1, 3)]))));
    write("tx", &[(1, 4)], Told::Aborted);
    pages.insert(3, entry(3, 1, vec![2, 1], record(&commit(1, 2, &[(1, 4)]))));
    let decision =
        LogRecord::Decision { txid: TxId { client: 1, seq: 1 }, commit_pos: 3, committed: false };
    pages.insert(4, entry(4, 1, vec![3, 2], record(&decision)));
    // A cross-log commit: its home in log 0, its other part in log 1.
    let (home, part) = (compose(0, 5), compose(1, 0));
    let link = CrossLogLink { home, parts: vec![home, part] };
    let cross = record(&commit(2, 4, &[(1, 5), (2, 5)]));
    let unknown = fault == Fault::HalfSeenCommit;
    write("tx", &[(1, 5), (2, 5)], if unknown { Told::Unknown } else { Told::Committed });
    pages.insert(home, linked(home, 1, vec![4, 3], cross.clone(), Some(link.clone())));
    let torn = fault == Fault::TornCommit;
    pages.insert(part, if torn { Page::Junk } else { linked(part, 2, vec![], cross, Some(link)) });
    read("reader", 1, if unknown { 3 } else { 5 });
    read("reader", 2, 5);

    let log = replicated(pages);
    let mut verdict = history.violations(&log);
    verdict.extend(txs.violations(log.committed_entries()));
    verdict
}

#[test]
fn a_clean_history_passes() {
    assert_eq!(appends(Fault::None), Vec::<String>::new());
    assert_eq!(objects(Fault::None), Vec::<String>::new());
}

#[test]
fn a_lost_ack_is_flagged_at_its_offset() {
    let verdict = appends(Fault::LostAck);
    assert!(
        verdict.iter().any(|v| v.contains("append \"y\"") && v.contains("at 1: lost")),
        "{verdict:?}"
    );
}

#[test]
fn an_append_that_lands_twice_is_flagged_with_its_offsets() {
    let verdict = appends(Fault::LandedTwice);
    assert_eq!(verdict.len(), 1, "{verdict:?}");
    assert!(verdict[0].contains("append \"y\"") && verdict[0].ends_with("landed at [1, 4]"));
}

#[test]
fn two_appends_told_one_offset_are_flagged() {
    let verdict = appends(Fault::AckedTwice);
    assert!(
        verdict.iter().any(|v| v.contains("other's") && v.ends_with("told they landed at 1")),
        "{verdict:?}"
    );
}

#[test]
fn a_fill_over_data_is_flagged_at_its_offset() {
    let verdict = appends(Fault::FillOverData);
    assert!(
        verdict
            .iter()
            .any(|v| v.starts_with("offset 2 reads two values") && v.contains("fill of 2")),
        "{verdict:?}"
    );
}

#[test]
fn a_stale_read_is_flagged_as_the_read() {
    let verdict = objects(Fault::StaleRead);
    assert!(
        verdict.iter().any(|v| v.starts_with("reader's read of object 1 saw 1")),
        "{verdict:?}"
    );
    assert_eq!(verdict.len(), 1, "{verdict:?}");
}

#[test]
fn a_torn_cross_log_commit_is_flagged_at_its_part() {
    let verdict = objects(Fault::TornCommit);
    let part = compose(1, 0);
    assert!(
        verdict
            .iter()
            .any(|v| v.contains(&format!("committed at {} is torn: part {part}", compose(0, 5)))),
        "{verdict:?}"
    );
}

#[test]
fn a_write_told_its_token_lost_that_landed_is_flagged_as_the_write() {
    let verdict = appends(Fault::LostTokenLanded);
    let lost = "writer's write";
    for by in ["replica 0 holds its body", "filler's fill of 3"] {
        assert!(
            verdict
                .iter()
                .any(|v| v.starts_with(lost) && v.contains("token was lost") && v.contains(by)),
            "{by}: {verdict:?}"
        );
    }
}

#[test]
fn a_read_missing_half_of_a_commit_that_ended_before_it_is_flagged() {
    let verdict = objects(Fault::HalfSeenCommit);
    assert!(
        verdict.iter().any(|v| v.starts_with("reader's read of object 1 saw 3")),
        "{verdict:?}"
    );
    assert_eq!(verdict.len(), 1, "{verdict:?}");
}
