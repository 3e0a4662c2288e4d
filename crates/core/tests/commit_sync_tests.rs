//! A commit's token grant is its stream sync. `end_tx` no longer follows
//! the commit append with a second sequencer round trip: the grant observes
//! the hosted streams the transaction does not write, and the written ones
//! learn from the commit entry's own backpointers. These tests pin the
//! count (one token, no tail query per commit) and — the part that count
//! must not buy — that a read-set object the transaction does *not* write
//! is still validated against everything below the commit point, on the
//! piggybacked path and on each fallback (cross-log commits, read-set
//! streams homed in another log than the commit).

use std::sync::Arc;
use std::time::Duration;

use corfu::cluster::{
    Cluster, ClusterConfig, LocalCluster, Outcome, SimCluster, TcpCluster, Transport,
};
use tango::{ApplyMeta, ObjectOptions, ObjectView, Oid, StateMachine, TangoRuntime, TxStatus};
use tango_metrics::Registry;

#[path = "support/mod.rs"]
mod model;
#[path = "../../corfu/tests/support/mod.rs"]
mod support;
#[path = "support/transactions.rs"]
mod transactions;

use support::history::History;
use transactions::{Transactions, Write};

/// A map of u64 counters. Update format: key u64 | value i64 (absolute).
#[derive(Default)]
struct Counters(std::collections::HashMap<u64, i64>);

impl StateMachine for Counters {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        if data.len() == 16 {
            let k = u64::from_le_bytes(data[0..8].try_into().unwrap());
            let v = i64::from_le_bytes(data[8..16].try_into().unwrap());
            self.0.insert(k, v);
        }
    }
}

/// The write that sets the counter to `v`.
fn counter(view: &ObjectView<Counters>, v: i64) -> Write {
    (view.oid(), Some(0), [0u64.to_le_bytes(), v.to_le_bytes()].concat().into())
}

fn set(view: &ObjectView<Counters>, v: i64) -> tango::Result<()> {
    let (_, key, data) = counter(view, v);
    view.update(key, data.to_vec())
}

fn put(view: &ObjectView<Counters>, v: i64) {
    set(view, v).unwrap();
}

/// The counter, as a history checker reads it off the model.
fn value(counters: &Counters) -> i64 {
    counters.0.get(&0).copied().unwrap_or(0)
}

/// Linearizable read (syncs and plays the log forward).
fn get(view: &ObjectView<Counters>) -> i64 {
    view.query(Some(0), |m| m.0.get(&0).copied().unwrap_or(0)).unwrap()
}

/// Read of the view as played so far; inside a transaction it joins the
/// read set.
fn get_unsynced(view: &ObjectView<Counters>) -> i64 {
    view.query_dirty(Some(0), |m| m.0.get(&0).copied().unwrap_or(0)).unwrap()
}

fn host(rt: &Arc<TangoRuntime>, oid: Oid) -> ObjectView<Counters> {
    rt.register_object(oid, Counters::default(), ObjectOptions::default()).unwrap()
}

/// Registers fresh names under `tag` until one's oid is homed in `log`
/// (always the first on a single-log cluster).
fn object_in_log(rt: &TangoRuntime, log: u32, tag: &str) -> Oid {
    let proj = rt.corfu().projection();
    for i in 0..64 {
        let oid = rt.create_or_open(&format!("{tag}-{i}")).unwrap();
        if proj.log_of_stream(oid) == log {
            return oid;
        }
    }
    panic!("no oid hashed into log {log} for tag {tag}");
}

/// (b) One committed read-write transaction is one token and no tail
/// query — also when its read set holds a hosted object it does not write.
fn a_commit_is_one_sequencer_call<T: Transport>(cluster: &Cluster<T>) {
    let registry = Registry::new();
    let rt = TangoRuntime::new(cluster.client_with_metrics(registry.clone()).unwrap()).unwrap();
    let (a, b) = (host(&rt, object_in_log(&rt, 0, "a")), host(&rt, object_in_log(&rt, 0, "b")));
    put(&a, 1);
    put(&b, 1);
    assert_eq!(get(&a), 1);
    let tokens = registry.counter("corfu.client.tokens");
    let tail_queries = registry.counter("corfu.client.tail_queries");
    for (read, written) in [(&a, &a), (&b, &a)] {
        let before = (tokens.get(), tail_queries.get());
        rt.begin_tx().unwrap();
        let v = get_unsynced(read);
        put(written, v + 1);
        assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);
        assert_eq!(tokens.get() - before.0, 1, "tokens for one commit");
        assert_eq!(tail_queries.get() - before.1, 0, "tail queries for one commit");
        assert_eq!(get_unsynced(written), v + 1, "the commit applied its own write");
    }
}

#[test]
fn a_commit_is_one_sequencer_call_in_process() {
    a_commit_is_one_sequencer_call(&LocalCluster::new(ClusterConfig::default()));
}

#[test]
fn a_commit_is_one_sequencer_call_over_tcp() {
    a_commit_is_one_sequencer_call(&TcpCluster::spawn(ClusterConfig::default()).unwrap());
}

/// (c), (d) Runtime 1 reads A — hosted, never written by it — and writes
/// one object in each of `written_logs`; runtime 2 may update A between the
/// read and the commit. The commit must abort exactly when it did, whatever
/// path brought A's membership up to the commit point. The directory is
/// hosted by both and in neither set: registrations runtime 2 makes before
/// and after runtime 1's commit must both reach runtime 1.
fn unwritten_read_set_decides_the_commit<T: Transport>(
    cluster: &Cluster<T>,
    a_log: u32,
    written_logs: &[u32],
) {
    let r1 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let r2 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let a = object_in_log(&r1, a_log, "read");
    let (a1, a2) = (host(&r1, a), host(&r2, a));
    let written: Vec<ObjectView<Counters>> = written_logs
        .iter()
        .map(|&log| host(&r1, object_in_log(&r1, log, &format!("written{log}"))))
        .collect();
    put(&a2, 10);

    for (round, interfere) in [false, true, false].into_iter().enumerate() {
        let seen = get(&a1); // r1's view is current as of here
        r1.begin_tx().unwrap();
        assert_eq!(get_unsynced(&a1), seen);
        let early = format!("early{round}");
        r2.create_or_open(&early).unwrap();
        if interfere {
            put(&a2, seen + 100);
        }
        let before: Vec<i64> = written.iter().map(get_unsynced).collect();
        for w in &written {
            put(w, seen + 1);
        }
        let status = r1.end_tx().unwrap();
        if interfere {
            assert_eq!(status, TxStatus::Aborted, "A changed below the commit point");
            assert_eq!(written.iter().map(get_unsynced).collect::<Vec<_>>(), before);
        } else {
            assert_eq!(status, TxStatus::Committed, "nothing touched A");
            assert!(written.iter().all(|w| get_unsynced(w) == seen + 1));
        }
        // The commit played the directory too: a read that does not sync
        // (inside a transaction) already sees r2's earlier registration...
        r1.begin_tx().unwrap();
        assert!(r1.resolve(&early).unwrap().is_some(), "directory entry below the commit");
        r1.abort_tx().unwrap();
        // ...and what r2 registers afterwards is found by the next sync.
        let late = format!("late{round}");
        let oid = r2.create_or_open(&late).unwrap();
        assert_eq!(r1.resolve(&late).unwrap(), Some(oid));
    }
    // Every client agrees on the outcome of all three commits.
    let r3 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    for w in &written {
        assert_eq!(get(&host(&r3, w.oid())), get(w));
    }
}

#[test]
fn unwritten_read_set_decides_the_commit_in_process() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    unwritten_read_set_decides_the_commit(&cluster, 0, &[0]);
}

#[test]
fn unwritten_read_set_decides_the_commit_over_tcp() {
    let cluster = TcpCluster::spawn(ClusterConfig::default()).unwrap();
    unwritten_read_set_decides_the_commit(&cluster, 0, &[0]);
}

/// Fallback: a cross-log commit has one token per log and no single grant
/// to observe from.
#[test]
fn cross_log_commits_fall_back_to_a_tail_query() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    unwritten_read_set_decides_the_commit(&cluster, 0, &[0, 1]);
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    unwritten_read_set_decides_the_commit(&cluster, 1, &[0, 1]);
}

/// Fallback: the commit's log's sequencer knows nothing of a read-set
/// stream homed in another log.
#[test]
fn read_set_in_another_log_falls_back_to_a_tail_query() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    unwritten_read_set_decides_the_commit(&cluster, 0, &[1]);
}

/// A committer dies between its commit's token grant — the `NextObserve`
/// that doubles as its stream sync — and the chain write: before the head
/// write (nothing of the commit lands; readers wait the hole out and fill
/// it) or between head and tail (the head's copy is the commit, and readers
/// repair it onto the tail), as the seed picks. The survivor's view, a
/// fresh runtime's view and the survivor's own next commit all agree on
/// which it was, and with the log (the history checker).
#[test]
fn a_committer_crashing_between_grant_and_chain_write_is_all_or_nothing() {
    support::sweep!(a_committer_crashing_between_grant_and_chain_write_is_all_or_nothing, |seed| {
        let cluster = SimCluster::simulated(seed, ClusterConfig::default());
        let sim = cluster.sim();
        sim.delay_calls("", 25, Duration::from_micros(100));
        let history = History::new(sim.clock());
        let txs: Transactions = history.beside();
        let survivor = TangoRuntime::new(cluster.client().unwrap()).unwrap();
        let (a, w) = (object_in_log(&survivor, 0, "read"), object_in_log(&survivor, 0, "written"));
        let (a_seen, w_seen) = (host(&survivor, a), host(&survivor, w));
        for view in [&a_seen, &w_seen] {
            txs.update("survivor", counter(view, 1), || set(view, 1)).unwrap();
        }

        // The committer's writes from here on are its commit's: head, tail.
        let writes = sim.trace().iter().filter(|d| d.point == "storage.write").count() as u64;
        let crash_at = 1 + seed % 2;
        sim.crash_thread_at("storage.write", writes + crash_at);
        let client = cluster.client().unwrap();
        let committing = txs.clone();
        let committer = sim.spawn("committer", move || {
            let txs = committing;
            let rt = TangoRuntime::new(client).unwrap();
            let (a, w) = (host(&rt, a), host(&rt, w));
            let v = txs.query("committer", &a, Some(0), value)
                + txs.query("committer", &w, Some(0), value);
            rt.begin_tx().unwrap();
            assert_eq!(get_unsynced(&a) + get_unsynced(&w), v);
            put(&w, v + 10);
            txs.end_tx("committer", vec![counter(&w, v + 10)], || rt.end_tx())
        });
        assert!(committer.join().is_err(), "the committer must die in its chain write");
        let trace = sim.trace();
        let died = trace.iter().position(|d| d.outcome == Outcome::CallerCrashed).unwrap();
        let grant = trace[..died].iter().rfind(|d| d.point.starts_with("seq."));
        assert_eq!(grant.map(|d| d.point.as_str()), Some("seq.next_observe"));

        // The commit applied iff its head write landed; everyone agrees.
        let expected = if crash_at == 1 { 1 } else { 12 };
        assert_eq!(txs.query("survivor", &w_seen, Some(0), value), expected);
        let fresh = TangoRuntime::new(cluster.client().unwrap()).unwrap();
        let w_fresh = host(&fresh, w);
        assert_eq!(txs.query("fresh", &w_fresh, Some(0), value), expected);

        // The survivor commits on top of whichever it was.
        survivor.begin_tx().unwrap();
        let v = get_unsynced(&w_seen);
        put(&w_seen, v + 1);
        let end = || survivor.end_tx();
        assert_eq!(
            txs.end_tx("survivor", vec![counter(&w_seen, v + 1)], end).unwrap(),
            TxStatus::Committed
        );
        assert_eq!(txs.query("fresh", &w_fresh, Some(0), value), expected + 1);
        let log = history.judge(&cluster);
        txs.judge(log.committed_entries());
    });
}
