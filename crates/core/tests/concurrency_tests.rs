//! Concurrency tests: optimistic transactions from many client runtimes —
//! and from many threads sharing one — must be serializable: no lost
//! updates, and all views converge.

use std::panic::resume_unwind;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use corfu::cluster::{ClusterConfig, LocalCluster, SimCluster};
use tango::{ApplyMeta, ObjectOptions, StateMachine, TangoRuntime, TxStatus};

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

/// Sets key `k` to `v`; returns the write, as a history records it.
fn put(view: &tango::ObjectView<Counters>, k: u64, v: i64) -> Write {
    let buf = [k.to_le_bytes(), v.to_le_bytes()].concat();
    view.update(Some(k), buf.clone()).unwrap();
    (view.oid(), Some(k), buf.into())
}

fn get(view: &tango::ObjectView<Counters>, k: u64) -> i64 {
    view.query(Some(k), |m| m.0.get(&k).copied().unwrap_or(0)).unwrap()
}

fn get_in_tx(view: &tango::ObjectView<Counters>, k: u64) -> i64 {
    view.query_dirty(Some(k), |m| m.0.get(&k).copied().unwrap_or(0)).unwrap()
}

#[test]
fn no_lost_updates_single_key() {
    const THREADS: usize = 4;
    const INCREMENTS: usize = 25;
    let cluster = LocalCluster::new(ClusterConfig::default());
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let oid = bootstrap.create_or_open("hot-counter").unwrap();

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let view =
                rt.register_object(oid, Counters::default(), ObjectOptions::default()).unwrap();
            let mut committed = 0usize;
            let mut attempts = 0usize;
            while committed < INCREMENTS {
                attempts += 1;
                assert!(attempts < INCREMENTS * 200, "livelock: too many retries");
                view.query(Some(0), |_| ()).unwrap(); // refresh the view
                rt.begin_tx().unwrap();
                let v = get_in_tx(&view, 0);
                put(&view, 0, v + 1);
                if rt.end_tx().unwrap() == TxStatus::Committed {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, THREADS * INCREMENTS);

    // Every committed increment survived: the classic lost-update check.
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let view = rt.register_object(oid, Counters::default(), ObjectOptions::default()).unwrap();
    assert_eq!(get(&view, 0), (THREADS * INCREMENTS) as i64);
}

#[test]
fn disjoint_keys_commit_concurrently_and_converge() {
    const THREADS: u64 = 4;
    const OPS: usize = 20;
    let cluster = LocalCluster::new(ClusterConfig::default());
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let oid = bootstrap.create_or_open("sharded-counters").unwrap();

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let view =
                rt.register_object(oid, Counters::default(), ObjectOptions::default()).unwrap();
            let mut aborts = 0;
            for _ in 0..OPS {
                loop {
                    view.query(Some(t), |_| ()).unwrap();
                    rt.begin_tx().unwrap();
                    let v = get_in_tx(&view, t);
                    put(&view, t, v + 1);
                    if rt.end_tx().unwrap() == TxStatus::Committed {
                        break;
                    }
                    aborts += 1;
                }
            }
            aborts
        }));
    }
    let total_aborts: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Disjoint fine-grained keys: no true conflicts exist, so aborts should
    // be rare (they can only come from version-table coarseness, which our
    // per-key table does not have).
    assert_eq!(total_aborts, 0, "disjoint-key transactions must not conflict");

    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let view = rt.register_object(oid, Counters::default(), ObjectOptions::default()).unwrap();
    for t in 0..THREADS {
        assert_eq!(get(&view, t), OPS as i64);
    }
}

#[test]
fn cross_object_invariant_under_concurrency() {
    // A bank: money moves between two accounts; the sum is invariant.
    const THREADS: usize = 3;
    const TRANSFERS: usize = 15;
    let cluster = LocalCluster::new(ClusterConfig::default());
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let a = bootstrap.create_or_open("account-a").unwrap();
    let b = bootstrap.create_or_open("account-b").unwrap();
    {
        let va =
            bootstrap.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
        put(&va, 0, 1000);
    }

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
            let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();
            let amount = (t + 1) as i64;
            let mut done = 0;
            while done < TRANSFERS {
                va.query(Some(0), |_| ()).unwrap();
                rt.begin_tx().unwrap();
                let balance_a = get_in_tx(&va, 0);
                let balance_b = get_in_tx(&vb, 0);
                put(&va, 0, balance_a - amount);
                put(&vb, 0, balance_b + amount);
                if rt.end_tx().unwrap() == TxStatus::Committed {
                    done += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
    let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();
    let sum = get(&va, 0) + get(&vb, 0);
    assert_eq!(sum, 1000, "atomicity violated: money created or destroyed");
    let moved: i64 = (1..=THREADS as i64).map(|amt| amt * TRANSFERS as i64).sum();
    assert_eq!(get(&vb, 0), moved);
}

/// Runs `body` on a thread of its own and fails once `limit` of wall-clock
/// time passes without it ending: a schedule that deadlocks fails instead
/// of hanging the suite.
fn guarded(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, ended) = channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match ended.recv_timeout(limit) {
        Err(RecvTimeoutError::Timeout) => panic!("the schedule did not end within {limit:?}"),
        _ => runner.join().unwrap_or_else(|failure| resume_unwind(failure)),
    }
}

/// `partitions` runtimes, each shared by four scheduled threads — as an
/// application server's threads share one — that run read-modify-write
/// transactions on the runtime's own counter. Across partitions each
/// transaction also writes a key of the next runtime's object, which that
/// runtime applies only on the writer's decision record. Every counter ends
/// at exactly the commits its threads were told of; that each runtime holds
/// exactly the committed writes sent to it — no commit lost, no abort
/// applied — is the history checker's.
fn shared_runtimes(seed: u64, partitions: u64) {
    let cluster = SimCluster::simulated(seed, ClusterConfig::default());
    cluster.sim().delay_calls("", 25, Duration::from_micros(100));
    let history = History::new(cluster.sim().clock());
    let txs: Transactions = history.beside();
    let views: Vec<_> = (1..=partitions)
        .map(|oid| {
            let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
            rt.register_object(oid as u32, Counters::default(), ObjectOptions::default()).unwrap()
        })
        .collect();
    let threads: Vec<_> = (0..4 * partitions)
        .map(|t| {
            let (part, view) = (t % partitions, views[(t % partitions) as usize].clone());
            let next = (partitions > 1).then_some((part + 1) % partitions + 1);
            let txs = txs.clone();
            cluster.sim().spawn(&format!("tx{t}"), move || {
                let rt = Arc::clone(view.runtime());
                let mut committed = 0;
                for i in 0..5 {
                    rt.begin_tx().unwrap();
                    let v = get_in_tx(&view, 0);
                    let mut writes = vec![put(&view, 0, v + 1)];
                    let key = 100 + 10 * t + i;
                    if let Some(oid) = next {
                        let data = [key.to_le_bytes(), 1i64.to_le_bytes()].concat();
                        rt.update_remote(oid as u32, Some(key), data.clone()).unwrap();
                        writes.push((oid as u32, Some(key), data.into()));
                    }
                    let end = || rt.end_tx();
                    if txs.end_tx(&format!("tx{t}"), writes, end).unwrap() == TxStatus::Committed {
                        committed += 1;
                    }
                }
                (part, committed)
            })
        })
        .collect();
    let mut told = vec![0; partitions as usize];
    for thread in threads {
        let (part, committed) = thread.join().unwrap();
        told[part as usize] += committed;
    }
    assert!(told.iter().all(|&n| n > 0), "a partition committed nothing: {told:?}");
    for (part, view) in views.iter().enumerate() {
        let count = txs.query("reader", view, Some(0), |m: &Counters| m.0.get(&0).copied());
        assert_eq!(count, Some(told[part]), "a commit lost, or an abort applied");
        txs.query("reader", view, None, |m: &Counters| m.0.clone());
    }
    let log = history.judge(&cluster);
    txs.judge(log.committed_entries());
}

/// [`shared_runtimes`] on one runtime and across two. Playback holds its
/// lock across reads, so a thread that blocked on it for real would stall
/// the schedule; the guard turns that into a failure.
#[test]
fn scheduled_threads_share_a_runtime() {
    support::sweep!(scheduled_threads_share_a_runtime, |seed| {
        for partitions in [1, 2] {
            guarded(Duration::from_secs(60), move || shared_runtimes(seed, partitions));
        }
    });
}
