//! The cross-log transaction correctness suite (the sharded-log tentpole):
//! optimistic transactions whose read/write sets span objects homed in
//! *different* logs. The home-anchor commit plus the decision-record path
//! must give exactly-one-commit for conflicting writers and forbid torn
//! reads — each scenario is written once against `Cluster<T>` and run on
//! the in-process transport and over real TCP.

use corfu::cluster::{
    Cluster, ClusterConfig, Delivery, LocalCluster, Outcome, SimCluster, TcpCluster, Transport,
};
use corfu::log_of_offset;
use tango::{ApplyMeta, ObjectOptions, Oid, StateMachine, TangoRuntime, TxStatus};

#[path = "../../corfu/tests/support/mod.rs"]
mod support;

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

fn put(view: &tango::ObjectView<Counters>, k: u64, v: i64) {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&k.to_le_bytes());
    buf.extend_from_slice(&v.to_le_bytes());
    view.update(Some(k), buf).unwrap();
}

fn get(view: &tango::ObjectView<Counters>, k: u64) -> i64 {
    view.query(Some(k), |m| m.0.get(&k).copied().unwrap_or(0)).unwrap()
}

fn get_in_tx(view: &tango::ObjectView<Counters>, k: u64) -> i64 {
    view.query_dirty(Some(k), |m| m.0.get(&k).copied().unwrap_or(0)).unwrap()
}

/// Registers fresh objects under `tag` until one's oid is homed in `log`.
/// The directory allocates oids sequentially and the shard map hashes
/// them, so a handful of attempts always suffices.
fn object_in_log(rt: &TangoRuntime, proj: &corfu::Projection, log: u32, tag: &str) -> Oid {
    for i in 0..64 {
        let oid = rt.create_or_open(&format!("{tag}-{i}")).unwrap();
        if proj.log_of_stream(oid) == log {
            return oid;
        }
    }
    panic!("no oid hashed into log {log} for tag {tag}");
}

/// The classic lost-update check, with the conflict spanning logs: every
/// transaction RMWs a shared counter homed in log 0 and a second shared
/// counter homed in log 1, and writes a private object homed in log 1, so
/// each commit record is a cross-log multiappend whose outcome is
/// arbitrated by the home anchor plus decision records. Exactly one of
/// each pair of racing increments may survive per version.
fn conflicting_cross_log_writers_commit_exactly_once<T: Transport>(
    cluster: &Cluster<T>,
    threads: usize,
    increments: usize,
) {
    let proj = cluster.client().unwrap().projection();
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let shared = object_in_log(&bootstrap, &proj, 0, "shared");
    let other = object_in_log(&bootstrap, &proj, 1, "other");
    let privates: Vec<Oid> =
        (0..threads).map(|t| object_in_log(&bootstrap, &proj, 1, &format!("priv{t}"))).collect();

    let mut handles = Vec::new();
    for &mine in &privates {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let register =
                |oid| rt.register_object(oid, Counters::default(), ObjectOptions::default());
            let (vs, vo, vp) =
                (register(shared).unwrap(), register(other).unwrap(), register(mine).unwrap());
            let mut committed = 0usize;
            let mut attempts = 0usize;
            while committed < increments {
                attempts += 1;
                assert!(attempts < increments * 200, "livelock: too many retries");
                vs.query(Some(0), |_| ()).unwrap(); // refresh the view
                rt.begin_tx().unwrap();
                let v = get_in_tx(&vs, 0);
                let w = get_in_tx(&vo, 0);
                put(&vs, 0, v + 1);
                put(&vo, 0, w + 1);
                put(&vp, 0, (committed + 1) as i64);
                if rt.end_tx().unwrap() == TxStatus::Committed {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, threads * increments);

    // No lost updates on the shared (log 0) side...
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let vs = rt.register_object(shared, Counters::default(), ObjectOptions::default()).unwrap();
    assert_eq!(get(&vs, 0), (threads * increments) as i64);
    // ...nor on the contended log-1 counter: both logs' halves applied
    // atomically...
    let vo = rt.register_object(other, Counters::default(), ObjectOptions::default()).unwrap();
    assert_eq!(get(&vo, 0), (threads * increments) as i64, "both logs' halves applied atomically");
    // ...and the private log-1 halves of the same transactions all applied:
    // a commit is atomic across its parts, never one log only.
    for &p in &privates {
        let vp = rt.register_object(p, Counters::default(), ObjectOptions::default()).unwrap();
        assert_eq!(get(&vp, 0), increments as i64, "the cross-log half of each commit applied");
    }
}

#[test]
fn conflicting_cross_log_writers_commit_exactly_once_in_process() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    conflicting_cross_log_writers_commit_exactly_once(&cluster, 4, 8);
}

#[test]
fn conflicting_cross_log_writers_commit_exactly_once_over_tcp() {
    // Smaller counts (TCP round trips per decision), same invariants.
    let cluster = TcpCluster::spawn(ClusterConfig::sharded(2)).unwrap();
    conflicting_cross_log_writers_commit_exactly_once(&cluster, 2, 4);
}

/// Writers keep the invariant a == b, with A homed in log 0 and B in
/// log 1 — every write is a cross-log commit. Readers observe the pair
/// through *read transactions*: OCC validation of the read set means a
/// committed read transaction saw one consistent cut, even though the
/// two objects play from different logs. (Plain unvalidated queries
/// have no such guarantee — that is precisely what commit/decision
/// records exist for.)
fn read_transactions_never_observe_torn_cross_log_state<T: Transport>(
    cluster: &Cluster<T>,
    writes: usize,
    reads: usize,
) {
    let proj = cluster.client().unwrap().projection();
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let a = object_in_log(&bootstrap, &proj, 0, "torn-a");
    let b = object_in_log(&bootstrap, &proj, 1, "torn-b");

    let writer = {
        let client = cluster.client().unwrap();
        std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
            let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();
            let mut done = 0usize;
            while done < writes {
                va.query(Some(0), |_| ()).unwrap();
                rt.begin_tx().unwrap();
                let v = get_in_tx(&va, 0);
                put(&va, 0, v + 1);
                put(&vb, 0, v + 1);
                if rt.end_tx().unwrap() == TxStatus::Committed {
                    done += 1;
                }
            }
        })
    };

    let reader = {
        let client = cluster.client().unwrap();
        std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
            let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();
            let mut seen = 0usize;
            let mut aborted = 0usize;
            while seen < reads {
                va.query(Some(0), |_| ()).unwrap();
                rt.begin_tx().unwrap();
                let ra = get_in_tx(&va, 0);
                let rb = get_in_tx(&vb, 0);
                if rt.end_tx().unwrap() == TxStatus::Committed {
                    assert_eq!(ra, rb, "a committed read transaction saw a torn cross-log cut");
                    seen += 1;
                } else {
                    aborted += 1;
                    assert!(aborted < reads * 500, "reader livelock");
                }
            }
            seen
        })
    };

    writer.join().unwrap();
    assert_eq!(reader.join().unwrap(), reads);

    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
    let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();
    assert_eq!(get(&va, 0), writes as i64);
    assert_eq!(get(&vb, 0), writes as i64);
}

#[test]
fn read_transactions_never_observe_torn_cross_log_state_in_process() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    read_transactions_never_observe_torn_cross_log_state(&cluster, 20, 30);
}

#[test]
fn read_transactions_never_observe_torn_cross_log_state_over_tcp() {
    let cluster = TcpCluster::spawn(ClusterConfig::sharded(2)).unwrap();
    read_transactions_never_observe_torn_cross_log_state(&cluster, 8, 12);
}

/// White-box: a committed cross-log transaction's commit record is a
/// linked multiappend — its parts live in both logs and each carries
/// the link naming the home anchor.
fn cross_log_commit_records_carry_links<T: Transport>(cluster: &Cluster<T>) {
    let proj = cluster.client().unwrap().projection();
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let a = object_in_log(&rt, &proj, 0, "link-a");
    let b = object_in_log(&rt, &proj, 1, "link-b");
    let va = rt.register_object(a, Counters::default(), ObjectOptions::default()).unwrap();
    let vb = rt.register_object(b, Counters::default(), ObjectOptions::default()).unwrap();

    va.query(Some(0), |_| ()).unwrap();
    rt.begin_tx().unwrap();
    let v = get_in_tx(&va, 0);
    put(&va, 0, v + 1);
    put(&vb, 0, v + 1);
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);

    // Find the commit record: the newest entry of stream `a` carrying a
    // link, via a raw scan of log 0.
    let corfu = cluster.client().unwrap();
    let tail = corfu.log_tail_fast(0).unwrap();
    let mut found = None;
    for raw in (0..tail).rev() {
        let off = corfu::compose(0, raw);
        if let Ok(entry) = corfu.read_entry(off) {
            if entry.belongs_to(a) {
                if let Some(link) = entry.link {
                    found = Some((off, link));
                    break;
                }
            }
        }
    }
    let (off, link) = found.expect("the cross-log commit record must carry a link");
    assert_eq!(link.home, off, "stream a's part is the home anchor (log 0 is lowest)");
    assert_eq!(link.parts.len(), 2);
    let logs: Vec<u32> = link.parts.iter().map(|&p| log_of_offset(p)).collect();
    assert!(logs.contains(&0) && logs.contains(&1), "one part per participating log");
    // The log-1 part is stream b's copy of the same record.
    let other = link.parts.iter().copied().find(|&p| log_of_offset(p) == 1).unwrap();
    let part = corfu.read_entry(other).unwrap();
    assert!(part.belongs_to(b));
    assert_eq!(part.link.as_ref().map(|l| l.home), Some(off));
}

#[test]
fn cross_log_commit_records_carry_links_in_process() {
    cross_log_commit_records_carry_links(&LocalCluster::new(ClusterConfig::sharded(2)));
}

#[test]
fn cross_log_commit_records_carry_links_over_tcp() {
    cross_log_commit_records_carry_links(&TcpCluster::spawn(ClusterConfig::sharded(2)).unwrap());
}

/// One seeded run of conflicting cross-log transactions under a fault
/// schedule at the `shard1.seq.*` protocol points of the simulated
/// transport: drop-% on the log-1 sequencer throughout, plus crash-at-nth
/// with a reconfiguration to a replacement mid-run. Two runtimes interleave
/// deterministically from one thread (A reads, B reads the same snapshot, A
/// commits, B commits). Returns (per-step outcomes, the simulation's trace,
/// final counter).
fn faulted_tx_scenario(seed: u64) -> (Vec<String>, Vec<Delivery>, i64) {
    const ROUNDS: usize = 24;
    const CRASH_NTH: u64 = 9;
    let cluster = SimCluster::simulated(seed, ClusterConfig::sharded(2));
    let sim = cluster.sim();

    let clean = cluster.client().unwrap();
    let proj = clean.projection();
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let s = object_in_log(&bootstrap, &proj, 0, "faulted-s");
    let q = object_in_log(&bootstrap, &proj, 1, "faulted-q");

    let faulted_rt = || {
        let client = cluster.client().unwrap();
        let rt = TangoRuntime::new(client).unwrap();
        let vs = rt.register_object(s, Counters::default(), ObjectOptions::default()).unwrap();
        let vq = rt.register_object(q, Counters::default(), ObjectOptions::default()).unwrap();
        (rt, vs, vq)
    };
    let (rt_a, vs_a, vq_a) = faulted_rt();
    let (rt_b, vs_b, vq_b) = faulted_rt();

    // The faults start with the transactions: the crash is the CRASH_NTH-th
    // token grant from here on.
    let setup = sim.trace().iter().filter(|d| d.point == "shard1.seq.next").count() as u64;
    sim.drop_calls("shard1.seq.next", 25);
    sim.crash_node_at("shard1.seq.next", setup + CRASH_NTH);

    let mut outcomes = Vec::new();
    let mut recovered = false;
    for _round in 0..ROUNDS {
        // Both clients observe the same snapshot, then race commits: at
        // most one of the pair may win the round.
        let half = |rt: &TangoRuntime, vs: &tango::ObjectView<Counters>, vq| {
            let _ = vs.query(Some(0), |_| ());
            rt.begin_tx().unwrap();
            let v = get_in_tx(vs, 0);
            let w = get_in_tx(vq, 0);
            (v, w)
        };
        let (va, wa) = half(&rt_a, &vs_a, &vq_a);
        let (vb, wb) = half(&rt_b, &vs_b, &vq_b);
        put(&vs_a, 0, va + 1);
        put(&vq_a, 0, wa + 1);
        put(&vs_b, 0, vb + 1);
        put(&vq_b, 0, wb + 1);
        for (tag, rt) in [("A", &rt_a), ("B", &rt_b)] {
            let outcome = match rt.end_tx() {
                Ok(status) => format!("{tag}:{status:?}"),
                Err(_) => format!("{tag}:Err"),
            };
            outcomes.push(outcome);
        }
        // The crash fires at a seeded call count; once it has, reconfigure
        // log 1 to a replacement sequencer.
        if !recovered && !sim.crashed_nodes().is_empty() {
            let (info, _server) = cluster.spawn_replacement_sequencer_for(1).unwrap();
            corfu::reconfig::replace_sequencer_in_log(&clean, 1, info, 4).unwrap();
            recovered = true;
            outcomes.push("recovered".to_owned());
        }
    }
    assert!(recovered, "the crash-at-nth rule must have fired within {ROUNDS} rounds");

    // Exactly-one-commit per conflicting pair: A and B observed the same
    // snapshot each round, so both reporting Committed would be a
    // serializability violation.
    let tx_outcomes: Vec<&String> = outcomes.iter().filter(|o| *o != "recovered").collect();
    for pair in tx_outcomes.chunks(2) {
        assert!(
            !pair.iter().all(|o| o.ends_with("Committed")),
            "both sides of a conflicting pair committed: {pair:?}"
        );
    }

    // An `Err` from end_tx means *unknown outcome*, not aborted: a token
    // drop after the speculative commit record landed leaves a record any
    // replayer resolves by validation. So the final counters equal the
    // effective commit count — at least the reported commits, at most
    // reported commits + errors — and the cross-log halves move together.
    let committed = outcomes.iter().filter(|o| o.ends_with("Committed")).count() as i64;
    let errs = outcomes.iter().filter(|o| o.ends_with("Err")).count() as i64;
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let vs = rt.register_object(s, Counters::default(), ObjectOptions::default()).unwrap();
    let vq = rt.register_object(q, Counters::default(), ObjectOptions::default()).unwrap();
    let (final_s, final_q) = (get(&vs, 0), get(&vq, 0));
    assert_eq!(final_s, final_q, "both logs' halves of every effective commit applied");
    assert!(
        final_s >= committed && final_s <= committed + errs,
        "effective commits {final_s} outside [{committed}, {}]",
        committed + errs
    );
    assert!(committed > 0, "some transactions must get through the lossy schedule");
    (outcomes, sim.trace(), final_s)
}

#[test]
fn faulted_cross_log_transactions_replay_identically() {
    let dropped = std::cell::Cell::new(false);
    support::sweep!(faulted_cross_log_transactions_replay_identically, |seed| {
        // Outcomes, the full trace (polling included: it runs on virtual
        // time) and the effective commit count replay identically.
        let (_, trace, _) = support::replayed(seed, faulted_tx_scenario);
        assert!(trace.iter().any(|d| d.outcome == Outcome::NodeCrashed), "crash-at-nth fired");
        dropped.set(dropped.get() || trace.iter().any(|d| d.outcome == Outcome::Dropped));
    });
    assert!(dropped.get(), "the schedules exercised drop-%");
}
