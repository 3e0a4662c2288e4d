//! Deterministic chaos: a storage node is killed mid-pipelined-append
//! (sequencer token batching on) while a replacement runs concurrently.
//! Every acked append must stay readable, no sealed-epoch write may leak
//! into the rebuilt chain, and — because every fault decision is a pure
//! function of the seed — the schedule replays identically. One scenario,
//! run in-process and over real sockets.

mod support;

use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, TcpCluster, Transport};
use corfu::proto::{StorageRequest, StorageResponse};
use corfu::reconfig::replace_storage_node;
use corfu::{ClientOptions, LogOffset, NodeId};
use support::fault::{FaultPlan, TraceEvent};
use support::{seed_from_env, SeedGuard};

const TOTAL_APPENDS: u32 = 120;
const CRASH_AT_WRITE: u64 = 25;

/// One full run of the scenario on a fresh 2x2 cluster. Returns the fault
/// plan's decision trace (for the determinism assertion) after verifying
/// all safety properties.
fn scenario<T: Transport>(cluster: &Cluster<T>, seed: u64) -> Vec<TraceEvent> {
    let plan = FaultPlan::new(seed);
    // Seeded jitter on the storage path perturbs interleavings, then the
    // 25th storage write kills its target node outright.
    plan.delay_calls("storage.", 20, 300);
    plan.crash_at("storage.write", CRASH_AT_WRITE);
    // The plan fails every later call to the victim itself; the hook
    // hands the victim to the coordinator, which kills the node for real
    // (so clients outside the plan observe the crash too) and replaces it.
    let (tx, rx) = mpsc::channel::<NodeId>();
    plan.on_crash(move |node| {
        let _ = tx.send(node);
    });

    // The workload: appends retrying through the crash and the concurrent
    // reseal until all are acked.
    let appender_client = cluster
        .client_with_factory(
            plan.wrap(cluster.conn_factory()),
            ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();
    let appender = std::thread::spawn(move || {
        let mut acked: Vec<(LogOffset, Bytes)> = Vec::new();
        for i in 0..TOTAL_APPENDS {
            let payload = Bytes::from(format!("chaos-{i}").into_bytes());
            loop {
                match appender_client.append(payload.clone()) {
                    Ok(off) => {
                        acked.push((off, payload));
                        break;
                    }
                    Err(_) => {
                        // The dead node (or the reseal) failed this append;
                        // refresh and try again until the rebuild lands.
                        std::thread::sleep(Duration::from_millis(2));
                        let _ = appender_client.refresh_layout();
                    }
                }
            }
        }
        acked
    });

    // Replace the victim while the appender is still hammering the log.
    let dead = rx.recv_timeout(Duration::from_secs(10)).expect("the planned crash must fire");
    cluster.kill_storage_node(dead);
    let coordinator = cluster.client().unwrap();
    let (info, replacement) = cluster.spawn_replacement_storage().unwrap();
    let outcome = replace_storage_node(&coordinator, dead, info.clone()).unwrap();
    assert!(outcome.pages_copied > 0, "the rebuild must move pages");
    assert_eq!(outcome.projection.epoch, 1);

    let acked = appender.join().unwrap();
    assert_eq!(acked.len() as u32, TOTAL_APPENDS, "every append must eventually be acked");

    // Safety 1: every acked append is readable with its exact payload.
    let reader = cluster.client().unwrap();
    for (off, payload) in &acked {
        assert_eq!(
            &reader.read_entry(*off).unwrap().payload,
            payload,
            "acked append at offset {off} lost in the rebuild"
        );
    }

    // Safety 2: no sealed-epoch write leaked — the replacement is in
    // lockstep with the surviving replica of the rebuilt chain, page for
    // page. (Offsets never acked may be holes; they are absent from both.)
    let chain = outcome
        .projection
        .log(0)
        .replica_sets
        .iter()
        .find(|set| set.contains(&info.id))
        .expect("replacement must be in a chain");
    let survivor_id = *chain.iter().find(|&&n| n != info.id).expect("chain has a survivor");
    let survivor = &cluster.storage()[survivor_id as usize];
    let tail = match survivor.process(StorageRequest::LocalTail { epoch: 1 }) {
        StorageResponse::Tail(t) => t,
        other => panic!("local tail: {other:?}"),
    };
    assert_eq!(
        replacement.process(StorageRequest::LocalTail { epoch: 1 }),
        StorageResponse::Tail(tail)
    );
    for addr in 0..tail {
        assert_eq!(
            replacement.process(StorageRequest::Read { epoch: 1, addr }),
            survivor.process(StorageRequest::Read { epoch: 1, addr }),
            "replacement diverges from survivor at local address {addr}"
        );
    }

    plan.trace()
}

fn two_by_two() -> ClusterConfig {
    ClusterConfig { num_sets: 2, replication: 2, ..Default::default() }
}

/// Runs the scenario twice on fresh clusters from `spawn` and checks the
/// schedule replays.
fn replays_deterministically<T: Transport>(spawn: impl Fn() -> Cluster<T>) {
    let seed = seed_from_env(0xC0FF_EE00_0003);
    let _guard = SeedGuard(seed);

    let first = scenario(&spawn(), seed);
    let second = scenario(&spawn(), seed);

    // The pre-crash schedule is a pure function of the seed: both runs
    // must agree decision-for-decision up to and including the crash.
    // (After the crash, retry timing is wall-clock dependent, so only the
    // prefix is compared.)
    let crash_of = |trace: &[TraceEvent]| {
        trace.iter().position(|e| e.action == "crash").expect("crash must be in the trace")
    };
    let (c1, c2) = (crash_of(&first), crash_of(&second));
    assert_eq!(
        &first[..=c1],
        &second[..=c2],
        "same seed must reproduce the same schedule through the crash"
    );
    let crash = &first[c1];
    assert_eq!(crash.point, "storage.write");
    assert_eq!(crash.nth, CRASH_AT_WRITE);
}

#[test]
fn killed_node_under_pipelined_load_is_replaced_deterministically() {
    replays_deterministically(|| LocalCluster::new(two_by_two()));
}

#[test]
fn killed_node_under_pipelined_load_is_replaced_deterministically_over_tcp() {
    replays_deterministically(|| TcpCluster::spawn(two_by_two()).unwrap());
}
