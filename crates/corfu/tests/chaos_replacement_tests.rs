//! Deterministic chaos: a storage node is killed mid-pipelined-append while
//! a replacement runs concurrently. Every acked append must stay readable,
//! no sealed-epoch write may leak into the rebuilt chain, and — because the
//! simulated transport makes every decision a function of the seed — a
//! seed replays bit for bit.

mod support;

use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, Delivery, Outcome, SimCluster};
use corfu::proto::{StorageRequest, StorageResponse};
use corfu::reconfig::replace_storage_node;
use corfu::LogOffset;

const TOTAL_APPENDS: u32 = 120;
const CRASH_AT_WRITE: u64 = 25;

/// One full run of the schedule on a fresh 2x2 cluster: an appender thread
/// hammers the log while the 25th storage write crashes its node, and the
/// main thread replaces the victim. Returns the simulation's trace after
/// verifying every safety property.
fn scenario(seed: u64) -> Vec<Delivery> {
    let cluster = SimCluster::simulated(
        seed,
        ClusterConfig { num_sets: 2, replication: 2, ..Default::default() },
    );
    let sim = cluster.sim();
    // Seeded jitter on the storage path reorders calls, then the 25th
    // storage write kills its target node outright.
    sim.delay_calls("storage.", 20, Duration::from_micros(300));
    sim.crash_node_at("storage.write", CRASH_AT_WRITE);

    // The workload: appends retrying through the crash and the concurrent
    // reseal until all are acked.
    let appender_client = cluster.client().unwrap();
    let appender = sim.spawn("appender", move || {
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
                        appender_client.clock().sleep(Duration::from_millis(2));
                        let _ = appender_client.refresh_layout();
                    }
                }
            }
        }
        acked
    });

    // Replace the victim while the appender is still hammering the log.
    support::wait_until(&sim.clock(), "the planned crash fires", || {
        !sim.crashed_nodes().is_empty()
    });
    let dead = sim.crashed_nodes()[0];
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

    let trace = sim.trace();
    let crash =
        trace.iter().find(|d| d.outcome == Outcome::NodeCrashed).expect("crash in the trace");
    assert_eq!((crash.point.as_str(), crash.nth), ("storage.write", CRASH_AT_WRITE));
    trace
}

/// Each seed runs twice, and every delivery — its virtual time, its
/// endpoints, its point and occurrence, its outcome — is the same, after
/// the crash as much as before it.
#[test]
fn killed_node_under_pipelined_load_is_replaced_deterministically() {
    support::sweep!(killed_node_under_pipelined_load_is_replaced_deterministically, |seed| {
        support::replayed(seed, scenario);
    });
}
