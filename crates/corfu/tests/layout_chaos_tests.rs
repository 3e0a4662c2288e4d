//! Deterministic chaos on the metadata plane: metalog (layout) replicas
//! are crashed, their calls dropped, and their calls delayed under seeded
//! [`FaultPlan`] schedules. The cluster must stay live — seal and
//! reconfigure keep working through any single layout-replica crash,
//! including one fired mid-`replace_storage_node` — and because every
//! fault decision is a pure function of the seed, each schedule replays
//! identically under the same `TANGO_FAULT_SEED`.

mod support;

use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, LAYOUT_BASE_ID};
use corfu::reconfig::{bump_epoch, replace_storage_node};
use corfu::{ClientOptions, LogOffset, NodeId};
use support::fault::{FaultPlan, TraceEvent};
use support::{seed_from_env, SeedGuard};

const SEED_DEFAULT: u64 = 0xC0FF_EE00_0006;
const PRELOAD_APPENDS: u32 = 40;

/// The acceptance scenario: a storage node dies and is replaced while the
/// layout CAS's very first metalog write crashes its target replica — the
/// reconfiguration must fail over to the surviving quorum and complete.
/// Single-threaded, so the full decision trace is seed-deterministic.
fn replacement_scenario(seed: u64) -> Vec<TraceEvent> {
    let cluster =
        LocalCluster::new(ClusterConfig { num_sets: 2, replication: 2, ..Default::default() });
    let plan = FaultPlan::new(seed);
    // Seeded jitter on the metadata plane, then the first metalog write of
    // the layout CAS kills the replica it lands on (the arbitrating,
    // lowest-indexed one).
    plan.delay_calls("meta.", 25, 200);
    plan.crash_at("meta.write", 1);
    let (tx, rx) = mpsc::channel::<NodeId>();
    {
        let registry = cluster.registry().clone();
        plan.on_crash(move |node| {
            // Kill the replica for real so every client observes the crash.
            registry.kill(&format!("meta-{node}"));
            let _ = tx.send(node);
        });
    }

    let client = cluster
        .client_with_factory(
            plan.wrap(cluster.conn_factory()),
            ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();

    // A fixed preload so the rebuild has a deterministic amount to copy.
    let mut acked: Vec<(LogOffset, Bytes)> = Vec::new();
    for i in 0..PRELOAD_APPENDS {
        let payload = Bytes::from(format!("meta-chaos-{i}").into_bytes());
        let off = client.append(payload.clone()).unwrap();
        acked.push((off, payload));
    }

    // Kill a storage node and replace it. The layout CAS at the end of the
    // rebuild triggers the planned metalog-replica crash mid-operation.
    let victim: NodeId = 3;
    cluster.kill_storage_node(victim);
    let (info, _replacement) = cluster.spawn_replacement_storage().unwrap();
    let outcome = replace_storage_node(&client, victim, info).unwrap();
    assert_eq!(outcome.projection.epoch, 1, "the rebuild must install epoch 1");
    assert!(outcome.pages_copied > 0, "the rebuild must move pages");

    // The planned crash fired, on a metalog replica.
    let crashed = rx.recv_timeout(Duration::from_secs(10)).expect("the planned crash must fire");
    assert!(crashed >= LAYOUT_BASE_ID, "the crash must hit a layout replica, got {crashed}");

    // Liveness after the crash: the same client can keep reconfiguring
    // (seal + CAS) on the surviving two-replica quorum...
    let (epoch, _) = bump_epoch(&client).unwrap();
    assert_eq!(epoch, 2);

    // ...and appends still flow end to end.
    for i in 0..8u32 {
        let payload = Bytes::from(format!("post-crash-{i}").into_bytes());
        let off = client.append(payload.clone()).unwrap();
        acked.push((off, payload));
    }

    // Every acked append is readable with its exact payload.
    let reader = cluster.client().unwrap();
    for (off, payload) in &acked {
        assert_eq!(&reader.read_entry(*off).unwrap().payload, payload);
    }

    plan.trace()
}

#[test]
fn layout_replica_crash_mid_replacement_is_survived_deterministically() {
    let seed = seed_from_env(SEED_DEFAULT);
    let _guard = SeedGuard(seed);

    let first = replacement_scenario(seed);
    let second = replacement_scenario(seed);

    // Single-threaded scenario: the whole decision trace is a pure
    // function of the seed, not just the pre-crash prefix.
    assert_eq!(first, second, "same seed must reproduce the identical trace");

    let crash = first.iter().find(|e| e.action == "crash").expect("crash must be in the trace");
    assert_eq!(crash.point, "meta.write");
    assert_eq!(crash.nth, 1);
}

/// Drop/delay schedules on the metadata plane: a lossy, jittery network to
/// the metalog must slow reconfiguration down, never wedge or corrupt it.
fn lossy_meta_scenario(seed: u64) -> Vec<TraceEvent> {
    let cluster =
        LocalCluster::new(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() });
    let plan = FaultPlan::new(seed);
    plan.drop_calls("meta.", 10);
    plan.delay_calls("meta.", 30, 150);

    let client = cluster
        .client_with_factory(
            plan.wrap(cluster.conn_factory()),
            ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();

    let mut acked: Vec<(LogOffset, Bytes)> = Vec::new();
    for i in 0..12u32 {
        let payload = Bytes::from(format!("lossy-{i}").into_bytes());
        let off = client.append(payload.clone()).unwrap();
        acked.push((off, payload));
    }

    // Reconfigure repeatedly through the lossy metadata plane. Epochs must
    // advance exactly one at a time — dropped metalog calls may force
    // retries but can never skip or double-install an epoch.
    for round in 0..4u64 {
        let (epoch, _) = bump_epoch(&client).unwrap();
        assert_eq!(epoch, round + 1);
    }
    for (off, payload) in &acked {
        assert_eq!(&cluster.client().unwrap().read_entry(*off).unwrap().payload, payload);
    }

    plan.trace()
}

#[test]
fn lossy_metadata_plane_slows_but_never_wedges_reconfiguration() {
    let seed = seed_from_env(SEED_DEFAULT ^ 0xA5A5);
    let _guard = SeedGuard(seed);

    let first = lossy_meta_scenario(seed);
    let second = lossy_meta_scenario(seed);
    assert_eq!(first, second, "same seed must reproduce the identical trace");
    assert!(
        first.iter().any(|e| e.action == "drop" && e.point.starts_with("meta.")),
        "the schedule must actually drop metalog calls"
    );
}

/// A layout replica crashes outright; a replacement is caught up from the
/// surviving quorum and inducted. The replacement must be a real quorum
/// member: the cluster then survives losing a *second* original replica.
#[test]
fn crashed_layout_replica_is_replaced_and_carries_the_quorum() {
    let cluster =
        LocalCluster::new(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() });
    let client = cluster.client().unwrap();
    for i in 0..6u32 {
        client.append(Bytes::from(format!("pre-{i}"))).unwrap();
    }

    // Crash the arbitrating (lowest-indexed) replica.
    cluster.kill_layout_replica(LAYOUT_BASE_ID);
    // Seal/reconfigure works on the surviving 2-of-3 quorum.
    let (epoch, _) = bump_epoch(&client).unwrap();
    assert_eq!(epoch, 1);

    // Chain-rebuild the metalog: catch a fresh replica up and induct it.
    let info = cluster.replace_layout_replica(LAYOUT_BASE_ID).unwrap();
    let node = cluster.meta_node(info.id).expect("replacement registered");
    // Catch-up copied the whole history: genesis + epoch 1 = positions 0..=1.
    assert_eq!(node.tail(), 2, "replacement must hold every decided record");

    // The replacement carries its share: lose a second original replica and
    // the metalog still serves seals, reconfigurations, and appends.
    cluster.kill_layout_replica(LAYOUT_BASE_ID + 1);
    let (epoch, _) = bump_epoch(&client).unwrap();
    assert_eq!(epoch, 2);
    let off = client.append(Bytes::from_static(b"after-two-crashes")).unwrap();
    assert_eq!(
        cluster.client().unwrap().read_entry(off).unwrap().payload,
        Bytes::from_static(b"after-two-crashes")
    );
}
