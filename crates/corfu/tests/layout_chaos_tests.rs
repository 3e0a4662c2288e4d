//! Deterministic chaos on the metadata plane: metalog (layout) replicas
//! are crashed, their calls dropped, and their calls delayed by seeded
//! schedules on the simulated transport. The cluster must stay live — seal
//! and reconfigure keep working through any single layout-replica crash,
//! including one fired mid-`replace_storage_node` — and because every
//! decision is a function of the seed, each schedule replays identically.

mod support;

use std::cell::Cell;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, Delivery, Outcome, SimCluster, LAYOUT_BASE_ID};
use corfu::reconfig::{bump_epoch, replace_storage_node};
use corfu::{LogOffset, NodeId};

const PRELOAD_APPENDS: u32 = 40;

/// The acceptance scenario: a storage node dies and is replaced while the
/// layout CAS's very first metalog write crashes its target replica — the
/// reconfiguration must fail over to the surviving quorum and complete.
fn replacement_scenario(seed: u64) -> Vec<Delivery> {
    let cluster = SimCluster::simulated(
        seed,
        ClusterConfig { num_sets: 2, replication: 2, ..Default::default() },
    );
    let sim = cluster.sim();
    // Seeded jitter on the metadata plane, then the first metalog write of
    // the layout CAS kills the replica it lands on (the arbitrating,
    // lowest-indexed one) for every client.
    sim.delay_calls("meta.", 25, Duration::from_micros(200));
    sim.crash_node_at("meta.write", 1);

    let client = cluster.client().unwrap();

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
    let crashed: NodeId = *sim.crashed_nodes().first().expect("the planned crash must fire");
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

    sim.trace()
}

#[test]
fn layout_replica_crash_mid_replacement_is_survived_deterministically() {
    support::sweep!(layout_replica_crash_mid_replacement_is_survived_deterministically, |seed| {
        // The whole trace is a function of the seed.
        let trace = support::replayed(seed, replacement_scenario);
        let crash = trace.iter().find(|d| d.outcome == Outcome::NodeCrashed);
        let crash = crash.expect("crash must be in the trace");
        assert_eq!(crash.point, "meta.write");
        assert_eq!(crash.nth, 1);
    });
}

/// Drop/delay schedules on the metadata plane: a lossy, jittery network to
/// the metalog must slow reconfiguration down, never wedge or corrupt it.
fn lossy_meta_scenario(seed: u64) -> Vec<Delivery> {
    let cluster = SimCluster::simulated(
        seed,
        ClusterConfig { num_sets: 1, replication: 2, ..Default::default() },
    );
    let sim = cluster.sim();
    sim.drop_calls("meta.", 10);
    sim.delay_calls("meta.", 30, Duration::from_micros(150));

    let client = cluster.client().unwrap();

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

    sim.trace()
}

#[test]
fn lossy_metadata_plane_slows_but_never_wedges_reconfiguration() {
    let dropped = Cell::new(false);
    support::sweep!(lossy_metadata_plane_slows_but_never_wedges_reconfiguration, |seed| {
        let trace = support::replayed(seed, lossy_meta_scenario);
        let drops =
            trace.iter().any(|d| d.outcome == Outcome::Dropped && d.point.starts_with("meta."));
        dropped.set(dropped.get() || drops);
    });
    assert!(dropped.get(), "the schedules must actually drop metalog calls");
}

/// A layout replica crashes outright; a replacement is caught up from the
/// surviving quorum and inducted. The replacement must be a real quorum
/// member: the cluster then survives losing a *second* original replica.
#[test]
fn crashed_layout_replica_is_replaced_and_carries_the_quorum() {
    support::sweep!(crashed_layout_replica_is_replaced_and_carries_the_quorum, |seed| {
        replaced_layout_replica_carries_the_quorum(seed)
    });
}

fn replaced_layout_replica_carries_the_quorum(seed: u64) {
    let cluster = SimCluster::simulated(
        seed,
        ClusterConfig { num_sets: 1, replication: 2, ..Default::default() },
    );
    cluster.sim().delay_calls("meta.", 25, Duration::from_micros(200));
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
