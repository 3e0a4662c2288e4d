//! The deployment harness itself: behaviour every `Cluster<T>` must show
//! whatever it is served on. Each scenario is one generic body run on the
//! in-process transport and over TCP — the bugs pinned here were all cases
//! of one harness copy drifting from the other.

use std::sync::Arc;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, TcpCluster, Transport};
use corfu::reconfig::{replace_sequencer, replace_storage_node};
use corfu::{ClientOptions, CompactorConfig};
use tango_metrics::HealthStatus;

/// Expands to `<scenario>::in_process` and `<scenario>::over_tcp`: the one
/// generic body, on a fresh cluster per transport.
macro_rules! on_both_transports {
    ($scenario:ident, $config:expr) => {
        mod $scenario {
            use super::*;

            #[test]
            fn in_process() {
                super::$scenario(&LocalCluster::new($config));
            }

            #[test]
            fn over_tcp() {
                super::$scenario(&TcpCluster::spawn($config).unwrap());
            }
        }
    };
}

/// Killing a storage node stops its background compactor and drops its
/// handler: nothing but the harness's own handle still references the dead
/// node's server, so no background pass can run on a "dead" unit.
fn killed_storage_node_stops_its_compactor<T: Transport>(cluster: &Cluster<T>) {
    let victim = &cluster.storage()[0];
    assert!(Arc::strong_count(victim) > 1, "a live node is served and compacted");
    cluster.kill_storage_node(0);
    assert_eq!(Arc::strong_count(victim), 1, "compactor thread or handler outlived the kill");
    assert!(cluster.storage_server(0).is_none());
    assert!(cluster.storage_server(1).is_some());
}

on_both_transports!(
    killed_storage_node_stops_its_compactor,
    ClusterConfig {
        num_sets: 1,
        replication: 2,
        compaction: Some(CompactorConfig::default()),
        ..Default::default()
    }
);

/// `client()` honours `ClusterConfig::client_options`; `client_with_options`
/// is the explicit override.
fn client_honours_configured_options<T: Transport>(cluster: &Cluster<T>) {
    let batches = || cluster.metrics().counter("corfu.client.token_batches").get();
    let configured = cluster.client().unwrap();
    for i in 0..8u32 {
        configured.append(Bytes::from(format!("batched-{i}"))).unwrap();
    }
    assert_eq!(batches(), 2, "seq_batch = 4 reserves 8 tokens in 2 round trips");

    let overridden = cluster.client_with_options(ClientOptions::default()).unwrap();
    for i in 0..4u32 {
        overridden.append(Bytes::from(format!("plain-{i}"))).unwrap();
    }
    assert_eq!(batches(), 2, "the explicit override turns batching off");
}

on_both_transports!(
    client_honours_configured_options,
    ClusterConfig { client_options: ClientOptions::batched(), ..ClusterConfig::tiny() }
);

/// A killed node reads as unreachable — ok → degraded — until it has been
/// replaced *and* retired from the monitoring target list — → ok.
fn killed_node_is_unreachable_until_retired<T: Transport>(cluster: &Cluster<T>) {
    let client = cluster.client().unwrap();
    client.append(Bytes::from_static(b"healthy")).unwrap();
    assert_eq!(cluster.cluster_health().status, HealthStatus::Ok);

    cluster.kill_storage_node(1);
    let health = cluster.cluster_health();
    assert_eq!(health.status, HealthStatus::Degraded, "{:?}", health.reasons);
    assert!(
        health.reasons.iter().any(|r| r.code == "unreachable" && r.detail.contains("storage-1")),
        "{:?}",
        health.reasons
    );
    assert!(cluster.cluster_snapshot().node("storage-1").is_none());

    // Repair alone does not clear the alarm: the dead target is still on
    // the list until the operator retires it.
    let (info, _server) = cluster.spawn_replacement_storage().unwrap();
    replace_storage_node(&client, 1, info).unwrap();
    assert_eq!(cluster.cluster_health().status, HealthStatus::Degraded);
    cluster.retire_scrape_target("storage-1");
    let health = cluster.cluster_health();
    assert_eq!(health.status, HealthStatus::Ok, "{:?}", health.reasons);
}

on_both_transports!(
    killed_node_is_unreachable_until_retired,
    ClusterConfig { num_sets: 1, replication: 2, ..Default::default() }
);

/// The degenerate layout service: a 1-replica metalog is the single-node
/// case. Same epoch-CAS semantics, and reconfiguration goes through it.
fn single_replica_metalog_is_a_complete_layout_service<T: Transport>(cluster: &Cluster<T>) {
    assert_eq!(cluster.layout_replicas().len(), 1);
    let client = cluster.client().unwrap();
    for i in 0..6u32 {
        client.append(Bytes::from(format!("one-replica-{i}"))).unwrap();
    }

    // Stale and skipping proposals lose to the incumbent; nothing installs.
    let layout = cluster.layout_client();
    let current = layout.get().unwrap();
    assert_eq!(current.epoch, 0);
    let mut skipping = current.clone();
    skipping.epoch = 2;
    assert_eq!(layout.propose(current.clone()).unwrap(), Some(current.clone()));
    assert_eq!(layout.propose(skipping).unwrap(), Some(current));

    // A real reconfiguration (exactly current + 1) installs through it.
    cluster.kill_sequencer();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = replace_sequencer(&client, info, 4).unwrap();
    assert_eq!(outcome.recovered_tail, 6);
    assert_eq!(layout.get().unwrap(), outcome.projection);
    assert_eq!(outcome.projection.epoch, 1);
    assert_eq!(client.append(Bytes::from_static(b"after")).unwrap(), 6);
}

on_both_transports!(
    single_replica_metalog_is_a_complete_layout_service,
    ClusterConfig { layout_replicas: 1, ..ClusterConfig::tiny() }
);
