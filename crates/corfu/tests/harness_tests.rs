//! The deployment harness itself: behaviour every `Cluster<T>` must show
//! whatever it is served on. Each scenario is one generic body run on the
//! in-process transport, over TCP and on the simulated transport — the bugs
//! pinned here were all cases of one harness copy drifting from another.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, SimCluster, TcpCluster, Transport};
use corfu::reconfig::{replace_sequencer, replace_storage_node};
use corfu::{ClientOptions, CompactorConfig, EntryEnvelope, NodeInfo};
use tango_metrics::HealthStatus;

/// Expands to `<scenario>::in_process`, `<scenario>::over_tcp` and
/// `<scenario>::simulated`: the one generic body, on a fresh cluster per
/// transport.
macro_rules! on_every_transport {
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

            #[test]
            fn simulated() {
                super::$scenario(&SimCluster::simulated(0x5EED, $config));
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

on_every_transport!(
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
    let configured = cluster.client().unwrap();
    assert_eq!(configured.options().hole_fill_timeout, Duration::from_millis(250));

    let overridden = cluster.client_with_options(ClientOptions::default()).unwrap();
    assert_eq!(overridden.options().hole_fill_timeout, Duration::from_millis(100));
}

on_every_transport!(
    client_honours_configured_options,
    ClusterConfig {
        client_options: ClientOptions { hole_fill_timeout: Duration::from_millis(250) },
        ..ClusterConfig::tiny()
    }
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

on_every_transport!(
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

on_every_transport!(
    single_replica_metalog_is_a_complete_layout_service,
    ClusterConfig { layout_replicas: 1, ..ClusterConfig::tiny() }
);

/// A node that keeps its id but moves to another address is another node:
/// a client that learns of the move through a refresh dials the new address
/// instead of carrying its old connection over. The old sequencer is
/// decommissioned, not killed — it stays up, sealed at the new epoch — so a
/// carried-over connection fails no call: it gets tokens from a sequencer
/// that is no longer the log's.
fn moved_node_is_dialled_at_its_new_address<T: Transport>(cluster: &Cluster<T>) {
    let operator = cluster.client().unwrap();
    let bystander = cluster.client().unwrap();
    assert_eq!(bystander.append(Bytes::from_static(b"before")).unwrap(), 0);

    let old = bystander.projection();
    let id = old.sequencer_of(0);
    let (replacement, server) = cluster.spawn_replacement_sequencer().unwrap();
    assert_ne!(Some(replacement.addr.as_str()), old.addr_of(id));
    let moved = NodeInfo { id, addr: replacement.addr };
    let outcome = replace_sequencer(&operator, moved.clone(), 4).unwrap();
    assert_eq!(outcome.projection.sequencer_of(0), id);
    assert_eq!(outcome.projection.addr_of(id), Some(moved.addr.as_str()));

    assert_eq!(bystander.append(Bytes::from_static(b"after")).unwrap(), 1);
    assert_eq!(bystander.projection().addr_of(id), Some(moved.addr.as_str()));
    assert_eq!(server.tokens_issued(), 1, "the token came from the sequencer that moved in");
    assert_eq!(cluster.sequencer().tokens_issued(), 1, "and not from the one that moved out");
}

on_every_transport!(moved_node_is_dialled_at_its_new_address, ClusterConfig::tiny());

/// An operation works from the snapshot it took. An appender that holds a
/// pre-seal snapshot — and a token granted under it — across a storage
/// replacement is told `ErrSealed`, swaps its snapshot for the new layout,
/// re-frames the same entry at the new epoch and lands it exactly once; a
/// client created after the swap reads it back from the new chain.
fn pre_seal_snapshot_is_swapped_and_the_entry_lands_once<T: Transport>(cluster: &Cluster<T>) {
    let operator = cluster.client().unwrap();
    let appender = cluster.client().unwrap();
    let seal_retries = || cluster.metrics().counter("corfu.client.seal_retries").get();
    assert_eq!(appender.append(Bytes::from_static(b"before")).unwrap(), 0);
    let held = appender.projection();
    let token = appender.token(&[]).unwrap();

    cluster.kill_storage_node(1);
    let (replacement, _server) = cluster.spawn_replacement_storage().unwrap();
    let installed = replace_storage_node(&operator, 1, replacement.clone()).unwrap().projection;
    assert!(Arc::ptr_eq(&held, &appender.projection()), "nobody told the appender yet");
    assert_eq!(seal_retries(), 0);

    // The chain write goes out framed for epoch 0, is refused, and goes out
    // again — same entry bytes, new epoch — over the new chain.
    let late_entry = EntryEnvelope::raw(Bytes::from_static(b"token from before the seal"));
    appender.write_at(token.offset, &late_entry.encode(token.offset).unwrap()).unwrap();
    assert_eq!(seal_retries(), 1);
    assert_eq!(*appender.projection(), installed);
    assert_eq!(held.epoch + 1, installed.epoch, "the held snapshot itself never changed");
    assert!(installed.chain_for(0).contains(&replacement.id));
    let after = appender.append(Bytes::from_static(b"after")).unwrap();
    assert_eq!(seal_retries(), 1, "one refresh served both");

    let late = cluster.client().unwrap();
    let tail = late.check_tail_fast().unwrap();
    let payloads: Vec<Bytes> = (0..tail).map(|o| late.read_entry(o).unwrap().payload).collect();
    assert_eq!(payloads, [&b"before"[..], b"token from before the seal", b"after"]);
    assert_eq!((token.offset, after), (1, 2));
    // Both replicas of the new chain hold all three: the replacement is one.
    assert_eq!(cluster.storage_server(replacement.id).unwrap().stats().data_writes, 3);
}

on_every_transport!(
    pre_seal_snapshot_is_swapped_and_the_entry_lands_once,
    ClusterConfig { num_sets: 1, replication: 2, ..Default::default() }
);
