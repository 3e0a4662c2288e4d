//! The cluster-wide observability plane over real sockets: the snapshot
//! request every node answers on its one port, the merged cluster
//! snapshot, and trace propagation through TCP frames into per-node span
//! rings.

use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, TcpCluster, SEQUENCER_BASE_ID};
use corfu::proto::{StorageRequest, StorageResponse};
use tango_metrics::{Sampler, SpanKind};
use tango_repro::inspector;
use tango_rpc::{fetch_snapshot, ClientConn, TcpConn, SERVER_WORKERS};
use tango_wire::{decode_from_slice, encode_to_vec};

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Live threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn every_node_serves_scrape_endpoints() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 2, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..8u32 {
        client.append(Bytes::from(format!("scrape-{i}"))).unwrap();
    }

    let targets = cluster.scrape_targets();
    // 4 storage nodes + sequencer + 3 metalog (layout) replicas.
    assert_eq!(targets.len(), 8, "{targets:?}");
    assert!(targets.iter().any(|(name, _)| name == "sequencer"));
    assert_eq!(targets.iter().filter(|(name, _)| name.starts_with("layout-")).count(), 3);

    // A node is one server: the address a monitor asks is the address
    // clients dial, and the node's threads are its RPC pool's.
    let mut dialled: Vec<String> =
        client.projection().nodes.iter().map(|n| n.addr.clone()).collect();
    dialled.extend(cluster.layout_replicas().into_iter().map(|r| r.addr));
    for (name, addr) in &targets {
        let snap = fetch_snapshot(addr, SCRAPE_TIMEOUT).unwrap();
        assert!(!snap.counters.is_empty(), "{name} snapshot must not be empty");
        assert!(dialled.contains(addr), "{name} at {addr}");
        let port = addr.rsplit(':').next().unwrap();
        assert_eq!(threads_named(&format!("rpc{port}-w")), SERVER_WORKERS, "{name}");
    }
    assert_eq!(threads_named("http"), 0, "no node runs a second server");

    // Storage nodes expose populated service-time histograms.
    let storage = targets.iter().find(|(name, _)| name == "storage-0").unwrap();
    let snap = fetch_snapshot(&storage.1, SCRAPE_TIMEOUT).unwrap();
    assert!(snap.histogram("flash.write.service_ns").is_some_and(|h| h.count() > 0));
    assert!(snap.histogram("flash.queue_wait_ns").is_some_and(|h| h.count() > 0));
}

/// The request is answered before the service sees it: a node sealed past
/// every epoch a client could hold refuses that client and still reports.
#[test]
fn a_sealed_storage_node_still_answers() {
    let cluster = TcpCluster::spawn(ClusterConfig::tiny()).unwrap();
    let client = cluster.client().unwrap();
    client.append(Bytes::from_static(b"before the seal")).unwrap();
    let (_, addr) =
        cluster.scrape_targets().into_iter().find(|(name, _)| name == "storage-0").unwrap();

    let conn = TcpConn::new(addr.clone());
    let call = |req: &StorageRequest| -> StorageResponse {
        decode_from_slice(&conn.call(&encode_to_vec(req)).unwrap()).unwrap()
    };
    assert!(matches!(call(&StorageRequest::Seal { epoch: 9 }), StorageResponse::Tail(_)));
    let refused = call(&StorageRequest::Read { epoch: 0, addr: 0 });
    assert_eq!(refused, StorageResponse::ErrSealed { epoch: 9 });

    let snap = fetch_snapshot(&addr, SCRAPE_TIMEOUT).unwrap();
    assert_eq!(snap.counter("corfu.storage.writes"), 1);
}

#[test]
fn cluster_snapshot_merges_every_node() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 2, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    const APPENDS: u64 = 32;
    for i in 0..APPENDS {
        client.append(Bytes::from(format!("merge-{i}"))).unwrap();
    }
    client.read(0).unwrap();

    let snapshot = cluster.cluster_snapshot();
    // 8 scraped nodes + the synthetic "clients" node.
    assert_eq!(snapshot.len(), 9);
    assert!(snapshot.node("clients").is_some());

    // Per-node breakdown: each storage node holds only its own share.
    let per_node: u64 = (0..4)
        .map(|id| snapshot.node(&format!("storage-{id}")).unwrap())
        .map(|s| s.counter("corfu.storage.writes"))
        .sum();
    assert_eq!(per_node, APPENDS * 2, "32 appends x replication 2");

    let merged = snapshot.merged();
    assert_eq!(merged.counter("corfu.storage.writes"), APPENDS * 2);
    assert_eq!(merged.counter("corfu.seq.tokens_granted"), APPENDS);
    // Client-side counters ride in through the "clients" node.
    assert_eq!(merged.counter("corfu.client.tokens"), APPENDS);

    // The latency decomposition is populated: device service time and
    // lock queue wait both have samples (1-in-16 sampled, first op hits
    // on every node).
    let service = merged.histogram("flash.write.service_ns").expect("service histogram");
    assert!(service.count() >= 1);
    assert!(service.p95() > 0, "sampled writes must have a nonzero p95");
    let wait = merged.histogram("flash.queue_wait_ns").expect("queue-wait histogram");
    assert!(wait.count() >= 1);

    // The text rendering of the merged view carries the quantiles.
    let text = merged.to_text();
    assert!(text.contains("flash.write.service_ns"), "{text}");
    assert!(text.contains("p95="), "{text}");
}

#[test]
fn scrape_survives_killed_nodes() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 2, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..4u32 {
        client.append(Bytes::from(format!("pre-{i}"))).unwrap();
    }

    let args: Vec<String> =
        cluster.scrape_targets().iter().map(|(name, addr)| format!("{name}={addr}")).collect();
    cluster.kill_storage_node(3);
    let snapshot = cluster.cluster_snapshot();
    assert!(snapshot.node("storage-3").is_none(), "killed node drops out of the scrape");
    assert!(snapshot.node("storage-0").is_some());
    assert!(snapshot.merged().counter("corfu.storage.writes") > 0);

    // A monitor still holding the dead node's address: it lands in
    // `unreachable` within the timeout and the other seven are read.
    let begun = Instant::now();
    let (snapshot, unreachable) =
        inspector::scrape(&inspector::parse_targets(&args), SCRAPE_TIMEOUT);
    assert!(begun.elapsed() < SCRAPE_TIMEOUT * 2, "scrape took {:?}", begun.elapsed());
    assert_eq!(unreachable, ["storage-3"]);
    assert_eq!(snapshot.len(), 7);
}

#[test]
fn traces_propagate_across_tcp_into_per_node_rings() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let mut client = cluster.client().unwrap();
    client.set_sampling(Sampler::one_in(1));

    client.append(Bytes::from_static(b"traced-over-tcp")).unwrap();

    // The root span lives client-side.
    let roots = cluster.metrics().spans();
    let root = roots
        .iter()
        .find(|s| s.is_root() && s.kind == SpanKind::ClientAppend)
        .expect("sampled append records a root span");

    // The grant span lives in the sequencer's own registry, parented to
    // the client's root — the context crossed the socket in the frame.
    let seq_spans = cluster.node_registry(SEQUENCER_BASE_ID).unwrap().spans();
    let grant = seq_spans
        .iter()
        .find(|s| s.kind == SpanKind::SeqGrant)
        .expect("sequencer records the grant");
    assert_eq!(grant.trace_id, root.trace_id);
    assert_eq!(grant.parent_span_id, root.span_id);

    // Each replica's write span lives in that node's registry.
    for id in 0..2 {
        let spans = cluster.node_registry(id).unwrap().spans();
        let write = spans
            .iter()
            .find(|s| s.kind == SpanKind::StorageWrite)
            .unwrap_or_else(|| panic!("storage-{id} records its chain write: {spans:?}"));
        assert_eq!(write.trace_id, root.trace_id);
        assert_eq!(write.parent_span_id, root.span_id);
    }
}
