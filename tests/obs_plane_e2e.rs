//! The health/lag plane and flight recorder end to end over real
//! sockets: a health verdict and the event journal out of every node's
//! snapshot, cluster health riding through a fault window, the sharded
//! cluster snapshot, the cross-log trace tree, and the `tangoctl`
//! inspector and binary against live nodes.

use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, TcpCluster, LAYOUT_BASE_ID, SEQUENCER_BASE_ID};
use corfu::{log_of_offset, Projection, StreamId};
use tango_metrics::{log_scoped, EventKind, HealthReport, HealthStatus, Sampler, SpanKind};
use tango_repro::inspector;
use tango_rpc::fetch_snapshot;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

#[test]
fn every_node_reads_healthy_and_carries_its_journal() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..4u32 {
        client.append(Bytes::from(format!("hz-{i}"))).unwrap();
    }

    for (name, addr) in &cluster.scrape_targets() {
        let snap = fetch_snapshot(addr, SCRAPE_TIMEOUT).unwrap();
        let report = HealthReport::evaluate(&snap);
        assert_eq!(report.status, HealthStatus::Ok, "{name} must be healthy");
        assert!(report.reasons.is_empty(), "{name}: {:?}", report.reasons);
        // The journal rides the snapshot, whole.
        assert_eq!(snap.events.len() as u64, snap.counter("events.recorded"), "{name}");
    }
}

#[test]
fn sequencer_journal_is_scrapeable_after_a_seal() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..3u32 {
        client.append(Bytes::from(format!("seal-{i}"))).unwrap();
    }
    corfu::reconfig::seal_log(&client, 0).unwrap();

    // The sealed sequencer journalled the event in its own registry; it
    // rides out inside the node's snapshot.
    let targets = cluster.scrape_targets();
    let (_, addr) = targets.iter().find(|(name, _)| name == "sequencer").unwrap();
    let snap = fetch_snapshot(addr, SCRAPE_TIMEOUT).unwrap();
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Sealed), "{:?}", snap.events);

    let snapshot = cluster.cluster_snapshot();
    let timeline = snapshot.timeline_text();
    assert!(timeline.contains("node=sequencer") && timeline.contains("kind=sealed"), "{timeline}");
}

#[test]
fn cluster_health_degrades_in_the_fault_window_and_recovers() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    client.append(Bytes::from_static(b"healthy")).unwrap();

    assert_eq!(cluster.cluster_health().status, HealthStatus::Ok);

    // Fault window: one metalog replica dies. The cluster degrades (the
    // target is unreachable) but quorum holds.
    cluster.kill_layout_replica(LAYOUT_BASE_ID + 2);
    let health = cluster.cluster_health();
    assert_eq!(health.status, HealthStatus::Degraded);
    assert!(health.reasons.iter().any(|r| r.code == "unreachable"), "{:?}", health.reasons);

    // Repair: catch a replacement up from the surviving quorum and
    // install it. The dead replica leaves the target list with the
    // membership, so health returns to ok.
    cluster.replace_layout_replica(LAYOUT_BASE_ID + 2).unwrap();
    let health = cluster.cluster_health();
    assert_eq!(health.status, HealthStatus::Ok, "{:?}", health.reasons);

    // Losing a majority of the metalog is unhealthy, not merely degraded.
    cluster.kill_layout_replica(LAYOUT_BASE_ID);
    cluster.kill_layout_replica(LAYOUT_BASE_ID + 1);
    let health = cluster.cluster_health();
    assert_eq!(health.status, HealthStatus::Unhealthy);
    assert!(health.reasons.iter().any(|r| r.code == "meta_quorum"), "{:?}", health.reasons);
}

#[test]
fn sharded_cluster_snapshot_keeps_per_log_instruments_apart() {
    let cluster = TcpCluster::spawn(ClusterConfig::sharded(2)).unwrap();
    let client = cluster.client().unwrap();
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);
    for i in 0..5u32 {
        client.append_streams(&[s0], Bytes::from(format!("a-{i}"))).unwrap();
    }
    for i in 0..3u32 {
        client.append_streams(&[s1], Bytes::from(format!("b-{i}"))).unwrap();
    }

    let snapshot = cluster.cluster_snapshot();
    assert!(snapshot.node("sequencer").is_some());
    assert!(snapshot.node("sequencer-1").is_some());

    // Per-log sequencer tails stay under distinct (log-scoped) names in
    // the merged view — no collision between shards.
    let merged = snapshot.merged();
    assert_eq!(merged.gauge(&log_scoped("corfu.seq.tail", 0)), 5);
    assert_eq!(merged.gauge(&log_scoped("corfu.seq.tail", 1)), 3);

    // The client's per-log append counters: log 0 keeps the historic
    // bare name (byte-compatible single-log output), other logs get the
    // `.logN` suffix.
    let clients = snapshot.node("clients").unwrap();
    assert_eq!(clients.counter("corfu.client.appends"), 5);
    assert_eq!(clients.counter(&log_scoped("corfu.client.appends", 1)), 3);
}

#[test]
fn cross_log_multiappend_shares_one_trace_over_tcp() {
    let cluster = TcpCluster::spawn(ClusterConfig::sharded(2)).unwrap();
    let mut client = cluster.client().unwrap();
    client.set_sampling(Sampler::one_in(1));
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let (home, _) = client.append_streams(&[s0, s1], Bytes::from_static(b"linked")).unwrap();
    assert_eq!(log_of_offset(home), 0, "the home anchor lives in the lowest log");

    // Client side: one root append span, with a per-log child span for
    // each written part, all in one trace.
    let spans = cluster.metrics().spans();
    let root = spans
        .iter()
        .find(|s| s.is_root() && s.kind == SpanKind::ClientAppend)
        .expect("sampled multiappend records a root span");
    let parts: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::ClientAppend && s.parent_span_id == root.span_id)
        .collect();
    assert_eq!(parts.len(), 2, "one child span per participating log: {spans:?}");
    for part in &parts {
        assert_eq!(part.trace_id, root.trace_id);
    }

    // Server side: *both* logs' sequencers granted under the same trace —
    // the context crossed the socket to every shard.
    for log in 0..2u32 {
        let spans = cluster.node_registry(SEQUENCER_BASE_ID + log).unwrap().spans();
        let grant = spans
            .iter()
            .find(|s| s.kind == SpanKind::SeqGrant)
            .unwrap_or_else(|| panic!("log {log}'s sequencer records its grant: {spans:?}"));
        assert_eq!(grant.trace_id, root.trace_id, "log {log} grant joins the trace");
    }
}

#[test]
fn tangoctl_inspector_reads_a_live_cluster() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..6u32 {
        client.append(Bytes::from(format!("ctl-{i}"))).unwrap();
    }
    corfu::reconfig::seal_log(&client, 0).unwrap();

    let args: Vec<String> =
        cluster.scrape_targets().iter().map(|(name, addr)| format!("{name}={addr}")).collect();
    let targets = inspector::parse_targets(&args);
    let (snapshot, unreachable) = inspector::scrape(&targets, SCRAPE_TIMEOUT);
    assert!(unreachable.is_empty(), "{unreachable:?}");

    let status = inspector::render_status(&snapshot, &unreachable);
    assert!(status.contains("sequencer"), "{status}");
    assert!(status.contains("LOG  EPOCH  SEQ-TAIL"), "{status}");

    let (health_text, verdict) = inspector::render_health(&snapshot, &unreachable);
    assert_eq!(verdict, HealthStatus::Ok, "{health_text}");

    let timeline = inspector::render_timeline(&snapshot);
    assert!(
        timeline.contains("kind=sealed"),
        "the seal must appear in the inspector timeline: {timeline}"
    );

    // A second scrape renders the identical timeline — the causal text
    // contains no clocks, so re-scraping quiescent nodes is stable.
    let (again, _) = inspector::scrape(&targets, SCRAPE_TIMEOUT);
    assert_eq!(inspector::render_timeline(&again), timeline);

    let metrics = inspector::render_metrics(&snapshot, &unreachable);
    assert!(metrics.contains("# storage-0\n") && metrics.contains("# merged\n"), "{metrics}");
    assert!(metrics.contains("corfu.seq.tokens_granted"), "{metrics}");
}

/// The binary itself, every subcommand, against a cluster with one node
/// killed: the dead target is reported, never fatal, and only `health`
/// exits non-zero (1 = degraded).
#[test]
fn tangoctl_binary_reports_a_killed_node() {
    let cluster =
        TcpCluster::spawn(ClusterConfig { num_sets: 1, replication: 2, ..Default::default() })
            .unwrap();
    let client = cluster.client().unwrap();
    client.append(Bytes::from_static(b"ctl")).unwrap();
    corfu::reconfig::seal_log(&client, 0).unwrap();
    let args: Vec<String> =
        cluster.scrape_targets().iter().map(|(name, addr)| format!("{name}={addr}")).collect();
    cluster.kill_storage_node(1);

    for (command, code, shows) in [
        ("status", 0, "storage-1            unreachable"),
        ("health", 1, "[degraded] unreachable: scrape target storage-1"),
        ("timeline", 0, "node=sequencer seq=1 kind=sealed"),
        ("storage", 0, "storage-1            unreachable"),
        ("metrics", 0, "# storage-1: unreachable"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tangoctl"))
            .arg(command)
            .args(&args)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "tangoctl {command}: {text}");
        assert!(text.contains(shows), "tangoctl {command}: {text}");
    }
}
