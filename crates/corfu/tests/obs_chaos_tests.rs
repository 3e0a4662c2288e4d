//! The flight recorder under deterministic chaos: a seeded [`FaultPlan`]
//! kills log 1's sequencer mid-append, the cluster recovers (seal →
//! replacement sequencer → stream remap), and the merged control-plane
//! timeline must (a) show the recovery in causal order and (b) render
//! byte-identically when the same seed replays the schedule — the
//! property that makes `tangoctl timeline` a usable postmortem artifact.

mod support;

use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, SEQUENCER_BASE_ID};
use corfu::reconfig::{remap_stream, replace_sequencer_in_log};
use corfu::{NodeId, Projection, StreamId};
use support::fault::FaultPlan;
use support::{seed_from_env, SeedGuard};

const SEED_DEFAULT: u64 = 0x0B5E_7A11_0009;
/// The 1-based `shard1.seq.next` grant that kills log 1's sequencer.
const CRASH_NTH: u64 = 4;
const APPENDS: u32 = 8;

fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

/// Runs the seeded kill/recover/remap schedule and returns the rendered
/// cluster timeline. Single-threaded throughout, so the journal order is
/// a pure function of the seed.
fn chaos_timeline(seed: u64) -> String {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let plan = FaultPlan::new(seed);
    plan.delay_calls("shard1.seq.", 25, 150);
    plan.crash_at("shard1.seq.next", CRASH_NTH);
    let (tx, rx) = mpsc::channel::<NodeId>();
    {
        let registry = cluster.registry().clone();
        plan.on_crash(move |node| {
            registry.kill(&format!("sequencer-{node}"));
            let _ = tx.send(node);
        });
    }

    let client = cluster
        .client_with_factory(
            plan.wrap(cluster.conn_factory()),
            corfu::ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();
    let proj = client.projection();
    let s1 = stream_in_log(&proj, 1, 1);

    let mut acked = 0u32;
    let mut failed = 0u32;
    for i in 0..APPENDS {
        match client.append_streams(&[s1], Bytes::from(format!("chaos-{i}"))) {
            Ok(_) => acked += 1,
            Err(_) => failed += 1,
        }
    }
    assert_eq!(acked as u64, CRASH_NTH - 1, "appends up to the planned crash commit");
    assert!(failed > 0, "the crash must fail at least one append");
    let crashed = rx.recv_timeout(Duration::from_secs(10)).expect("the planned crash fires");
    assert_eq!((crashed - SEQUENCER_BASE_ID) % 100, 1, "the crash hits log 1's sequencer");

    // Recovery, exactly as an operator (or auto-repair) would drive it:
    // seal log 1 + install a replacement sequencer, then move the stream
    // to log 0 — the seal → projection → adoption chain the timeline
    // must narrate.
    let (info, _replacement) = cluster.spawn_replacement_sequencer_for(1).unwrap();
    let outcome = replace_sequencer_in_log(&client, 1, info, 4).unwrap();
    assert_eq!(outcome.projection.epoch_of_log(1), 1, "log 1 sealed into epoch 1");
    remap_stream(&client, s1, 0).unwrap();

    // Post-recovery appends land through the new routing.
    for i in 0..4u32 {
        client.append_streams(&[s1], Bytes::from(format!("post-{i}"))).unwrap();
    }

    cluster.cluster_snapshot().timeline_text()
}

#[test]
fn chaos_timeline_shows_recovery_in_causal_order_and_replays_identically() {
    let seed = seed_from_env(SEED_DEFAULT);
    let _guard = SeedGuard(seed);

    let first = chaos_timeline(seed);
    let second = chaos_timeline(seed);
    assert_eq!(first, second, "same seed must render the byte-identical timeline");

    // The recovery chain, in causal order: the seal happens before the
    // new projection is installed, which happens before the remap hands
    // the stream's window to its new sequencer.
    let idx = |needle: &str| {
        first.find(needle).unwrap_or_else(|| panic!("timeline must contain {needle:?}:\n{first}"))
    };
    let sealed = idx("kind=sealed");
    let installed = idx("kind=projection_installed");
    let adopted = idx("kind=stream_adopted");
    assert!(sealed < installed, "seal precedes the projection install:\n{first}");
    assert!(installed < adopted, "projection install precedes adoption:\n{first}");
    assert!(first.contains("kind=shard_remapped"), "the remap is journalled:\n{first}");

    // The seal of the dead sequencer's log is journalled by the
    // *coordinator* (the dead node cannot journal anything), against
    // log 1's first post-crash epoch.
    assert!(first.contains("kind=sealed log=1"), "log 1's seal must be in the timeline:\n{first}");

    // Every line renders only causal fields — no timestamps leak in.
    for line in first.lines() {
        assert!(
            line.starts_with("epoch=") && line.contains(" seq=") && line.contains(" kind="),
            "unexpected timeline line: {line}"
        );
    }
}

#[test]
fn quiet_cluster_journals_nothing() {
    let cluster = LocalCluster::new(ClusterConfig::tiny());
    let client = cluster.client().unwrap();
    for i in 0..4u32 {
        client.append(Bytes::from(format!("quiet-{i}"))).unwrap();
    }
    assert_eq!(
        cluster.cluster_snapshot().timeline_text(),
        "",
        "fault-free appends emit no control-plane events"
    );
}
