//! The flight recorder under deterministic chaos: a seeded schedule on the
//! simulated transport kills log 1's sequencer mid-append, the cluster
//! recovers (seal → replacement sequencer → stream remap), and the merged
//! control-plane timeline must (a) show the recovery in causal order and
//! (b) render byte-identically when the same seed replays the schedule —
//! the property that makes `tangoctl timeline` a usable postmortem
//! artifact.

mod support;

use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, SimCluster, SEQUENCER_BASE_ID};
use corfu::reconfig::{remap_stream, replace_sequencer_in_log};
use corfu::{Projection, StreamId};

/// The 1-based `shard1.seq.next` grant that kills log 1's sequencer.
const CRASH_NTH: u64 = 4;
const APPENDS: u32 = 8;

fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

/// Runs the seeded kill/recover/remap schedule and returns the rendered
/// cluster timeline.
fn chaos_timeline(seed: u64) -> String {
    let cluster = SimCluster::simulated(seed, ClusterConfig::sharded(2));
    let sim = cluster.sim();
    sim.delay_calls("shard1.seq.", 25, Duration::from_micros(150));
    sim.crash_node_at("shard1.seq.next", CRASH_NTH);

    let client = cluster.client().unwrap();
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
    let crashed = *sim.crashed_nodes().first().expect("the planned crash fires");
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
    support::sweep!(
        chaos_timeline_shows_recovery_in_causal_order_and_replays_identically,
        |seed| {
            // The same seed renders the byte-identical timeline.
            causal_order(&support::replayed(seed, chaos_timeline));
        }
    );
}

fn causal_order(first: &str) {
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
