//! Deterministic chaos on a sharded log: log 1's sequencer is killed
//! mid-`multiappend` by a seeded schedule on the simulated transport (the
//! `shard1.seq.*` points). The cluster must recover — a replacement
//! sequencer is rebuilt from a storage scan of its log only, log 0 never
//! changes epoch — and the decision rule (home anchor) must resolve every
//! speculative cross-log body as exactly committed or aborted. Because
//! every decision is a function of the seed, each schedule replays an
//! identical trace.

mod support;

use std::cell::Cell;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, Delivery, Outcome, SimCluster, SEQUENCER_BASE_ID};
use corfu::reconfig::replace_sequencer_in_log;
use corfu::{
    compose, log_of_offset, CorfuClient, CrossLogLink, EntryEnvelope, LogOffset, Page, Projection,
    StreamHeader, StreamId,
};
/// The 1-based `shard1.seq.next` call that kills log 1's sequencer. One
/// call per cross-log append (single client, no token contention), so
/// appends `CRASH_NTH..` fail until the replacement is installed.
const CRASH_NTH: u64 = 7;
const APPENDS_BEFORE_RECOVERY: u32 = 12;
const APPENDS_AFTER_RECOVERY: u32 = 8;

fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

/// Scans every slot of every log and checks the cross-log decision
/// invariant: a body whose link's home slot holds a data entry with the
/// same link is committed — then *all* parts must hold that entry — and
/// any other home state (junk, foreign entry) means the body is aborted.
/// Unwritten slots (tokens abandoned when the sequencer died) are
/// hole-filled first, exactly as a reader would. Returns the number of
/// committed cross-log links seen.
fn assert_links_resolved(client: &CorfuClient) -> usize {
    let proj = client.projection();
    let mut committed = 0;
    for log in 0..proj.num_logs() {
        let tail = client.log_tail_fast(log).unwrap();
        for raw in 0..tail {
            let off = compose(log, raw);
            let outcome = match client.read(off).unwrap() {
                Page::Unwritten => {
                    client.fill(off).unwrap();
                    client.read(off).unwrap()
                }
                other => other,
            };
            let Page::Data(bytes) = outcome else { continue };
            let entry = EntryEnvelope::decode(&bytes, off).unwrap();
            let Some(link) = entry.link else { continue };
            let home_commits = match client.read(link.home).unwrap() {
                Page::Data(home_bytes) => {
                    EntryEnvelope::decode(&home_bytes, link.home).unwrap().link.as_ref()
                        == Some(&link)
                }
                _ => false,
            };
            if home_commits {
                committed += 1;
                for &part in &link.parts {
                    let Page::Data(part_bytes) = client.read(part).unwrap() else {
                        panic!("committed link {link:?} has an unwritten/junk part {part}");
                    };
                    let part_entry = EntryEnvelope::decode(&part_bytes, part).unwrap();
                    assert_eq!(
                        part_entry.link.as_ref(),
                        Some(&link),
                        "committed link must be present on every part"
                    );
                }
            } else {
                assert_ne!(off, link.home, "a home data entry always matches its own link");
            }
        }
    }
    committed
}

/// The acceptance scenario: cross-log multiappends flow until a planned
/// crash takes down log 1's sequencer at its `CRASH_NTH` token grant;
/// appends fail until a replacement sequencer is rebuilt (log 1 sealed
/// alone), then flow again. Every acked append stays readable, every
/// speculative body resolves, and the decision trace is returned for the
/// run-twice equality check.
fn sequencer_crash_scenario(seed: u64) -> Vec<Delivery> {
    let cluster = SimCluster::simulated(seed, ClusterConfig::sharded(2));
    let sim = cluster.sim();
    sim.delay_calls("shard1.seq.", 25, Duration::from_micros(150));
    sim.crash_node_at("shard1.seq.next", CRASH_NTH);

    let client = cluster.client().unwrap();
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let mut acked: Vec<(LogOffset, Bytes)> = Vec::new();
    let mut failed = 0u32;
    for i in 0..APPENDS_BEFORE_RECOVERY {
        let payload = Bytes::from(format!("span-{i}").into_bytes());
        match client.append_streams(&[s0, s1], payload.clone()) {
            Ok((home, _)) => acked.push((home, payload)),
            Err(_) => failed += 1,
        }
    }
    assert_eq!(
        acked.len() as u64,
        CRASH_NTH - 1,
        "appends up to the planned crash commit, everything after fails"
    );
    assert!(failed > 0, "the crash must fail at least one multiappend");
    let crashed = *sim.crashed_nodes().first().expect("the planned crash must fire");
    assert_eq!((crashed - SEQUENCER_BASE_ID) % 100, 1, "the crash must hit log 1's sequencer");

    // Recover log 1 alone: seal it, rebuild stream state from its storage,
    // install a fresh sequencer. Log 0 keeps epoch 0 throughout.
    let (info, _replacement) = cluster.spawn_replacement_sequencer_for(1).unwrap();
    let outcome = replace_sequencer_in_log(&client, 1, info, 4).unwrap();
    assert_eq!(outcome.projection.epoch_of_log(1), 1, "log 1 sealed into epoch 1");
    assert_eq!(outcome.projection.epoch_of_log(0), 0, "log 0 never reconfigures");

    // A stranded body, manufactured the way a lost-token race leaves one:
    // the body is written in log 1, but its home slot in log 0 gets
    // hole-filled before the anchor lands. The scan must call it aborted.
    let t0 = client.token(&[s0]).unwrap();
    let t1 = client.token(&[s1]).unwrap();
    let link = CrossLogLink { home: t0.offset, parts: vec![t0.offset, t1.offset] };
    let stranded = EntryEnvelope {
        headers: vec![StreamHeader { stream: s1, backpointers: t1.backpointers[0].clone() }],
        payload: Bytes::from_static(b"stranded"),
        link: Some(link),
    };
    client.write_at(t1.offset, &stranded.encode(t1.offset).unwrap()).unwrap();
    client.fill(t0.offset).unwrap();

    // Cross-log appends flow again through the replacement.
    for i in 0..APPENDS_AFTER_RECOVERY {
        let payload = Bytes::from(format!("post-{i}").into_bytes());
        let (home, _) = client.append_streams(&[s0, s1], payload.clone()).unwrap();
        acked.push((home, payload));
    }

    // Every acked multiappend is readable at its home with its payload.
    for (home, payload) in &acked {
        assert_eq!(&client.read_entry(*home).unwrap().payload, payload);
        assert_eq!(log_of_offset(*home), 0, "the home anchor lives in the lowest log");
    }

    // Every speculative body in both logs resolves; the committed count is
    // exactly the acked multiappends (×2 parts each counted once via the
    // body-side check... each committed link is seen from both parts).
    let committed_links_seen = assert_links_resolved(&client);
    assert_eq!(
        committed_links_seen,
        acked.len() * 2,
        "each acked link is observed from both of its parts, and nothing else commits"
    );

    sim.trace()
}

#[test]
fn sequencer_crash_mid_multiappend_resolves_every_body_deterministically() {
    support::sweep!(
        sequencer_crash_mid_multiappend_resolves_every_body_deterministically,
        |seed| {
            let trace = support::replayed(seed, sequencer_crash_scenario);
            let crash = trace.iter().find(|d| d.outcome == Outcome::NodeCrashed);
            let crash = crash.expect("crash must be in the trace");
            assert_eq!(crash.point, "shard1.seq.next");
            assert_eq!(crash.nth, CRASH_NTH);
            assert!(
                !trace
                    .iter()
                    .any(|d| d.outcome == Outcome::NodeCrashed && d.point.starts_with("seq.")),
                "log 0's sequencer must never be touched"
            );
        }
    );
}

/// A lossy, jittery network to log 1's sequencer only: multiappends slow
/// down (token grants retry through drops) but never wedge, log 0 is
/// untouched, and the schedule replays identically.
fn lossy_shard_scenario(seed: u64) -> Vec<Delivery> {
    let cluster = SimCluster::simulated(seed, ClusterConfig::sharded(2));
    let sim = cluster.sim();
    sim.drop_calls("shard1.seq.next", 20);
    sim.delay_calls("shard1.seq.", 30, Duration::from_micros(120));

    let client = cluster.client().unwrap();
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let mut acked: Vec<(LogOffset, Bytes)> = Vec::new();
    for i in 0..16u32 {
        let payload = Bytes::from(format!("lossy-{i}").into_bytes());
        // A dropped token grant surfaces as a timeout; retry the append —
        // the retry loop itself is part of the deterministic trace.
        let home = loop {
            match client.append_streams(&[s0, s1], payload.clone()) {
                Ok((home, _)) => break home,
                Err(_) => continue,
            }
        };
        acked.push((home, payload));
    }

    for (home, payload) in &acked {
        assert_eq!(&client.read_entry(*home).unwrap().payload, payload);
    }
    assert_eq!(assert_links_resolved(&client), acked.len() * 2);
    sim.trace()
}

#[test]
fn lossy_shard_sequencer_slows_but_never_wedges_multiappends() {
    let dropped = Cell::new(false);
    support::sweep!(lossy_shard_sequencer_slows_but_never_wedges_multiappends, |seed| {
        let trace = support::replayed(seed, lossy_shard_scenario);
        let drops =
            trace.iter().any(|d| d.outcome == Outcome::Dropped && d.point == "shard1.seq.next");
        dropped.set(dropped.get() || drops);
        assert!(
            !trace.iter().any(|d| d.point.starts_with("seq.") && d.outcome != Outcome::Passed),
            "log 0's sequencer calls must pass untouched"
        );
    });
    assert!(dropped.get(), "the schedules must actually drop shard-1 token grants");
}
