//! The sharded log: streams striped across independent per-log sequencers
//! and replica sets, selected by the projection's shard map. These tests
//! cover the client-visible contract — composite offsets, independent
//! per-log tails and epochs, cross-log multiappend atomicity through the
//! home-anchor protocol, per-log token-pool invalidation, and stream
//! remaps that move a stream between logs without losing entries.

mod support;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::reconfig::remap_stream;
use corfu::{
    compose, log_of_offset, raw_of_offset, EntryEnvelope, Projection, ReadOutcome, StreamId,
};

/// The first stream id at or above `from` that the shard map sends to
/// `log`.
fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

#[test]
fn sharded_appends_carry_their_log_in_the_offset() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(3));
    let client = cluster.client().unwrap();
    let proj = client.projection();
    assert_eq!(proj.num_logs(), 3);

    for log in 0..3u32 {
        let stream = stream_in_log(&proj, log, 1);
        for i in 0..5u32 {
            let payload = Bytes::from(format!("log{log}-{i}").into_bytes());
            let (off, _) = client.append_streams(&[stream], payload.clone()).unwrap();
            assert_eq!(log_of_offset(off), log, "stream {stream} must land in its log");
            assert_eq!(raw_of_offset(off), i as u64, "each log numbers its offsets from 0");
            assert_eq!(client.read_entry(off).unwrap().payload, payload);
        }
    }
    // Per-log tails advanced independently; the merged tail is the highest
    // log's composite tail.
    for log in 0..3u32 {
        assert_eq!(client.log_tail_fast(log).unwrap(), 5);
    }
    assert_eq!(client.check_tail_fast().unwrap(), compose(2, 5));
    assert_eq!(client.check_tail_slow().unwrap(), compose(2, 5));
}

#[test]
fn sync_spanning_logs_merges_backpointers_in_request_order() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let client = cluster.client().unwrap();
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let (a, _) = client.append_streams(&[s0], Bytes::from_static(b"a")).unwrap();
    let (b, _) = client.append_streams(&[s1], Bytes::from_static(b"b")).unwrap();
    let (c, _) = client.append_streams(&[s0], Bytes::from_static(b"c")).unwrap();

    // One tail_info spanning both logs: backpointers come back aligned
    // with the requested stream order, as composite offsets.
    let (tail, backs) = client.tail_info(&[s1, s0]).unwrap();
    assert!(tail > b, "merged tail must cover the highest log's entries");
    assert_eq!(backs.len(), 2);
    assert!(backs[0].contains(&b), "first answer is for s1 (requested first)");
    assert!(backs[1].contains(&a) && backs[1].contains(&c), "second answer is for s0");
}

#[test]
fn cross_log_multiappend_writes_every_part_with_one_link() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let client = cluster.client().unwrap();
    let proj = client.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let payload = Bytes::from_static(b"spanning");
    let (home, anchor) = client.append_streams(&[s0, s1], payload.clone()).unwrap();
    let link = anchor.link.clone().expect("a cross-log append must carry a link");
    assert_eq!(link.home, home);
    assert_eq!(link.parts.len(), 2);
    assert_eq!(home, *link.parts.iter().min().unwrap(), "home is the lowest composite part");

    // Every part holds a data entry with the same payload and the same
    // link; together they form one atomic multiappend.
    let mut part_logs: Vec<u32> = Vec::new();
    for &part in &link.parts {
        let entry = client.read_entry(part).unwrap();
        assert_eq!(entry.payload, payload);
        assert_eq!(entry.link.as_ref(), Some(&link));
        part_logs.push(log_of_offset(part));
    }
    part_logs.sort_unstable();
    assert_eq!(part_logs, vec![0, 1], "one part per written log");
    // Each part carries the headers for its own log's streams: the anchor
    // (log 0) holds s0's header, the other part holds s1's.
    assert!(anchor.belongs_to(s0) && !anchor.belongs_to(s1));
    let other = *link.parts.iter().max().unwrap();
    let other_entry = client.read_entry(other).unwrap();
    assert!(other_entry.belongs_to(s1) && !other_entry.belongs_to(s0));
}

#[test]
fn remap_moves_a_stream_without_losing_or_duplicating_entries() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let client = cluster.client().unwrap();
    let proj = client.projection();
    let stream = stream_in_log(&proj, 0, 1);

    let mut expected: Vec<(u64, Bytes)> = Vec::new();
    for i in 0..6u32 {
        let payload = Bytes::from(format!("before-{i}").into_bytes());
        let (off, _) = client.append_streams(&[stream], payload.clone()).unwrap();
        assert_eq!(log_of_offset(off), 0);
        expected.push((off, payload));
    }

    let new_proj = remap_stream(&client, stream, 1).unwrap();
    assert_eq!(new_proj.log_of_stream(stream), 1);
    assert_eq!(cluster.metrics().counter("corfu.reconfig.stream_remaps").get(), 1);

    for i in 0..4u32 {
        let payload = Bytes::from(format!("after-{i}").into_bytes());
        let (off, _) = client.append_streams(&[stream], payload.clone()).unwrap();
        assert_eq!(log_of_offset(off), 1, "post-remap appends land in the target log");
        expected.push((off, payload));
    }

    // The sequencer's backpointer window for the stream now lives at the
    // target log's sequencer and spans the remap: a fresh client's
    // tail_info sees the newest entries, and striding through entry
    // headers reaches every pre-remap entry (composite backpointers cross
    // logs transparently).
    let reader = cluster.client().unwrap();
    let (_, backs) = reader.tail_info(&[stream]).unwrap();
    let newest = *expected.last().map(|(off, _)| off).unwrap();
    assert!(backs[0].contains(&newest), "adopted window must include post-remap entries");

    // Walk the full backpointer chain and collect the stream's entries.
    let mut found: Vec<u64> = backs[0].iter().copied().filter(|&o| o != u64::MAX).collect();
    loop {
        found.sort_unstable();
        found.dedup();
        let oldest = found[0];
        let entry = reader.read_entry(oldest).unwrap();
        let header = entry.header_for(stream).expect("member entry carries the header");
        let older: Vec<u64> =
            header.backpointers.iter().copied().filter(|&o| o != u64::MAX).collect();
        if older.is_empty() {
            break;
        }
        let before = found.len();
        found.extend(older);
        found.sort_unstable();
        found.dedup();
        if found.len() == before && found[0] == oldest {
            break;
        }
    }
    let mut want: Vec<u64> = expected.iter().map(|(off, _)| *off).collect();
    want.sort_unstable();
    assert_eq!(found, want, "replay must see every entry exactly once across the remap");
    for (off, payload) in &expected {
        assert_eq!(&reader.read_entry(*off).unwrap().payload, payload);
    }
}

#[test]
fn remap_to_same_log_is_a_no_op() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let client = cluster.client().unwrap();
    let proj = client.projection();
    let stream = stream_in_log(&proj, 1, 1);
    let out = remap_stream(&client, stream, 1).unwrap();
    assert_eq!(out.epoch, proj.epoch, "no epoch change for a no-op remap");
    assert_eq!(cluster.metrics().counter("corfu.reconfig.stream_remaps").get(), 0);
}

#[test]
fn single_log_sharded_config_behaves_like_the_classic_cluster() {
    // `sharded(1)` must be indistinguishable from the unsharded layout:
    // raw offsets, log 0 everywhere.
    let cluster = LocalCluster::new(ClusterConfig::sharded(1));
    let client = cluster.client().unwrap();
    let off = client.append(Bytes::from_static(b"plain")).unwrap();
    assert_eq!(log_of_offset(off), 0);
    assert_eq!(off, 0);
    assert_eq!(
        client.read(off).unwrap(),
        ReadOutcome::Data(Bytes::from(
            EntryEnvelope::raw(Bytes::from_static(b"plain")).encode(off).unwrap(),
        ))
    );
}
