//! The streaming layer over a sharded log: cross-log multiappend playback,
//! link resolution (the home-anchor decision seen from a reader), and
//! remap — a stream moved between logs must replay identically, with no
//! entry lost or duplicated.

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::reconfig::remap_stream;
use corfu::{log_of_offset, CrossLogLink, EntryEnvelope, Projection, StreamHeader, StreamId};
use corfu_stream::StreamClient;

fn stream_in_log(proj: &Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

fn payload(i: u64) -> Bytes {
    Bytes::from(format!("p{i}").into_bytes())
}

/// A fresh client's full replay of `stream`: open, sync, drain.
fn replay(cluster: &LocalCluster, stream: StreamId) -> Vec<(u64, Bytes)> {
    let client = StreamClient::new(cluster.client().unwrap());
    client.open(stream);
    client.sync(&[stream]).unwrap();
    let mut out = Vec::new();
    while let Some((off, entry)) = client.readnext(stream).unwrap() {
        out.push((off, Bytes::copy_from_slice(entry.payload())));
    }
    out
}

#[test]
fn cross_log_multiappend_plays_back_in_both_logs() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let client = StreamClient::new(cluster.client().unwrap());
    let proj = client.corfu().projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);
    client.open(s0);
    client.open(s1);

    client.multiappend(&[s0], payload(0)).unwrap();
    let home = client.multiappend(&[s0, s1], payload(1)).unwrap();
    client.multiappend(&[s1], payload(2)).unwrap();
    assert_eq!(log_of_offset(home), 0, "the returned offset is the home anchor's");

    // Each stream plays the shared entry at its *own log's* part offset,
    // with the shared payload.
    let p0 = replay(&cluster, s0);
    let p1 = replay(&cluster, s1);
    assert_eq!(p0.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(), vec![payload(0), payload(1)]);
    assert_eq!(p1.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(), vec![payload(1), payload(2)]);
    assert_eq!(p0[1].0, home, "s0 sees the shared entry at the home anchor");
    let s1_shared = p1[0].0;
    assert_eq!(log_of_offset(s1_shared), 1, "s1 sees it at its log-1 part");
    assert_ne!(s1_shared, home, "one multiappend, one offset per participating log");
}

#[test]
fn committed_link_resolves_and_caches_both_sides() {
    // Manufacture a committed cross-log pair by hand (token + raw writes),
    // exactly the bytes `append_streams` would produce, then read the
    // non-home body: the reader must chase the link to the home anchor,
    // see the matching link, and deliver the entry.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let corfu = cluster.client().unwrap();
    let proj = corfu.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let t0 = corfu.token(&[s0]).unwrap();
    let t1 = corfu.token(&[s1]).unwrap();
    let link = CrossLogLink { home: t0.offset, parts: vec![t0.offset, t1.offset] };
    let body = EntryEnvelope {
        headers: vec![StreamHeader { stream: s1, backpointers: t1.backpointers[0].clone() }],
        payload: Bytes::from_static(b"linked"),
        link: Some(link.clone()),
    };
    let anchor = EntryEnvelope {
        headers: vec![StreamHeader { stream: s0, backpointers: t0.backpointers[0].clone() }],
        payload: Bytes::from_static(b"linked"),
        link: Some(link.clone()),
    };
    corfu.write_at(t1.offset, &body.encode(t1.offset).unwrap()).unwrap();
    corfu.write_at(t0.offset, &anchor.encode(t0.offset).unwrap()).unwrap();

    let reader = StreamClient::new(cluster.client().unwrap());
    let got = reader.read_at(t1.offset).unwrap().expect("committed body must be delivered");
    assert_eq!(got.payload(), b"linked");
    assert_eq!(got.link().map(|l| l.to_owned()), Some(link));
    // Resolution cached both sides: the home read is now a cache hit.
    let (hits_before, misses_before) = reader.cache_stats();
    let anchor_read = reader.read_at(t0.offset).unwrap().expect("anchor is data");
    assert_eq!(anchor_read.payload(), b"linked");
    let (hits_after, misses_after) = reader.cache_stats();
    assert_eq!(hits_after, hits_before + 1, "the home anchor was cached by link resolution");
    assert_eq!(misses_after, misses_before);
}

#[test]
fn body_with_junked_home_resolves_aborted() {
    // The stranded-body shape a lost-token race leaves behind: the body
    // landed but the home slot got hole-filled. Readers must suppress it.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let corfu = cluster.client().unwrap();
    let proj = corfu.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let t0 = corfu.token(&[s0]).unwrap();
    let t1 = corfu.token(&[s1]).unwrap();
    let link = CrossLogLink { home: t0.offset, parts: vec![t0.offset, t1.offset] };
    let body = EntryEnvelope {
        headers: vec![StreamHeader { stream: s1, backpointers: t1.backpointers[0].clone() }],
        payload: Bytes::from_static(b"stranded"),
        link: Some(link),
    };
    corfu.write_at(t1.offset, &body.encode(t1.offset).unwrap()).unwrap();
    corfu.fill(t0.offset).unwrap();

    let reader = StreamClient::new(cluster.client().unwrap());
    assert!(reader.read_at(t1.offset).unwrap().is_none(), "aborted body must be suppressed");
}

#[test]
fn body_with_foreign_home_entry_resolves_aborted() {
    // The home slot holds a *different* entry (a retry's fresh attempt, or
    // an unrelated append that won the slot): the old body's link does not
    // match and it must resolve aborted — never deliver under the wrong
    // commit decision.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let corfu = cluster.client().unwrap();
    let proj = corfu.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let t0 = corfu.token(&[s0]).unwrap();
    let t1 = corfu.token(&[s1]).unwrap();
    let link = CrossLogLink { home: t0.offset, parts: vec![t0.offset, t1.offset] };
    let body = EntryEnvelope {
        headers: vec![StreamHeader { stream: s1, backpointers: t1.backpointers[0].clone() }],
        payload: Bytes::from_static(b"loser"),
        link: Some(link),
    };
    corfu.write_at(t1.offset, &body.encode(t1.offset).unwrap()).unwrap();
    // An unlinked entry wins the home slot.
    let foreign = EntryEnvelope::raw(Bytes::from_static(b"winner"));
    corfu.write_at(t0.offset, &foreign.encode(t0.offset).unwrap()).unwrap();

    let reader = StreamClient::new(cluster.client().unwrap());
    assert!(reader.read_at(t1.offset).unwrap().is_none(), "mismatched link must abort");
    // The foreign home entry itself is perfectly readable.
    let home = reader.read_at(t0.offset).unwrap().expect("the winner is data");
    assert_eq!(home.payload(), b"winner");
}

#[test]
fn waiting_reader_forces_the_decision_on_an_undecided_body() {
    // Body written, home still unwritten: a waiting reader plays the
    // hole-fill protocol on the home slot — the in-flight multiappend
    // loses and the body resolves aborted. This is §3.2's hole filling
    // acting as the cross-log decision.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let corfu = cluster.client().unwrap();
    let proj = corfu.projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);

    let t0 = corfu.token(&[s0]).unwrap();
    let t1 = corfu.token(&[s1]).unwrap();
    let link = CrossLogLink { home: t0.offset, parts: vec![t0.offset, t1.offset] };
    let body = EntryEnvelope {
        headers: vec![StreamHeader { stream: s1, backpointers: t1.backpointers[0].clone() }],
        payload: Bytes::from_static(b"undecided"),
        link: Some(link),
    };
    corfu.write_at(t1.offset, &body.encode(t1.offset).unwrap()).unwrap();

    let reader = StreamClient::new(cluster.client().unwrap());
    assert!(reader.read_at(t1.offset).unwrap().is_none(), "forced decision must abort");
    // The decision is durable: the writer's late anchor write loses the
    // slot, so a re-read still aborts.
    assert_eq!(
        corfu.read(t0.offset).unwrap(),
        corfu::Page::Junk,
        "the home slot was junk-filled by the reader"
    );
}

#[test]
fn remap_replays_identically_and_new_appends_follow() {
    // Satellite: remap never loses or duplicates a stream's entries. The
    // per-stream replay is byte-identical before and after the remap, and
    // appends after it land in the target log and extend the same replay.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let writer = StreamClient::new(cluster.client().unwrap());
    let proj = writer.corfu().projection();
    let stream = stream_in_log(&proj, 0, 1);
    writer.open(stream);

    for i in 0..12u64 {
        writer.multiappend(&[stream], payload(i)).unwrap();
    }
    let before = replay(&cluster, stream);
    assert_eq!(before.len(), 12);
    assert!(before.iter().all(|(off, _)| log_of_offset(*off) == 0));

    remap_stream(writer.corfu(), stream, 1).unwrap();

    let after = replay(&cluster, stream);
    assert_eq!(after, before, "remap must not lose, duplicate, or reorder entries");

    // New appends land in log 1 and extend the replay in order.
    let fresh_writer = StreamClient::new(cluster.client().unwrap());
    fresh_writer.open(stream);
    for i in 12..18u64 {
        fresh_writer.multiappend(&[stream], payload(i)).unwrap();
    }
    let extended = replay(&cluster, stream);
    assert_eq!(extended.len(), 18);
    assert_eq!(&extended[..12], &before[..], "the pre-remap prefix is untouched");
    for (i, (off, p)) in extended[12..].iter().enumerate() {
        assert_eq!(log_of_offset(*off), 1, "post-remap entries live in the target log");
        assert_eq!(p, &payload(12 + i as u64));
    }

    // A remap back is equally lossless.
    remap_stream(writer.corfu(), stream, 0).unwrap();
    assert_eq!(replay(&cluster, stream), extended);
    let (off, _) = writer.corfu().append_streams(&[stream], payload(99)).unwrap();
    assert_eq!(log_of_offset(off), 0, "the second remap re-homes appends to log 0");
    assert_eq!(replay(&cluster, stream).len(), 19);
}

#[test]
fn remap_preserves_cross_log_entries() {
    // A stream that shares multiappends with a neighbor in another log is
    // remapped; the shared entries (whose parts live in *both* logs) must
    // survive with their links intact.
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let writer = StreamClient::new(cluster.client().unwrap());
    let proj = writer.corfu().projection();
    let s0 = stream_in_log(&proj, 0, 1);
    let s1 = stream_in_log(&proj, 1, 1);
    writer.open(s0);
    writer.open(s1);

    writer.multiappend(&[s0], payload(0)).unwrap();
    writer.multiappend(&[s0, s1], payload(1)).unwrap();
    writer.multiappend(&[s0], payload(2)).unwrap();
    let before = replay(&cluster, s0);
    assert_eq!(before.len(), 3);

    remap_stream(writer.corfu(), s0, 1).unwrap();
    let after = replay(&cluster, s0);
    assert_eq!(after, before, "cross-log entries must survive the remap");

    // The shared entry still resolves committed from s1's side too.
    let p1 = replay(&cluster, s1);
    assert_eq!(p1.len(), 1);
    assert_eq!(p1[0].1, payload(1));

    // And both streams now append into log 1, sharing single-log entries.
    let off = writer.multiappend(&[s0, s1], payload(3)).unwrap();
    assert_eq!(log_of_offset(off), 1);
    let final0 = replay(&cluster, s0);
    let final1 = replay(&cluster, s1);
    assert_eq!(final0.last().unwrap(), &(off, payload(3)));
    assert_eq!(final1.last().unwrap(), &(off, payload(3)), "co-homed: one offset, no link");
    assert_eq!(log_of_offset(final1[0].0), 1, "s1's part of the shared entry lives in log 1");
}
