//! End-to-end tests of the streaming layer over a CORFU cluster (in-process,
//! plus the transport-sensitive scenarios over TCP too).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, TcpCluster, Transport};
use corfu::{ClientOptions, ConnFactory, NodeInfo, StreamId};
use corfu_stream::StreamClient;
use tango_metrics::Registry;
use tango_rpc::ClientConn;

fn payload(i: u64) -> Bytes {
    Bytes::from(format!("p{i}").into_bytes())
}

fn cluster_with_client() -> (LocalCluster, StreamClient) {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = StreamClient::new(cluster.client().unwrap());
    (cluster, client)
}

/// Plays a stream to its synced end, returning (offset, payload) pairs.
fn drain(client: &StreamClient, stream: StreamId) -> Vec<(u64, Bytes)> {
    let mut out = Vec::new();
    while let Some((off, entry)) = client.readnext(stream).unwrap() {
        out.push((off, Bytes::copy_from_slice(entry.payload())));
    }
    out
}

#[test]
fn single_stream_playback_in_order() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    let mut expected = Vec::new();
    for i in 0..20 {
        let off = client.multiappend(&[1], payload(i)).unwrap();
        expected.push((off, payload(i)));
    }
    client.sync(&[1]).unwrap();
    assert_eq!(drain(&client, 1), expected);
    // Nothing more until new appends + sync.
    assert!(client.readnext(1).unwrap().is_none());
}

#[test]
fn interleaved_streams_are_filtered() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    client.open(2);
    let mut exp1 = Vec::new();
    let mut exp2 = Vec::new();
    for i in 0..30 {
        let stream = if i % 3 == 0 { 1 } else { 2 };
        let off = client.multiappend(&[stream], payload(i)).unwrap();
        if stream == 1 {
            exp1.push((off, payload(i)));
        } else {
            exp2.push((off, payload(i)));
        }
    }
    client.sync(&[1, 2]).unwrap();
    assert_eq!(drain(&client, 1), exp1);
    assert_eq!(drain(&client, 2), exp2);
}

#[test]
fn multiappend_appears_in_every_stream() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    client.open(2);
    client.multiappend(&[1], payload(0)).unwrap();
    let shared = client.multiappend(&[1, 2], payload(1)).unwrap();
    client.multiappend(&[2], payload(2)).unwrap();
    client.sync(&[1, 2]).unwrap();
    let s1 = drain(&client, 1);
    let s2 = drain(&client, 2);
    assert!(s1.iter().any(|(off, _)| *off == shared));
    assert!(s2.iter().any(|(off, _)| *off == shared));
    // It occupies a single log position: same offset in both streams.
    assert_eq!(s1.last().unwrap().0, shared);
    assert_eq!(s2.first().unwrap().0, shared);
}

#[test]
fn reader_sees_writes_from_other_clients() {
    let (cluster, writer) = cluster_with_client();
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(5);
    for i in 0..10 {
        writer.multiappend(&[5], payload(i)).unwrap();
    }
    reader.sync(&[5]).unwrap();
    let got = drain(&reader, 5);
    assert_eq!(got.len(), 10);
    assert_eq!(got[3].1, payload(3));
    // Incremental: more writes, another sync.
    for i in 10..15 {
        writer.multiappend(&[5], payload(i)).unwrap();
    }
    reader.sync(&[5]).unwrap();
    let more = drain(&reader, 5);
    assert_eq!(more.len(), 5);
    assert_eq!(more[0].1, payload(10));
}

#[test]
fn backward_reconstruction_beyond_k() {
    // Write far more entries than K=4 between syncs; the reader must stride
    // backward through headers to rebuild the full list.
    let (cluster, writer) = cluster_with_client();
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(9);
    for i in 0..200 {
        writer.multiappend(&[9], payload(i)).unwrap();
    }
    reader.sync(&[9]).unwrap();
    let got = drain(&reader, 9);
    assert_eq!(got.len(), 200);
    for (i, (_, p)) in got.iter().enumerate() {
        assert_eq!(*p, payload(i as u64));
    }
}

/// §5's fallback path, on any transport: junk entries sever the
/// backpointer chain, forcing the reader into the batched linear backward
/// scan. The recovered member set must be exact.
fn junk_in_chain_falls_back_to_scan<T: Transport>(cluster: &Cluster<T>) {
    let writer = StreamClient::new(cluster.client().unwrap());
    // Interleave entries of stream 3 with reserved-but-never-written tokens
    // for the same stream; fill the holes; a late reader must still recover
    // every real entry.
    let raw = cluster.client().unwrap();
    let mut real = Vec::new();
    for i in 0..20 {
        if i % 5 == 4 {
            // Crash simulation: token issued for stream 3, never written.
            let tok = raw.token(&[3]).unwrap();
            raw.fill(tok.offset).unwrap();
        } else {
            let off = writer.multiappend(&[3], payload(i)).unwrap();
            real.push((off, payload(i)));
        }
    }
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(3);
    reader.sync(&[3]).unwrap();
    assert_eq!(drain(&reader, 3), real);
    // The scan travelled as ReadBatch requests; the storage nodes'
    // batch-size histogram is read through the cluster snapshot (over TCP,
    // scraped from every node's HTTP endpoint as an operator would).
    let merged = cluster.cluster_snapshot().merged();
    let hist = merged.histogram("corfu.storage.read_batch").expect("batch histogram recorded");
    assert!(hist.count() > 0, "no batched reads reached storage");
}

#[test]
fn junk_in_chain_falls_back_to_scan_in_process() {
    junk_in_chain_falls_back_to_scan(&LocalCluster::new(ClusterConfig::default()));
}

#[test]
fn junk_in_chain_falls_back_to_scan_over_tcp() {
    let config = ClusterConfig { num_sets: 2, replication: 2, ..ClusterConfig::default() };
    junk_in_chain_falls_back_to_scan(&TcpCluster::spawn(config).unwrap());
}

#[test]
fn junk_at_stream_tail_is_skipped() {
    let (cluster, writer) = cluster_with_client();
    let raw = cluster.client().unwrap();
    writer.multiappend(&[4], payload(0)).unwrap();
    // The most recent issued offset for the stream is junk.
    let tok = raw.token(&[4]).unwrap();
    raw.fill(tok.offset).unwrap();
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(4);
    reader.sync(&[4]).unwrap();
    let got = drain(&reader, 4);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, payload(0));
}

#[test]
fn sync_many_streams_single_round_trip() {
    let (_cluster, client) = cluster_with_client();
    for s in 1..=8 {
        client.open(s);
        client.multiappend(&[s], payload(s as u64)).unwrap();
    }
    let tail = client.sync(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    assert_eq!(tail, 8);
    for s in 1..=8 {
        let got = drain(&client, s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, payload(s as u64));
    }
}

#[test]
fn seek_supports_replay_and_skip() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    let mut offs = Vec::new();
    for i in 0..10 {
        offs.push(client.multiappend(&[1], payload(i)).unwrap());
    }
    client.sync(&[1]).unwrap();
    drain(&client, 1);
    // Rewind to the 5th entry and replay.
    client.seek(1, offs[5]);
    let replay = drain(&client, 1);
    assert_eq!(replay.len(), 5);
    assert_eq!(replay[0].1, payload(5));
}

#[test]
fn forget_below_releases_state() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    let mut offs = Vec::new();
    for i in 0..10 {
        offs.push(client.multiappend(&[1], payload(i)).unwrap());
    }
    client.sync(&[1]).unwrap();
    drain(&client, 1);
    client.forget_below(1, offs[6]);
    assert_eq!(client.known_offsets(1), offs[6..].to_vec());
}

#[test]
fn appender_does_not_need_to_play_the_stream() {
    // Remote writes (§4.1 case A): a client can append to a stream it never
    // opened or synced.
    let (cluster, producer) = cluster_with_client();
    let consumer = StreamClient::new(cluster.client().unwrap());
    consumer.open(7);
    producer.multiappend(&[7], payload(1)).unwrap();
    consumer.sync(&[7]).unwrap();
    assert_eq!(drain(&consumer, 7).len(), 1);
}

/// Wraps a connection factory so that calls to storage nodes sleep while
/// `gate` is set — a stand-in for one slow storage node.
struct DelayFactory {
    inner: Arc<dyn ConnFactory>,
    gate: Arc<AtomicBool>,
    delay: Duration,
}

struct DelayConn {
    inner: Arc<dyn ClientConn>,
    gate: Arc<AtomicBool>,
    delay: Duration,
}

impl ClientConn for DelayConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        if self.gate.load(Ordering::Relaxed) {
            std::thread::sleep(self.delay);
        }
        self.inner.call(request)
    }
}

impl ConnFactory for DelayFactory {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let conn = self.inner.connect(node);
        if node.addr.starts_with("storage") {
            Arc::new(DelayConn { inner: conn, gate: Arc::clone(&self.gate), delay: self.delay })
        } else {
            conn
        }
    }
}

#[test]
fn slow_backpointer_walk_does_not_block_other_streams() {
    // Regression test: `sync` used to hold the client-wide lock across the
    // blocking storage reads of a backpointer walk, so a slow storage node
    // stalled `readnext`/`peek` on *every* stream. With the split cursor /
    // cache locks, an in-flight walk on stream 1 must not delay playback of
    // the already-cached stream 2.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let gate = Arc::new(AtomicBool::new(false));
    let factory = Arc::new(DelayFactory {
        inner: cluster.conn_factory(),
        gate: Arc::clone(&gate),
        delay: Duration::from_millis(30),
    });
    let client = Arc::new(StreamClient::new(
        cluster
            .client_with_factory(
                factory,
                cluster.config().client_options.clone(),
                cluster.metrics().clone(),
            )
            .unwrap(),
    ));
    client.open(1);
    client.open(2);
    // Stream 2 is synced and cache-seeded before the node slows down.
    for i in 0..10 {
        client.multiappend(&[2], payload(i)).unwrap();
    }
    client.sync(&[2]).unwrap();
    // Stream 1 grows via a different client, so syncing it forces a real
    // backpointer walk (60 entries, K=4 -> ~15 strides) against storage.
    let writer = StreamClient::new(cluster.client().unwrap());
    for i in 0..60 {
        writer.multiappend(&[1], payload(100 + i)).unwrap();
    }
    gate.store(true, Ordering::Relaxed);
    let walker = std::thread::spawn({
        let client = Arc::clone(&client);
        move || client.sync(&[1]).unwrap()
    });
    // Give the walk time to get in flight, then play stream 2.
    std::thread::sleep(Duration::from_millis(60));
    let start = Instant::now();
    assert_eq!(drain(&client, 2).len(), 10);
    assert!(client.peek(2).is_none());
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "cached playback stalled behind the walk: {elapsed:?}"
    );
    assert!(!walker.is_finished(), "walk finished too fast to exercise the race");
    walker.join().unwrap();
    gate.store(false, Ordering::Relaxed);
    // The walk itself was correct.
    let drained = drain(&client, 1);
    assert_eq!(drained.len(), 60);
}

#[test]
fn prefetch_makes_incremental_readnext_cache_hits() {
    let (cluster, writer) = cluster_with_client();
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(6);
    for i in 0..10 {
        writer.multiappend(&[6], payload(i)).unwrap();
    }
    reader.sync(&[6]).unwrap();
    drain(&reader, 6);
    // Incremental catch-up: K=4 new entries arrive, so the sequencer's
    // backpointer window covers them all and no walk is needed. The
    // readahead prefetcher pulls them in during `sync`; the subsequent
    // readnext calls must not touch the log.
    for i in 10..14 {
        writer.multiappend(&[6], payload(i)).unwrap();
    }
    reader.sync(&[6]).unwrap();
    let (_, misses_before) = reader.cache_stats();
    let got = drain(&reader, 6);
    assert_eq!(got.len(), 4);
    let (_, misses_after) = reader.cache_stats();
    assert_eq!(misses_after, misses_before, "readnext after sync went to the log");
}

#[test]
fn cache_avoids_refetching_multiappend_entries() {
    let (_cluster, client) = cluster_with_client();
    client.open(1);
    client.open(2);
    for i in 0..10 {
        client.multiappend(&[1, 2], payload(i)).unwrap();
    }
    client.sync(&[1, 2]).unwrap();
    drain(&client, 1);
    drain(&client, 2);
    let (hits, misses) = client.cache_stats();
    // Every playback fetch should hit the append-seeded cache.
    assert_eq!(misses, 0, "hits={hits} misses={misses}");
    assert!(hits >= 20);
}

/// A bulk read caches each reply before its next round trip: while one
/// thread's read waits out a hole in its second batch, a thread sharing the
/// client finds the first batch cached.
#[test]
fn a_bulk_read_caches_each_reply_before_waiting_on_the_next() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let writer = cluster.client().unwrap();
    let mut offsets: Vec<u64> =
        (0..35).map(|i| writer.append_streams(&[1], payload(i)).unwrap().0).collect();
    offsets.push(writer.token(&[1]).unwrap().offset);
    offsets.extend((0..4).map(|i| writer.append_streams(&[1], payload(40 + i)).unwrap().0));
    let registry = Registry::new();
    let options = ClientOptions { hole_fill_timeout: Duration::from_secs(1) };
    let reader = StreamClient::new(
        cluster.client_with_factory(cluster.conn_factory(), options, registry.clone()).unwrap(),
    );
    std::thread::scope(|scope| {
        let bulk = scope.spawn(|| reader.read_many_at(&offsets).unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        while registry.counter("corfu.hole_polls").get() == 0 {
            assert!(Instant::now() < deadline, "the bulk read never reached the hole");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (hits, _) = reader.cache_stats();
        assert!(reader.read_at(offsets[3]).unwrap().is_some());
        assert_eq!(reader.cache_stats().0, hits + 1, "the first batch was not cached yet");
        let read = bulk.join().unwrap();
        assert_eq!(read.iter().filter(|entry| entry.is_some()).count(), 39);
    });
}

/// An observing append leaves every observed stream — written or not —
/// exactly as a `sync` right after it would, without asking the sequencer
/// again: written streams learn from the entry's own backpointers (striding
/// past K like any sync), unwritten ones from the window the grant saw.
#[test]
fn observing_append_syncs_without_a_tail_query() {
    let (cluster, writer) = cluster_with_client();
    let registry = tango_metrics::Registry::new();
    let reader = StreamClient::new(cluster.client_with_metrics(registry.clone()).unwrap());
    for s in [1, 2, 3] {
        reader.open(s);
    }
    let mut expected: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 4];
    for i in 0..30 {
        let streams: &[StreamId] = if i % 3 == 0 { &[1, 2] } else { &[1] };
        let off = writer.multiappend(streams, payload(i)).unwrap();
        for &s in streams {
            expected[s as usize].push((off, payload(i)));
        }
    }
    let off = reader.multiappend_observing(&[1], &[1, 2, 3], payload(99)).unwrap();
    expected[1].push((off, payload(99)));
    assert_eq!(registry.counter("corfu.client.tail_queries").get(), 0);
    for s in [1, 2, 3] {
        assert_eq!(drain(&reader, s), expected[s as usize], "stream {s}");
        assert_eq!(reader.synced_tail(s), off + 1);
    }
    // What comes later is still found by an ordinary sync.
    let later = writer.multiappend(&[2, 3], payload(100)).unwrap();
    reader.sync(&[1, 2, 3]).unwrap();
    assert!(drain(&reader, 1).is_empty());
    assert_eq!(drain(&reader, 2), vec![(later, payload(100))]);
    assert_eq!(drain(&reader, 3), vec![(later, payload(100))]);
}

/// A reader's cursor learns the reader's own blind appends as they are
/// made, where their headers show it missed nothing: the next sync finds
/// them known, and when others' entries send it walking, the storage nodes
/// are not chased back through pages the reader wrote itself.
#[test]
fn a_readers_own_appends_are_known_to_its_cursor_without_a_read() {
    const STREAM: StreamId = 1;
    let (cluster, writer) = cluster_with_client();
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(STREAM);
    let pages_read = || cluster.storage().iter().map(|node| node.stats().reads).sum::<u64>();
    let mut truth = Vec::new();
    // Own and foreign appends in turn, runs of each shorter and longer than
    // the K = 4 backpointers: after every sync the membership is the truth.
    for round in 0..6 {
        for i in 0..2 + round {
            truth.push(reader.multiappend(&[STREAM, 9], payload(i)).unwrap());
        }
        for i in 0..7 - round {
            truth.push(writer.multiappend(&[STREAM], payload(i)).unwrap());
        }
        reader.sync(&[STREAM]).unwrap();
        assert_eq!(reader.known_offsets(STREAM), truth, "round {round}");
    }
    // Only own appends between two syncs: they are members before the
    // second one, which sends no storage node to a page.
    let before = pages_read();
    let synced = reader.synced_tail(STREAM);
    for i in 0..10 {
        truth.push(reader.multiappend(&[STREAM], payload(i)).unwrap());
    }
    assert_eq!(reader.known_offsets(STREAM), truth);
    assert_eq!(reader.synced_tail(STREAM), synced, "an append is not a sync");
    reader.sync(&[STREAM]).unwrap();
    assert_eq!(pages_read(), before);
    // More of its own and six foreign entries behind them — none of the
    // sequencer's last K is known, so the sync walks: the nodes read those
    // six and stop at the reader's own.
    for i in 0..5 {
        truth.push(reader.multiappend(&[STREAM], payload(i)).unwrap());
    }
    for i in 0..6 {
        truth.push(writer.multiappend(&[STREAM], payload(i)).unwrap());
    }
    reader.sync(&[STREAM]).unwrap();
    assert_eq!(pages_read(), before + 6);
    assert_eq!(reader.known_offsets(STREAM), truth);
    let delivered: Vec<u64> = drain(&reader, STREAM).into_iter().map(|(off, _)| off).collect();
    assert_eq!(delivered, truth);
}
