//! A backward walk whose strides the storage nodes extend (`ReadChase`): the
//! walk finds what it would have found reading four entries at a time, in a
//! 256th of the round trips (small entries) and without a page read
//! twice — and whatever the nodes bring along that is not a plain entry is
//! left for the walk to judge.
//! Each scenario is one generic body run in-process and over TCP.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, SimCluster, TcpCluster, Transport};
use corfu::proto::StorageResponse;
use corfu::reconfig::replace_storage_node;
use corfu::{
    ClientOptions, ConnFactory, CorfuClient, CrossLogLink, EntryEnvelope, LogOffset, NodeInfo,
    Page, Projection, StreamHeader, StreamId, CHASE_REPLY_BYTES,
};
use corfu_stream::StreamClient;
use tango_metrics::Registry;
use tango_rpc::ClientConn;

#[path = "../../corfu/tests/support/mod.rs"]
mod support;

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

/// The deployment the benchmark runs on.
fn two_by_two() -> ClusterConfig {
    ClusterConfig { num_sets: 2, replication: 2, ..Default::default() }
}

fn payload(i: usize) -> Bytes {
    Bytes::from(format!("p{i}").into_bytes())
}

/// Appends one entry per element of `turns` to the stream it names.
fn write_turns(writer: &StreamClient, turns: impl IntoIterator<Item = StreamId>) {
    for (i, stream) in turns.into_iter().enumerate() {
        writer.multiappend(&[stream], payload(i)).unwrap();
    }
}

/// The members of `stream` as a reader that trusts no backpointer finds
/// them: every offset of the log read and decoded, in order.
fn members_by_scan(corfu: &CorfuClient, stream: StreamId) -> Vec<LogOffset> {
    let offsets: Vec<LogOffset> = (0..corfu.check_tail_fast().unwrap()).collect();
    let mut members = Vec::new();
    for chunk in offsets.chunks(256) {
        for (&offset, outcome) in chunk.iter().zip(corfu.read_many(chunk).unwrap()) {
            if let Page::Data(bytes) = outcome {
                if EntryEnvelope::decode(&bytes, offset).unwrap().belongs_to(stream) {
                    members.push(offset);
                }
            }
        }
    }
    members
}

/// Pages read so far, over every storage node.
fn pages_read<T: Transport>(cluster: &Cluster<T>) -> u64 {
    cluster.storage().iter().map(|node| node.stats().reads).sum()
}

/// A reader with counters of its own; the second half is its number of
/// bulk-read requests to storage nodes so far.
fn metered_reader<T: Transport>(cluster: &Cluster<T>) -> (StreamClient, impl Fn() -> u64) {
    let registry = Registry::new();
    let reader = StreamClient::new(cluster.client_with_metrics(registry.clone()).unwrap());
    (reader, move || registry.counter("corfu.client.read_batches").get())
}

/// Syncs `stream` and plays it to the end: the offsets delivered.
fn sync_and_drain(reader: &StreamClient, stream: StreamId) -> Vec<LogOffset> {
    reader.open(stream);
    reader.sync(&[stream]).unwrap();
    std::iter::from_fn(|| reader.readnext(stream).unwrap()).map(|(offset, _)| offset).collect()
}

/// Two streams taking turns, 2 000 entries each, as in the benchmark's
/// catch-up: a cold reader of one of them reads that one's pages once each,
/// up to 1 024 to the round trip.
fn cold_replay_reads_each_member_once_1024_to_the_round_trip<T: Transport>(cluster: &Cluster<T>) {
    const ENTRIES: usize = 2_000;
    let writer = StreamClient::new(cluster.client().unwrap());
    write_turns(&writer, (0..2 * ENTRIES).map(|turn| 1 + turn as StreamId % 2));
    let members = members_by_scan(writer.corfu(), 1);
    assert_eq!(members.len(), ENTRIES);

    let (reader, storage_calls) = metered_reader(cluster);
    let before = pages_read(cluster);
    assert_eq!(sync_and_drain(&reader, 1), members);
    assert_eq!(
        pages_read(cluster) - before,
        ENTRIES as u64,
        "a page read twice, or one of stream 2"
    );
    assert!(
        storage_calls() <= (ENTRIES / corfu::MAX_READ_BATCH + 4) as u64,
        "{} storage calls for {ENTRIES} entries",
        storage_calls()
    );
}

on_both_transports!(cold_replay_reads_each_member_once_1024_to_the_round_trip, two_by_two());

/// Connections that note the data bytes of the largest `Chased` reply.
struct WeighChased {
    inner: Arc<dyn ConnFactory>,
    heaviest: Arc<Mutex<usize>>,
}

struct WeighingConn {
    inner: Arc<dyn ClientConn>,
    heaviest: Arc<Mutex<usize>>,
}

impl ConnFactory for WeighChased {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let heaviest = Arc::clone(&self.heaviest);
        Arc::new(WeighingConn { inner: self.inner.connect(node), heaviest })
    }
}

impl ClientConn for WeighingConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let response = self.inner.call(request)?;
        if let Ok(StorageResponse::Chased(pages)) = tango_wire::decode_from_slice(&response) {
            let data = pages.iter().map(|(_, outcome)| match outcome {
                Page::Data(bytes) => bytes.len(),
                _ => 0,
            });
            let mut heaviest = self.heaviest.lock().unwrap();
            *heaviest = data.sum::<usize>().max(*heaviest);
        }
        Ok(response)
    }
}

/// The page limit is what a reader of small entries gets; entries that fill
/// their 4 KiB pages stop a reply at 128 KiB, 32 of them — and are still
/// read once each.
fn a_reply_of_full_pages_stops_at_128_kib<T: Transport>(cluster: &Cluster<T>) {
    const ENTRIES: usize = 200;
    let writer = StreamClient::new(cluster.client().unwrap());
    for turn in 0..2 * ENTRIES {
        writer
            .multiappend(&[1 + turn as StreamId % 2], Bytes::from(vec![turn as u8; 4_000]))
            .unwrap();
    }
    let members = members_by_scan(writer.corfu(), 1);
    assert_eq!(members.len(), ENTRIES);

    let heaviest = Arc::new(Mutex::new(0));
    let factory =
        Arc::new(WeighChased { inner: cluster.conn_factory(), heaviest: Arc::clone(&heaviest) });
    let registry = Registry::new();
    let corfu =
        cluster.client_with_factory(factory, ClientOptions::default(), registry.clone()).unwrap();
    let reader = StreamClient::new(corfu);
    let before = pages_read(cluster);
    assert_eq!(sync_and_drain(&reader, 1), members);
    assert_eq!(pages_read(cluster) - before, ENTRIES as u64);
    let heaviest = *heaviest.lock().unwrap();
    assert!(heaviest <= CHASE_REPLY_BYTES, "a reply of {heaviest} data bytes");
    assert!(heaviest > CHASE_REPLY_BYTES - 2 * 4_096, "replies stopped early, at {heaviest}");
    let calls = registry.counter("corfu.client.read_batches").get();
    assert!(calls <= (ENTRIES / 32 + 4) as u64, "{calls} storage calls for {ENTRIES} entries");
}

on_both_transports!(a_reply_of_full_pages_stops_at_128_kib, two_by_two());

/// Three streams sharing three replica sets unevenly: a node can follow a
/// stream only as far as the stream's last four entries include one of its
/// own, so strides get shorter — and find the same members, each page once.
fn uneven_interleave_over_three_sets_degrades_and_stays_correct<T: Transport>(
    cluster: &Cluster<T>,
) {
    // Stream 1 takes half the log, stream 2 a third, stream 3 the rest, in
    // an order that repeats only every 997 entries.
    let turns = (0..1_800u64).map(|turn| match turn * 7 % 997 % 6 {
        0..=2 => 1,
        3..=4 => 2,
        _ => 3,
    });
    let writer = StreamClient::new(cluster.client().unwrap());
    write_turns(&writer, turns);
    for stream in [1, 3] {
        let members = members_by_scan(writer.corfu(), stream);
        let (reader, storage_calls) = metered_reader(cluster);
        let before = pages_read(cluster);
        assert_eq!(sync_and_drain(&reader, stream), members);
        assert_eq!(pages_read(cluster) - before, members.len() as u64);
        // Four entries at a time it took a request per set a stride touches.
        assert!(
            storage_calls() <= members.len() as u64 / 16,
            "{} storage calls for {} entries of stream {stream}",
            storage_calls(),
            members.len()
        );
    }
}

on_both_transports!(
    uneven_interleave_over_three_sets_degrades_and_stays_correct,
    ClusterConfig { num_sets: 3, replication: 1, ..Default::default() }
);

/// The nodes stop where the reader's knowledge starts: six entries behind,
/// it reads six pages, not a round trip's worth.
fn a_reader_six_behind_reads_six_pages<T: Transport>(cluster: &Cluster<T>) {
    let writer = StreamClient::new(cluster.client().unwrap());
    write_turns(&writer, (0..200).map(|turn| 1 + turn % 2));
    let (reader, storage_calls) = metered_reader(cluster);
    assert_eq!(sync_and_drain(&reader, 1).len(), 100);

    write_turns(&writer, (0..12).map(|turn| 1 + turn % 2));
    let (pages_before, calls_before) = (pages_read(cluster), storage_calls());
    assert_eq!(sync_and_drain(&reader, 1).len(), 6);
    assert_eq!(pages_read(cluster) - pages_before, 6);
    assert_eq!(storage_calls() - calls_before, 1);
}

on_both_transports!(a_reader_six_behind_reads_six_pages, two_by_two());

/// A token granted in the middle of the stream and never written. The nodes
/// report the hole among what they followed and the reader makes nothing of
/// it; when the walk gets there it waits the hole out, once, and fills it.
fn an_abandoned_token_is_waited_out_once_and_filled<T: Transport>(cluster: &Cluster<T>) {
    let writer = StreamClient::new(cluster.client().unwrap());
    write_turns(&writer, (0..100).map(|turn| 1 + turn % 2));
    let abandoned = writer.corfu().token(&[1]).unwrap().offset;
    write_turns(&writer, (0..100).map(|turn| 1 + turn % 2));

    let registry = Registry::new();
    let options = ClientOptions { hole_fill_timeout: Duration::from_millis(40) };
    let factory = cluster.conn_factory();
    let corfu = cluster.client_with_factory(factory, options, registry.clone()).unwrap();
    let reader = StreamClient::new(corfu);
    let delivered = sync_and_drain(&reader, 1);
    assert_eq!(registry.counter("corfu.client.junk_forced").get(), 1);
    assert_eq!(writer.corfu().read(abandoned).unwrap(), Page::Junk);
    assert_eq!(delivered, members_by_scan(writer.corfu(), 1));
    assert_eq!(delivered.len(), 100);
    assert!(!delivered.contains(&abandoned));
}

on_both_transports!(an_abandoned_token_is_waited_out_once_and_filled, two_by_two());

/// A stream dense in a log of six replica sets, where no node holds any of
/// an entry's four backpointers, so none can chase the walk: a reader 200
/// entries behind reads the log down to what it knows instead, 32 offsets a
/// round trip. A slow writer of another stream holds a token in the middle;
/// that read neither waits for it nor fills it, and the walk, which learns
/// members from backpointers alone, never reads it.
fn a_dense_stream_past_the_chase_is_read_around_a_slow_writer<T: Transport>(cluster: &Cluster<T>) {
    const ENTRIES: usize = 200;
    let writer = StreamClient::new(cluster.client().unwrap());
    let registry = Registry::new();
    let options = ClientOptions { hole_fill_timeout: Duration::from_secs(5) };
    let corfu =
        cluster.client_with_factory(cluster.conn_factory(), options, registry.clone()).unwrap();
    let reader = StreamClient::new(corfu);
    write_turns(&writer, (0..10).map(|_| 1));
    assert_eq!(sync_and_drain(&reader, 1).len(), 10);

    write_turns(&writer, (0..ENTRIES / 2).map(|_| 1));
    let slow = writer.corfu().token(&[2]).unwrap().offset;
    write_turns(&writer, (0..ENTRIES / 2).map(|_| 1));
    let calls_before = registry.counter("corfu.client.read_batches").get();
    let delivered = sync_and_drain(&reader, 1);
    assert_eq!(delivered, members_by_scan(writer.corfu(), 1)[10..]);
    assert_eq!(delivered.len(), ENTRIES);
    assert_eq!(registry.counter("corfu.client.junk_forced").get(), 0);
    assert_eq!(writer.corfu().read(slow).unwrap(), Page::Unwritten);
    // Walking four entries a round trip asks four nodes each time: 200
    // requests. The read asks each of six nodes once per 32 offsets.
    let calls = registry.counter("corfu.client.read_batches").get() - calls_before;
    assert!(calls <= (ENTRIES / 32 + 2) as u64 * 6, "{calls} storage calls for {ENTRIES} entries");
}

on_both_transports!(
    a_dense_stream_past_the_chase_is_read_around_a_slow_writer,
    ClusterConfig { num_sets: 6, replication: 1, ..Default::default() }
);

/// Tells the test "stopped", then waits to be told "go on". Taken by the
/// one connection that uses it.
type Pause = Arc<Mutex<Option<(Sender<()>, Receiver<()>)>>>;

/// Connections that stop at the first `ReadChase` they are given: the test
/// is told, and the request goes out when the test answers.
struct PauseAtFirstChase {
    inner: Arc<dyn ConnFactory>,
    pause: Pause,
}

struct PausingConn {
    inner: Arc<dyn ClientConn>,
    pause: Pause,
}

impl ConnFactory for PauseAtFirstChase {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        Arc::new(PausingConn { inner: self.inner.connect(node), pause: Arc::clone(&self.pause) })
    }
}

impl ClientConn for PausingConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        const READ_CHASE_TAG: u8 = 8;
        if request.first() == Some(&READ_CHASE_TAG) {
            if let Some((paused, resume)) = self.pause.lock().unwrap().take() {
                paused.send(()).unwrap();
                resume.recv().unwrap();
            }
        }
        self.inner.call(request)
    }
}

/// The head of the chain the walk reads from is replaced between the walk's
/// sequencer query and its first read: the read is refused as sealed, the
/// client picks the new layout up, and the replay comes out whole.
fn a_replay_racing_a_node_replacement_retries_and_converges<T: Transport>(cluster: &Cluster<T>) {
    let operator = cluster.client().unwrap();
    let writer = StreamClient::new(cluster.client().unwrap());
    write_turns(&writer, (0..600).map(|turn| 1 + turn % 2));
    let members = members_by_scan(writer.corfu(), 1);

    let (paused_tx, paused) = channel();
    let (resume, resume_rx) = channel();
    let factory = Arc::new(PauseAtFirstChase {
        inner: cluster.conn_factory(),
        pause: Arc::new(Mutex::new(Some((paused_tx, resume_rx)))),
    });
    let registry = Registry::new();
    let corfu =
        cluster.client_with_factory(factory, ClientOptions::default(), registry.clone()).unwrap();
    let reader = StreamClient::new(corfu);
    let delivered = std::thread::scope(|scope| {
        let replay = scope.spawn(|| sync_and_drain(&reader, 1));
        paused.recv().unwrap();
        // Stream 1 has the even offsets, set 0's; its reads go to the tail,
        // node 1, which lives through this and is sealed by it.
        cluster.kill_storage_node(0);
        let (replacement, _server) = cluster.spawn_replacement_storage().unwrap();
        replace_storage_node(&operator, 0, replacement).unwrap();
        resume.send(()).unwrap();
        replay.join().unwrap()
    });
    assert!(registry.counter("corfu.client.seal_retries").get() >= 1);
    assert_eq!(delivered, members);
}

on_both_transports!(a_replay_racing_a_node_replacement_retries_and_converges, two_by_two());

fn stream_in_log(proj: &Projection, log: u32) -> StreamId {
    (1..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

/// Writes one cross-log append by hand, as `append_streams` would: a body
/// in `body_stream`'s log linked to an anchor in `home_stream`'s — which is
/// written if the append is to have `committed`, and filled with junk (its
/// token lost) if not. Returns the body's offset.
fn cross_log_body(
    corfu: &CorfuClient,
    (home_stream, body_stream): (StreamId, StreamId),
    committed: bool,
) -> LogOffset {
    let (home, body) = (corfu.token(&[home_stream]).unwrap(), corfu.token(&[body_stream]).unwrap());
    let link = CrossLogLink { home: home.offset, parts: vec![home.offset, body.offset] };
    let part = |stream, token: &corfu::Token| EntryEnvelope {
        headers: vec![StreamHeader { stream, backpointers: token.backpointers[0].clone() }],
        payload: Bytes::from_static(b"linked"),
        link: Some(link.clone()),
    };
    let encoded = part(body_stream, &body).encode(body.offset).unwrap();
    corfu.write_at(body.offset, &encoded).unwrap();
    if committed {
        let encoded = part(home_stream, &home).encode(home.offset).unwrap();
        corfu.write_at(home.offset, &encoded).unwrap();
    } else {
        assert_eq!(corfu.fill(home.offset).unwrap(), Page::Junk);
    }
    body.offset
}

/// Two cross-log bodies among a stream's entries, where a cold reader's
/// first round trip brings both along unasked: the one whose anchor
/// committed is delivered, the one whose anchor is junk is not — nor is it
/// cached on arrival: the walk reads it again when it gets there, and judges
/// it then.
fn a_cross_log_body_brought_along_is_delivered_only_if_it_committed<T: Transport>(
    cluster: &Cluster<T>,
) {
    let writer = StreamClient::new(cluster.client().unwrap());
    let proj = writer.corfu().projection();
    let (home_stream, stream) = (stream_in_log(&proj, 0), stream_in_log(&proj, 1));
    let append = |n: usize| -> Vec<LogOffset> {
        (0..n).map(|i| writer.multiappend(&[stream], payload(i)).unwrap()).collect()
    };
    let mut expected = append(20);
    let aborted = cross_log_body(writer.corfu(), (home_stream, stream), false);
    expected.extend(append(2));
    let committed = cross_log_body(writer.corfu(), (home_stream, stream), true);
    expected.push(committed);
    expected.extend(append(10));

    let (reader, storage_calls) = metered_reader(cluster);
    reader.open(stream);
    reader.sync(&[stream]).unwrap();
    // The walk: one round trip from the stream's last four entries, which
    // brings the 30 before them, both bodies among them; one for the aborted
    // body when its turn comes (it was not cached), and one to look at its
    // anchor. Readahead then asks for the aborted body again.
    assert_eq!(storage_calls(), 3 + 1);
    let (hits, _) = reader.cache_stats();
    assert!(reader.read_at(committed).unwrap().is_some());
    assert_eq!(reader.cache_stats().0, hits + 1, "the committed body was cached as it arrived");
    assert!(reader.read_at(aborted).unwrap().is_none());
    let delivered: Vec<LogOffset> =
        std::iter::from_fn(|| reader.readnext(stream).unwrap()).map(|(offset, _)| offset).collect();
    assert_eq!(delivered, expected);
}

on_both_transports!(
    a_cross_log_body_brought_along_is_delivered_only_if_it_committed,
    ClusterConfig::sharded(2)
);

/// A prefix trim of half the stream lands while a cold reader walks it, at
/// a moment that steps from before the walk's first `ReadChase` to after its
/// last: the replay delivers, in order, every member at or above the trim
/// horizon and — of those below — what the walk read before the trim took
/// it; never an error, never a member twice. The stream is longer than one
/// chase brings ([`corfu::MAX_READ_BATCH`] pages), so that a trim can land
/// between two of them.
#[test]
fn a_trim_racing_a_chase_loses_only_what_it_took() {
    const MEMBERS: usize = corfu::MAX_READ_BATCH + 256;
    let cut_short = std::cell::Cell::new(0);
    support::sweep!(a_trim_racing_a_chase_loses_only_what_it_took, |seed| {
        for step in 0..4u64 {
            let cluster = SimCluster::simulated(seed, two_by_two());
            let sim = cluster.sim();
            sim.delay_calls("storage.", 25, Duration::from_micros(30));
            let writer = StreamClient::new(cluster.client().unwrap());
            write_turns(&writer, (0..2 * MEMBERS as StreamId).map(|turn| 1 + turn % 2));
            let members = members_by_scan(writer.corfu(), 1);
            let horizon = members[members.len() / 2];

            let reader = StreamClient::new(cluster.client().unwrap());
            let replay = sim.spawn("reader", move || sync_and_drain(&reader, 1));
            sim.clock().sleep(Duration::from_micros(step * 30));
            writer.corfu().trim_prefix(horizon).unwrap();
            let delivered = replay.join().unwrap();

            assert!(delivered.windows(2).all(|w| w[0] < w[1]), "out of order: {delivered:?}");
            assert!(delivered.iter().all(|off| members.contains(off)), "{delivered:?}");
            let above: Vec<LogOffset> = members.iter().copied().filter(|&m| m >= horizon).collect();
            assert!(delivered.ends_with(&above), "a member above the horizon is missing");
            let below = delivered.len() - above.len();
            if below > 0 && below < members.len() - above.len() {
                cut_short.set(cut_short.get() + 1);
            }
        }
    });
    assert!(cut_short.get() > 0, "some trim must land in the middle of the walk");
}
