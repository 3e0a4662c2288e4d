//! End-to-end tests of the CORFU deployment: append/read, chain repair,
//! hole filling, checks, trims, and sequencer failover.

// The sweeps are not what this binary runs.
#[allow(unused_macros, unused_imports)]
mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, SimCluster, TcpCluster, Transport};
use corfu::proto::StorageRequest;
use corfu::{reconfig, ClientOptions, ConnFactory, NodeId, NodeInfo};
use corfu::{CorfuError, Page};
use support::history::History;
use tango_metrics::Registry;
use tango_rpc::ClientConn;

fn payload(i: u64) -> Bytes {
    Bytes::from(format!("entry-{i}").into_bytes())
}

#[test]
fn append_read_roundtrip() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    let mut offsets = Vec::new();
    for i in 0..50 {
        offsets.push(client.append(payload(i)).unwrap());
    }
    // Offsets are dense and monotonic: the sequencer serializes appends.
    assert_eq!(offsets, (0..50).collect::<Vec<u64>>());
    for (i, &off) in offsets.iter().enumerate() {
        let entry = client.read_entry(off).unwrap();
        assert_eq!(entry.payload, payload(i as u64));
    }
    assert_eq!(client.check_tail_fast().unwrap(), 50);
    assert_eq!(client.check_tail_slow().unwrap(), 50);
}

#[test]
fn entries_stripe_across_replica_sets() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..12 {
        client.append(payload(i)).unwrap();
    }
    // With 3 sets of 2 replicas, each node should hold 4 entries.
    for server in cluster.storage() {
        assert_eq!(server.stats().data_writes, 4);
    }
}

#[test]
fn concurrent_appends_get_unique_offsets() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let mut handles = Vec::new();
    for t in 0..8 {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let mut offs = Vec::new();
            for i in 0..100u64 {
                offs.push(client.append(payload(t * 1000 + i)).unwrap());
            }
            offs
        }));
    }
    let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..800).collect();
    assert_eq!(all, expected, "offsets must be unique and dense");
}

#[test]
fn unwritten_reads_and_wait_read_fill() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let mut cfg_client = cluster.client().unwrap();
    // Reserve a token but never write it: a hole.
    let token = cfg_client.token(&[]).unwrap();
    assert_eq!(cfg_client.read(token.offset).unwrap(), Page::Unwritten);
    // wait_read patches the hole with junk after the (default 100ms) wait.
    let start = std::time::Instant::now();
    assert_eq!(cfg_client.wait_read(token.offset).unwrap(), Page::Junk);
    assert!(start.elapsed() >= std::time::Duration::from_millis(90));
    // The slot is consumed: the original holder's late write loses.
    let late = corfu::EntryEnvelope::raw(payload(9)).encode(token.offset).unwrap();
    assert!(matches!(cfg_client.write_at(token.offset, &late), Err(CorfuError::TokenLost { .. })));
    // Appends continue past the junk.
    let off = cfg_client.append(payload(1)).unwrap();
    assert!(off > token.offset);
    let _ = &mut cfg_client;
}

#[test]
fn read_many_stitches_mixed_outcomes_in_input_order() {
    // Default geometry: 3 replica sets of 2, so the batch below spans every
    // set and the client must regroup and restitch.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..9 {
        client.append(payload(i)).unwrap();
    }
    // Offset 9 becomes junk (reserved, never written, patched).
    let tok = client.token(&[]).unwrap();
    client.fill(tok.offset).unwrap();
    // Offset 10 is written then trimmed; offset 11 stays a hole.
    let trimmed = client.append(payload(10)).unwrap();
    client.trim(trimmed).unwrap();
    let hole = client.token(&[]).unwrap();

    let batches_before = client.metrics().counter("corfu.client.read_batches").get();
    let offsets = vec![hole.offset, 4, trimmed, 0, tok.offset, 8, 1];
    let outcomes = client.read_many(&offsets).unwrap();
    assert_eq!(outcomes.len(), offsets.len());
    assert_eq!(outcomes[0], Page::Unwritten);
    assert_eq!(outcomes[2], Page::Trimmed);
    assert_eq!(outcomes[4], Page::Junk);
    for (slot, i) in [(1usize, 4u64), (3, 0), (5, 8), (6, 1)] {
        match &outcomes[slot] {
            Page::Data(bytes) => {
                let entry = corfu::EntryEnvelope::decode(bytes, offsets[slot]).unwrap();
                assert_eq!(entry.payload, payload(i));
            }
            other => panic!("offset {} expected data, got {other:?}", offsets[slot]),
        }
    }
    // The 7 offsets span all 3 replica sets: one ReadBatch per set.
    let batches = client.metrics().counter("corfu.client.read_batches").get() - batches_before;
    assert_eq!(batches, 3);
    // And the storage side saw them as batches, visible in the histogram.
    assert!(client.metrics().histogram("corfu.storage.read_batch").count() >= 3);
}

#[test]
fn read_many_empty_and_oversized_batches() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    assert_eq!(client.read_many(&[]).unwrap(), Vec::new());
    // More offsets than MAX_READ_BATCH still works: the client re-chunks.
    let n = corfu::MAX_READ_BATCH as u64 + 10;
    for i in 0..n {
        client.append(payload(i)).unwrap();
    }
    let offsets: Vec<u64> = (0..n).collect();
    let outcomes = client.read_many(&offsets).unwrap();
    assert_eq!(outcomes.len(), n as usize);
    assert!(outcomes.iter().all(|o| matches!(o, Page::Data(_))));
}

/// On the simulated transport, so the wait is measured on the clock it
/// runs on: exactly the hole-fill timeout, give or take the fill's round
/// trips.
#[test]
fn wait_read_backs_off_while_polling_holes() {
    let cluster = SimCluster::simulated(1, ClusterConfig::default());
    let clock = cluster.sim().clock();
    let client = cluster.client().unwrap();
    let token = client.token(&[]).unwrap();
    let polls_before = client.metrics().counter("corfu.hole_polls").get();
    let start = clock.now();
    assert_eq!(client.wait_read(token.offset).unwrap(), Page::Junk);
    let waited = clock.now() - start;
    let timeout = client.options().hole_fill_timeout;
    assert!(waited >= timeout && waited < timeout + Duration::from_millis(1), "{waited:?}");
    let polls = client.metrics().counter("corfu.hole_polls").get() - polls_before;
    // Exponential backoff (1ms doubling to a 16ms cap) crosses the 100ms
    // hole-fill window in ~10 polls; fixed-interval polling took ~100.
    assert!((4..=40).contains(&polls), "expected bounded backoff, saw {polls} polls");
}

/// A reader behind K abandoned tokens waits for them together: one
/// hole-fill timeout, not K of them one after another.
#[test]
fn wait_read_many_gives_its_holes_one_deadline() {
    let timeout = Duration::from_millis(200);
    let config = ClusterConfig {
        client_options: corfu::ClientOptions { hole_fill_timeout: timeout },
        ..ClusterConfig::default()
    };
    let cluster = SimCluster::simulated(1, config);
    let clock = cluster.sim().clock();
    let client = cluster.client().unwrap();
    let mut offsets: Vec<u64> = (0..3).map(|_| client.token(&[]).unwrap().offset).collect();
    offsets.push(client.append(payload(3)).unwrap());
    let polls_before = client.metrics().counter("corfu.hole_polls").get();
    let start = clock.now();
    let outcomes = client.wait_read_many(&offsets).unwrap();
    let waited = clock.now() - start;
    assert!(matches!(outcomes[..], [Page::Junk, Page::Junk, Page::Junk, Page::Data(_)]));
    assert!(waited >= timeout, "the holes were filled {waited:?} in, before their deadline");
    assert!(waited < 2 * timeout, "three holes cost {waited:?}: a deadline each");
    // The three were polled as one: as many polls as one hole's backoff
    // (1 ms doubling to 16 ms) fits into the window, not three times that.
    let polls = client.metrics().counter("corfu.hole_polls").get() - polls_before;
    assert!((4..=40).contains(&polls), "expected one backoff ladder, saw {polls} polls");
}

#[test]
fn fill_loses_to_completed_write() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    let off = client.append(payload(7)).unwrap();
    // Filling a written offset returns the existing data.
    match client.fill(off).unwrap() {
        Page::Data(bytes) => {
            let entry = corfu::EntryEnvelope::decode(&bytes, off).unwrap();
            assert_eq!(entry.payload, payload(7));
        }
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn half_written_chain_is_repaired_by_reader() {
    // 1 set, 3 replicas: write only the head via a raw storage call, then
    // read through the client, which must repair and return the value.
    let config = ClusterConfig { num_sets: 1, replication: 3, ..ClusterConfig::default() };
    let cluster = LocalCluster::new(config);
    let client = cluster.client().unwrap();
    let token = client.token(&[]).unwrap();
    let body = corfu::EntryEnvelope::raw(payload(3)).encode(token.offset).unwrap();
    // Simulate a client that died after the head write: poke the head
    // storage server directly. With one replica set, local addr == offset.
    use corfu::proto::{StorageResponse, WriteKind};
    let head = &cluster.storage()[0];
    let resp = head.process(StorageRequest::Write {
        epoch: 0,
        addr: token.offset,
        kind: WriteKind::Data,
        payload: Bytes::from(body.clone()),
    });
    assert!(matches!(resp, StorageResponse::Ok));
    // Tail replica has nothing yet; the read repairs.
    match client.read(token.offset).unwrap() {
        Page::Data(bytes) => assert_eq!(bytes, Bytes::from(body)),
        other => panic!("expected repaired data, got {other:?}"),
    }
    // Now all replicas hold it.
    assert_eq!(cluster.storage()[2].stats().data_writes, 1);
}

/// Connections that run `before` once, on the first write sent to storage
/// node `node`, before forwarding it.
struct BeforeFirstWrite {
    inner: Arc<dyn ConnFactory>,
    node: NodeId,
    before: Arc<dyn Fn() + Send + Sync>,
    fired: Arc<AtomicBool>,
}

struct BeforeFirstWriteConn {
    inner: Arc<dyn ClientConn>,
    before: Arc<dyn Fn() + Send + Sync>,
    fired: Arc<AtomicBool>,
}

impl ConnFactory for BeforeFirstWrite {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let inner = self.inner.connect(node);
        if node.id != self.node || !node.addr.starts_with("storage") {
            return inner;
        }
        let (before, fired) = (Arc::clone(&self.before), Arc::clone(&self.fired));
        Arc::new(BeforeFirstWriteConn { inner, before, fired })
    }
}

impl ClientConn for BeforeFirstWriteConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let request_kind = tango_wire::decode_from_slice::<StorageRequest>(request);
        let write = matches!(request_kind, Ok(StorageRequest::Write { .. }));
        if write && !self.fired.swap(true, Ordering::SeqCst) {
            (self.before)();
        }
        self.inner.call(request)
    }
}

#[test]
fn a_chain_write_sealed_between_its_hops_lands_once() {
    // The head takes the write; the epoch moves before the tail hop, which
    // is refused as sealed. The write goes round again at the new epoch and
    // meets its own bytes at the head: that is this write, not a lost token.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let sealer = cluster.client().unwrap();
    let tail = *sealer.projection().chain_for(0).last().unwrap();
    let factory = Arc::new(BeforeFirstWrite {
        inner: cluster.conn_factory(),
        node: tail,
        before: Arc::new(move || {
            reconfig::bump_epoch(&sealer).unwrap();
        }),
        fired: Arc::default(),
    });
    let client = cluster
        .client_with_factory(factory.clone(), ClientOptions::default(), Registry::disabled())
        .unwrap();
    let history = History::new(client.clock());
    let client = history.client("writer", client);
    let (offset, _) = client.append_streams(&[7], payload(1)).unwrap();
    assert!(factory.fired.load(Ordering::SeqCst), "the tail hop was never reached");

    assert_eq!(offset, 0);
    let reader = cluster.client().unwrap();
    assert_eq!(reader.check_tail_slow().unwrap(), 1, "the entry landed at one offset");
    let (_, windows) = reader.tail_info(&[7]).unwrap();
    assert_eq!(windows, vec![vec![offset]], "the stream holds the entry once");
    history.judge(&cluster);
}

#[test]
fn a_write_whose_offset_was_granted_again_lands_at_a_fresh_offset() {
    // The sequencer is replaced between a token grant and its head write.
    // The replacement recovers the tail from storage, where nothing holds
    // the offset yet, and grants it again to a second client, which lands
    // the very same bytes there. The first write, refused as sealed and
    // sent round again, meets those bytes at the head: they are not its
    // own, so its token is lost and the append lands at a fresh offset.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let sealer = cluster.client().unwrap();
    let head = sealer.projection().chain_for(0)[0];
    let (info, _replacement) = cluster.spawn_replacement_sequencer().unwrap();
    let history = History::new(sealer.clock());
    let other = history.client("other", cluster.client().unwrap());
    let factory = Arc::new(BeforeFirstWrite {
        inner: cluster.conn_factory(),
        node: head,
        before: Arc::new(move || {
            reconfig::replace_sequencer(&sealer, info.clone(), 4).unwrap();
            let (offset, _) = other.append_streams(&[7], payload(1)).unwrap();
            assert_eq!(offset, 0, "the replacement grants the offset again");
        }),
        fired: Arc::default(),
    });
    let client = cluster
        .client_with_factory(factory.clone(), ClientOptions::default(), Registry::disabled())
        .unwrap();
    let client = history.client("writer", client);
    let (offset, entry) = client.append_streams(&[7], payload(1)).unwrap();
    assert!(factory.fired.load(Ordering::SeqCst), "the head write was never reached");

    assert_eq!(offset, 1, "the write lost its token and appended again");
    assert_eq!(entry.header_for(7).unwrap().backpointers, vec![0]);
    let reader = cluster.client().unwrap();
    assert_eq!(reader.check_tail_slow().unwrap(), 2, "two appends, two entries");
    let (_, windows) = reader.tail_info(&[7]).unwrap();
    assert_eq!(windows, vec![vec![1, 0]], "the stream holds both entries");
    history.judge(&cluster);
}

#[test]
fn trim_prefix_reclaims_and_reports() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..30 {
        client.append(payload(i)).unwrap();
    }
    client.trim_prefix(10).unwrap();
    for off in 0..10 {
        assert_eq!(client.read(off).unwrap(), Page::Trimmed);
    }
    for off in 10..30 {
        assert!(matches!(client.read(off).unwrap(), Page::Data(_)));
    }
    // The tail is unaffected by trims.
    assert_eq!(client.check_tail_slow().unwrap(), 30);
}

#[test]
fn random_trim_single_offset() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..5 {
        client.append(payload(i)).unwrap();
    }
    client.trim(2).unwrap();
    assert_eq!(client.read(2).unwrap(), Page::Trimmed);
    assert!(matches!(client.read(1).unwrap(), Page::Data(_)));
    assert!(matches!(client.read(3).unwrap(), Page::Data(_)));
}

/// Kill the sequencer, reseal onto a replacement with
/// `reconfig::replace_sequencer`: the log, the tail and the backpointers
/// survive — with the kill a dropped handler in-process and a closed
/// listener over real sockets.
fn sequencer_failover_preserves_log_and_tail<T: Transport>(cluster: &Cluster<T>) {
    let client = cluster.client().unwrap();
    for i in 0..40u32 {
        client.append_streams(&[i % 4], payload(i as u64)).unwrap();
    }
    // Kill the sequencer; fast checks now fail at the transport level.
    cluster.kill_sequencer();
    assert!(client.check_tail_fast().is_err());
    // The slow check still works against the storage nodes.
    assert_eq!(client.check_tail_slow().unwrap(), 40);

    // Reconfigure to a replacement sequencer.
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = reconfig::replace_sequencer(&client, info, 4).unwrap();
    assert_eq!(outcome.recovered_tail, 40);
    assert_eq!(outcome.projection.epoch, 1);

    // The client works again: fast check, appends, stream backpointers.
    assert_eq!(client.check_tail_fast().unwrap(), 40);
    let (off, entry) = client.append_streams(&[2], payload(100)).unwrap();
    assert_eq!(off, 40);
    // The recovered backpointers must point at stream 2's previous entries
    // (offsets 2, 6, ..., 38 -> last four are 38, 34, 30, 26).
    let header = entry.header_for(2).unwrap();
    assert_eq!(header.backpointers, vec![38, 34, 30, 26]);

    // Old data is still readable.
    let entry = client.read_entry(5).unwrap();
    assert_eq!(entry.payload, payload(5));
}

#[test]
fn sequencer_failover_preserves_log_and_tail_in_process() {
    sequencer_failover_preserves_log_and_tail(&LocalCluster::new(ClusterConfig::default()));
}

#[test]
fn sequencer_failover_preserves_log_and_tail_over_tcp() {
    let cluster = TcpCluster::spawn(ClusterConfig::default()).unwrap();
    sequencer_failover_preserves_log_and_tail(&cluster);
}

#[test]
fn stale_epoch_clients_recover_after_bump() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client_a = cluster.client().unwrap();
    let client_b = cluster.client().unwrap();
    client_a.append(payload(0)).unwrap();
    // Fence the cluster to a new epoch via client A.
    let (epoch, tail) = reconfig::bump_epoch(&client_a).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(tail, 1);
    // Client B still holds epoch 0 but transparently refreshes and retries.
    let off = client_b.append(payload(1)).unwrap();
    assert_eq!(off, 1);
    assert_eq!(client_b.epoch(), 1);
}

#[test]
fn multiappend_entry_carries_all_stream_headers() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    client.append_streams(&[1], payload(0)).unwrap();
    client.append_streams(&[2], payload(1)).unwrap();
    let (off, entry) = client.append_streams(&[1, 2], payload(2)).unwrap();
    assert_eq!(off, 2);
    assert_eq!(entry.header_for(1).unwrap().backpointers, vec![0]);
    assert_eq!(entry.header_for(2).unwrap().backpointers, vec![1]);
    // Reading it back yields the same envelope.
    assert_eq!(client.read_entry(off).unwrap(), entry);
}

#[test]
fn storage_node_crash_fails_appends_to_its_set() {
    let config = ClusterConfig { num_sets: 2, replication: 1, ..ClusterConfig::default() };
    let cluster = LocalCluster::new(config);
    let client = cluster.client().unwrap();
    client.append(payload(0)).unwrap(); // set 0
    client.append(payload(1)).unwrap(); // set 1
    cluster.registry().kill("storage-1");
    // Offset 2 maps to set 0 (alive).
    assert_eq!(client.append(payload(2)).unwrap(), 2);
    // Offset 3 maps to set 1 (dead) - the append must error, not hang.
    assert!(client.append(payload(3)).is_err());
}
