//! Storage-node replacement (chain rebuild): end-to-end on both
//! transports, and — as schedules on the simulated transport — the
//! transparent `ErrSealed` retry path for racing clients and convergence of
//! concurrent replacements.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{Cluster, ClusterConfig, LocalCluster, SimCluster, TcpCluster, Transport};
use corfu::proto::{StorageRequest, StorageResponse};
use corfu::reconfig::replace_storage_node;
use corfu::{CorfuError, LogOffset, NodeId, Page};
use parking_lot::Mutex;
use support::history::History;

/// The full rebuild, on any transport: data pages, a junk-filled hole, a
/// random trim mark, and the prefix-trim horizon all survive the move to
/// the replacement, and the replacement's flash is byte-identical to the
/// surviving replica's. `victim` heads a 2-node chain of a 2x2 cluster.
fn replacement_preserves_log_contents<T: Transport>(cluster: &Cluster<T>, victim: NodeId) {
    let client = cluster.client().unwrap();

    let mut entries: Vec<(LogOffset, Bytes)> = Vec::new();
    for i in 0..24u32 {
        let payload = Bytes::from(format!("entry-{i}").into_bytes());
        let off = client.append(payload.clone()).unwrap();
        entries.push((off, payload));
    }
    // A junk page: reserve a token, never write it, patch it explicitly.
    let hole = client.token(&[]).unwrap().offset;
    assert_eq!(client.fill(hole).unwrap(), Page::Junk);
    // A random trim mark and a prefix trim.
    let trimmed = entries[20].0;
    client.trim(trimmed).unwrap();
    let horizon = 5;
    client.trim_prefix(horizon).unwrap();

    // Kill the head of the victim's replica set (its address stops
    // answering: a dropped handler in-process, a closed listener over TCP)
    // and rebuild it onto a fresh node.
    cluster.kill_storage_node(victim);
    let (info, replacement) = cluster.spawn_replacement_storage().unwrap();
    let outcome = replace_storage_node(&client, victim, info.clone()).unwrap();

    assert_eq!(outcome.chains_rebuilt, 1);
    assert!(outcome.pages_copied > 0, "the rebuild must move pages");
    assert!(outcome.bytes_copied > 0);
    assert_eq!(outcome.projection.epoch, 1);
    assert!(outcome.projection.log(0).replica_sets.iter().any(|set| set.contains(&info.id)));
    assert!(outcome.projection.log(0).replica_sets.iter().all(|set| !set.contains(&victim)));

    // The replacement now heads the chain: appends land on it.
    let post = client.append(Bytes::from_static(b"after-rebuild")).unwrap();
    entries.push((post, Bytes::from_static(b"after-rebuild")));

    // Every kind of page reads back exactly as before the failure, through
    // the coordinating client and through a fresh one.
    for reader in [&client, &cluster.client().unwrap()] {
        for (off, payload) in &entries {
            let expect = if *off < horizon || *off == trimmed {
                None // trimmed
            } else {
                Some(payload)
            };
            match (expect, reader.read(*off).unwrap()) {
                (None, Page::Trimmed) => {}
                (Some(payload), Page::Data(_)) => {
                    assert_eq!(&reader.read_entry(*off).unwrap().payload, payload);
                }
                (want, got) => panic!("offset {off}: wanted {want:?}, got {got:?}"),
            }
        }
        assert_eq!(reader.read(hole).unwrap(), Page::Junk);
    }

    // Page-for-page, the replacement matches the surviving replica (the
    // victim's chain successor, the copy source) across its whole local
    // address space.
    let survivor = &cluster.storage()[victim as usize + 1];
    let tail = match survivor.process(StorageRequest::LocalTail { epoch: 1 }) {
        StorageResponse::Tail(t) => t,
        other => panic!("local tail: {other:?}"),
    };
    assert_eq!(
        replacement.process(StorageRequest::LocalTail { epoch: 1 }),
        StorageResponse::Tail(tail)
    );
    for addr in 0..tail {
        assert_eq!(
            replacement.process(StorageRequest::Read { epoch: 1, addr }),
            survivor.process(StorageRequest::Read { epoch: 1, addr }),
            "replacement diverges from survivor at local address {addr}"
        );
    }
}

fn two_by_two() -> ClusterConfig {
    ClusterConfig { num_sets: 2, replication: 2, ..Default::default() }
}

#[test]
fn replacement_preserves_log_contents_in_process() {
    // Node 0 heads replica set 0.
    replacement_preserves_log_contents(&LocalCluster::new(two_by_two()), 0);
}

#[test]
fn replacement_preserves_log_contents_over_tcp() {
    // Node 2 heads replica set 1.
    replacement_preserves_log_contents(&TcpCluster::spawn(two_by_two()).unwrap(), 2);
}

/// Regression: clients racing a replacement only ever observe `ErrSealed`,
/// which the retry path absorbs — no error may surface. The replaced node
/// stays alive (a decommission), so there is no disconnect window and any
/// surfaced error is a real retry-path bug. A schedule on the simulated
/// transport: the seed decides how the writer, the reader and the
/// replacement interleave.
#[test]
fn sealed_epoch_retry_is_transparent_to_racing_clients() {
    support::sweep!(sealed_epoch_retry_is_transparent_to_racing_clients, |seed| {
        let config = ClusterConfig { num_sets: 2, replication: 2, ..Default::default() };
        let cluster = SimCluster::simulated(seed, config);
        let sim = cluster.sim();
        sim.delay_calls("", 25, Duration::from_micros(100));
        let history = History::new(sim.clock());
        let setup = history.client("setup", cluster.client().unwrap());
        let acked: Arc<Mutex<Vec<LogOffset>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16u32 {
            let off = setup.append(Bytes::from(format!("warmup-{i}").into_bytes())).unwrap();
            acked.lock().push(off);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let client = history.client("writer", cluster.client().unwrap());
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            sim.spawn("writer", move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let off = client
                        .append(Bytes::from(format!("race-{i}").into_bytes()))
                        .expect("writer must ride out the seal transparently");
                    acked.lock().push(off);
                    i += 1;
                }
                i
            })
        };
        // What the reader finds is the checker's to judge.
        let reader = {
            let client = history.client("reader", cluster.client().unwrap());
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            sim.spawn("reader", move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let off = acked.lock().last().copied().unwrap();
                    let page =
                        client.read(off).expect("reader must ride out the seal transparently");
                    assert!(matches!(page, Page::Data(_)), "{off}: {page:?}");
                    reads += 1;
                }
                reads
            })
        };

        // Decommission the live tail of replica set 0 mid-traffic.
        let clock = sim.clock();
        clock.sleep(Duration::from_millis(2));
        let coordinator = cluster.client().unwrap();
        let (info, _server) = cluster.spawn_replacement_storage().unwrap();
        let outcome = replace_storage_node(&coordinator, 1, info).unwrap();
        assert_eq!(outcome.projection.epoch, 1);

        // Keep the race going briefly at the new epoch, then stop.
        clock.sleep(Duration::from_millis(2));
        stop.store(true, Ordering::Relaxed);
        let appended = writer.join().unwrap();
        let reads = reader.join().unwrap();
        assert!(appended > 0, "writer made no progress");
        assert!(reads > 0, "reader made no progress");
        history.judge(&cluster);
    });
}

/// Two concurrent replacements of the same dead node converge: exactly one
/// wins the layout CAS; the loser gets `RaceLost` carrying the winning
/// epoch rather than an opaque layout error. A schedule on the simulated
/// transport, swept over the seeds that interleave the two.
#[test]
fn concurrent_replacements_converge_on_one_winner() {
    support::sweep!(concurrent_replacements_converge_on_one_winner, |seed| {
        let config = ClusterConfig { num_sets: 1, replication: 2, ..Default::default() };
        let cluster = SimCluster::simulated(seed, config);
        cluster.sim().delay_calls("", 25, Duration::from_micros(100));
        let history = History::new(cluster.sim().clock());
        let setup = history.client("setup", cluster.client().unwrap());
        for i in 0..10u32 {
            setup.append(Bytes::from(format!("pre-{i}").into_bytes())).unwrap();
        }

        cluster.kill_storage_node(0);
        let (info_a, _server_a) = cluster.spawn_replacement_storage().unwrap();
        let (info_b, _server_b) = cluster.spawn_replacement_storage().unwrap();
        let candidates = [info_a.id, info_b.id];

        let spawn_replacer = |info: corfu::NodeInfo| {
            let client = cluster.client().unwrap();
            cluster.sim().spawn("replacer", move || replace_storage_node(&client, 0, info))
        };
        let a = spawn_replacer(info_a);
        let b = spawn_replacer(info_b);
        let results = [a.join().unwrap(), b.join().unwrap()];

        let winners = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(winners, 1, "exactly one replacement must win: {results:?}");
        let installed = cluster.layout_client().get().unwrap();
        assert_eq!(installed.epoch, 1);
        for result in &results {
            match result {
                Ok(outcome) => assert_eq!(outcome.projection, installed),
                Err(CorfuError::RaceLost { winner }) => {
                    // The loser learns exactly how far the cluster moved.
                    assert_eq!(*winner, installed.epoch);
                }
                Err(other) => panic!("loser must surface RaceLost, got {other}"),
            }
        }
        // The installed chain holds exactly one of the two candidates.
        let chain = &installed.log(0).replica_sets[0];
        assert_eq!(chain.iter().filter(|n| candidates.contains(n)).count(), 1);
        assert!(!chain.contains(&0));

        // The cluster is fully functional under the winner.
        let client = history.client("client", cluster.client().unwrap());
        client.append(Bytes::from_static(b"post-race")).unwrap();
        history.judge(&cluster);
    });
}
