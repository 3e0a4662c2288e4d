//! Concurrent-append integration tests: several threads appending through
//! one client (or one cluster) at once. They pin offset uniqueness under
//! concurrent appends over real TCP, and seal/reconfiguration behaviour
//! while appends are in flight.

use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, TcpCluster};
use corfu::reconfig;

#[test]
fn concurrent_appends_over_tcp_get_unique_offsets() {
    // Several threads share one client over real TCP: no offset may be
    // handed out twice, and every grant is one sequencer round trip.
    let cluster = TcpCluster::spawn(ClusterConfig::default()).unwrap();
    let client = Arc::new(cluster.client().unwrap());

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 12;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = Arc::clone(&client);
            thread::spawn(move || {
                let mut offsets = Vec::new();
                for i in 0..PER_THREAD {
                    let off = client.append(Bytes::from(format!("tcp-{t}-{i}"))).unwrap();
                    offsets.push(off);
                }
                offsets
            })
        })
        .collect();
    let mut all: Vec<u64> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "duplicate offsets handed out");
    assert_eq!(all.len() as u64, THREADS * PER_THREAD);

    // Client-side counters live in the cluster handle's registry; the
    // sequencer's live in its own node registry, scraped over HTTP and
    // merged — exactly how a real deployment would check this invariant.
    let snap = cluster.cluster_snapshot().merged();
    assert_eq!(
        snap.counter("corfu.client.tokens"),
        snap.counter("corfu.seq.tokens_granted"),
        "every token the sequencer granted reached an appender"
    );
    assert_eq!(snap.counter("corfu.seq.tokens_granted"), THREADS * PER_THREAD, "no token lost");

    // All appended entries are readable through a second, fresh client.
    let reader = cluster.client().unwrap();
    for &off in &all {
        match reader.read(off).unwrap() {
            corfu::ReadOutcome::Data(_) => {}
            other => panic!("offset {off} should hold data, got {other:?}"),
        }
    }
}

#[test]
fn seal_during_concurrent_appends() {
    // Replace the sequencer while appenders are mid-flight. Sealing bumps
    // the epoch: a token granted before it must not write into the sealed
    // epoch or collide with an offset the replacement hands out. Appenders
    // ride through via the client's seal-retry loop; afterwards each
    // appended offset holds exactly the payload its appender wrote.
    let cluster = Arc::new(LocalCluster::new(ClusterConfig::default()));
    let k = cluster.config().k_backpointers;

    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 30;
    // Appenders get going, then rendezvous with the reconfigurer so the
    // seal lands while the remaining appends are in flight.
    let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = cluster.client().unwrap();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut written = Vec::new();
                for i in 0..PER_THREAD {
                    if i == 5 {
                        barrier.wait();
                    }
                    let payload = format!("sealed-{t}-{i}");
                    let off = client.append(Bytes::from(payload.clone())).unwrap();
                    written.push((off, payload));
                }
                written
            })
        })
        .collect();

    // Yank the sequencer out from under the appenders mid-stream.
    barrier.wait();
    let admin = cluster.client().unwrap();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = reconfig::replace_sequencer(&admin, info, k).unwrap();
    assert_eq!(outcome.projection.epoch, 1);

    let mut all: Vec<(u64, String)> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
    assert_eq!(all.len() as u64, THREADS * PER_THREAD);
    all.sort_unstable();
    for pair in all.windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "a stale token reused an offset");
    }

    // Every append that reported success is durable and holds the payload
    // its appender wrote — across the epoch boundary.
    let reader = cluster.client().unwrap();
    for (off, payload) in &all {
        let entry = reader.read_entry(*off).unwrap();
        assert_eq!(
            entry.payload,
            Bytes::from(payload.clone()),
            "offset {off} holds someone else's data"
        );
    }

    // The cluster stays fully writable in the new epoch.
    let client = cluster.client().unwrap();
    for i in 0..8u64 {
        client.append(Bytes::from(format!("after-seal-{i}"))).unwrap();
    }
}
