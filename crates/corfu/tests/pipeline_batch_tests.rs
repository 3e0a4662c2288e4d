//! Sequencer token batching (§5) and pipelined-append integration tests.
//!
//! Batching is opt-in via [`ClientOptions::batched`] (batch = 4): one
//! `NextBatch` round trip reserves four consecutive tokens, and the client
//! hands spares to subsequent `token()` calls for the same stream set. These
//! tests pin down the amortization ratio, offset uniqueness under concurrent
//! batched appends over real TCP, and seal/reconfiguration behaviour while
//! batched appends are in flight.

use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, TcpCluster};
use corfu::{reconfig, ClientOptions};

#[test]
fn batched_appends_amortize_sequencer_round_trips() {
    // 40 appends with batch = 4 should cost ~10 sequencer round trips
    // instead of 40: one NextBatch per four tokens, the rest pool hits.
    let mut config = ClusterConfig::default();
    config.client_options.seq_batch = 4;
    let cluster = LocalCluster::new(config);
    let client = cluster.client().unwrap();

    const APPENDS: u64 = 40;
    for i in 0..APPENDS {
        client.append(Bytes::from(format!("batched-{i}"))).unwrap();
    }

    let snap = cluster.metrics().snapshot();
    assert_eq!(snap.counter("corfu.seq.tokens_granted"), APPENDS);
    assert_eq!(
        snap.counter("corfu.seq.batches_granted"),
        APPENDS / 4,
        "each NextBatch must cover exactly seq_batch appends"
    );
    assert_eq!(
        snap.counter("corfu.client.token_batches"),
        APPENDS / 4,
        "client round trips must be amortized 4x"
    );
    assert_eq!(
        snap.counter("corfu.client.token_pool_hits"),
        APPENDS - APPENDS / 4,
        "three of every four tokens must come from the pool"
    );

    // Every granted token was used: the log is dense, no holes.
    assert_eq!(client.check_tail_fast().unwrap(), APPENDS);
    for i in 0..APPENDS {
        match client.read(i).unwrap() {
            corfu::ReadOutcome::Data(_) => {}
            other => panic!("offset {i} should hold data, got {other:?}"),
        }
    }
}

#[test]
fn unbatched_default_is_unchanged() {
    // seq_batch defaults to 1: every token is its own round trip and the
    // batch path stays cold. Guards against accidentally flipping the
    // default, which would leave holes for non-batched workloads.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..10u64 {
        client.append(Bytes::from(format!("plain-{i}"))).unwrap();
    }
    let snap = cluster.metrics().snapshot();
    assert_eq!(snap.counter("corfu.seq.tokens_granted"), 10);
    assert_eq!(snap.counter("corfu.seq.batches_granted"), 0);
    assert_eq!(snap.counter("corfu.client.token_batches"), 0);
    assert_eq!(snap.counter("corfu.client.token_pool_hits"), 0);
}

#[test]
fn concurrent_batched_appends_over_tcp_get_unique_offsets() {
    // Several threads share one batched client over real TCP: the token
    // pool must never hand the same offset twice, and the sequencer round
    // trips must still be amortized under contention.
    let cluster = TcpCluster::spawn(ClusterConfig::default()).unwrap();
    let client = Arc::new(cluster.client_with_options(ClientOptions::batched()).unwrap());

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
    let appends = THREADS * PER_THREAD;
    let batches = snap.counter("corfu.client.token_batches");
    assert!(
        batches <= appends / 2,
        "expected >=2x amortization of sequencer round trips, \
         got {batches} batches for {appends} appends"
    );
    assert_eq!(
        snap.counter("corfu.client.token_batches") * 4,
        snap.counter("corfu.seq.tokens_granted"),
        "every batch reserves exactly 4 tokens"
    );

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
fn seal_during_pipelined_batched_appends() {
    // Replace the sequencer while batched appenders are mid-flight. Sealing
    // bumps the epoch, which must invalidate every pooled token: stale
    // tokens would write into a sealed epoch or duplicate offsets handed
    // out by the replacement. Appenders ride through via the client's
    // seal-retry loop; afterwards each appended offset holds exactly the
    // payload its appender wrote.
    let mut config = ClusterConfig::default();
    config.client_options.seq_batch = 4;
    let cluster = Arc::new(LocalCluster::new(config));
    let k = cluster.config().k_backpointers;

    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 30;
    // Appenders warm their token pools, then rendezvous with the
    // reconfigurer so the seal lands while the remaining appends (and
    // pooled epoch-0 tokens) are in flight.
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
        assert_ne!(pair[0].0, pair[1].0, "stale pooled token reused an offset");
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

    // The cluster stays fully writable in the new epoch, batching intact.
    let client = cluster.client().unwrap();
    let before = cluster.metrics().snapshot().counter("corfu.seq.batches_granted");
    for i in 0..8u64 {
        client.append(Bytes::from(format!("after-seal-{i}"))).unwrap();
    }
    let after = cluster.metrics().snapshot().counter("corfu.seq.batches_granted");
    assert!(after > before, "batching must keep working after reconfiguration");
}
