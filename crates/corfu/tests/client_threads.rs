//! A client owns no thread. `read_many` keeps one `ReadBatch` in flight per
//! replica set and per `MAX_READ_BATCH` chunk by starting them all on the
//! calling thread before it waits for any, not by handing them to helpers
//! (it used to: a pool of six, spawned on the first multi-chunk read).
//!
//! One test in a binary of its own, so the process-wide thread count is its
//! own to read.

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, TcpCluster};
use corfu::{ReadOutcome, MAX_READ_BATCH};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn a_tcp_client_spawns_no_thread_whatever_it_reads() {
    // Three replica sets of two, so consecutive offsets stripe over three
    // chain tails.
    let cluster = TcpCluster::spawn(ClusterConfig::default()).unwrap();
    let client = cluster.client().unwrap();
    let n = 4 * MAX_READ_BATCH as u64;
    for i in 0..n {
        client.append(Bytes::from(format!("entry-{i}"))).unwrap();
    }
    // Every server is up and every connection dialled: what is left to
    // spawn would be the client's own.
    let before = threads();
    let batches = || client.metrics().counter("corfu.client.read_batches").get();

    let all_data = |outcomes: Vec<ReadOutcome>| {
        outcomes.iter().all(|outcome| matches!(outcome, ReadOutcome::Data(_)))
    };
    // Multi-set: three offsets, three tails, three requests in flight.
    assert!(all_data(client.read_many(&[0, 1, 2]).unwrap()));
    assert_eq!(batches(), 3);
    // More than MAX_READ_BATCH offsets of one set: two chunks, one socket.
    let one_set: Vec<u64> = (0..n).step_by(3).collect();
    assert!(all_data(client.wait_read_many(&one_set).unwrap()));
    assert_eq!(batches(), 3 + 2);
    // Both at once: two chunks to each of the three tails.
    let everything: Vec<u64> = (0..n).collect();
    assert!(all_data(client.read_many(&everything).unwrap()));
    assert_eq!(batches(), 3 + 2 + 6);

    assert_eq!(threads(), before, "the client spawned threads of its own");
}
