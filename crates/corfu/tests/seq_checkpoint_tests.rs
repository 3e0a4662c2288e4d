//! Tests for sequencer-state checkpoints: recovery after failover scans
//! only the log suffix beyond the newest checkpoint, and recovers
//! identical state.

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::reconfig;

fn payload(i: u64) -> Bytes {
    Bytes::from(format!("e{i}").into_bytes())
}

#[test]
fn checkpoint_bounds_recovery_scan() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..200u32 {
        client.append_streams(&[i % 5], payload(i as u64)).unwrap();
    }
    // Persist the sequencer state, then write a short suffix.
    reconfig::checkpoint_sequencer_state(&client).unwrap();
    for i in 200..220u32 {
        client.append_streams(&[i % 5], payload(i as u64)).unwrap();
    }

    cluster.kill_sequencer();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = reconfig::replace_sequencer(&client, info, 4).unwrap();
    assert_eq!(outcome.recovered_tail, 221); // 220 entries + 1 checkpoint
                                             // The scan stopped at the checkpoint: far fewer than 221 entries read.
    assert!(
        outcome.entries_scanned <= 25,
        "scanned {} entries despite the checkpoint",
        outcome.entries_scanned
    );

    // Recovered backpointers are correct: the checkpoint entry at offset
    // 200 shifts the suffix, so stream 2's most recent entries sit at
    // offsets 218, 213, 208, 203.
    let (off, entry) = client.append_streams(&[2], payload(999)).unwrap();
    assert_eq!(off, 221);
    assert_eq!(entry.header_for(2).unwrap().backpointers, vec![218, 213, 208, 203]);
}

#[test]
fn recovery_without_checkpoint_still_exact() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    for i in 0..50u32 {
        client.append_streams(&[i % 3], payload(i as u64)).unwrap();
    }
    cluster.kill_sequencer();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = reconfig::replace_sequencer(&client, info, 4).unwrap();
    // Full scan.
    assert_eq!(outcome.entries_scanned, 50);
    let (_, entry) = client.append_streams(&[0], payload(1)).unwrap();
    assert_eq!(entry.header_for(0).unwrap().backpointers, vec![48, 45, 42, 39]);
}

#[test]
fn checkpoint_state_covers_streams_with_no_suffix_entries() {
    // A stream whose last activity predates the checkpoint must still be
    // recoverable from the checkpoint alone.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    client.append_streams(&[7], payload(0)).unwrap(); // offset 0
    client.append_streams(&[7], payload(1)).unwrap(); // offset 1
    reconfig::checkpoint_sequencer_state(&client).unwrap(); // offset 2
    for i in 0..30u64 {
        client.append_streams(&[8], payload(i)).unwrap(); // 3..33
    }
    cluster.kill_sequencer();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let outcome = reconfig::replace_sequencer(&client, info, 4).unwrap();
    assert!(outcome.entries_scanned <= 32);
    // Stream 7's backpointers come from the checkpoint.
    let (_, entry) = client.append_streams(&[7], payload(99)).unwrap();
    assert_eq!(entry.header_for(7).unwrap().backpointers, vec![1, 0]);
}
