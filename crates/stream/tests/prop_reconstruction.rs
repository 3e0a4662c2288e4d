//! Property test: for arbitrary interleavings of multi-stream appends and
//! crashed tokens (holes), every stream's reconstructed playback equals the
//! ground-truth subsequence of the log.

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu_stream::StreamClient;
use proptest::prelude::*;

/// One scripted log event.
#[derive(Debug, Clone)]
enum Event {
    /// Append to this non-empty set of streams (ids 0..4).
    Append(Vec<u32>),
    /// Reserve a token for these streams and crash (hole, later filled).
    CrashedToken(Vec<u32>),
}

fn streams_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0u32..4, 1..3).prop_map(|s| s.into_iter().collect())
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => streams_strategy().prop_map(Event::Append),
        1 => streams_strategy().prop_map(Event::CrashedToken),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn playback_matches_ground_truth(
        events in proptest::collection::vec(event_strategy(), 1..60),
        sync_every in 1usize..20,
    ) {
        let mut config = ClusterConfig::tiny();
        // Keep hole-filling fast so crashed tokens do not slow the test.
        config.client_options.hole_fill_timeout = std::time::Duration::from_millis(1);
        let cluster = LocalCluster::new(config);
        let writer = StreamClient::new(cluster.client().unwrap());
        let raw = cluster.client().unwrap();

        // Ground truth: stream -> ordered (offset, payload).
        let mut truth: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 4];
        for (i, event) in events.iter().enumerate() {
            match event {
                Event::Append(streams) => {
                    let payload = Bytes::from(format!("e{i}").into_bytes());
                    let off = writer.multiappend(streams, payload.clone()).unwrap();
                    for &s in streams {
                        truth[s as usize].push((off, payload.clone()));
                    }
                }
                Event::CrashedToken(streams) => {
                    let tok = raw.token(streams).unwrap();
                    raw.fill(tok.offset).unwrap();
                }
            }
        }

        // A fresh reader reconstructs each stream, syncing periodically to
        // exercise both short (within-K) and long (striding) catch-ups.
        let reader = StreamClient::new(cluster.client().unwrap());
        for s in 0..4u32 {
            reader.open(s);
        }
        let mut played: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 4];
        let mut synced = 0usize;
        loop {
            reader.sync(&[0, 1, 2, 3]).unwrap();
            for s in 0..4u32 {
                while let Some((off, entry)) = reader.readnext(s).unwrap() {
                    played[s as usize].push((off, Bytes::copy_from_slice(entry.payload())));
                }
            }
            synced += sync_every;
            if synced >= events.len() {
                break;
            }
        }
        for s in 0..4 {
            prop_assert_eq!(&played[s], &truth[s], "stream {} diverged", s);
        }
    }
}
