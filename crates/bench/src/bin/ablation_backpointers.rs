//! Ablation: the backpointer redundancy factor K (§5).
//!
//! "A higher redundancy factor K for the backpointers translates into a
//! longer stride length and allows for faster construction of the linked
//! list." This runs on the REAL stack: one writer interleaves entries of
//! 8 streams; a cold reader then reconstructs one stream's membership, and
//! we count the storage *round trips* the backward walk needed. A stride's
//! read is a `ReadChase`: the storage node follows the stream's
//! backpointers to its own pages and returns up to 32 entries, so what K
//! buys is no longer stride length but *reach* — whether an entry's last K
//! predecessors include one on the same replica set. With 8 streams taking
//! turns over 3 sets a stream's entries are 8 offsets apart, and the first
//! same-set predecessor is the third: K < 3 walks a window per round trip
//! (N·min(sets, K)/K round trips), K ≥ 3 about N/32 per set, whatever K.
//! Pages touched stay ~N (every member entry is read once and cached for
//! playback). Both columns are reported.

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu_stream::StreamClient;
use tango_bench::FigureOutput;

/// (storage round trips, pages served) from the cluster-wide registry.
/// A plain `Read` is one round trip serving one page; a `ReadBatch` or
/// `ReadChase` is one round trip serving `batch` pages (the `reads` counter
/// counts pages, the `read_batch` histogram one record per batch).
fn storage_traffic(cluster: &LocalCluster) -> (u64, u64) {
    let pages = cluster.metrics().counter("corfu.storage.reads").get();
    let batch = cluster.metrics().histogram("corfu.storage.read_batch");
    let round_trips = pages - batch.sum() + batch.count();
    (round_trips, pages)
}

fn main() {
    let entries_per_stream = 500u64;
    let streams = 8u32;
    let mut out = FigureOutput::new(
        "ablation_backpointers",
        "k,storage_round_trips_for_cold_sync,pages_read,entries_in_stream",
    );
    for k in [1usize, 2, 4, 8, 16] {
        let config = ClusterConfig { k_backpointers: k, ..ClusterConfig::default() };
        let cluster = LocalCluster::new(config);
        let writer = StreamClient::new(cluster.client().unwrap());
        for i in 0..entries_per_stream {
            for s in 0..streams {
                writer.multiappend(&[s], Bytes::from(format!("{s}:{i}").into_bytes())).unwrap();
            }
        }
        let (trips_before, pages_before) = storage_traffic(&cluster);
        // A cold reader reconstructs stream 3's membership (no payload
        // consumption yet — just the backward walk).
        let reader = StreamClient::new(cluster.client().unwrap());
        reader.open(3);
        reader.sync(&[3]).unwrap();
        let (trips_after, pages_after) = storage_traffic(&cluster);
        let round_trips = trips_after - trips_before;
        let pages = pages_after - pages_before;
        assert_eq!(
            reader.known_offsets(3).len() as u64,
            entries_per_stream,
            "reconstruction must be complete"
        );
        out.row(format!("{k},{round_trips},{pages},{entries_per_stream}"));
    }
    out.save();
}
