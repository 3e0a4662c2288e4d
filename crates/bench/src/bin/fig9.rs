//! Figure 9: transaction throughput and goodput on a single fully
//! replicated TangoMap, varying the number of nodes, the key count, and
//! the key distribution (uniform vs YCSB-A zipf).
//!
//! Paper: goodput is low with tens/hundreds of keys but reaches 99%
//! (uniform) / 70% (zipf) of throughput at 10K+ keys; throughput plateaus
//! at three nodes — the playback bottleneck.

use tango_bench::figures::{fig9, Interval};
use tango_bench::FigureOutput;

fn main() {
    let quick = tango_bench::quick();
    let interval = Interval::for_main();
    let mut out = FigureOutput::new(
        "fig9_tx_contention",
        "dist,total_keys,nodes,ks_txes_per_sec,ks_goodput_per_sec",
    );
    let key_counts: Vec<u64> = if quick {
        vec![100, 10_000, 1_000_000]
    } else {
        vec![10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    };
    let node_counts: Vec<usize> = if quick { vec![2, 4, 8] } else { vec![2, 3, 4, 5, 6, 7, 8] };
    for &zipf in &[true, false] {
        let dist = if zipf { "zipf" } else { "uniform" };
        for &keys in &key_counts {
            for &nodes in &node_counts {
                let (tput, goodput) = fig9(nodes, keys, zipf, 42, interval);
                out.row(format!("{dist},{keys},{nodes},{tput:.1},{goodput:.1}"));
            }
        }
    }
    out.save();
}
