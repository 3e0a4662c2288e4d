//! Figure 2: sequencer throughput vs number of clients.
//!
//! Paper: "as we add clients to the system, sequencer throughput increases
//! until it plateaus at around 570K requests/sec". (Its batched series is
//! gone: the sequencer grants one token a request.)

use tango_bench::figures::{fig2_sequencer, Interval};
use tango_bench::FigureOutput;

fn main() {
    let interval = Interval::for_main();
    let mut out = FigureOutput::new("fig2_sequencer", "clients,ks_requests_per_sec");
    let client_counts: Vec<usize> = if tango_bench::quick() {
        vec![1, 4, 16, 36]
    } else {
        vec![1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40]
    };
    for &clients in &client_counts {
        let tokens = fig2_sequencer(clients, 8, 42, interval);
        out.row(format!("{clients},{tokens:.1}"));
    }
    out.save();
}
