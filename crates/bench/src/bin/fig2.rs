//! Figure 2: sequencer throughput vs number of clients.
//!
//! Paper: "as we add clients to the system, sequencer throughput increases
//! until it plateaus at around 570K requests/sec". (Its batched series is
//! gone: the sequencer grants one token a request.) The series with more
//! than one log shards the stream namespace, one sequencer a log: the
//! plateau rises with the number of logs.

use tango_bench::figures::{fig2_sequencer, Interval};
use tango_bench::FigureOutput;

fn main() {
    let interval = Interval::for_main();
    let mut out = FigureOutput::new("fig2_sequencer", "logs,clients,ks_requests_per_sec");
    let (log_counts, client_counts): (&[usize], Vec<usize>) = if tango_bench::quick() {
        (&[1, 2], vec![1, 4, 16, 36])
    } else {
        (&[1, 2, 4], vec![1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40])
    };
    for &logs in log_counts {
        for &clients in &client_counts {
            let tokens = fig2_sequencer(clients, 8, logs, 42, interval);
            out.row(format!("{logs},{clients},{tokens:.1}"));
        }
    }
    out.save();
}
