//! Figure 8: single-object linearizability — latency/throughput for mixed
//! workloads on one view (left), a primary/backup pair (middle), and read
//! elasticity with N views over two log sizes (right).

use tango_bench::figures::{fig8_left, fig8_middle, fig8_right, Interval};
use tango_bench::FigureOutput;

fn run_left(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new(
        "fig8_left",
        "write_ratio,window,ks_ops_per_sec,mean_latency_ms,p99_latency_ms",
    );
    let ratios = [1.0, 0.9, 0.5, 0.1, 0.0];
    let windows: Vec<usize> = if quick { vec![8, 64, 256] } else { vec![8, 16, 32, 64, 128, 256] };
    for &ratio in &ratios {
        for &window in &windows {
            let (ops, mean_ms, p99_ms) = fig8_left(ratio, window, 42, interval);
            out.row(format!("{ratio},{window},{ops:.1},{mean_ms:.3},{p99_ms:.3}"));
        }
    }
    out.save();
}

fn run_middle(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new(
        "fig8_middle",
        "target_write_ops,ks_reads_per_sec,ks_writes_per_sec,read_latency_ms",
    );
    let targets: Vec<f64> = if quick {
        vec![0.0, 20_000.0, 40_000.0]
    } else {
        vec![0.0, 5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0, 35_000.0, 40_000.0]
    };
    for &t in &targets {
        let (reads, writes, lat) = fig8_middle(t, 42, interval);
        out.row(format!("{t},{reads:.1},{writes:.1},{lat:.3}"));
    }
    out.save();
}

fn run_right(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new("fig8_right", "readers,ks_reads_18server,ks_reads_2server");
    let readers: Vec<usize> =
        if quick { vec![2, 8, 18] } else { vec![2, 4, 6, 8, 10, 12, 14, 16, 18] };
    for &n in &readers {
        let large = fig8_right(n, 9, 42, interval); // 9x2 = 18-server log
        let small = fig8_right(n, 1, 42, interval); // 1x2 = 2-server log
        out.row(format!("{n},{large:.1},{small:.1}"));
    }
    out.save();
}

fn main() {
    let quick = tango_bench::quick();
    let interval = Interval::for_main();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match which.as_str() {
        "left" => run_left(quick, interval),
        "middle" => run_middle(quick, interval),
        "right" => run_right(quick, interval),
        _ => {
            run_left(quick, interval);
            run_middle(quick, interval);
            run_right(quick, interval);
        }
    }
}
