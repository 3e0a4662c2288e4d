//! Figure 10: layered partitions — linear scaling with partitioned
//! objects until the log saturates (left), cross-partition transactions
//! vs the 2PL baseline (middle), and transactions on a shared object
//! (right).

use tango_bench::figures::{
    fig10_left, fig10_middle_2pl, fig10_middle_tango, fig10_right, Interval,
};
use tango_bench::FigureOutput;

fn run_left(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new("fig10_left", "clients,ks_txes_18server,ks_txes_6server");
    let clients: Vec<usize> =
        if quick { vec![2, 8, 18] } else { vec![2, 4, 6, 8, 10, 12, 14, 16, 18] };
    for &n in &clients {
        let large = fig10_left(n, 9, 42, interval); // 18-server log
        let small = fig10_left(n, 3, 42, interval); // 6-server log
        out.row(format!("{n},{large:.1},{small:.1}"));
    }
    out.save();
}

fn run_middle(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new("fig10_middle", "cross_pct,ks_txes_tango,ks_txes_2pl");
    let pcts: Vec<f64> = if quick {
        vec![0.0, 16.0, 100.0]
    } else {
        vec![0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0]
    };
    let clients = 18;
    for &pct in &pcts {
        let tango = fig10_middle_tango(clients, pct, 42, interval);
        let twopl = fig10_middle_2pl(clients, pct, 42, interval);
        out.row(format!("{pct},{tango:.1},{twopl:.1}"));
    }
    out.save();
}

fn run_right(quick: bool, interval: Interval) {
    let mut out = FigureOutput::new("fig10_right", "common_pct,ks_txes_per_sec");
    let pcts: Vec<f64> = if quick {
        vec![0.0, 1.0, 16.0, 100.0]
    } else {
        vec![0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0]
    };
    for &pct in &pcts {
        let tput = fig10_right(4, pct, 42, interval);
        out.row(format!("{pct},{tput:.1}"));
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
