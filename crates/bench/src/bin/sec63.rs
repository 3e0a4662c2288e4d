//! §6.3 "Other Data Structures", treated as a table:
//!
//! * TangoZK: ~200K txes/sec across 18 independent namespaces; ~20K
//!   txes/sec when every transaction atomically moves a file between
//!   namespaces (a capability ZooKeeper itself does not have).
//! * TangoBK: ~200K 4KB ledger writes/sec on the 18-node log.
//! * Code size: the paper's TangoZK is <1K lines vs >13K for ZooKeeper;
//!   TangoBK ~300 lines. We report our implementations' line counts.
//!
//! The performance rows run the real stack on the simulated testbed: ZK
//! transactions have the same log footprint as TangoMap transactions
//! (commit records on one or two streams), and ledger writes are plain
//! entry appends.

use tango_bench::figures::{fig10_left, fig10_middle_tango, sec63_bk, Interval};
use tango_bench::FigureOutput;

fn loc(source: &str) -> usize {
    source
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

fn main() {
    let interval = Interval::for_main();
    let mut out = FigureOutput::new("sec63_other_structures", "metric,value");

    // TangoZK over 18 independent namespaces (same log footprint as the
    // partitioned TangoMap experiment).
    let zk_independent = fig10_left(18, 9, 42, interval);
    out.row(format!("tangozk_independent_ks_txes,{zk_independent:.1}"));

    // Every transaction moves a file across namespaces: a remote-write
    // transaction with a decision record.
    let zk_moves = fig10_middle_tango(18, 100.0, 42, interval);
    out.row(format!("tangozk_crossnamespace_moves_ks_txes,{zk_moves:.1}"));

    // TangoBK: 4KB ledger appends from 18 writers.
    let bk_writes = sec63_bk(18, 42, interval);
    out.row(format!("tangobk_ks_4kb_writes,{bk_writes:.1}"));

    // Code-size comparison (non-blank, non-comment lines).
    let zk_lines = loc(include_str!("../../../objects/src/zk.rs"));
    let bk_lines = loc(include_str!("../../../objects/src/bk.rs"));
    out.row(format!("tangozk_loc,{zk_lines}"));
    out.row(format!("tangobk_loc,{bk_lines}"));
    out.row("zookeeper_loc_paper_reference,13000".to_owned());
    out.save();
}
