//! Bounded-occupancy churn over tiered storage, end to end.
//!
//! A Tango runtime hammers a counter over a real TCP cluster whose storage
//! nodes run on `TieredStore` backends with background compactors. Two
//! phases, fresh cluster each:
//!
//! - `baseline`: append-only churn, no reclamation — occupancy grows
//!   linearly with the log.
//! - `trim`: the same churn, but the runtime's checkpoint-driven trim
//!   driver (`checkpoint_and_trim`) runs after every round — occupancy
//!   must stay flat at roughly one round's worth of pages while the
//!   workload writes an order of magnitude more than the hot set holds.
//!
//! The bench fails loudly if trim-phase occupancy is unbounded or if the
//! reclamation loop costs more than a fraction of baseline throughput.
//! Honors `TANGO_QUICK=1` (fewer entries) for CI smoke runs.

use std::path::Path;
use std::time::Instant;

use corfu::cluster::{ClusterConfig, TcpCluster};
use tango::TangoRuntime;
use tango_bench::FigureOutput;
use tango_objects::TangoCounter;

/// Cold-tier segment size and per-node hot (RAM) page budget.
const PAGES_PER_SEGMENT: u64 = 64;
const HOT_CAPACITY: usize = 64;
/// Storage geometry: 2 sets x 2 replicas = 4 tiered nodes.
const NUM_SETS: usize = 2;
const REPLICATION: usize = 2;

fn spawn_cluster(root: &Path) -> TcpCluster {
    let config =
        ClusterConfig { num_sets: NUM_SETS, replication: REPLICATION, ..Default::default() }
            .with_tiered_storage(root, PAGES_PER_SEGMENT, HOT_CAPACITY);
    TcpCluster::spawn(config).unwrap()
}

/// Max live pages and min trim horizon across the storage nodes, plus the
/// total pages reclaimed so far.
fn storage_sample(cluster: &TcpCluster) -> (u64, u64, u64) {
    let mut occupancy = 0u64;
    let mut horizon = u64::MAX;
    let mut reclaimed = 0u64;
    for id in 0..(NUM_SETS * REPLICATION) as u32 {
        if let Some(server) = cluster.storage_server(id) {
            occupancy = occupancy.max(server.occupancy());
            horizon = horizon.min(server.trim_horizon());
            reclaimed += server.tier_stats().reclaimed_pages;
        }
    }
    (occupancy, if horizon == u64::MAX { 0 } else { horizon }, reclaimed)
}

struct PhaseResult {
    appends_per_sec: f64,
    /// Per-round (round index, appended so far, occupancy, horizon,
    /// reclaimed) samples.
    samples: Vec<(u64, u64, u64, u64, u64)>,
}

fn run_phase(root: &Path, entries: u64, round: u64, trim: bool) -> PhaseResult {
    let cluster = spawn_cluster(root);
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let counter = TangoCounter::open(&rt, "churn").unwrap();
    let rounds = entries / round;
    let mut samples = Vec::new();
    let start = Instant::now();
    for r in 0..rounds {
        for _ in 0..round {
            counter.add(1).unwrap();
        }
        if trim {
            rt.checkpoint_and_trim().unwrap();
        }
        let (occupancy, horizon, reclaimed) = storage_sample(&cluster);
        samples.push(((r + 1), (r + 1) * round, occupancy, horizon, reclaimed));
    }
    let secs = start.elapsed().as_secs_f64();
    drop(counter);
    drop(rt);
    PhaseResult { appends_per_sec: entries as f64 / secs, samples }
}

fn main() {
    let quick = tango_bench::quick();
    let entries: u64 = if quick { 2_000 } else { 10_000 };
    let round: u64 = if quick { 200 } else { 500 };
    let base = std::env::temp_dir().join(format!("tango-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // The workload must dwarf the hot set for "bounded" to mean anything:
    // each node sees ~entries/NUM_SETS addresses against HOT_CAPACITY hot
    // pages.
    let per_node = entries / NUM_SETS as u64;
    assert!(
        per_node >= 10 * HOT_CAPACITY as u64,
        "churn ({per_node}/node) must cover >=10x the hot set ({HOT_CAPACITY})"
    );

    let mut out = FigureOutput::new(
        "churn",
        "phase,round,appended,occupancy_max,trim_horizon_min,reclaimed_pages,appends_per_sec",
    );

    let baseline = run_phase(&base.join("baseline"), entries, round, false);
    for &(r, appended, occ, horizon, reclaimed) in &baseline.samples {
        out.row(format!(
            "baseline,{r},{appended},{occ},{horizon},{reclaimed},{:.0}",
            baseline.appends_per_sec
        ));
    }
    let trimmed = run_phase(&base.join("trim"), entries, round, true);
    for &(r, appended, occ, horizon, reclaimed) in &trimmed.samples {
        out.row(format!(
            "trim,{r},{appended},{occ},{horizon},{reclaimed},{:.0}",
            trimmed.appends_per_sec
        ));
    }
    out.save();
    let _ = std::fs::remove_dir_all(&base);

    // Baseline occupancy grows with the log; the trim phase must not.
    let last = |p: &PhaseResult| p.samples.last().unwrap().2;
    let peak = |p: &PhaseResult, range: std::ops::Range<usize>| {
        p.samples[range].iter().map(|s| s.2).max().unwrap()
    };
    let n = trimmed.samples.len();
    let early_peak = peak(&trimmed, 0..n / 2);
    let late_peak = peak(&trimmed, n / 2..n);
    eprintln!(
        "churn: baseline occupancy {} pages, trim occupancy early/late peak {}/{} pages",
        last(&baseline),
        early_peak,
        late_peak
    );
    // Flat within a bound: the steady state holds about one round of
    // entries per set plus checkpoint records, and never drifts upward
    // across the second half of a >=10x-hot-set run.
    let bound = 3 * round / NUM_SETS as u64 + 2 * HOT_CAPACITY as u64;
    assert!(
        late_peak <= bound,
        "trim-phase occupancy {late_peak} exceeds bound {bound}: reclamation is not keeping up"
    );
    assert!(
        late_peak <= early_peak + round / NUM_SETS as u64,
        "trim-phase occupancy drifts upward ({early_peak} -> {late_peak})"
    );
    assert!(
        last(&baseline) > 2 * bound,
        "baseline too small to demonstrate growth ({} pages)",
        last(&baseline)
    );

    let ratio = trimmed.appends_per_sec / baseline.appends_per_sec;
    eprintln!(
        "churn: baseline {:.0}/s, with checkpoint+trim {:.0}/s ({:.1}% of baseline)",
        baseline.appends_per_sec,
        trimmed.appends_per_sec,
        100.0 * ratio
    );
    assert!(ratio >= 0.8, "reclamation cost too high: {:.1}% of baseline", 100.0 * ratio);

    // Keep the runtime driver honest about what it reclaimed.
    let (_, horizon, reclaimed) = trimmed.samples.last().copied().map(|s| (s.1, s.3, s.4)).unwrap();
    assert!(horizon > 0, "trim horizon never advanced");
    assert!(reclaimed > 0, "no whole segments were ever reclaimed");
}
