//! Order statistics the ledger reports: nearest-rank percentiles, blocks of
//! consecutive operations and the best of them (what makes a rate repeat on a
//! shared box), and the quartile spread the driver uses to decide whether a
//! metric is steady.

/// One finished operation: when it completed, how long it took, and which
/// of the workload's op kinds it was (index into the workload's kind list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    pub end_ns: u64,
    pub lat_ns: u64,
    pub kind: u8,
}

/// Nearest-rank percentile of an ascending slice; `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of `values`: the largest when higher is better, the smallest
/// when lower is. Interference from the rest of the box only ever slows a
/// block down, for seconds at a time, so the best block of a run is the
/// steadiest estimate of what the code itself costs; anything the program
/// does at least once per block still counts in full.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// A point between two operations of a round's timed phase: how many had
/// completed, the time, and the process CPU time consumed so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    pub ops: usize,
    pub at_ns: u64,
    pub cpu_ns: u64,
}

/// Rate, latency and CPU cost of the operations between two marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub cpu_us_per_op: f64,
}

/// One block per pair of neighbouring `marks` over `ops` in completion
/// order (one load thread: the order they were pushed in). The blocks tile
/// the interval from the first mark to the last with no gaps; operations
/// after the last mark belong to no block.
pub fn blocks(ops: &[OpSample], marks: &[Mark]) -> Vec<Block> {
    marks
        .windows(2)
        .filter(|w| w[1].ops > w[0].ops)
        .map(|w| {
            let (from, to) = (w[0], w[1]);
            let count = (to.ops - from.ops) as f64;
            let mut lat: Vec<f64> =
                ops[from.ops..to.ops].iter().map(|o| o.lat_ns as f64 / 1e3).collect();
            sort(&mut lat);
            let secs = to.at_ns.saturating_sub(from.at_ns).max(1) as f64 / 1e9;
            Block {
                ops_per_s: count / secs,
                p50_us: percentile(&lat, 50.0),
                p95_us: percentile(&lat, 95.0),
                cpu_us_per_op: to.cpu_ns.saturating_sub(from.cpu_ns) as f64 / 1e3 / count,
            }
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the driver's steadiness
/// measure for a metric over repeated runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// (max − min) / median: the spread `ledger repeat` prints for small sets.
pub fn range_spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_picks_the_side_that_is_better() {
        assert_eq!(best(&[5.0, 1.0, 3.0], true), 5.0);
        assert_eq!(best(&[5.0, 1.0, 3.0], false), 1.0);
        assert_eq!(best(&[], true), 0.0);
    }

    #[test]
    fn best_block_ignores_a_stall() {
        // 40 ops, one every 1 ms at 0.5 ms of CPU each, except a 100 ms stall
        // before op 20; a mark every 10 ops.
        let (mut ops, mut marks) = (Vec::new(), vec![Mark { ops: 0, at_ns: 0, cpu_ns: 7 }]);
        let mut t = 0u64;
        for i in 0..40u64 {
            t += if i == 20 { 100_000_000 } else { 1_000_000 };
            ops.push(OpSample { end_ns: t, lat_ns: 1_000_000, kind: 0 });
            if (i + 1) % 10 == 0 {
                marks.push(Mark { ops: ops.len(), at_ns: t, cpu_ns: 7 + (i + 1) * 500_000 });
            }
        }
        let b = blocks(&ops, &marks);
        assert_eq!(b.len(), 4);
        let rates: Vec<f64> = b.iter().map(|b| b.ops_per_s).collect();
        // The mean rate would have been dragged to ~288/s by the stall.
        assert!(rates[2] < 100.0);
        assert!((median(&rates) - 1000.0).abs() < 1e-6, "{rates:?}");
        assert!((best(&rates, true) - 1000.0).abs() < 1e-6);
        assert_eq!((b[0].p50_us, b[0].p95_us, b[0].cpu_us_per_op), (1000.0, 1000.0, 500.0));
    }

    #[test]
    fn blocks_tile_the_marks_and_drop_the_remainder() {
        let ops: Vec<OpSample> =
            (1..=23u64).map(|i| OpSample { end_ns: i * 10, lat_ns: i, kind: 0 }).collect();
        let marks: Vec<Mark> =
            (0..=2).map(|i| Mark { ops: i * 10, at_ns: i as u64 * 100, cpu_ns: 0 }).collect();
        let b = blocks(&ops, &marks);
        // 10 ops per 100 ns; ops 21..23 belong to no block.
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|b| (b.ops_per_s - 1e8).abs() < 1.0));
        assert_eq!(b[1].p50_us, 0.015);
        assert!(blocks(&ops, &marks[..1]).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(range_spread(&[9.0, 10.0, 11.0]), 0.2);
    }
}
