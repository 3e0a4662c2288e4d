//! Sanity checks on the figures — the real stack on the simulated
//! testbed: determinism, and the coarse shapes the paper reports
//! (plateaus, saturation points, goodput ordering). Each point measures
//! [`INTERVAL`]; the full sweeps run from the `tango-bench` binaries.

use std::time::Duration;

use tango_bench::figures::{self as experiments, Interval};

/// Every asserted point: a short warmup, then a measured interval that
/// still completes over a thousand operations at the slowest point.
const INTERVAL: Interval =
    Interval { warmup: Duration::from_millis(50), measure: Duration::from_millis(100) };

#[test]
fn fig2_deterministic_and_plateaus() {
    let a = experiments::fig2_sequencer(4, 8, 1, INTERVAL);
    let b = experiments::fig2_sequencer(4, 8, 1, INTERVAL);
    assert_eq!(a, b, "same seed must reproduce exactly");

    let few = experiments::fig2_sequencer(2, 8, 1, INTERVAL);
    let mid = experiments::fig2_sequencer(16, 8, 1, INTERVAL);
    let many = experiments::fig2_sequencer(36, 8, 1, INTERVAL);
    // Throughput grows with clients, then plateaus near 1/service_time
    // (~571K/s).
    assert!(few < mid, "few={few} mid={mid}");
    assert!(many > 450.0 && many < 620.0, "plateau at {many}K/s");
}

#[test]
fn fig8_left_read_write_asymmetry() {
    let (read_tput, read_lat, _) = experiments::fig8_left(0.0, 64, 7, INTERVAL);
    let (write_tput, write_lat, _) = experiments::fig8_left(1.0, 64, 7, INTERVAL);
    // Reads (sequencer checks) are much faster than writes (chain appends).
    assert!(read_tput > write_tput, "reads {read_tput}K < writes {write_tput}K");
    assert!(read_lat < write_lat, "read lat {read_lat}ms, write lat {write_lat}ms");
    assert!(read_tput > 60.0, "read throughput too low: {read_tput}K/s");
    assert!(write_tput > 10.0, "write throughput too low: {write_tput}K/s");
}

#[test]
fn fig8_middle_total_is_stable() {
    let (r0, _, lat0) = experiments::fig8_middle(0.0, 3, INTERVAL);
    let (r40, w40, lat40) = experiments::fig8_middle(40_000.0, 3, INTERVAL);
    // With no writes the reader runs at its target; with 40K writes/s the
    // reader still completes reads but pays playback latency.
    assert!(r0 > 90.0, "unloaded reads {r0}K/s");
    assert!(w40 > 35.0, "writes {w40}K/s");
    assert!(r40 > 5.0, "loaded reads {r40}K/s");
    assert!(lat40 > lat0, "read latency must rise with write load");
}

#[test]
fn fig9_playback_bottleneck_and_contention() {
    // Throughput plateaus as nodes are added (playback-bound), and goodput
    // collapses with tiny key spaces under zipf.
    let (tput3, good3) = experiments::fig9(3, 100_000, false, 11, INTERVAL);
    let (tput6, _good6) = experiments::fig9(6, 100_000, false, 11, INTERVAL);
    assert!(tput3 > 20.0, "3-node throughput {tput3}K");
    // Playback bottleneck: adding nodes does not scale throughput.
    assert!(
        tput6 < tput3 * 1.5,
        "playback bottleneck violated: 3 nodes {tput3}K, 6 nodes {tput6}K"
    );
    // Uniform @ 100K keys: goodput ~ throughput.
    assert!(good3 > tput3 * 0.9, "goodput {good3}K vs {tput3}K");
    // Zipf @ 100 keys: heavy conflicts.
    let (tput_hot, good_hot) = experiments::fig9(3, 100, true, 11, INTERVAL);
    assert!(good_hot < tput_hot * 0.8, "expected contention: goodput {good_hot}K of {tput_hot}K");
}

#[test]
fn fig10_left_scales_until_log_saturates() {
    let t4 = experiments::fig10_left(4, 9, 21, INTERVAL);
    let t10 = experiments::fig10_left(10, 9, 21, INTERVAL);
    assert!(t10 > t4 * 1.8, "partitioned txs must scale: 4cl={t4}K 10cl={t10}K");
}

#[test]
fn fig10_middle_cross_partition_degrades_gracefully() {
    let t0 = experiments::fig10_middle_tango(8, 0.0, 31, INTERVAL);
    let t16 = experiments::fig10_middle_tango(8, 16.0, 31, INTERVAL);
    let t100 = experiments::fig10_middle_tango(8, 100.0, 31, INTERVAL);
    assert!(t0 > t16, "0% {t0}K should beat 16% {t16}K");
    assert!(t16 > t100, "16% {t16}K should beat 100% {t100}K");
    assert!(t100 > t0 * 0.12, "degradation should be graceful: {t100}K vs {t0}K");

    let p0 = experiments::fig10_middle_2pl(8, 0.0, 31, INTERVAL);
    let p100 = experiments::fig10_middle_2pl(8, 100.0, 31, INTERVAL);
    assert!(p0 > 10.0, "2PL base {p0}K");
    assert!(p100 < p0, "2PL must degrade with cross-partition txs");
}

#[test]
fn fig10_right_shared_object_cliff() {
    let t0 = experiments::fig10_right(4, 0.0, 41, INTERVAL);
    let t1 = experiments::fig10_right(4, 1.0, 41, INTERVAL);
    let t64 = experiments::fig10_right(4, 64.0, 41, INTERVAL);
    // The paper: "throughput falls sharply going from 0% to 1%, after
    // which it degrades gracefully".
    assert!(t1 < t0, "1% shared {t1}K should be below 0% {t0}K");
    assert!(t64 < t1, "64% {t64}K should be below 1% {t1}K");
}
