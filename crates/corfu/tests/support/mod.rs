//! Shared test support: seeded sweeps of schedules on the simulated
//! transport ([`corfu::cluster::Sim`]).
//!
//! Integration test binaries pull this in with `mod support;`. Not every
//! binary uses every helper, hence the crate-wide allowance below.
#![allow(dead_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use tango_rpc::Clock;

/// The environment variable setting the first seed of every sweep, so a
/// failing schedule reported by CI replays locally with the one-line
/// command the failure prints.
pub const SEED_ENV: &str = "TANGO_FAULT_SEED";

/// Seeds each schedule is swept over: a handful in a debug build (the
/// tier-1 suite), many in an optimised one (the CI sweep).
pub const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 600 };

/// `TANGO_FAULT_SEED` if set (decimal or `0x` hex), else `default`.
fn seed_from_env(default: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or_else(|_| panic!("unparseable {SEED_ENV}={v:?}"))
        }
        Err(_) => default,
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Runs `schedule` on [`SEEDS`] consecutive seeds, from `TANGO_FAULT_SEED`
/// or else from a base drawn from `replay` — the command that re-runs the
/// test. A failing seed prints that command with the seed in front, one
/// line, and the failure goes on up.
pub fn run_sweep(replay: &str, schedule: impl Fn(u64)) {
    let base = seed_from_env(fnv1a(replay));
    for seed in (0..SEEDS).map(|i| base.wrapping_add(i)) {
        if let Err(failure) = catch_unwind(AssertUnwindSafe(|| schedule(seed))) {
            eprintln!("reproduce: {SEED_ENV}={seed:#x} {replay}");
            resume_unwind(failure);
        }
    }
}

/// `support::sweep!(test_name, |seed| ...)`: [`run_sweep`] with the
/// command that replays `test_name` of this test binary.
macro_rules! sweep {
    ($test:ident, $schedule:expr) => {
        $crate::support::run_sweep(
            concat!(
                "cargo test -p ",
                env!("CARGO_PKG_NAME"),
                " --test ",
                env!("CARGO_CRATE_NAME"),
                " -- --exact ",
                stringify!($test)
            ),
            $schedule,
        )
    };
}
pub(crate) use sweep;

/// Sleeps on `clock` in 1 ms steps until `cond` holds; panics with `what`
/// after ten virtual seconds.
pub fn wait_until(clock: &Clock, what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..10_000 {
        if cond() {
            return;
        }
        clock.sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

/// Runs `run` twice on `seed` and demands the same result — a schedule's
/// [`corfu::cluster::Sim::trace`], or whatever else it reports; returns it.
pub fn replayed<T: PartialEq + std::fmt::Debug>(seed: u64, run: impl Fn(u64) -> T) -> T {
    let first = run(seed);
    let second = run(seed);
    assert_eq!(first, second, "the same seed must replay bit for bit");
    first
}
