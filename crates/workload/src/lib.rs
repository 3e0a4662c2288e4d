#![warn(missing_docs)]
//! Deterministic workload generation for benchmarks and simulated figures.
//!
//! The paper's transaction experiments (§6.2) choose keys either uniformly
//! or with "a highly skewed zipf distribution (corresponding to workload 'a'
//! of the Yahoo! Cloud Serving Benchmark)". This crate provides:
//!
//! * [`SplitMix64`] — a tiny, fast, seedable PRNG (deterministic runs are a
//!   hard requirement for the simulated figures).
//! * [`Zipf`] — a YCSB-style zipf sampler over `0..n` with parameter
//!   `theta` (YCSB uses 0.99), using the precomputed-zeta formulation from
//!   Gray et al., "Quickly Generating Billion-Record Synthetic Databases".
//! * [`KeyDist`] — the uniform/zipf choice as one type.
//! * [`TxMix`] — read/write-set generation for the paper's 3-read/3-write
//!   transactions.

mod rng;
mod txmix;
mod zipf;

pub use rng::SplitMix64;
pub use txmix::{TxMix, TxSpec};
pub use zipf::Zipf;

/// A key distribution over `0..n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `0..n`.
    Uniform {
        /// Number of keys.
        n: u64,
    },
    /// YCSB-style zipf.
    Zipf(Zipf),
}

impl KeyDist {
    /// A uniform distribution over `0..n`.
    pub fn uniform(n: u64) -> Self {
        KeyDist::Uniform { n }
    }

    /// A zipf distribution over `0..n` with YCSB's default skew (0.99).
    pub fn zipf_ycsb(n: u64) -> Self {
        KeyDist::Zipf(Zipf::new(n, 0.99))
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(*n),
            KeyDist::Zipf(z) => z.sample(rng),
        }
    }

    /// The number of distinct keys.
    pub fn n(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipf(z) => z.n(),
        }
    }
}
