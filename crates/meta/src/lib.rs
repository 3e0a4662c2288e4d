#![warn(missing_docs)]
//! The metalog: a replicated, write-once log of control-plane records.
//!
//! Tango's whole thesis is that metadata should live on a shared log; this
//! crate turns that discipline inward, onto the layout service itself. A
//! *metalog* is a dense, write-once sequence of opaque records replicated
//! client-driven across a small set of replicas (default 3). There is no
//! sequencer: the record's position *is* its token (the CORFU epoch-CAS
//! becomes "the projection for epoch `e` is the write-once entry at metalog
//! position `e`"), so arbitration reduces to the same write-once rule the
//! data plane's flash units enforce.
//!
//! * [`MetaNode`] — one replica: a write-once `position → record` store
//!   behind the [`tango_rpc::RpcHandler`] interface, usable over the
//!   in-process or TCP transport. Malformed requests get a typed
//!   [`proto::MetaResponse::ErrMalformed`], never a fake conflict.
//! * [`MetaClient`] — the quorum client: client-driven replication in
//!   replica order (the lowest-indexed reachable replica arbitrates races),
//!   majority-quorum commit and reads, repair of half-written positions,
//!   replica discovery via peer lists, failover, and bounded
//!   exponential-backoff retry. Instrumented under `meta.*`.
//!
//! ## Fault model
//!
//! The metalog tolerates `⌊N/2⌋` **fail-stop** replica crashes: a replica
//! that errors is presumed dead for arbitration (exactly the assumption the
//! data plane's seal/rebuild protocols already make). Because every
//! proposer writes replicas in the same order and adopts the first
//! conflicting value it meets, at most one value can ever reach a majority
//! at a position — a quorum read is therefore stable once any value is
//! majority-replicated, and a reader that finds a half-written position
//! (its proposer died mid-flight) completes it, just as data-plane readers
//! repair half-written replica chains.

mod client;
mod error;
pub mod metrics;
mod node;
pub mod proto;

pub use client::{Dial, MetaClient, QUORUM_RETRIES};
pub use error::MetaError;
pub use node::MetaNode;
pub use proto::ReplicaInfo;

/// A position in a metalog (for the layout metalog, the epoch).
pub type Position = u64;

/// Convenience alias for metalog results.
pub type Result<T> = std::result::Result<T, MetaError>;

/// Majority quorum for `n` replicas.
pub fn quorum(n: usize) -> usize {
    n / 2 + 1
}
