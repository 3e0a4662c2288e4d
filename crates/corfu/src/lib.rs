#![warn(missing_docs)]
//! CORFU: a shared log over a cluster of write-once flash units (§2.2, §5).
//!
//! The log's global 64-bit address space is striped round-robin across
//! disjoint replica sets of storage nodes; a dedicated sequencer hands out
//! tail offsets. Appends acquire a token from the sequencer and then write
//! the entry to the replica set with client-driven chain replication; reads
//! go directly to the replicas. The sequencer is an optimization, not a
//! source of truth: write-once storage arbitrates races, holes left by
//! crashed clients are patched with junk fills, and the whole cluster can be
//! resealed into a new epoch to replace a failed sequencer.
//!
//! This crate provides:
//!
//! * [`Projection`] — the epoch-stamped cluster layout (replica sets +
//!   sequencer) and the deterministic offset→replica-set mapping.
//! * [`StorageServer`] / [`SequencerServer`] — the two data-plane
//!   services, each an [`tango_rpc::RpcHandler`] usable over the in-process
//!   or TCP transport.
//! * [`LayoutClient`] — the layout (auxiliary) service's client: typed
//!   `get`/`propose` of projections over a `tango-meta` metalog, whose
//!   replicas are the only layout servers there are.
//! * [`CorfuClient`] — the client library: `append`, `read`, `check` (fast
//!   and slow), `fill`, `trim`, plus the token/raw-write split used by the
//!   streaming layer.
//! * [`EntryEnvelope`] — the on-log entry format, including the per-stream
//!   backpointer headers of §5 (they live here because the sequencer issues
//!   them and sequencer recovery must parse them).
//! * [`reconfig`] — seal-based reconfiguration: replacing a failed
//!   sequencer and rebuilding its tail + backpointer state from the log.
//! * [`cluster`] — the deployment harness: one [`cluster::Cluster`] generic
//!   over its [`cluster::Transport`] (in-process or TCP), for tests,
//!   examples and benchmarks.

mod client;
pub mod cluster;
pub mod compactor;
mod entry;
mod error;
mod layout;
pub mod metrics;
mod projection;
pub mod proto;
pub mod reconfig;
mod sequencer;
mod storage;

pub use client::{
    Chase, ClientOptions, ConnFactory, CorfuClient, PageVisitor, ReadOutcome, StreamWindows, Token,
};
pub use compactor::{Compactor, CompactorConfig};
pub use entry::{
    Backpointers, CrossLogLink, Entry, EntryEnvelope, HeaderRef, LinkRef, StreamHeader,
};
pub use error::CorfuError;
pub use layout::LayoutClient;
pub use projection::{LogLayout, NodeInfo, Projection, ShardMap};
pub use proto::PageRef;
pub use sequencer::{SequencerServer, SequencerState};
pub use storage::{CompactionReport, StorageServer, CHASE_REPLY_BYTES, MAX_READ_BATCH};

/// A reconfiguration epoch. All requests are epoch-stamped; sealed servers
/// reject stale epochs.
pub type Epoch = u64;

/// A position in the shared log's global address space.
///
/// With a sharded projection this is a *composite* offset: the top
/// [`LOG_SHIFT`]-to-64 bits carry the log id, the low [`LOG_SHIFT`] bits the
/// raw offset within that log (see [`compose`]). Log 0's composite offsets
/// equal its raw offsets, so single-log deployments never see the split.
pub type LogOffset = u64;

/// Bit position where the log id starts in a composite [`LogOffset`].
pub const LOG_SHIFT: u32 = 56;

/// Mask selecting the raw (within-log) part of a composite [`LogOffset`].
pub const LOG_OFFSET_MASK: u64 = (1u64 << LOG_SHIFT) - 1;

/// Builds a composite offset from a log id and a raw within-log offset.
#[inline]
pub fn compose(log: u32, raw: LogOffset) -> LogOffset {
    debug_assert!(raw <= LOG_OFFSET_MASK, "raw offset overflows 56 bits");
    ((log as u64) << LOG_SHIFT) | raw
}

/// The log id of a composite offset (0 for single-log offsets).
#[inline]
pub fn log_of_offset(offset: LogOffset) -> u32 {
    (offset >> LOG_SHIFT) as u32
}

/// The raw within-log part of a composite offset.
#[inline]
pub fn raw_of_offset(offset: LogOffset) -> LogOffset {
    offset & LOG_OFFSET_MASK
}

/// Identifies a storage or sequencer node within a projection.
pub type NodeId = u32;

/// A 31-bit stream identifier (§5). The high bit of the wire encoding is
/// reserved for the backpointer format flag.
pub type StreamId = u32;

/// Maximum legal stream id (31 bits).
pub const MAX_STREAM_ID: StreamId = (1 << 31) - 1;

/// Reserved stream carrying sequencer-state checkpoints (the optimization
/// §5 leaves as future work: "we plan on expediting this by having the
/// sequencer store periodic checkpoints in the log"). Applications must
/// not use this id.
pub const SEQUENCER_CHECKPOINT_STREAM: StreamId = MAX_STREAM_ID;

/// Convenience alias for CORFU results.
pub type Result<T> = std::result::Result<T, CorfuError>;
