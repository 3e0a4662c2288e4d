use std::fmt;

use crate::{Epoch, LogOffset};

/// Errors surfaced by the CORFU client and services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorfuError {
    /// The server was sealed at a newer epoch; refresh the projection.
    Sealed {
        /// The epoch the server reported.
        server_epoch: Epoch,
    },
    /// The target offset was already written (write-once arbitration).
    AlreadyWritten {
        /// The offending global offset.
        offset: LogOffset,
    },
    /// The offset has been garbage collected.
    Trimmed {
        /// The offending global offset.
        offset: LogOffset,
    },
    /// The offset has not been written yet.
    Unwritten {
        /// The offending global offset.
        offset: LogOffset,
    },
    /// Our token's slot was consumed by another writer or a junk fill;
    /// acquire a new token and retry.
    TokenLost {
        /// The lost offset.
        offset: LogOffset,
    },
    /// The payload exceeds the log's fixed entry size.
    EntryTooLarge {
        /// Bytes offered.
        len: usize,
        /// The deployment's entry size.
        max: usize,
    },
    /// A transport failure talking to a node.
    Rpc(String),
    /// A storage node reported an internal fault.
    Storage(String),
    /// A malformed message or log entry.
    Codec(String),
    /// A layout (projection) operation failed.
    Layout(String),
    /// A reconfiguration lost the race to a concurrent reconfigurer: the
    /// cluster is already sealed or installed at `winner`. Unlike
    /// [`CorfuError::Layout`], this is not a failure of the layout service —
    /// someone else finished the job; refresh the projection and carry on.
    RaceLost {
        /// The epoch the winning reconfiguration reached.
        winner: Epoch,
    },
    /// A stream the operation was routed by moved to another log while the
    /// operation retried (a remap installed); it starts over from routing.
    Rerouted,
    /// Retries were exhausted without success.
    RetriesExhausted {
        /// What was being attempted.
        what: &'static str,
    },
}

impl fmt::Display for CorfuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorfuError::Sealed { server_epoch } => {
                write!(f, "sealed at epoch {server_epoch}; refresh the projection")
            }
            CorfuError::AlreadyWritten { offset } => write!(f, "offset {offset} already written"),
            CorfuError::Trimmed { offset } => write!(f, "offset {offset} trimmed"),
            CorfuError::Unwritten { offset } => write!(f, "offset {offset} unwritten"),
            CorfuError::TokenLost { offset } => {
                write!(f, "token for offset {offset} lost to another writer")
            }
            CorfuError::EntryTooLarge { len, max } => {
                write!(f, "entry of {len} bytes exceeds entry size {max}")
            }
            CorfuError::Rpc(e) => write!(f, "rpc failure: {e}"),
            CorfuError::Storage(e) => write!(f, "storage fault: {e}"),
            CorfuError::Codec(e) => write!(f, "codec failure: {e}"),
            CorfuError::Layout(e) => write!(f, "layout failure: {e}"),
            CorfuError::RaceLost { winner } => {
                write!(f, "reconfiguration lost the race; cluster is at epoch {winner}")
            }
            CorfuError::Rerouted => write!(f, "a stream moved to another log; route again"),
            CorfuError::RetriesExhausted { what } => write!(f, "retries exhausted: {what}"),
        }
    }
}

impl std::error::Error for CorfuError {}

impl From<tango_rpc::RpcError> for CorfuError {
    fn from(e: tango_rpc::RpcError) -> Self {
        CorfuError::Rpc(e.to_string())
    }
}

impl From<tango_wire::WireError> for CorfuError {
    fn from(e: tango_wire::WireError) -> Self {
        CorfuError::Codec(e.to_string())
    }
}

impl From<tango_meta::MetaError> for CorfuError {
    fn from(e: tango_meta::MetaError) -> Self {
        use tango_meta::MetaError;
        match e {
            // Per-replica and whole-quorum reachability problems are
            // transport faults: retriable once the replica set heals.
            MetaError::QuorumUnavailable { .. } | MetaError::Unreachable { .. } => {
                CorfuError::Rpc(e.to_string())
            }
            MetaError::Codec(msg) => CorfuError::Codec(msg),
            MetaError::Protocol(_) | MetaError::Empty => CorfuError::Layout(e.to_string()),
        }
    }
}
