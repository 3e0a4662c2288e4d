//! Wire messages for the metalog replica service.

use bytes::Bytes;
use tango_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::Position;

/// Connection information for one metalog replica. Replica order matters:
/// clients write replicas in ascending list order, so the lowest-indexed
/// reachable replica arbitrates write-once races.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// The replica's identifier (kept distinct from data-plane node ids by
    /// the deployment; the cluster harnesses use a dedicated id range).
    pub id: u32,
    /// The replica's transport address.
    pub addr: String,
}

impl Encode for ReplicaInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.id);
        w.put_str(&self.addr);
    }
}

impl Decode for ReplicaInfo {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        Ok(Self { id: r.get_u32()?, addr: r.get_str()?.to_owned() })
    }
}

/// Requests accepted by a metalog replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRequest {
    /// Read the record at `pos`.
    Read {
        /// Metalog position.
        pos: Position,
    },
    /// Write-once put at `pos`. Rewriting an identical record is an
    /// idempotent success; a different record is answered with
    /// [`MetaResponse::AlreadyWritten`] carrying the incumbent.
    Write {
        /// Metalog position.
        pos: Position,
        /// The record to install.
        record: Bytes,
    },
    /// Query the local tail (highest written position + 1).
    Tail,
    /// Fetch this replica's view of the replica set (discovery).
    Peers,
    /// Install a new replica-set view (operations plane: used when a
    /// crashed replica is replaced).
    SetPeers(Vec<ReplicaInfo>),
    /// Query the local tail and the record just below it, in one round
    /// trip: answered with [`MetaResponse::Latest`].
    Latest,
}

/// Responses from a metalog replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaResponse {
    /// The operation succeeded.
    Ok,
    /// The record at the requested position.
    Record(Bytes),
    /// The requested position has never been written.
    Unwritten,
    /// Write-once violation; the incumbent record.
    AlreadyWritten(Bytes),
    /// The local tail (highest written position + 1).
    Tail(Position),
    /// The replica's view of the replica set.
    Peers(Vec<ReplicaInfo>),
    /// The request failed to decode. Distinct from every data-carrying
    /// response so corruption is never mistaken for a benign race.
    ErrMalformed {
        /// What the decoder rejected.
        reason: String,
    },
    /// The replica's durable store failed the operation. Quorum clients
    /// treat this like an unreachable replica and fail over.
    ErrStorage {
        /// What the store reported.
        reason: String,
    },
    /// The local tail and the record at `tail - 1` (empty when the
    /// replica holds nothing).
    Latest {
        /// Highest written position + 1.
        tail: Position,
        /// The record at `tail - 1`.
        record: Bytes,
    },
}

impl Encode for MetaRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            MetaRequest::Read { pos } => {
                w.put_u8(0);
                w.put_u64(*pos);
            }
            MetaRequest::Write { pos, record } => {
                w.put_u8(1);
                w.put_u64(*pos);
                w.put_bytes(record);
            }
            MetaRequest::Tail => w.put_u8(2),
            MetaRequest::Peers => w.put_u8(3),
            MetaRequest::SetPeers(peers) => {
                w.put_u8(4);
                peers.encode(w);
            }
            MetaRequest::Latest => w.put_u8(5),
        }
    }
}

impl Decode for MetaRequest {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(MetaRequest::Read { pos: r.get_u64()? }),
            1 => Ok(MetaRequest::Write {
                pos: r.get_u64()?,
                record: Bytes::copy_from_slice(r.get_bytes()?),
            }),
            2 => Ok(MetaRequest::Tail),
            3 => Ok(MetaRequest::Peers),
            4 => Ok(MetaRequest::SetPeers(Vec::<ReplicaInfo>::decode(r)?)),
            5 => Ok(MetaRequest::Latest),
            tag => Err(WireError::InvalidTag { what: "MetaRequest", tag: tag as u64 }),
        }
    }
}

impl Encode for MetaResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            MetaResponse::Ok => w.put_u8(0),
            MetaResponse::Record(b) => {
                w.put_u8(1);
                w.put_bytes(b);
            }
            MetaResponse::Unwritten => w.put_u8(2),
            MetaResponse::AlreadyWritten(b) => {
                w.put_u8(3);
                w.put_bytes(b);
            }
            MetaResponse::Tail(t) => {
                w.put_u8(4);
                w.put_u64(*t);
            }
            MetaResponse::Peers(peers) => {
                w.put_u8(5);
                peers.encode(w);
            }
            MetaResponse::ErrMalformed { reason } => {
                w.put_u8(6);
                w.put_str(reason);
            }
            MetaResponse::ErrStorage { reason } => {
                w.put_u8(7);
                w.put_str(reason);
            }
            MetaResponse::Latest { tail, record } => {
                w.put_u8(8);
                w.put_u64(*tail);
                w.put_bytes(record);
            }
        }
    }
}

impl Decode for MetaResponse {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(MetaResponse::Ok),
            1 => Ok(MetaResponse::Record(Bytes::copy_from_slice(r.get_bytes()?))),
            2 => Ok(MetaResponse::Unwritten),
            3 => Ok(MetaResponse::AlreadyWritten(Bytes::copy_from_slice(r.get_bytes()?))),
            4 => Ok(MetaResponse::Tail(r.get_u64()?)),
            5 => Ok(MetaResponse::Peers(Vec::<ReplicaInfo>::decode(r)?)),
            6 => Ok(MetaResponse::ErrMalformed { reason: r.get_str()?.to_owned() }),
            7 => Ok(MetaResponse::ErrStorage { reason: r.get_str()?.to_owned() }),
            8 => Ok(MetaResponse::Latest {
                tail: r.get_u64()?,
                record: Bytes::copy_from_slice(r.get_bytes()?),
            }),
            tag => Err(WireError::InvalidTag { what: "MetaResponse", tag: tag as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn meta_messages_roundtrip() {
        let reqs = vec![
            MetaRequest::Read { pos: 7 },
            MetaRequest::Write { pos: 0, record: Bytes::from_static(b"projection-0") },
            MetaRequest::Write { pos: u64::MAX, record: Bytes::new() },
            MetaRequest::Tail,
            MetaRequest::Peers,
            MetaRequest::SetPeers(vec![
                ReplicaInfo { id: 30_000, addr: "meta-0".into() },
                ReplicaInfo { id: 30_001, addr: "127.0.0.1:9999".into() },
            ]),
            MetaRequest::SetPeers(vec![]),
            MetaRequest::Latest,
        ];
        for m in reqs {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<MetaRequest>(&bytes).unwrap(), m);
        }
        let resps = vec![
            MetaResponse::Ok,
            MetaResponse::Record(Bytes::from_static(b"rec")),
            MetaResponse::Unwritten,
            MetaResponse::AlreadyWritten(Bytes::from_static(b"incumbent")),
            MetaResponse::Tail(42),
            MetaResponse::Peers(vec![ReplicaInfo { id: 1, addr: "a".into() }]),
            MetaResponse::ErrMalformed { reason: "invalid tag 9".into() },
            MetaResponse::ErrStorage { reason: "page 3 CRC mismatch".into() },
            MetaResponse::Latest { tail: 5, record: Bytes::from_static(b"projection-4") },
            MetaResponse::Latest { tail: 0, record: Bytes::new() },
        ];
        for m in resps {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<MetaResponse>(&bytes).unwrap(), m);
        }
    }
}
