//! One metalog replica: a write-once `position → record` store.

use bytes::Bytes;
use parking_lot::Mutex;
use tango_flash::{FlashError, FlashUnit, PageRead};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::proto::{MetaRequest, MetaResponse, ReplicaInfo};
use crate::Position;

/// The largest record an in-memory replica accepts: the page size of the
/// unit under [`MetaNode::new`].
const MAX_RECORD_BYTES: usize = 1 << 20;

/// A metalog replica. Positions are write-once: the first record installed
/// at a position is permanent, and a conflicting rewrite is answered with
/// the incumbent — the same arbitration rule the data plane's flash units
/// enforce, and enforced by the same code: a replica *is* a [`FlashUnit`],
/// metalog positions mapping one-to-one onto page addresses. The unit is the
/// only record of a position, and a write is acknowledged only after the
/// unit's `sync`: over a file-backed unit every acknowledged record is
/// durable, and a restart finds the full history there.
pub struct MetaNode {
    unit: Mutex<FlashUnit>,
    peers: Mutex<Vec<ReplicaInfo>>,
}

impl Default for MetaNode {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaNode {
    /// An empty replica holding its records in RAM (tests, in-process
    /// clusters).
    pub fn new() -> Self {
        Self::with_storage(FlashUnit::in_memory(MAX_RECORD_BYTES))
    }

    /// A replica over `unit`, serving every record already on it. The
    /// unit's page size bounds the record size.
    pub fn with_storage(unit: FlashUnit) -> Self {
        Self { unit: Mutex::new(unit), peers: Mutex::new(Vec::new()) }
    }

    /// Installs `record` at position 0 directly (deployment bootstrap; not
    /// a client-visible operation). Panics if position 0 is taken by a
    /// different record — a deployment must not be bootstrapped twice with
    /// diverging genesis records.
    pub fn bootstrap(&self, record: Bytes) {
        match self.process(MetaRequest::Write { pos: 0, record }) {
            MetaResponse::Ok => {}
            MetaResponse::AlreadyWritten(_) => panic!("conflicting bootstrap record"),
            other => panic!("persist genesis record: {other:?}"),
        }
    }

    /// Replaces this replica's view of the replica set (operations plane).
    pub fn set_peers(&self, peers: Vec<ReplicaInfo>) {
        *self.peers.lock() = peers;
    }

    /// This replica's view of the replica set.
    pub fn peers(&self) -> Vec<ReplicaInfo> {
        self.peers.lock().clone()
    }

    /// Highest written position + 1 (0 when empty).
    pub fn tail(&self) -> Position {
        self.unit.lock().local_tail()
    }

    /// Processes a decoded request.
    pub fn process(&self, req: MetaRequest) -> MetaResponse {
        let storage_error = |e: FlashError| MetaResponse::ErrStorage { reason: e.to_string() };
        match req {
            MetaRequest::Read { pos } => match self.unit.lock().read(pos) {
                Ok(PageRead::Data(record)) => MetaResponse::Record(record),
                Ok(_) => MetaResponse::Unwritten,
                Err(e) => storage_error(e),
            },
            MetaRequest::Write { pos, record } => {
                let mut unit = self.unit.lock();
                let written = match unit.write(pos, &record) {
                    Ok(()) => MetaResponse::Ok,
                    Err(FlashError::AlreadyWritten { .. }) => match unit.read(pos) {
                        // Re-writing the incumbent is an idempotent success,
                        // so helpers and retries converge without special
                        // cases.
                        Ok(PageRead::Data(existing)) if existing == record => MetaResponse::Ok,
                        Ok(PageRead::Data(existing)) => MetaResponse::AlreadyWritten(existing),
                        Ok(other) => MetaResponse::ErrStorage {
                            reason: format!("position {pos} holds no record: {other:?}"),
                        },
                        Err(e) => storage_error(e),
                    },
                    Err(e) => storage_error(e),
                };
                // Durability before acknowledgement, a retry's included: no
                // quorum counts a record a restart would lose.
                match written {
                    MetaResponse::Ok => unit.sync().map_or_else(storage_error, |()| written),
                    other => other,
                }
            }
            MetaRequest::Tail => MetaResponse::Tail(self.tail()),
            MetaRequest::Latest => {
                let mut unit = self.unit.lock();
                let tail = unit.local_tail();
                match tail.checked_sub(1).map(|pos| unit.read(pos)) {
                    None => MetaResponse::Latest { tail, record: Bytes::new() },
                    Some(Ok(PageRead::Data(record))) => MetaResponse::Latest { tail, record },
                    Some(Ok(other)) => MetaResponse::ErrStorage {
                        reason: format!("position {} holds no record: {other:?}", tail - 1),
                    },
                    Some(Err(e)) => storage_error(e),
                }
            }
            MetaRequest::Peers => MetaResponse::Peers(self.peers()),
            MetaRequest::SetPeers(peers) => {
                self.set_peers(peers);
                MetaResponse::Ok
            }
        }
    }
}

impl RpcHandler for MetaNode {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let response = match decode_from_slice::<MetaRequest>(request) {
            Ok(req) => self.process(req),
            Err(e) => MetaResponse::ErrMalformed { reason: e.to_string() },
        };
        encode_to_vec(&response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_once_arbitration() {
        let node = MetaNode::new();
        let v1 = Bytes::from_static(b"v1");
        let v2 = Bytes::from_static(b"v2");
        assert_eq!(
            node.process(MetaRequest::Write { pos: 3, record: v1.clone() }),
            MetaResponse::Ok
        );
        // Idempotent rewrite.
        assert_eq!(
            node.process(MetaRequest::Write { pos: 3, record: v1.clone() }),
            MetaResponse::Ok
        );
        // Conflicting rewrite loses to the incumbent.
        assert_eq!(
            node.process(MetaRequest::Write { pos: 3, record: v2 }),
            MetaResponse::AlreadyWritten(v1.clone())
        );
        assert_eq!(node.process(MetaRequest::Read { pos: 3 }), MetaResponse::Record(v1));
        assert_eq!(node.process(MetaRequest::Read { pos: 0 }), MetaResponse::Unwritten);
        assert_eq!(node.process(MetaRequest::Tail), MetaResponse::Tail(4));
        assert_eq!(
            node.process(MetaRequest::Latest),
            MetaResponse::Latest { tail: 4, record: Bytes::from_static(b"v1") }
        );
        assert_eq!(
            MetaNode::new().process(MetaRequest::Latest),
            MetaResponse::Latest { tail: 0, record: Bytes::new() }
        );
    }

    #[test]
    fn malformed_requests_get_a_typed_error() {
        let node = MetaNode::new();
        let resp = node.handle(&[0xFF, 0x01, 0x02]);
        match decode_from_slice::<MetaResponse>(&resp).unwrap() {
            MetaResponse::ErrMalformed { reason } => assert!(!reason.is_empty()),
            other => panic!("expected ErrMalformed, got {other:?}"),
        }
    }

    #[test]
    fn bootstrap_is_idempotent() {
        let node = MetaNode::new();
        node.bootstrap(Bytes::from_static(b"genesis"));
        node.bootstrap(Bytes::from_static(b"genesis"));
        assert_eq!(node.tail(), 1);
    }

    #[test]
    fn flash_backed_node_recovers_records_after_restart() {
        let dir = std::env::temp_dir().join(format!("tango-meta-node-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open_unit = || {
            let store = tango_flash::FileStore::open(&dir, 1024, 16).unwrap();
            FlashUnit::open(Box::new(store), 1024).unwrap()
        };
        {
            let node = MetaNode::with_storage(open_unit());
            node.bootstrap(Bytes::from_static(b"genesis"));
            for pos in 1..5u64 {
                let record = Bytes::from(format!("projection-{pos}"));
                assert_eq!(node.process(MetaRequest::Write { pos, record }), MetaResponse::Ok);
            }
            assert_eq!(node.tail(), 5);
        }
        // "Restart": a fresh node over the same files sees the full
        // history, and write-once arbitration still holds across it.
        let node = MetaNode::with_storage(open_unit());
        assert_eq!(node.tail(), 5);
        node.bootstrap(Bytes::from_static(b"genesis")); // idempotent, not a rewrite
        for pos in 1..5u64 {
            assert_eq!(
                node.process(MetaRequest::Read { pos }),
                MetaResponse::Record(Bytes::from(format!("projection-{pos}")))
            );
        }
        assert_eq!(
            node.process(MetaRequest::Write { pos: 2, record: Bytes::from_static(b"usurper") }),
            MetaResponse::AlreadyWritten(Bytes::from_static(b"projection-2"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
