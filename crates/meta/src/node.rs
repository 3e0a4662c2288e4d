//! One metalog replica: a write-once `position → record` store.

use std::collections::BTreeMap;

use bytes::Bytes;
use parking_lot::Mutex;
use tango_flash::{FlashUnit, PageRead};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::proto::{MetaRequest, MetaResponse, ReplicaInfo};
use crate::Position;

/// A metalog replica. Positions are write-once: the first record installed
/// at a position is permanent, and a conflicting rewrite is answered with
/// the incumbent — the same arbitration rule the data plane's flash units
/// enforce, which is what lets the layout service dogfood the CORFU
/// discipline.
///
/// By default records live only in RAM (tests, in-process clusters). A
/// replica built with [`MetaNode::with_storage`] writes every record
/// through to a [`FlashUnit`] before acknowledging, and recovers its full
/// history from that unit on restart — the flash discipline is literally
/// the same one the data plane uses, metalog positions mapping one-to-one
/// onto page addresses.
pub struct MetaNode {
    records: Mutex<BTreeMap<Position, Bytes>>,
    /// Durable backing store; writes go here before the RAM index.
    storage: Option<Mutex<FlashUnit>>,
    peers: Mutex<Vec<ReplicaInfo>>,
}

impl Default for MetaNode {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaNode {
    /// An empty replica.
    pub fn new() -> Self {
        Self { records: Mutex::new(BTreeMap::new()), storage: None, peers: Mutex::new(Vec::new()) }
    }

    /// A replica persisting records onto `unit`, recovering every record
    /// already on it. Positions map directly to page addresses, so the
    /// unit's page size bounds the record size. Junk and trimmed pages are
    /// skipped: a metalog never trims, but a unit recycled from the data
    /// plane may carry them.
    pub fn with_storage(mut unit: FlashUnit) -> tango_flash::Result<Self> {
        let mut records = BTreeMap::new();
        for addr in 0..unit.local_tail() {
            if let PageRead::Data(bytes) = unit.read(addr)? {
                records.insert(addr, bytes);
            }
        }
        Ok(Self {
            records: Mutex::new(records),
            storage: Some(Mutex::new(unit)),
            peers: Mutex::new(Vec::new()),
        })
    }

    /// Installs `record` at position 0 directly (deployment bootstrap; not
    /// a client-visible operation). Panics if position 0 is taken by a
    /// different record — a deployment must not be bootstrapped twice with
    /// diverging genesis records.
    pub fn bootstrap(&self, record: Bytes) {
        let mut records = self.records.lock();
        match records.get(&0) {
            None => {
                if let Some(storage) = &self.storage {
                    storage.lock().write(0, &record).expect("persist genesis record");
                }
                records.insert(0, record);
            }
            Some(existing) => assert_eq!(existing, &record, "conflicting bootstrap record"),
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
        self.records.lock().last_key_value().map(|(p, _)| p + 1).unwrap_or(0)
    }

    /// Processes a decoded request.
    pub fn process(&self, req: MetaRequest) -> MetaResponse {
        match req {
            MetaRequest::Read { pos } => match self.records.lock().get(&pos) {
                Some(rec) => MetaResponse::Record(rec.clone()),
                None => MetaResponse::Unwritten,
            },
            MetaRequest::Write { pos, record } => {
                let mut records = self.records.lock();
                match records.get(&pos) {
                    None => {
                        // Durability before acknowledgement: the record
                        // must be on flash before any quorum counts it.
                        if let Some(storage) = &self.storage {
                            if let Err(e) = storage.lock().write(pos, &record) {
                                return MetaResponse::ErrStorage { reason: e.to_string() };
                            }
                        }
                        records.insert(pos, record);
                        MetaResponse::Ok
                    }
                    // Re-writing the incumbent is an idempotent success, so
                    // helpers and retries converge without special cases.
                    Some(existing) if *existing == record => MetaResponse::Ok,
                    Some(existing) => MetaResponse::AlreadyWritten(existing.clone()),
                }
            }
            MetaRequest::Tail => MetaResponse::Tail(self.tail()),
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
            let node = MetaNode::with_storage(open_unit()).unwrap();
            node.bootstrap(Bytes::from_static(b"genesis"));
            for pos in 1..5u64 {
                let record = Bytes::from(format!("projection-{pos}"));
                assert_eq!(node.process(MetaRequest::Write { pos, record }), MetaResponse::Ok);
            }
            assert_eq!(node.tail(), 5);
        }
        // "Restart": a fresh node over the same files sees the full
        // history, and write-once arbitration still holds across it.
        let node = MetaNode::with_storage(open_unit()).unwrap();
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
