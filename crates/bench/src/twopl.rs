//! Figure 10 (middle)'s baseline: Percolator-style two-phase locking. A
//! timestamp oracle on the sequencer's machine and one lock table per
//! client partition are [`RpcHandler`]s served on the figure's [`Sim`], so
//! the baseline pays the same network model as the Tango clients. A client
//! takes a timestamp, locks its own keys in its own table (no hop), locks
//! the remote key — if any — over the network, and releases.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corfu::cluster::Transport;
use corfu::{ConnFactory, NodeInfo};
use parking_lot::Mutex;
use tango_metrics::Registry;
use tango_rpc::{ClientConn, RpcHandler};

use crate::figures::World;

const TIMESTAMP: u8 = 0;
const LOCK: u8 = 1;
const UNLOCK: u8 = 2;

/// An oracle's counter and a partition's lock table: key → holding
/// transaction.
#[derive(Default)]
struct Node {
    next_ts: AtomicU64,
    locks: Mutex<HashMap<u64, u64>>,
}

impl Node {
    /// Locks every key for `txn`, or none.
    fn lock(&self, txn: u64, keys: &[u64]) -> bool {
        let mut locks = self.locks.lock();
        if keys.iter().any(|k| locks.get(k).is_some_and(|&holder| holder != txn)) {
            return false;
        }
        for &key in keys {
            locks.insert(key, txn);
        }
        true
    }

    fn unlock(&self, txn: u64, keys: &[u64]) {
        let mut locks = self.locks.lock();
        for key in keys {
            if locks.get(key) == Some(&txn) {
                locks.remove(key);
            }
        }
    }
}

/// A request: its tag, the transaction and the keys, little-endian.
fn request(tag: u8, txn: u64, keys: &[u64]) -> Vec<u8> {
    let mut bytes = vec![tag];
    bytes.extend_from_slice(&txn.to_le_bytes());
    keys.iter().for_each(|k| bytes.extend_from_slice(&k.to_le_bytes()));
    bytes
}

impl RpcHandler for Node {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or_default());
        let (txn, keys): (u64, Vec<u64>) = match request.get(1..9) {
            Some(txn) => (word(txn), request[9..].chunks(8).map(word).collect()),
            None => (0, Vec::new()),
        };
        match request.first() {
            Some(&TIMESTAMP) => self.next_ts.fetch_add(1, Ordering::Relaxed).to_le_bytes().to_vec(),
            Some(&LOCK) => vec![self.lock(txn, &keys) as u8],
            Some(&UNLOCK) => {
                self.unlock(txn, &keys);
                vec![1]
            }
            _ => Vec::new(),
        }
    }
}

/// Serves the oracle and `partitions` lock tables on `world`'s sim, and
/// returns each partition's coordinator: its own table in hand, the rest
/// dialled.
pub(crate) fn serve(world: &World, partitions: usize) -> Vec<TwoPlClient> {
    let sim = world.sim();
    let serve = |label: &str, node: Arc<Node>| {
        sim.serve(label, node, &Registry::disabled()).expect("serve a 2PL node");
        sim.connect(&NodeInfo { id: 0, addr: label.into() })
    };
    let oracle = serve("oracle-0", Arc::default());
    let tables: Vec<Arc<Node>> = (0..partitions).map(|_| Arc::default()).collect();
    let peers: Vec<_> =
        tables.iter().enumerate().map(|(i, t)| serve(&format!("locks-{i}"), t.clone())).collect();
    let client = |(partition, own)| TwoPlClient {
        partition,
        oracle: oracle.clone(),
        own,
        peers: peers.clone(),
        next_txn: AtomicU64::default(),
    };
    tables.into_iter().enumerate().map(client).collect()
}

/// One partition's transaction coordinator.
pub(crate) struct TwoPlClient {
    partition: usize,
    oracle: Arc<dyn ClientConn>,
    own: Arc<Node>,
    peers: Vec<Arc<dyn ClientConn>>,
    next_txn: AtomicU64,
}

impl TwoPlClient {
    /// Commits a transaction writing `keys` of this partition and, if
    /// `remote` names one, a key of another: false if a lock was taken.
    pub(crate) fn commit(&self, keys: &[u64], remote: Option<(usize, u64)>) -> bool {
        let txn = (self.partition as u64) << 40 | self.next_txn.fetch_add(1, Ordering::Relaxed);
        if self.oracle.call(&request(TIMESTAMP, txn, &[])).is_err() || !self.own.lock(txn, keys) {
            return false;
        }
        let committed = match remote {
            None => true,
            Some((peer, key)) => {
                let locked = self.peers[peer].call(&request(LOCK, txn, &[key]));
                let committed = locked.is_ok_and(|reply| reply == [1]);
                if committed {
                    let _ = self.peers[peer].call(&request(UNLOCK, txn, &[key]));
                }
                committed
            }
        };
        self.own.unlock(txn, keys);
        committed
    }
}
