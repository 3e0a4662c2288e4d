//! Integration tests for the metalog: quorum writes/reads over an
//! in-process replica set, failover past dead replicas, half-written
//! repair, replacement catch-up, and peer discovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use tango_meta::proto::MetaRequest;
use tango_meta::{MetaClient, MetaError, MetaNode, ReplicaInfo, QUORUM_RETRIES};
use tango_metrics::Registry;
use tango_rpc::{ClientConn, RpcError};

/// A connection that can be severed: while `alive` is false every call
/// fails as if the replica crashed.
struct SwitchConn {
    node: Arc<MetaNode>,
    alive: Arc<AtomicBool>,
}

impl ClientConn for SwitchConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        Ok(tango_rpc::RpcHandler::handle(self.node.as_ref(), request))
    }
}

/// Three bootstrapped metalog replicas with per-replica kill switches.
struct TestSet {
    nodes: Vec<Arc<MetaNode>>,
    alive: Vec<Arc<AtomicBool>>,
    replicas: Vec<ReplicaInfo>,
}

impl TestSet {
    fn new(n: usize) -> Self {
        let genesis = Bytes::from_static(b"genesis");
        let nodes: Vec<Arc<MetaNode>> = (0..n).map(|_| Arc::new(MetaNode::new())).collect();
        let alive: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(true))).collect();
        let replicas: Vec<ReplicaInfo> =
            (0..n).map(|i| ReplicaInfo { id: i as u32, addr: format!("meta-{i}") }).collect();
        for node in &nodes {
            node.bootstrap(genesis.clone());
            node.set_peers(replicas.clone());
        }
        Self { nodes, alive, replicas }
    }

    fn dial(&self) -> Arc<dyn tango_meta::Dial> {
        let nodes = self.nodes.clone();
        let alive = self.alive.clone();
        Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
            let idx = replica.id as usize;
            Arc::new(SwitchConn { node: Arc::clone(&nodes[idx]), alive: Arc::clone(&alive[idx]) })
        })
    }

    fn client(&self) -> MetaClient {
        MetaClient::new(self.replicas.clone(), self.dial())
    }

    fn kill(&self, idx: usize) {
        self.alive[idx].store(false, Ordering::SeqCst);
    }
}

#[test]
fn propose_install_read_latest() {
    let set = TestSet::new(3);
    let client = set.client();
    let rec = Bytes::from_static(b"epoch-1");
    assert_eq!(client.propose_at(1, rec.clone()).unwrap(), None);
    assert_eq!(client.read_decided(1).unwrap(), Some(rec.clone()));
    assert_eq!(client.latest().unwrap(), (1, rec.clone()));
    // Every replica holds the record: the proposer writes past a quorum.
    for node in &set.nodes {
        assert_eq!(
            node.process(MetaRequest::Read { pos: 1 }),
            tango_meta::proto::MetaResponse::Record(rec.clone())
        );
    }
}

#[test]
fn propose_survives_one_dead_replica() {
    let set = TestSet::new(3);
    let registry = Registry::new();
    let client = set.client().with_metrics(&registry);
    set.kill(1);
    let rec = Bytes::from_static(b"epoch-1");
    assert_eq!(client.propose_at(1, rec.clone()).unwrap(), None);
    assert_eq!(client.read_decided(1).unwrap(), Some(rec));
    assert!(client.metrics().failovers.get() > 0, "dead replica should count as failover");
    assert_eq!(client.metrics().installs.get(), 1);
}

#[test]
fn losing_quorum_surfaces_after_bounded_retries() {
    let set = TestSet::new(3);
    let registry = Registry::new();
    let client = set.client().with_metrics(&registry);
    set.kill(1);
    set.kill(2);
    match client.propose_at(1, Bytes::from_static(b"doomed")) {
        Err(MetaError::QuorumUnavailable { reachable, needed }) => {
            assert_eq!(reachable, 1);
            assert_eq!(needed, 2);
        }
        other => panic!("expected QuorumUnavailable, got {other:?}"),
    }
    assert_eq!(
        client.metrics().retries.get(),
        QUORUM_RETRIES as u64,
        "one retry per budgeted round"
    );
}

#[test]
fn write_once_arbitration_returns_the_winner() {
    let set = TestSet::new(3);
    let winner = Bytes::from_static(b"winner");
    let loser = Bytes::from_static(b"loser");
    assert_eq!(set.client().propose_at(1, winner.clone()).unwrap(), None);
    // A second proposal at the same position loses and observes the winner.
    assert_eq!(set.client().propose_at(1, loser).unwrap(), Some(winner.clone()));
    assert_eq!(set.client().read_decided(1).unwrap(), Some(winner));
}

#[test]
fn adopting_proposer_completes_a_half_written_position() {
    let set = TestSet::new(3);
    let v1 = Bytes::from_static(b"half-written");
    // A proposer crashed after reaching only replica 0 (the arbitrator).
    set.nodes[0].process(MetaRequest::Write { pos: 1, record: v1.clone() });
    // A later proposer adopts the incumbent and copies it to a majority.
    let client = set.client();
    assert_eq!(client.propose_at(1, Bytes::from_static(b"mine")).unwrap(), Some(v1.clone()));
    assert_eq!(client.read_decided(1).unwrap(), Some(v1));
}

#[test]
fn quorum_read_repairs_a_half_written_position() {
    let set = TestSet::new(3);
    let v1 = Bytes::from_static(b"repair-me");
    set.nodes[0].process(MetaRequest::Write { pos: 1, record: v1.clone() });
    let registry = Registry::new();
    let client = set.client().with_metrics(&registry);
    assert_eq!(client.read_decided(1).unwrap(), Some(v1.clone()));
    assert!(client.metrics().catchup_reads.get() > 0, "repair copies count as catch-up");
    // The repair reached a majority: a read that skips replica 0 still decides.
    set.kill(0);
    assert_eq!(set.client().read_decided(1).unwrap(), Some(v1));
}

#[test]
fn latest_rolls_forward_a_reachable_stray_but_skips_an_unreachable_one() {
    let set = TestSet::new(3);
    let client = set.client();
    let rec = Bytes::from_static(b"epoch-1");
    client.propose_at(1, rec.clone()).unwrap();
    // Replica 2 holds a stray record at position 5 whose proposer died
    // before reaching a quorum. While replica 2 is reachable, quorum reads
    // resolve the ambiguity by completing the write (roll-forward), so
    // latest() surfaces it as decided.
    let stray = Bytes::from_static(b"stray");
    set.nodes[2].process(MetaRequest::Write { pos: 5, record: stray.clone() });
    assert_eq!(client.latest().unwrap(), (5, stray));
    // But if the only holder dies after reporting its tail, the position
    // reads as undecided (a majority answers "unwritten") and latest()
    // skips downward to the newest decided record.
    let set2 = TestSet::new(3);
    let client2 = set2.client();
    client2.propose_at(1, rec.clone()).unwrap();
    set2.nodes[2].process(MetaRequest::Write { pos: 5, record: Bytes::from_static(b"stray") });
    // Replica 2 answers exactly one call (the tail query), then dies. The
    // conns are built once so a re-dial cannot resurrect the budget.
    let conns: Vec<Arc<dyn ClientConn>> = set2
        .nodes
        .iter()
        .enumerate()
        .map(|(idx, node)| -> Arc<dyn ClientConn> {
            let budget = if idx == 2 { 1 } else { i64::MAX };
            Arc::new(BudgetConn {
                node: Arc::clone(node),
                remaining: std::sync::atomic::AtomicI64::new(budget),
            })
        })
        .collect();
    let dying = MetaClient::new(
        set2.replicas.clone(),
        Arc::new(move |replica: &ReplicaInfo| Arc::clone(&conns[replica.id as usize])),
    );
    assert_eq!(dying.latest().unwrap(), (1, rec));
}

/// A connection that serves a fixed number of calls, then fails forever —
/// models a replica crashing partway through a multi-round operation.
struct BudgetConn {
    node: Arc<MetaNode>,
    remaining: std::sync::atomic::AtomicI64,
}

impl ClientConn for BudgetConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(RpcError::Disconnected);
        }
        Ok(tango_rpc::RpcHandler::handle(self.node.as_ref(), request))
    }
}

#[test]
fn replacement_catches_up_from_the_quorum() {
    let set = TestSet::new(3);
    let client = set.client();
    for epoch in 1..=4u64 {
        client.propose_at(epoch, Bytes::from(format!("epoch-{epoch}"))).unwrap();
    }
    let fresh = Arc::new(MetaNode::new());
    let conn: Arc<dyn ClientConn> =
        Arc::new(SwitchConn { node: Arc::clone(&fresh), alive: Arc::new(AtomicBool::new(true)) });
    let copied = client.catch_up(&conn).unwrap();
    assert_eq!(copied, 5, "genesis + 4 epochs");
    assert_eq!(fresh.tail(), 5);
}

#[test]
fn discovery_adopts_the_replicas_view() {
    let set = TestSet::new(3);
    // A client configured with a stale, single-replica view discovers the
    // full set from that replica's peer list.
    let stale = MetaClient::new(vec![set.replicas[0].clone()], set.dial());
    assert!(stale.discover());
    assert_eq!(stale.replicas(), set.replicas);
    assert!(!stale.discover(), "second discovery is a no-op");
}

#[test]
fn install_peers_updates_every_replica_and_the_client() {
    let set = TestSet::new(3);
    let client = set.client();
    // Replica 1 crashed and was replaced by a fresh node with a new id.
    set.kill(1);
    let replacement = Arc::new(MetaNode::new());
    let mut new_set = set.replicas.clone();
    new_set[1] = ReplicaInfo { id: 7, addr: "meta-7".into() };
    let dial_set = new_set.clone();
    // Re-dial through a map that knows the replacement.
    let nodes = set.nodes.clone();
    let alive = set.alive.clone();
    let repl = Arc::clone(&replacement);
    let dial = Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
        if replica.id == 7 {
            return Arc::new(SwitchConn {
                node: Arc::clone(&repl),
                alive: Arc::new(AtomicBool::new(true)),
            });
        }
        let idx = replica.id as usize;
        Arc::new(SwitchConn { node: Arc::clone(&nodes[idx]), alive: Arc::clone(&alive[idx]) })
    });
    let client2 = MetaClient::new(client.replicas(), dial);
    client2
        .catch_up(
            &client2
                .replicas()
                .first()
                .map(|_| -> Arc<dyn ClientConn> {
                    Arc::new(SwitchConn {
                        node: Arc::clone(&replacement),
                        alive: Arc::new(AtomicBool::new(true)),
                    })
                })
                .unwrap(),
        )
        .unwrap();
    client2.install_peers(dial_set.clone()).unwrap();
    assert_eq!(client2.replicas(), dial_set);
    assert_eq!(set.nodes[0].peers(), dial_set);
    assert_eq!(replacement.peers(), dial_set);
    // The refreshed set serves proposals.
    assert_eq!(client2.propose_at(1, Bytes::from_static(b"after")).unwrap(), None);
}

#[test]
fn stale_client_rides_through_replacement_via_rediscovery() {
    let set = TestSet::new(3);
    let replacement = Arc::new(MetaNode::new());
    // Dial that knows both generations.
    let nodes = set.nodes.clone();
    let alive = set.alive.clone();
    let repl = Arc::clone(&replacement);
    let dial = Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
        if replica.id == 7 {
            return Arc::new(SwitchConn {
                node: Arc::clone(&repl),
                alive: Arc::new(AtomicBool::new(true)),
            });
        }
        let idx = replica.id as usize;
        Arc::new(SwitchConn { node: Arc::clone(&nodes[idx]), alive: Arc::clone(&alive[idx]) })
    });
    // Operator replaces replica 2 and installs the new peer set.
    let ops = MetaClient::new(set.replicas.clone(), dial.clone());
    set.kill(2);
    let conn: Arc<dyn ClientConn> = Arc::new(SwitchConn {
        node: Arc::clone(&replacement),
        alive: Arc::new(AtomicBool::new(true)),
    });
    ops.catch_up(&conn).unwrap();
    let mut new_set = set.replicas.clone();
    new_set[2] = ReplicaInfo { id: 7, addr: "meta-7".into() };
    ops.install_peers(new_set.clone()).unwrap();
    // A client still holding the old view: kill another old replica so the
    // old view cannot reach a quorum without the replacement, and watch the
    // retry loop rediscover the new set.
    set.kill(1);
    let stale = MetaClient::new(set.replicas.clone(), dial);
    assert_eq!(stale.propose_at(1, Bytes::from_static(b"ride")).unwrap(), None);
    assert_eq!(stale.replicas(), new_set);
}
