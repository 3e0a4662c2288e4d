//! Integration tests for the metalog: quorum writes/reads over an
//! in-process replica set, failover past dead replicas, half-written
//! repair, replacement catch-up, and peer discovery.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// A connection that counts the calls made on it.
struct CountedConn {
    inner: SwitchConn,
    calls: Arc<AtomicUsize>,
}

impl ClientConn for CountedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.call(request)
    }
}

/// Three bootstrapped metalog replicas with per-replica kill switches, and
/// per replica the dials and calls made through [`TestSet::dial`].
struct TestSet {
    nodes: Vec<Arc<MetaNode>>,
    alive: Vec<Arc<AtomicBool>>,
    replicas: Vec<ReplicaInfo>,
    dials: Vec<Arc<AtomicUsize>>,
    calls: Vec<Arc<AtomicUsize>>,
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
        let counters = || (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        Self { nodes, alive, replicas, dials: counters(), calls: counters() }
    }

    fn dial(&self) -> Arc<dyn tango_meta::Dial> {
        let nodes = self.nodes.clone();
        let alive = self.alive.clone();
        let (dials, calls) = (self.dials.clone(), self.calls.clone());
        Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
            let idx = replica.id as usize;
            dials[idx].fetch_add(1, Ordering::SeqCst);
            let inner =
                SwitchConn { node: Arc::clone(&nodes[idx]), alive: Arc::clone(&alive[idx]) };
            Arc::new(CountedConn { inner, calls: Arc::clone(&calls[idx]) })
        })
    }

    /// Calls made to each replica so far, and the counters reset.
    fn take_calls(&self) -> Vec<usize> {
        self.calls.iter().map(|c| c.swap(0, Ordering::SeqCst)).collect()
    }

    /// Writes `record` at `pos` on the replicas `at` only, as a proposer
    /// that reached just those would have.
    fn write_on(&self, at: &[usize], pos: u64, record: &Bytes) {
        for &idx in at {
            let written =
                self.nodes[idx].process(MetaRequest::Write { pos, record: record.clone() });
            assert_eq!(written, tango_meta::proto::MetaResponse::Ok);
        }
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
    let rec = Bytes::from_static(b"epoch-1");
    let stray = Bytes::from_static(b"stray");
    // Replica 0 holds a stray record at position 5 whose proposer died
    // before reaching a quorum. Replica 0 is in the majority `latest()`
    // asks, which then disagrees, and the fallback's quorum reads resolve
    // the ambiguity by completing the write (roll-forward).
    let set = TestSet::new(3);
    let client = set.client();
    client.propose_at(1, rec.clone()).unwrap();
    set.write_on(&[0], 5, &stray);
    assert_eq!(client.latest().unwrap(), (5, stray.clone()));
    assert_eq!(set.nodes[1].tail(), 6, "the stray was copied to a majority");
    // Held only by replica 2, the stray is outside the majority that
    // answers first, which agrees on position 1: it reads as undecided,
    // as it does while its holder is unreachable.
    let set = TestSet::new(3);
    let client = set.client();
    client.propose_at(1, rec.clone()).unwrap();
    set.write_on(&[2], 5, &stray);
    assert_eq!(client.latest().unwrap(), (1, rec.clone()));
    set.kill(2);
    assert_eq!(client.latest().unwrap(), (1, rec.clone()));
    // If the only holder is in the asked majority but dies after reporting
    // its tail, the fallback finds position 5 undecided (a majority answers
    // "unwritten") and skips downward to the newest decided record.
    let set = TestSet::new(3);
    set.client().propose_at(1, rec.clone()).unwrap();
    set.write_on(&[0], 5, &stray);
    // Replica 0 answers exactly two calls (the one-round `Latest`, which
    // disagrees with replica 1's, and the fallback's tail query), then
    // dies. The conns are built once so a re-dial cannot resurrect the
    // budget.
    let conns: Vec<Arc<BudgetConn>> = set
        .nodes
        .iter()
        .enumerate()
        .map(|(idx, node)| {
            let budget = if idx == 0 { 2 } else { i64::MAX };
            Arc::new(BudgetConn {
                node: Arc::clone(node),
                remaining: std::sync::atomic::AtomicI64::new(budget),
            })
        })
        .collect();
    let dial = conns.clone();
    let dying = MetaClient::new(
        set.replicas.clone(),
        Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
            dial[replica.id as usize].clone()
        }),
    );
    assert_eq!(dying.latest().unwrap(), (1, rec));
    assert_eq!(set.nodes[1].tail(), 2, "nothing above position 1 was rolled forward");
    // Replica 1 saw `Latest`, the tail query and one read for each of
    // positions 5 down to 1: the tail round did see replica 0's tail 6.
    let served = i64::MAX - conns[1].remaining.load(Ordering::SeqCst);
    assert_eq!(served, 7, "replica 1 served {served} calls");
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
fn latest_agreed_by_a_majority_takes_two_calls_and_never_dials_replica_2() {
    let set = TestSet::new(3);
    let rec = Bytes::from_static(b"epoch-1");
    set.client().propose_at(1, rec.clone()).unwrap();
    set.take_calls();
    set.dials.iter().for_each(|d| d.store(0, Ordering::SeqCst));
    assert_eq!(set.client().latest().unwrap(), (1, rec));
    assert_eq!(set.take_calls(), [1, 1, 0]);
    assert_eq!(set.dials[2].load(Ordering::SeqCst), 0, "replica 2 was dialled");
}

#[test]
fn latest_past_a_dead_replica_0_comes_from_replicas_1_and_2() {
    let set = TestSet::new(3);
    let rec = Bytes::from_static(b"epoch-1");
    set.client().propose_at(1, rec.clone()).unwrap();
    set.kill(0);
    set.take_calls();
    assert_eq!(set.client().latest().unwrap(), (1, rec));
    assert_eq!(set.take_calls(), [1, 1, 1]);
}

/// What replica 0, first in the list, says is not what a majority decided:
/// position 2 is decided on replicas 1 and 2 while replica 0 has never
/// heard of it. A one-round read that trusted replica 0 would answer 1.
#[test]
fn a_lagging_replica_0_sends_latest_through_the_fallback() {
    let set = TestSet::new(3);
    let client = set.client();
    client.propose_at(1, Bytes::from_static(b"epoch-1")).unwrap();
    // Position 2 was decided while replica 0 was down: it lags.
    let rec = Bytes::from_static(b"epoch-2");
    set.write_on(&[1, 2], 2, &rec);
    set.take_calls();
    assert_eq!(client.latest().unwrap(), (2, rec));
    let calls = set.take_calls();
    // The one round (replicas 0 and 1 disagree), then a tail round and a
    // read round over all three.
    assert_eq!(calls, [3, 3, 2], "{calls:?}");
}

/// A replica whose store fails every operation: it answers each request,
/// and each with `ErrStorage`.
struct FailingStoreConn;

impl ClientConn for FailingStoreConn {
    fn call(&self, _request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let reason = "disk error".to_owned();
        Ok(tango_wire::encode_to_vec(&tango_meta::proto::MetaResponse::ErrStorage { reason }))
    }
}

/// A disk error on one replica is that replica's fault, as an unreachable
/// replica is: every quorum operation fails over to the healthy majority.
#[test]
fn a_replica_whose_store_fails_is_failed_over_like_an_unreachable_one() {
    let set = TestSet::new(3);
    let healthy = set.dial();
    let client = MetaClient::new(
        set.replicas.clone(),
        Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
            match replica.id {
                0 => Arc::new(FailingStoreConn),
                _ => healthy.dial(replica),
            }
        }),
    )
    .with_metrics(&Registry::new());
    let rec = Bytes::from_static(b"epoch-1");
    assert_eq!(client.propose_at(1, rec.clone()).unwrap(), None);
    assert_eq!(client.read_decided(1).unwrap(), Some(rec.clone()));
    assert_eq!(client.latest().unwrap(), (1, rec));
    assert!(client.metrics().failovers.get() > 0, "a disk error counts as a failover");
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
