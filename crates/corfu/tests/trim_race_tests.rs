//! Races between trimming and everything else: readers polling a hole
//! that gets trimmed out from under them, and a storage node crashing in
//! the middle of background compaction whose seeded workload must replay
//! to a byte-identical state.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
use corfu::{
    ClientOptions, Compactor, CompactorConfig, ConnFactory, NodeInfo, ReadOutcome, StorageServer,
};
use tango_flash::{FlashUnit, TieredStore};
use tango_rpc::ClientConn;

#[test]
fn wait_read_returns_trimmed_mid_poll() {
    // A reader parked on an unwritten offset must surface a trim that
    // lands mid-poll immediately — not spin until the hole-fill deadline
    // and certainly not junk-fill a trimmed slot. The 30s deadline makes
    // the failure mode (waiting it out) unmistakable.
    let config = ClusterConfig {
        client_options: ClientOptions { hole_fill_timeout: Duration::from_secs(30) },
        ..ClusterConfig::default()
    };
    let cluster = LocalCluster::new(config);
    let client = cluster.client().unwrap();
    let token = client.token(&[]).unwrap();
    let off = token.offset;

    let waiter = cluster.client().unwrap();
    let start = Instant::now();
    let handle = std::thread::spawn(move || waiter.wait_read(off).unwrap());
    // Let the waiter establish its polling loop, then trim the offset.
    std::thread::sleep(Duration::from_millis(30));
    client.trim(off).unwrap();

    assert_eq!(handle.join().unwrap(), ReadOutcome::Trimmed);
    // Poll backoff caps at 16ms, so the trim surfaces within a few polls.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "waiter spun for {:?} instead of observing the trim",
        start.elapsed()
    );
}

/// What an [`Interposed`] connection does with a request before sending it.
type Before = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// Connections to storage nodes that run `before` on every request they
/// forward.
struct Interposed {
    inner: Arc<dyn ConnFactory>,
    before: Before,
}

struct InterposedConn {
    inner: Arc<dyn ClientConn>,
    before: Before,
}

impl ConnFactory for Interposed {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let inner = self.inner.connect(node);
        if !node.addr.starts_with("storage") {
            return inner;
        }
        Arc::new(InterposedConn { inner, before: Arc::clone(&self.before) })
    }
}

impl ClientConn for InterposedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        (self.before)(request);
        self.inner.call(request)
    }
}

#[test]
fn a_trim_overtaking_a_chain_repair_reads_as_trimmed() {
    // An entry that reached the head only; the reader finds the tail empty,
    // goes to the head for the value — and by the time it brings it to the
    // tail a prefix trim has passed the offset. That is an offset that was
    // trimmed, not a storage failure.
    let config = ClusterConfig { num_sets: 1, replication: 2, ..ClusterConfig::default() };
    let cluster = LocalCluster::new(config);
    let (head, tail) = (Arc::clone(&cluster.storage()[0]), Arc::clone(&cluster.storage()[1]));
    let half_written = StorageRequest::Write {
        epoch: 0,
        addr: 0,
        kind: WriteKind::Data,
        payload: Bytes::from_static(b"head only"),
    };
    assert_eq!(head.process(half_written), StorageResponse::Ok);
    // The only `Write` (tag 0) this reader sends is the repair's.
    let trim_at_repair: Before = Arc::new(move |request| {
        if request.first() == Some(&0) {
            for node in [&head, &tail] {
                let trim = StorageRequest::TrimPrefix { epoch: 0, horizon: 1 };
                assert_eq!(node.process(trim), StorageResponse::Ok);
            }
        }
    });
    let factory = Arc::new(Interposed { inner: cluster.conn_factory(), before: trim_at_repair });
    let reader = cluster
        .client_with_factory(factory, ClientOptions::default(), cluster.metrics().clone())
        .unwrap();
    assert_eq!(reader.read_many(&[0]).unwrap(), [ReadOutcome::Trimmed]);
}

/// One deterministic storage operation of the seeded churn workload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Write { addr: u64, payload: Vec<u8> },
    Fill { addr: u64 },
    TrimPrefix { horizon: u64 },
}

/// A tiny deterministic generator (no external RNG dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The full workload for `seed`: rounds of writes (with occasional junk
/// fills) chased by a prefix trim that trails the tail. Entirely a
/// function of the seed, so two applications are comparable byte for byte.
fn seeded_workload(seed: u64) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let mut ops = Vec::new();
    const ROUND: u64 = 16;
    const ROUNDS: u64 = 10;
    for round in 0..ROUNDS {
        let base = round * ROUND;
        for addr in base..base + ROUND {
            if rng.next().is_multiple_of(7) {
                ops.push(Op::Fill { addr });
            } else {
                let filler = rng.next() % 100;
                ops.push(Op::Write {
                    addr,
                    payload: format!("s{seed}-a{addr}-{filler}").into_bytes(),
                });
            }
        }
        // Trim trails the tail by 8-23 pages; never regresses (the unit
        // treats a lower horizon as a no-op anyway).
        let lag = 8 + rng.next() % 16;
        ops.push(Op::TrimPrefix { horizon: base.saturating_sub(lag) });
    }
    ops
}

/// Applies `op`. `replay` accepts the outcomes a second application of the
/// same history produces: write-once arbitration on surviving pages and
/// trims on pages below the persisted horizon.
fn apply(server: &StorageServer, op: &Op, replay: bool) {
    let resp = match op {
        Op::Write { addr, payload } => server.process(StorageRequest::Write {
            epoch: 0,
            addr: *addr,
            kind: WriteKind::Data,
            payload: Bytes::from(payload.clone()),
        }),
        Op::Fill { addr } => server.process(StorageRequest::Write {
            epoch: 0,
            addr: *addr,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        }),
        Op::TrimPrefix { horizon } => {
            server.process(StorageRequest::TrimPrefix { epoch: 0, horizon: *horizon })
        }
    };
    match resp {
        StorageResponse::Ok => {}
        StorageResponse::ErrAlreadyWritten | StorageResponse::ErrTrimmed if replay => {}
        other => panic!("{op:?} (replay={replay}) failed: {other:?}"),
    }
}

fn open_tiered_server(dir: &std::path::Path) -> Arc<StorageServer> {
    let store = TieredStore::open(dir, 256, 8, 4).unwrap();
    let unit = FlashUnit::open(Box::new(store), 256).unwrap();
    Arc::new(StorageServer::new(unit))
}

/// Runs the seeded workload twice: once on a control node that never
/// fails, and once on a node whose process dies mid-workload while a
/// background compactor is actively migrating and reclaiming underneath
/// it (the RAM hot tail is lost with the process). Replaying the same
/// history into the reopened node must converge on a state byte-identical
/// to the control's.
fn kill_mid_compaction_replays_identically(seed: u64) {
    let base =
        std::env::temp_dir().join(format!("tango-trim-race-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let crash_dir = base.join("crash");
    let control_dir = base.join("control");

    let ops = seeded_workload(seed);
    let crash_at = ops.len() / 2 + (seed as usize % 7);

    // Control: the full history, no failure, no background compactor.
    let control = open_tiered_server(&control_dir);
    for op in &ops {
        apply(&control, op, false);
    }

    // Crash run: background compactor racing the workload, killed partway.
    {
        let server = open_tiered_server(&crash_dir);
        let mut compactor = Compactor::spawn(
            Arc::clone(&server),
            CompactorConfig { interval: Duration::from_millis(1), scrub_every: 3 },
        );
        for (i, op) in ops[..crash_at].iter().enumerate() {
            apply(&server, op, false);
            if i % 20 == 0 {
                // Yield so compaction passes interleave with the workload.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        compactor.stop();
        // Dropping the server drops the tiered store's RAM hot tail: every
        // page not yet migrated or synced dies with the "process".
    }

    // Restart and replay the whole history. Durable pages answer with
    // write-once arbitration, trimmed pages with trims; everything lost
    // with the hot tail is re-installed.
    let revived = open_tiered_server(&crash_dir);
    for op in &ops {
        apply(&revived, op, true);
    }

    // Let both nodes finish compacting, then compare every address.
    for server in [&revived, &control] {
        loop {
            let before = server.tier_stats();
            server.compact_once(true);
            if server.tier_stats() == before {
                break;
            }
        }
    }
    let scrub = revived.compact_once(true).scrub.expect("scrub requested");
    assert_eq!(scrub.errors, 0, "cold tier corrupt after crash+replay (seed {seed:#x})");

    let tail = 10 * 16;
    for addr in 0..tail {
        let read = |s: &StorageServer| s.process(StorageRequest::Read { epoch: 0, addr });
        assert_eq!(read(&revived), read(&control), "divergence at addr {addr} (seed {seed:#x})");
    }
    assert_eq!(revived.trim_horizon(), control.trim_horizon(), "seed {seed:#x}");
    assert_eq!(revived.occupancy(), control.occupancy(), "seed {seed:#x}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn kill_mid_compaction_replays_identically_seed_a() {
    kill_mid_compaction_replays_identically(0xA5A5);
}

#[test]
fn kill_mid_compaction_replays_identically_seed_b() {
    kill_mid_compaction_replays_identically(0x5EED);
}
