//! Races between trimming and everything else: readers polling a hole
//! that gets trimmed out from under them (schedules on the simulated
//! transport), and a storage node crashing in the middle of background
//! compaction whose seeded workload must replay to a byte-identical state.

mod support;

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, SimCluster};
use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
use corfu::{
    ClientOptions, Compactor, CompactorConfig, ConnFactory, NodeInfo, Page, StorageServer,
};
use support::history::{self, History, Ret};
use tango_flash::{FlashUnit, TieredStore};
use tango_wire::{decode_from_slice, encode_to_vec};

/// The cap on a waiting reader's poll backoff.
const HOLE_POLL_MAX: Duration = Duration::from_millis(16);

/// A reader parked on an unwritten offset must surface a trim that lands
/// mid-poll — at a seeded moment — within one poll: not spin until the
/// hole-fill deadline and certainly not junk-fill a trimmed slot. The 30 s
/// deadline makes the failure mode (waiting it out) unmistakable.
#[test]
fn wait_read_returns_trimmed_mid_poll() {
    support::sweep!(wait_read_returns_trimmed_mid_poll, |seed| {
        let config = ClusterConfig {
            client_options: ClientOptions { hole_fill_timeout: Duration::from_secs(30) },
            ..ClusterConfig::default()
        };
        let cluster = SimCluster::simulated(seed, config);
        let sim = cluster.sim();
        let history = History::new(sim.clock());
        let client = history.client("trimmer", cluster.client().unwrap());
        let off = client.unrecorded().token(&[]).unwrap().offset;

        let waiter = history.client("waiter", cluster.client().unwrap());
        let handle = sim.spawn("waiter", move || waiter.wait_read(off).unwrap());
        // Let the waiter establish its polling loop, then trim the offset.
        let clock = sim.clock();
        clock.sleep(Duration::from_micros(seed % 100_000));
        client.trim(off).unwrap();
        let trimmed = clock.now();

        assert_eq!(handle.join().unwrap(), Page::Trimmed);
        let waited = clock.now() - trimmed;
        assert!(
            waited <= HOLE_POLL_MAX + Duration::from_millis(1),
            "waiter spun for {waited:?} after the trim instead of observing it"
        );
        history.judge(&cluster);
    });
}

/// An entry that reached the head only; the reader finds the tail empty,
/// goes to the head for the value and brings it to the tail — while a
/// prefix trim, sent to both replicas at once, passes the offset at every
/// moment of that walk in turn. An offset trimmed before the reader's
/// repair lands reads as trimmed, never as a storage failure; one trimmed
/// after it reads as the data.
#[test]
fn a_trim_overtaking_a_chain_repair_reads_as_trimmed() {
    let overtaken = std::cell::Cell::new(0);
    support::sweep!(a_trim_overtaking_a_chain_repair_reads_as_trimmed, |seed| {
        for step in 0..16u64 {
            let config = ClusterConfig { num_sets: 1, replication: 2, ..ClusterConfig::default() };
            let cluster = SimCluster::simulated(seed, config);
            let sim = cluster.sim();
            sim.delay_calls("storage.", 30, Duration::from_micros(5));
            let history = History::new(sim.clock());
            let payload = Bytes::from_static(b"head only");
            let head =
                history.invoke("head", history::Op::Write { offset: 0, body: payload.clone() });
            let half_written =
                StorageRequest::Write { epoch: 0, addr: 0, kind: WriteKind::Data, payload };
            assert_eq!(cluster.storage()[0].process(half_written), StorageResponse::Ok);
            history.complete(head, Ret::Done);
            let (reader, recorder) = (cluster.client().unwrap(), history.clone());
            let read = sim.spawn("reader", move || {
                let (op, read) = (history::Op::Read { offset: 0 }, || reader.read_many(&[0]));
                recorder.record("reader", op, read, |r| Ret::of(r, |p| Ret::Page(p[0].clone())))
            });
            sim.clock().sleep(Duration::from_micros(step * 10));
            let trimming = history.invoke("trimmer", history::Op::TrimPrefix { horizon: 1 });
            let trim = encode_to_vec(&StorageRequest::TrimPrefix { epoch: 0, horizon: 1 });
            let replicas =
                [0, 1].map(|id| sim.connect(&NodeInfo { id, addr: format!("storage-{id}") }));
            let tickets = replicas.each_ref().map(|conn| conn.start(&trim));
            for (conn, ticket) in replicas.iter().zip(tickets) {
                let trimmed: StorageResponse =
                    decode_from_slice(&conn.finish(ticket).unwrap()).unwrap();
                assert_eq!(trimmed, StorageResponse::Ok);
            }
            history.complete(trimming, Ret::Done);
            let outcome = read.join().unwrap().unwrap();
            history.judge(&cluster);

            // Whether the repair write reached the tail after the trim did.
            let trace = sim.trace();
            let at_tail =
                |point: &str| trace.iter().position(|d| d.to == "storage-1" && d.point == point);
            if let (Some(repair), Some(trim)) =
                (at_tail("storage.write"), at_tail("storage.trim_prefix"))
            {
                if trim < repair {
                    overtaken.set(overtaken.get() + 1);
                    assert_eq!(outcome, [Page::Trimmed], "a trimmed repair is a trim");
                }
            }
            assert!(
                outcome == [Page::Trimmed]
                    || outcome == [Page::Data(Bytes::from_static(b"head only"))],
                "{outcome:?}"
            );
        }
    });
    assert!(overtaken.get() > 0, "some trim must land between the head read and the repair");
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
