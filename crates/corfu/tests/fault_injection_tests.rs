//! Fault injection: races between writers and hole-fillers, and flaky
//! transports. The write-once storage must arbitrate every race to exactly
//! one winner, visible identically to all readers.
//!
//! Every scenario is a schedule on the simulated transport, swept over
//! seeds: thread interleavings, delays and drops are functions of the
//! seed, so a failure replays with the command it prints.

mod support;

use std::cell::Cell;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, Outcome, SimCluster, Transport};
use corfu::proto::{StorageRequest, WriteKind};
use corfu::{CorfuError, EntryEnvelope, Page};

/// Many rounds: a writer and a filler race for the same offset from
/// different threads; afterwards every offset must hold exactly one
/// consistent value at all replicas. Seeded delays on the storage path and
/// the seeded scheduler shake the interleaving from round to round.
#[test]
fn concurrent_fill_vs_write_has_one_winner() {
    support::sweep!(concurrent_fill_vs_write_has_one_winner, |seed| {
        let cluster = SimCluster::simulated(seed, ClusterConfig::default());
        let sim = cluster.sim();
        sim.delay_calls("storage.write", 40, Duration::from_micros(200));
        let writer = cluster.client().unwrap();
        let filler = cluster.client().unwrap();

        for round in 0..50u64 {
            let token = writer.token(&[]).unwrap();
            let offset = token.offset;
            let body = EntryEnvelope::raw(Bytes::from(format!("round-{round}").into_bytes()))
                .encode(offset)
                .unwrap();
            let w = {
                let writer = writer.clone();
                let body = body.clone();
                sim.spawn("writer", move || writer.write_at(offset, &body))
            };
            let f = {
                let filler = filler.clone();
                sim.spawn("filler", move || filler.fill(offset))
            };
            let write_result = w.join().unwrap();
            let fill_result = f.join().unwrap().unwrap();

            // Exactly one interpretation must hold, and reads agree with it.
            let read = writer.read(offset).unwrap();
            match (&write_result, &fill_result) {
                (Ok(()), outcome) => {
                    // The writer won; the filler must have observed its data.
                    assert_eq!(read, Page::Data(Bytes::from(body.clone())));
                    assert!(
                        matches!(outcome, Page::Data(_)),
                        "filler must surface the winner's data, got {outcome:?}"
                    );
                }
                (Err(CorfuError::TokenLost { .. }), Page::Junk) => {
                    assert_eq!(read, Page::Junk);
                }
                other => panic!("inconsistent race outcome: {other:?}"),
            }
        }
    });
}

/// A sequencer that disappears and comes back mid-append: the client's
/// retry path (refresh layout, reconnect, retry) must ride it out.
#[test]
fn sequencer_outage_is_retried() {
    support::sweep!(sequencer_outage_is_retried, |seed| {
        let cluster = SimCluster::simulated(seed, ClusterConfig::tiny());
        let sim = cluster.sim();
        let base = cluster.client().unwrap();
        // Warm up: a normal append works.
        base.append(Bytes::from_static(b"ok")).unwrap();

        let proj = base.projection();
        let seq_addr = proj.addr_of(proj.sequencer_of(0)).unwrap().to_owned();
        // Keep a strong reference to restore after the kill.
        let handler_restore = cluster.sequencer().clone();
        sim.kill(seq_addr.clone());
        let appender = {
            let base = base.clone();
            sim.spawn("appender", move || base.append(Bytes::from_static(b"during-outage")))
        };
        sim.clock().sleep(Duration::from_millis(20));
        sim.serve(&seq_addr, handler_restore, cluster.metrics()).unwrap();
        // The append must have survived the outage via retries.
        let off = appender.join().unwrap().unwrap();
        assert!(matches!(base.read(off).unwrap(), Page::Data(_)));
    });
}

/// Several readers concurrently read a half-written chain; all must agree
/// on the repaired value.
#[test]
fn readers_agree_after_repair_races() {
    support::sweep!(readers_agree_after_repair_races, |seed| {
        let config = ClusterConfig { num_sets: 1, replication: 3, ..ClusterConfig::default() };
        let cluster = SimCluster::simulated(seed, config);
        let client = cluster.client().unwrap();
        let token = client.token(&[]).unwrap();
        let body = EntryEnvelope::raw(Bytes::from_static(b"half")).encode(token.offset).unwrap();
        // Write only the head replica directly.
        cluster.storage()[0].process(StorageRequest::Write {
            epoch: 0,
            addr: token.offset,
            kind: WriteKind::Data,
            payload: Bytes::from(body.clone()),
        });

        let readers: Vec<_> = (0..6)
            .map(|_| {
                let c = cluster.client().unwrap();
                let off = token.offset;
                cluster.sim().spawn("reader", move || c.read(off).unwrap())
            })
            .collect();
        for reader in readers {
            assert_eq!(reader.join().unwrap(), Page::Data(Bytes::from(body.clone())));
        }
    });
}

/// A lossy client→sequencer link: a seeded 30% of sequencer calls time out
/// before reaching the server. Token acquisition must retry through the
/// drops; storage traffic is untouched, so no append may fail.
#[test]
fn flaky_sequencer_transport_is_retried() {
    let dropped = Cell::new(0);
    support::sweep!(flaky_sequencer_transport_is_retried, |seed| {
        let cluster = SimCluster::simulated(seed, ClusterConfig::default());
        let sim = cluster.sim();
        sim.drop_calls("seq.", 30);
        let client = cluster.client().unwrap();

        let mut offsets = Vec::new();
        for i in 0..50u32 {
            let payload = Bytes::from(format!("flaky-{i}").into_bytes());
            let off = client.append(payload.clone()).unwrap();
            offsets.push((off, payload));
        }
        for (off, payload) in &offsets {
            assert_eq!(&client.read_entry(*off).unwrap().payload, payload);
        }
        let drops = sim.trace().iter().filter(|d| d.outcome == Outcome::Dropped).count();
        dropped.set(dropped.get() + drops);
    });
    // The link really was lossy: the schedules dropped sequencer calls.
    assert!(dropped.get() > 0, "expected the seeded schedules to drop some sequencer calls");
}
