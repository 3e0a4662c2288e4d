//! The testbed's resources on the simulated transport
//! ([`Sim::on_testbed`]): a call pays each NIC's serialization of its real
//! frame, the rack latency, and the FIFO service queue of the node it
//! reaches — exactly, in virtual time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corfu::cluster::{Sim, Testbed, Transport};
use corfu::{ConnFactory, NodeInfo};
use tango_metrics::Registry;
use tango_rpc::frame::HEADER_LEN;
use tango_rpc::{ClientConn, RpcHandler};

/// Answers every request with `reply` bytes.
struct Echo(usize);

impl RpcHandler for Echo {
    fn handle(&self, _request: &[u8]) -> Vec<u8> {
        vec![0; self.0]
    }
}

/// A reply payload whose frame is exactly 4 KiB.
const PAGE_REPLY: usize = 4096 - HEADER_LEN;

/// Serves an [`Echo`] of `reply` bytes at `label` on `sim` and dials it.
fn serve(sim: &Sim, label: &str, reply: usize) -> Arc<dyn ClientConn> {
    sim.serve(label, Arc::new(Echo(reply)), &Registry::disabled()).unwrap();
    sim.connect(&NodeInfo { id: 0, addr: label.into() })
}

/// How long a frame with `payload` bytes takes through a gigabit NIC.
fn gigabit(payload: usize) -> Duration {
    Duration::from_nanos((HEADER_LEN + payload) as u64 * 8)
}

/// Starts every request, then finishes them in order; returns when each
/// reply was in, from when they were started.
fn in_flight(sim: &Sim, calls: &[(&Arc<dyn ClientConn>, &[u8])]) -> Vec<Duration> {
    let clock = sim.clock();
    let start: Instant = clock.now();
    let tickets: Vec<_> = calls.iter().map(|(conn, request)| conn.start(request)).collect();
    let finish = |(conn, ticket): (&&Arc<dyn ClientConn>, _)| {
        conn.finish(ticket).unwrap();
        clock.now() - start
    };
    calls.iter().map(|(conn, _)| conn).zip(tickets).map(finish).collect()
}

#[test]
fn gigabit_serialization() {
    // A 4 KiB reply frame at 1 Gb/s takes 32.768 µs through each NIC.
    let sim = Sim::on_testbed(1, Testbed::paper());
    let echo = serve(&sim, "echo-0", PAGE_REPLY);
    let took = in_flight(&sim, &[(&echo, &[9])]);
    let same_rack = Duration::from_micros(40);
    assert_eq!(gigabit(PAGE_REPLY), Duration::from_nanos(32_768));
    assert_eq!(took, [2 * gigabit(1) + 2 * same_rack + 2 * gigabit(PAGE_REPLY)]);
}

#[test]
fn pingpong_latency_math() {
    // One round trip across the racks: each way the sender's NIC, the
    // cross-rack latency, the receiver's NIC.
    let sim = Sim::on_testbed(1, Testbed::paper());
    let echo = serve(&sim, "echo-1", 100);
    let took = in_flight(&sim, &[(&echo, &[0; 100])]);
    assert_eq!(took, [4 * gigabit(100) + 2 * Duration::from_micros(55)]);
}

#[test]
fn service_queues_fifo() {
    // Two writes to one storage node: the second waits out the first's
    // 80 µs service, then takes its own.
    let sim = Sim::on_testbed(1, Testbed::paper());
    let node = serve(&sim, "storage-0", 1);
    let write: &[u8] = &[0];
    let took = in_flight(&sim, &[(&node, write), (&node, write)]);
    assert_eq!(took[1] - took[0], Duration::from_micros(80));
}

#[test]
fn parallel_servers() {
    // The same two writes to two nodes are served side by side: they
    // finish one request frame's serialization apart, not a service apart.
    let sim = Sim::on_testbed(1, Testbed::paper());
    let (a, b) = (serve(&sim, "storage-0", 1), serve(&sim, "storage-2", 1));
    let write: &[u8] = &[0];
    let took = in_flight(&sim, &[(&a, write), (&b, write)]);
    assert_eq!(took[1] - took[0], gigabit(write.len()));
}

#[test]
fn bandwidth_is_a_bottleneck() {
    // A thousand 4 KiB replies all land on one client NIC, which absorbs
    // 125 MB/s: the last is in no sooner than their serialization back to
    // back.
    let sim = Sim::on_testbed(1, Testbed::paper());
    let nodes: Vec<_> =
        (0..10).map(|i| serve(&sim, &format!("echo-{}", 2 * i), PAGE_REPLY)).collect();
    let request: &[u8] = &[0];
    let calls: Vec<_> = (0..1000).map(|i| (&nodes[i % nodes.len()], request)).collect();
    let last = *in_flight(&sim, &calls).last().unwrap();
    let wire = 1000 * gigabit(PAGE_REPLY);
    assert!(last >= wire, "{last:?} < {wire:?}");
    assert!(last < wire + Duration::from_millis(1), "{last:?}");
}

/// Fifty rounds of calls, each round in flight to two storage nodes at
/// once (one of them twice, so its service queue is used); returns every
/// reply's time and the transport's trace.
fn pingpong_rounds(seed: u64) -> (Vec<Duration>, Vec<corfu::cluster::Delivery>) {
    let sim = Sim::on_testbed(seed, Testbed::paper());
    let (a, b) = (serve(&sim, "storage-0", 1), serve(&sim, "storage-3", PAGE_REPLY));
    let request: &[u8] = &[0; 100];
    let times =
        (0..50).flat_map(|_| in_flight(&sim, &[(&a, request), (&b, request), (&a, request)]));
    (times.collect(), sim.trace())
}

#[test]
fn deterministic_across_runs() {
    // The same seed on the testbed's resources replays bit for bit: every
    // reply lands at the same virtual time, every call in the same order.
    let (times, trace) = pingpong_rounds(7);
    assert_eq!(times.len(), 150);
    assert_eq!(trace.len(), 150);
    assert_eq!((times, trace), pingpong_rounds(7));
}
