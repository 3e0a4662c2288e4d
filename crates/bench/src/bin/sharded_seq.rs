//! Sharded-log scaling: aggregate append throughput at N = 1, 2, 4 logs.
//!
//! The single sequencer is Tango's append-path ceiling (~570K tokens/s,
//! fig. 2): every append in the cluster pays one round trip to one
//! single-threaded network service, no matter how many replica sets the
//! address space stripes over. Sharding the stream namespace gives each
//! log its own sequencer, so aggregate token throughput scales with N.
//!
//! The in-process harness dispatches RPCs as direct function calls, which
//! hides exactly the property under test — a real sequencer serves its
//! port from one thread. The [`GatedSeqFactory`] restores it: calls to a
//! sequencer node serialize behind that node's mutex and pay a fixed
//! service time inside it, the same modeling choice as the simulated
//! testbed's sequencer queue (`corfu::cluster::Testbed`, fig. 2). Storage
//! and layout traffic pass through ungated. With one gate (N=1) the
//! appenders all queue on one mutex;
//! with N logs the gates — like the real sequencers — are independent.
//!
//! Output: `results/sharded_seq.csv` with
//! `num_logs,threads,appends,elapsed_ms,appends_per_sec,speedup_vs_single`.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, SEQUENCER_BASE_ID, STORAGE_REPLACEMENT_BASE_ID};
use corfu::{ClientOptions, ConnFactory, NodeId, NodeInfo, StreamId};
use parking_lot::Mutex;
use tango_bench::{quick, FigureOutput};
use tango_metrics::Registry;
use tango_rpc::ClientConn;

/// Per-token service time of the modeled sequencer. Large relative to the
/// harness's per-append CPU cost so the gate, not the host CPU, is the
/// measured bottleneck (the paper's sequencer sustains ~1.75us/token; the
/// model only needs the *ratio* across N to be meaningful).
const SEQ_SERVICE: Duration = Duration::from_micros(100);

struct GatedSeqFactory {
    inner: Arc<dyn ConnFactory>,
    gates: Mutex<HashMap<NodeId, Arc<Mutex<()>>>>,
}

struct GatedConn {
    inner: Arc<dyn ClientConn>,
    gate: Arc<Mutex<()>>,
}

impl ClientConn for GatedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let _serialized = self.gate.lock();
        thread::sleep(SEQ_SERVICE);
        self.inner.call(request)
    }
}

impl ConnFactory for GatedSeqFactory {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let inner = self.inner.connect(node);
        if (SEQUENCER_BASE_ID..STORAGE_REPLACEMENT_BASE_ID).contains(&node.id) {
            let gate = Arc::clone(self.gates.lock().entry(node.id).or_default());
            Arc::new(GatedConn { inner, gate })
        } else {
            inner
        }
    }
}

/// First stream id at or after `from` homed in `log`.
fn stream_in_log(proj: &corfu::Projection, log: u32, from: StreamId) -> StreamId {
    (from..).find(|&s| proj.log_of_stream(s) == log).expect("shard map is total")
}

/// Aggregate appends/s of `threads` closed-loop appenders, each pinned to
/// a stream homed in log `t % num_logs`.
fn run_point(num_logs: usize, threads: usize, per_thread: usize) -> f64 {
    let cluster = LocalCluster::new(ClusterConfig::sharded(num_logs));
    let factory = Arc::new(GatedSeqFactory {
        inner: cluster.conn_factory(),
        gates: Mutex::new(HashMap::new()),
    });
    let client = Arc::new(
        cluster
            .client_with_factory(factory, ClientOptions::default(), Registry::disabled())
            .expect("client"),
    );
    let proj = client.projection();
    let streams: Vec<StreamId> = (0..threads)
        .map(|t| stream_in_log(&proj, (t % num_logs) as u32, 100 + 10 * t as StreamId))
        .collect();

    let started = Instant::now();
    thread::scope(|s| {
        for (t, &stream) in streams.iter().enumerate() {
            let client = Arc::clone(&client);
            s.spawn(move || {
                for i in 0..per_thread {
                    client
                        .append_streams(&[stream], Bytes::from(format!("sharded-{t}-{i}")))
                        .expect("append");
                }
            });
        }
    });
    (threads * per_thread) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let quick = quick();
    let (threads, per_thread) = if quick { (8, 60) } else { (8, 400) };
    let log_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut out = FigureOutput::new(
        "sharded_seq",
        "num_logs,threads,appends,elapsed_ms,appends_per_sec,speedup_vs_single",
    );
    let mut single = None;
    for &n in log_counts {
        let started = Instant::now();
        let tput = run_point(n, threads, per_thread);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let base = *single.get_or_insert(tput);
        let speedup = tput / base;
        out.row(format!(
            "{n},{threads},{},{elapsed_ms:.1},{tput:.0},{speedup:.2}",
            threads * per_thread
        ));
        eprintln!("N={n}: {tput:.0} appends/s ({speedup:.2}x vs single log)");
    }
    out.save();
}
