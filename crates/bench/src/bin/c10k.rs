//! c10k curve: one epoll-backed `TcpServer`, a growing population of
//! idle connections, and a fixed active load measured at each step.
//!
//! A thread-per-connection transport would need one thread (plus stack)
//! per idle socket; the server's fixed pool holds them all in one epoll
//! set, so throughput and latency of the *active* load should stay flat
//! as the idle population grows — and the process thread count should not
//! move at all.
//!
//! Output: `results/c10k.csv` with
//! `connections,threads,ops,elapsed_ms,ops_per_sec,p50_us,p99_us,process_threads,server_conns`.

use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tango_bench::{quick, FigureOutput};
use tango_metrics::Registry;
use tango_rpc::{
    ClientConn, ConnMetrics, RpcHandler, ServerMetrics, ServerOptions, TcpConn, TcpServer,
};

/// Callers hammering the active connections while the idle herd sits.
const CALLERS: usize = 32;
/// Active multiplexed client connections shared by the callers.
const ACTIVE_CONNS: usize = 4;

/// Raise the fd soft limit to the hard limit so thousands of sockets fit.
fn raise_fd_limit() {
    const RLIMIT_NOFILE: i32 = 7;
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

struct Echo;
impl RpcHandler for Echo {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        request.to_vec()
    }
}

fn wait_for_conns(registry: &Registry, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.gauge("rpc.server_conns").get() != want {
        if Instant::now() >= deadline {
            eprintln!(
                "warning: server_conns stuck at {} (want {want})",
                registry.gauge("rpc.server_conns").get()
            );
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    raise_fd_limit();
    let sweep: &[usize] = if quick() { &[64, 256, 512] } else { &[64, 256, 1024, 2048, 4096] };
    let per_caller: usize = if quick() { 200 } else { 500 };

    let server_registry = Registry::new();
    let options = ServerOptions {
        metrics: ServerMetrics::from_registry(&server_registry),
        ..Default::default()
    };
    let server =
        TcpServer::spawn_with("127.0.0.1:0", Arc::new(Echo), options).expect("spawn echo server");
    let addr = server.local_addr().to_string();

    let mut out = FigureOutput::new(
        "c10k",
        "connections,threads,ops,elapsed_ms,ops_per_sec,p50_us,p99_us,process_threads,server_conns",
    );

    for &idle_count in sweep {
        // Grow the idle herd for this step.
        let idles: Vec<TcpStream> = (0..idle_count)
            .map(|i| {
                TcpStream::connect(&addr)
                    .unwrap_or_else(|e| panic!("idle connect {i}/{idle_count}: {e}"))
            })
            .collect();

        // Fresh active clients per step so the latency histogram is
        // per-step, not cumulative.
        let client_registry = Registry::new();
        let actives: Vec<Arc<TcpConn>> = (0..ACTIVE_CONNS)
            .map(|_| {
                Arc::new(
                    TcpConn::new(addr.clone())
                        .with_timeout(Duration::from_secs(30))
                        .with_metrics(ConnMetrics::from_registry(&client_registry)),
                )
            })
            .collect();
        // First call on each active conn dials it.
        for conn in &actives {
            assert_eq!(conn.call(b"warm").expect("warmup call"), b"warm");
        }
        wait_for_conns(&server_registry, (idle_count + ACTIVE_CONNS) as i64);

        let started = Instant::now();
        thread::scope(|s| {
            for t in 0..CALLERS {
                let conn = Arc::clone(&actives[t % actives.len()]);
                s.spawn(move || {
                    let msg = format!("c10k-payload-{t}");
                    for _ in 0..per_caller {
                        let reply = conn.call(msg.as_bytes()).expect("call under load");
                        assert_eq!(reply, msg.as_bytes());
                    }
                });
            }
        });
        let elapsed = started.elapsed();

        let ops = (CALLERS * per_caller) as f64;
        let snap = client_registry.snapshot();
        let rt = snap.histogram("rpc.round_trip_ns");
        let (p50_us, p99_us) =
            rt.map(|h| (h.p50() as f64 / 1_000.0, h.p99() as f64 / 1_000.0)).unwrap_or((0.0, 0.0));
        out.row(format!(
            "{},{},{},{:.1},{:.0},{:.1},{:.1},{},{}",
            idle_count + ACTIVE_CONNS,
            CALLERS,
            ops as u64,
            elapsed.as_secs_f64() * 1_000.0,
            ops / elapsed.as_secs_f64(),
            p50_us,
            p99_us,
            process_threads(),
            server_registry.gauge("rpc.server_conns").get(),
        ));

        // Tear the step down and wait for the server to reap the herd so
        // the next step starts clean.
        drop(actives);
        drop(idles);
        wait_for_conns(&server_registry, 0);
    }
    out.save();
}
