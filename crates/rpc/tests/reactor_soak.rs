//! Thread-budget soak: one server under hundreds of mixed idle/active
//! connections. Asserts (a) responses stay correct under pipelining while
//! idle connections pile up, and (b) the server's thread count stays
//! constant — and the clients' at zero — as the connection count grows:
//! the property the epoll pool exists to provide.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tango_metrics::Registry;
use tango_rpc::{
    ClientConn, RpcHandler, ServerMetrics, ServerOptions, TcpConn, TcpServer, SERVER_WORKERS,
};

mod support;
use support::{threads_named, wait_until};

struct Reverse;
impl RpcHandler for Reverse {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut out = request.to_vec();
        out.reverse();
        out
    }
}

/// The threads the transport owns on either side of the sockets: the
/// server's pool by name, and on the client side whatever else exists
/// beyond the `bystanders` counted before the transport was touched (the
/// test harness; this binary has one test). Callers read their own
/// sockets, so once a round's caller threads are gone that must be zero.
fn transport_threads(server: &TcpServer, bystanders: usize) -> (usize, usize) {
    let own = threads_named(&format!("rpc{}-", server.local_addr().port()));
    (own, threads_named("").saturating_sub(own + bystanders))
}

/// One round of pipelined traffic: `threads` caller threads share the
/// given connections and verify every response matches its request.
fn traffic_round(conns: &[Arc<TcpConn>], threads: usize, calls_per_thread: usize) {
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let conn = Arc::clone(&conns[t % conns.len()]);
            std::thread::spawn(move || {
                for c in 0..calls_per_thread {
                    let msg = format!("soak-{t}-{c}");
                    let mut expected = msg.clone().into_bytes();
                    expected.reverse();
                    assert_eq!(
                        conn.call(msg.as_bytes()).expect("call failed under soak"),
                        expected,
                        "response routed to the wrong caller"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn hundreds_of_connections_on_a_fixed_thread_budget() {
    let bystanders = threads_named("");
    let registry = Registry::new();
    let options =
        ServerOptions { metrics: ServerMetrics::from_registry(&registry), ..Default::default() };
    let server = TcpServer::spawn_with("127.0.0.1:0", Arc::new(Reverse), options).unwrap();
    let addr = server.local_addr().to_string();

    // Active connections: a handful of multiplexed clients shared by many
    // caller threads, which take turns reading each socket.
    let actives: Vec<Arc<TcpConn>> = (0..4)
        .map(|_| Arc::new(TcpConn::new(addr.clone()).with_timeout(Duration::from_secs(10))))
        .collect();

    // Warm up so every long-lived thread exists (and every caller thread
    // of the round is gone again).
    traffic_round(&actives, 8, 5);
    let budget = (SERVER_WORKERS, 0);
    let within_budget = || transport_threads(&server, bystanders) == budget;
    wait_until("the transport's threads are up and the callers gone", within_budget);

    // Grow an idle population in batches; after each batch the thread
    // count must not have moved and pipelined traffic must stay correct.
    let mut idles: Vec<TcpStream> = Vec::new();
    for batch in 0..4 {
        for _ in 0..75 {
            idles.push(TcpStream::connect(&addr).unwrap());
        }
        // Let the server register the batch.
        let want = (idles.len() + actives.len()) as i64;
        wait_until("the server registered the batch", || {
            registry.gauge("rpc.server_conns").get() >= want
        });
        traffic_round(&actives, 8, 10);
        // (Polled only because a joined caller thread can outlive its
        // `join` in procfs by a moment.)
        wait_until(
            &format!("threads are back to budget at {} conns, batch {batch}", idles.len()),
            within_budget,
        );
    }
    assert!(idles.len() >= 300, "soak must cover hundreds of connections");
    assert_eq!(registry.counter("rpc.accepts_dropped").get(), 0);

    // Idle connections come and go without disturbing the budget.
    idles.truncate(50);
    traffic_round(&actives, 8, 10);
    wait_until("threads are back to budget after the idle herd shrank", within_budget);
}
