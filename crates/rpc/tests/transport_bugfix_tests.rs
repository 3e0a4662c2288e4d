//! Regression tests for the four transport bugs fixed alongside the
//! epoll port:
//!
//! 1. `TcpConn::live()` used to hold the connection mutex across a
//!    `TcpStream::connect` with no connect timeout — one unreachable
//!    server stalled every concurrent caller for the OS dial timeout.
//! 2. `accept_loop` used to silently drop an accepted connection when
//!    per-connection thread spawn failed; drops (now: over-cap accepts
//!    and reactor registration failures) must be counted.
//! 3. `TcpServer::shutdown` used to self-poke via
//!    `TcpStream::connect(self.addr)`, a no-op for wildcard binds.
//! 4. The scrape endpoint used to spawn one unbounded thread per request.
//!    It is now a request to the RPC server itself, which must answer a
//!    burst of them on its fixed pool.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tango_metrics::{Registry, Snapshot};
use tango_rpc::frame::{read_frame, write_frame};
use tango_rpc::{
    serve_snapshot, ClientConn, RpcHandler, ServerMetrics, ServerOptions, TcpConn, TcpServer,
    SERVER_WORKERS, SNAPSHOT_REQUEST,
};

mod support;
use support::{threads_named, wait_until};

struct Echo;
impl RpcHandler for Echo {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        request.to_vec()
    }
}

/// A listener that accepts nothing and whose accept queue is full, so new
/// connection attempts to it hang until the dialer's own timeout: the
/// closest thing to a blackholed address that works without real network
/// access. Returns the address and the streams keeping the queue full.
fn blackholed_addr() -> (SocketAddr, Vec<TcpStream>) {
    // A zero-backlog listener via the libc std already links; Rust's
    // TcpListener hardcodes a backlog of 128, far too big to fill.
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn getsockname(fd: i32, addr: *mut u8, len: *mut u32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    // struct sockaddr_in: family(2) + port(2, BE) + addr(4, BE) + zero(8)
    let mut sa = [0u8; 16];
    sa[0] = AF_INET as u8;
    sa[4..8].copy_from_slice(&[127, 0, 0, 1]);
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "socket() failed");
    let rc = unsafe { bind(fd, sa.as_ptr(), sa.len() as u32) };
    assert_eq!(rc, 0, "bind() failed");
    let rc = unsafe { listen(fd, 0) };
    assert_eq!(rc, 0, "listen() failed");
    let mut len = sa.len() as u32;
    let rc = unsafe { getsockname(fd, sa.as_mut_ptr(), &mut len) };
    assert_eq!(rc, 0, "getsockname() failed");
    let port = u16::from_be_bytes([sa[2], sa[3]]);
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    // Leak the listener fd for the test's lifetime (never accepts).
    // Fill the accept queue until a connect attempt times out: from then
    // on the address blackholes new dials.
    let mut fillers = Vec::new();
    for _ in 0..16 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Ok(s) => fillers.push(s),
            Err(_) => return (addr, fillers),
        }
    }
    panic!("could not fill the accept queue of a zero-backlog listener");
}

/// Bug 1: a dial to an unreachable server must be bounded by the per-call
/// timeout, and a concurrent caller on the same `TcpConn` must not be
/// serialized behind it (the dial happens outside the connection lock).
#[test]
fn blackholed_dial_is_bounded_and_does_not_serialize_callers() {
    let (addr, _fillers) = blackholed_addr();
    let timeout = Duration::from_millis(1500);
    let conn = Arc::new(TcpConn::new(addr.to_string()).with_timeout(timeout));

    let start = Instant::now();
    let mut callers = Vec::new();
    for _ in 0..2 {
        let conn = Arc::clone(&conn);
        callers.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let result = conn.call(b"ping");
            (result, t0.elapsed())
        }));
    }
    for caller in callers {
        let (result, elapsed) = caller.join().unwrap();
        assert!(result.is_err(), "call to a blackholed address must fail");
        // The old code had no connect timeout at all: a dial sat in the
        // OS handshake for minutes. Per-call timeout plus retry slack is
        // the ceiling now.
        assert!(
            elapsed < timeout * 2 + Duration::from_millis(500),
            "caller took {elapsed:?}, dial not bounded by per-call timeout"
        );
    }
    // Both callers dialed concurrently. Were the mutex still held across
    // the dial, the second caller would queue behind the first and total
    // wall time would be at least two full dial timeouts.
    let wall = start.elapsed();
    assert!(
        wall < timeout * 2,
        "callers serialized: {wall:?} wall for two concurrent {timeout:?} dials"
    );
}

/// Bug 2: accepted connections the server cannot service (here: over the
/// connection cap) are closed explicitly and counted in
/// `rpc.accepts_dropped`, not silently leaked.
#[test]
fn over_cap_accepts_are_closed_and_counted() {
    let registry = Registry::new();
    let options = ServerOptions { metrics: ServerMetrics::from_registry(&registry), max_conns: 2 };
    let server = TcpServer::spawn_with("127.0.0.1:0", Arc::new(Echo), options).unwrap();
    let addr = server.local_addr().to_string();

    // Two connections fit under the cap and answer RPCs.
    let a = TcpConn::new(addr.clone()).with_timeout(Duration::from_secs(5));
    let b = TcpConn::new(addr.clone()).with_timeout(Duration::from_secs(5));
    assert_eq!(a.call(b"one").unwrap(), b"one");
    assert_eq!(b.call(b"two").unwrap(), b"two");
    assert_eq!(registry.gauge("rpc.server_conns").get(), 2);

    // The third is accepted by the kernel, then closed by the reactor:
    // the peer observes EOF (or a reset), never a hung socket.
    let mut third = TcpStream::connect(&addr).unwrap();
    third.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    match third.read(&mut buf) {
        Ok(0) => {} // clean close
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("over-cap connection saw {other:?}, expected EOF/reset"),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.counter("rpc.accepts_dropped").get() == 0 {
        assert!(Instant::now() < deadline, "accepts_dropped never incremented");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(registry.counter("rpc.accepts_dropped").get(), 1);

    // The two in-cap connections still work after the drop.
    assert_eq!(a.call(b"still").unwrap(), b"still");
}

/// Bug 3: shutting down a server bound to a wildcard address completes
/// promptly. The old self-poke (`connect(self.addr)`) dialed
/// `0.0.0.0:port`, which does not reach the listener deterministically;
/// the reactor waker does not care what the listener is bound to.
#[test]
fn wildcard_bound_server_shuts_down_promptly() {
    let mut server = TcpServer::spawn("0.0.0.0:0", Arc::new(Echo)).unwrap();
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "wildcard server shutdown took {:?}",
        start.elapsed()
    );
}

/// Bug 4: a burst of concurrent scrapes is served by the node's one fixed
/// pool: 24 snapshot requests piled onto one node are all answered, and the
/// node owns exactly its `SERVER_WORKERS` threads — and no second server's —
/// throughout.
#[test]
fn scrape_burst_is_served_without_thread_growth() {
    let registry = Registry::new();
    registry.counter("burst.probe").add(7);
    let handler = serve_snapshot(registry, Arc::new(Echo));
    let server = TcpServer::spawn("127.0.0.1:0", handler).unwrap();
    let addr = server.local_addr();
    let own = format!("rpc{}-w", addr.port());
    let budget = SERVER_WORKERS;
    wait_until("the server pool is up", || threads_named(&own) == budget);

    // Pile up 24 connections, each with its request already sent. The old
    // endpoint spawned a thread per accepted connection right here.
    let streams: Vec<TcpStream> = (0..24)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut s, i, SNAPSHOT_REQUEST).unwrap();
            s
        })
        .collect();

    // Every queued request is answered, and at no point while the burst
    // drains does the node own a thread beyond its pool.
    for (i, mut s) in streams.into_iter().enumerate() {
        assert_eq!(threads_named(&own), budget, "server grew threads under connection burst");
        assert_eq!(threads_named("http"), 0, "a node is one server");
        let frame = read_frame(&mut s).unwrap();
        assert_eq!(frame.id, i as u64);
        assert_eq!(Snapshot::from_bytes(&frame.payload).unwrap().counter("burst.probe"), 7);
    }
    assert_eq!(threads_named(&own), budget);
}

/// The whole point of the epoll pool: more connections must not mean more
/// threads. 32 idle connections registered, zero additional threads.
#[test]
fn server_thread_budget_is_fixed() {
    let registry = Registry::new();
    let options =
        ServerOptions { metrics: ServerMetrics::from_registry(&registry), ..Default::default() };
    let server = TcpServer::spawn_with("127.0.0.1:0", Arc::new(Echo), options).unwrap();
    let addr = server.local_addr();
    let own = format!("rpc{}-", addr.port());
    let budget = SERVER_WORKERS;
    wait_until("the server pool is up", || threads_named(&own) == budget);

    let idle: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    wait_until("the server registered every connection", || {
        registry.gauge("rpc.server_conns").get() == idle.len() as i64
    });
    assert_eq!(threads_named(&own), budget, "connections must not spawn threads");
}
