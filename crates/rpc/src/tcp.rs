//! TCP transport: a multiplexed, pipelined client and an epoll-reactor
//! server — thousands of connections on a fixed thread budget.
//!
//! ## Server
//!
//! A [`TcpServer`] runs exactly `1 + SERVER_WORKERS` threads no matter how
//! many connections it is carrying: one [`reactor`](crate::reactor) event
//! loop owns the listener and every accepted (nonblocking) socket, drives a
//! per-connection `FrameAssembler`, and feeds decoded request frames to a
//! fixed pool of [`SERVER_WORKERS`] handler threads. Workers invoke the
//! handler and write the response frame straight onto the nonblocking
//! socket; if the kernel send queue is full the bytes spill into the
//! connection's outbound buffer, drained by the reactor on `EPOLLOUT`.
//! Responses therefore complete — and are sent — in whatever order they
//! finish, not the order they arrived, exactly as before.
//!
//! ## Client
//!
//! [`TcpConn`] multiplexes many concurrent RPCs over one socket. Each call
//! stamps its request frame with a fresh `u64` id and registers a waiter;
//! the write happens directly on the caller's thread, while a single
//! process-wide client reactor reads every connection's responses and
//! routes them back to waiters by id — no reader thread per connection. A
//! call that times out simply abandons its waiter — a late response is
//! discarded by id with no stream desync, so the connection stays usable.
//! Dialing uses `connect_timeout` bounded by the per-call timeout and
//! happens *outside* the connection lock, so one unreachable server cannot
//! stall unrelated callers for the OS dial timeout. Transparent reconnect
//! (one retry per call) is preserved from the v1 transport.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use parking_lot::Mutex;
use tango_metrics::{trace, Counter, Events, Gauge, Histogram, Registry, TraceContext};

use crate::frame::Frame;
use crate::reactor::{self, ListenerConfig, Reactor, Sink};
use crate::{ClientConn, Result, RpcError, RpcHandler};

/// Size of a server's worker pool: how many requests (across *all* of its
/// connections) can be in the handler concurrently. Together with the
/// reactor thread this is the server's entire thread budget.
pub const SERVER_WORKERS: usize = 4;

/// Default cap on concurrently registered server connections; accepts
/// beyond it are closed and counted in `rpc.accepts_dropped`.
pub const DEFAULT_MAX_CONNS: usize = 65_536;

/// Server-side transport instrumentation.
#[derive(Clone, Default)]
pub struct ServerMetrics {
    /// Accepted connections dropped before service: over the connection
    /// cap, or reactor registration failure.
    pub accepts_dropped: Counter,
    /// Connections currently registered with the server's reactor.
    pub connections: Gauge,
    /// Event journal; accept-time drops land as `ConnDropped` records.
    pub events: Events,
}

impl ServerMetrics {
    /// Binds the standard `rpc.*` server instrument names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            accepts_dropped: registry.counter("rpc.accepts_dropped"),
            connections: registry.gauge("rpc.server_conns"),
            events: registry.events(),
        }
    }

    /// All-no-op instrumentation (the default).
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// Spawn-time knobs for [`TcpServer`].
pub struct ServerOptions {
    /// Transport instrumentation (off by default).
    pub metrics: ServerMetrics,
    /// Connection cap enforced at accept ([`DEFAULT_MAX_CONNS`]).
    pub max_conns: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self { metrics: ServerMetrics::disabled(), max_conns: DEFAULT_MAX_CONNS }
    }
}

/// A running TCP RPC server. Dropping the handle shuts the server down.
pub struct TcpServer {
    addr: SocketAddr,
    reactor: Option<Reactor>,
    workers: Vec<JoinHandle<()>>,
}

/// One decoded request on its way to the worker pool.
struct Job {
    conn: Arc<reactor::Conn>,
    id: u64,
    trace: Option<TraceContext>,
    request: Vec<u8>,
}

/// Reactor → worker-pool handoff, shared by every accepted connection.
struct ServerSink {
    jobs: channel::Sender<Job>,
}

impl Sink for ServerSink {
    fn on_frame(&self, conn: &Arc<reactor::Conn>, frame: Frame) -> bool {
        self.jobs
            .send(Job {
                conn: Arc::clone(conn),
                id: frame.id,
                trace: frame.trace,
                request: frame.payload,
            })
            .is_ok()
    }

    fn on_close(&self, _error: RpcError) {}
}

fn worker_loop(jobs: channel::Receiver<Job>, handler: Arc<dyn RpcHandler>) {
    while let Ok(job) = jobs.recv() {
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Install the propagated trace context so spans the handler
            // opens become children of the caller's span.
            let _trace_guard = trace::install(job.trace);
            handler.handle(&job.request)
        }));
        // A panicking handler must not shrink the fixed pool; the caller
        // times out on the dropped request. A failed send already tore
        // the connection down so peers fail fast instead of hanging on a
        // desynced stream.
        if let Ok(response) = response {
            let _ = job.conn.send_frame(job.id, None, &response);
        }
    }
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` on the default [`ServerOptions`].
    pub fn spawn(addr: &str, handler: Arc<dyn RpcHandler>) -> Result<Self> {
        Self::spawn_with(addr, handler, ServerOptions::default())
    }

    /// Binds to `addr` and starts serving `handler`: one reactor thread
    /// plus a fixed [`SERVER_WORKERS`] pool, regardless of connection
    /// count. The threads are named `rpc<port>-r` and `rpc<port>-w<i>` —
    /// short enough to survive the kernel's 15-byte `comm` limit, so a
    /// server's own threads can be counted under `/proc/self/task`.
    pub fn spawn_with(
        addr: &str,
        handler: Arc<dyn RpcHandler>,
        options: ServerOptions,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (jobs_tx, jobs_rx) = channel::unbounded::<Job>();
        let mut workers = Vec::with_capacity(SERVER_WORKERS);
        for i in 0..SERVER_WORKERS {
            let jobs = jobs_rx.clone();
            let handler = Arc::clone(&handler);
            let worker = std::thread::Builder::new()
                .name(format!("rpc{}-w{i}", local.port()))
                .spawn(move || worker_loop(jobs, handler))
                .map_err(|e| RpcError::Io(e.to_string()))?;
            workers.push(worker);
        }
        drop(jobs_rx);
        let reactor = Reactor::spawn(
            &format!("rpc{}-r", local.port()),
            Some(ListenerConfig {
                listener,
                sink: Arc::new(ServerSink { jobs: jobs_tx }),
                max_conns: options.max_conns,
                dropped: options.metrics.accepts_dropped,
                connections: options.metrics.connections,
                events: options.metrics.events,
            }),
        )?;
        Ok(Self { addr: local, reactor: Some(reactor), workers })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: the reactor waker interrupts the event loop (no
    /// self-connect — that was a no-op for wildcard binds), every live
    /// connection is closed, queued requests drain, and all threads join.
    pub fn shutdown(&mut self) {
        // Dropping the reactor wakes the loop, closes all connections
        // (dropping the last `ServerSink` senders with them), and joins
        // the event thread.
        self.reactor.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Transport-level instrumentation shared by every [`TcpConn`] built from
/// the same registry: round-trip latency, payload bytes each way, reconnect
/// count, and in-flight request depth.
#[derive(Clone, Default)]
pub struct ConnMetrics {
    /// Wall-clock latency of successful `call`s, in nanoseconds.
    pub round_trip_ns: Histogram,
    /// Request payload bytes of successful calls.
    pub bytes_out: Counter,
    /// Response payload bytes of successful calls.
    pub bytes_in: Counter,
    /// Connections re-established after a drop (timeout or server restart).
    pub reconnects: Counter,
    /// RPCs currently in flight (sent, response not yet received) across
    /// all connections bound to the registry.
    pub in_flight: Gauge,
}

impl ConnMetrics {
    /// Binds the standard `rpc.*` instrument names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            round_trip_ns: registry.histogram("rpc.round_trip_ns"),
            bytes_out: registry.counter("rpc.bytes_out"),
            bytes_in: registry.counter("rpc.bytes_in"),
            reconnects: registry.counter("rpc.reconnects"),
            in_flight: registry.gauge("rpc.in_flight"),
        }
    }

    /// All-no-op instrumentation (the default).
    pub fn disabled() -> Self {
        Self::default()
    }
}

type Waiter = channel::Sender<Result<Vec<u8>>>;

/// State shared between callers and the client reactor's response routing.
#[derive(Default)]
struct Shared {
    pending: Mutex<HashMap<u64, Waiter>>,
    dead: AtomicBool,
}

impl Shared {
    /// Marks the connection dead and fails every outstanding waiter.
    fn fail(&self, error: RpcError) {
        self.dead.store(true, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        for (_, waiter) in pending.drain() {
            let _ = waiter.send(Err(error.clone()));
        }
    }
}

/// Client-side sink: routes response frames to their waiters by id on the
/// client reactor thread.
struct ClientSink {
    shared: Arc<Shared>,
}

impl Sink for ClientSink {
    fn on_frame(&self, _conn: &Arc<reactor::Conn>, frame: Frame) -> bool {
        let waiter = self.shared.pending.lock().remove(&frame.id);
        if let Some(waiter) = waiter {
            let _ = waiter.send(Ok(frame.payload));
        }
        // No waiter: the caller timed out and abandoned this id.
        // Discarding the late response by id is what keeps a timeout
        // from desyncing the stream.
        true
    }

    fn on_close(&self, error: RpcError) {
        self.shared.fail(error);
    }
}

/// One live socket: the reactor-registered connection plus the waiter
/// rendezvous state.
struct Live {
    conn: Arc<reactor::Conn>,
    shared: Arc<Shared>,
}

impl Drop for Live {
    fn drop(&mut self) {
        // Shutting the socket down makes the reactor observe EOF,
        // deregister the connection, and fail any remaining waiters.
        self.shared.dead.store(true, Ordering::SeqCst);
        self.conn.close();
    }
}

/// The process-wide reactor that reads every [`TcpConn`]'s responses: one
/// thread regardless of how many connections the process dials.
fn client_reactor() -> Result<&'static Reactor> {
    static REACTOR: OnceLock<Reactor> = OnceLock::new();
    if let Some(reactor) = REACTOR.get() {
        return Ok(reactor);
    }
    let fresh = Reactor::spawn("rpc-client-reactor", None)?;
    // A racing initializer may win; our spare shuts down cleanly on drop.
    Ok(REACTOR.get_or_init(|| fresh))
}

/// Resolves `addr` and dials with a connect timeout, so an unreachable
/// peer costs at most the per-call deadline instead of the OS dial
/// timeout (which can run to minutes).
fn dial(addr: &str, timeout: Duration) -> Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .map(RpcError::from)
        .unwrap_or_else(|| RpcError::Io(format!("{addr}: no addresses to dial"))))
}

/// A blocking TCP client connection with pipelined multiplexing and
/// transparent reconnect.
///
/// Any number of threads may `call` concurrently over one `TcpConn`: each
/// request is stamped with a fresh id, written directly on the caller's
/// thread, and matched to its response by the shared client reactor, so
/// many RPCs are in flight on the socket at once. (The v1 transport
/// allowed one in-flight request per connection and callers opened several
/// connections for pipelining; that is no longer necessary.)
pub struct TcpConn {
    addr: String,
    timeout: Duration,
    live: Mutex<Option<Arc<Live>>>,
    next_id: AtomicU64,
    metrics: ConnMetrics,
}

impl TcpConn {
    /// Creates a lazily-connected client for `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            timeout: Duration::from_secs(5),
            live: Mutex::new(None),
            next_id: AtomicU64::new(0),
            metrics: ConnMetrics::disabled(),
        }
    }

    /// Sets the per-call timeout (default 5s). Also bounds the dial.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches transport instrumentation (off by default).
    pub fn with_metrics(mut self, metrics: ConnMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    fn connect(&self) -> Result<Live> {
        let stream = dial(&self.addr, self.timeout)?;
        let shared = Arc::new(Shared::default());
        let sink = Arc::new(ClientSink { shared: Arc::clone(&shared) });
        let conn = client_reactor()?.register_conn(stream, sink)?;
        Ok(Live { conn, shared })
    }

    /// Returns the live connection, dialing a fresh one if none exists or
    /// the cached one has died. The dial happens *outside* the connection
    /// lock (a stalled dial must not block concurrent callers), and a dead
    /// handle is discarded before installing the replacement, so a failed
    /// reconnect can never leave a known-broken stream cached for the next
    /// caller to waste a round trip on.
    fn live(&self) -> Result<Arc<Live>> {
        {
            let guard = self.live.lock();
            if let Some(live) = guard.as_ref() {
                if !live.shared.dead.load(Ordering::SeqCst) {
                    return Ok(Arc::clone(live));
                }
            }
        }
        let fresh = self.connect();
        let mut guard = self.live.lock();
        // A concurrent caller may have installed a live connection while
        // we dialed; use theirs (our spare, if any, closes on drop).
        if let Some(live) = guard.as_ref() {
            if !live.shared.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(live));
            }
        }
        let fresh = Arc::new(fresh?);
        if guard.take().is_some() {
            self.metrics.reconnects.inc();
        }
        *guard = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    fn call_once(&self, request: &[u8]) -> Result<Vec<u8>> {
        let live = self.live()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // If the calling thread is inside a sampled trace, stamp its
        // context on the request frame.
        let ctx = trace::current();
        let (tx, rx) = channel::unbounded();
        live.shared.pending.lock().insert(id, tx);
        self.metrics.in_flight.add(1);
        let result = (|| {
            // The connection may have died between the liveness check and
            // the waiter registration; its drain would miss a later insert.
            if live.shared.dead.load(Ordering::SeqCst) {
                return Err(RpcError::Disconnected);
            }
            if let Err(e) = live.conn.send_frame(id, ctx, request) {
                // A partial write desyncs the stream for everyone;
                // send_frame already tore the connection down.
                live.shared.fail(e.clone());
                return Err(e);
            }
            match rx.recv_timeout(self.timeout) {
                Ok(outcome) => outcome,
                // Abandon the waiter; the reactor discards the late
                // response by id.
                Err(_) => Err(RpcError::Timeout),
            }
        })();
        live.shared.pending.lock().remove(&id);
        self.metrics.in_flight.sub(1);
        result
    }

    fn call_inner(&self, request: &[u8]) -> Result<Vec<u8>> {
        match self.call_once(request) {
            // The connection stays usable after a timeout (responses are
            // matched by id), so there is nothing to retry against.
            Err(RpcError::Timeout) => Err(RpcError::Timeout),
            // Reconnect and retry once: the server may have restarted.
            Err(_) => self.call_once(request),
            ok => ok,
        }
    }
}

impl ClientConn for TcpConn {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        let timer = self.metrics.round_trip_ns.start();
        match self.call_inner(request) {
            Ok(resp) => {
                self.metrics.bytes_out.add(request.len() as u64);
                self.metrics.bytes_in.add(resp.len() as u64);
                timer.stop();
                Ok(resp)
            }
            Err(e) => {
                // Failed calls would pollute the round-trip histogram.
                timer.discard();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_over_sockets() {
        let mut server = TcpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|req: &[u8]| {
                let mut out = req.to_vec();
                out.reverse();
                out
            }),
        )
        .unwrap();
        let conn = TcpConn::new(server.local_addr().to_string());
        assert_eq!(conn.call(b"abc").unwrap(), b"cba");
        assert_eq!(conn.call(b"tango").unwrap(), b"ognat");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = TcpServer::spawn("127.0.0.1:0", Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let addr = server.local_addr().to_string();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let conn = TcpConn::new(addr);
                    for j in 0..50u32 {
                        let msg = format!("client-{i}-msg-{j}");
                        assert_eq!(conn.call(msg.as_bytes()).unwrap(), msg.as_bytes());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn reconnects_after_server_restart() {
        let mut server =
            TcpServer::spawn("127.0.0.1:0", Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let addr = server.local_addr().to_string();
        let registry = Registry::new();
        let conn = TcpConn::new(addr.clone()).with_metrics(ConnMetrics::from_registry(&registry));
        assert_eq!(conn.call(b"one").unwrap(), b"one");
        server.shutdown();
        drop(server);
        // Restart on the same port. The reactor closed the old connection
        // during shutdown, so the client is forced onto a fresh dial.
        let _server2 = TcpServer::spawn(&addr, Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.snapshot().counter("rpc.reconnects") == 0 {
            assert!(std::time::Instant::now() < deadline, "client never reconnected");
            assert_eq!(conn.call(b"two").unwrap(), b"two");
            std::thread::sleep(Duration::from_millis(20));
        }

        let snap = registry.snapshot();
        assert!(snap.counter("rpc.bytes_out") >= 6);
        assert!(snap.counter("rpc.bytes_in") >= 6);
        assert!(snap.histogram("rpc.round_trip_ns").unwrap().count() >= 2);
        assert_eq!(snap.gauge("rpc.in_flight"), 0);
    }

    #[test]
    fn trace_context_crosses_the_socket() {
        let seen: Arc<Mutex<Vec<Option<TraceContext>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_handler = Arc::clone(&seen);
        let server = TcpServer::spawn(
            "127.0.0.1:0",
            Arc::new(move |req: &[u8]| {
                seen_handler.lock().push(trace::current());
                req.to_vec()
            }),
        )
        .unwrap();
        let conn = TcpConn::new(server.local_addr().to_string());

        // Untraced call: the handler must see no context.
        conn.call(b"plain").unwrap();
        // Traced call: the handler sees exactly the caller's context.
        let ctx = TraceContext { trace_id: 0xABCD, span_id: 7 };
        {
            let _g = trace::install(Some(ctx));
            conn.call(b"traced").unwrap();
        }
        conn.call(b"plain-again").unwrap();

        let seen = seen.lock();
        assert_eq!(seen.as_slice(), &[None, Some(ctx), None]);
    }

    #[test]
    fn call_to_dead_server_errors() {
        let conn = TcpConn::new("127.0.0.1:1"); // Nothing listens on port 1.
        assert!(conn.call(b"x").is_err());
    }
}
