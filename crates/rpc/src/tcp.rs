//! TCP transport: a multiplexed, pipelined client and an epoll server —
//! thousands of connections on a fixed thread budget, and an RPC in two
//! wake-ups: on both ends the thread that waits on the socket is the
//! thread that does the work.
//!
//! ## Server
//!
//! A [`TcpServer`] runs exactly [`SERVER_WORKERS`] threads no matter how
//! many connections it is carrying. All of them wait on one epoll set; the
//! one that is woken reads the request frame, invokes the handler and
//! writes the response itself, so responses complete — and are sent — in
//! whatever order they finish. The engine is [`reactor`](crate::reactor).
//!
//! ## Client
//!
//! [`TcpConn`] multiplexes many concurrent RPCs over one socket and owns
//! no thread. A call is two halves. `start` stamps the request frame with a
//! fresh `u64` id, registers a slot and writes the frame; `finish` waits
//! for the response *on the socket itself*: the first waiter becomes the
//! connection's reader, routes other callers' responses to their slots by
//! id, and when its own response arrives (or its deadline passes) hands the
//! reader role to a parked waiter. `call` is the two in a row; one thread
//! that starts several calls before finishing any has them all in flight.
//! A call that times out, or whose ticket is dropped, simply abandons its
//! slot — a late response is discarded by id with no stream desync, so the
//! connection stays usable. Dialing uses `connect_timeout` bounded by the
//! per-call timeout and happens *outside* the connection lock, so one
//! unreachable server cannot stall unrelated callers for the OS dial
//! timeout. Transparent reconnect (one retry per call) covers a restarted
//! server.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tango_metrics::{trace, Counter, Events, Gauge, Registry};
use tango_wire::IdMap;

use crate::frame::{encode_frame, Frame, FrameAssembler, HEADER_LEN};
use crate::reactor::Reactor;
use crate::traits::TicketKind;
use crate::{ClientConn, Result, RpcError, RpcHandler, Ticket};

/// Size of a server's thread pool, and the server's entire thread budget:
/// how many requests (across *all* of its connections) can be in the
/// handler concurrently.
pub const SERVER_WORKERS: usize = 4;

/// Default cap on concurrently registered server connections; accepts
/// beyond it are closed and counted in `rpc.accepts_dropped`.
pub const DEFAULT_MAX_CONNS: usize = 65_536;

/// Server-side transport instrumentation.
#[derive(Clone, Default)]
pub struct ServerMetrics {
    /// Accepted connections dropped before service: over the connection
    /// cap, or epoll registration failure.
    pub accepts_dropped: Counter,
    /// Connections currently registered with the server's epoll set.
    pub connections: Gauge,
    /// Event journal; accept-time drops land as `ConnDropped` records
    /// (detail 0 = over the cap, 1 = registration failure), so the flight
    /// recorder shows *when* churn happened.
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
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` on the default [`ServerOptions`].
    pub fn spawn(addr: &str, handler: Arc<dyn RpcHandler>) -> Result<Self> {
        Self::spawn_with(addr, handler, ServerOptions::default())
    }

    /// Binds to `addr` and starts serving `handler` on a fixed pool of
    /// [`SERVER_WORKERS`] threads, regardless of connection count. The
    /// threads are named `rpc<port>-w<i>` — short enough to survive the
    /// kernel's 15-byte `comm` limit, so a server's own threads can be
    /// counted under `/proc/self/task`.
    pub fn spawn_with(
        addr: &str,
        handler: Arc<dyn RpcHandler>,
        options: ServerOptions,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let name = format!("rpc{}-w", local.port());
        let reactor = Reactor::spawn(&name, SERVER_WORKERS, listener, options, handler)?;
        Ok(Self { addr: local, reactor: Some(reactor) })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: a waker in the epoll set interrupts every pool
    /// thread (dialing the listener to poke it would not reach a wildcard
    /// bind), requests already in a handler are answered, the threads
    /// join, and every connection and the listener are closed.
    pub fn shutdown(&mut self) {
        self.reactor.take();
    }
}

/// Transport-level instrumentation shared by every [`TcpConn`] built from
/// the same registry: payload bytes each way, reconnect count, and in-flight
/// request depth.
#[derive(Clone, Default)]
pub struct ConnMetrics {
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

/// A caller's entry in its connection's response table.
enum Slot {
    /// Registered; the caller is writing its request or reading the socket.
    Pending,
    /// The caller is parked until its response, the reader role or the
    /// connection's death wakes it.
    Parked(Thread),
    /// The connection's reader routed the response here.
    Done(Vec<u8>),
}

/// The read half of a connection. Taking it out of [`Routing`] makes a
/// caller the connection's reader.
struct ReadHalf {
    assembler: FrameAssembler,
    /// The read timeout the socket currently carries.
    read_timeout: Duration,
}

/// A reader with this much of its call's timeout still ahead of it reads
/// under the whole timeout — which the socket carries from the dial on, so
/// the common call sets nothing — and returns `Timeout` at most this late.
const DEADLINE_SLACK: Duration = Duration::from_millis(1);

/// What callers sharing a connection coordinate through.
struct Routing {
    slots: IdMap<u64, Slot>,
    /// `None` while some caller is reading the socket.
    read_half: Option<ReadHalf>,
    /// `rpc.in_flight`: the slots registered and not yet retired.
    in_flight: Gauge,
}

impl Routing {
    /// Retires `id`'s slot on every way out of a call (a second time does
    /// nothing) and, if that leaves the socket without a reader, wakes a
    /// parked caller to become one.
    fn leave(&mut self, id: u64) {
        if self.slots.remove(&id).is_some() {
            self.in_flight.sub(1);
        }
        if self.read_half.is_some() {
            if let Some(Slot::Parked(next)) =
                self.slots.values().find(|slot| matches!(slot, Slot::Parked(_)))
            {
                next.unpark();
            }
        }
    }
}

/// One live socket and the callers multiplexed over it.
struct Live {
    /// Blocking, with the per-call timeout as its write timeout.
    stream: TcpStream,
    /// The per-call timeout.
    timeout: Duration,
    /// Serializes whole-frame writes.
    write_turn: Mutex<()>,
    routing: Mutex<Routing>,
    /// Set (under `routing`) once the stream is broken or desynced.
    dead: AtomicBool,
}

impl Live {
    /// Marks the connection dead and wakes every caller on it: parked ones
    /// by name, a reader blocked in `read` by shutting the socket down.
    fn fail(&self) {
        let routing = self.routing.lock();
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        for slot in routing.slots.values() {
            if let Slot::Parked(caller) = slot {
                caller.unpark();
            }
        }
    }

    /// Waits for the response to `id` until `deadline`, reading the socket
    /// if nobody else is. Retires the slot whatever the outcome.
    fn await_response(&self, id: u64, deadline: Instant) -> Result<Vec<u8>> {
        loop {
            let mut routing = self.routing.lock();
            let now = Instant::now();
            let outcome = match routing.slots.get_mut(&id) {
                Some(Slot::Done(response)) => Ok(std::mem::take(response)),
                _ if self.dead.load(Ordering::SeqCst) => Err(RpcError::Disconnected),
                // Abandon the slot; whoever reads the late response
                // discards it by id.
                _ if now >= deadline => Err(RpcError::Timeout),
                _ => match routing.read_half.take() {
                    Some(mut read_half) => {
                        drop(routing);
                        let outcome = self.read_until(id, deadline, &mut read_half);
                        if !matches!(outcome, Ok(_) | Err(RpcError::Timeout)) {
                            self.fail();
                        }
                        routing = self.routing.lock();
                        routing.read_half = Some(read_half);
                        outcome
                    }
                    None => {
                        routing.slots.insert(id, Slot::Parked(std::thread::current()));
                        drop(routing);
                        // A stale or spurious unpark only costs a lap.
                        std::thread::park_timeout(deadline - now);
                        continue;
                    }
                },
            };
            routing.leave(id);
            return outcome;
        }
    }

    /// The reader role: pulls frames off the socket until `id`'s own
    /// arrives or `deadline` passes, handing every other frame to its
    /// caller. A partial frame stays in the assembler for the next reader.
    fn read_until(&self, id: u64, deadline: Instant, half: &mut ReadHalf) -> Result<Vec<u8>> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RpcError::Timeout);
            }
            let read_timeout =
                if left + DEADLINE_SLACK >= self.timeout { self.timeout } else { left };
            if read_timeout != half.read_timeout {
                self.stream.set_read_timeout(Some(read_timeout))?;
                half.read_timeout = read_timeout;
            }
            match half.assembler.poll(&mut &self.stream)? {
                Some(frame) if frame.id == id => return Ok(frame.payload),
                Some(frame) => self.route(frame),
                None => {} // Timed out, as the check above will find.
            }
        }
    }

    fn route(&self, frame: Frame) {
        let mut routing = self.routing.lock();
        // No slot: the caller timed out and abandoned this id. Discarding
        // the late response by id is what keeps a timeout from desyncing
        // the stream.
        if let Some(slot) = routing.slots.get_mut(&frame.id) {
            if let Slot::Parked(caller) = std::mem::replace(slot, Slot::Done(frame.payload)) {
                caller.unpark();
            }
        }
    }
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
/// request is stamped with a fresh id and written on the caller's thread,
/// and whichever caller is reading the socket matches responses to callers
/// by id, so many RPCs are in flight on the socket at once.
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
        let _ = stream.set_nodelay(true);
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_read_timeout(Some(self.timeout))?;
        let read_half = ReadHalf { assembler: FrameAssembler::new(), read_timeout: self.timeout };
        Ok(Live {
            stream,
            timeout: self.timeout,
            write_turn: Mutex::new(()),
            routing: Mutex::new(Routing {
                slots: IdMap::default(),
                read_half: Some(read_half),
                in_flight: self.metrics.in_flight.clone(),
            }),
            dead: AtomicBool::new(false),
        })
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
                if !live.dead.load(Ordering::SeqCst) {
                    return Ok(Arc::clone(live));
                }
            }
        }
        let fresh = self.connect();
        let mut guard = self.live.lock();
        // A concurrent caller may have installed a live connection while
        // we dialed; use theirs (our spare, if any, closes on drop).
        if let Some(live) = guard.as_ref() {
            if !live.dead.load(Ordering::SeqCst) {
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

    /// Registers `id`'s slot on the live connection and writes `frame` to
    /// it — an attempt, which [`Live::await_response`] completes by the
    /// deadline returned. A failed attempt leaves nothing registered.
    fn send(&self, id: u64, frame: &[u8]) -> Result<(Arc<Live>, Instant)> {
        let live = self.live()?;
        let deadline = Instant::now() + self.timeout;
        // Registered before the write: the response can come back, and be
        // routed by another caller, before this one looks for it.
        {
            let mut routing = live.routing.lock();
            routing.slots.insert(id, Slot::Pending);
            routing.in_flight.add(1);
        }
        let sent = {
            let _turn = live.write_turn.lock();
            (&live.stream).write_all(frame)
        };
        if let Err(e) = sent {
            // A partial write desyncs the stream for everyone.
            live.fail();
            live.routing.lock().leave(id);
            return Err(e.into());
        }
        Ok((live, deadline))
    }
}

/// The TCP side of a [`Ticket`]: the request frame, kept for the one retry,
/// and the attempt in flight.
pub(crate) struct Started {
    frame: Vec<u8>,
    id: u64,
    /// Taken by `finish`; an error if the frame could not be sent.
    attempt: Option<Result<(Arc<Live>, Instant)>>,
}

impl Drop for Started {
    /// Never finished: abandon the slot, as a call that timed out does.
    fn drop(&mut self) {
        if let Some(Ok((live, _))) = self.attempt.take() {
            live.routing.lock().leave(self.id);
        }
    }
}

impl ClientConn for TcpConn {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        self.finish(self.start(request))
    }

    fn start(&self, request: &[u8]) -> Ticket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // If the calling thread is inside a sampled trace, its context is
        // stamped on the frame. An oversized request fails here, before
        // anything is registered or sent: it is the caller's error, not
        // the connection's.
        Ticket(match encode_frame(id, trace::current(), request) {
            Ok(frame) => {
                let attempt = Some(self.send(id, &frame));
                TicketKind::Tcp(Started { frame, id, attempt })
            }
            Err(e) => TicketKind::Called(Err(e)),
        })
    }

    fn finish(&self, ticket: Ticket) -> Result<Vec<u8>> {
        let mut started = match ticket.0 {
            TicketKind::Tcp(started) => started,
            TicketKind::Called(outcome) => return outcome,
            TicketKind::Numbered(_) => {
                return Err(RpcError::Io(
                    "ticket finished on a connection that did not start it".into(),
                ))
            }
        };
        let id = started.id;
        let attempt = started.attempt.take().expect("a ticket is finished once");
        let response = match attempt.and_then(|(live, deadline)| live.await_response(id, deadline))
        {
            // The connection stays usable after a timeout (responses are
            // matched by id), so there is nothing to retry against.
            Err(RpcError::Timeout) => Err(RpcError::Timeout),
            // Reconnect and retry once: the server may have restarted.
            // Failed calls stay out of the byte counts.
            Err(_) => {
                let (live, deadline) = self.send(id, &started.frame)?;
                live.await_response(id, deadline)
            }
            ok => ok,
        }?;
        self.metrics.bytes_out.add((started.frame.len() - HEADER_LEN) as u64);
        self.metrics.bytes_in.add(response.len() as u64);
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_metrics::TraceContext;

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
