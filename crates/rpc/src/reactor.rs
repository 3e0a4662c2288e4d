//! The server's epoll engine: thousands of connections on a fixed pool of
//! threads, each of which polls the sockets *and* does the work.
//!
//! A CORFU log absorbs fan-in from thousands of Tango views (§5), so a
//! server cannot spend a thread per socket; and an append is three
//! sequential RPCs, so it cannot spend a thread hand-off per request
//! either. The pool's threads therefore all wait on **one** epoll set
//! (leader/followers): the thread `epoll_wait` wakes reads the request
//! frame off the socket, runs the handler and writes the response itself.
//! One request costs the server one wake-up.
//!
//! Every descriptor except the waker is armed `EPOLLONESHOT`, and a thread
//! takes one event per `epoll_wait`: an event belongs to exactly one
//! thread, and a slow handler never sits on events an idle thread could
//! serve. The thread that read a frame re-arms the connection *before* it
//! calls the handler, so the next pipelined request on the same socket is
//! picked up by another thread while this one is still working, and a
//! handler that panics leaves the connection listening. Re-arming a
//! level-triggered descriptor re-checks readiness, so bytes that arrived
//! in between are never missed.
//!
//! Reads go through a per-connection resumable [`FrameAssembler`];
//! response writes are attempted directly on the nonblocking socket and
//! spill into a bounded per-connection buffer, drained on `EPOLLOUT` by
//! whichever thread gets that event. The listener is one more one-shot
//! descriptor: the thread that is woken accepts until `WouldBlock` and
//! re-arms it. Shutdown sets a flag and writes one byte to a socketpair
//! that nobody reads: it stays readable, so every thread sees it in turn
//! and exits — which is also what makes shutting down a wildcard-bound
//! (`0.0.0.0`) server deterministic.
//!
//! In the spirit of the `vendor/` shims there are **no new
//! dependencies**: the four epoll calls are declared directly against the
//! libc that `std` already links, mio-style, in [`sys`].

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use tango_metrics::{trace, EventKind};
use tango_wire::IdMap;

use crate::frame::{encode_frame, Frame, FrameAssembler};
use crate::{Result, RpcError, RpcHandler, ServerOptions};

/// Minimal epoll bindings against the libc `std` already links — no new
/// crate, just the four calls a readiness loop needs.
mod sys {
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI packs
    /// it there); naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub fn zeroed() -> Self {
            Self { events: 0, data: 0 }
        }

        pub fn events(&self) -> u32 {
            self.events
        }

        pub fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<i32> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    fn ctl(epfd: i32, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn add(epfd: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, interest, token)
    }

    pub fn modify(epfd: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, interest, token)
    }

    pub fn del(epfd: i32, fd: i32) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub fn close_fd(fd: i32) {
        let _ = unsafe { close(fd) };
    }
}

use sys::{EPOLLERR, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};

/// Token of the waker's read end in the epoll set.
const WAKER_TOKEN: u64 = 0;
/// Token of the listener in the epoll set.
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a registered connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Upper bound on one connection's outbound spill buffer. A peer that
/// stops reading cannot balloon the process; past this the connection is
/// torn down (the blocking transport got the same effect from its write
/// timeout).
const MAX_OUT_BUF: usize = 128 << 20;

/// Sleep applied after `consecutive` back-to-back `accept` failures, so a
/// persistent error (e.g. EMFILE) degrades to a paced retry instead of a
/// 100%-CPU busy-spin. Grows linearly, capped at 250ms to keep shutdown
/// responsive.
pub(crate) fn accept_backoff(consecutive: u32) -> Duration {
    Duration::from_millis(u64::from(consecutive).saturating_mul(10).min(250))
}

/// Outbound spill state: bytes the kernel would not take synchronously.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One accepted connection: the nonblocking socket, its incremental frame
/// assembler (held by the one thread serving the connection's current
/// event) and the outbound spill buffer (shared by every thread with a
/// response to write).
struct Conn {
    token: u64,
    epfd: i32,
    stream: TcpStream,
    assembler: Mutex<FrameAssembler>,
    out: Mutex<OutBuf>,
    closed: AtomicBool,
}

impl Conn {
    /// Encodes and sends one frame. The write is attempted synchronously
    /// on the nonblocking socket; whatever the kernel refuses is buffered
    /// and drained on `EPOLLOUT`. A hard I/O error tears the connection
    /// down (so peers fail fast on a desynced stream) and is returned.
    fn send_frame(&self, id: u64, payload: &[u8]) -> Result<()> {
        let frame = encode_frame(id, None, payload)?;
        let mut out = self.out.lock();
        if self.closed.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        if out.pending() > 0 {
            // EPOLLOUT is (or is about to be) armed; just append (bounded).
            if out.pending() + frame.len() > MAX_OUT_BUF {
                drop(out);
                self.close();
                return Err(RpcError::Io("outbound buffer overflow: peer not reading".into()));
            }
            out.buf.extend_from_slice(&frame);
            return Ok(());
        }
        let mut written = 0;
        while written < frame.len() {
            match (&self.stream).write(&frame[written..]) {
                Ok(0) => {
                    drop(out);
                    self.close();
                    return Err(RpcError::Disconnected);
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    out.buf.clear();
                    out.pos = 0;
                    out.buf.extend_from_slice(&frame[written..]);
                    self.arm(&out, false);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    drop(out);
                    self.close();
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Flushes the spill buffer on `EPOLLOUT`. `Err` means the connection
    /// must be closed.
    fn drain_out(&self) -> std::result::Result<(), ()> {
        let mut out = self.out.lock();
        while out.pending() > 0 {
            let pos = out.pos;
            match (&self.stream).write(&out.buf[pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        out.buf.clear();
        out.pos = 0;
        Ok(())
    }

    /// (Re-)arms the connection's one-shot interest: readable always;
    /// writable while spilled bytes are pending, and also when the
    /// assembler already `holds_input` past the frame just taken — that
    /// fires at once, which hands the buffered frame to the next thread
    /// through the same queue as everything else. Taking the `out` guard
    /// serializes interest changes, so the last one applied reflects the
    /// buffer as it is. Arming a connection another thread is still
    /// reading is harmless — the assembler lock serializes the reads.
    fn arm(&self, out: &OutBuf, holds_input: bool) {
        let mut interest = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
        if holds_input || out.pending() > 0 {
            interest |= EPOLLOUT;
        }
        // The connection may have been deregistered concurrently; a
        // failed MOD on a closing connection is harmless.
        let _ = sys::modify(self.epfd, self.stream.as_raw_fd(), interest, self.token);
    }

    /// Marks the connection closed and shuts the socket down; the pool
    /// observes the resulting readiness (EOF) and deregisters it. Safe to
    /// call from any thread, any number of times.
    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

struct Inner {
    epfd: i32,
    shutdown: AtomicBool,
    /// The shutdown signal: one byte written to `waker_tx` and never read
    /// makes `waker_rx`, which sits in the epoll set, readable for good.
    waker_tx: UnixStream,
    waker_rx: UnixStream,
    listener: TcpListener,
    /// The connection cap, and where accepts are accounted: drops (over
    /// the cap: `ConnDropped` detail 0, registration failure: detail 1) and
    /// the gauge of registered connections.
    options: ServerOptions,
    /// Back-to-back `accept` failures; the listener is one-shot, so only
    /// the thread holding its event touches this.
    accept_errors: AtomicU32,
    handler: Arc<dyn RpcHandler>,
    conns: Mutex<IdMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
}

impl Drop for Inner {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// A listener, its accepted connections and the fixed pool of threads
/// that serves them.
///
/// Dropping the reactor shuts it down: idle threads exit at once, busy
/// ones after the request they are serving, then every connection is
/// closed and the drop returns.
pub(crate) struct Reactor {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Starts `threads` pool threads named `<name>0..` that accept on
    /// `listener` and answer every request frame with `handler`.
    pub(crate) fn spawn(
        name: &str,
        threads: usize,
        listener: TcpListener,
        options: ServerOptions,
        handler: Arc<dyn RpcHandler>,
    ) -> Result<Reactor> {
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        listener.set_nonblocking(true)?;
        let epfd = sys::create()?;
        let inner = Arc::new(Inner {
            epfd,
            shutdown: AtomicBool::new(false),
            waker_tx,
            waker_rx,
            listener,
            options,
            accept_errors: AtomicU32::new(0),
            handler,
            conns: Mutex::new(IdMap::default()),
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        });
        // From here on `inner` owns the epoll fd, and dropping `reactor`
        // stops whatever threads were started before a failure.
        sys::add(epfd, inner.waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        let listener_fd = inner.listener.as_raw_fd();
        sys::add(epfd, listener_fd, EPOLLIN | EPOLLONESHOT, LISTENER_TOKEN)?;
        let mut reactor = Reactor { inner, threads: Vec::with_capacity(threads) };
        // A thread names itself once it runs, so each reports in before
        // `spawn` returns: from then on every pool thread is up and named.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        for i in 0..threads {
            let inner = Arc::clone(&reactor.inner);
            let started = started_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("{name}{i}"))
                .spawn(move || {
                    let _ = started.send(());
                    serve(&inner)
                })
                .map_err(|e| RpcError::Io(e.to_string()))?;
            reactor.threads.push(thread);
        }
        drop(started_tx);
        for _ in 0..threads {
            // Err only if a thread died before reporting; `Drop` joins it.
            let _ = started_rx.recv();
        }
        Ok(reactor)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // WouldBlock cannot happen: this is the only byte ever written.
        let _ = (&self.inner.waker_tx).write(&[1u8]);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let remaining: Vec<Arc<Conn>> = self.inner.conns.lock().values().cloned().collect();
        for conn in remaining {
            close_conn(&self.inner, &conn);
        }
    }
}

fn register(inner: &Inner, stream: TcpStream) -> Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    let token = inner.next_token.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(Conn {
        token,
        epfd: inner.epfd,
        stream,
        assembler: Mutex::new(FrameAssembler::new()),
        out: Mutex::new(OutBuf::default()),
        closed: AtomicBool::new(false),
    });
    // In the map before it can fire: the thread that gets its first event
    // looks it up by token.
    inner.conns.lock().insert(token, Arc::clone(&conn));
    let interest = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    if let Err(e) = sys::add(inner.epfd, conn.stream.as_raw_fd(), interest, token) {
        inner.conns.lock().remove(&token);
        return Err(e.into());
    }
    inner.options.metrics.connections.add(1);
    Ok(())
}

/// Removes a connection from the epoll set and closes it. Idempotent: only
/// the caller that actually removes it from the map runs the teardown.
fn close_conn(inner: &Inner, conn: &Conn) {
    if inner.conns.lock().remove(&conn.token).is_none() {
        return;
    }
    let _ = sys::del(inner.epfd, conn.stream.as_raw_fd());
    conn.close();
    inner.options.metrics.connections.sub(1);
}

/// One pool thread: wait for an event, serve it, repeat.
fn serve(inner: &Inner) {
    let mut event = [sys::EpollEvent::zeroed()];
    while !inner.shutdown.load(Ordering::SeqCst) {
        match sys::wait(inner.epfd, &mut event, -1) {
            Ok(0) => continue,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // An unexpected epoll failure: pace the retry so a persistent
            // error cannot spin the loop at 100% CPU.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        }
        match event[0].token() {
            // Only shutdown writes the waker; the loop condition sees it.
            WAKER_TOKEN => {}
            LISTENER_TOKEN => accept_ready(inner),
            token => conn_ready(inner, token, event[0].events()),
        }
    }
}

fn accept_ready(inner: &Inner) {
    let metrics = &inner.options.metrics;
    loop {
        match inner.listener.accept() {
            Ok((stream, _peer)) => {
                inner.accept_errors.store(0, Ordering::Relaxed);
                // Close explicitly and account for it — a silently
                // vanished connection is undebuggable at 10K peers.
                let over_cap = inner.conns.lock().len() >= inner.options.max_conns;
                if over_cap || register(inner, stream).is_err() {
                    metrics.accepts_dropped.inc();
                    metrics.events.emit(EventKind::ConnDropped, 0, 0, u64::from(!over_cap));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // EMFILE and friends do not consume the pending
                // connection, so re-arming would re-report it instantly;
                // pace the retry.
                let consecutive = inner.accept_errors.fetch_add(1, Ordering::Relaxed) + 1;
                std::thread::sleep(accept_backoff(consecutive));
                break;
            }
        }
    }
    let fd = inner.listener.as_raw_fd();
    let _ = sys::modify(inner.epfd, fd, EPOLLIN | EPOLLONESHOT, LISTENER_TOKEN);
}

fn conn_ready(inner: &Inner, token: u64, ready: u32) {
    let Some(conn) = inner.conns.lock().get(&token).cloned() else {
        return; // Closed since the event was queued.
    };
    if ready & EPOLLERR != 0 || (ready & EPOLLOUT != 0 && conn.drain_out().is_err()) {
        close_conn(inner, &conn);
        return;
    }
    // One frame per wake-up, and the connection is armed again before the
    // handler runs; whatever else is pending — in the socket, or already in
    // the assembler, which is why input is polled whatever the event said —
    // is re-reported to this thread or an idle one, so a firehose peer
    // cannot starve the others.
    let (request, holds_input) = {
        let mut assembler = conn.assembler.lock();
        match assembler.poll(&mut &conn.stream) {
            Ok(frame) => {
                let holds_input = frame.is_some() && !assembler.is_idle();
                (frame, holds_input)
            }
            Err(_) => {
                drop(assembler);
                close_conn(inner, &conn);
                return;
            }
        }
    };
    conn.arm(&conn.out.lock(), holds_input);
    if let Some(frame) = request {
        answer(inner, &conn, frame);
    }
}

fn answer(inner: &Inner, conn: &Conn, frame: Frame) {
    let response = catch_unwind(AssertUnwindSafe(|| {
        // Install the propagated trace context so spans the handler opens
        // become children of the caller's span.
        let _trace_guard = trace::install(frame.trace);
        inner.handler.handle(&frame.payload)
    }));
    // A panicking handler must not shrink the fixed pool; its caller
    // times out on the dropped request. A response that cannot be sent —
    // a hard I/O error, or a payload the frame layer refuses — closes the
    // connection, so the caller fails fast instead of waiting it out.
    if let Ok(response) = response {
        if conn.send_frame(frame.id, &response).is_err() {
            conn.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn accept_backoff_paces_persistent_errors() {
        assert_eq!(accept_backoff(0), Duration::ZERO);
        let mut last = Duration::ZERO;
        for consecutive in 1..100 {
            let backoff = accept_backoff(consecutive);
            assert!(backoff >= last, "backoff must not shrink");
            assert!(backoff >= Duration::from_millis(10), "errors must yield the CPU");
            assert!(backoff <= Duration::from_millis(250), "cap keeps shutdown responsive");
            last = backoff;
        }
    }

    #[test]
    fn reactor_registers_echoes_and_tears_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let metrics = crate::ServerMetrics::from_registry(&tango_metrics::Registry::new());
        let connections = metrics.connections.clone();
        let reactor = Reactor::spawn(
            "test-reactor",
            2,
            listener,
            ServerOptions { metrics, max_conns: 16 },
            Arc::new(move |request: &[u8]| {
                log.lock().push(request.to_vec());
                request.to_vec()
            }),
        )
        .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, 9, b"ping").unwrap();
        client.write_all(&wire).unwrap();
        let reply = crate::frame::read_frame(&mut client).unwrap();
        assert_eq!(reply.id, 9);
        assert_eq!(reply.payload, b"ping");
        assert_eq!(*seen.lock(), vec![b"ping".to_vec()]);
        assert_eq!(connections.get(), 1);

        drop(reactor); // Shutdown closes the registered connection...
        assert_eq!(connections.get(), 0, "teardown must balance the gauge");
        // ...and the peer observes EOF.
        let mut buf = [0u8; 8];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0);
    }
}
