//! A hand-rolled epoll readiness reactor: thousands of connections on a
//! fixed thread budget.
//!
//! The thread-per-connection transport topped out at tens of clients — a
//! CORFU log absorbing fan-in from thousands of Tango views (§5 runs
//! thousands of views against one log) cannot spend a reader thread per
//! socket. The reactor inverts that: **one** event-loop thread owns every
//! nonblocking socket of a server (or of all of a process's client
//! connections), parks in `epoll_wait`, and drives per-connection
//! [`FrameAssembler`] state machines as bytes arrive. Decoded request
//! frames are handed to a small fixed worker pool; response writes are
//! attempted directly on the (nonblocking) socket and spill into a
//! per-connection outbound buffer drained on `EPOLLOUT` when the kernel
//! send queue is full. A socketpair waker lets other threads nudge the
//! loop — shutdown sets a flag and writes one byte, which is also what
//! makes shutting down a wildcard-bound (`0.0.0.0`) server deterministic
//! (the old transport "poked" the listener by dialing its own address,
//! a no-op when bound to a wildcard).
//!
//! In the spirit of the `vendor/` shims there are **no new
//! dependencies**: the four epoll calls are declared directly against the
//! libc that `std` already links, mio-style, in [`sys`].
//!
//! Level-triggered epoll keeps the loop honest: a connection whose frames
//! were not fully drained in one tick (reads are capped per tick for
//! fairness) is simply reported ready again on the next `epoll_wait`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use tango_metrics::{Counter, EventKind, Events, Gauge, TraceContext};

use crate::frame::{write_frame_traced, Frame, FrameAssembler, HEADER_LEN};
use crate::{Result, RpcError};

/// Minimal epoll bindings against the libc `std` already links — no new
/// crate, just the four calls a readiness loop needs.
mod sys {
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

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

pub(crate) use sys::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token of the waker's read end in the epoll set.
const WAKER_TOKEN: u64 = 0;
/// Token of the (optional) listener in the epoll set.
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a registered connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How many decoded frames one connection may deliver per readiness tick
/// before the loop moves on. Level-triggered epoll re-reports the
/// connection immediately, so a firehose peer cannot starve the others.
const FRAMES_PER_TICK: usize = 32;

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

/// Per-connection frame consumer: where the reactor delivers decoded
/// frames and connection-death notice.
///
/// `on_frame` runs on the reactor thread — it must only route (enqueue to
/// workers, rendezvous with a waiter), never block or invoke handlers.
pub(crate) trait Sink: Send + Sync {
    /// A complete frame arrived. Return `false` to close the connection.
    fn on_frame(&self, conn: &Arc<Conn>, frame: Frame) -> bool;
    /// The connection died (EOF, I/O error, reactor shutdown). Called
    /// exactly once, after the connection left the epoll set.
    fn on_close(&self, error: RpcError);
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

/// One reactor-owned connection: the nonblocking socket, its incremental
/// frame assembler (reactor thread only), and the outbound spill buffer
/// (shared with writer threads).
pub(crate) struct Conn {
    token: u64,
    epfd: i32,
    stream: TcpStream,
    sink: Arc<dyn Sink>,
    assembler: Mutex<FrameAssembler>,
    out: Mutex<OutBuf>,
    closed: AtomicBool,
}

impl Conn {
    /// Encodes and sends one frame. The write is attempted synchronously
    /// on the nonblocking socket; whatever the kernel refuses is buffered
    /// and drained by the reactor on `EPOLLOUT`. May be called from any
    /// thread. A hard I/O error tears the connection down (so peers fail
    /// fast on a desynced stream) and is returned.
    pub(crate) fn send_frame(
        &self,
        id: u64,
        trace: Option<TraceContext>,
        payload: &[u8],
    ) -> Result<()> {
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        write_frame_traced(&mut frame, id, trace, payload)?;
        let mut out = self.out.lock();
        if self.closed.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        if out.pending() > 0 {
            // EPOLLOUT is already armed; just append (bounded).
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
                    self.set_writable(true);
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

    /// Reactor-side: flush the spill buffer on `EPOLLOUT`. `Err` means the
    /// connection must be closed.
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
        self.set_writable(false);
        Ok(())
    }

    /// Re-arms the connection's epoll interest with or without `EPOLLOUT`.
    /// Callers hold the `out` lock, which serializes interest changes.
    fn set_writable(&self, on: bool) {
        let mut interest = EPOLLIN | EPOLLRDHUP;
        if on {
            interest |= EPOLLOUT;
        }
        // The connection may have been deregistered concurrently; a
        // failed MOD on a closing connection is harmless.
        let _ = sys::modify(self.epfd, self.stream.as_raw_fd(), interest, self.token);
    }

    /// Marks the connection closed and shuts the socket down; the reactor
    /// observes the resulting readiness (EOF) and deregisters it. Safe to
    /// call from any thread, any number of times.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

/// A listener the reactor accepts on, plus what to do with accepted
/// connections.
pub(crate) struct ListenerConfig {
    pub listener: TcpListener,
    /// Sink shared by every accepted connection.
    pub sink: Arc<dyn Sink>,
    /// Accepted connections beyond this are closed immediately (and
    /// counted in `dropped`) instead of degrading the whole event loop.
    pub max_conns: usize,
    /// Connections dropped at accept: over `max_conns`, or reactor
    /// registration failure (`rpc.accepts_dropped`).
    pub dropped: Counter,
    /// Currently registered server-side connections (`rpc.server_conns`).
    pub connections: Gauge,
    /// Event journal: each accept-time drop is recorded as a
    /// `ConnDropped` event (detail 0 = over the cap, 1 = registration
    /// failure) so the flight recorder shows *when* churn happened.
    pub events: Events,
}

struct Inner {
    epfd: i32,
    shutdown: AtomicBool,
    /// Write end of the waker socketpair; one byte = one nudge.
    waker_tx: UnixStream,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
    connections: Gauge,
}

impl Inner {
    fn wake(&self) {
        // WouldBlock means a wake is already pending — good enough.
        let _ = (&self.waker_tx).write(&[1u8]);
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// The readiness event loop: one thread, any number of sockets.
///
/// Dropping the reactor shuts it down: the event thread closes every
/// registered connection (each sink gets `on_close`) and exits, and the
/// drop joins it.
pub(crate) struct Reactor {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the event loop, optionally owning a listener whose accepted
    /// connections feed `ListenerConfig::sink`.
    pub(crate) fn spawn(name: &str, listener: Option<ListenerConfig>) -> Result<Reactor> {
        let epfd = sys::create()?;
        let pair = match UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e.into());
            }
        };
        let (waker_rx, waker_tx) = pair;
        let setup = (|| -> Result<()> {
            waker_rx.set_nonblocking(true)?;
            waker_tx.set_nonblocking(true)?;
            sys::add(epfd, waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
            if let Some(cfg) = &listener {
                cfg.listener.set_nonblocking(true)?;
                sys::add(epfd, cfg.listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
            }
            Ok(())
        })();
        if let Err(e) = setup {
            sys::close_fd(epfd);
            return Err(e);
        }
        let connections = listener.as_ref().map(|cfg| cfg.connections.clone()).unwrap_or_default();
        let inner = Arc::new(Inner {
            epfd,
            shutdown: AtomicBool::new(false),
            waker_tx,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
            connections,
        });
        let loop_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || event_loop(loop_inner, listener, waker_rx))
            .map_err(|e| RpcError::Io(e.to_string()))?;
        Ok(Reactor { inner, thread: Some(thread) })
    }

    /// Registers an already-connected stream; decoded frames flow to
    /// `sink`. The stream is switched to nonblocking mode and owned by the
    /// reactor from here on — all writes must go through
    /// [`Conn::send_frame`].
    pub(crate) fn register_conn(
        &self,
        stream: TcpStream,
        sink: Arc<dyn Sink>,
    ) -> Result<Arc<Conn>> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        register(&self.inner, stream, sink)
    }

    /// Number of currently registered connections.
    #[cfg(test)]
    pub(crate) fn conn_count(&self) -> usize {
        self.inner.conns.lock().len()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn register(inner: &Arc<Inner>, stream: TcpStream, sink: Arc<dyn Sink>) -> Result<Arc<Conn>> {
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    let token = inner.next_token.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(Conn {
        token,
        epfd: inner.epfd,
        stream,
        sink,
        assembler: Mutex::new(FrameAssembler::new()),
        out: Mutex::new(OutBuf::default()),
        closed: AtomicBool::new(false),
    });
    inner.conns.lock().insert(token, Arc::clone(&conn));
    if let Err(e) = sys::add(inner.epfd, conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token) {
        inner.conns.lock().remove(&token);
        return Err(e.into());
    }
    inner.connections.add(1);
    Ok(conn)
}

/// Removes a connection from the epoll set and delivers its death notice.
/// Idempotent: only the caller that actually removes it from the map runs
/// the teardown.
fn close_conn(inner: &Arc<Inner>, conn: &Arc<Conn>, error: RpcError) {
    if inner.conns.lock().remove(&conn.token).is_none() {
        return;
    }
    let _ = sys::del(inner.epfd, conn.stream.as_raw_fd());
    conn.close();
    inner.connections.sub(1);
    conn.sink.on_close(error);
}

fn event_loop(inner: Arc<Inner>, listener: Option<ListenerConfig>, waker_rx: UnixStream) {
    let mut events = vec![sys::EpollEvent::zeroed(); 128];
    let mut accept_errors: u32 = 0;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let n = match sys::wait(inner.epfd, &mut events, -1) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // An unexpected epoll failure: pace the retry so a persistent
            // error cannot spin the loop at 100% CPU.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        for event in events.iter().take(n) {
            let (ready, token) = (event.events(), event.token());
            match token {
                WAKER_TOKEN => drain_waker(&waker_rx),
                LISTENER_TOKEN => {
                    if let Some(cfg) = &listener {
                        accept_ready(&inner, cfg, &mut accept_errors);
                    }
                }
                token => conn_ready(&inner, token, ready),
            }
        }
    }
    // Teardown: every connection is closed and notified, so blocked
    // callers fail promptly instead of waiting out their timeouts.
    let remaining: Vec<Arc<Conn>> = inner.conns.lock().drain().map(|(_, c)| c).collect();
    for conn in remaining {
        let _ = sys::del(inner.epfd, conn.stream.as_raw_fd());
        conn.close();
        inner.connections.sub(1);
        conn.sink.on_close(RpcError::Disconnected);
    }
}

fn drain_waker(waker_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&*waker_rx).read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock: fully drained.
        }
    }
}

fn accept_ready(inner: &Arc<Inner>, cfg: &ListenerConfig, accept_errors: &mut u32) {
    loop {
        match cfg.listener.accept() {
            Ok((stream, _peer)) => {
                *accept_errors = 0;
                if inner.conns.lock().len() >= cfg.max_conns {
                    // Close explicitly and account for it — a silently
                    // vanished connection is undebuggable at 10K peers.
                    cfg.dropped.inc();
                    cfg.events.emit(EventKind::ConnDropped, 0, 0, 0);
                    drop(stream);
                    continue;
                }
                if register(inner, stream, Arc::clone(&cfg.sink)).is_err() {
                    cfg.dropped.inc();
                    cfg.events.emit(EventKind::ConnDropped, 0, 0, 1);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // EMFILE and friends do not consume the pending
                // connection, so level-triggered epoll would re-report it
                // instantly; pace the retry.
                *accept_errors += 1;
                std::thread::sleep(accept_backoff(*accept_errors));
                return;
            }
        }
    }
}

fn conn_ready(inner: &Arc<Inner>, token: u64, ready: u32) {
    let Some(conn) = inner.conns.lock().get(&token).cloned() else {
        return; // Already closed this tick.
    };
    if ready & EPOLLERR != 0 {
        close_conn(inner, &conn, RpcError::Disconnected);
        return;
    }
    if ready & EPOLLOUT != 0 && conn.drain_out().is_err() {
        close_conn(inner, &conn, RpcError::Disconnected);
        return;
    }
    if ready & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
        read_ready(inner, &conn);
    }
}

fn read_ready(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    let mut assembler = conn.assembler.lock();
    for _ in 0..FRAMES_PER_TICK {
        let mut reader = &conn.stream;
        match assembler.poll(&mut reader) {
            Ok(Some(frame)) => {
                if !conn.sink.on_frame(conn, frame) {
                    drop(assembler);
                    close_conn(inner, conn, RpcError::Disconnected);
                    return;
                }
            }
            // WouldBlock: the socket is drained for now.
            Ok(None) => return,
            Err(e) => {
                drop(assembler);
                close_conn(inner, conn, e);
                return;
            }
        }
    }
    // Frame budget spent; level-triggered epoll re-reports the rest.
}

#[cfg(test)]
mod tests {
    use super::*;

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

    struct CountingSink {
        frames: Mutex<Vec<Frame>>,
        closed: AtomicBool,
    }

    impl Sink for CountingSink {
        fn on_frame(&self, conn: &Arc<Conn>, frame: Frame) -> bool {
            // Record before echoing: once the client sees the reply, the
            // frame must already be in the log.
            let payload = frame.payload.clone();
            let id = frame.id;
            self.frames.lock().push(frame);
            let _ = conn.send_frame(id, None, &payload);
            true
        }
        fn on_close(&self, _error: RpcError) {
            self.closed.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn reactor_registers_echoes_and_tears_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = Arc::new(CountingSink {
            frames: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        });
        let reactor = Reactor::spawn(
            "test-reactor",
            Some(ListenerConfig {
                listener,
                sink: Arc::clone(&sink) as Arc<dyn Sink>,
                max_conns: 16,
                dropped: Counter::default(),
                connections: Gauge::default(),
                events: Events::default(),
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
        assert_eq!(sink.frames.lock().len(), 1);
        assert_eq!(reactor.conn_count(), 1);

        drop(reactor); // Shutdown closes the registered connection...
        assert!(sink.closed.load(Ordering::SeqCst), "sink must get its death notice");
        // ...and the peer observes EOF.
        let mut buf = [0u8; 8];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0);
    }
}
