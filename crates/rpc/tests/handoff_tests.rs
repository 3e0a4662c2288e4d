//! The hazards of a transport whose threads do their own polling.
//!
//! Client: callers sharing a `TcpConn` take turns reading its socket, so
//! the reader role has to change hands — when the reader's own response
//! arrives, when its deadline passes, when the connection dies — without
//! stranding the callers parked behind it. Server: the thread that read a
//! request runs its handler, so a handler that panics must cost neither
//! the thread nor the connection.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tango_metrics::Registry;
use tango_rpc::frame::{read_frame, write_frame, FrameAssembler};
use tango_rpc::{ClientConn, ConnMetrics, RpcError, TcpConn, TcpServer, SERVER_WORKERS};

mod support;
use support::{threads_named, wait_until};

/// Holds requests in the handler until the test releases them, by their
/// bytes — or ends, however it ends, so that the server can always shut down.
#[derive(Default)]
struct Gate {
    /// Requests released and not yet through, and "the test is over".
    state: Mutex<(Vec<Vec<u8>>, bool)>,
    changed: Condvar,
}

impl Gate {
    fn release(&self, request: &[u8]) {
        self.state.lock().unwrap().0.push(request.to_vec());
        self.changed.notify_all();
    }

    fn pass(&self, request: &[u8]) {
        let mut state = self.state.lock().unwrap();
        while !state.1 {
            if let Some(at) = state.0.iter().position(|released| released == request) {
                state.0.remove(at);
                return;
            }
            state = self.changed.wait(state).unwrap();
        }
    }
}

struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.state.lock().unwrap().1 = true;
        self.0.changed.notify_all();
    }
}

/// An echo server whose handler reports each request it has been handed
/// on the returned channel and then holds it at the returned gate.
fn gated_echo_server() -> (TcpServer, Receiver<Vec<u8>>, OpenOnDrop) {
    let (entered_tx, entered_rx) = channel::<Vec<u8>>();
    let entered_tx = Mutex::new(entered_tx);
    let gate = Arc::new(Gate::default());
    let handler_gate = Arc::clone(&gate);
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(move |req: &[u8]| {
            let _ = entered_tx.lock().unwrap().send(req.to_vec());
            handler_gate.pass(req);
            req.to_vec()
        }),
    )
    .unwrap();
    (server, entered_rx, OpenOnDrop(gate))
}

fn metered_conn(addr: String, timeout: Duration) -> (Arc<TcpConn>, Registry) {
    let registry = Registry::new();
    let conn = TcpConn::new(addr)
        .with_timeout(timeout)
        .with_metrics(ConnMetrics::from_registry(&registry));
    (Arc::new(conn), registry)
}

fn call_in_thread(
    conn: &Arc<TcpConn>,
    request: &'static [u8],
) -> thread::JoinHandle<Result<Vec<u8>, RpcError>> {
    let conn = Arc::clone(conn);
    thread::spawn(move || conn.call(request))
}

#[test]
fn reader_timing_out_hands_the_socket_to_a_parked_caller() {
    let (server, entered, gate) = gated_echo_server();
    let timeout = Duration::from_millis(800);
    let (conn, registry) = metered_conn(server.local_addr().to_string(), timeout);

    // `first` is alone on the connection, so it reads the socket.
    let first = call_in_thread(&conn, b"first");
    assert_eq!(entered.recv().unwrap(), b"first");
    // `second` starts well into `first`'s timeout (this sleep spaces the
    // two deadlines; it orders nothing) and parks behind the reader.
    thread::sleep(timeout / 2);
    let second = call_in_thread(&conn, b"second");
    assert_eq!(entered.recv().unwrap(), b"second");

    // The reader's deadline passes with `second`'s response outstanding...
    assert_eq!(first.join().unwrap(), Err(RpcError::Timeout));
    // ...and `second`, now reading for itself, still gets its own bytes.
    gate.0.release(b"second");
    assert_eq!(second.join().unwrap().unwrap(), b"second");

    // The abandoned response arrives late and is discarded by id.
    gate.0.release(b"first");
    let third = call_in_thread(&conn, b"third");
    assert_eq!(entered.recv().unwrap(), b"third");
    gate.0.release(b"third");
    assert_eq!(third.join().unwrap().unwrap(), b"third");
    assert_eq!(registry.counter("rpc.reconnects").get(), 0, "one socket throughout");
    assert_eq!(registry.gauge("rpc.in_flight").get(), 0);
}

#[test]
fn reader_finishing_first_hands_the_socket_to_a_parked_caller() {
    let (server, entered, gate) = gated_echo_server();
    let (conn, registry) = metered_conn(server.local_addr().to_string(), Duration::from_secs(10));

    let first = call_in_thread(&conn, b"first");
    assert_eq!(entered.recv().unwrap(), b"first");
    // Three more callers queue up behind the reader.
    let parked: Vec<_> = [&b"p0"[..], b"p1", b"p2"]
        .into_iter()
        .map(|request| {
            let caller = call_in_thread(&conn, request);
            assert_eq!(entered.recv().unwrap(), request);
            (request, caller)
        })
        .collect();

    // The reader's own response arrives first: it leaves, and each parked
    // caller in turn takes over the socket and completes.
    gate.0.release(b"first");
    assert_eq!(first.join().unwrap().unwrap(), b"first");
    for (request, caller) in parked.into_iter().rev() {
        gate.0.release(request);
        assert_eq!(caller.join().unwrap().unwrap(), request);
    }
    assert_eq!(registry.counter("rpc.reconnects").get(), 0);
    assert_eq!(registry.gauge("rpc.in_flight").get(), 0);
}

#[test]
fn a_dying_connection_fails_its_reader_and_every_parked_caller() {
    const CALLERS: usize = 4;
    // A raw listener stands in for a server that takes every request and
    // then drops the socket with all the responses outstanding. Each
    // caller's one retry dials again; those sockets die at once.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            // Callers that race the first dial each open a socket and all
            // but one close theirs unused, in any order: the requests are
            // counted over every connection accepted so far.
            listener.set_nonblocking(true).unwrap();
            let mut conns: Vec<(TcpStream, FrameAssembler)> = Vec::new();
            let mut requests = 0;
            while requests < CALLERS {
                if let Ok((stream, _)) = listener.accept() {
                    stream.set_nonblocking(true).unwrap();
                    conns.push((stream, FrameAssembler::new()));
                }
                for (stream, assembler) in &mut conns {
                    // An unused socket reads as closed, every time.
                    while let Ok(Some(_)) = assembler.poll(stream) {
                        requests += 1;
                    }
                }
                thread::sleep(Duration::from_millis(1));
            }
            drop(conns);
            listener.set_nonblocking(false).unwrap();
            while !stop.load(Ordering::SeqCst) {
                drop(listener.accept().unwrap());
            }
        })
    };

    let timeout = Duration::from_secs(10);
    let (conn, registry) = metered_conn(addr.to_string(), timeout);
    let started = Instant::now();
    let callers: Vec<_> = (0..CALLERS).map(|_| call_in_thread(&conn, b"doomed")).collect();
    for caller in callers {
        assert_eq!(caller.join().unwrap(), Err(RpcError::Disconnected));
    }
    assert!(
        started.elapsed() < timeout / 2,
        "callers waited {:?} for a connection that was already dead",
        started.elapsed()
    );
    assert_eq!(registry.gauge("rpc.in_flight").get(), 0);

    stop.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(addr)); // Unblocks the acceptor's last accept.
    acceptor.join().unwrap();
}

#[test]
fn panicking_handlers_cost_neither_a_thread_nor_the_connection() {
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(|req: &[u8]| {
            assert!(req != b"panic", "handler panic requested by the test");
            req.to_vec()
        }),
    )
    .unwrap();
    let own = format!("rpc{}-", server.local_addr().port());
    wait_until("the server pool is up", || threads_named(&own) == SERVER_WORKERS);
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // More panics than the pool has threads, all on one connection...
    let mut wire = Vec::new();
    for id in 0..SERVER_WORKERS as u64 + 2 {
        write_frame(&mut wire, id, b"panic").unwrap();
    }
    // ...then a request that can only be answered if a thread survived
    // and the connection was armed again before each handler ran.
    write_frame(&mut wire, 99, b"still here").unwrap();
    sock.write_all(&wire).unwrap();
    let reply = read_frame(&mut sock).unwrap();
    assert_eq!((reply.id, reply.payload.as_slice()), (99, &b"still here"[..]));
    assert_eq!(threads_named(&own), SERVER_WORKERS, "a panic must not shrink the pool");
}
