//! `ClientConn::start` / `finish`: a call taken in its two halves.
//!
//! `start` must not wait for anything the server does, so one thread can
//! have several calls in flight; a ticket that is dropped, or whose `finish`
//! times out, must leave the connection as a timed-out `call` does; and
//! `finish` carries the one reconnect-and-retry that `call` has.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tango_metrics::Registry;
use tango_rpc::{ClientConn, ConnMetrics, LocalConn, RpcError, TcpConn, TcpServer};

/// A server whose handler holds request `A` until request `B` has arrived
/// (10 s at most, far beyond the clients' 2 s call timeout): a client whose
/// `start(A)` waited for A's response can never send B.
fn a_waits_for_b() -> TcpServer {
    let (b_arrived, arrivals) = channel::<()>();
    let (b_arrived, arrivals) = (Mutex::new(b_arrived), Mutex::new(arrivals));
    TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(move |req: &[u8]| {
            match req {
                b"A" => {
                    let _ = arrivals.lock().unwrap().recv_timeout(Duration::from_secs(10));
                }
                _ => b_arrived.lock().unwrap().send(()).unwrap(),
            }
            req.to_vec()
        }),
    )
    .unwrap()
}

fn conn_to(server: &TcpServer) -> TcpConn {
    TcpConn::new(server.local_addr().to_string()).with_timeout(Duration::from_secs(2))
}

#[test]
fn one_thread_has_two_calls_in_flight_on_one_connection() {
    let server = a_waits_for_b();
    let conn = conn_to(&server);
    let a = conn.start(b"A");
    let b = conn.start(b"B");
    assert_eq!(conn.finish(a).unwrap(), b"A");
    assert_eq!(conn.finish(b).unwrap(), b"B");
}

#[test]
fn one_thread_has_two_calls_in_flight_on_two_connections() {
    let server = a_waits_for_b();
    let (first, second) = (conn_to(&server), conn_to(&server));
    let a = first.start(b"A");
    let b = second.start(b"B");
    // Out of issue order: B's response is there first.
    assert_eq!(second.finish(b).unwrap(), b"B");
    assert_eq!(first.finish(a).unwrap(), b"A");
}

/// A connection that implements only `call` runs it inside `start`.
#[test]
fn the_default_halves_are_a_whole_call() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&calls);
    let conn = LocalConn::new(Arc::new(move |req: &[u8]| {
        seen.lock().unwrap().push(req.to_vec());
        req.to_ascii_uppercase()
    }));
    let ticket = conn.start(b"abc");
    assert_eq!(*calls.lock().unwrap(), vec![b"abc".to_vec()], "the call ran in `start`");
    assert_eq!(conn.finish(ticket).unwrap(), b"ABC");
}

/// A server that holds every request until `release` is set, a connection
/// to it with a 100 ms call timeout, and the registry the connection
/// records into.
fn stalled(release: &Arc<AtomicBool>) -> (TcpServer, TcpConn, Registry) {
    let release = Arc::clone(release);
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(move |req: &[u8]| {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            req.to_vec()
        }),
    )
    .unwrap();
    let registry = Registry::new();
    let conn = TcpConn::new(server.local_addr().to_string())
        .with_timeout(Duration::from_millis(100))
        .with_metrics(ConnMetrics::from_registry(&registry));
    (server, conn, registry)
}

/// The late response to an abandoned ticket is discarded by id: the gauge
/// stays at zero and the next call succeeds on the same socket.
fn abandoned_ticket_leaves_the_connection_usable(abandon: impl FnOnce(&TcpConn)) {
    let release = Arc::new(AtomicBool::new(false));
    let (_server, conn, registry) = stalled(&release);
    let in_flight = || registry.snapshot().gauge("rpc.in_flight");

    abandon(&conn);
    assert_eq!(in_flight(), 0, "an abandoned ticket retires its slot");

    release.store(true, Ordering::SeqCst);
    assert_eq!(conn.call(b"next").unwrap(), b"next");
    assert_eq!(in_flight(), 0);
    assert_eq!(registry.snapshot().counter("rpc.reconnects"), 0, "same socket throughout");
}

#[test]
fn a_ticket_dropped_unfinished_retires_its_slot() {
    abandoned_ticket_leaves_the_connection_usable(|conn| {
        drop(conn.start(b"dropped"));
    });
}

#[test]
fn a_ticket_whose_finish_times_out_retires_its_slot() {
    abandoned_ticket_leaves_the_connection_usable(|conn| {
        let ticket = conn.start(b"slow");
        assert_eq!(conn.finish(ticket).unwrap_err(), RpcError::Timeout);
    });
}

#[test]
fn a_started_ticket_is_in_flight_until_finished() {
    let release = Arc::new(AtomicBool::new(true));
    let (_server, conn, registry) = stalled(&release);
    let tickets = [conn.start(b"1"), conn.start(b"2")];
    assert_eq!(registry.snapshot().gauge("rpc.in_flight"), 2);
    for (ticket, expected) in tickets.into_iter().zip([b"1", b"2"]) {
        assert_eq!(conn.finish(ticket).unwrap(), expected);
    }
    assert_eq!(registry.snapshot().gauge("rpc.in_flight"), 0);
}

/// `finish` finds the connection dead, dials the restarted server and sends
/// the ticket's frame again — once, as `call` does.
#[test]
fn finish_reconnects_and_retries_once_after_a_server_restart() {
    let echo = || Arc::new(|req: &[u8]| req.to_vec());
    let mut server = TcpServer::spawn("127.0.0.1:0", echo()).unwrap();
    let addr = server.local_addr().to_string();
    let registry = Registry::new();
    let conn = TcpConn::new(addr.clone()).with_metrics(ConnMetrics::from_registry(&registry));
    assert_eq!(conn.call(b"one").unwrap(), b"one");

    // The reactor closes the connection during shutdown; the client only
    // finds out when it next uses the socket.
    server.shutdown();
    drop(server);
    let restarted = TcpServer::spawn(&addr, echo()).unwrap();

    let ticket = conn.start(b"two");
    assert_eq!(conn.finish(ticket).unwrap(), b"two");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("rpc.reconnects"), 1);
    assert_eq!(snap.gauge("rpc.in_flight"), 0);

    // And once only: with nobody listening the retry's failure is final.
    drop(restarted);
    let ticket = conn.start(b"three");
    assert!(conn.finish(ticket).is_err());
    assert_eq!(registry.snapshot().gauge("rpc.in_flight"), 0);
}
