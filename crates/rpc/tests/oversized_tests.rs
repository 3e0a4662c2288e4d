//! A payload the frame layer refuses is the fault of whoever produced it,
//! not of the connection it was headed for — and never a reason to make
//! anybody wait.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tango_metrics::Registry;
use tango_rpc::frame::MAX_FRAME_LEN;
use tango_rpc::{ClientConn, ConnMetrics, RpcError, TcpConn, TcpServer};

/// An oversized request used to be registered, refused by the frame
/// encoder before it touched the socket, and answered by failing the
/// whole (healthy) connection: every other in-flight caller failed, and
/// the request was retried on a fresh dial only to be refused again.
#[test]
fn oversized_request_leaves_a_shared_connection_alone() {
    let (entered_tx, entered) = channel::<()>();
    let (release, release_rx) = channel::<()>();
    let gate = Mutex::new((entered_tx, release_rx));
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(move |req: &[u8]| {
            if req == b"slow" {
                let gate = gate.lock().unwrap();
                gate.0.send(()).unwrap();
                gate.1.recv().unwrap();
            }
            req.to_vec()
        }),
    )
    .unwrap();
    let registry = Registry::new();
    let conn = Arc::new(
        TcpConn::new(server.local_addr().to_string())
            .with_metrics(ConnMetrics::from_registry(&registry)),
    );

    let slow = {
        let conn = Arc::clone(&conn);
        thread::spawn(move || conn.call(b"slow"))
    };
    entered.recv().unwrap(); // The slow call is in flight on the socket.

    // Never touched, so never resident: the length alone refuses it.
    let oversized = vec![0u8; MAX_FRAME_LEN as usize + 1];
    assert!(matches!(conn.call(&oversized), Err(RpcError::BadFrame(_))));
    assert_eq!(registry.gauge("rpc.in_flight").get(), 1, "only the slow call is in flight");

    // (Twice: were the slow call failed and retried — the bug — its second
    // run must not hang the test instead of failing it.)
    release.send(()).unwrap();
    release.send(()).unwrap();
    assert_eq!(slow.join().unwrap().unwrap(), b"slow", "the bystander must not be failed");
    assert_eq!(registry.counter("rpc.reconnects").get(), 0, "nothing to reconnect for");
    assert_eq!(registry.gauge("rpc.in_flight").get(), 0);
    assert_eq!(conn.call(b"after").unwrap(), b"after");
    assert_eq!(registry.counter("rpc.reconnects").get(), 0);
}

/// A response the frame layer refuses used to be dropped on the floor,
/// leaving the caller to wait out its whole timeout. The server closes
/// the connection instead, so the caller fails as fast as it can be told.
#[test]
fn oversized_response_fails_the_caller_fast() {
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(|req: &[u8]| match req {
            b"huge" => vec![0u8; MAX_FRAME_LEN as usize + 1],
            _ => req.to_vec(),
        }),
    )
    .unwrap();
    let timeout = Duration::from_secs(30);
    let conn = TcpConn::new(server.local_addr().to_string()).with_timeout(timeout);
    assert_eq!(conn.call(b"fine").unwrap(), b"fine");

    let started = Instant::now();
    assert_eq!(conn.call(b"huge"), Err(RpcError::Disconnected));
    assert!(
        started.elapsed() < timeout / 3,
        "caller waited {:?} for a response that was never going to be sent",
        started.elapsed()
    );
    // The server itself is fine: a fresh connection is served.
    assert_eq!(conn.call(b"fine again").unwrap(), b"fine again");
}
