//! Integration tests for the multiplexed, pipelined TCP transport.
//!
//! These exercise the request-id machinery end to end over real
//! sockets: many threads sharing ONE `TcpConn`, responses completing out of
//! order on the server's per-connection worker pool, frames dribbling in
//! slower than the server's read timeout, and reconnect behaviour when a
//! dial fails.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tango_rpc::frame::{read_frame, write_frame};
use tango_rpc::{ClientConn, RpcError, TcpConn, TcpServer};

/// Handler protocol used by these tests: requests look like
/// `"<sleep_ms>:<tag>"`; the handler sleeps `sleep_ms` then echoes the
/// whole request back.
fn sleepy_echo(req: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(req).expect("test requests are utf-8");
    let (ms, _) = text.split_once(':').expect("test requests are `<ms>:<tag>`");
    let ms: u64 = ms.parse().expect("sleep prefix is a number");
    if ms > 0 {
        thread::sleep(Duration::from_millis(ms));
    }
    req.to_vec()
}

#[test]
fn pipelining_stress_many_threads_one_conn() {
    // N threads × M RPCs, all multiplexed over a single shared TcpConn.
    // Jittered handler sleeps force responses to interleave arbitrarily;
    // every caller must still get exactly its own response back.
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(sleepy_echo)).unwrap();
    let conn = Arc::new(TcpConn::new(server.local_addr().to_string()));

    const THREADS: usize = 8;
    const CALLS: usize = 25;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                for c in 0..CALLS {
                    let sleep_ms = (t * 7 + c * 3) % 13;
                    let msg = format!("{sleep_ms}:stress-{t}-{c}");
                    let reply = conn.call(msg.as_bytes()).unwrap();
                    assert_eq!(reply, msg.as_bytes(), "response routed to wrong waiter");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn responses_complete_out_of_order() {
    // A slow request issued first and a fast request issued second over the
    // SAME connection: the fast one must come back first, which is only
    // possible if the server services them concurrently and the client
    // routes responses by id rather than by arrival order.
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(sleepy_echo)).unwrap();
    let conn = Arc::new(TcpConn::new(server.local_addr().to_string()));
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    let slow = {
        let (conn, order) = (Arc::clone(&conn), Arc::clone(&order));
        thread::spawn(move || {
            assert_eq!(conn.call(b"600:slow").unwrap(), b"600:slow");
            order.lock().unwrap().push("slow");
        })
    };
    // Make sure the slow request is on the wire before the fast one.
    thread::sleep(Duration::from_millis(100));
    let fast = {
        let (conn, order) = (Arc::clone(&conn), Arc::clone(&order));
        thread::spawn(move || {
            let started = Instant::now();
            assert_eq!(conn.call(b"0:fast").unwrap(), b"0:fast");
            assert!(
                started.elapsed() < Duration::from_millis(400),
                "fast call was serialized behind the slow one"
            );
            order.lock().unwrap().push("fast");
        })
    };
    slow.join().unwrap();
    fast.join().unwrap();
    assert_eq!(*order.lock().unwrap(), vec!["fast", "slow"]);
}

#[test]
fn slow_dribbled_frame_survives_read_timeouts() {
    // Regression for the mid-frame desync bug: the server's connection
    // reader polls with a 200ms read timeout. A client that dribbles a
    // frame in chunks slower than that used to have its partial bytes
    // dropped, desyncing the stream and killing the connection with
    // BadFrame. The resumable assembler must ride out the stalls.
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(sleepy_echo)).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    sock.set_nodelay(true).unwrap();

    let payload = format!("0:dribble-{}", "x".repeat(64));
    let mut frame = Vec::new();
    write_frame(&mut frame, 42, payload.as_bytes()).unwrap();

    // Dribble in 7-byte chunks, stalling well past the server's 200ms poll
    // interval between each, so the frame arrives across many timeouts.
    for chunk in frame.chunks(7) {
        sock.write_all(chunk).unwrap();
        sock.flush().unwrap();
        thread::sleep(Duration::from_millis(250));
    }

    let reply = read_frame(&mut sock).unwrap();
    assert_eq!(reply.id, 42, "response must carry the request's id");
    assert_eq!(reply.payload, payload.as_bytes());

    // The connection must still be healthy for a normal, undribbled frame.
    let mut second = Vec::new();
    write_frame(&mut second, 43, b"0:after-dribble").unwrap();
    sock.write_all(&second).unwrap();
    let reply = read_frame(&mut sock).unwrap();
    assert_eq!(reply.id, 43);
    assert_eq!(reply.payload, b"0:after-dribble");
}

#[test]
fn failed_reconnect_is_not_cached() {
    // Regression for the stale-stream bug: when a reconnect attempt failed,
    // the old client left the known-broken stream cached, so later calls
    // kept failing against it even once the server was back. The broken
    // stream must be discarded BEFORE dialing, so recovery needs nothing
    // but a listening server.
    let mut server = TcpServer::spawn("127.0.0.1:0", Arc::new(sleepy_echo)).unwrap();
    let addr = server.local_addr().to_string();
    let conn = TcpConn::new(addr.clone()).with_timeout(Duration::from_secs(2));
    assert_eq!(conn.call(b"0:up").unwrap(), b"0:up");

    server.shutdown();
    drop(server);
    // With nothing listening, calls must fail (possibly after the dead
    // server's poll interval drains) — and each failure includes a failed
    // reconnect attempt that must not leave junk behind.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.call(b"0:down") {
            Err(RpcError::Io(_)) | Err(RpcError::Disconnected) => break,
            Err(other) => panic!("unexpected error while down: {other:?}"),
            Ok(_) => {
                assert!(Instant::now() < deadline, "old socket never died");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // One more failed call for good measure: a failed reconnect right now
    // is exactly the state the bug used to poison.
    assert!(conn.call(b"0:still-down").is_err());

    let _server2 = TcpServer::spawn(&addr, Arc::new(sleepy_echo)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.call(b"0:back") {
            Ok(reply) => {
                assert_eq!(reply, b"0:back");
                break;
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "client never recovered after server restart");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn timed_out_call_does_not_poison_the_connection() {
    // A call that exceeds the client timeout abandons its waiter; the late
    // response is discarded by id and later calls proceed normally on the
    // same connection.
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(sleepy_echo)).unwrap();
    let conn =
        TcpConn::new(server.local_addr().to_string()).with_timeout(Duration::from_millis(300));
    match conn.call(b"900:too-slow") {
        Err(RpcError::Timeout) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // The slow handler is still running server-side; subsequent calls on
    // the same connection must not be confused by its late response.
    for i in 0..5 {
        let msg = format!("0:after-timeout-{i}");
        assert_eq!(conn.call(msg.as_bytes()).unwrap(), msg.as_bytes());
    }
}
