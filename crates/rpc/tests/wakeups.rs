//! An RPC costs two wake-ups: the caller blocks once, in `read` on its own
//! socket, and one server thread blocks once, in `epoll_wait`. Any thread
//! hand-off on either end (a reactor feeding a worker pool, a reader
//! thread feeding callers) shows up here as a third and fourth.
//!
//! This binary holds this one test: the count is over every thread of the
//! process.

use std::sync::Arc;

use tango_rpc::{ClientConn, TcpConn, TcpServer};

/// Voluntary context switches (a thread blocked and gave up its CPU) of
/// every thread of this process so far.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn an_echo_call_costs_two_wakeups() {
    const CALLS: u64 = 20_000;
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    let conn = TcpConn::new(server.local_addr().to_string());
    let request = [7u8; 512];
    // Dial, and let the server's threads settle into `epoll_wait`.
    for _ in 0..100 {
        assert_eq!(conn.call(&request).unwrap(), request);
    }
    let before = voluntary_switches();
    for _ in 0..CALLS {
        assert_eq!(conn.call(&request).unwrap(), request);
    }
    let per_call = (voluntary_switches() - before) as f64 / CALLS as f64;
    assert!(
        per_call <= 2.5,
        "{per_call:.2} voluntary context switches per echo call: some thread is handing \
         requests or responses to another"
    );
}
