//! A minimal, hand-rolled HTTP/1.1 scrape endpoint for metrics.
//!
//! Every node of a real TCP deployment runs one of these next to its RPC
//! server, exposing its [`Registry`] to anything that speaks HTTP:
//!
//! * `GET /metrics` — human-readable text snapshot (also served at `/`)
//! * `GET /metrics.json` — JSON snapshot
//! * `GET /spans.json` — recorded trace spans plus the slow-request log
//! * `GET /events.json` — this node's structured control-plane event
//!   journal (the flight recorder)
//! * `GET /healthz` — this node's health verdict (`ok` / `degraded` /
//!   `unhealthy`) with machine-readable reasons; `unhealthy` answers 503
//! * `GET /snapshot.bin` — the binary snapshot encoding
//!   ([`Snapshot::to_bytes`]), which is what the cluster aggregator
//!   fetches so nothing ever needs to *parse* JSON (events ride along)
//!
//! Each request re-reads `TANGO_SLOW_MS` into the registry's tracer, so
//! the slow-request threshold can be retuned on a live process between
//! scrapes.
//!
//! The implementation is intentionally tiny: `GET` only, one request per
//! connection (`Connection: close`), no keep-alive, no chunking. Requests
//! are served by a **fixed pool** of [`SCRAPE_WORKERS`] threads behind a
//! bounded queue — an aggressive or misbehaving scraper can at worst get
//! its connections dropped at the queue cap, never exhaust the process's
//! threads (the old endpoint spawned one thread per request). No new
//! dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use tango_metrics::{
    events_to_json, spans_to_json, HealthPolicy, HealthReport, Registry, Snapshot,
};

use crate::{Result, RpcError};

/// How long a scrape connection may dawdle before being dropped.
const HTTP_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Size of the fixed scrape-serving pool. Scrapes are a couple of
/// requests per poll interval; two workers ride out one slow client.
pub const SCRAPE_WORKERS: usize = 2;

/// Accepted scrape connections queued beyond this are dropped instead of
/// accumulating without bound.
const SCRAPE_QUEUE_MAX: usize = 256;

/// A running scrape endpoint. Dropping the handle shuts it down.
pub struct HttpScrapeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpScrapeServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `registry` snapshots
    /// until dropped. The accept thread is named `http<port>-a` and the
    /// pool `http<port>-w<i>` (within the kernel's 15-byte `comm` limit).
    pub fn spawn(addr: &str, registry: Registry) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queued = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel::unbounded::<TcpStream>();
        let mut workers = Vec::with_capacity(SCRAPE_WORKERS);
        for i in 0..SCRAPE_WORKERS {
            let rx = rx.clone();
            let registry = registry.clone();
            let queued = Arc::clone(&queued);
            let worker = std::thread::Builder::new()
                .name(format!("http{}-w{i}", local.port()))
                .spawn(move || {
                    while let Ok(stream) = rx.recv() {
                        queued.fetch_sub(1, Ordering::AcqRel);
                        serve_request(stream, &registry);
                    }
                })
                .map_err(|e| RpcError::Io(e.to_string()))?;
            workers.push(worker);
        }
        drop(rx);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name(format!("http{}-a", local.port()))
            .spawn(move || accept_loop(listener, tx, queued, accept_shutdown))
            .map_err(|e| RpcError::Io(e.to_string()))?;
        Ok(Self { addr: local, shutdown, accept_thread: Some(accept_thread), workers })
    }

    /// The address the endpoint is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and joins its accept thread and worker pool.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        poke_listener(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread owned the queue sender; with it gone the
        // workers drain what is queued and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connects to the listener so a blocked `accept` returns. A listener
/// bound to a wildcard address (`0.0.0.0` / `::`) is not dialable at that
/// address — poke it via the matching loopback instead.
fn poke_listener(addr: SocketAddr) {
    let target = if addr.ip().is_unspecified() {
        let loopback = match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        };
        SocketAddr::new(loopback, addr.port())
    } else {
        addr
    };
    let _ = TcpStream::connect_timeout(&target, Duration::from_millis(500));
}

fn accept_loop(
    listener: TcpListener,
    tx: channel::Sender<TcpStream>,
    queued: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Bounded handoff to the fixed pool: past the cap the connection
        // is dropped on the floor, which a scraper sees as a reset — far
        // better than unbounded thread growth.
        if queued.load(Ordering::Acquire) >= SCRAPE_QUEUE_MAX {
            drop(stream);
            continue;
        }
        queued.fetch_add(1, Ordering::AcqRel);
        if tx.send(stream).is_err() {
            return;
        }
    }
}

fn serve_request(stream: TcpStream, registry: &Registry) {
    let _ = stream.set_read_timeout(Some(HTTP_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(HTTP_IO_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain (and ignore) the headers up to the blank line.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }

    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let mut stream = stream;
    if method != "GET" {
        let _ = write_response(&mut stream, 405, "text/plain", b"method not allowed");
        return;
    }
    let path = path.split('?').next().unwrap_or(path);
    // A live process can be retuned between scrapes: the slow-request
    // threshold follows TANGO_SLOW_MS without a restart.
    registry.tracer().refresh_slow_threshold_from_env();
    let (status, content_type, body): (u16, &str, Vec<u8>) = match path {
        "/" | "/metrics" => {
            (200, "text/plain; charset=utf-8", registry.snapshot().to_text().into_bytes())
        }
        "/metrics.json" => (200, "application/json", registry.snapshot().to_json().into_bytes()),
        "/snapshot.bin" => (200, "application/octet-stream", registry.snapshot().to_bytes()),
        "/spans.json" => {
            let body = format!(
                "{{\"spans\":{},\"slow\":{}}}",
                spans_to_json(&registry.spans()),
                spans_to_json(&registry.slow_spans()),
            );
            (200, "application/json", body.into_bytes())
        }
        "/events.json" => {
            let body = format!("{{\"events\":{}}}", events_to_json(&registry.event_records()));
            (200, "application/json", body.into_bytes())
        }
        "/healthz" => {
            let report = HealthReport::evaluate(&registry.snapshot(), &HealthPolicy::default());
            let status =
                if report.status == tango_metrics::HealthStatus::Unhealthy { 503 } else { 200 };
            (status, "application/json", report.to_json().into_bytes())
        }
        _ => (404, "text/plain", b"not found".to_vec()),
    };
    let _ = write_response(&mut stream, status, content_type, &body);
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Minimal HTTP GET against a scrape endpoint: returns `(status, body)`.
/// Understands exactly what [`HttpScrapeServer`] emits (`Content-Length`
/// + `Connection: close`), which is all the aggregator needs.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, Vec<u8>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| RpcError::BadFrame(format!("bad http status line: {status_line:?}")))?;

    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }

    let body = match content_length {
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            // Connection: close delimits the body.
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok((status, body))
}

/// Fetches `/snapshot.bin` from a scrape endpoint and decodes it.
pub fn fetch_snapshot(addr: &str, timeout: Duration) -> Result<Snapshot> {
    let (status, body) = http_get(addr, "/snapshot.bin", timeout)?;
    if status != 200 {
        return Err(RpcError::BadFrame(format!("scrape of {addr} returned HTTP {status}")));
    }
    Snapshot::from_bytes(&body).map_err(|e| RpcError::BadFrame(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_metrics::SpanKind;

    fn test_registry() -> Registry {
        let r = Registry::new();
        r.counter("ops.total").add(5);
        r.histogram("lat_ns").record(1234);
        r.tracer().root_forced(SpanKind::ClientRead).finish();
        r
    }

    #[test]
    fn serves_text_json_and_binary() {
        let server = HttpScrapeServer::spawn("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(2);

        let (status, body) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("ops.total"));

        let (status, body) = http_get(&addr, "/metrics.json", t).unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"ops.total\":5"));

        let snap = fetch_snapshot(&addr, t).unwrap();
        assert_eq!(snap.counter("ops.total"), 5);
        assert_eq!(snap.histogram("lat_ns").unwrap().count(), 1);

        let (status, body) = http_get(&addr, "/spans.json", t).unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        assert!(text.contains("\"spans\":["), "{text}");
        assert!(text.contains("client.read"), "{text}");
    }

    #[test]
    fn root_serves_text_and_unknown_paths_404() {
        let server = HttpScrapeServer::spawn("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(2);
        let (status, _) = http_get(&addr, "/", t).unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_get(&addr, "/nope", t).unwrap();
        assert_eq!(status, 404);
        // Query strings are ignored for routing.
        let (status, _) = http_get(&addr, "/metrics?x=1", t).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn serves_events_and_healthz() {
        let registry = test_registry();
        registry.events().emit(tango_metrics::EventKind::Sealed, 3, 1, 42);
        let server = HttpScrapeServer::spawn("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(2);

        let (status, body) = http_get(&addr, "/events.json", t).unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with("{\"events\":["), "{text}");
        assert!(text.contains("\"kind\":\"sealed\""), "{text}");

        let (status, body) = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with("{\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn unhealthy_healthz_answers_503() {
        let registry = Registry::new();
        let policy = HealthPolicy::default();
        registry
            .gauge(tango_metrics::health::GAUGE_HOLE_BACKLOG)
            .set(policy.max_hole_backlog * 4 + 1);
        let server = HttpScrapeServer::spawn("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().to_string();

        let (status, body) = http_get(&addr, "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 503);
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with("{\"status\":\"unhealthy\""), "{text}");
        assert!(text.contains("hole_backlog"), "{text}");
    }

    #[test]
    fn scrape_applies_tango_slow_ms_to_the_live_registry() {
        let registry = Registry::new();
        let server = HttpScrapeServer::spawn("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(2);
        let before = registry.tracer().slow_threshold().unwrap();

        std::env::set_var(tango_metrics::trace::SLOW_MS_ENV, "1234");
        let (status, _) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            registry.tracer().slow_threshold(),
            Some(Duration::from_millis(1234)),
            "a scrape must re-read the env var into the live tracer"
        );

        // Unset leaves the last applied threshold in place.
        std::env::remove_var(tango_metrics::trace::SLOW_MS_ENV);
        let (status, _) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(registry.tracer().slow_threshold(), Some(Duration::from_millis(1234)));
        assert_ne!(before, Duration::from_millis(1234), "default differs from the test value");
    }

    #[test]
    fn non_get_is_rejected() {
        let server = HttpScrapeServer::spawn("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
    }

    #[test]
    fn shutdown_is_clean_and_port_reusable() {
        let mut server = HttpScrapeServer::spawn("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr().to_string();
        server.shutdown();
        assert!(http_get(&addr, "/metrics", Duration::from_millis(300)).is_err());
    }
}
