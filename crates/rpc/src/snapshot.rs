//! The one request every node answers whatever it serves: its registry's
//! snapshot, on the port its service already listens on.

use std::sync::Arc;
use std::time::Duration;

use tango_metrics::{Registry, Snapshot};

use crate::{ClientConn, Result, RpcError, RpcHandler, TcpConn};

/// The reserved request. Every service protocol opens with a small tag
/// byte, so no service decoder accepts a body that opens with `0xFF`.
pub const SNAPSHOT_REQUEST: &[u8] = b"\xFFTMS-snapshot";

/// Wraps `service` so that [`SNAPSHOT_REQUEST`] is answered with
/// `registry.snapshot().to_bytes()` — before the service sees it, so a
/// sealed node or one at a stale epoch still answers — and every other
/// request goes to `service` untouched.
pub fn serve_snapshot(registry: Registry, service: Arc<dyn RpcHandler>) -> Arc<dyn RpcHandler> {
    Arc::new(move |request: &[u8]| {
        if request == SNAPSHOT_REQUEST {
            registry.snapshot().to_bytes()
        } else {
            service.handle(request)
        }
    })
}

/// Asks the node at `addr` for its snapshot. `timeout` bounds the dial and
/// the call; a node that does not answer, or answers with anything but a
/// snapshot, is an error.
pub fn fetch_snapshot(addr: &str, timeout: Duration) -> Result<Snapshot> {
    let body = TcpConn::new(addr).with_timeout(timeout).call(SNAPSHOT_REQUEST)?;
    Snapshot::from_bytes(&body).map_err(|e| RpcError::BadFrame(format!("{addr}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TcpServer;
    use tango_metrics::health::MAX_HOLE_BACKLOG;
    use tango_metrics::{EventKind, HealthReport, HealthStatus};

    const T: Duration = Duration::from_secs(2);

    fn node(registry: &Registry) -> TcpServer {
        let echo: Arc<dyn RpcHandler> = Arc::new(|request: &[u8]| request.to_vec());
        TcpServer::spawn("127.0.0.1:0", serve_snapshot(registry.clone(), echo)).unwrap()
    }

    #[test]
    fn a_node_answers_with_its_registry_and_its_journal() {
        let registry = Registry::new();
        registry.counter("ops.total").add(5);
        registry.histogram("lat_ns").record(1234);
        registry.events().emit(EventKind::Sealed, 3, 1, 42);
        let server = node(&registry);

        let snap = fetch_snapshot(&server.local_addr().to_string(), T).unwrap();
        assert_eq!(snap.counter("ops.total"), 5);
        assert_eq!(snap.histogram("lat_ns").unwrap().count(), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, EventKind::Sealed);
        assert_eq!(HealthReport::evaluate(&snap).status, HealthStatus::Ok);
    }

    #[test]
    fn every_other_request_reaches_the_service() {
        let server = node(&Registry::new());
        let conn = TcpConn::new(server.local_addr().to_string());
        assert_eq!(conn.call(b"ping").unwrap(), b"ping");
        // A prefix of the reserved request is not the reserved request.
        let prefix = &SNAPSHOT_REQUEST[..SNAPSHOT_REQUEST.len() - 1];
        assert_eq!(conn.call(prefix).unwrap(), prefix);
    }

    #[test]
    fn an_unhealthy_registry_reads_unhealthy_through_the_request() {
        let registry = Registry::new();
        registry.gauge(tango_metrics::health::GAUGE_HOLE_BACKLOG).set(MAX_HOLE_BACKLOG * 4 + 1);
        let server = node(&registry);

        let snap = fetch_snapshot(&server.local_addr().to_string(), T).unwrap();
        let report = HealthReport::evaluate(&snap);
        assert_eq!(report.status, HealthStatus::Unhealthy);
        assert_eq!(report.reasons[0].code, "hole_backlog");
    }

    #[test]
    fn a_node_that_is_gone_or_serves_no_snapshot_is_an_error() {
        let mut server = node(&Registry::new());
        let addr = server.local_addr().to_string();
        server.shutdown();
        assert!(fetch_snapshot(&addr, Duration::from_millis(300)).is_err());

        // A bare service answers the reserved request in its own protocol.
        let bare =
            TcpServer::spawn("127.0.0.1:0", Arc::new(|request: &[u8]| request.to_vec())).unwrap();
        let err = fetch_snapshot(&bare.local_addr().to_string(), T).unwrap_err();
        assert!(matches!(err, RpcError::BadFrame(_)), "{err:?}");
    }
}
