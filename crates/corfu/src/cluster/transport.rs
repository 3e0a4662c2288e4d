//! The [`Transport`] seam of the deployment harness and its two
//! implementors: [`InProcess`] (a [`HandlerRegistry`], no sockets) and
//! [`Tcp`] (one [`TcpServer`] per node, answering the snapshot request too).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use tango_metrics::{Registry, Snapshot};
use tango_rpc::{
    fetch_snapshot, serve_snapshot, ClientConn, ConnMetrics, RpcError, RpcHandler, TcpConn,
    TcpServer,
};

use crate::client::ConnFactory;
use crate::{NodeInfo, Result};

/// Shared registry mapping node addresses to in-process handlers. Removing
/// an address simulates a node crash: subsequent calls fail with
/// `Disconnected`.
#[derive(Clone, Default)]
pub struct HandlerRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<dyn RpcHandler>>>>,
}

impl HandlerRegistry {
    /// Registers (or replaces) the handler at `addr`.
    pub fn register(&self, addr: impl Into<String>, handler: Arc<dyn RpcHandler>) {
        self.inner.write().insert(addr.into(), handler);
    }

    /// Removes the handler at `addr`, simulating a crash.
    pub fn kill(&self, addr: &str) {
        self.inner.write().remove(addr);
    }
}

/// A connection that resolves its target in the registry on every call, so
/// kills and restarts take effect immediately.
struct RegistryConn {
    registry: HandlerRegistry,
    addr: String,
}

impl ClientConn for RegistryConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let handler = self.registry.inner.read().get(&self.addr).cloned();
        handler.map(|h| h.handle(request)).ok_or(RpcError::Disconnected)
    }
}

/// Everything that differs between deployment shapes, and nothing else:
/// how a handler is served at an address, dialled, killed and scraped, and
/// which registry a node records into. [`super::Cluster`] is written once against
/// this trait; a new shape (e.g. a simulated network) is a third
/// implementor, not a third harness.
pub trait Transport: Send + Sync + 'static {
    /// Handle to one served node; [`Transport::kill`] consumes it.
    type Endpoint: Send;

    /// Registry policy. `true`: every node records into the cluster
    /// handle's registry, so one [`super::Cluster::metrics`] read sees servers and
    /// clients alike. `false`: every node gets a registry of its own, as
    /// separate processes would, and the handle's registry holds
    /// client-side instruments only.
    const SHARED_REGISTRY: bool;

    /// Starts serving `handler`, exposing `registry` wherever this
    /// transport publishes a node's metrics, and returns the address
    /// clients dial. `label` is the node's stable `kind-id` label; a
    /// transport without addresses of its own uses it as the address.
    fn serve(
        &self,
        label: &str,
        handler: Arc<dyn RpcHandler>,
        registry: &Registry,
    ) -> Result<(String, Self::Endpoint)>;

    /// The dial half: connections to served addresses, recording transport
    /// instruments (if the transport has any) into `metrics`.
    fn conn_factory(&self, metrics: &Registry) -> Arc<dyn ConnFactory>;

    /// Crashes the node: its address stops answering, open connections fail.
    fn kill(&self, endpoint: Self::Endpoint);

    /// The node's own registry as a monitor would read it: empty for a
    /// node on the shared registry, `Err` when the node does not answer.
    fn scrape(&self, endpoint: &Self::Endpoint) -> tango_rpc::Result<Snapshot>;
}

/// The in-process transport: handlers live in a [`HandlerRegistry`] and
/// calls go through the same wire encoding as TCP, minus the sockets.
#[derive(Default)]
pub struct InProcess {
    pub(super) registry: HandlerRegistry,
}

impl Transport for InProcess {
    /// The registered address.
    type Endpoint = String;
    const SHARED_REGISTRY: bool = true;

    fn serve(
        &self,
        label: &str,
        handler: Arc<dyn RpcHandler>,
        _registry: &Registry,
    ) -> Result<(String, String)> {
        self.registry.register(label, handler);
        Ok((label.to_owned(), label.to_owned()))
    }

    fn conn_factory(&self, _metrics: &Registry) -> Arc<dyn ConnFactory> {
        let registry = self.registry.clone();
        Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
            Arc::new(RegistryConn { registry: registry.clone(), addr: node.addr.clone() })
        })
    }

    fn kill(&self, addr: String) {
        self.registry.kill(&addr);
    }

    fn scrape(&self, _addr: &String) -> tango_rpc::Result<Snapshot> {
        Ok(Snapshot::default())
    }
}

/// The TCP transport: every node is one [`TcpServer`] on an ephemeral
/// localhost port, serving its handler and — on the same port — its
/// registry's snapshot ([`serve_snapshot`]).
#[derive(Clone, Copy, Default)]
pub struct Tcp;

impl Transport for Tcp {
    /// The node's server; dropping it shuts the node down.
    type Endpoint = TcpServer;
    const SHARED_REGISTRY: bool = false;

    fn serve(
        &self,
        _label: &str,
        handler: Arc<dyn RpcHandler>,
        registry: &Registry,
    ) -> Result<(String, TcpServer)> {
        // Surface the node's reactor health (connection gauge, dropped
        // accepts) in its own registry so scrapes see transport pressure.
        let options = tango_rpc::ServerOptions {
            metrics: tango_rpc::ServerMetrics::from_registry(registry),
            ..Default::default()
        };
        let handler = serve_snapshot(registry.clone(), handler);
        let server = TcpServer::spawn_with("127.0.0.1:0", handler, options)?;
        Ok((server.local_addr().to_string(), server))
    }

    fn conn_factory(&self, metrics: &Registry) -> Arc<dyn ConnFactory> {
        let conn_metrics = ConnMetrics::from_registry(metrics);
        Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
            Arc::new(TcpConn::new(node.addr.clone()).with_metrics(conn_metrics.clone()))
        })
    }

    fn kill(&self, server: TcpServer) {
        drop(server);
    }

    fn scrape(&self, server: &TcpServer) -> tango_rpc::Result<Snapshot> {
        fetch_snapshot(&server.local_addr().to_string(), Duration::from_secs(2))
    }
}
