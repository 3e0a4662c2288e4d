//! The deployment harness: one [`Cluster`] stands a full CORFU deployment
//! up — storage nodes, compactors, per-log sequencers, the genesis
//! projection and the metalog replicas — for tests, examples and
//! benchmarks, generic over the [`Transport`] its nodes are served on.
//!
//! [`Transport`] hides exactly what differs between an in-process
//! deployment ([`LocalCluster`]), one over real sockets ([`TcpCluster`])
//! and one on the simulated transport ([`SimCluster`]: virtual time, seeded
//! scheduling and faults). Everything else — the spawn routine, clients, failure
//! injection (any node can be killed and a replacement served for the
//! [`crate::reconfig`] protocols), snapshots and health — exists once, so
//! every capability exists on every transport.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tango_flash::{FlashUnit, TieredStore};
use tango_meta::{Dial, MetaClient, MetaNode, ReplicaInfo};
use tango_metrics::{ClusterHealth, ClusterSnapshot, Registry};
use tango_rpc::{ClientConn, Clock, RpcHandler};
use tango_wire::encode_to_vec;

use crate::client::{ClientOptions, ConnFactory, CorfuClient};
use crate::compactor::{Compactor, CompactorConfig};
use crate::layout::LayoutClient;
use crate::projection::{LogLayout, ShardMap};
use crate::sequencer::SequencerServer;
use crate::storage::StorageServer;
use crate::{NodeId, NodeInfo, Projection, Result};

mod sim;
mod testbed;
mod transport;
pub use sim::{Delivery, Outcome, Sim, SimJoin, SimTime, ThreadCrashed};
pub use testbed::Testbed;
pub use transport::{HandlerRegistry, InProcess, Tcp, Transport};

/// Geometry and tuning for a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent logs the stream namespace is sharded across,
    /// each with its own sequencer and its own `num_sets` × `replication`
    /// storage nodes. 1 (the default) is the classic single-log deployment.
    pub num_logs: usize,
    /// Number of replica sets each log's address space stripes over.
    pub num_sets: usize,
    /// Replicas per set (chain length).
    pub replication: usize,
    /// Fixed log entry (page) size in bytes.
    pub page_size: usize,
    /// Backpointers maintained per stream (K in §5).
    pub k_backpointers: usize,
    /// Metalog (layout service) replicas. The quorum discipline tolerates
    /// `⌊n/2⌋` fail-stop crashes, so the default of 3 rides through any
    /// single replica failure.
    pub layout_replicas: usize,
    /// Client options handed to [`Cluster::client`].
    pub client_options: ClientOptions,
    /// Page store each storage node runs on.
    pub storage: StorageBackend,
    /// When set, every storage node runs a background [`Compactor`] with
    /// this cadence (horizon advance + cold migration + periodic scrub).
    /// The harness owns the handles and stops them on drop.
    pub compaction: Option<CompactorConfig>,
}

/// What a storage node keeps its pages on.
#[derive(Debug, Clone, Default)]
pub enum StorageBackend {
    /// Volatile in-memory pages — the default, and the fastest for unit
    /// tests. No tiering: every page is "hot" forever.
    #[default]
    InMemory,
    /// A [`TieredStore`] per node under `root/node-<id>`: RAM hot tail,
    /// segmented cold files, whole-segment reclamation below the trim
    /// horizon. This is the backend the churn bench runs on.
    Tiered {
        /// Directory under which each node's store lives.
        root: PathBuf,
        /// Cold-tier segment size in pages.
        pages_per_segment: u64,
        /// Target number of hot (RAM) pages per node.
        hot_capacity: usize,
    },
}

impl StorageBackend {
    fn build_unit(&self, node_id: NodeId, page_size: usize) -> Result<FlashUnit> {
        match self {
            StorageBackend::InMemory => Ok(FlashUnit::in_memory(page_size)),
            StorageBackend::Tiered { root, pages_per_segment, hot_capacity } => {
                let dir = root.join(format!("node-{node_id}"));
                let store = TieredStore::open(&dir, page_size, *pages_per_segment, *hot_capacity)
                    .map_err(|e| crate::CorfuError::Storage(e.to_string()))?;
                FlashUnit::open(Box::new(store), page_size)
                    .map_err(|e| crate::CorfuError::Storage(e.to_string()))
            }
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_logs: 1,
            num_sets: 3,
            replication: 2,
            page_size: 4096,
            k_backpointers: 4,
            layout_replicas: 3,
            client_options: ClientOptions::default(),
            storage: StorageBackend::InMemory,
            compaction: None,
        }
    }
}

impl ClusterConfig {
    /// A tiny 1x1 cluster for unit tests.
    pub fn tiny() -> Self {
        Self { num_sets: 1, replication: 1, ..Self::default() }
    }

    /// The paper's evaluation deployment: 18 nodes in a 9x2 configuration.
    pub fn paper_testbed() -> Self {
        Self { num_sets: 9, replication: 2, ..Self::default() }
    }

    /// A sharded deployment: `num_logs` logs, each 1x1, streams hash-
    /// partitioned across them.
    pub fn sharded(num_logs: usize) -> Self {
        Self { num_logs, num_sets: 1, replication: 1, ..Self::default() }
    }

    /// Puts every storage node on a [`TieredStore`] under `root` and turns
    /// the background compactor on — the configuration the churn bench and
    /// the reclamation integration tests run.
    pub fn with_tiered_storage(
        mut self,
        root: impl Into<PathBuf>,
        pages_per_segment: u64,
        hot_capacity: usize,
    ) -> Self {
        self.storage =
            StorageBackend::Tiered { root: root.into(), pages_per_segment, hot_capacity };
        self.compaction = Some(CompactorConfig::default());
        self
    }
}

/// Node id assigned to the first sequencer; replacements count up from it.
pub const SEQUENCER_BASE_ID: NodeId = 10_000;

/// Node ids of replacement storage nodes count up from here. Kept above
/// the sequencer range so node kind is recoverable from the id.
pub const STORAGE_REPLACEMENT_BASE_ID: NodeId = 20_000;

/// Node id assigned to the first metalog (layout) replica; replacements
/// count up past the initial set. Kept above the storage-replacement range
/// so node kind is recoverable from the id.
pub const LAYOUT_BASE_ID: NodeId = 30_000;

/// What a live node runs; a storage node owns its background compactor.
enum Role {
    Storage(Arc<StorageServer>, Option<Compactor>),
    Sequencer,
    Meta(Arc<MetaNode>),
}

/// One live node; `name` is its monitoring name (`storage-3`,
/// `sequencer`, `layout-30000`).
struct Node<T: Transport> {
    name: String,
    registry: Registry,
    role: Role,
    endpoint: T::Endpoint,
}

/// A complete CORFU deployment — storage nodes, their compactors, one
/// sequencer per log, and the metalog replicas holding the projection —
/// served on transport `T`, with failure injection: any node can be killed
/// and a replacement spawned for the [`crate::reconfig`] protocols.
pub struct Cluster<T: Transport> {
    config: ClusterConfig,
    transport: T,
    metrics: Registry,
    /// Every live node by id; removing one is the kill.
    nodes: Mutex<HashMap<NodeId, Node<T>>>,
    /// Names of killed nodes still on the monitoring target list: they
    /// count as unreachable until [`Cluster::retire_scrape_target`].
    dead_targets: Mutex<Vec<String>>,
    /// The initial storage servers, indexed by node id.
    storage: Vec<Arc<StorageServer>>,
    /// The initial sequencer servers, indexed by log.
    sequencers: Vec<Arc<SequencerServer>>,
    /// The current metalog replica set, in arbitration order.
    layout_replicas: Mutex<Vec<ReplicaInfo>>,
    /// Numbers replacement nodes of every kind.
    generation: AtomicU32,
}

/// A deployment in one address space: no sockets, one shared registry.
pub type LocalCluster = Cluster<InProcess>;

/// A deployment over real TCP sockets on localhost, every node with a
/// registry of its own, served on the node's one port.
pub type TcpCluster = Cluster<Tcp>;

/// A deployment on the simulated transport: virtual time, seeded
/// scheduling and seeded faults, one shared registry.
pub type SimCluster = Cluster<Sim>;

impl Cluster<InProcess> {
    /// Builds and wires up an in-process cluster per `config`. Every server
    /// and every [`Cluster::client`] records into one shared metrics
    /// registry ([`Cluster::metrics`]).
    pub fn new(config: ClusterConfig) -> Self {
        Self::start(InProcess::default(), config).expect("start in-process cluster")
    }

    /// The handler registry (for failure injection).
    pub fn registry(&self) -> &HandlerRegistry {
        &self.transport.registry
    }
}

impl Cluster<Sim> {
    /// Builds the cluster on a fresh [`Sim`] seeded with `seed`; the calling
    /// thread becomes the simulation's first scheduled thread.
    pub fn simulated(seed: u64, config: ClusterConfig) -> Self {
        Self::start(Sim::new(seed), config).expect("start simulated cluster")
    }

    /// The simulation the cluster runs on: its fault rules, its threads,
    /// its trace.
    pub fn sim(&self) -> &Sim {
        &self.transport
    }
}

impl Cluster<Tcp> {
    /// Spawns the cluster on ephemeral localhost ports, each node with a
    /// private registry.
    pub fn spawn(config: ClusterConfig) -> Result<Self> {
        Self::start(Tcp, config)
    }

    /// The live nodes, as sorted `(node_name, addr)` pairs: the addresses
    /// clients dial are the addresses a monitor asks for snapshots. The
    /// client-side registry is not listed — no server holds it.
    pub fn scrape_targets(&self) -> Vec<(String, String)> {
        let target = |n: &Node<Tcp>| (n.name.clone(), n.endpoint.local_addr().to_string());
        let mut targets: Vec<_> = self.nodes.lock().values().map(target).collect();
        targets.sort();
        targets
    }
}

/// Adapts a [`ConnFactory`] to the metalog client's [`Dial`].
struct DialThrough(Arc<dyn ConnFactory>);

impl Dial for DialThrough {
    fn dial(&self, replica: &ReplicaInfo) -> Arc<dyn ClientConn> {
        self.0.connect(&NodeInfo { id: replica.id, addr: replica.addr.clone() })
    }

    fn clock(&self) -> Clock {
        self.0.clock()
    }
}

fn dial_through(factory: Arc<dyn ConnFactory>) -> Arc<dyn Dial> {
    Arc::new(DialThrough(factory))
}

impl<T: Transport> Cluster<T> {
    /// Stands the deployment up on `transport`: `num_logs` × `num_sets` ×
    /// `replication` storage nodes (with compactors when configured), one
    /// sequencer per log, and `layout_replicas` metalog replicas
    /// bootstrapped with the genesis projection at position 0.
    pub fn start(transport: T, config: ClusterConfig) -> Result<Self> {
        let mut cluster = Self {
            config,
            transport,
            metrics: Registry::new(),
            nodes: Mutex::default(),
            dead_targets: Mutex::default(),
            storage: Vec::new(),
            sequencers: Vec::new(),
            layout_replicas: Mutex::default(),
            generation: AtomicU32::new(1),
        };
        let num_logs = cluster.config.num_logs.max(1) as u32;
        let mut logs = Vec::new();
        let mut nodes = Vec::new();
        let mut next_id: NodeId = 0;
        for log in 0..num_logs {
            let mut replica_sets = Vec::new();
            for _ in 0..cluster.config.num_sets {
                let mut set = Vec::new();
                for _ in 0..cluster.config.replication {
                    let (info, server) = cluster.spawn_storage(next_id, Some(log))?;
                    cluster.storage.push(server);
                    nodes.push(info);
                    set.push(next_id);
                    next_id += 1;
                }
                replica_sets.push(set);
            }
            let seq_id = SEQUENCER_BASE_ID + log;
            let name = if log == 0 { "sequencer".to_string() } else { format!("sequencer-{log}") };
            let (info, server) = cluster.spawn_sequencer(seq_id, log, name)?;
            cluster.sequencers.push(server);
            nodes.push(info);
            logs.push(LogLayout { epoch: 0, replica_sets, sequencer: seq_id });
        }
        let shard = if num_logs == 1 { ShardMap::single() } else { ShardMap::hashed(num_logs) };
        let genesis = Bytes::from(encode_to_vec(&Projection { epoch: 0, logs, shard, nodes }));
        let ids = LAYOUT_BASE_ID..LAYOUT_BASE_ID + cluster.config.layout_replicas.max(1) as NodeId;
        let metas = ids.map(|id| cluster.spawn_meta(id)).collect::<Result<Vec<_>>>()?;
        let layout_set: Vec<ReplicaInfo> = metas.iter().map(|(info, _)| info.clone()).collect();
        for (_, node) in &metas {
            node.bootstrap(genesis.clone());
            node.set_peers(layout_set.clone());
        }
        *cluster.layout_replicas.lock() = layout_set;
        Ok(cluster)
    }

    /// Builds a server on the registry the transport's policy gives it,
    /// serves it as node `id` at label `{kind}-{id}`, and lists it among the
    /// live nodes under the monitoring name `name`.
    fn spawn_node<S: RpcHandler + 'static>(
        &self,
        id: NodeId,
        kind: &str,
        name: String,
        build: impl FnOnce(&Registry) -> (Arc<S>, Role),
    ) -> Result<(NodeInfo, Arc<S>)> {
        let registry = if T::SHARED_REGISTRY { self.metrics.clone() } else { Registry::new() };
        let (server, role) = build(&registry);
        let handler = Arc::clone(&server) as Arc<dyn RpcHandler>;
        let (addr, endpoint) = self.transport.serve(&format!("{kind}-{id}"), handler, &registry)?;
        self.nodes.lock().insert(id, Node { name, registry, role, endpoint });
        Ok((NodeInfo { id, addr }, server))
    }

    /// A fresh storage node (and its compactor); `log` scopes an initial
    /// node's trim/occupancy instruments to the log it stripes.
    fn spawn_storage(
        &self,
        id: NodeId,
        log: Option<u32>,
    ) -> Result<(NodeInfo, Arc<StorageServer>)> {
        let unit = self.config.storage.build_unit(id, self.config.page_size)?;
        self.spawn_node(id, "storage", format!("storage-{id}"), |registry| {
            let server = Arc::new(match log {
                Some(log) => StorageServer::new(unit).with_metrics_for_log(registry, log as u64),
                None => StorageServer::new(unit).with_metrics(registry),
            });
            let clock = self.transport.clock();
            let compactor = self.config.compaction.clone();
            let compactor =
                compactor.map(|cfg| Compactor::spawn_on(&clock, Arc::clone(&server), cfg));
            (Arc::clone(&server), Role::Storage(server, compactor))
        })
    }

    fn spawn_sequencer(
        &self,
        id: NodeId,
        log: u32,
        name: String,
    ) -> Result<(NodeInfo, Arc<SequencerServer>)> {
        let k = self.config.k_backpointers;
        self.spawn_node(id, "sequencer", name, |registry| {
            (Arc::new(SequencerServer::new_for_log(k, log).with_metrics(registry)), Role::Sequencer)
        })
    }

    fn spawn_meta(&self, id: NodeId) -> Result<(ReplicaInfo, Arc<MetaNode>)> {
        let (info, node) = self.spawn_node(id, "meta", format!("layout-{id}"), |_registry| {
            let node = Arc::new(MetaNode::new());
            (Arc::clone(&node), Role::Meta(node))
        })?;
        Ok((ReplicaInfo { id, addr: info.addr }, node))
    }

    /// Crashes node `id` and leaves its name on the dead-target list.
    fn kill_node(&self, id: NodeId) {
        let Some(mut node) = self.nodes.lock().remove(&id) else { return };
        // Stop a storage node's compactor first, so no background pass runs
        // on a "dead" unit.
        if let Role::Storage(_, Some(compactor)) = &mut node.role {
            compactor.stop();
        }
        self.transport.kill(node.endpoint);
        self.dead_targets.lock().push(node.name);
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster handle's metrics registry: every [`Cluster::client`]
    /// records here. On a shared-registry transport (in-process) so does
    /// every server; otherwise server-side metrics live per node — see
    /// [`Cluster::node_registry`] and [`Cluster::cluster_snapshot`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The registry live node `id` records into (for assertions that would
    /// otherwise need a scrape). `None` for unknown or killed nodes.
    pub fn node_registry(&self, id: NodeId) -> Option<Registry> {
        self.nodes.lock().get(&id).map(|n| n.registry.clone())
    }

    /// Scrapes every live node and adds the handle's own registry (as
    /// `"local"` when nodes share it, else `"clients"`). Also returns the
    /// unreachable names: dead targets plus live nodes that did not answer.
    fn scrape(&self) -> (ClusterSnapshot, Vec<String>) {
        let mut cluster = ClusterSnapshot::new();
        let mut unreachable = self.dead_targets.lock().clone();
        for node in self.nodes.lock().values() {
            match self.transport.scrape(&node.endpoint) {
                Ok(snap) => cluster.insert(node.name.clone(), snap),
                Err(_) => unreachable.push(node.name.clone()),
            }
        }
        unreachable.sort();
        let handle = if T::SHARED_REGISTRY { "local" } else { "clients" };
        cluster.insert(handle, self.metrics.snapshot());
        (cluster, unreachable)
    }

    /// One [`ClusterSnapshot`] of the whole deployment: every live node's
    /// scrape plus the handle's registry. Killed nodes are skipped.
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.scrape().0
    }

    /// Scrapes the cluster and evaluates [`ClusterHealth`]: live targets
    /// that fail to answer and killed-but-not-retired nodes both count as
    /// unreachable, so a fault window reads as `degraded` (or `unhealthy`
    /// once a metalog majority is gone) until repair *and* target-list
    /// cleanup bring it back to `ok`.
    pub fn cluster_health(&self) -> ClusterHealth {
        let (cluster, unreachable) = self.scrape();
        ClusterHealth::evaluate(&cluster, &unreachable)
    }

    /// Drops `name` from the dead-target list after its replacement is in
    /// service — the monitoring analogue of updating the target list.
    pub fn retire_scrape_target(&self, name: &str) {
        self.dead_targets.lock().retain(|n| n != name);
    }

    /// Creates a client with [`ClusterConfig::client_options`].
    pub fn client(&self) -> Result<CorfuClient> {
        self.client_with_options(self.config.client_options.clone())
    }

    /// Creates a client with explicit options, overriding the configured ones.
    pub fn client_with_options(&self, options: ClientOptions) -> Result<CorfuClient> {
        self.client_with_factory(self.conn_factory(), options, self.metrics.clone())
    }

    /// Creates a client whose instruments record into `metrics` instead of
    /// the cluster handle's registry. Pass [`Registry::disabled()`] to
    /// measure the cost of the no-op instrumentation path.
    pub fn client_with_metrics(&self, metrics: Registry) -> Result<CorfuClient> {
        let factory = self.transport.conn_factory(&metrics);
        self.client_with_factory(factory, self.config.client_options.clone(), metrics)
    }

    /// The cluster's plain connection factory. Wrappers (a span recorder,
    /// an interposer) wrap it and build clients via
    /// [`Cluster::client_with_factory`].
    pub fn conn_factory(&self) -> Arc<dyn ConnFactory> {
        self.transport.conn_factory(&self.metrics)
    }

    /// Creates a client routing node connections through an arbitrary
    /// factory — the hook wrappers use to interpose on every client→server
    /// call, layout replicas included.
    pub fn client_with_factory(
        &self,
        factory: Arc<dyn ConnFactory>,
        options: ClientOptions,
        metrics: Registry,
    ) -> Result<CorfuClient> {
        let layout = self.layout_client_with(Arc::clone(&factory), &metrics);
        CorfuClient::with_options_and_metrics(layout, factory, options, metrics)
    }

    /// A layout-service client stub over the metalog replica set.
    pub fn layout_client(&self) -> LayoutClient {
        self.layout_client_with(self.conn_factory(), &self.metrics)
    }

    /// A layout client dialing replicas through `factory` and recording
    /// `meta.*` instruments into `metrics` — the hook wrappers use to
    /// interpose on layout traffic too.
    pub fn layout_client_with(
        &self,
        factory: Arc<dyn ConnFactory>,
        metrics: &Registry,
    ) -> LayoutClient {
        let meta = MetaClient::new(self.layout_replicas(), dial_through(factory));
        LayoutClient::replicated(Arc::new(meta.with_metrics(metrics)))
    }

    /// Direct access to log 0's initial sequencer server (for assertions).
    pub fn sequencer(&self) -> &Arc<SequencerServer> {
        &self.sequencers[0]
    }

    /// Direct access to the initial storage servers, indexed by node id
    /// (killed ones included — their flash outlives the crash).
    pub fn storage(&self) -> &[Arc<StorageServer>] {
        &self.storage
    }

    /// Direct access to one live storage node's server, replacements
    /// included (tier stats, manual compaction). `None` if unknown or killed.
    pub fn storage_server(&self, id: NodeId) -> Option<Arc<StorageServer>> {
        match &self.nodes.lock().get(&id)?.role {
            Role::Storage(server, _) => Some(Arc::clone(server)),
            _ => None,
        }
    }

    /// Kills log 0's current sequencer.
    pub fn kill_sequencer(&self) {
        self.kill_sequencer_of(0)
    }

    /// Kills log `log`'s current sequencer (per the installed projection):
    /// its address stops answering.
    pub fn kill_sequencer_of(&self, log: u32) {
        if let Ok(p) = self.layout_client().get() {
            self.kill_node(p.sequencer_of(log));
        }
    }

    /// Serves a fresh, empty sequencer for log 0 and returns its node
    /// info, ready to be handed to [`crate::reconfig::replace_sequencer`].
    pub fn spawn_replacement_sequencer(&self) -> Result<(NodeInfo, Arc<SequencerServer>)> {
        self.spawn_replacement_sequencer_for(0)
    }

    /// Serves a fresh, empty sequencer for log `log`. Replacement ids are
    /// `SEQUENCER_BASE_ID + generation*100 + log`, so fault harnesses can
    /// recover the log id from a replacement's node id
    /// (`(id - SEQUENCER_BASE_ID) % 100`).
    pub fn spawn_replacement_sequencer_for(
        &self,
        log: u32,
    ) -> Result<(NodeInfo, Arc<SequencerServer>)> {
        let id = SEQUENCER_BASE_ID + self.generation.fetch_add(1, Ordering::SeqCst) * 100 + log;
        self.spawn_sequencer(id, log, format!("sequencer-{id}"))
    }

    /// Kills the storage node `id`: its compactor stops, its address stops
    /// answering and open connections fail. It stays on the monitoring
    /// target list (unreachable) until [`Cluster::retire_scrape_target`].
    pub fn kill_storage_node(&self, id: NodeId) {
        self.kill_node(id);
    }

    /// Serves a fresh, empty storage node and returns its node info and
    /// server, ready for [`crate::reconfig::replace_storage_node`].
    pub fn spawn_replacement_storage(&self) -> Result<(NodeInfo, Arc<StorageServer>)> {
        let gen = self.generation.fetch_add(1, Ordering::SeqCst);
        self.spawn_storage(STORAGE_REPLACEMENT_BASE_ID + gen, None)
    }

    /// The current metalog (layout) replica set, in arbitration order.
    /// Killed replicas stay listed until replaced — a crash does not edit
    /// membership; the quorum client fails over past them.
    pub fn layout_replicas(&self) -> Vec<ReplicaInfo> {
        self.layout_replicas.lock().clone()
    }

    /// Direct access to a live metalog replica. `None` if unknown or killed.
    pub fn meta_node(&self, id: NodeId) -> Option<Arc<MetaNode>> {
        match &self.nodes.lock().get(&id)?.role {
            Role::Meta(node) => Some(Arc::clone(node)),
            _ => None,
        }
    }

    /// Kills the metalog replica `id`: its address stops answering.
    /// Membership is untouched — quorum clients ride through on survivors.
    pub fn kill_layout_replica(&self, id: NodeId) {
        self.kill_node(id);
    }

    /// Replaces the crashed metalog replica `dead`: spawns a fresh node,
    /// copies every decided record onto it from the surviving quorum
    /// (catch-up), then installs the new replica set on all members — the
    /// metalog analogue of [`crate::reconfig::replace_storage_node`]'s
    /// chain rebuild.
    pub fn replace_layout_replica(&self, dead: NodeId) -> Result<ReplicaInfo> {
        let gen = self.generation.fetch_add(1, Ordering::SeqCst);
        let id = LAYOUT_BASE_ID + self.config.layout_replicas.max(1) as NodeId + gen;
        let (info, _node) = self.spawn_meta(id)?;

        let mut set = self.layout_replicas();
        set.retain(|r| r.id != dead);
        let factory = self.conn_factory();
        let target = factory.connect(&NodeInfo { id, addr: info.addr.clone() });
        let meta = MetaClient::new(set.clone(), dial_through(factory));
        meta.catch_up(&target)?;

        set.push(info.clone());
        meta.install_peers(set.clone())?;
        *self.layout_replicas.lock() = set;
        // The replacement is serving: the dead replica leaves the
        // monitoring target list along with the membership.
        self.retire_scrape_target(&format!("layout-{dead}"));
        Ok(info)
    }
}
