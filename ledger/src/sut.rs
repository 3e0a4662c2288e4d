//! The only file that names the system under test. Cluster spawn, client and
//! runtime construction, the span-recording connection wrapper, the stats
//! readers and the bodies of the ladder rungs all live here, so the
//! benchmark depends on one narrow, greppable API surface: when a crate
//! renames something, this is the one file to reconcile.
//!
//! Everything is driven through public APIs only; nothing here reaches into
//! a crate's internals, and nothing outside this file imports a repo crate.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use corfu::cluster::{
    ClusterConfig, LocalCluster, TcpCluster, LAYOUT_BASE_ID, SEQUENCER_BASE_ID,
    STORAGE_REPLACEMENT_BASE_ID,
};
use corfu::proto::{SequencerRequest, StorageRequest, WriteKind};
use corfu::{
    ClientOptions, CompactorConfig, ConnFactory, CorfuClient, EntryEnvelope, LayoutClient, NodeId,
    NodeInfo, SequencerServer, StorageServer, StreamHeader,
};
use corfu_stream::StreamClient;
use tango::{TangoRuntime, TxStatus};
use tango_flash::{FlashUnit, TieredStore};
use tango_meta::{Dial, MetaClient, ReplicaInfo};
use tango_metrics::Registry;
use tango_objects::TangoMap;
use tango_rpc::frame::{write_frame, FrameAssembler};
use tango_rpc::{ClientConn, ConnMetrics, LocalConn, RpcHandler, TcpConn, TcpServer};
use tango_wire::{crc32c, encode_to_vec};

use crate::os::cpu_ns;
use crate::trace::{now_ns, Probe, RPC_META, RPC_SEQ, RPC_STORAGE};

/// Seeded input generators (not part of what is measured).
pub use workload::{SplitMix64, Zipf};

pub type Res<T> = Result<T, String>;

fn s(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Payload bytes per append (and per echo/handler rung), as in the paper's
/// 512-byte-entry experiments.
pub const PAYLOAD_LEN: usize = 512;
/// Log page size of every cluster the benchmark spawns.
pub const PAGE_SIZE: usize = 4096;
const NUM_SETS: usize = 2;
const REPLICATION: usize = 2;

/// The one deployment shape every workload runs on: 2 replica sets × chain
/// of 2, 4 KiB pages, K = 4 backpointers, 3 layout replicas.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        num_sets: NUM_SETS,
        replication: REPLICATION,
        page_size: PAGE_SIZE,
        ..ClusterConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Span-recording wrappers
// ---------------------------------------------------------------------------

/// Span name for a call to node `id`; node kind is recoverable from the id
/// range in both harnesses.
fn rpc_class(id: NodeId) -> &'static str {
    if id >= LAYOUT_BASE_ID {
        RPC_META
    } else if (SEQUENCER_BASE_ID..STORAGE_REPLACEMENT_BASE_ID).contains(&id) {
        RPC_SEQ
    } else {
        RPC_STORAGE
    }
}

/// Wraps one connection of the client under test: every call becomes a span.
struct TimedConn {
    inner: Arc<dyn ClientConn>,
    class: &'static str,
    probe: Arc<Probe>,
}

impl ClientConn for TimedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let start = now_ns();
        let response = self.inner.call(request);
        let resp_len = response.as_ref().map_or(0, Vec::len);
        self.probe.rpc(self.class, start, now_ns(), request.len(), resp_len);
        response
    }
}

struct TimedFactory {
    inner: Arc<dyn ConnFactory>,
    probe: Arc<Probe>,
}

impl ConnFactory for TimedFactory {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        Arc::new(TimedConn {
            inner: self.inner.connect(node),
            class: rpc_class(node.id),
            probe: Arc::clone(&self.probe),
        })
    }
}

type HandlerNs = Arc<Mutex<Vec<f64>>>;

/// Durations (ns) of every request the wrapped in-process handlers served.
#[derive(Default)]
pub struct HandlerTimes {
    pub seq: Vec<f64>,
    pub storage: Vec<f64>,
}

/// The buffers the timing wrappers of one cluster record into.
pub struct HandlerTimers {
    seq: HandlerNs,
    storage: HandlerNs,
}

impl HandlerTimers {
    /// Drains both buffers.
    pub fn take(&self) -> HandlerTimes {
        let take =
            |b: &HandlerNs| std::mem::take(&mut *b.lock().expect("handler timing buffer poisoned"));
        HandlerTimes { seq: take(&self.seq), storage: take(&self.storage) }
    }
}

struct TimedHandler {
    inner: Arc<dyn RpcHandler>,
    ns: HandlerNs,
}

impl RpcHandler for TimedHandler {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        let response = self.inner.handle(request);
        let ns = start.elapsed().as_nanos() as f64;
        self.ns.lock().expect("handler timing buffer poisoned").push(ns);
        response
    }
}

// ---------------------------------------------------------------------------
// Clusters
// ---------------------------------------------------------------------------

/// Storage-side counts summed over every storage node.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlashTotals {
    pub pages_written: u64,
    pub bytes_written: u64,
    pub reads: u64,
    pub hot_pages: u64,
    pub cold_pages: u64,
}

/// Client-side counts read from the registry the clients record into.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientCounts {
    pub hole_polls: u64,
    pub read_batches: u64,
    pub read_batch_entries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

pub enum Cluster {
    Tcp(TcpCluster),
    Local(LocalCluster),
}

impl Cluster {
    /// Servers on ephemeral localhost ports in this process, in-memory flash.
    pub fn tcp() -> Res<Self> {
        TcpCluster::spawn(cluster_config()).map(Cluster::Tcp).map_err(s)
    }

    /// As [`Cluster::tcp`], on tiered storage under `root` with background
    /// compactors: `hot_capacity` RAM pages per node, the rest in cold
    /// segment files of `pages_per_segment` pages. The compactors migrate
    /// at their default cadence but never scrub: a timer-driven CRC pass over
    /// every cold page lands on some operations and not on others.
    pub fn tcp_tiered(root: &Path, pages_per_segment: u64, hot_capacity: usize) -> Res<Self> {
        let mut config =
            cluster_config().with_tiered_storage(root, pages_per_segment, hot_capacity);
        config.compaction = Some(CompactorConfig { scrub_every: 0, ..CompactorConfig::default() });
        TcpCluster::spawn(config).map(Cluster::Tcp).map_err(s)
    }

    /// The same servers behind the in-process transport (no sockets).
    pub fn local() -> Self {
        Cluster::Local(LocalCluster::new(cluster_config()))
    }

    /// A client as an application would get it; with `probe`, every
    /// connection it opens (layout replicas included) records spans.
    pub fn client(&self, probe: Option<&Arc<Probe>>) -> Res<CorfuClient> {
        match (self, probe) {
            (Cluster::Tcp(c), None) => c.client().map_err(s),
            (Cluster::Local(c), None) => c.client().map_err(s),
            (Cluster::Local(c), Some(probe)) => {
                let factory =
                    Arc::new(TimedFactory { inner: c.conn_factory(), probe: Arc::clone(probe) });
                c.client_with_factory(factory, ClientOptions::default(), c.metrics().clone())
                    .map_err(s)
            }
            (Cluster::Tcp(c), Some(probe)) => {
                // What `TcpCluster::client` builds, with each connection wrapped.
                let registry = c.metrics().clone();
                let conn_metrics = ConnMetrics::from_registry(&registry);
                let tcp: Arc<dyn ConnFactory> =
                    Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
                        Arc::new(TcpConn::new(node.addr.clone()).with_metrics(conn_metrics.clone()))
                    });
                let factory = Arc::new(TimedFactory { inner: tcp, probe: Arc::clone(probe) });
                let dial_factory = Arc::clone(&factory);
                let dial: Arc<dyn Dial> =
                    Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
                        dial_factory
                            .connect(&NodeInfo { id: replica.id, addr: replica.addr.clone() })
                    });
                let meta = MetaClient::new(c.layout_replicas(), dial).with_metrics(&registry);
                let layout = LayoutClient::replicated(Arc::new(meta));
                CorfuClient::with_options_and_metrics(
                    layout,
                    factory,
                    ClientOptions::default(),
                    registry,
                )
                .map_err(s)
            }
        }
    }

    fn storage_nodes(&self) -> Vec<Arc<StorageServer>> {
        match self {
            Cluster::Tcp(c) => (0..(NUM_SETS * REPLICATION) as NodeId)
                .filter_map(|id| c.storage_server(id))
                .collect(),
            Cluster::Local(c) => c.storage().to_vec(),
        }
    }

    pub fn flash_totals(&self) -> FlashTotals {
        let mut t = FlashTotals::default();
        for node in self.storage_nodes() {
            let wear = node.stats();
            let tier = node.tier_stats();
            t.pages_written += wear.data_writes + wear.junk_writes;
            t.bytes_written += wear.bytes_written;
            t.reads += wear.reads;
            t.hot_pages += tier.hot_pages;
            t.cold_pages += tier.cold_pages;
        }
        t
    }

    /// Drives compaction passes until at least `share` of the live pages
    /// are in the cold tier; returns the share reached.
    pub fn compact_until_cold(&self, share: f64) -> Res<f64> {
        let mut reached = 0.0;
        for _ in 0..200 {
            for node in self.storage_nodes() {
                node.compact_once(false);
            }
            let t = self.flash_totals();
            reached = t.cold_pages as f64 / (t.hot_pages + t.cold_pages).max(1) as f64;
            if reached >= share {
                return Ok(reached);
            }
        }
        Err(format!("cold share stuck at {reached:.3}, wanted {share}"))
    }

    fn registry(&self) -> &Registry {
        match self {
            Cluster::Tcp(c) => c.metrics(),
            Cluster::Local(c) => c.metrics(),
        }
    }

    pub fn client_counts(&self) -> ClientCounts {
        let registry = self.registry();
        let batches = registry.histogram("stream.read_batch_size");
        ClientCounts {
            hole_polls: registry.counter("corfu.hole_polls").get(),
            read_batches: batches.count(),
            read_batch_entries: batches.sum(),
            // The counters `StreamClient::cache_stats` reads, summed over
            // every client of this cluster.
            cache_hits: registry.counter("stream.cache_hits").get(),
            cache_misses: registry.counter("stream.cache_misses").get(),
        }
    }

    /// In-process cluster only: re-registers the sequencer and every storage
    /// node behind a timing wrapper.
    pub fn time_handlers(&self) -> Option<HandlerTimers> {
        let Cluster::Local(c) = self else { return None };
        let seq_ns = HandlerNs::default();
        let storage_ns = HandlerNs::default();
        let seq: Arc<dyn RpcHandler> = Arc::clone(c.sequencer()) as Arc<dyn RpcHandler>;
        c.registry().register(
            format!("sequencer-{SEQUENCER_BASE_ID}"),
            Arc::new(TimedHandler { inner: seq, ns: Arc::clone(&seq_ns) }),
        );
        for (id, node) in c.storage().iter().enumerate() {
            let inner: Arc<dyn RpcHandler> = Arc::clone(node) as Arc<dyn RpcHandler>;
            c.registry().register(
                format!("storage-{id}"),
                Arc::new(TimedHandler { inner, ns: Arc::clone(&storage_ns) }),
            );
        }
        Some(HandlerTimers { seq: seq_ns, storage: storage_ns })
    }
}

// ---------------------------------------------------------------------------
// What the workloads call
// ---------------------------------------------------------------------------

/// A raw log client appending to streams (the `append_*` workloads).
pub struct Appender {
    client: CorfuClient,
}

impl Appender {
    pub fn new(client: CorfuClient) -> Self {
        Self { client }
    }

    pub fn append(&self, stream: u32, payload: Vec<u8>) -> Res<u64> {
        self.client.append_streams(&[stream], Bytes::from(payload)).map(|(off, _)| off).map_err(s)
    }

    pub fn read_back(&self, offset: u64) -> Res<Vec<u8>> {
        self.client.read_entry(offset).map(|e| e.payload.to_vec()).map_err(s)
    }
}

/// One application server: a Tango runtime hosting a view of one named map.
pub struct MapNode {
    rt: Arc<TangoRuntime>,
    map: TangoMap<u64, i64>,
}

impl MapNode {
    /// Builds the runtime, resolves (or creates) the map by name and
    /// registers the view. Nothing is played until the first read.
    pub fn open(client: CorfuClient, name: &str) -> Res<Self> {
        let rt = TangoRuntime::new(client).map_err(s)?;
        let map = TangoMap::open(&rt, name).map_err(s)?;
        Ok(Self { rt, map })
    }

    /// Linearizable read outside a transaction; a read-set entry inside one.
    pub fn get(&self, key: u64) -> Res<Option<i64>> {
        self.map.get(&key).map_err(s)
    }

    pub fn put(&self, key: u64, value: i64) -> Res<()> {
        self.map.put(&key, &value).map_err(s)
    }

    pub fn begin(&self) -> Res<()> {
        self.rt.begin_tx().map_err(s)
    }

    /// Ends the open transaction; `false` means it aborted on a conflict.
    pub fn commit(&self) -> Res<bool> {
        self.rt.end_tx().map(|status| status == TxStatus::Committed).map_err(s)
    }

    /// Drops the open transaction after an error inside it.
    pub fn abandon(&self) {
        let _ = self.rt.abort_tx();
    }

    /// Plays the map's stream to the log tail and returns its size.
    pub fn len(&self) -> Res<usize> {
        self.map.len().map_err(s)
    }

    pub fn snapshot(&self) -> Res<Vec<(u64, i64)>> {
        self.map.snapshot().map_err(s)
    }
}

// ---------------------------------------------------------------------------
// Ladder rungs: each layer alone, single thread, public functions only
// ---------------------------------------------------------------------------

/// One rung of the cost ladder. `block` runs one block of the rung's fixed
/// iteration count and returns that block's value in the metric's unit; the
/// ladder reports the median over `blocks` blocks.
pub struct Rung {
    pub name: &'static str,
    pub blocks: usize,
    pub block: Box<dyn FnMut() -> Res<f64>>,
}

fn rung(name: &'static str, blocks: usize, block: impl FnMut() -> Res<f64> + 'static) -> Rung {
    Rung { name, blocks, block: Box::new(block) }
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// As [`ns_per_iter`] for calls that can fail (`ok` returns false):
/// `Err` if any did.
fn checked_ns_per_iter(iters: usize, what: &str, mut ok: impl FnMut() -> bool) -> Res<f64> {
    let mut all_ok = true;
    let ns = ns_per_iter(iters, || all_ok &= ok());
    if all_ok {
        Ok(ns)
    } else {
        Err(format!("{what} failed"))
    }
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_LEN).map(|i| (i * 31 % 251) as u8).collect()
}

/// A 512-byte entry with one stream header carrying K = 4 backpointers, as
/// the append workloads write it.
fn sample_entry(offset: u64) -> EntryEnvelope {
    let backpointers = (1..=4).map(|d| offset - 2 * d).collect();
    EntryEnvelope {
        headers: vec![StreamHeader { stream: 1, backpointers }],
        payload: Bytes::from(payload()),
        link: None,
    }
}

fn write_request(addr: u64, body: &[u8]) -> Vec<u8> {
    encode_to_vec(&StorageRequest::Write {
        epoch: 0,
        addr,
        kind: WriteKind::Data,
        payload: Bytes::copy_from_slice(body),
    })
}

fn echo_handler() -> Arc<dyn RpcHandler> {
    Arc::new(|request: &[u8]| request.to_vec())
}

/// A storage server holding `pages` written pages at addresses `0..pages`.
fn filled_storage(pages: u64, body: &[u8]) -> StorageServer {
    let server = StorageServer::in_memory(PAGE_SIZE);
    for addr in 0..pages {
        server.handle(&write_request(addr, body));
    }
    server
}

fn filled_unit(mut unit: FlashUnit, pages: u64, body: &[u8]) -> Res<FlashUnit> {
    for addr in 0..pages {
        unit.write(addr, body).map_err(s)?;
    }
    Ok(unit)
}

/// A map node on its own in-process cluster (kept alive by the returned pair).
fn local_map_node() -> Res<(Cluster, MapNode)> {
    let cluster = Cluster::local();
    let node = MapNode::open(cluster.client(None)?, "ladder")?;
    Ok((cluster, node))
}

/// Builds every rung. `tmp` is a scratch directory for the tiered-store rung.
pub fn ladder(tmp: &Path) -> Res<Vec<Rung>> {
    const OFFSET: u64 = 1_000;
    const N: usize = 2_000;
    const PAGES: u64 = 4_096;
    let entry = sample_entry(OFFSET);
    let body = entry.encode(OFFSET).map_err(s)?;
    let mut rungs = Vec::new();

    // wire
    {
        let entry = entry.clone();
        rungs.push(rung("wire.encode_entry_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                black_box(black_box(&entry).encode(OFFSET).expect("entry encodes"));
            }))
        }));
        let body = body.clone();
        rungs.push(rung("wire.decode_entry_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                black_box(EntryEnvelope::decode(black_box(&body), OFFSET).expect("entry decodes"));
            }))
        }));
        let page = vec![0xA5u8; PAGE_SIZE];
        rungs.push(rung("wire.crc32c_4k_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                black_box(crc32c(black_box(&page)));
            }))
        }));
    }

    // flash
    {
        let page = body.clone();
        rungs.push(rung("flash.write_ns", 20, move || {
            let mut unit = FlashUnit::in_memory(PAGE_SIZE);
            let mut addr = 0;
            Ok(ns_per_iter(N, || {
                unit.write(addr, black_box(&page)).expect("fresh address accepts a write");
                addr += 1;
            }))
        }));
        let mut unit = filled_unit(FlashUnit::in_memory(PAGE_SIZE), PAGES, &body)?;
        let mut i = 0u64;
        rungs.push(rung("flash.read_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                i += 1;
                black_box(unit.read(i * 61 % PAGES).expect("written page reads"));
            }))
        }));
        let mut unit = filled_unit(FlashUnit::in_memory(PAGE_SIZE), PAGES, &body)?;
        let mut i = 0u64;
        rungs.push(rung("flash.read_many32_ns", 20, move || {
            Ok(ns_per_iter(N / 10, || {
                i += 1;
                let addrs: Vec<u64> = (0..32).map(|j| (i * 61 + j * 127) % PAGES).collect();
                black_box(unit.read_many(&addrs).expect("written pages read"));
            }))
        }));
        let store = TieredStore::open(tmp.join("ladder-tiered"), PAGE_SIZE, 64, 8).map_err(s)?;
        let unit = FlashUnit::open(Box::new(store), PAGE_SIZE).map_err(s)?;
        let mut unit = filled_unit(unit, PAGES / 2, &body)?;
        unit.migrate_cold().map_err(s)?;
        let cold = unit.tier_stats().cold_pages;
        if cold < PAGES / 2 - 64 {
            return Err(format!("tiered rung: only {cold} pages went cold"));
        }
        let mut i = 0u64;
        rungs.push(rung("flash.tiered_cold_read_ns", 20, move || {
            Ok(ns_per_iter(N / 4, || {
                i += 1;
                black_box(unit.read(i * 61 % cold).expect("cold page reads"));
            }))
        }));
    }

    // rpc
    {
        let request = payload();
        let mut buf = Vec::with_capacity(PAYLOAD_LEN + 64);
        rungs.push(rung("rpc.frame_encode_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                buf.clear();
                write_frame(&mut buf, 7, black_box(&request)).expect("frame fits");
                black_box(&buf);
            }))
        }));
        let mut frame = Vec::new();
        write_frame(&mut frame, 7, &payload()).map_err(s)?;
        rungs.push(rung("rpc.frame_decode_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                let mut reader = black_box(&frame[..]);
                black_box(FrameAssembler::new().poll(&mut reader).expect("frame is whole"));
            }))
        }));
        let conn = LocalConn::new(echo_handler());
        let request = payload();
        rungs.push(rung("rpc.local_call_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                black_box(conn.call(black_box(&request)).expect("local call"));
            }))
        }));
        let server = Arc::new(TcpServer::spawn("127.0.0.1:0", echo_handler()).map_err(s)?);
        let conn = Arc::new(TcpConn::new(server.local_addr().to_string()));
        let request = payload();
        let (server2, conn2, request2) = (Arc::clone(&server), Arc::clone(&conn), request.clone());
        rungs.push(rung("rpc.tcp_echo_rtt_us", 10, move || {
            let _keep = &server;
            checked_ns_per_iter(500, "tcp echo", || conn.call(&request).is_ok()).map(|ns| ns / 1e3)
        }));
        rungs.push(rung("rpc.tcp_echo_cpu_us", 10, move || {
            let _keep = &server2;
            let before = cpu_ns();
            checked_ns_per_iter(500, "tcp echo", || conn2.call(&request2).is_ok())?;
            Ok((cpu_ns() - before) as f64 / 500.0 / 1e3)
        }));
    }

    // corfu handlers
    {
        let sequencer = SequencerServer::new(4);
        rungs.push(rung("corfu.seq.process_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                black_box(sequencer.process(SequencerRequest::Next { epoch: 0, streams: vec![1] }));
            }))
        }));
        let server = StorageServer::in_memory(PAGE_SIZE);
        let page = body.clone();
        let mut next = 0u64;
        rungs.push(rung("corfu.storage.write_handle_ns", 20, move || {
            let requests: Vec<Vec<u8>> =
                (next..next + N as u64).map(|addr| write_request(addr, &page)).collect();
            next += N as u64;
            let mut it = requests.iter();
            Ok(ns_per_iter(N, || {
                black_box(server.handle(it.next().expect("one request per iteration")));
            }))
        }));
        let server = filled_storage(PAGES, &body);
        let requests: Vec<Vec<u8>> = (0..PAGES)
            .map(|i| encode_to_vec(&StorageRequest::Read { epoch: 0, addr: i * 61 % PAGES }))
            .collect();
        let mut i = 0usize;
        rungs.push(rung("corfu.storage.read_handle_ns", 20, move || {
            Ok(ns_per_iter(N, || {
                i += 1;
                black_box(server.handle(&requests[i % requests.len()]));
            }))
        }));
        let server = filled_storage(PAGES, &body);
        let requests: Vec<Vec<u8>> = (0..256u64)
            .map(|i| {
                let addrs = (0..32).map(|j| (i * 61 + j * 127) % PAGES).collect();
                encode_to_vec(&StorageRequest::ReadBatch { epoch: 0, addrs })
            })
            .collect();
        let mut i = 0usize;
        rungs.push(rung("corfu.storage.readbatch32_handle_ns", 20, move || {
            Ok(ns_per_iter(N / 10, || {
                i += 1;
                black_box(server.handle(&requests[i % requests.len()]));
            }))
        }));
    }

    // meta: what a fresh client pays before its first operation
    {
        let cluster = Cluster::tcp()?;
        rungs.push(rung("meta.client_init_us", 10, move || {
            checked_ns_per_iter(20, "client init", || cluster.client(None).is_ok())
                .map(|ns| ns / 1e3)
        }));
    }

    // stream / core / objects over the in-process transport
    {
        let cluster = Cluster::local();
        let writer = StreamClient::new(cluster.client(None)?);
        for i in 0..N as u64 {
            writer.multiappend(&[1], Bytes::from(i.to_le_bytes().to_vec())).map_err(s)?;
        }
        rungs.push(rung("stream.local_sync_entry_ns", 5, move || {
            let reader = StreamClient::new(cluster.client(None)?);
            reader.open(1);
            let start = Instant::now();
            reader.sync(&[1]).map_err(s)?;
            let mut drained = 0;
            while reader.readnext(1).map_err(s)?.is_some() {
                drained += 1;
            }
            let ns = start.elapsed().as_nanos() as f64;
            if drained != N {
                Err(format!("drained {drained} of {N}"))
            } else {
                Ok(ns / N as f64)
            }
        }));

        let (cluster, writer) = local_map_node()?;
        for i in 0..N as u64 {
            writer.put(i, i as i64)?;
        }
        rungs.push(rung("core.local_replay_entry_ns", 5, move || {
            let client = cluster.client(None)?;
            let start = Instant::now();
            let len = MapNode::open(client, "ladder")?.len()?;
            let ns = start.elapsed().as_nanos() as f64;
            if len != N {
                Err(format!("replayed {len} of {N}"))
            } else {
                Ok(ns / N as f64)
            }
        }));

        let (cluster, node) = local_map_node()?;
        node.put(1, 1)?;
        node.get(1)?; // plays the put: reads inside a transaction do not sync
        let mut key = 1_000u64;
        rungs.push(rung("core.local_tx_commit_us", 10, move || {
            let _keep = &cluster;
            checked_ns_per_iter(300, "uncontended tx commit", || {
                key += 1;
                let tx = node
                    .begin()
                    .and_then(|()| node.get(1))
                    .and_then(|_| node.put(key, key as i64))
                    .and_then(|()| node.commit());
                tx == Ok(true)
            })
            .map(|ns| ns / 1e3)
        }));

        let (cluster, node) = local_map_node()?;
        let mut key = 0u64;
        rungs.push(rung("objects.local_put_us", 10, move || {
            let _keep = &cluster;
            checked_ns_per_iter(500, "put", || {
                key += 1;
                node.put(key % 1_000, key as i64).is_ok()
            })
            .map(|ns| ns / 1e3)
        }));

        let (cluster, node) = local_map_node()?;
        for key in 0..1_000 {
            node.put(key, 1)?;
        }
        let mut key = 0u64;
        rungs.push(rung("objects.local_get_us", 10, move || {
            let _keep = &cluster;
            checked_ns_per_iter(500, "get", || {
                key += 1;
                node.get(key % 1_000) == Ok(Some(1))
            })
            .map(|ns| ns / 1e3)
        }));
    }

    // metrics: metered vs disabled registry, paired blocks so drift hits both
    {
        let (metered_cluster, plain_cluster) =
            (LocalCluster::new(cluster_config()), LocalCluster::new(cluster_config()));
        let metered = metered_cluster.client().map_err(s)?;
        let plain = plain_cluster.client_with_metrics(Registry::disabled()).map_err(s)?;
        let data = Bytes::from(payload());
        rungs.push(rung("metrics.append_overhead_pct", 30, move || {
            let (_m, _p) = (&metered_cluster, &plain_cluster);
            let with = checked_ns_per_iter(500, "append", || metered.append(data.clone()).is_ok())?;
            let without =
                checked_ns_per_iter(500, "append", || plain.append(data.clone()).is_ok())?;
            Ok((with / without - 1.0) * 100.0)
        }));
    }

    Ok(rungs)
}
