//! The one reconfiguration procedure (seal, change the projection, install)
//! under the two things that interrupt it: a reconfigurer that dies between
//! its seals and its install, and a twin running the same procedure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster, LAYOUT_BASE_ID};
use corfu::proto::{SequencerRequest, SequencerResponse, StorageRequest, StorageResponse};
use corfu::reconfig::{
    bump_epoch, remap_stream, replace_sequencer_in_log, replace_storage_node, seal_log,
};
use corfu::{ClientOptions, ConnFactory, CorfuClient, CorfuError, LogOffset, NodeInfo, Result};
use tango_rpc::ClientConn;

type Entries = Vec<(LogOffset, Bytes)>;

fn append(client: &CorfuClient, streams: &[u32], tag: &str, count: u32, entries: &mut Entries) {
    for i in 0..count {
        let payload = Bytes::from(format!("{tag}-{i}").into_bytes());
        let (off, _) = client.append_streams(streams, payload.clone()).unwrap();
        entries.push((off, payload));
    }
}

fn assert_readable(cluster: &LocalCluster, entries: &Entries) {
    let reader = cluster.client().unwrap();
    for (off, payload) in entries {
        assert_eq!(&reader.read_entry(*off).unwrap().payload, payload, "offset {off}");
    }
}

/// A reconfigurer sealed log 0 — every storage node and the sequencer — at
/// `epoch + 1` and died before installing anything. `reconfigure` (run
/// afterwards, by someone else) must complete, and clients — one that saw
/// the old projection, one that did not — append again.
fn survives_an_orphaned_seal<R>(
    reconfigure: impl FnOnce(&LocalCluster, &CorfuClient) -> Result<R>,
) {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let client = cluster.client().unwrap();
    let mut entries = Entries::new();
    append(&client, &[7], "before", 10, &mut entries);

    for node in cluster.storage() {
        let sealed = node.process(StorageRequest::Seal { epoch: 1 });
        assert!(matches!(sealed, StorageResponse::Tail(_)), "{sealed:?}");
    }
    let sealed = cluster.sequencer().process(SequencerRequest::Seal { epoch: 1 });
    assert_eq!(sealed, SequencerResponse::Ok);
    assert_eq!(cluster.layout_client().get().unwrap().epoch, 0, "nothing installed");

    if let Err(e) = reconfigure(&cluster, &cluster.client().unwrap()) {
        panic!("the log is wedged at the orphaned epoch: {e}");
    }
    assert_eq!(cluster.layout_client().get().unwrap().epoch_of_log(0), 1);

    append(&client, &[7], "after-stale", 5, &mut entries);
    append(&cluster.client().unwrap(), &[7], "after-fresh", 5, &mut entries);
    assert_readable(&cluster, &entries);
}

#[test]
fn seal_log_completes_a_seal_its_predecessor_left_uninstalled() {
    survives_an_orphaned_seal(|_, client| seal_log(client, 0));
}

#[test]
fn bump_epoch_completes_a_seal_its_predecessor_left_uninstalled() {
    survives_an_orphaned_seal(|_, client| bump_epoch(client));
}

#[test]
fn replace_sequencer_completes_a_seal_its_predecessor_left_uninstalled() {
    survives_an_orphaned_seal(|cluster, client| {
        cluster.kill_sequencer();
        let (new_seq, _server) = cluster.spawn_replacement_sequencer()?;
        let outcome = replace_sequencer_in_log(client, 0, new_seq, 4)?;
        assert_eq!(outcome.recovered_tail, 10, "the tail comes from the sealed nodes");
        Ok(())
    });
}

/// Connections that stop their client before its first layout write — where
/// a reconfigurer stands between its seals and its install — tell the test
/// it got there, and wait to be let go.
struct Gate {
    inner: Arc<dyn ConnFactory>,
    state: Arc<GateState>,
}

struct GateState {
    armed: AtomicBool,
    reached: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

struct GatedConn {
    inner: Arc<dyn ClientConn>,
    layout_replica: bool,
    state: Arc<GateState>,
}

impl ConnFactory for Gate {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        Arc::new(GatedConn {
            inner: self.inner.connect(node),
            layout_replica: node.id >= LAYOUT_BASE_ID,
            state: Arc::clone(&self.state),
        })
    }
}

impl ClientConn for GatedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        const META_WRITE: u8 = 1;
        if self.layout_replica
            && request.first() == Some(&META_WRITE)
            && self.state.armed.swap(false, Ordering::SeqCst)
        {
            self.state.reached.lock().unwrap().send(()).unwrap();
            self.state.release.lock().unwrap().recv().unwrap();
        }
        self.inner.call(request)
    }
}

/// After `fail` breaks what they are there to repair, two reconfigurers run
/// `reconfigure`, the second from start to finish while the first stands
/// between its seals and its install — every node already sealed at the
/// epoch the second aims for. One completes; the other completes too (it
/// proposed the very projection that won) or learns it lost the race — never
/// any other error. A third client's appends from before and after the race
/// are all readable; they are returned.
fn twins_converge<R: Send + std::fmt::Debug>(
    cluster: &LocalCluster,
    streams: &[u32],
    fail: impl FnOnce(),
    reconfigure: impl Fn(&CorfuClient) -> Result<R> + Sync,
) -> Entries {
    let third = cluster.client().unwrap();
    let mut entries = Entries::new();
    append(&third, streams, "before", 10, &mut entries);
    let epoch = cluster.layout_client().get().unwrap().epoch;
    fail();

    let (reached, at_install) = channel();
    let (let_go, release) = channel();
    let state = Arc::new(GateState {
        armed: AtomicBool::new(true),
        reached: Mutex::new(reached),
        release: Mutex::new(release),
    });
    let gated = cluster
        .client_with_factory(
            Arc::new(Gate { inner: cluster.conn_factory(), state }),
            ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();
    let results: Vec<Result<R>> = std::thread::scope(|scope| {
        let first = scope.spawn(|| reconfigure(&gated));
        if at_install.recv_timeout(Duration::from_secs(30)).is_err() {
            panic!("the first twin never reached its install: {:?}", first.join().unwrap());
        }
        let second = reconfigure(&cluster.client().unwrap());
        let_go.send(()).unwrap();
        vec![first.join().unwrap(), second]
    });

    assert!(results.iter().any(|r| r.is_ok()), "one twin must complete: {results:?}");
    for result in &results {
        assert!(
            matches!(result, Ok(_) | Err(CorfuError::RaceLost { .. })),
            "a twin either converges or learns it lost: {results:?}"
        );
    }
    assert_eq!(cluster.layout_client().get().unwrap().epoch, epoch + 1, "one install");

    append(&third, streams, "after", 10, &mut entries);
    assert_readable(cluster, &entries);
    entries
}

#[test]
fn twin_seal_logs_converge() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    twins_converge(&cluster, &[7], || {}, |client| seal_log(client, 0));
}

#[test]
fn twin_bump_epochs_converge() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    twins_converge(&cluster, &[7], || {}, bump_epoch);
}

/// Both twins bootstrap the *same* replacement: the first twin's bootstrap
/// must not rewind a sequencer the second twin's install has put to work.
#[test]
fn twin_sequencer_replacements_converge() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let (new_seq, _server) = cluster.spawn_replacement_sequencer().unwrap();
    let entries = twins_converge(
        &cluster,
        &[7],
        || cluster.kill_sequencer(),
        |client| replace_sequencer_in_log(client, 0, new_seq.clone(), 4),
    );
    // The stream's backpointers still chain through its newest entries.
    let (_, entry) = cluster.client().unwrap().append_streams(&[7], Bytes::new()).unwrap();
    let newest: Vec<LogOffset> = entries.iter().rev().take(4).map(|(off, _)| *off).collect();
    assert_eq!(entry.header_for(7).unwrap().backpointers, newest);
}

#[test]
fn twin_storage_replacements_converge() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let (replacement, _server) = cluster.spawn_replacement_storage().unwrap();
    twins_converge(
        &cluster,
        &[7],
        || cluster.kill_storage_node(0),
        |client| replace_storage_node(client, 0, replacement.clone()),
    );
}

#[test]
fn twin_remaps_converge() {
    let cluster = LocalCluster::new(ClusterConfig::sharded(2));
    let proj = cluster.layout_client().get().unwrap();
    let stream = (1..).find(|&s| proj.log_of_stream(s) == 0).unwrap();
    twins_converge(&cluster, &[stream], || {}, |client| remap_stream(client, stream, 1));
    assert_eq!(cluster.layout_client().get().unwrap().log_of_stream(stream), 1);
}
