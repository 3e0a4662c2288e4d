//! End-to-end tests of the Tango runtime over an in-process CORFU cluster:
//! single-object linearizability, transactions, decision records, history,
//! checkpoints, and garbage collection.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::{ClientOptions, ConnFactory, NodeInfo};
use tango::{
    ApplyMeta, ObjectOptions, RuntimeOptions, StateMachine, TangoRuntime, TxOptions, TxStatus,
};
use tango_rpc::ClientConn;

/// The paper's TangoRegister (Figure 3).
#[derive(Default)]
struct Register(i64);

impl StateMachine for Register {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        if let Ok(bytes) = <[u8; 8]>::try_from(data) {
            self.0 = i64::from_le_bytes(bytes);
        }
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.0.to_le_bytes().to_vec())
    }

    fn restore(&mut self, data: &[u8]) -> tango::Result<()> {
        let bytes = <[u8; 8]>::try_from(data)
            .map_err(|_| tango::TangoError::Codec("register checkpoint must be 8 bytes".into()))?;
        self.0 = i64::from_le_bytes(bytes);
        Ok(())
    }
}

/// A keyed map used to exercise fine-grained versioning. Update format:
/// key u64 | value i64.
#[derive(Default)]
struct MiniMap(std::collections::HashMap<u64, i64>);

impl StateMachine for MiniMap {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        if data.len() == 16 {
            let k = u64::from_le_bytes(data[0..8].try_into().unwrap());
            let v = i64::from_le_bytes(data[8..16].try_into().unwrap());
            self.0.insert(k, v);
        }
    }
}

fn mini_put(view: &tango::ObjectView<MiniMap>, k: u64, v: i64) -> tango::Result<()> {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&k.to_le_bytes());
    buf.extend_from_slice(&v.to_le_bytes());
    view.update(Some(k), buf)
}

fn mini_get(view: &tango::ObjectView<MiniMap>, k: u64) -> tango::Result<Option<i64>> {
    view.query(Some(k), |m| m.0.get(&k).copied())
}

fn cluster() -> LocalCluster {
    LocalCluster::new(ClusterConfig::default())
}

fn runtime(cluster: &LocalCluster) -> Arc<TangoRuntime> {
    TangoRuntime::new(cluster.client().unwrap()).unwrap()
}

#[test]
fn register_semantics_single_view() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("reg").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    assert_eq!(reg.query(None, |r| r.0).unwrap(), 0);
    reg.update(None, 42i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(reg.query(None, |r| r.0).unwrap(), 42);
    reg.update(None, 7i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(reg.query(None, |r| r.0).unwrap(), 7);
}

#[test]
fn two_views_observe_each_other() {
    let cluster = cluster();
    let rt_a = runtime(&cluster);
    let rt_b = runtime(&cluster);
    let oid = rt_a.create_or_open("shared-reg").unwrap();
    assert_eq!(rt_b.create_or_open("shared-reg").unwrap(), oid);
    let reg_a = rt_a.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    let reg_b = rt_b.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg_a.update(None, 10i64.to_le_bytes().to_vec()).unwrap();
    // B's accessor syncs with the log and sees A's write (linearizable).
    assert_eq!(reg_b.query(None, |r| r.0).unwrap(), 10);
    reg_b.update(None, 20i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(reg_a.query(None, |r| r.0).unwrap(), 20);
}

#[test]
fn crash_recovery_replays_history() {
    let cluster = cluster();
    let oid;
    {
        let rt = runtime(&cluster);
        oid = rt.create_or_open("durable").unwrap();
        let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
        for v in [5i64, 15, 25] {
            reg.update(None, v.to_le_bytes().to_vec()).unwrap();
        }
        // The runtime is dropped: the "client" crashes.
    }
    let rt2 = runtime(&cluster);
    let reg2 = rt2.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    assert_eq!(reg2.query(None, |r| r.0).unwrap(), 25);
}

#[test]
fn single_object_tx_commit_and_conflict() {
    let cluster = cluster();
    let rt_a = runtime(&cluster);
    let rt_b = runtime(&cluster);
    let oid = rt_a.create_or_open("tx-reg").unwrap();
    let reg_a = rt_a.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    let reg_b = rt_b.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();

    // A transactional increment on A commits cleanly.
    rt_a.begin_tx().unwrap();
    let v = reg_a.query(None, |r| r.0).unwrap();
    reg_a.update(None, (v + 1).to_le_bytes().to_vec()).unwrap();
    assert_eq!(rt_a.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(reg_a.query(None, |r| r.0).unwrap(), 1);

    // Now a conflicting pair: both read, then both write.
    rt_a.begin_tx().unwrap();
    let va = reg_a.query(None, |r| r.0).unwrap();
    reg_a.update(None, (va + 10).to_le_bytes().to_vec()).unwrap();

    rt_b.begin_tx().unwrap();
    let vb = reg_b.query(None, |r| r.0).unwrap();
    reg_b.update(None, (vb + 100).to_le_bytes().to_vec()).unwrap();

    // A commits first; B must abort (its read of version 1 is stale).
    assert_eq!(rt_a.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(rt_b.end_tx().unwrap(), TxStatus::Aborted);
    assert_eq!(reg_b.query(None, |r| r.0).unwrap(), 11);
}

#[test]
fn fine_grained_keys_avoid_false_conflicts() {
    let cluster = cluster();
    let rt_a = runtime(&cluster);
    let rt_b = runtime(&cluster);
    let oid = rt_a.create_or_open("mini-map").unwrap();
    let map_a = rt_a.register_object(oid, MiniMap::default(), ObjectOptions::default()).unwrap();
    let map_b = rt_b.register_object(oid, MiniMap::default(), ObjectOptions::default()).unwrap();
    mini_put(&map_a, 1, 10).unwrap();
    mini_put(&map_a, 2, 20).unwrap();
    // Sync both views before transacting (a continuously playing client).
    map_a.query(None, |_| ()).unwrap();
    map_b.query(None, |_| ()).unwrap();

    // A touches key 1, B touches key 2: disjoint sub-regions, no conflict.
    rt_a.begin_tx().unwrap();
    let v1 = mini_get(&map_a, 1).unwrap().unwrap();
    mini_put(&map_a, 1, v1 + 1).unwrap();

    rt_b.begin_tx().unwrap();
    let v2 = mini_get(&map_b, 2).unwrap().unwrap();
    mini_put(&map_b, 2, v2 + 1).unwrap();

    assert_eq!(rt_a.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(rt_b.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(mini_get(&map_a, 2).unwrap(), Some(21));
    assert_eq!(mini_get(&map_b, 1).unwrap(), Some(11));

    // Same key: conflict.
    rt_a.begin_tx().unwrap();
    let v1 = mini_get(&map_a, 1).unwrap().unwrap();
    mini_put(&map_a, 1, v1 + 1).unwrap();
    rt_b.begin_tx().unwrap();
    let v1b = mini_get(&map_b, 1).unwrap().unwrap();
    mini_put(&map_b, 1, v1b + 1).unwrap();
    assert_eq!(rt_a.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(rt_b.end_tx().unwrap(), TxStatus::Aborted);
}

#[test]
fn cross_object_tx_is_atomic() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let free = rt.create_or_open("free-list").unwrap();
    let alloc = rt.create_or_open("alloc-table").unwrap();
    let free_v = rt.register_object(free, Register::default(), ObjectOptions::default()).unwrap();
    let alloc_v = rt.register_object(alloc, Register::default(), ObjectOptions::default()).unwrap();
    free_v.update(None, 5i64.to_le_bytes().to_vec()).unwrap();
    // Bring the local views up to date before transacting.
    free_v.query(None, |_| ()).unwrap();

    // Move a node from the free list to the allocation table.
    rt.begin_tx().unwrap();
    let n = free_v.query(None, |r| r.0).unwrap();
    free_v.update(None, (n - 1).to_le_bytes().to_vec()).unwrap();
    let a = alloc_v.query(None, |r| r.0).unwrap();
    alloc_v.update(None, (a + 1).to_le_bytes().to_vec()).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);

    // Another runtime hosting both sees both effects.
    let rt2 = runtime(&cluster);
    let free2 = rt2.register_object(free, Register::default(), ObjectOptions::default()).unwrap();
    let alloc2 = rt2.register_object(alloc, Register::default(), ObjectOptions::default()).unwrap();
    assert_eq!(free2.query(None, |r| r.0).unwrap(), 4);
    assert_eq!(alloc2.query(None, |r| r.0).unwrap(), 1);
}

#[test]
fn remote_write_tx_updates_unhosted_object() {
    // §4.1 case A/B: the producer writes to a queue it does not host.
    let cluster = cluster();
    let rt_producer = runtime(&cluster);
    let rt_consumer = runtime(&cluster);
    let local = rt_producer.create_or_open("producer-state").unwrap();
    let queue = rt_producer.create_or_open("queue").unwrap();
    let local_v =
        rt_producer.register_object(local, Register::default(), ObjectOptions::default()).unwrap();
    let queue_v =
        rt_consumer.register_object(queue, Register::default(), ObjectOptions::default()).unwrap();

    // Producer: reads its local object, writes both local and remote.
    rt_producer.begin_tx().unwrap();
    let n = local_v.query(None, |r| r.0).unwrap();
    local_v.update(None, (n + 1).to_le_bytes().to_vec()).unwrap();
    // Remote write: no local view of `queue` exists on the producer.
    rt_producer.update_remote(queue, None, 99i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(rt_producer.end_tx().unwrap(), TxStatus::Committed);

    // The consumer, which hosts only the queue, sees the write. Because it
    // does not host the producer's read set, the decision record path runs.
    assert_eq!(queue_v.query(None, |r| r.0).unwrap(), 99);
}

#[test]
fn read_only_tx_fast_paths() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("ro").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg.update(None, 1i64.to_le_bytes().to_vec()).unwrap();
    reg.query(None, |_| ()).unwrap();

    // Read-only transaction with no concurrent writers commits.
    rt.begin_tx().unwrap();
    let v = reg.query(None, |r| r.0).unwrap();
    assert_eq!(v, 1);
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);

    // Stale-snapshot read-only transaction never touches the log.
    rt.begin_tx_with(TxOptions { stale_reads: true }).unwrap();
    reg.query_dirty(None, |r| r.0).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);

    // A read-only tx whose read was invalidated by another client aborts.
    let rt2 = runtime(&cluster);
    let reg2 = rt2.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    rt.begin_tx().unwrap();
    reg.query_dirty(None, |r| r.0).unwrap();
    reg2.update(None, 2i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Aborted);
}

#[test]
fn write_only_tx_commits_without_playing() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("wo").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    rt.begin_tx().unwrap();
    reg.update(None, 123i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(reg.query(None, |r| r.0).unwrap(), 123);
}

#[test]
fn large_write_set_spills_speculatively() {
    let cluster = cluster();
    let rt = TangoRuntime::with_options(
        cluster.client().unwrap(),
        RuntimeOptions { inline_update_limit: 64, ..RuntimeOptions::default() },
    )
    .unwrap();
    let oid = rt.create_or_open("spill").unwrap();
    let map = rt.register_object(oid, MiniMap::default(), ObjectOptions::default()).unwrap();
    rt.begin_tx().unwrap();
    for k in 0..50u64 {
        mini_put(&map, k, k as i64).unwrap();
    }
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);
    // All fifty writes are visible here and on a fresh runtime.
    assert_eq!(map.query(None, |m| m.0.len()).unwrap(), 50);
    let rt2 = runtime(&cluster);
    let map2 = rt2.register_object(oid, MiniMap::default(), ObjectOptions::default()).unwrap();
    assert_eq!(map2.query(None, |m| m.0.len()).unwrap(), 50);
    assert_eq!(mini_get(&map2, 49).unwrap(), Some(49));
}

#[test]
fn history_rollback_via_play_limit() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("hist").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg.update(None, 1i64.to_le_bytes().to_vec()).unwrap();
    reg.query(None, |_| ()).unwrap();
    let snapshot_pos = rt.position();
    reg.update(None, 2i64.to_le_bytes().to_vec()).unwrap();
    reg.update(None, 3i64.to_le_bytes().to_vec()).unwrap();
    assert_eq!(reg.query(None, |r| r.0).unwrap(), 3);

    // A time-travel runtime synced only to the snapshot prefix.
    let rt_old = TangoRuntime::with_options(
        cluster.client().unwrap(),
        RuntimeOptions { play_limit: Some(snapshot_pos), ..RuntimeOptions::default() },
    )
    .unwrap();
    let reg_old =
        rt_old.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    assert_eq!(reg_old.query(None, |r| r.0).unwrap(), 1);
}

#[test]
fn checkpoint_restore_and_compact() {
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("ckpt").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    for v in 1..=10i64 {
        reg.update(None, v.to_le_bytes().to_vec()).unwrap();
    }
    reg.query(None, |_| ()).unwrap();
    rt.checkpoint(oid).unwrap();
    reg.update(None, 11i64.to_le_bytes().to_vec()).unwrap();
    reg.query(None, |_| ()).unwrap();

    // A fresh runtime restores from the checkpoint and replays the suffix.
    let rt2 = runtime(&cluster);
    let reg2 = rt2
        .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(reg2.query(None, |r| r.0).unwrap(), 11);

    // Compact: the checkpointed prefix is physically trimmed once every
    // object (here: the directory too) has a checkpoint to forget it by.
    assert_eq!(rt.compact().unwrap(), 0, "the directory still needs its history");
    rt.checkpoint(tango::DIRECTORY_OID).unwrap();
    let horizon = rt.compact().unwrap();
    assert!(horizon > 0, "expected a positive trim horizon");
    // Trimmed prefix is gone at the log level.
    assert_eq!(cluster.client().unwrap().read(0).unwrap(), corfu::Page::Trimmed);
    // New runtimes still reconstruct from the checkpoint.
    let rt3 = runtime(&cluster);
    let reg3 = rt3
        .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(reg3.query(None, |r| r.0).unwrap(), 11);
}

#[test]
fn checkpoint_and_trim_driver_bounds_the_log() {
    bounds_the_log(ClusterConfig::default());
    // Tiered nodes: small segments and hot tiers, so pages go cold and the
    // trims reach whole segments.
    let root = std::env::temp_dir().join(format!("tango-trim-driver-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    bounds_the_log(ClusterConfig::default().with_tiered_storage(&root, 8, 4));
    let _ = std::fs::remove_dir_all(&root);
}

fn bounds_the_log(config: ClusterConfig) {
    const ROUND: u64 = 20;
    let cluster = LocalCluster::new(config);
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("churn").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();

    // Steady-state churn: write a burst, run the driver, repeat. The
    // horizon must chase the tail so the live window stays bounded, and so
    // does each storage node's occupancy: about one round of pages.
    let mut horizons = Vec::new();
    let mut value = 0i64;
    for _ in 0..5 {
        for _ in 0..ROUND {
            value += 1;
            reg.update(None, value.to_le_bytes().to_vec()).unwrap();
        }
        reg.query(None, |_| ()).unwrap();
        horizons.push(rt.checkpoint_and_trim().unwrap());
        for node in cluster.storage() {
            let live = node.occupancy();
            assert!(live <= ROUND, "a node holds {live} live pages after a trim: {horizons:?}");
        }
    }
    assert!(horizons.windows(2).all(|w| w[0] <= w[1]), "horizon regressed: {horizons:?}");
    let last = *horizons.last().unwrap();
    assert!(last > 0, "driver never trimmed: {horizons:?}");

    // The trimmed prefix is physically gone, and the live window is small:
    // one burst plus the checkpoint records, not the whole history.
    let client = cluster.client().unwrap();
    assert_eq!(client.read(0).unwrap(), corfu::Page::Trimmed);
    let tail = client.check_tail_slow().unwrap();
    assert!(tail - last < 40, "live window {} too wide (tail {tail}, horizon {last})", tail - last);

    // A fresh runtime restores from checkpoints alone.
    let rt2 = runtime(&cluster);
    let reg2 = rt2
        .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(reg2.query(None, |r| r.0).unwrap(), value);
}

#[test]
fn a_runtimes_trim_spares_what_another_runtime_hosts() {
    let cluster = cluster();
    let (rt_a, rt_b) = (runtime(&cluster), runtime(&cluster));
    let oid_a = rt_a.create_or_open("a").unwrap();
    let oid_b = rt_b.create_or_open("b").unwrap();
    let reg_a = rt_a.register_object(oid_a, Register::default(), ObjectOptions::default()).unwrap();
    let reg_b = rt_b.register_object(oid_b, Register::default(), ObjectOptions::default()).unwrap();
    for v in 1..=10i64 {
        reg_a.update(None, v.to_le_bytes().to_vec()).unwrap();
        reg_b.update(None, (100 + v).to_le_bytes().to_vec()).unwrap();
    }

    // B has never checkpointed: nothing of its history may go, whoever asks.
    assert_eq!(rt_a.checkpoint_and_trim().unwrap(), 0);
    let client = cluster.client().unwrap();
    assert_ne!(client.read(0).unwrap(), corfu::Page::Trimmed);
    let replayed = runtime(&cluster)
        .register_object(oid_b, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(replayed.query(None, |r| r.0).unwrap(), 110);

    // Once B has a restore point the prefix goes — and the directory, which
    // the driver checkpointed like any hosted object, still resolves names.
    reg_b.query(None, |_| ()).unwrap();
    rt_b.checkpoint(oid_b).unwrap();
    assert!(rt_a.checkpoint_and_trim().unwrap() > 0);
    assert_eq!(client.read(0).unwrap(), corfu::Page::Trimmed);
    let fresh = runtime(&cluster);
    assert_eq!(fresh.resolve("a").unwrap(), Some(oid_a));
    assert_eq!(fresh.resolve("b").unwrap(), Some(oid_b));
    for (oid, value) in [(oid_a, 10), (oid_b, 110)] {
        let restored = fresh
            .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
            .unwrap();
        assert_eq!(restored.query(None, |r| r.0).unwrap(), value);
    }
}

#[test]
fn restore_races_with_advancing_trim_horizon() {
    // Fresh runtimes restore from checkpoints *while* the writer keeps
    // checkpointing and trimming underneath them. Restores must always
    // succeed (the stream layer tolerates the moving horizon) and the
    // restored values must be monotone per reader.
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("race").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg.update(None, 0i64.to_le_bytes().to_vec()).unwrap();
    reg.query(None, |_| ()).unwrap();
    // Seed a restore point before the readers start.
    rt.checkpoint_and_trim().unwrap();

    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = 0i64;
                for _ in 0..12 {
                    let rt2 = runtime(&cluster);
                    let reg2 = rt2
                        .register_object_from_checkpoint(
                            oid,
                            Register::default(),
                            ObjectOptions::default(),
                        )
                        .unwrap();
                    let v = reg2.query(None, |r| r.0).unwrap();
                    assert!(v >= last, "restored value went backwards: {v} < {last}");
                    last = v;
                }
            });
        }
        // The writer churns and trims while the readers restore.
        for v in 1..=120i64 {
            reg.update(None, v.to_le_bytes().to_vec()).unwrap();
            if v % 10 == 0 {
                reg.query(None, |_| ()).unwrap();
                rt.checkpoint_and_trim().unwrap();
            }
        }
    });

    // After the dust settles the final value restores cleanly.
    let rt3 = runtime(&cluster);
    let reg3 = rt3
        .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(reg3.query(None, |r| r.0).unwrap(), 120);
}

/// What an [`Interposed`] connection does with a request before sending it.
type Before = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// Connections to storage nodes that run `before` on every request they
/// forward.
struct Interposed {
    inner: Arc<dyn ConnFactory>,
    before: Before,
}

struct InterposedConn {
    inner: Arc<dyn ClientConn>,
    before: Before,
}

impl ConnFactory for Interposed {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let inner = self.inner.connect(node);
        if !node.addr.starts_with("storage") {
            return inner;
        }
        Arc::new(InterposedConn { inner, before: Arc::clone(&self.before) })
    }
}

impl ClientConn for InterposedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        (self.before)(request);
        self.inner.call(request)
    }
}

#[test]
fn restore_distrusts_a_checkpoint_found_below_what_a_trim_took() {
    // A prefix trim reaches the replica sets one after another. A restore
    // that synced before the trim and reads across it can still find the
    // old checkpoint, on a set the trim has not reached, while updates
    // above it are gone from the sets it has — and the checkpoint that
    // allowed the trim is above everything that sync knew.
    let cluster = cluster();
    let rt = runtime(&cluster);
    let oid = rt.create_or_open("straddled").unwrap();
    let reg = rt.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    let write = {
        let reg = reg.clone();
        move |v: i64| reg.update(None, v.to_le_bytes().to_vec()).unwrap()
    };
    // A checkpoint on replica set 0 of 3 and an update above it on each
    // set: the four entries a reader's walk of the stream asks for first.
    let mut v = 0;
    loop {
        v += 1;
        write(v);
        reg.query(None, |_| ()).unwrap();
        if rt.checkpoint(oid).unwrap().is_multiple_of(3) {
            break;
        }
        // A round is three entries (update, checkpoint, the directory's
        // forget record): a fourth moves the next checkpoint to another set.
        v += 1;
        write(v);
    }
    for _ in 0..3 {
        v += 1;
        write(v);
    }
    let latest = v + 1;

    // The reader's bulk reads (storage requests 7 and 8) go out set by set;
    // between its first and its second, once armed, the writer moves on,
    // checkpoints and trims.
    let armed = Arc::new(AtomicBool::new(false));
    let overtake: Before = {
        let (rt, armed, reads) = (Arc::clone(&rt), Arc::clone(&armed), AtomicUsize::new(0));
        Arc::new(move |request| {
            let bulk_read = matches!(request.first(), Some(7 | 8));
            if bulk_read
                && armed.load(Ordering::SeqCst)
                && reads.fetch_add(1, Ordering::SeqCst) == 1
            {
                write(latest);
                rt.checkpoint_and_trim().unwrap();
            }
        })
    };
    let factory = Arc::new(Interposed { inner: cluster.conn_factory(), before: overtake });
    let client = cluster
        .client_with_factory(factory, ClientOptions::default(), cluster.metrics().clone())
        .unwrap();
    let reader = TangoRuntime::new(client).unwrap();
    armed.store(true, Ordering::SeqCst);
    let restored = reader
        .register_object_from_checkpoint(oid, Register::default(), ObjectOptions::default())
        .unwrap();
    assert_eq!(restored.query(None, |r| r.0).unwrap(), latest);
}

#[test]
fn directory_allocates_unique_oids_under_contention() {
    let cluster = cluster();
    let mut handles = Vec::new();
    for t in 0..4 {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            (0..5u32)
                .map(|i| {
                    let name = format!("obj-{t}-{i}");
                    rt.create_or_open(&name).unwrap()
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "oids must be unique");

    // Same name resolves to the same oid everywhere.
    let rt = runtime(&cluster);
    let a = rt.create_or_open("obj-0-0").unwrap();
    let b = rt.create_or_open("obj-0-0").unwrap();
    assert_eq!(a, b);
}

#[test]
fn orphaned_commit_is_aborted_by_peer() {
    // A client crashes between appending speculative entries and the commit
    // record; a peer cleans up with a dummy abort decision (§3.2).
    let cluster = cluster();
    let rt_a = runtime(&cluster);
    let rt_b = runtime(&cluster);
    let oid = rt_a.create_or_open("orphan").unwrap();
    let reg_a = rt_a.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    let reg_b = rt_b.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg_a.update(None, 1i64.to_le_bytes().to_vec()).unwrap();

    // Simulate the orphan: append a commit record by hand whose generator
    // never wrote a decision, reading an object B does not host.
    use tango::{LogRecord, ReadKey, TxId, UpdateRecord};
    let fake_oid = 9999; // B hosts nothing with this id.
    let txid = TxId { client: 424242, seq: 1 };
    let record = LogRecord::Commit {
        txid,
        reads: vec![ReadKey { oid: fake_oid, key: None, version: 0 }],
        updates: vec![UpdateRecord {
            oid,
            key: None,
            data: bytes::Bytes::copy_from_slice(&777i64.to_le_bytes()),
        }],
        speculative: vec![],
        needs_decision: true,
    };
    rt_b.stream()
        .multiappend(&[oid], bytes::Bytes::from(tango_wire::encode_to_vec(&record)))
        .unwrap();

    // B's next accessor hits the undecided commit, times out waiting for
    // the decision, resolves it offline (the fake object was never
    // modified, so version 0 is still current -> COMMIT), and proceeds.
    assert_eq!(reg_b.query(None, |r| r.0).unwrap(), 777);
    // A sees the same outcome (deterministic decisions).
    assert_eq!(reg_a.query(None, |r| r.0).unwrap(), 777);
}

#[test]
fn abort_orphan_decides_a_commit_its_generator_never_will() {
    let cluster = cluster();
    let (rt_a, rt_b) = (runtime(&cluster), runtime(&cluster));
    let oid = rt_a.create_or_open("orphan").unwrap();
    let reg_a = rt_a.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    let reg_b = rt_b.register_object(oid, Register::default(), ObjectOptions::default()).unwrap();
    reg_a.update(None, 1i64.to_le_bytes().to_vec()).unwrap();

    // The orphan of `orphaned_commit_is_aborted_by_peer`: left alone, a
    // consumer waits out the decision timeout and resolves it offline to
    // COMMIT (the object it read was never modified).
    use tango::{LogRecord, ReadKey, TxId, UpdateRecord};
    let txid = TxId { client: 424242, seq: 1 };
    let record = LogRecord::Commit {
        txid,
        reads: vec![ReadKey { oid: 9999, key: None, version: 0 }],
        updates: vec![UpdateRecord {
            oid,
            key: None,
            data: bytes::Bytes::copy_from_slice(&777i64.to_le_bytes()),
        }],
        speculative: vec![],
        needs_decision: true,
    };
    let commit_pos = rt_b
        .stream()
        .multiappend(&[oid], bytes::Bytes::from(tango_wire::encode_to_vec(&record)))
        .unwrap();

    // A peer that knows the generator is gone says ABORT first. Consumers
    // find that decision behind the commit and take its word — so what they
    // see is the abort, not what the timeout's offline path would decide.
    rt_a.abort_orphan(txid, commit_pos).unwrap();
    assert_eq!(reg_b.query(None, |r| r.0).unwrap(), 1);
    assert_eq!(reg_a.query(None, |r| r.0).unwrap(), 1);
}

/// Every call made: the node class it went to, the node, and the
/// request's leading tag.
type Calls = Arc<std::sync::Mutex<Vec<(&'static str, u32, u8)>>>;

/// Connections that note each call in [`Calls`].
struct Tally {
    inner: Arc<dyn ConnFactory>,
    calls: Calls,
}

struct TallyConn {
    inner: Arc<dyn ClientConn>,
    class: &'static str,
    node: u32,
    calls: Calls,
}

impl ConnFactory for Tally {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let class = ["meta", "sequencer", "storage"]
            .into_iter()
            .find(|class| node.addr.starts_with(class))
            .expect("a node of a known class");
        let inner = self.inner.connect(node);
        Arc::new(TallyConn { inner, class, node: node.id, calls: Arc::clone(&self.calls) })
    }
}

impl ClientConn for TallyConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let tag = request.first().copied().unwrap_or(u8::MAX);
        self.calls.lock().unwrap().push((self.class, self.node, tag));
        self.inner.call(request)
    }
}

/// A fresh client that opens a map someone else wrote and reads it once,
/// as the benchmark's catch-up does: it learns the layout from a majority
/// of the layout replicas in one call each, asks the sequencer once for the
/// directory (the runtime looks for its checkpoint) and once for the read,
/// and every storage call it makes is a chase of up to `MAX_READ_BATCH`
/// pages. Opening a name the directory already bound asks the sequencer
/// nothing more.
#[test]
fn a_fresh_client_opens_a_known_map_and_reads_it_in_eight_round_trips() {
    const PUTS: u64 = 1_500;
    const READ_CHASE: u8 = 8;
    let cluster = LocalCluster::new(ClusterConfig { num_sets: 2, ..ClusterConfig::default() });
    let writer = runtime(&cluster);
    let map = writer.create_or_open("written").unwrap();
    let other = writer.create_or_open("other").unwrap();
    let view = writer.register_object(map, MiniMap::default(), ObjectOptions::default()).unwrap();
    let noise =
        writer.register_object(other, MiniMap::default(), ObjectOptions::default()).unwrap();
    for k in 0..PUTS {
        mini_put(&view, k, k as i64).unwrap();
        mini_put(&noise, k, -(k as i64)).unwrap();
    }

    let calls = Calls::default();
    let tally = Arc::new(Tally { inner: cluster.conn_factory(), calls: Arc::clone(&calls) });
    let client =
        cluster.client_with_factory(tally, ClientOptions::default(), cluster.metrics().clone());
    let reader = TangoRuntime::new(client.unwrap()).unwrap();
    let oid = reader.create_or_open("written").unwrap();
    assert_eq!(oid, map);
    let read = reader.register_object(oid, MiniMap::default(), ObjectOptions::default()).unwrap();
    assert_eq!(mini_get(&read, PUTS - 1).unwrap(), Some(PUTS as i64 - 1));

    let calls = calls.lock().unwrap().clone();
    let to = |class| calls.iter().filter(|c| c.0 == class).collect::<Vec<_>>();
    let (meta, seq, storage) = (to("meta"), to("sequencer"), to("storage"));
    let replicas: std::collections::BTreeSet<u32> = meta.iter().map(|c| c.1).collect();
    assert_eq!((meta.len(), replicas.len()), (2, 2), "layout calls {meta:?}");
    assert_eq!(seq.len(), 2, "sequencer calls {seq:?}");
    assert!(storage.iter().all(|c| c.2 == READ_CHASE), "storage calls {storage:?}");
    // The directory's two entries lie on the two replica sets: a chase to
    // each. The map's 1 500 entries lie on one set: two chases.
    assert_eq!(storage.len(), 4, "storage calls {storage:?}");
    assert_eq!(calls.len(), 8);
}
