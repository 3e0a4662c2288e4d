//! Cross-crate scenarios: the whole lifecycle on one shared log —
//! multiple services, sequencer failover under live traffic, durable
//! flash-backed storage, and log compaction.

use std::sync::Arc;

use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::reconfig;
use tango::{TangoRuntime, TxStatus};
use tango_objects::zk::{CreateMode, TangoZK};
use tango_objects::{TangoCounter, TangoMap, TangoQueue};

#[test]
fn two_services_share_one_log() {
    // A scheduler service and a metrics service — different objects,
    // different clients, one shared log; plus a producer that feeds the
    // metrics queue without hosting it (remote writes).
    let cluster = LocalCluster::new(ClusterConfig::default());

    let sched_rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let jobs: TangoMap<u64, String> = TangoMap::open(&sched_rt, "jobs").unwrap();
    let job_count = TangoCounter::open(&sched_rt, "job-count").unwrap();

    let metrics_rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let events: TangoQueue<String> =
        TangoQueue::open_with(&metrics_rt, "events", tango::ObjectOptions { needs_decision: true })
            .unwrap();
    let events_oid = events.oid();

    // The scheduler transacts on its own objects AND pushes an event to
    // the queue it does not host (remote-write transaction, §4.1).
    for i in 0..10u64 {
        jobs.len().unwrap();
        sched_rt.begin_tx().unwrap();
        jobs.put(&i, &format!("job-{i}")).unwrap();
        job_count.add(1).unwrap();
        sched_rt
            .update_remote(
                events_oid,
                None,
                TangoQueue::encode_enqueue(&format!("scheduled job {i}")),
            )
            .unwrap();
        assert_eq!(sched_rt.end_tx().unwrap(), TxStatus::Committed);
    }

    // The metrics service drains its queue; atomicity guaranteed events
    // exist iff the jobs were scheduled.
    let mut drained = 0;
    while let Some(event) = events.dequeue().unwrap() {
        assert!(event.starts_with("scheduled job "));
        drained += 1;
    }
    assert_eq!(drained, 10);
    assert_eq!(job_count.get().unwrap(), 10);
}

#[test]
fn observability_covers_the_whole_stack() {
    // A mixed workload — plain updates, synced reads, committed and
    // aborted transactions, a checkpoint — must light up instruments in
    // every layer of the stack, all visible from one registry snapshot.
    let cluster = LocalCluster::new(ClusterConfig::default());
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map: TangoMap<u64, String> = TangoMap::open(&rt, "observed").unwrap();

    for i in 0..20u64 {
        map.put(&i, &format!("v{i}")).unwrap();
    }
    assert_eq!(map.len().unwrap(), 20);
    rt.begin_tx().unwrap();
    map.put(&100, &"tx".to_owned()).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);
    rt.begin_tx().unwrap();
    map.get(&100).unwrap();
    rt.abort_tx().unwrap();
    rt.checkpoint(map.oid()).unwrap();
    rt.sync().unwrap();

    let snap = rt.metrics().snapshot();
    println!("{}", snap.to_text());
    assert!(
        snap.non_zero_count() >= 5,
        "expected >=5 distinct non-zero metrics, got:\n{}",
        snap.to_text()
    );
    // One instrument per layer: sequencer, storage, client, stream, runtime.
    assert!(snap.counter("corfu.seq.tokens_granted") > 0);
    assert!(snap.counter("corfu.storage.writes") > 0);
    assert!(snap.histogram("corfu.client.append_latency_ns").is_some_and(|h| h.count() > 0));
    assert!(snap.histogram("stream.sync_latency_ns").is_some_and(|h| h.count() > 0));
    assert!(snap.counter("tango.tx_commit") > 0);
    assert!(snap.counter("tango.tx_abort") > 0);
    assert!(snap.counter("tango.checkpoints") > 0);
    assert!(snap.histogram("tango.apply_latency_ns").is_some_and(|h| h.count() > 0));

    // The same snapshot survives the encoding a node answers scrapes with.
    assert_eq!(tango_metrics::Snapshot::from_bytes(&snap.to_bytes()).as_ref(), Ok(&snap));
}

#[test]
fn sequencer_failover_under_live_tango_traffic() {
    let cluster = Arc::new(LocalCluster::new(ClusterConfig::default()));
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map: TangoMap<u64, u64> = TangoMap::open(&rt, "survivor").unwrap();
    for i in 0..25u64 {
        map.put(&i, &i).unwrap();
    }
    assert_eq!(map.len().unwrap(), 25);

    // Kill the sequencer and reconfigure.
    cluster.kill_sequencer();
    let admin = cluster.client().unwrap();
    let (info, _server) = cluster.spawn_replacement_sequencer().unwrap();
    reconfig::replace_sequencer(&admin, info, cluster.config().k_backpointers).unwrap();

    // Existing runtime keeps working (its CORFU client refreshes layout).
    map.put(&100, &100).unwrap();
    assert_eq!(map.get(&100).unwrap(), Some(100));
    assert_eq!(map.len().unwrap(), 26);

    // Fresh clients replay everything written across both epochs.
    let rt2 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map2: TangoMap<u64, u64> = TangoMap::open(&rt2, "survivor").unwrap();
    assert_eq!(map2.len().unwrap(), 26);
}

#[test]
fn compaction_with_active_namespaces() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let zk = TangoZK::open(&rt, "fs").unwrap();
    zk.create("/apps", b"", CreateMode::Persistent).unwrap();
    for i in 0..10 {
        zk.create(&format!("/apps/app-{i}"), b"cfg", CreateMode::Persistent).unwrap();
    }
    // Checkpoint everything (which forgets the history), compact.
    rt.checkpoint(zk.oid()).unwrap();
    rt.checkpoint(tango::DIRECTORY_OID).unwrap();
    let horizon = rt.compact().unwrap();
    assert!(horizon > 0);

    // A fresh client reconstructs the namespace from the checkpoint.
    let rt2 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let oid = rt2.resolve("fs").unwrap().expect("directory entry survives");
    let view = rt2
        .register_object_from_checkpoint(
            oid,
            tango_objects::zk::ZkState::default(),
            Default::default(),
        )
        .unwrap();
    rt2.sync().unwrap();
    view.query(None, |_s| ()).unwrap();
    // Post-compaction writes still work.
    zk.create("/apps/app-new", b"", CreateMode::Persistent).unwrap();
    assert_eq!(zk.get_children("/apps").unwrap().len(), 11);
}

#[test]
fn durable_flash_survives_storage_restart() {
    // Run a storage node on the segmented file store, restart it, and
    // verify the log contents survive.
    use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
    use corfu::StorageServer;
    use tango_flash::{FileStore, FlashUnit};

    let dir = std::env::temp_dir().join(format!("tango-e2e-flash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = FileStore::open(&dir, 4096, 1024).unwrap();
        let unit = FlashUnit::open(Box::new(store), 4096).unwrap();
        let server = StorageServer::new(unit);
        for addr in 0..50u64 {
            let resp = server.process(StorageRequest::Write {
                epoch: 0,
                addr,
                kind: WriteKind::Data,
                payload: bytes::Bytes::from(format!("entry-{addr}").into_bytes()),
            });
            assert_eq!(resp, StorageResponse::Ok);
        }
        server.process(StorageRequest::Seal { epoch: 3 });
    }
    // "Restart": reopen from disk.
    let store = FileStore::open(&dir, 4096, 1024).unwrap();
    let unit = FlashUnit::open(Box::new(store), 4096).unwrap();
    assert_eq!(unit.epoch(), 3);
    let server = StorageServer::new(unit);
    match server.process(StorageRequest::Read { epoch: 3, addr: 17 }) {
        StorageResponse::Page(corfu::Page::Data(b)) => {
            assert_eq!(b, bytes::Bytes::from(&b"entry-17"[..]))
        }
        other => panic!("unexpected {other:?}"),
    }
    // The epoch gate persisted too.
    assert_eq!(
        server.process(StorageRequest::Read { epoch: 0, addr: 17 }),
        StorageResponse::ErrSealed { epoch: 3 }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
