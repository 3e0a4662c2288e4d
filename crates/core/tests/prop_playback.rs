//! Playback differential: whatever is written to 1–4 streams — plain
//! updates, commit records on two streams at once, commits whose write set
//! was spilled ahead of them, commits the reader can only decide by reading
//! another stream, junk-filled holes — and however
//! the reader's syncs fall between the writes, with objects registered late,
//! a play limit, and storage reads failing under a sync, the `(offset, oid)`
//! sequence of `apply` upcalls is the one an independent model derives from
//! the writes alone: every hosted object gets every update of its stream,
//! once, in log order.

mod support;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::proto::StorageRequest;
use corfu::{ClientOptions, ConnFactory, NodeInfo, StreamId};
use corfu_stream::StreamClient;
use proptest::prelude::*;
use support::{Apply, PlaybackModel};
use tango::{
    ApplyMeta, LogRecord, ObjectOptions, ReadKey, RuntimeOptions, StateMachine, TangoRuntime, TxId,
    UpdateRecord,
};
use tango_metrics::Registry;
use tango_rpc::{ClientConn, RpcError};
use tango_wire::{decode_from_slice, encode_to_vec};

/// The objects the reader may host; a commit's read set names others.
const OBJECTS: u32 = 4;

/// The reader's storage reads fail while `reads_fail` — which the
/// `applies_left`-th upcall from now sets, so that a sync can be made to fail
/// in the middle of a run: after some entries were applied, at the first
/// that needs a read to be decided.
#[derive(Default)]
struct Faults {
    reads_fail: AtomicBool,
    applies_left: AtomicI64,
}

/// A view that does nothing but note its upcalls, in one list for all.
struct Recorder {
    applies: Arc<Mutex<Vec<Apply>>>,
    faults: Arc<Faults>,
}

impl StateMachine for Recorder {
    fn apply(&mut self, data: &[u8], meta: &ApplyMeta) {
        self.applies.lock().unwrap().push((meta.offset, meta.oid, data[0]));
        if self.faults.applies_left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.faults.reads_fail.store(true, Ordering::SeqCst);
        }
    }
}

struct FailingReads {
    inner: Arc<dyn ConnFactory>,
    faults: Arc<Faults>,
}

struct FailingConn {
    inner: Arc<dyn ClientConn>,
    faults: Arc<Faults>,
}

impl ConnFactory for FailingReads {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        let inner = self.inner.connect(node);
        if !node.addr.starts_with("storage") {
            return inner;
        }
        Arc::new(FailingConn { inner, faults: Arc::clone(&self.faults) })
    }
}

impl ClientConn for FailingConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let is_read = matches!(
            decode_from_slice(request),
            Ok(StorageRequest::Read { .. }
                | StorageRequest::ReadBatch { .. }
                | StorageRequest::ReadChase { .. })
        );
        if is_read && self.faults.reads_fail.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        self.inner.call(request)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A plain update of one object.
    Update(u32),
    /// A write-only commit record on two streams, with this many updates
    /// alternating between the two objects.
    Commit(u32, u32, usize),
    /// A commit on two streams whose read set is an object nobody hosts —
    /// the reader decides it by reading that object's stream — and whether
    /// the read is stale (the commit aborts and applies nothing).
    RemoteReadCommit(u32, u32, bool),
    /// A transaction's write set spilled ahead of its commit: a speculative
    /// record on two streams with this many updates, alternating between the
    /// two objects. Nothing applies until [`Op::CommitSpilled`].
    Spill(u32, u32, usize),
    /// The commit record of the oldest spill not yet committed (nothing, if
    /// there is none), with one inline update more. The spilled updates
    /// apply first, at the commit's offset — whatever writes and syncs fell
    /// in between, so what the reader buffered outlives the run it read.
    CommitSpilled,
    /// A token for the object's stream that is never written: filled.
    Hole(u32),
    /// The reader starts hosting the object.
    Register(u32),
    /// The reader syncs; with `Some(n)`, its storage reads fail once the
    /// sync has applied n updates (0: from the start), and it syncs again
    /// once they work.
    Sync(Option<i64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let object = || 1..=OBJECTS;
    prop_oneof![
        6 => object().prop_map(Op::Update),
        3 => (object(), object(), 1usize..4).prop_map(|(a, b, n)| Op::Commit(a, b, n)),
        3 => (object(), object(), any::<bool>()).prop_map(|(a, b, s)| Op::RemoteReadCommit(a, b, s)),
        2 => (object(), object(), 1usize..4).prop_map(|(a, b, n)| Op::Spill(a, b, n)),
        2 => Just(Op::CommitSpilled),
        1 => object().prop_map(Op::Hole),
        1 => object().prop_map(Op::Register),
        1 => Just(Op::Sync(None)),
        2 => (0i64..6).prop_map(|n| Op::Sync(Some(n))),
    ]
}

/// The writer: a bare stream client appending hand-made records, so that
/// every offset and its content is known as it is written.
struct Writer {
    stream: StreamClient,
    model: PlaybackModel,
    /// Distinguishes one update from the next.
    tag: u8,
    txs: u64,
    /// The next stream a remote-read commit reads: each reads a fresh one,
    /// so each costs the reader a storage read to decide.
    next_read_stream: StreamId,
    /// Spills awaiting their commit.
    spilled: VecDeque<Spill>,
}

/// A speculative record written and not yet committed.
struct Spill {
    objects: (u32, u32),
    txid: TxId,
    offset: u64,
    /// What its updates apply once the commit is delivered.
    applies: Vec<(u32, u8)>,
}

impl Writer {
    fn update(&mut self, oid: u32) -> UpdateRecord {
        self.tag = self.tag.wrapping_add(1);
        UpdateRecord { oid, key: None, data: Bytes::from(vec![self.tag]) }
    }

    fn append(&mut self, streams: &[StreamId], record: &LogRecord) -> u64 {
        self.stream.multiappend(streams, Bytes::from(encode_to_vec(record))).unwrap()
    }

    fn next_tx(&mut self) -> TxId {
        self.txs += 1;
        TxId { client: 77, seq: self.txs }
    }

    fn commit(
        &mut self,
        (a, b): (u32, u32),
        reads: Vec<ReadKey>,
        updates: Vec<UpdateRecord>,
    ) -> u64 {
        let txid = self.next_tx();
        let record =
            LogRecord::Commit { txid, reads, updates, speculative: vec![], needs_decision: false };
        self.append(&streams_of(a, b), &record)
    }

    fn write(&mut self, op: &Op) {
        match *op {
            Op::Update(oid) => {
                let update = self.update(oid);
                let applies = vec![(oid, update.data[0])];
                let offset = self.append(&[oid], &LogRecord::Update(update));
                self.model.wrote(offset, applies);
            }
            Op::Commit(a, b, n) => {
                let updates: Vec<_> =
                    (0..n).map(|i| self.update(if i % 2 == 0 { a } else { b })).collect();
                let applies = updates.iter().map(|u| (u.oid, u.data[0])).collect();
                let offset = self.commit((a, b), vec![], updates);
                self.model.wrote(offset, applies);
            }
            Op::RemoteReadCommit(a, b, stale) => {
                let read = self.next_read_stream;
                self.next_read_stream += 1;
                let update = self.update(read);
                let seen = self.append(&[read], &LogRecord::Update(update));
                // A version is the modifying offset plus one; 0 is "never".
                let version = if stale { 0 } else { seen + 1 };
                let updates = vec![self.update(a), self.update(b)];
                let applies: Vec<_> = updates.iter().map(|u| (u.oid, u.data[0])).collect();
                let reads = vec![ReadKey { oid: read, key: None, version }];
                let offset = self.commit((a, b), reads, updates);
                if !stale {
                    self.model.wrote(offset, applies);
                }
            }
            Op::Spill(a, b, n) => {
                let updates: Vec<_> =
                    (0..n).map(|i| self.update(if i % 2 == 0 { a } else { b })).collect();
                let applies = updates.iter().map(|u| (u.oid, u.data[0])).collect();
                let txid = self.next_tx();
                let record = LogRecord::Speculative { txid, updates };
                let offset = self.append(&streams_of(a, b), &record);
                self.spilled.push_back(Spill { objects: (a, b), txid, offset, applies });
            }
            Op::CommitSpilled => {
                let Some(spill) = self.spilled.pop_front() else { return };
                let Spill { objects: (a, b), txid, offset: spill, mut applies } = spill;
                let inline = self.update(a);
                applies.push((a, inline.data[0]));
                let record = LogRecord::Commit {
                    txid,
                    reads: vec![],
                    updates: vec![inline],
                    speculative: vec![spill],
                    needs_decision: false,
                };
                let offset = self.append(&streams_of(a, b), &record);
                self.model.wrote(offset, applies);
            }
            Op::Hole(oid) => {
                let corfu = self.stream.corfu();
                let hole = corfu.token(&[oid]).unwrap().offset;
                corfu.fill(hole).unwrap();
            }
            Op::Register(_) | Op::Sync(_) => unreachable!("not a write"),
        }
    }
}

/// The streams a record of objects `a` and `b` goes to.
fn streams_of(a: u32, b: u32) -> Vec<StreamId> {
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn applies_are_the_sorted_merge_of_the_hosted_streams_each_once(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        first_hosted in 1..=OBJECTS,
        // Above 200: no limit (a case writes fewer entries than that).
        play_limit in 1u64..400,
    ) {
        let cluster = LocalCluster::new(ClusterConfig::default());
        let mut writer = Writer {
            stream: StreamClient::new(cluster.client().unwrap()),
            model: PlaybackModel::default(),
            tag: 0,
            txs: 0,
            next_read_stream: 100,
            spilled: VecDeque::new(),
        };
        let faults = Arc::new(Faults::default());
        let factory =
            Arc::new(FailingReads { inner: cluster.conn_factory(), faults: Arc::clone(&faults) });
        // The reader fills what it finds unwritten (a decision record of its
        // own that a failing connection cut short) without a long wait.
        let options = ClientOptions { hole_fill_timeout: Duration::from_millis(2) };
        let corfu = cluster.client_with_factory(factory, options, Registry::new()).unwrap();
        let play_limit = (play_limit <= 200).then_some(play_limit);
        let reader = TangoRuntime::with_options(
            corfu,
            RuntimeOptions { play_limit, ..Default::default() },
        ).unwrap();
        let recorded = Arc::new(Mutex::new(Vec::new()));
        let host = |oid: u32, model: &mut PlaybackModel| {
            let recorder =
                Recorder { applies: Arc::clone(&recorded), faults: Arc::clone(&faults) };
            // Registered already: nothing changes.
            if reader.register_object(oid, recorder, ObjectOptions::default()).is_ok() {
                model.host(oid);
            }
        };
        host(first_hosted, &mut writer.model);

        // One sync against the model: what it applied is what was pending
        // below the position it reports — or, when it fails, a prefix of
        // what was pending at all.
        let check_sync = |model: &mut PlaybackModel| -> Result<bool, proptest::TestCaseError> {
            let before = recorded.lock().unwrap().len();
            let synced = reader.sync();
            let applied = recorded.lock().unwrap()[before..].to_vec();
            match synced {
                Ok(target) => prop_assert_eq!(&applied, &model.pending(target)),
                Err(_) => {
                    let limit = play_limit.unwrap_or(u64::MAX);
                    let pending = model.pending(limit);
                    prop_assert!(pending.starts_with(&applied), "{applied:?} of {pending:?}");
                }
            }
            model.applied(&applied);
            Ok(synced.is_ok())
        };

        for op in ops.iter().chain([&Op::Sync(None)]) {
            match *op {
                Op::Register(oid) => host(oid, &mut writer.model),
                Op::Sync(failing_from) => {
                    faults.reads_fail.store(failing_from == Some(0), Ordering::SeqCst);
                    faults.applies_left.store(failing_from.unwrap_or(0), Ordering::SeqCst);
                    let synced = check_sync(&mut writer.model)?;
                    faults.reads_fail.store(false, Ordering::SeqCst);
                    faults.applies_left.store(0, Ordering::SeqCst);
                    if !synced {
                        prop_assert!(check_sync(&mut writer.model)?, "a sync failed unprovoked");
                    }
                }
                _ => writer.write(op),
            }
        }
        let limit = play_limit.unwrap_or(u64::MAX);
        prop_assert_eq!(writer.model.pending(limit), vec![]);
    }
}
