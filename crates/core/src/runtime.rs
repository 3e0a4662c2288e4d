//! The Tango runtime: merged multi-stream playback, version tracking,
//! transactions, checkpoints, and the object directory.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::{log_of_offset, raw_of_offset, CorfuClient, CrossLogLink, StreamId};
use corfu_stream::{Delivery, Run, StreamClient};
use parking_lot::Mutex;
use tango_metrics::{log_scoped, Counter, Gauge, Histogram, Registry, Sampler};
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::directory::{DirectoryOp, DirectoryState};
use crate::object::{ApplyMeta, ApplySink, ObjectOptions, ObjectView, SinkFor, StateMachine};
use crate::record::{LogRecord, LogRecordRef, ReadKey, TxId, UpdateRecord, UpdateRef};
use crate::tx::{self, TxContext, TxOptions, TxStatus};
use crate::versions::ConflictTable;
use crate::{KeyHash, LogOffset, Oid, Result, TangoError, DIRECTORY_OID};

/// Tuning knobs for a runtime instance.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// This runtime's client id (half of every [`TxId`] it generates).
    /// Defaults to a process-unique value.
    pub client_id: u64,
    /// Write sets up to this many bytes ride inline in the commit record;
    /// larger ones spill into speculative entries first (§3.2).
    pub inline_update_limit: usize,
    /// If set, playback stops at this log position: the view is a snapshot
    /// of history (§3.1 "History" — time travel / coordinated rollback).
    pub play_limit: Option<LogOffset>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let pid = std::process::id() as u64;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Self { client_id: (pid << 32) | n, inline_update_limit: 3 * 1024, play_limit: None }
    }
}

/// How long playback waits for a decision record before resolving a
/// remote-read transaction offline (§4.1 failure handling).
const DECISION_TIMEOUT: Duration = Duration::from_millis(100);

struct RegisteredObject {
    sink: Box<dyn ApplySink>,
    needs_decision: bool,
}

/// `tango.*` instruments, bound to the deployment-wide registry the
/// underlying CORFU client carries.
#[derive(Clone, Default)]
struct RuntimeMetrics {
    /// Sampled (see `sampler`): an apply is the per-entry step of a replay.
    apply_latency_ns: Histogram,
    sampler: Sampler,
    tx_commit: Counter,
    tx_abort: Counter,
    checkpoints: Counter,
    /// Backing registry for the lazily bound per-log applied gauges.
    registry: Registry,
    /// Per-log playback watermark gauges (`tango.applied_offset`,
    /// log-scoped): the highest *raw* offset this runtime has played in
    /// each log. The health plane subtracts this from the sequencer's
    /// `corfu.seq.tail` to compute apply lag.
    applied: Arc<Mutex<HashMap<u32, Gauge>>>,
}

impl RuntimeMetrics {
    fn from_registry(registry: &Registry) -> Self {
        Self {
            apply_latency_ns: registry.histogram("tango.apply_latency_ns"),
            sampler: Sampler::default(),
            tx_commit: registry.counter("tango.tx_commit"),
            tx_abort: registry.counter("tango.tx_abort"),
            checkpoints: registry.counter("tango.checkpoints"),
            registry: registry.clone(),
            applied: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Raises log `log`'s applied watermark to `raw` (gauges only move
    /// forward; playback can visit logs out of composite order).
    fn record_applied(&self, log: u32, raw: LogOffset) {
        let gauge = {
            let mut map = self.applied.lock();
            map.entry(log)
                .or_insert_with(|| {
                    self.registry
                        .gauge(&log_scoped(tango_metrics::health::GAUGE_APPLIED, log as u64))
                })
                .clone()
        };
        if gauge.get() < raw as i64 {
            gauge.set(raw as i64);
        }
    }
}

struct Playback {
    /// The hosted objects; their oids are the streams playback merges.
    objects: BTreeMap<Oid, RegisteredObject>,
    /// The playback loop's buffers, kept so a short sync allocates none.
    run: Run,
    versions: ConflictTable,
    /// Transaction outcomes this runtime knows (own evaluations, decision
    /// records, offline resolutions).
    decided: HashMap<TxId, bool>,
    /// Buffered speculative updates awaiting their commit record.
    speculative: HashMap<TxId, BTreeMap<LogOffset, Vec<UpdateRecord>>>,
    /// All entries with offset < position have been processed.
    position: LogOffset,
}

/// A checkpoint record found in a stream: its offset, the state it holds
/// and the position that state is as of.
type FoundCheckpoint = (LogOffset, Bytes, LogOffset);

/// The Tango runtime (§3): one per client process. All views it hosts are
/// kept consistent by playing their streams forward in global log order.
pub struct TangoRuntime {
    stream: StreamClient,
    opts: RuntimeOptions,
    tx_seq: AtomicU64,
    play: Mutex<Playback>,
    dir_state: Arc<Mutex<DirectoryState>>,
    metrics: RuntimeMetrics,
}

impl TangoRuntime {
    /// Creates a runtime over a CORFU client with default options. The
    /// object directory (OID 0) is registered automatically.
    pub fn new(corfu: CorfuClient) -> Result<Arc<Self>> {
        Self::with_options(corfu, RuntimeOptions::default())
    }

    /// Creates a runtime with explicit options.
    pub fn with_options(corfu: CorfuClient, opts: RuntimeOptions) -> Result<Arc<Self>> {
        let stream = StreamClient::new(corfu);
        let dir_state = Arc::new(Mutex::new(DirectoryState::new()));
        let mut objects: BTreeMap<Oid, RegisteredObject> = BTreeMap::new();
        objects.insert(
            DIRECTORY_OID,
            RegisteredObject {
                sink: Box::new(SinkFor { state: Arc::clone(&dir_state) }),
                needs_decision: false,
            },
        );
        stream.open(DIRECTORY_OID);
        let metrics = RuntimeMetrics::from_registry(stream.metrics());
        let runtime = Arc::new(Self {
            stream,
            opts,
            tx_seq: AtomicU64::new(1),
            play: Mutex::new(Playback {
                objects,
                run: Run::default(),
                versions: ConflictTable::new(),
                decided: HashMap::new(),
                speculative: HashMap::new(),
                position: 0,
            }),
            dir_state,
            metrics,
        });
        // If the log prefix was compacted, the directory's early records
        // are gone; restore its view from its latest checkpoint.
        runtime.restore_directory_checkpoint()?;
        Ok(runtime)
    }

    /// Finds the newest directory checkpoint and restores from it, skipping
    /// the (possibly trimmed) prefix it captures.
    fn restore_directory_checkpoint(&self) -> Result<()> {
        if let Some((off, data, as_of)) = self.find_latest_checkpoint(DIRECTORY_OID)? {
            self.dir_state.lock().restore(&data)?;
            self.stream.seek(DIRECTORY_OID, as_of);
            self.play.lock().versions.record_write(DIRECTORY_OID, None, off);
        }
        Ok(())
    }

    /// Syncs `oid` and scans its membership newest-first for its latest
    /// checkpoint record (respecting the play limit).
    ///
    /// A prefix trim can overtake the scan, and it reaches the replica sets
    /// one after another: for a moment an old checkpoint can still be read
    /// while entries above it are gone. So what a scan finds below an offset
    /// with nothing left to read is not to be trusted — the checkpoint that
    /// allowed the trim stands above everything the sync knew — and the
    /// restore syncs and looks again. Junk reads like a trimmed entry, hence
    /// the bound: the last scan's word stands.
    fn find_latest_checkpoint(&self, oid: Oid) -> Result<Option<FoundCheckpoint>> {
        const RESTORE_SCANS: usize = 4;
        let mut found = None;
        for _ in 0..RESTORE_SCANS {
            self.stream.sync(&[oid])?;
            let overtaken;
            (found, overtaken) = self.scan_for_checkpoint(oid)?;
            if !overtaken {
                break;
            }
        }
        Ok(found)
    }

    /// One newest-first pass over what the cursor knows of `oid`, bulk-fetched
    /// in batches so a restore does not pay one round trip per candidate: the
    /// latest checkpoint record, if there is one, and whether an offset above
    /// it had nothing left to read.
    fn scan_for_checkpoint(&self, oid: Oid) -> Result<(Option<FoundCheckpoint>, bool)> {
        const RESTORE_SCAN_BATCH: usize = 32;
        let eligible = self.stream.known_below(oid, self.opts.play_limit.unwrap_or(LogOffset::MAX));
        let mut overtaken = false;
        for chunk in eligible.rchunks(RESTORE_SCAN_BATCH) {
            let entries = self.stream.read_many_at(chunk)?;
            for (&off, entry) in chunk.iter().zip(entries.iter()).rev() {
                let Some(entry) = entry else {
                    overtaken = true;
                    continue;
                };
                if let Ok(LogRecord::Checkpoint { oid: o, data, as_of }) =
                    decode_from_slice::<LogRecord>(&entry.payload)
                {
                    if o == oid {
                        return Ok((Some((off, data, as_of)), overtaken));
                    }
                }
            }
        }
        Ok((None, overtaken))
    }

    /// The options in effect.
    pub fn options(&self) -> &RuntimeOptions {
        &self.opts
    }

    /// The stream client (for advanced use and tests).
    pub fn stream(&self) -> &StreamClient {
        &self.stream
    }

    /// The underlying CORFU client.
    pub fn corfu(&self) -> &CorfuClient {
        self.stream.corfu()
    }

    /// The deployment-wide metrics registry. The runtime's `tango.*`
    /// instruments record here, alongside the `stream.*`, `corfu.*` and
    /// `rpc.*` instruments of the layers below it, so one snapshot covers
    /// the whole stack.
    pub fn metrics(&self) -> &Registry {
        self.stream.metrics()
    }

    fn runtime_id(&self) -> usize {
        self as *const TangoRuntime as usize
    }

    // ------------------------------------------------------------------
    // Object registration
    // ------------------------------------------------------------------

    /// Hosts a view of object `oid`, playing its stream from the beginning
    /// (or from the latest checkpoint, see
    /// [`TangoRuntime::register_object_from_checkpoint`]).
    pub fn register_object<S: StateMachine>(
        self: &Arc<Self>,
        oid: Oid,
        state: S,
        options: ObjectOptions,
    ) -> Result<ObjectView<S>> {
        let state = Arc::new(Mutex::new(state));
        let mut play = self.play.lock();
        if play.objects.contains_key(&oid) {
            return Err(TangoError::AlreadyRegistered { oid });
        }
        self.stream.open(oid);
        play.objects.insert(
            oid,
            RegisteredObject {
                sink: Box::new(SinkFor { state: Arc::clone(&state) }),
                needs_decision: options.needs_decision,
            },
        );
        drop(play);
        Ok(ObjectView::new(Arc::clone(self), oid, state))
    }

    /// Hosts a view of `oid`, restoring from its latest checkpoint record
    /// if one exists and replaying only the suffix. Falls back to a full
    /// replay when the object has never checkpointed.
    pub fn register_object_from_checkpoint<S: StateMachine>(
        self: &Arc<Self>,
        oid: Oid,
        mut state: S,
        options: ObjectOptions,
    ) -> Result<ObjectView<S>> {
        self.stream.open(oid);
        let mut restore_point = None;
        if let Some((off, data, as_of)) = self.find_latest_checkpoint(oid)? {
            state.restore(&data)?;
            restore_point = Some((off, as_of));
        }
        let view = self.register_object(oid, state, options)?;
        if let Some((ckpt_off, as_of)) = restore_point {
            // Skip everything the checkpoint already captured.
            self.stream.seek(oid, as_of);
            // Conservative versioning: anything restored counts as modified
            // at the checkpoint record's position.
            self.play.lock().versions.record_write(oid, None, ckpt_off);
        }
        Ok(view)
    }

    // ------------------------------------------------------------------
    // The helpers (Figure 3)
    // ------------------------------------------------------------------

    /// The paper's `update_helper`: append an opaque update to the object's
    /// stream, or buffer it when a transaction is active on this thread.
    pub(crate) fn update_helper(
        &self,
        oid: Oid,
        key: Option<KeyHash>,
        data: Vec<u8>,
    ) -> Result<()> {
        let update = UpdateRecord { oid, key, data: Bytes::from(data) };
        let buffered = tx::with_active(self.runtime_id(), |ctx| {
            ctx.record_write(update.clone());
        });
        match buffered {
            Some(()) => Ok(()),
            None => {
                let record = LogRecord::Update(update);
                self.stream.multiappend(&[oid], Bytes::from(encode_to_vec(&record)))?;
                Ok(())
            }
        }
    }

    /// The paper's `query_helper`: outside a transaction, play the log
    /// forward to its tail; inside one, record the read (oid, key, version)
    /// without syncing.
    pub(crate) fn query_helper(&self, oid: Oid, key: Option<KeyHash>) -> Result<()> {
        if tx::is_active(self.runtime_id()) {
            self.record_tx_read_if_active(oid, key)
        } else {
            self.sync()?;
            Ok(())
        }
    }

    /// Writes to an object *without* hosting a view of it (a "remote
    /// write", §4.1 case A). Outside a transaction this appends a plain
    /// update record; inside one the write joins the transaction's write
    /// set and commits atomically with the rest.
    pub fn update_remote(&self, oid: Oid, key: Option<KeyHash>, data: Vec<u8>) -> Result<()> {
        self.update_helper(oid, key, data)
    }

    /// Adds (oid, key, current version) to the active transaction's read
    /// set, if one exists on this thread.
    pub(crate) fn record_tx_read_if_active(&self, oid: Oid, key: Option<KeyHash>) -> Result<()> {
        if !tx::is_active(self.runtime_id()) {
            return Ok(());
        }
        let version = self.play.lock().versions.version_for_read(oid, key);
        tx::with_active(self.runtime_id(), |ctx| {
            ctx.record_read(oid, key, version);
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Playback
    // ------------------------------------------------------------------

    /// Synchronizes every hosted stream with the log tail and plays all new
    /// entries in global order. Returns the position played to.
    pub fn sync(&self) -> Result<LogOffset> {
        let hosted = self.hosted_streams();
        let tail = self.stream.sync(&hosted)?;
        let target = self.opts.play_limit.map(|l| l.min(tail)).unwrap_or(tail);
        self.play_to(target)?;
        Ok(target)
    }

    /// The playback position: all entries below it have been processed.
    pub fn position(&self) -> LogOffset {
        self.play.lock().position
    }

    fn hosted_streams(&self) -> Vec<StreamId> {
        self.play.lock().objects.keys().copied().collect()
    }

    fn play_to(&self, target: LogOffset) -> Result<()> {
        let mut play = self.play.lock();
        self.play_to_locked(&mut play, target)
    }

    /// Processes entries of all hosted streams, in global offset order,
    /// up to (but excluding) `target`.
    ///
    /// Delivery is strictly in order, a run at a time: the stream client
    /// merges the hosted cursors' next offsets and bulk-fetches their
    /// entries, the run is applied — which hosted object an entry is
    /// delivered to is the run's word, fixed when it was merged — and the
    /// cursors and the applied watermark then move once, past what was
    /// applied. An error stops the run there: the entry that failed is
    /// delivered again by the next sync, the ones before it are not. What
    /// the cursors learn while a run is applied (a commit waiting for its
    /// decision syncs them) is in a later run, until one comes back empty.
    fn play_to_locked(&self, play: &mut Playback, target: LogOffset) -> Result<()> {
        // Offsets per run, and so per bulk fetch.
        const PLAYBACK_WAVE: usize = 256;
        let mut run = std::mem::take(&mut play.run);
        let played = loop {
            if let Err(e) =
                self.stream.next_run(play.objects.keys(), target, PLAYBACK_WAVE, &mut run)
            {
                break Err(e.into());
            }
            if run.offsets().is_empty() {
                break Ok(());
            }
            let mut count = 0;
            let mut outcome = Ok(());
            for delivery in run.iter() {
                // A payload this runtime cannot parse (foreign writer) is
                // skipped rather than wedging playback.
                let payload = delivery.entry.map(|entry| &entry.payload[..]);
                if let Some(Ok(record)) = payload.map(LogRecordRef::decode) {
                    outcome = self.process_record(play, record, &delivery);
                    if outcome.is_err() {
                        break;
                    }
                }
                count += 1;
            }
            self.stream.advance_past(play.objects.keys(), &run, count);
            let applied = &run.offsets()[..count];
            if let Some(&last) = applied.last() {
                play.position = play.position.max(last + 1);
            }
            // Ascending composite offsets: a log's are together.
            for of_log in applied.chunk_by(|a, b| log_of_offset(*a) == log_of_offset(*b)) {
                let last = of_log[of_log.len() - 1];
                self.metrics.record_applied(log_of_offset(last), raw_of_offset(last) + 1);
            }
            if outcome.is_err() {
                break outcome;
            }
        };
        play.run = run;
        played?;
        play.position = play.position.max(target);
        if target > 0 {
            // `target` is usually the tail: everything below it in its own
            // log has been processed (delivered or skipped as non-member),
            // so the watermark advances even when no hosted stream had
            // entries there.
            self.metrics.record_applied(log_of_offset(target), raw_of_offset(target));
        }
        Ok(())
    }

    /// Applies `update`, found in the entry being delivered, to the hosted
    /// view of its object — if this object's cursor is delivering the entry
    /// now (idempotence across late registrations) — as the doing of `txid`.
    fn apply(
        &self,
        play: &mut Playback,
        update: UpdateRef<'_>,
        delivery: &Delivery<'_>,
        txid: Option<TxId>,
    ) {
        let UpdateRef { oid, key, data } = update;
        if !delivery.is_to(oid) {
            return;
        }
        play.versions.record_write(oid, key, delivery.offset);
        if let Some(obj) = play.objects.get(&oid) {
            let meta = ApplyMeta { offset: delivery.offset, oid, key, txid };
            let timer = self.metrics.apply_latency_ns.start_sampled(&self.metrics.sampler);
            obj.sink.apply(data, &meta);
            timer.stop();
        }
    }

    /// Plays one record. Its buffers are views into the delivered entry's
    /// payload: an update is applied from there, and copied only where it
    /// has to outlive the run (a speculative write waiting for its commit).
    fn process_record(
        &self,
        play: &mut Playback,
        record: LogRecordRef<'_>,
        delivery: &Delivery<'_>,
    ) -> Result<()> {
        let off = delivery.offset;
        let link = delivery.entry.and_then(|entry| entry.link.as_ref());
        match record {
            LogRecordRef::Update(update) => self.apply(play, update, delivery, None),
            LogRecordRef::Speculative { txid, updates } => {
                let updates = updates.into_iter().map(UpdateRef::to_owned).collect();
                play.speculative.entry(txid).or_default().insert(off, updates);
            }
            // Only a restore reads checkpoints; what one allows to be
            // trimmed is in the directory (`SetForget`).
            LogRecordRef::Checkpoint { .. } => {}
            LogRecordRef::Decision { txid, committed, .. } => {
                play.decided.entry(txid).or_insert(committed);
            }
            LogRecordRef::Commit { txid, reads, updates, speculative, needs_decision } => {
                let committed = match self.eval_commit(play, txid, &reads, link) {
                    Some(c) => c,
                    None => self.await_decision(play, txid, off, &reads, needs_decision, link)?,
                };
                self.finish_commit(play, txid, delivery, &updates, &speculative, committed)?;
            }
        }
        Ok(())
    }

    /// Tries to decide a commit record locally: either we already know the
    /// outcome, or we host every object in the read set and can validate
    /// versions directly.
    ///
    /// A cross-log commit (the entry carries a [`CrossLogLink`]) is never
    /// validated against the live version tables: playback reaches the
    /// entry's parts at different points of the composite merge order, so a
    /// read stream in another log may not be played to its pin yet. Those
    /// commits resolve through the decision path, whose offline fallback
    /// pins each read to the commit's part in the read's own log.
    fn eval_commit(
        &self,
        play: &Playback,
        txid: TxId,
        reads: &[ReadKey],
        link: Option<&CrossLogLink>,
    ) -> Option<bool> {
        if let Some(&d) = play.decided.get(&txid) {
            return Some(d);
        }
        if link.is_some() {
            return None;
        }
        if reads.iter().all(|r| play.objects.contains_key(&r.oid)) {
            Some(reads.iter().all(|r| !play.versions.is_stale(r)))
        } else {
            None
        }
    }

    /// Blocks until the generating client's decision record for `txid`
    /// arrives on one of our hosted streams; after [`DECISION_TIMEOUT`],
    /// resolves the transaction offline from the log (§4.1 failure
    /// handling) and publishes a decision record for everyone else.
    fn await_decision(
        &self,
        play: &mut Playback,
        txid: TxId,
        commit_off: LogOffset,
        reads: &[ReadKey],
        needs_decision: bool,
        link: Option<&CrossLogLink>,
    ) -> Result<bool> {
        // If the generator did not mark the transaction, no decision record
        // will ever arrive; resolve offline immediately.
        let clock = self.corfu().clock();
        let deadline = clock.now() + if needs_decision { DECISION_TIMEOUT } else { Duration::ZERO };
        let hosted: Vec<StreamId> = play.objects.keys().copied().collect();
        loop {
            // Scan ahead on hosted streams for the decision record,
            // bulk-fetching each stream's lookahead in one go.
            for &oid in &hosted {
                let ahead = self.stream.known_above(oid, commit_off);
                self.stream.fetch_into_cache(&ahead)?;
                for off in ahead {
                    let Some(entry) = self.stream.read_at(off)? else { continue };
                    if let Ok(LogRecord::Decision { txid: t, committed, .. }) =
                        decode_from_slice::<LogRecord>(&entry.payload)
                    {
                        if t == txid {
                            return Ok(committed);
                        }
                    }
                }
            }
            if clock.now() >= deadline {
                break;
            }
            self.stream.sync(&hosted)?;
            clock.sleep(Duration::from_millis(1));
        }
        // Offline resolution: reconstruct read-set versions from the log.
        let committed = self.decide_offline(play, reads, commit_off, link)?;
        // Publish so other consumers stop waiting (any client may do this).
        let streams = self.commit_streams_hint(commit_off)?;
        if !streams.is_empty() {
            let record = LogRecord::Decision { txid, commit_pos: commit_off, committed };
            let _ = self.stream.multiappend(&streams, Bytes::from(encode_to_vec(&record)));
        }
        play.decided.insert(txid, committed);
        Ok(committed)
    }

    /// The streams a substitute decision record should go to: the streams
    /// of the original commit entry.
    fn commit_streams_hint(&self, commit_off: LogOffset) -> Result<Vec<StreamId>> {
        match self.stream.read_at(commit_off)? {
            Some(entry) => Ok(entry.headers.iter().map(|h| h.stream).collect()),
            None => Ok(Vec::new()),
        }
    }

    /// Applies a decided commit: on commit, replay its inline and
    /// speculative updates into every hosted object whose cursor is
    /// delivering this entry.
    fn finish_commit(
        &self,
        play: &mut Playback,
        txid: TxId,
        delivery: &Delivery<'_>,
        inline: &[UpdateRef<'_>],
        spec_offsets: &[LogOffset],
        committed: bool,
    ) -> Result<()> {
        play.decided.insert(txid, committed);
        let mut buffered = play.speculative.remove(&txid).unwrap_or_default();
        if !committed {
            return Ok(());
        }
        // Spilled write-set entries we did not buffer (late registration)
        // are resolved with one bulk read instead of one RPC each — all of
        // them before the first update is applied, so a failed read leaves
        // the commit wholly unapplied for the next sync to deliver again.
        let unbuffered: Vec<LogOffset> =
            spec_offsets.iter().copied().filter(|off| !buffered.contains_key(off)).collect();
        self.stream.fetch_into_cache(&unbuffered)?;
        for spec_off in unbuffered {
            let Some(entry) = self.stream.read_at(spec_off)? else { continue };
            if let Ok(LogRecord::Speculative { txid: t, updates }) =
                decode_from_slice::<LogRecord>(&entry.payload)
            {
                if t == txid {
                    buffered.insert(spec_off, updates);
                }
            }
        }
        let spilled = spec_offsets.iter().filter_map(|off| buffered.get(off)).flatten();
        for update in spilled.map(UpdateRecord::as_ref).chain(inline.iter().copied()) {
            self.apply(play, update, delivery, Some(txid));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Offline conflict resolution (§4.1 failure handling)
    // ------------------------------------------------------------------

    /// Decides a commit record whose read set we do not host, by replaying
    /// the read-set streams' *metadata* (not their object state: conflict
    /// checks only need versions) up to the commit position. Nested
    /// commits on those streams are decided recursively with memoization.
    fn decide_offline(
        &self,
        play: &mut Playback,
        reads: &[ReadKey],
        commit_off: LogOffset,
        link: Option<&CrossLogLink>,
    ) -> Result<bool> {
        let mut memo = play.decided.clone();
        for r in reads {
            let version = if link.is_none() && play.objects.contains_key(&r.oid) {
                // Hosted, single-log: our live table is exact as of the
                // commit position (playback has processed everything below
                // it).
                play.versions.version_for_read(r.oid, r.key)
            } else {
                // Cross-log commits always replay the read's own stream:
                // the live table may not be played to this read's pin.
                let upto = self.read_pin(link, r.oid, commit_off);
                self.version_at(r.oid, r.key, upto, &mut memo, 0)?
            };
            if version > r.version {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The log position a read of `oid` validates against when deciding a
    /// commit record at `commit_off`. Single-log commits validate at the
    /// commit position itself. A cross-log commit validates each read at
    /// the commit's part *in the read's own log* — offsets in different
    /// logs are not ordered against each other, but writes to `oid` all
    /// live in its stream's log, so the part there is the commit point that
    /// orders against them. A read whose log holds no part (the transaction
    /// wrote nothing there) validates conservatively against the stream's
    /// current tail: cross-log write skew is not prevented (see
    /// DESIGN.md), but the outcome is the same deterministic function of
    /// the log contents on every client.
    fn read_pin(&self, link: Option<&CrossLogLink>, oid: Oid, commit_off: LogOffset) -> LogOffset {
        let Some(link) = link else { return commit_off };
        let log = self.stream.corfu().projection().log_of_stream(oid);
        link.parts.iter().copied().find(|&p| log_of_offset(p) == log).unwrap_or(u64::MAX)
    }

    /// Computes the version of `(oid, key)` as of log position `upto`
    /// (exclusive) by replaying the object's stream metadata.
    fn version_at(
        &self,
        oid: Oid,
        key: Option<KeyHash>,
        upto: LogOffset,
        memo: &mut HashMap<TxId, bool>,
        depth: u32,
    ) -> Result<u64> {
        if depth > 32 {
            return Err(TangoError::ResolutionDepthExceeded);
        }
        self.stream.open(oid);
        self.stream.sync(&[oid])?;
        // The decision harvest reads the whole stream, so this copy of the
        // membership is inherent; the replay reads the prefix below `upto`.
        let offsets = self.stream.known_offsets(oid);
        let below = &offsets[..offsets.partition_point(|&o| o < upto)];
        // Both passes below walk the same offsets; pull the whole stream
        // into the cache in batched round trips first.
        self.stream.fetch_into_cache(&offsets)?;
        // First pass: harvest decision records anywhere on this stream.
        for &off in &offsets {
            let Some(entry) = self.stream.read_at(off)? else { continue };
            if let Ok(LogRecord::Decision { txid, committed, .. }) =
                decode_from_slice::<LogRecord>(&entry.payload)
            {
                memo.entry(txid).or_insert(committed);
            }
        }
        // Second pass: replay version metadata below `upto`.
        let mut table = ConflictTable::new();
        let mut spec: HashMap<TxId, Vec<UpdateRecord>> = HashMap::new();
        for &off in below {
            let Some(entry) = self.stream.read_at(off)? else { continue };
            let Ok(record) = decode_from_slice::<LogRecord>(&entry.payload) else { continue };
            match record {
                LogRecord::Update(u) if u.oid == oid => {
                    table.record_write(oid, u.key, off);
                }
                LogRecord::Speculative { txid, updates } => {
                    spec.entry(txid)
                        .or_default()
                        .extend(updates.into_iter().filter(|u| u.oid == oid));
                }
                LogRecord::Commit { txid, reads, updates, .. } => {
                    let committed = match memo.get(&txid) {
                        Some(&c) => c,
                        None => {
                            let mut ok = true;
                            for r2 in &reads {
                                let v2 = if r2.oid == oid {
                                    table.version_for_read(oid, r2.key)
                                } else {
                                    self.version_at(r2.oid, r2.key, off, memo, depth + 1)?
                                };
                                if v2 > r2.version {
                                    ok = false;
                                    break;
                                }
                            }
                            memo.insert(txid, ok);
                            ok
                        }
                    };
                    if committed {
                        for u in updates.iter().filter(|u| u.oid == oid) {
                            table.record_write(oid, u.key, off);
                        }
                        if let Some(buffered) = spec.remove(&txid) {
                            for u in buffered {
                                table.record_write(oid, u.key, off);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(table.version_for_read(oid, key))
    }

    // ------------------------------------------------------------------
    // Transactions (§3.2, §4)
    // ------------------------------------------------------------------

    /// Begins a transaction on the current thread (the paper's `BeginTX`).
    pub fn begin_tx(&self) -> Result<()> {
        self.begin_tx_with(TxOptions::default())
    }

    /// Begins a transaction with options.
    pub fn begin_tx_with(&self, options: TxOptions) -> Result<()> {
        tx::begin(TxContext::new(self.runtime_id(), options))
    }

    /// Abandons the current transaction without touching the log.
    pub fn abort_tx(&self) -> Result<()> {
        tx::take(self.runtime_id()).ok_or(TangoError::NoActiveTransaction)?;
        self.metrics.tx_abort.inc();
        Ok(())
    }

    /// Ends the current transaction (the paper's `EndTX`): appends a
    /// speculative commit record to every write-set stream, plays the log
    /// to the commit point, and decides by validating the read set.
    ///
    /// Fast paths: read-only transactions append nothing (they validate
    /// against the tail, or locally with [`TxOptions::stale_reads`]);
    /// write-only transactions commit without playing the log forward.
    pub fn end_tx(&self) -> Result<TxStatus> {
        let ctx = tx::take(self.runtime_id()).ok_or(TangoError::NoActiveTransaction)?;
        if ctx.writes.is_empty() {
            return self.end_read_only(ctx);
        }
        let txid =
            TxId { client: self.opts.client_id, seq: self.tx_seq.fetch_add(1, Ordering::Relaxed) };
        let write_streams: Vec<StreamId> = ctx.write_oids.iter().copied().collect();
        // Does the write set span logs of a sharded deployment? Cross-log
        // commits always publish a decision record: consumers cannot
        // validate them against their live version tables (the parts
        // arrive at different points of the composite merge order).
        let multi_log = {
            let proj = self.stream.corfu().projection();
            let mut logs: Vec<u32> = write_streams.iter().map(|&s| proj.log_of_stream(s)).collect();
            logs.sort_unstable();
            logs.dedup();
            logs.len() > 1
        };
        let needs_decision = if ctx.reads.is_empty() {
            false
        } else if multi_log {
            true
        } else {
            let play = self.play.lock();
            ctx.write_oids.iter().any(|oid| {
                play.objects
                    .get(oid)
                    .map(|o| o.needs_decision)
                    // Remote write to an object we do not host: we cannot
                    // know who hosts it; be conservative.
                    .unwrap_or(true)
            })
        };

        // Spill large write sets as speculative entries (§3.2).
        let total: usize = ctx.writes.iter().map(|u| u.data.len() + 24).sum();
        let mut inline = ctx.writes;
        let mut spec_offsets = Vec::new();
        if total > self.opts.inline_update_limit {
            for chunk in chunk_updates(std::mem::take(&mut inline), self.opts.inline_update_limit) {
                let record = LogRecord::Speculative { txid, updates: chunk };
                let off =
                    self.stream.multiappend(&write_streams, Bytes::from(encode_to_vec(&record)))?;
                spec_offsets.push(off);
            }
        }

        // Write-only transactions: append and commit immediately.
        if ctx.reads.is_empty() {
            let record = LogRecord::Commit {
                txid,
                reads: Vec::new(),
                updates: inline,
                speculative: spec_offsets,
                needs_decision: false,
            };
            self.play.lock().decided.insert(txid, true);
            self.stream.multiappend(&write_streams, Bytes::from(encode_to_vec(&record)))?;
            self.metrics.tx_commit.inc();
            return Ok(TxStatus::Committed);
        }

        let record = LogRecord::Commit {
            txid,
            reads: ctx.reads.clone(),
            updates: inline,
            speculative: spec_offsets,
            needs_decision,
        };
        // The commit's token grant doubles as its stream sync: the append
        // leaves every hosted stream's membership complete below the commit
        // point (read-set streams the transaction does not write included),
        // which is all the conflict window needs.
        let hosted = self.hosted_streams();
        let commit_off = self.stream.multiappend_observing(
            &write_streams,
            &hosted,
            Bytes::from(encode_to_vec(&record)),
        )?;
        // A cross-log commit's anchor envelope carries the part offsets
        // (cached by the append, so this is a local lookup).
        let commit_link = self.stream.read_at(commit_off)?.and_then(|e| e.link.clone());

        // Play the conflict window, then validate. `commit_off` is the
        // home (lowest-log) part, so the play covers exactly the home
        // log's window; reads pinned in other logs are validated by
        // replaying their own streams up to their part there.
        let committed = {
            let mut play = self.play.lock();
            self.play_to_locked(&mut play, commit_off)?;
            let committed = match commit_link.as_ref() {
                None => ctx.reads.iter().all(|r| !play.versions.is_stale(r)),
                Some(link) => {
                    let proj = self.stream.corfu().projection();
                    let home_log = log_of_offset(commit_off);
                    let mut memo = play.decided.clone();
                    let mut ok = true;
                    for r in &ctx.reads {
                        let stale = if proj.log_of_stream(r.oid) == home_log {
                            play.versions.is_stale(r)
                        } else {
                            let pin = self.read_pin(Some(link), r.oid, commit_off);
                            self.version_at(r.oid, r.key, pin, &mut memo, 0)? > r.version
                        };
                        if stale {
                            ok = false;
                            break;
                        }
                    }
                    ok
                }
            };
            play.decided.insert(txid, committed);
            committed
        };
        if needs_decision {
            let record = LogRecord::Decision { txid, commit_pos: commit_off, committed };
            self.stream.multiappend(&write_streams, Bytes::from(encode_to_vec(&record)))?;
        }
        // Process our own commit record (applies the writes to hosted
        // views through the uniform path) — every part of it, so hosted
        // objects in every written log observe the outcome.
        let last_part = commit_link.as_ref().and_then(|l| l.parts.last().copied());
        self.play_to(last_part.unwrap_or(commit_off) + 1)?;
        Ok(self.count_outcome(committed))
    }

    fn end_read_only(&self, ctx: TxContext) -> Result<TxStatus> {
        if ctx.reads.is_empty() {
            self.metrics.tx_commit.inc();
            return Ok(TxStatus::Committed);
        }
        if !ctx.options.stale_reads {
            self.sync()?;
        }
        let play = self.play.lock();
        let ok = ctx.reads.iter().all(|r| !play.versions.is_stale(r));
        Ok(self.count_outcome(ok))
    }

    fn count_outcome(&self, committed: bool) -> TxStatus {
        if committed {
            self.metrics.tx_commit.inc();
            TxStatus::Committed
        } else {
            self.metrics.tx_abort.inc();
            TxStatus::Aborted
        }
    }

    /// Runs `body` inside a transaction, retrying on aborts up to
    /// `max_retries` times. Returns the body's value from the committing
    /// attempt.
    pub fn run_tx<R>(
        &self,
        max_retries: u32,
        mut body: impl FnMut() -> Result<R>,
    ) -> Result<(TxStatus, Option<R>)> {
        for _ in 0..=max_retries {
            self.begin_tx()?;
            match body() {
                Ok(value) => match self.end_tx()? {
                    TxStatus::Committed => return Ok((TxStatus::Committed, Some(value))),
                    TxStatus::Aborted => continue,
                },
                Err(e) => {
                    let _ = self.abort_tx();
                    return Err(e);
                }
            }
        }
        Ok((TxStatus::Aborted, None))
    }

    /// Aborts an orphaned transaction left by a crashed client: appends a
    /// dummy decision record designed to abort (§3.2 "Failure Handling").
    /// Safe to call even if the transaction later turns out fine — the
    /// first record in the log wins, and decisions are idempotent via the
    /// `decided` map.
    pub fn abort_orphan(&self, txid: TxId, commit_pos: LogOffset) -> Result<()> {
        let streams = self.commit_streams_hint(commit_pos)?;
        let record = LogRecord::Decision { txid, commit_pos, committed: false };
        let target: Vec<StreamId> = if streams.is_empty() { vec![DIRECTORY_OID] } else { streams };
        self.stream.multiappend(&target, Bytes::from(encode_to_vec(&record)))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoints, history, garbage collection (§3.1, §3.2)
    // ------------------------------------------------------------------

    /// Writes a checkpoint record for `oid` capturing its current view, and
    /// records in the directory that `oid` no longer needs the history the
    /// checkpoint captures: everything below the position it is as of — not
    /// the record's own offset, which lies above updates of other clients
    /// that the snapshot does not hold.
    pub fn checkpoint(&self, oid: Oid) -> Result<LogOffset> {
        let play = self.play.lock();
        let obj = play.objects.get(&oid).ok_or(TangoError::UnknownObject { oid })?;
        let data = obj.sink.checkpoint().ok_or(TangoError::CheckpointUnsupported { oid })?;
        let as_of = play.position;
        let record = LogRecord::Checkpoint { oid, data: Bytes::from(data), as_of };
        let off = self.stream.multiappend(&[oid], Bytes::from(encode_to_vec(&record)))?;
        drop(play);
        self.metrics.checkpoints.inc();
        self.forget(oid, as_of)?;
        Ok(off)
    }

    /// Declares that `oid` no longer needs its history below `offset`.
    /// [`TangoRuntime::checkpoint`] does this itself; the log is only
    /// physically reclaimed once *every* object has forgotten a prefix — see
    /// [`TangoRuntime::compact`].
    pub fn forget(&self, oid: Oid, offset: LogOffset) -> Result<()> {
        let op = DirectoryOp::SetForget { oid, offset };
        self.update_helper(DIRECTORY_OID, None, encode_to_vec(&op))
    }

    /// Trims the shared log below the minimum forget offset across all
    /// objects the directory knows — whichever runtime hosts them, the
    /// directory itself included — returning the horizon used. This is the
    /// one rule that decides what may be trimmed (§3.2). In a sharded
    /// deployment the minimum is a composite offset, so one call trims only
    /// the oldest log's prefix; repeated calls converge.
    pub fn compact(&self) -> Result<LogOffset> {
        self.sync()?;
        let horizon = self.dir_state.lock().trim_horizon();
        if horizon > 0 {
            self.corfu().trim_prefix(horizon)?;
            for oid in self.hosted_streams() {
                self.stream.forget_below(oid, horizon);
            }
        }
        Ok(horizon)
    }

    /// The checkpoint-driven trim driver (§3.2): checkpoints every hosted
    /// object (the directory included), then [`TangoRuntime::compact`]s.
    /// This is the one call a steady-state writer needs to keep storage
    /// occupancy bounded.
    pub fn checkpoint_and_trim(&self) -> Result<LogOffset> {
        self.sync()?;
        for oid in self.hosted_streams() {
            match self.checkpoint(oid) {
                Ok(_) => {}
                // An object with no checkpoint support has only its whole
                // history to restore from: it pins the horizon.
                Err(TangoError::CheckpointUnsupported { .. }) => self.forget(oid, 0)?,
                Err(e) => return Err(e),
            }
        }
        self.compact()
    }

    // ------------------------------------------------------------------
    // The directory (§3.2 "Naming")
    // ------------------------------------------------------------------

    /// Resolves `name` to its oid, if registered (linearizable read).
    pub fn resolve(&self, name: &str) -> Result<Option<Oid>> {
        if !tx::is_active(self.runtime_id()) {
            self.sync()?;
        }
        self.record_tx_read_if_active(DIRECTORY_OID, None)?;
        Ok(self.dir_state.lock().resolve(name))
    }

    /// Returns the oid bound to `name`, allocating a fresh one through a
    /// directory transaction if needed. Concurrent registrations of the
    /// same name converge on one oid.
    pub fn create_or_open(&self, name: &str) -> Result<Oid> {
        for _ in 0..64 {
            self.sync()?;
            self.begin_tx()?;
            self.record_tx_read_if_active(DIRECTORY_OID, None)?;
            let (existing, candidate) = {
                let dir = self.dir_state.lock();
                (dir.resolve(name), dir.next_oid())
            };
            if let Some(oid) = existing {
                self.abort_tx()?;
                return Ok(oid);
            }
            let op = DirectoryOp::Register { name: name.to_owned(), oid: candidate };
            self.update_helper(DIRECTORY_OID, None, encode_to_vec(&op))?;
            if self.end_tx()?.is_committed() {
                return Ok(candidate);
            }
        }
        Err(TangoError::Directory(format!("registration of '{name}' kept conflicting")))
    }

    /// A snapshot of the directory contents.
    pub fn directory_snapshot(&self) -> Result<DirectoryState> {
        self.sync()?;
        Ok(self.dir_state.lock().clone())
    }

    /// Reads the update records stored in the log entry at `offset`
    /// (supports views that store offsets instead of values and resolve
    /// them lazily — §3.1 "Durability").
    pub fn read_updates_at(&self, offset: LogOffset) -> Result<Vec<UpdateRecord>> {
        let Some(entry) = self.stream.read_at(offset)? else {
            return Ok(Vec::new());
        };
        match decode_from_slice::<LogRecord>(&entry.payload) {
            Ok(LogRecord::Update(u)) => Ok(vec![u]),
            Ok(LogRecord::Commit { updates, speculative, .. }) => {
                // The spilled write set is fetched in bulk, then decoded.
                self.stream.fetch_into_cache(&speculative)?;
                let mut all = Vec::new();
                for off in speculative {
                    if let Some(e) = self.stream.read_at(off)? {
                        if let Ok(LogRecord::Speculative { updates, .. }) =
                            decode_from_slice::<LogRecord>(&e.payload)
                        {
                            all.extend(updates);
                        }
                    }
                }
                all.extend(updates);
                Ok(all)
            }
            Ok(LogRecord::Speculative { updates, .. }) => Ok(updates),
            Ok(_) => Ok(Vec::new()),
            Err(e) => Err(TangoError::Codec(e.to_string())),
        }
    }
}

/// Splits updates into chunks whose encoded size stays near `limit`.
fn chunk_updates(updates: Vec<UpdateRecord>, limit: usize) -> Vec<Vec<UpdateRecord>> {
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut size = 0usize;
    for u in updates {
        let u_size = u.data.len() + 24;
        if !current.is_empty() && size + u_size > limit {
            chunks.push(std::mem::take(&mut current));
            size = 0;
        }
        size += u_size;
        current.push(u);
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_respects_limit() {
        let updates: Vec<UpdateRecord> = (0..10)
            .map(|i| UpdateRecord { oid: 1, key: None, data: Bytes::from(vec![i as u8; 100]) })
            .collect();
        let chunks = chunk_updates(updates.clone(), 300);
        assert!(chunks.len() > 1);
        let flattened: Vec<UpdateRecord> = chunks.into_iter().flatten().collect();
        assert_eq!(flattened, updates);
        // A single oversized update still fits in its own chunk.
        let big = vec![UpdateRecord { oid: 1, key: None, data: Bytes::from(vec![0u8; 5000]) }];
        assert_eq!(chunk_updates(big, 100).len(), 1);
    }
}
