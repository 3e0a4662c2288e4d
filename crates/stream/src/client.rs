use std::sync::Arc;

use bytes::Bytes;
use corfu::{
    compose, log_of_offset, Chase, CorfuClient, CorfuError, Entry, LogOffset, PageRef, ReadOutcome,
    StreamId, LOG_OFFSET_MASK,
};
use parking_lot::Mutex;
use tango_metrics::{Counter, Events, Histogram, Registry, SpanKind, Tracer};
use tango_wire::{IdMap, IdSet};

use crate::cache::EntryCache;
use crate::cursor::{Run, StreamCursor};

/// Capacity of the entry cache, in entries.
const CACHE_CAPACITY: usize = 65_536;
/// Entries asked for per bulk-read round trip (linear scans, readahead,
/// playback).
const READ_BATCH: usize = 32;
/// Offsets below a walk's first stride that `prefetch_unchased` reads at
/// most.
const UNCHASED_GAP: u64 = 256;
/// After `sync`, up to this many known-but-uncached upcoming member offsets
/// per stream are bulk-fetched so steady-state `readnext` is a cache hit.
const PREFETCH_WINDOW: usize = 32;

/// Stream-layer instruments (`stream.*`), bound to the CORFU client's
/// registry at construction.
#[derive(Clone)]
struct StreamMetrics {
    sync_latency_ns: Histogram,
    read_batch_size: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    tracer: Tracer,
    events: Events,
}

impl StreamMetrics {
    fn from_registry(registry: &Registry) -> Self {
        Self {
            sync_latency_ns: registry.histogram("stream.sync_latency_ns"),
            read_batch_size: registry.histogram("stream.read_batch_size"),
            cache_hits: registry.counter("stream.cache_hits"),
            cache_misses: registry.counter("stream.cache_misses"),
            tracer: registry.tracer(),
            events: registry.events(),
        }
    }
}

/// The streaming interface over the shared log (§5).
///
/// Safe to share across threads. Cursor state and the entry cache are
/// locked independently, and neither lock is ever held across a network
/// read: a backpointer walk for one stream (which may block for up to the
/// hole-fill timeout) does not stall `readnext`/`peek` on other streams.
pub struct StreamClient {
    corfu: CorfuClient,
    /// Cursor table. `learn` asks the live cursor what is known (short
    /// lock, binary search) and integrates its discoveries under it.
    cursors: Mutex<IdMap<StreamId, StreamCursor>>,
    /// One gate per stream, held across that stream's `learn` and so taken
    /// through the clock.
    learning: Mutex<IdMap<StreamId, Arc<Mutex<()>>>>,
    /// Entry cache. Lookups and inserts bracket the (lock-free) network
    /// fetches.
    cache: Mutex<EntryCache>,
    /// Lowest possibly-live composite offset per log, raised by
    /// [`StreamClient::forget_below`] after checkpoint-driven trims.
    /// Backpointer walks and linear-scan fallbacks never descend below it:
    /// everything underneath is reclaimed and would read as `Trimmed`.
    trim_floor: Mutex<IdMap<u32, LogOffset>>,
    metrics: StreamMetrics,
}

impl StreamClient {
    /// Wraps a CORFU client. The stream layer records `stream.*` metrics
    /// into the CORFU client's registry.
    pub fn new(corfu: CorfuClient) -> Self {
        let metrics = StreamMetrics::from_registry(corfu.metrics());
        Self {
            corfu,
            cursors: Mutex::new(IdMap::default()),
            learning: Mutex::new(IdMap::default()),
            cache: Mutex::new(EntryCache::new(CACHE_CAPACITY)),
            trim_floor: Mutex::new(IdMap::default()),
            metrics,
        }
    }

    /// The underlying CORFU client.
    pub fn corfu(&self) -> &CorfuClient {
        &self.corfu
    }

    /// The metrics registry this client records into (shared with the
    /// underlying CORFU client).
    pub fn metrics(&self) -> &Registry {
        self.corfu.metrics()
    }

    /// Registers a stream for playback. Idempotent.
    pub fn open(&self, stream: StreamId) {
        self.with_cursor(stream, |_| ());
    }

    /// Appends `payload` to one or more streams atomically: the entry
    /// occupies a single position in the global total order (§4.1).
    /// A client does *not* need to play a stream to append to it.
    ///
    /// One that does play it learns the entry as a member here when that
    /// costs nothing — the entry's own header names the cursor's newest
    /// member as its predecessor, so nothing was missed in between. Without
    /// this a reader's own appends look unknown to its next sync, whose walk
    /// then has the storage nodes read them back. Where something was missed
    /// the sync finds out, as for any other writer's entry.
    pub fn multiappend(&self, streams: &[StreamId], payload: Bytes) -> corfu::Result<LogOffset> {
        let (offset, envelope) = self.corfu.append_streams(streams, payload)?;
        {
            let mut cursors = self.cursors.lock();
            for header in &envelope.headers {
                if let Some(cursor) = cursors.get_mut(&header.stream) {
                    let previous = header.backpointers.first().filter(|&&back| back != u64::MAX);
                    cursor.extend_by_own(previous.copied(), offset);
                }
            }
        }
        self.cache.lock().insert(offset, Entry::encode(&envelope, offset)?);
        Ok(offset)
    }

    /// [`StreamClient::multiappend`] that also leaves the membership of
    /// every stream in `observe` (the caller's played streams, written or
    /// not) complete below the returned offset — what a
    /// [`StreamClient::sync`] right after the append would guarantee, at no
    /// extra sequencer round trip. A written stream learns from the entry's
    /// own header (`[offset] ++ backpointers` is its last-K window as of
    /// the grant); an unwritten one from the window the token grant
    /// observed for it. Where the append has no such observation (cross-log
    /// appends, a stream homed in another log than the entry) those streams
    /// are synced the ordinary way.
    pub fn multiappend_observing(
        &self,
        streams: &[StreamId],
        observe: &[StreamId],
        payload: Bytes,
    ) -> corfu::Result<LogOffset> {
        let (written, unwritten): (Vec<StreamId>, Vec<StreamId>) =
            observe.iter().partition(|s| streams.contains(s));
        let (offset, envelope, observed) =
            self.corfu.append_streams_observing(streams, &unwritten, payload)?;
        self.cache.lock().insert(offset, Entry::encode(&envelope, offset)?);
        let tail = offset + 1;
        // Streams the append itself says nothing fresh about.
        let mut unsynced: Vec<StreamId> = Vec::new();
        for stream in written {
            match envelope.header_for(stream) {
                Some(header) => {
                    let mut window = Vec::with_capacity(header.backpointers.len() + 1);
                    window.push(offset);
                    window.extend_from_slice(&header.backpointers);
                    self.learn(stream, tail, &window)?;
                }
                // A cross-log append: this stream's part is in another log.
                None => unsynced.push(stream),
            }
        }
        match observed {
            Some(windows) => {
                for (&stream, window) in unwritten.iter().zip(&windows) {
                    self.learn(stream, tail, window)?;
                }
            }
            None => unsynced.extend_from_slice(&unwritten),
        }
        if !unsynced.is_empty() {
            self.sync(&unsynced)?;
        }
        Ok(offset)
    }

    /// Brings the membership lists of `streams` up to date in one sequencer
    /// round trip and returns the global tail. Call before `readnext` for
    /// linearizable semantics (the paper's explicit `sync`).
    ///
    /// After membership is integrated, the next `PREFETCH_WINDOW` upcoming
    /// member offsets of each stream are bulk-fetched into the cache, so
    /// steady-state `readnext` never goes to the network.
    pub fn sync(&self, streams: &[StreamId]) -> corfu::Result<LogOffset> {
        // Sampled root span: the sequencer round trip below records a
        // `seq.query` child under it when the sample hits.
        let _span = self.metrics.tracer.root(SpanKind::ClientSync);
        let timer = self.metrics.sync_latency_ns.start();
        let (tail, backs) = self.corfu.tail_info(streams)?;
        for (&stream, seq_backs) in streams.iter().zip(backs.iter()) {
            self.learn(stream, tail, seq_backs)?;
        }
        let mut upcoming: Vec<LogOffset> = Vec::new();
        {
            let cursors = self.cursors.lock();
            for &stream in streams {
                if let Some(c) = cursors.get(&stream) {
                    upcoming.extend_from_slice(c.upcoming(PREFETCH_WINDOW));
                }
            }
        }
        upcoming.sort_unstable();
        upcoming.dedup();
        // Readahead must not stall on (or junk-fill) an in-flight writer,
        // so it reads without wait semantics; a hole left by a slow writer
        // is simply not cached and readnext waits it out.
        self.fetch_many(&upcoming, false, None)?;
        timer.stop();
        Ok(tail)
    }

    /// Returns the next entry of `stream`, or `None` when the cursor has
    /// delivered everything discovered by the last `sync`. Junk entries
    /// (patched holes) are skipped transparently.
    pub fn readnext(&self, stream: StreamId) -> corfu::Result<Option<(LogOffset, Entry)>> {
        loop {
            let offset = {
                let cursors = self.cursors.lock();
                let cursor = cursors
                    .get(&stream)
                    .ok_or_else(|| CorfuError::Layout(format!("stream {stream} not open")))?;
                match cursor.peek() {
                    Some(off) => off,
                    None => return Ok(None),
                }
            };
            // Fetch outside the lock: wait_read may block on a hole.
            match self.fetch(offset)? {
                Some(entry) => {
                    let mut cursors = self.cursors.lock();
                    let cursor = cursors.get_mut(&stream).expect("checked above");
                    // Re-check: another thread may have advanced past us.
                    if cursor.peek() == Some(offset) {
                        cursor.advance();
                        if entry.belongs_to(stream) {
                            return Ok(Some((offset, entry)));
                        }
                        // Data entry that does not actually carry our
                        // header (can happen after a linear-scan fallback
                        // over-approximation): skip it.
                        continue;
                    }
                    continue;
                }
                None => {
                    // Junk or trimmed: remove from the membership list.
                    let mut cursors = self.cursors.lock();
                    let cursor = cursors.get_mut(&stream).expect("checked above");
                    if cursor.peek() == Some(offset) {
                        cursor.drop_current();
                    }
                    continue;
                }
            }
        }
    }

    /// The offset the next `readnext(stream)` would deliver, if known.
    pub fn peek(&self, stream: StreamId) -> Option<LogOffset> {
        self.cursors.lock().get(&stream).and_then(|c| c.peek())
    }

    /// Snapshot of the known member offsets of `stream` (ascending).
    pub fn known_offsets(&self, stream: StreamId) -> Vec<LogOffset> {
        self.cursors.lock().get(&stream).map(|c| c.offsets().to_vec()).unwrap_or_default()
    }

    /// The known member offsets of `stream` strictly above `offset`
    /// (ascending): a copy of that suffix only.
    pub fn known_above(&self, stream: StreamId, offset: LogOffset) -> Vec<LogOffset> {
        self.cursors.lock().get(&stream).map(|c| c.above(offset).to_vec()).unwrap_or_default()
    }

    /// The known member offsets of `stream` strictly below `offset`
    /// (ascending): a copy of that prefix only.
    pub fn known_below(&self, stream: StreamId, offset: LogOffset) -> Vec<LogOffset> {
        self.cursors.lock().get(&stream).map(|c| c.below(offset).to_vec()).unwrap_or_default()
    }

    /// Refills `run` with what a merged playback of `streams` delivers next
    /// below `below` — at most `limit` offsets, merged under one cursor-lock
    /// acquisition — and bulk-fetches their entries (cache-through, waiting
    /// out holes). No cursor moves: the caller applies the run and then
    /// calls [`StreamClient::advance_past`]. An empty run means `streams`
    /// deliver nothing below `below`.
    pub fn next_run<'a>(
        &self,
        streams: impl IntoIterator<Item = &'a StreamId>,
        below: LogOffset,
        limit: usize,
        run: &mut Run,
    ) -> corfu::Result<()> {
        {
            let cursors = self.cursors.lock();
            run.merge(streams.into_iter().filter_map(|s| cursors.get(s)), below, limit);
        }
        self.fetch_many_into(&run.offsets, true, None, &mut run.entries)
    }

    /// Moves the iterator of each of `streams` past its deliveries among
    /// `run`'s first `applied` offsets — under one cursor-lock acquisition,
    /// and past nothing else: what a cursor learnt since the run was merged
    /// is still to deliver, wherever it sorts.
    pub fn advance_past<'a>(
        &self,
        streams: impl IntoIterator<Item = &'a StreamId>,
        run: &Run,
        applied: usize,
    ) {
        let delivered = run.delivered(applied);
        let mut cursors = self.cursors.lock();
        for stream in streams {
            let last = delivered.iter().rev().find(|(_, of)| of == stream);
            if let (Some(&(last, _)), Some(c)) = (last, cursors.get_mut(stream)) {
                c.advance_through(last);
            }
        }
    }

    /// The global tail through which `stream`'s membership is known.
    pub fn synced_tail(&self, stream: StreamId) -> LogOffset {
        self.cursors.lock().get(&stream).map(|c| c.synced_tail()).unwrap_or(0)
    }

    /// Repositions `stream`'s iterator so the next delivered entry has
    /// offset `>= offset` (supports checkpoint restore and history
    /// rollback).
    pub fn seek(&self, stream: StreamId, offset: LogOffset) {
        if let Some(c) = self.cursors.lock().get_mut(&stream) {
            c.seek(offset);
        }
    }

    /// Reads the entry at `offset` (cache-through). Returns `None` for junk
    /// or trimmed offsets; waits out and finally fills holes.
    pub fn read_at(&self, offset: LogOffset) -> corfu::Result<Option<Entry>> {
        self.fetch(offset)
    }

    /// Bulk cache-through read: like [`StreamClient::read_at`] for every
    /// offset, but misses travel in `ReadBatch` round trips. Results come
    /// back in input order.
    pub fn read_many_at(&self, offsets: &[LogOffset]) -> corfu::Result<Vec<Option<Entry>>> {
        self.fetch_many(offsets, true, None)
    }

    /// Bulk-fetches `offsets` into the entry cache, so that reading them one
    /// by one afterwards is a cache hit each.
    pub fn fetch_into_cache(&self, offsets: &[LogOffset]) -> corfu::Result<()> {
        self.fetch_many(offsets, true, None).map(|_| ())
    }

    /// Forgets stream membership and cached entries below `horizon`
    /// (called after a checkpoint makes the prefix collectable), and
    /// raises the horizon's log's trim floor so later backpointer walks
    /// and scan fallbacks stop there instead of reading reclaimed slots.
    pub fn forget_below(&self, stream: StreamId, horizon: LogOffset) {
        if let Some(c) = self.cursors.lock().get_mut(&stream) {
            c.forget_below(horizon);
        }
        self.cache.lock().evict_below(horizon);
        let mut floors = self.trim_floor.lock();
        let slot = floors.entry(log_of_offset(horizon)).or_insert(horizon);
        *slot = (*slot).max(horizon);
    }

    /// The lowest composite offset of `log` that may still hold live data
    /// (`compose(log, 0)` until a trim is observed). Walks clamp here.
    pub fn trim_floor(&self, log: u32) -> LogOffset {
        self.trim_floor.lock().get(&log).copied().unwrap_or_else(|| compose(log, 0))
    }

    /// Cache (hits, misses), read from the same `stream.cache_hits` /
    /// `stream.cache_misses` counters the metrics snapshot reports.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.metrics.cache_hits.get(), self.metrics.cache_misses.get())
    }

    /// The one cache-through fetch path (single-offset form). Waits out
    /// holes; `None` means junk or trimmed.
    fn fetch(&self, offset: LogOffset) -> corfu::Result<Option<Entry>> {
        if let Some(hit) = self.cache.lock().get(offset) {
            self.metrics.cache_hits.inc();
            return Ok(Some(hit));
        }
        Ok(self.fetch_many(&[offset], true, None)?.pop().expect("one result per offset"))
    }

    /// Bulk cache-through fetch. Cached offsets are answered from the
    /// cache under one short lock; misses go out in `READ_BATCH`-sized
    /// `read_many` round trips. With `wait`, unwritten offsets get
    /// `wait_read` semantics (poll, then junk-fill — never `Unwritten`);
    /// without it (readahead) they come back `None` and are *not* cached,
    /// so a prefetch racing an in-flight writer neither stalls nor
    /// junk-fills it.
    ///
    /// `walking` is the stream whose backward walk the (waiting) fetch is a
    /// stride of, if it is one. The storage nodes then fill each round trip
    /// up to [`corfu::MAX_READ_BATCH`] entries (and [`corfu::CHASE_REPLY_BYTES`])
    /// by following that stream's backpointers themselves, and what they
    /// find is cached as readahead is — it is the walk's next strides. The
    /// walk learns nothing from it: it asks for every offset in turn, and
    /// finds most of them here.
    ///
    /// What a reply brings is admitted outside the cache lock and cached
    /// under one acquisition after it, through a buffer the cache lends —
    /// before the next round trip, which may wait out a hole, so a thread
    /// sharing this client finds it there.
    fn fetch_many(
        &self,
        offsets: &[LogOffset],
        wait: bool,
        walking: Option<StreamId>,
    ) -> corfu::Result<Vec<Option<Entry>>> {
        let mut out = Vec::new();
        self.fetch_many_into(offsets, wait, walking, &mut out)?;
        Ok(out)
    }

    /// [`StreamClient::fetch_many`] into a buffer the caller keeps.
    fn fetch_many_into(
        &self,
        offsets: &[LogOffset],
        wait: bool,
        walking: Option<StreamId>,
        out: &mut Vec<Option<Entry>>,
    ) -> corfu::Result<()> {
        out.clear();
        if offsets.is_empty() {
            return Ok(());
        }
        out.resize(offsets.len(), None);
        let mut misses: Vec<(usize, LogOffset)> = Vec::new();
        let mut admitted = {
            let mut cache = self.cache.lock();
            for (idx, &off) in offsets.iter().enumerate() {
                match cache.get(off) {
                    Some(hit) => out[idx] = Some(hit),
                    None => misses.push((idx, off)),
                }
            }
            if misses.is_empty() {
                Vec::new()
            } else {
                cache.lend_buffer()
            }
        };
        self.metrics.cache_hits.add((offsets.len() - misses.len()) as u64);
        self.metrics.cache_misses.add(misses.len() as u64);
        if misses.is_empty() {
            return Ok(());
        }
        let floor = |log| match walking {
            Some(stream) => self.unwalked_floor(stream, compose(log, LOG_OFFSET_MASK)),
            None => 0,
        };
        let chase =
            walking.map(|stream| Chase { stream, floor: &floor, limit: corfu::MAX_READ_BATCH });
        let rounds = misses.len().div_ceil(READ_BATCH);
        for (round, chunk) in misses.chunks(READ_BATCH).enumerate() {
            let addrs: Vec<LogOffset> = chunk.iter().map(|&(_, off)| off).collect();
            let mut pages = 0;
            // Each entry stays in the reply it arrived in.
            let fetched = self.corfu.visit_many(
                &addrs,
                wait,
                chase.as_ref(),
                &mut |asked, off, page, reply| {
                    pages += 1;
                    match asked {
                        Some(i) => {
                            let entry = self.admit(off, page, reply, wait, &mut admitted)?;
                            if let Some(entry) = &entry {
                                admitted.push((off, entry.clone()));
                            }
                            out[chunk[i].0] = entry;
                        }
                        // Nobody asked for this entry yet, so nobody is told
                        // what is wrong with it: it stays uncached and the walk,
                        // when it gets there, reads it for itself.
                        None => {
                            if let Ok(Some(entry)) =
                                self.admit(off, page, reply, false, &mut admitted)
                            {
                                admitted.push((off, entry));
                            }
                        }
                    }
                    Ok(())
                },
            );
            let mut cache = self.cache.lock();
            cache.insert_lent(&mut admitted);
            if fetched.is_err() || round + 1 == rounds {
                cache.give_back(std::mem::take(&mut admitted));
            }
            drop(cache);
            fetched?;
            self.metrics.read_batch_size.record(pages);
        }
        Ok(())
    }

    /// The lowest offset that a backward walk of `stream`, arrived at `from`,
    /// can still need of `from`'s log: past the newest member below `from`
    /// that the cursor knows there (a walk ends where it meets the cursor)
    /// and not below the log's trim floor — never into reclaimed slots.
    fn unwalked_floor(&self, stream: StreamId, from: LogOffset) -> LogOffset {
        let log = log_of_offset(from);
        self.with_cursor(stream, |c| c.below(from).last().copied())
            .filter(|&known| log_of_offset(known) == log)
            .map_or(0, |known| known + 1)
            .max(self.trim_floor(log))
    }

    /// What the log's answer for a missed `offset` means to a reader: the
    /// entry — the page, checked, where it lies in `reply` — for data (a
    /// cross-log body only once its anchor says it committed, the anchor
    /// then pushed to `admitted`), and `None` for junk, trimmed or (without
    /// `wait`) a slot still unwritten. The caller caches what comes back.
    /// No lock is held across the check or the anchor read.
    fn admit(
        &self,
        offset: LogOffset,
        page: PageRef<'_>,
        reply: &Bytes,
        wait: bool,
        admitted: &mut Vec<(LogOffset, Entry)>,
    ) -> corfu::Result<Option<Entry>> {
        match page {
            PageRef::Data(bytes) => {
                let entry = Entry::in_reply(reply, bytes, offset)?;
                if entry.link().is_none_or(|l| l.home == offset) {
                    Ok(Some(entry))
                } else {
                    self.resolve_link(entry, wait, admitted)
                }
            }
            PageRef::Junk | PageRef::Trimmed => Ok(None),
            PageRef::Unwritten if !wait => Ok(None),
            PageRef::Unwritten => Err(CorfuError::Unwritten { offset }),
        }
    }

    /// Resolves a cross-log append body against its anchor (§"Sharded
    /// log"). The body `entry` carries a link whose `home` is in
    /// another log: the append committed iff the home slot holds a data
    /// entry carrying the *same* link (the anchor is written last, so its
    /// write-once success is the atomic commit point). A junk-filled or
    /// foreign home means the append's token was lost after this body
    /// landed: the body is permanently dead and reads as absent, exactly
    /// like junk.
    ///
    /// A committed body is returned and its anchor pushed to `admitted`,
    /// both to be cached; an undecided body (`wait == false` and the home
    /// still unwritten) is not, so a later read re-resolves it.
    fn resolve_link(
        &self,
        entry: Entry,
        wait: bool,
        admitted: &mut Vec<(LogOffset, Entry)>,
    ) -> corfu::Result<Option<Entry>> {
        let link = entry.link().expect("caller checked the link");
        let outcome =
            if wait { self.corfu.wait_read(link.home)? } else { self.corfu.read(link.home)? };
        match outcome {
            ReadOutcome::Data(bytes) => {
                let home = Entry::new(bytes, link.home)?;
                if home.link() == Some(link) {
                    admitted.push((link.home, home));
                    Ok(Some(entry))
                } else {
                    // The home slot went to someone else: this body's
                    // append aborted.
                    Ok(None)
                }
            }
            // Junk home: the appender's home token was lost and the slot
            // was patched — aborted. Trimmed home: the decision is gone,
            // which can only happen after the whole append's prefix was
            // checkpointed; the body is below any live read.
            ReadOutcome::Junk | ReadOutcome::Trimmed => Ok(None),
            ReadOutcome::Unwritten => Ok(None),
        }
    }

    /// Integrates the sequencer's last-K issued offsets for `stream` into
    /// its cursor, striding backward through entry headers until the chain
    /// reconnects with known state. Falls back to a backward linear scan
    /// when junk breaks the backpointer chain.
    ///
    /// Reconnection is a *membership* check, not a numeric floor: once a
    /// stream has been remapped between logs, composite offsets no longer
    /// sort in stream order (a stream returning to a lower-numbered log
    /// gets numerically smaller offsets for newer entries). A known
    /// offset's older chain was walked when it was first learned, so
    /// touching any known offset ends the walk — regardless of where the
    /// offsets sort.
    ///
    /// Each stride fetches its whole backpointer window in one bulk read
    /// (the window's entries are due for playback anyway, so the batch
    /// doubles as a cache warmer) — a read the storage nodes extend along
    /// the stream's backpointers to `MAX_READ_BATCH` entries, so that most
    /// strides find their window cached (see `fetch_many`). No cursor
    /// lock is held across any of the network reads. Nor is the known set
    /// copied: "is this offset known?" goes to the live cursor. That is
    /// sound against a concurrent `learn` of the same stream because a
    /// walk's discoveries are integrated in one `extend` — whatever the
    /// cursor knows, it knows together with its whole older chain — so the
    /// cost of a sync is O(discovered · log n), with nothing proportional to
    /// the stream. The stream's learn gate is held across the walk all the
    /// same, so that of threads syncing one stream at once, all but the first
    /// find what they would have walked already known.
    fn learn(
        &self,
        stream: StreamId,
        tail: LogOffset,
        seq_backs: &[LogOffset],
    ) -> corfu::Result<()> {
        let gate = Arc::clone(self.learning.lock().entry(stream).or_default());
        let _learning = self.corfu.clock().lock(&gate);
        let (mut discovered, reconnected_at_seq, newest_known) = self.with_cursor(stream, |c| {
            let (unknown, any_known) = split_known(c, seq_backs.iter().copied());
            (unknown, any_known, c.max_known())
        });
        // Offsets below a log's trim floor are reclaimed — a stale
        // sequencer backpointer landing there must not seed a walk into
        // trimmed territory. The floors are read once for the whole walk,
        // and not at all by a sync that discovers nothing.
        let floors = match discovered.is_empty() {
            true => IdMap::default(),
            false => self.trim_floor.lock().clone(),
        };
        let above_floor =
            |off: &LogOffset| floors.get(&log_of_offset(*off)).is_none_or(|floor| off >= floor);
        discovered.retain(above_floor);
        // The playback side of a remap: fresh discoveries landing in a
        // different log than anything the cursor knew means this stream's
        // home moved (or its entries span logs). Journalled so a cluster
        // timeline shows readers reacting to the remap, not just the
        // coordinator performing it.
        if let (Some(&newest), Some(prev)) = (discovered.first(), newest_known) {
            if log_of_offset(newest) != log_of_offset(prev) {
                self.metrics.events.emit(
                    tango_metrics::EventKind::ShardRemapped,
                    self.corfu.epoch(),
                    log_of_offset(newest) as u64,
                    stream as u64,
                );
            }
        }
        if !discovered.is_empty() && !reconnected_at_seq {
            // Windows are most-recent-first in *stream order*, so each
            // stride anchors on the window's last element — its
            // stream-oldest entry. The anchor set guards termination (a
            // monotonically decreasing offset cannot, across a remap).
            let mut window: Vec<LogOffset> = discovered.clone();
            let mut anchors: IdSet<LogOffset> = IdSet::default();
            self.prefetch_unchased(stream, &window)?;
            loop {
                let oldest = *window.last().expect("window is non-empty");
                if !anchors.insert(oldest) {
                    // Defensive: never re-stride an anchor.
                    break;
                }
                // NOTE: the bulk fetch may block while writers finish.
                let fetched = self.fetch_many(&window, true, Some(stream))?;
                let oldest_entry = fetched.last().expect("one result per offset").as_ref();
                // Junk broke the chain — and a member entry written without
                // its header cannot happen with our client, but be
                // defensive: linear backward scan (§5), batched, over the
                // anchor's own log segment.
                let Some(header) = oldest_entry.and_then(|entry| entry.header_for(stream)) else {
                    let lo = self.unwalked_floor(stream, oldest);
                    self.scan_backward(stream, lo, oldest, &mut discovered)?;
                    break;
                };
                let (mut older, reconnected) =
                    self.with_cursor(stream, |c| split_known(c, header.backpointers()));
                older.retain(above_floor);
                let at_stream_start = header.backpointers().all(|o| o == u64::MAX);
                discovered.extend(older.iter().copied());
                if at_stream_start || reconnected || older.is_empty() {
                    break;
                }
                window = older;
            }
        }
        // A concurrent sync of the same stream may have integrated part of
        // the walk already; `extend` sorts and drops duplicates.
        self.with_cursor(stream, |c| c.extend(discovered, tail));
        Ok(())
    }

    /// Caches the log between the newest member the cursor knows and
    /// `window`, a walk's first stride (not empty), when reading it takes
    /// fewer round trips than walking it: a walk learns a window's span of
    /// the log a round trip, a read `READ_BATCH` offsets, and the storage
    /// nodes cannot chase a walk whose window has fewer entries than the log
    /// has replica sets (a node follows backpointers only to its own pages).
    /// A reader knowing no member cannot tell a long stream from a young
    /// one, and walks. The read is readahead — it neither waits for nor
    /// junk-fills an in-flight writer of any stream — and membership still
    /// comes from backpointers alone: the strides find their windows cached.
    fn prefetch_unchased(&self, stream: StreamId, window: &[LogOffset]) -> corfu::Result<()> {
        let (newest, oldest) = (window[0], window[window.len() - 1]);
        let log = log_of_offset(oldest);
        let sets =
            self.corfu.projection().logs.get(log as usize).map_or(0, |l| l.replica_sets.len());
        let dense = log_of_offset(newest) == log && newest - oldest < READ_BATCH as u64;
        let known = self.with_cursor(stream, |c| c.below(oldest).last().copied());
        let Some(known) =
            known.filter(|&k| log_of_offset(k) == log && dense && sets > window.len())
        else {
            return Ok(());
        };
        let lo = (known + 1).max(self.trim_floor(log)).max(oldest.saturating_sub(UNCHASED_GAP));
        let gap: Vec<LogOffset> = (lo..oldest).collect();
        self.fetch_many(&gap, false, None).map(drop)
    }

    /// Runs `f` on `stream`'s cursor (created if absent) under the cursor
    /// lock. `f` must not block.
    fn with_cursor<R>(&self, stream: StreamId, f: impl FnOnce(&mut StreamCursor) -> R) -> R {
        let mut cursors = self.cursors.lock();
        f(cursors.entry(stream).or_insert_with(|| StreamCursor::new(stream)))
    }

    /// Batched linear backward scan of `(lo..hi)`, pushing the offsets
    /// whose entries carry `stream`'s header.
    fn scan_backward(
        &self,
        stream: StreamId,
        lo: LogOffset,
        hi: LogOffset,
        discovered: &mut Vec<LogOffset>,
    ) -> corfu::Result<()> {
        let step = READ_BATCH as u64;
        let mut end = hi;
        while end > lo {
            let start = end.saturating_sub(step).max(lo);
            let range: Vec<LogOffset> = (start..end).collect();
            let fetched = self.fetch_many(&range, true, None)?;
            for (&off, entry) in range.iter().zip(fetched.iter()) {
                if entry.as_ref().map(|e| e.belongs_to(stream)).unwrap_or(false) {
                    discovered.push(off);
                }
            }
            end = start;
        }
        Ok(())
    }
}

/// Splits a backpointer window (sentinels dropped) against what `cursor`
/// knows: the offsets it does not know, in window order, and whether it
/// knew any — the walk's reconnection test.
fn split_known(
    cursor: &StreamCursor,
    window: impl Iterator<Item = LogOffset>,
) -> (Vec<LogOffset>, bool) {
    let mut any_known = false;
    let unknown = window
        .filter(|&o| o != u64::MAX)
        .filter(|&o| {
            let known = cursor.contains(o);
            any_known |= known;
            !known
        })
        .collect();
    (unknown, any_known)
}
