//! The storage server: an epoch gate in front of a [`FlashUnit`].

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use tango_flash::{FlashError, FlashMetrics, FlashUnit, Page, Readahead, ScrubReport, TierStats};
use tango_metrics::{EventKind, Registry, Span, SpanKind};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec, Writer};

use crate::entry::deltas_of;
use crate::metrics::StorageMetrics;
use crate::proto::{
    put_page, PageCopy, StorageRequest, StorageResponse, WriteKind, WriteRef, CHASED,
};
use crate::{Epoch, StreamId};

/// Upper bound on addresses scanned per [`StorageRequest::CopyRange`] round
/// trip, regardless of what the requester asks for. Bounds both response
/// size and the time the node's lock is held.
pub const MAX_COPY_RANGE: u32 = 1024;

/// Upper bound on pages served per [`StorageRequest::ReadBatch`] or
/// [`StorageRequest::ReadChase`]. Oversized batches are rejected outright
/// (the client chunks), bounding response size and the time the node's lock
/// is held.
pub const MAX_READ_BATCH: usize = 1024;

/// Data bytes a [`StorageRequest::ReadChase`] reply may come to hold before
/// the node stops following backpointers: 32 full 4 KiB pages. The bound a
/// reader states is in pages (`limit`); this one keeps a stream of large
/// entries from turning a generous page limit into a megabyte reply. The
/// walk stops where one full page more could pass it, so a reply it cuts
/// short holds the chain's highest pages.
pub const CHASE_REPLY_BYTES: usize = 128 * 1024;

/// A CORFU storage node: a write-once flash unit behind an RPC interface,
/// with epoch-based sealing (§5 failure handling).
///
/// Requests stamped with an epoch older than the node's current epoch are
/// rejected with `ErrSealed`, which forces clients racing a reconfiguration
/// to fetch the new projection. Requests stamped with a *newer* epoch are
/// also rejected: the node only advances its epoch through an explicit
/// `Seal`, which is how reconfiguration fences in-flight operations.
pub struct StorageServer {
    inner: Mutex<Inner>,
    metrics: StorageMetrics,
    /// The log (shard) this node serves, for flight-recorder events.
    log: u64,
}

struct Inner {
    unit: FlashUnit,
    /// Tier/wear values already folded into the monotone metrics counters;
    /// publication adds only the delta since the last publish.
    published: PublishedBaseline,
}

#[derive(Default)]
struct PublishedBaseline {
    random_trims: u64,
    prefix_trimmed_pages: u64,
    migrations: u64,
    migrated_pages: u64,
    reclaimed_pages: u64,
    reclaimed_segments: u64,
}

/// What one compaction pass accomplished (see
/// [`StorageServer::compact_once`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// The prefix-trim horizon after the pass.
    pub trim_horizon: u64,
    /// Pages migrated hot → cold by this pass.
    pub migrated_pages: u64,
    /// Whole segments reclaimed by this pass.
    pub reclaimed_segments: u64,
    /// Live (untrimmed) pages occupying the unit after the pass.
    pub occupancy: u64,
    /// The CRC scrub outcome, when the pass scrubbed and the scrub ran.
    pub scrub: Option<ScrubReport>,
    /// The first storage error a step of the pass hit. The steps after it
    /// still ran; the pass also counts into `corfu.storage.scrub_errors`,
    /// the column `tangoctl storage` shows.
    pub error: Option<FlashError>,
}

impl StorageServer {
    /// Wraps a flash unit. The node's epoch is the unit's persisted one.
    pub fn new(unit: FlashUnit) -> Self {
        Self {
            inner: Mutex::new(Inner { unit, published: PublishedBaseline::default() }),
            metrics: StorageMetrics::default(),
            log: 0,
        }
    }

    /// Records `corfu.storage.*` and `flash.*` metrics into `registry`
    /// (off by default). Counts from every node bound to the same registry
    /// aggregate.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = StorageMetrics::from_registry(registry);
        self.inner.get_mut().unit.set_metrics(FlashMetrics::from_registry(registry));
        self
    }

    /// Like [`StorageServer::with_metrics`], but scopes the trim/occupancy
    /// family and flight-recorder events to `log` — for sharded
    /// deployments where one node serves one log of the stripe.
    pub fn with_metrics_for_log(mut self, registry: &Registry, log: u64) -> Self {
        self.metrics = StorageMetrics::for_log(registry, log);
        self.inner.get_mut().unit.set_metrics(FlashMetrics::from_registry(registry));
        self.log = log;
        self
    }

    /// Creates an in-memory node with the given page size, for tests and the
    /// in-process cluster.
    pub fn in_memory(page_size: usize) -> Self {
        Self::new(FlashUnit::in_memory(page_size))
    }

    /// The node's current epoch.
    pub fn epoch(&self) -> Epoch {
        self.inner.lock().unit.epoch()
    }

    /// Wear statistics from the underlying unit.
    pub fn stats(&self) -> tango_flash::WearStats {
        self.inner.lock().unit.stats()
    }

    /// Hot/cold occupancy and migration accounting from the underlying
    /// unit.
    pub fn tier_stats(&self) -> TierStats {
        self.inner.lock().unit.tier_stats()
    }

    /// Live (untrimmed) pages currently occupying the unit.
    pub fn occupancy(&self) -> u64 {
        self.inner.lock().unit.live_pages()
    }

    /// The unit's prefix-trim horizon.
    pub fn trim_horizon(&self) -> u64 {
        self.inner.lock().unit.prefix_trim()
    }

    /// One compaction pass, the unit of work the background
    /// [`crate::compactor::Compactor`] repeats: convert accumulated
    /// contiguous trim marks into a sequential prefix trim, migrate hot
    /// pages past the tier's capacity into cold segments, optionally
    /// verify cold-tier CRCs, and publish occupancy/tiering metrics and
    /// flight-recorder events.
    ///
    /// Each step runs under the unit lock (requests queue behind it, which
    /// the `flash.queue_wait_ns` histogram makes visible), but the pass is
    /// deliberately incremental so the lock is never held across the whole
    /// device.
    pub fn compact_once(&self, scrub: bool) -> CompactionReport {
        let mut inner = self.inner.lock();
        // A step that fails does not stop the ones after it; the first
        // error is the one reported.
        let mut error = None;
        let mut failed = |e: FlashError| {
            error.get_or_insert(e);
        };
        let _ = inner.unit.advance_trim_horizon().map_err(&mut failed);
        let migrated = inner.unit.migrate_cold().map_err(&mut failed).unwrap_or(0);
        let scrub_report = scrub.then(|| inner.unit.scrub().map_err(&mut failed).ok()).flatten();
        if let Some(report) = &scrub_report {
            self.metrics.scrubbed_pages.add(report.pages_checked);
            self.metrics.scrub_errors.add(report.errors);
        }
        self.metrics.scrub_errors.add(error.is_some() as u64);
        let reclaimed_segments = self.publish(&mut inner);
        CompactionReport {
            trim_horizon: inner.unit.prefix_trim(),
            migrated_pages: migrated,
            reclaimed_segments,
            occupancy: inner.unit.live_pages(),
            scrub: scrub_report,
            error,
        }
    }

    /// Folds the unit's monotone wear/tier counters into the metrics
    /// registry (delta since the last publish), refreshes the occupancy
    /// gauges, and emits flight-recorder events for reclamation and
    /// migration. Returns the segments reclaimed since the last publish.
    fn publish(&self, inner: &mut Inner) -> u64 {
        let wear = inner.unit.stats();
        let tier = inner.unit.tier_stats();
        let base = &mut inner.published;

        self.metrics.random_trims.add(wear.random_trims - base.random_trims);
        self.metrics
            .prefix_trimmed_pages
            .add(wear.prefix_trimmed_pages - base.prefix_trimmed_pages);
        self.metrics.migrations.add(tier.migrations - base.migrations);
        self.metrics.migrated_pages.add(tier.migrated_pages - base.migrated_pages);
        self.metrics.reclaimed_pages.add(tier.reclaimed_pages - base.reclaimed_pages);
        let reclaimed_segments = tier.reclaimed_segments - base.reclaimed_segments;

        if tier.migrated_pages > base.migrated_pages {
            self.metrics.events.emit(
                EventKind::ColdMigration,
                inner.unit.epoch(),
                self.log,
                tier.migrated_pages - base.migrated_pages,
            );
        }
        if reclaimed_segments > 0 {
            self.metrics.events.emit(
                EventKind::SegmentReclaimed,
                inner.unit.epoch(),
                self.log,
                reclaimed_segments,
            );
        }

        base.random_trims = wear.random_trims;
        base.prefix_trimmed_pages = wear.prefix_trimmed_pages;
        base.migrations = tier.migrations;
        base.migrated_pages = tier.migrated_pages;
        base.reclaimed_pages = tier.reclaimed_pages;
        base.reclaimed_segments = tier.reclaimed_segments;

        self.metrics.occupancy.set(inner.unit.live_pages() as i64);
        self.metrics.trim_horizon.set(inner.unit.prefix_trim() as i64);
        self.metrics.hot_pages.set(tier.hot_pages as i64);
        self.metrics.cold_pages.set(tier.cold_pages as i64);
        reclaimed_segments
    }

    /// What every request does before it is served: waits for the unit's
    /// lock and opens its span.
    fn enter(&self, span_kind: SpanKind) -> (MutexGuard<'_, Inner>, Span) {
        // Queue wait is the time spent behind other requests for the
        // unit's lock; everything after the lock is service time, which
        // the flash.* histograms measure per device op.
        let wait = self.metrics.queue_wait_ns.start_sampled(&self.metrics.sampler);
        let inner = self.inner.lock();
        wait.stop();
        // Records only when the request arrived with a trace context.
        (inner, self.metrics.tracer.child(span_kind))
    }

    /// Serves a write under the unit's lock. The payload is only borrowed —
    /// from an owned request or straight from the request bytes — and the
    /// unit makes the one copy.
    fn write(&self, inner: &mut Inner, write: WriteRef<'_>) -> StorageResponse {
        if let Err(resp) = inner.check_epoch(write.epoch) {
            return resp;
        }
        let result = match write.kind {
            WriteKind::Data => {
                inner.unit.write(write.addr, write.payload).map(|()| self.metrics.writes.inc())
            }
            WriteKind::Junk => inner.unit.fill(write.addr),
        };
        match result {
            Ok(()) => StorageResponse::Ok,
            Err(e) => Inner::flash_error(e),
        }
    }

    /// Serves the requested pages of a bulk read under the unit's lock: the
    /// whole batch in one lock acquisition, one outcome per address in
    /// request order. `read_many` charges wear per page but times the batch
    /// once.
    fn read_batch(
        &self,
        inner: &mut Inner,
        epoch: Epoch,
        addrs: &[u64],
    ) -> Result<Vec<Page<Bytes>>, StorageResponse> {
        inner.check_epoch(epoch)?;
        check_batch(addrs)?;
        inner.unit.read_many(addrs).map_err(Inner::flash_error)
    }

    /// Serves a [`StorageRequest::ReadChase`] under the unit's lock and
    /// returns its encoded reply, which the walk writes as it reads.
    fn read_chase(&self, inner: &mut Inner, epoch: Epoch, addrs: &[u64], chase: Chase) -> Vec<u8> {
        let walked = inner
            .check_epoch(epoch)
            .and_then(|()| check_batch(addrs))
            .and_then(|()| chase.walk(&mut inner.unit, addrs).map_err(Inner::flash_error));
        match walked {
            Ok(reply) => {
                self.count_reads(reply.pages);
                reply.into_bytes()
            }
            Err(resp) => encode_to_vec(&resp),
        }
    }

    /// Counts one bulk read that returned `pages` pages.
    fn count_reads(&self, pages: usize) {
        self.metrics.reads.add(pages as u64);
        self.metrics.read_batch.record(pages as u64);
    }

    /// Processes a decoded request (also used directly by unit tests).
    pub fn process(&self, req: StorageRequest) -> StorageResponse {
        let (mut inner, _span) = self.enter(match req {
            StorageRequest::Write { .. } => SpanKind::StorageWrite,
            StorageRequest::Read { .. }
            | StorageRequest::ReadBatch { .. }
            | StorageRequest::ReadChase { .. } => SpanKind::StorageRead,
            _ => SpanKind::StorageCtl,
        });
        match req {
            StorageRequest::Write { epoch, addr, kind, payload } => {
                self.write(&mut inner, WriteRef { epoch, addr, kind, payload: &payload })
            }
            StorageRequest::Read { epoch, addr } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                self.metrics.reads.inc();
                inner.unit.read(addr).map_or_else(Inner::flash_error, StorageResponse::Page)
            }
            StorageRequest::ReadBatch { epoch, addrs } => {
                match self.read_batch(&mut inner, epoch, &addrs) {
                    Ok(outcomes) => {
                        self.count_reads(outcomes.len());
                        StorageResponse::BatchOutcomes(outcomes)
                    }
                    Err(resp) => resp,
                }
            }
            StorageRequest::ReadChase { epoch, addrs, stream, stripe, floor, limit } => {
                let chase = Chase::new(stream, stripe, floor, limit);
                let reply = self.read_chase(&mut inner, epoch, &addrs, chase);
                decode_from_slice(&reply).expect("a reply the node wrote decodes")
            }
            StorageRequest::Trim { epoch, addr } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                match inner.unit.trim(addr) {
                    Ok(()) => {
                        self.publish(&mut inner);
                        StorageResponse::Ok
                    }
                    Err(e) => Inner::flash_error(e),
                }
            }
            StorageRequest::TrimPrefix { epoch, horizon } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                match inner.unit.trim_prefix(horizon) {
                    Ok(()) => {
                        self.publish(&mut inner);
                        StorageResponse::Ok
                    }
                    Err(e) => Inner::flash_error(e),
                }
            }
            // The unit refuses an epoch at or below its own as `Sealed`.
            StorageRequest::Seal { epoch } => match inner.unit.seal(epoch) {
                Ok(tail) => StorageResponse::Tail(tail),
                Err(e) => Inner::flash_error(e),
            },
            StorageRequest::LocalTail { epoch } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                StorageResponse::Tail(inner.unit.local_tail())
            }
            StorageRequest::CopyRange { epoch, start, count } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                let local_tail = inner.unit.local_tail();
                let prefix_trim = inner.unit.prefix_trim();
                // Addresses below the horizon are implicitly trimmed; the
                // requester installs the horizon wholesale, so the scan
                // starts at the horizon at the earliest.
                let from = start.max(prefix_trim);
                let span = count.min(MAX_COPY_RANGE) as u64;
                let next = from.saturating_add(span).min(local_tail).max(from);
                let mut pages = Vec::new();
                for addr in from..next {
                    match inner.unit.read(addr) {
                        Ok(Page::Data(bytes)) => pages.push((addr, PageCopy::Data(bytes))),
                        Ok(Page::Junk) => pages.push((addr, PageCopy::Junk)),
                        Ok(Page::Trimmed) => pages.push((addr, PageCopy::Trimmed)),
                        Ok(Page::Unwritten) => {}
                        Err(e) => return Inner::flash_error(e),
                    }
                }
                StorageResponse::PageChunk { local_tail, prefix_trim, next, pages }
            }
        }
    }
}

/// A batch that is not too large to serve.
fn check_batch(addrs: &[u64]) -> Result<(), StorageResponse> {
    if addrs.len() > MAX_READ_BATCH {
        return Err(StorageResponse::ErrStorage(format!(
            "read batch of {} exceeds {MAX_READ_BATCH}",
            addrs.len()
        )));
    }
    Ok(())
}

/// Where a [`StorageRequest::ReadChase`] leads beyond the pages it names.
#[derive(Debug, Clone, Copy)]
struct Chase {
    stream: StreamId,
    stripe: u32,
    floor: u64,
    /// The request's limit, clamped to [`MAX_READ_BATCH`].
    limit: usize,
}

impl Chase {
    fn new(stream: StreamId, stripe: u32, floor: u64, limit: u32) -> Self {
        Self { stream, stripe, floor, limit: (limit as usize).min(MAX_READ_BATCH) }
    }

    /// Reads the pages of a chase and writes them into its reply. First
    /// `asked`, in request order: the first that fails to read fails the
    /// request, as in a `ReadBatch`. Then, until the reply holds `limit`
    /// pages or one page more could take its data past
    /// [`CHASE_REPLY_BYTES`], the pages that `stream`'s backpointers lead to
    /// on this unit, none below `floor`. Only a page that holds an entry of
    /// `stream` with a relative-format header leads anywhere; whatever else a
    /// page holds, it is a page read and nothing more.
    ///
    /// The walk reads the highest address the pages read so far lead to and
    /// it has not read, so each page it reads is below all those it has: it
    /// reads none twice, and a reply the limit cuts short holds the chain's
    /// highest pages. Each page goes from where the unit lends it — its slot,
    /// or the walk's readahead buffer — straight into the reply.
    fn walk(self, unit: &mut FlashUnit, asked: &[u64]) -> tango_flash::Result<ChaseReply> {
        let mut ahead = Readahead::down_to(self.floor);
        let mut reply = ChaseReply::new(asked.len(), self.most_pages(asked));
        // The addresses led to and not yet read, ascending: the walk pops
        // the highest, and the few each page leads to go in near the top.
        let mut pending = Vec::new();
        for &addr in asked {
            let page = unit.lend(addr, &mut ahead)?;
            reply.push(addr, page);
            self.follow(addr, page, &mut pending);
        }
        let Some(&top) = pending.last() else { return Ok(reply) };
        let pages = (top - self.floor + 1).min(self.limit.saturating_sub(reply.pages) as u64);
        reply.reserve_pages(pages as usize);
        // The asked addresses at or below the walk, ascending: a page asked
        // for is not read again as one led to.
        let mut skip = asked.to_vec();
        skip.sort_unstable();
        let page_size = unit.page_size().max(1);
        while reply.pages < self.limit && reply.data + page_size <= CHASE_REPLY_BYTES {
            let Some(addr) = pending.pop() else { break };
            while skip.pop_if(|&mut above| above > addr).is_some() {}
            if skip.last() == Some(&addr) {
                continue;
            }
            // A page nobody asked for that cannot be read is not this
            // request's to report: whoever asks for it will hear.
            if let Ok(page) = unit.lend(addr, &mut ahead) {
                reply.push(addr, page);
                self.follow(addr, page, &mut pending);
            }
        }
        Ok(reply)
    }

    /// Adds to `pending` the addresses `page`, read at `addr`, leads to.
    fn follow(&self, addr: u64, page: Page<&[u8]>, pending: &mut Vec<u64>) {
        let Page::Data(bytes) = page else { return };
        let led = deltas_of(bytes, self.stream)
            .filter_map(|delta| local_step(delta, self.stripe))
            .filter_map(|step| addr.checked_sub(step))
            .filter(|&to| to >= self.floor);
        for to in led {
            if let Err(at) = pending.binary_search(&to) {
                pending.insert(at, to);
            }
        }
    }

    /// The most pages a reply to `asked` can hold: the walk reads only
    /// addresses from `floor` up to below the highest asked one.
    fn most_pages(&self, asked: &[u64]) -> usize {
        let below = asked.iter().max().map_or(0, |&top| top.saturating_sub(self.floor));
        asked.len() + below.min(self.limit.saturating_sub(asked.len()) as u64) as usize
    }
}

/// A [`StorageResponse::Chased`] written as the walk reads: exactly the
/// bytes `encode_to_vec` makes of the same pages, each page's data copied
/// once, from where the unit lends it.
struct ChaseReply {
    w: Writer,
    /// Bytes kept behind the tag for the page count: as many as the most
    /// pages the request can come to take.
    width: usize,
    pages: usize,
    /// Data bytes of the pages written.
    data: usize,
}

/// What a page costs a reply besides its data, at most: its address, the
/// outcome's tag and the data's length.
const PAGE_FRAMING: usize = 8 + 1 + 3;

impl ChaseReply {
    /// A reply with room for the framing of the `asked` pages, counting up
    /// to `most` pages.
    fn new(asked: usize, most: usize) -> Self {
        let width = varint_len(most);
        let mut w = Writer::with_capacity(1 + width + asked * PAGE_FRAMING);
        w.put_u8(CHASED);
        w.put_zeros(width);
        Self { w, width, pages: 0, data: 0 }
    }

    /// Makes room for `pages` more pages the size of those written so far,
    /// and no more data than the cap lets the walk add.
    fn reserve_pages(&mut self, pages: usize) {
        let per_page = (self.w.len() - 1 - self.width) / self.pages.max(1);
        let cap = CHASE_REPLY_BYTES.saturating_sub(self.data) + pages * PAGE_FRAMING;
        self.w.reserve((pages * per_page).min(cap));
    }

    fn push(&mut self, addr: u64, page: Page<&[u8]>) {
        if let Page::Data(bytes) = page {
            self.data += bytes.len();
        }
        self.w.put_u64(addr);
        put_page(&mut self.w, page, 0);
        self.pages += 1;
    }

    /// The reply's bytes, its page count behind the tag. A count that
    /// takes fewer bytes than were kept for it moves the pages down.
    fn into_bytes(self) -> Vec<u8> {
        let mut bytes = self.w.into_vec();
        let width = varint_len(self.pages);
        assert!(width <= self.width, "{} pages in a reply counted for fewer", self.pages);
        if width < self.width {
            bytes.copy_within(1 + self.width.., 1 + width);
            bytes.truncate(bytes.len() - (self.width - width));
        }
        let mut count = self.pages;
        for byte in &mut bytes[1..1 + width] {
            *byte = (count & 0x7F) as u8 | if count > 0x7F { 0x80 } else { 0 };
            count >>= 7;
        }
        bytes
    }
}

/// The bytes a LEB128 varint of `n` takes.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// How many local addresses below its own an entry's backpointer `delta`
/// reaches on a node of a log striped over `stripe` replica sets — if it
/// stays on the node at all: neighbouring local addresses are `stripe` raw
/// offsets apart. A delta of 0 is "no previous entry".
fn local_step(delta: u16, stripe: u32) -> Option<u64> {
    let delta = delta as u32;
    (delta != 0 && delta.checked_rem(stripe)? == 0).then(|| (delta / stripe) as u64)
}

impl Inner {
    fn check_epoch(&self, epoch: Epoch) -> Result<(), StorageResponse> {
        if epoch != self.unit.epoch() {
            Err(StorageResponse::ErrSealed { epoch: self.unit.epoch() })
        } else {
            Ok(())
        }
    }

    fn flash_error(e: FlashError) -> StorageResponse {
        match e {
            FlashError::AlreadyWritten { .. } => StorageResponse::ErrAlreadyWritten,
            FlashError::Trimmed { .. } => StorageResponse::ErrTrimmed,
            FlashError::Sealed { current_epoch } => {
                StorageResponse::ErrSealed { epoch: current_epoch }
            }
            FlashError::PageTooLarge { page_size, .. } => {
                StorageResponse::ErrTooLarge { max: page_size as u64 }
            }
            FlashError::Io(msg) | FlashError::Corrupt(msg) => StorageResponse::ErrStorage(msg),
            e @ FlashError::OutOfRange { .. } => StorageResponse::ErrStorage(e.to_string()),
        }
    }
}

impl RpcHandler for StorageServer {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        // A write is served from the request bytes as they arrived; every
        // other request is small and decodes into an owned value. A chase
        // writes its reply itself, as it walks.
        let response = match WriteRef::peek(request) {
            Some(write) => write.map(|write| {
                let (mut inner, _span) = self.enter(SpanKind::StorageWrite);
                self.write(&mut inner, write)
            }),
            None => match decode_from_slice::<StorageRequest>(request) {
                Ok(StorageRequest::ReadChase { epoch, addrs, stream, stripe, floor, limit }) => {
                    let (mut inner, _span) = self.enter(SpanKind::StorageRead);
                    let chase = Chase::new(stream, stripe, floor, limit);
                    return self.read_chase(&mut inner, epoch, &addrs, chase);
                }
                req => req.map(|req| self.process(req)),
            },
        };
        let response =
            response.unwrap_or_else(|e| StorageResponse::ErrStorage(format!("bad request: {e}")));
        encode_to_vec(&response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntryEnvelope, StreamHeader};
    use bytes::Bytes;

    fn server() -> StorageServer {
        StorageServer::in_memory(4096)
    }

    #[test]
    fn write_read_roundtrip() {
        let s = server();
        let w = StorageRequest::Write {
            epoch: 0,
            addr: 3,
            kind: WriteKind::Data,
            payload: Bytes::from_static(b"entry"),
        };
        assert_eq!(s.process(w), StorageResponse::Ok);
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 0, addr: 3 }),
            StorageResponse::Page(Page::Data(Bytes::from_static(b"entry")))
        );
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 0, addr: 4 }),
            StorageResponse::Page(Page::Unwritten)
        );
    }

    #[test]
    fn epoch_gate() {
        let s = server();
        assert_eq!(s.process(StorageRequest::Seal { epoch: 2 }), StorageResponse::Tail(0));
        // Old epoch rejected.
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 0, addr: 0 }),
            StorageResponse::ErrSealed { epoch: 2 }
        );
        // Future epoch rejected too: only Seal advances the epoch.
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 5, addr: 0 }),
            StorageResponse::ErrSealed { epoch: 2 }
        );
        // Current epoch accepted.
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 2, addr: 0 }),
            StorageResponse::Page(Page::Unwritten)
        );
        // Re-sealing at the same epoch fails.
        assert_eq!(
            s.process(StorageRequest::Seal { epoch: 2 }),
            StorageResponse::ErrSealed { epoch: 2 }
        );
    }

    #[test]
    fn write_once_arbitration_via_rpc() {
        let s = server();
        let write = |payload: &'static [u8]| StorageRequest::Write {
            epoch: 0,
            addr: 0,
            kind: WriteKind::Data,
            payload: Bytes::from_static(payload),
        };
        assert_eq!(s.process(write(b"first")), StorageResponse::Ok);
        assert_eq!(s.process(write(b"second")), StorageResponse::ErrAlreadyWritten);
        let fill = StorageRequest::Write {
            epoch: 0,
            addr: 0,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        };
        assert_eq!(s.process(fill), StorageResponse::ErrAlreadyWritten);
    }

    #[test]
    fn seal_returns_local_tail() {
        let s = server();
        for addr in 0..5 {
            let w = StorageRequest::Write {
                epoch: 0,
                addr,
                kind: WriteKind::Data,
                payload: Bytes::from_static(b"x"),
            };
            assert_eq!(s.process(w), StorageResponse::Ok);
        }
        assert_eq!(s.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(5));
    }

    #[test]
    fn copy_range_streams_consumed_pages() {
        let s = server();
        // Build a node with data, a junk fill, a random trim, a hole, and a
        // prefix trim: addrs 0,1 prefix-trimmed; 2 data; 3 junk; 4 trimmed;
        // 5 unwritten (hole); 6 data.
        for addr in [0, 1, 2, 6] {
            let w = StorageRequest::Write {
                epoch: 0,
                addr,
                kind: WriteKind::Data,
                payload: Bytes::from_static(b"d"),
            };
            assert_eq!(s.process(w), StorageResponse::Ok);
        }
        let fill = StorageRequest::Write {
            epoch: 0,
            addr: 3,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        };
        assert_eq!(s.process(fill), StorageResponse::Ok);
        assert_eq!(s.process(StorageRequest::Trim { epoch: 0, addr: 4 }), StorageResponse::Ok);
        assert_eq!(
            s.process(StorageRequest::TrimPrefix { epoch: 0, horizon: 2 }),
            StorageResponse::Ok
        );

        match s.process(StorageRequest::CopyRange { epoch: 0, start: 0, count: 100 }) {
            StorageResponse::PageChunk { local_tail, prefix_trim, next, pages } => {
                assert_eq!(local_tail, 7);
                assert_eq!(prefix_trim, 2);
                assert_eq!(next, 7);
                assert_eq!(
                    pages,
                    vec![
                        (2, PageCopy::Data(Bytes::from_static(b"d"))),
                        (3, PageCopy::Junk),
                        (4, PageCopy::Trimmed),
                        (6, PageCopy::Data(Bytes::from_static(b"d"))),
                    ]
                );
            }
            other => panic!("expected PageChunk, got {other:?}"),
        }
        // Chunked iteration: a count of 2 scans two addresses per call.
        match s.process(StorageRequest::CopyRange { epoch: 0, start: 2, count: 2 }) {
            StorageResponse::PageChunk { next, pages, .. } => {
                assert_eq!(next, 4);
                assert_eq!(pages.len(), 2);
            }
            other => panic!("expected PageChunk, got {other:?}"),
        }
        // Epoch-gated like everything else.
        assert_eq!(s.process(StorageRequest::Seal { epoch: 3 }), StorageResponse::Tail(7));
        assert_eq!(
            s.process(StorageRequest::CopyRange { epoch: 0, start: 0, count: 1 }),
            StorageResponse::ErrSealed { epoch: 3 }
        );
    }

    #[test]
    fn read_batch_serves_per_address_outcomes() {
        let s = server();
        let w = StorageRequest::Write {
            epoch: 0,
            addr: 1,
            kind: WriteKind::Data,
            payload: Bytes::from_static(b"one"),
        };
        assert_eq!(s.process(w), StorageResponse::Ok);
        let fill = StorageRequest::Write {
            epoch: 0,
            addr: 2,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        };
        assert_eq!(s.process(fill), StorageResponse::Ok);
        assert_eq!(s.process(StorageRequest::Trim { epoch: 0, addr: 1 }), StorageResponse::Ok);
        let w = StorageRequest::Write {
            epoch: 0,
            addr: 5,
            kind: WriteKind::Data,
            payload: Bytes::from_static(b"five"),
        };
        assert_eq!(s.process(w), StorageResponse::Ok);
        // Outcomes come back in request order, not address order.
        assert_eq!(
            s.process(StorageRequest::ReadBatch { epoch: 0, addrs: vec![5, 0, 2, 1] }),
            StorageResponse::BatchOutcomes(vec![
                Page::Data(Bytes::from_static(b"five")),
                Page::Unwritten,
                Page::Junk,
                Page::Trimmed,
            ])
        );
        assert_eq!(
            s.process(StorageRequest::ReadBatch { epoch: 0, addrs: vec![] }),
            StorageResponse::BatchOutcomes(vec![])
        );
    }

    #[test]
    fn read_batch_epoch_gated_and_size_capped() {
        let s = server();
        assert_eq!(s.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(0));
        assert_eq!(
            s.process(StorageRequest::ReadBatch { epoch: 0, addrs: vec![0] }),
            StorageResponse::ErrSealed { epoch: 1 }
        );
        let oversized = (0..=MAX_READ_BATCH as u64).collect();
        assert!(matches!(
            s.process(StorageRequest::ReadBatch { epoch: 1, addrs: oversized }),
            StorageResponse::ErrStorage(_)
        ));
    }

    fn data(addr: u64, bytes: Vec<u8>) -> StorageRequest {
        StorageRequest::Write { epoch: 0, addr, kind: WriteKind::Data, payload: bytes.into() }
    }

    /// A node holding set 0's share of a log striped over `stripe` sets.
    /// The entry at raw offset `o` is of stream `streams[o]` alone and
    /// points at that stream's previous four entries, as the sequencer
    /// would have it; the offsets in `lost` were granted and never written.
    fn node_with_log(stripe: u64, streams: &[StreamId], lost: &[u64]) -> StorageServer {
        let node = server();
        let mut issued: std::collections::HashMap<StreamId, Vec<u64>> = Default::default();
        for (raw, &stream) in (0u64..).zip(streams) {
            let backpointers = issued.entry(stream).or_default();
            if raw % stripe == 0 && !lost.contains(&raw) {
                let headers = vec![StreamHeader { stream, backpointers: backpointers.clone() }];
                let entry =
                    EntryEnvelope { headers, payload: Bytes::from_static(b"e"), link: None };
                let write = data(raw / stripe, entry.encode(raw).unwrap());
                assert_eq!(node.process(write), StorageResponse::Ok);
            }
            backpointers.insert(0, raw);
            backpointers.truncate(4);
        }
        node
    }

    /// Chases `stream` from `addrs` and returns the addresses read, in
    /// reply order, with whether each held data.
    fn chased(
        node: &StorageServer,
        addrs: &[u64],
        stream: StreamId,
        (stripe, floor, limit): (u32, u64, u32),
    ) -> Vec<(u64, bool)> {
        let addrs = addrs.to_vec();
        match node.process(StorageRequest::ReadChase {
            epoch: 0,
            addrs,
            stream,
            stripe,
            floor,
            limit,
        }) {
            StorageResponse::Chased(pages) => pages
                .into_iter()
                .map(|(addr, outcome)| (addr, matches!(outcome, Page::Data(_))))
                .collect(),
            other => panic!("expected Chased, got {other:?}"),
        }
    }

    fn all_data(addrs: impl IntoIterator<Item = u64>) -> Vec<(u64, bool)> {
        addrs.into_iter().map(|addr| (addr, true)).collect()
    }

    #[test]
    fn chase_reads_a_newest_first_run_of_the_asked_stream_only() {
        // Streams 1 and 2 take turns: 1 on the even addresses, 2 on the odd.
        let interleave: Vec<StreamId> = (0..40).map(|raw| 1 + raw % 2).collect();
        let node = node_with_log(1, &interleave, &[]);
        // The requested window first, in request order, then on down the
        // stream: every page read is one of stream 1.
        assert_eq!(
            chased(&node, &[32, 38, 34, 36], 1, (1, 0, 12)),
            all_data([32, 38, 34, 36, 30, 28, 26, 24, 22, 20, 18, 16])
        );
        assert_eq!(node.stats().reads, 12);
        // To the stream's first entry, and no further.
        assert_eq!(chased(&node, &[9], 2, (1, 0, 32)), all_data([9, 7, 5, 3, 1]));
        // An address asked for is not read again as one pointed to.
        assert_eq!(chased(&node, &[10, 4], 1, (1, 0, 32)), all_data([10, 4, 8, 6, 2, 0]));
        // A page of another stream than the one chased leads nowhere.
        assert_eq!(chased(&node, &[10, 7], 1, (1, 0, 4)), all_data([10, 7, 8, 6]));
        assert_eq!(chased(&node, &[7], 1, (1, 0, 4)), all_data([7]));
    }

    #[test]
    fn chase_honours_floor_limit_and_stripe() {
        let node = node_with_log(1, &[1; 1100], &[]);
        assert_eq!(chased(&node, &[50, 49], 1, (1, 45, 32)), all_data([50, 49, 48, 47, 46, 45]));
        assert_eq!(chased(&node, &[50, 49], 1, (1, 51, 32)), all_data([50, 49]));
        // The limit counts the requested pages, which are served whatever
        // it says, and is itself capped.
        assert_eq!(chased(&node, &[50, 49], 1, (1, 0, 3)), all_data([50, 49, 48]));
        assert_eq!(chased(&node, &[50, 49, 48], 1, (1, 0, 2)), all_data([50, 49, 48]));
        assert_eq!(chased(&node, &[50], 1, (1, 0, 0)), all_data([50]));
        assert_eq!(chased(&node, &[1099], 1, (1, 0, u32::MAX)).len(), MAX_READ_BATCH);

        // Two sets, and a stream on every third offset: its entries fall on
        // either set in turn. Set 0 has raw 0, 6, 12, 18, 24 of it at local
        // 0, 3, 6, 9, 12, and each points back 3 (the other set's), 6, 9
        // (the other set's) and 12 raw offsets.
        let thirds: Vec<StreamId> = (0..30).map(|raw| if raw % 3 == 0 { 7 } else { 9 }).collect();
        let node = node_with_log(2, &thirds, &[]);
        assert_eq!(chased(&node, &[12], 7, (2, 0, 32)), all_data([12, 9, 6, 3, 0]));
        assert_eq!(node.stats().reads, 5);
        // A delta that is no multiple of the stripe is not rounded to a
        // neighbour (local 11 here), and no stripe at all means no neighbours.
        assert_eq!(chased(&node, &[12], 7, (0, 0, 32)), all_data([12]));
    }

    #[test]
    fn chase_goes_around_what_is_not_an_entry() {
        // Offsets 8 and 6 were granted and never written; 8 gets filled.
        let node = node_with_log(1, &[1; 12], &[8, 6]);
        let fill = StorageRequest::Write {
            epoch: 0,
            addr: 8,
            kind: WriteKind::Junk,
            payload: Bytes::new(),
        };
        assert_eq!(node.process(fill), StorageResponse::Ok);
        assert_eq!(node.process(StorageRequest::Trim { epoch: 0, addr: 4 }), StorageResponse::Ok);
        // Each is reported as found and stepped over by way of its
        // neighbours' pointers.
        let read = chased(&node, &[11], 1, (1, 0, 32));
        assert_eq!(
            read.iter().map(|&(addr, _)| addr).collect::<Vec<_>>(),
            (0..12).rev().collect::<Vec<_>>()
        );
        let not_data: Vec<u64> =
            read.iter().filter(|(_, data)| !data).map(|&(addr, _)| addr).collect();
        assert_eq!(not_data, [8, 6, 4]);
        let outcome_at = |addr: u64| match node.process(StorageRequest::ReadChase {
            epoch: 0,
            addrs: vec![addr + 1],
            stream: 1,
            stripe: 1,
            floor: addr,
            limit: 2,
        }) {
            StorageResponse::Chased(pages) => pages[1].clone(),
            other => panic!("expected Chased, got {other:?}"),
        };
        assert_eq!(outcome_at(8), (8, Page::Junk));
        assert_eq!(outcome_at(6), (6, Page::Unwritten));
        assert_eq!(outcome_at(4), (4, Page::Trimmed));
    }

    /// Stream 1's entry at `offset`, pointing at `backpointers`.
    fn entry(offset: u64, backpointers: Vec<u64>) -> Vec<u8> {
        let headers = vec![StreamHeader { stream: 1, backpointers }];
        EntryEnvelope { headers, payload: Bytes::from_static(b"e"), link: None }
            .encode(offset)
            .unwrap()
    }

    #[test]
    fn chase_replies_in_address_order_and_reads_each_page_once() {
        // Pointers that skip past each other: 12 leads to 11 and 5, and 11
        // (by way of 10) back to 5, so 11, 10 and 9 are read before 5.
        let node = server();
        let pages =
            [(12, vec![11, 5]), (11, vec![10]), (10, vec![9, 5]), (9, vec![]), (5, vec![4])];
        for (addr, backpointers) in pages.into_iter().chain([(4, vec![])]) {
            assert_eq!(node.process(data(addr, entry(addr, backpointers))), StorageResponse::Ok);
        }
        assert_eq!(chased(&node, &[12], 1, (1, 0, 32)), all_data([12, 11, 10, 9, 5, 4]));
        assert_eq!(node.stats().reads, 6);
        // The limit keeps the chain's highest pages.
        assert_eq!(chased(&node, &[12], 1, (1, 0, 4)), all_data([12, 11, 10, 9]));
        assert_eq!(chased(&node, &[12], 1, (1, 0, 2)), all_data([12, 11]));
    }

    #[test]
    fn chase_stops_where_one_more_full_page_could_pass_the_cap() {
        let node = server();
        for addr in 0..48u64 {
            let backpointers = (addr.saturating_sub(4)..addr).rev().collect();
            let headers = vec![StreamHeader { stream: 1, backpointers }];
            let payload = Bytes::from(vec![7u8; 4000]);
            let page = EntryEnvelope { headers, payload, link: None }.encode(addr).unwrap();
            assert_eq!(node.process(data(addr, page)), StorageResponse::Ok);
        }
        let StorageResponse::Chased(pages) = node.process(StorageRequest::ReadChase {
            epoch: 0,
            addrs: vec![47],
            stream: 1,
            stripe: 1,
            floor: 0,
            limit: 256,
        }) else {
            panic!("expected Chased")
        };
        let bytes: usize = pages
            .iter()
            .map(|(_, outcome)| match outcome {
                Page::Data(bytes) => bytes.len(),
                other => panic!("{other:?}"),
            })
            .sum();
        assert!(bytes <= CHASE_REPLY_BYTES && bytes + 4096 > CHASE_REPLY_BYTES, "{bytes}");
        let addrs: Vec<u64> = pages.iter().map(|&(addr, _)| addr).collect();
        assert_eq!(addrs, (16..48).rev().collect::<Vec<_>>());
        assert_eq!(node.stats().reads, 32);
    }

    #[test]
    fn chase_skips_a_followed_page_it_cannot_read() {
        use std::os::unix::fs::FileExt;
        let dir = tmpdir("chase-rot");
        let store = tango_flash::FileStore::open(&dir, 4096, 64).unwrap();
        let node = StorageServer::new(FlashUnit::open(Box::new(store), 4096).unwrap());
        // Each page is written through: records back to back from offset 0.
        let mut record_at = Vec::new();
        let mut end = 0;
        for addr in 0..6u64 {
            let page = entry(addr, (addr.saturating_sub(4)..addr).rev().collect());
            record_at.push(end);
            end += 32 + page.len() as u64;
            assert_eq!(node.process(data(addr, page)), StorageResponse::Ok);
        }
        // Rot the last payload byte of page 3's record.
        let seg = std::fs::OpenOptions::new().write(true).open(dir.join("seg-0.dat")).unwrap();
        seg.write_all_at(b"\xFF", record_at[4] - 1).unwrap();
        assert_eq!(chased(&node, &[5], 1, (1, 0, 32)), all_data([5, 4, 2, 1, 0]));
        // Asked for, it is the request's error.
        assert!(matches!(
            node.process(StorageRequest::ReadBatch { epoch: 0, addrs: vec![4, 3] }),
            StorageResponse::ErrStorage(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chase_never_judges_a_page() {
        let node = server();
        let mut cut_short = entry(9, vec![8, 7, 6, 5]);
        cut_short.truncate(8);
        let pages = [
            (0, entry(0, vec![])),
            // Not an entry at all, and one that ends inside its header.
            (1, b"\xFFnot an entry".to_vec()),
            (2, cut_short),
            // An entry so far from its predecessors that it names them by
            // absolute offset: from here the client has to find the way.
            (3, entry(1 << 20, vec![2, 1, 0])),
            (4, entry(4, vec![1])),
            (5, entry(5, vec![2])),
            (6, entry(6, vec![5, 4, 3])),
        ];
        for (addr, bytes) in pages {
            assert_eq!(node.process(data(addr, bytes)), StorageResponse::Ok);
        }
        // All three branches end where the pointers stop making sense, each
        // page reported as the data it is; page 0 is never reached.
        assert_eq!(chased(&node, &[6], 1, (1, 0, 32)), all_data([6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn chase_epoch_gated_and_size_capped() {
        let node = node_with_log(1, &[1; 8], &[]);
        assert_eq!(node.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(8));
        let chase = |epoch, addrs| StorageRequest::ReadChase {
            epoch,
            addrs,
            stream: 1,
            stripe: 1,
            floor: 0,
            limit: 32,
        };
        assert_eq!(node.process(chase(0, vec![7])), StorageResponse::ErrSealed { epoch: 1 });
        assert!(
            matches!(node.process(chase(1, vec![7])), StorageResponse::Chased(p) if p.len() == 8)
        );
        let oversized = (0..=MAX_READ_BATCH as u64).collect();
        assert!(matches!(node.process(chase(1, oversized)), StorageResponse::ErrStorage(_)));
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("corfu-storage-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seal_whose_epoch_cannot_be_persisted_is_retryable() {
        let dir = tmpdir("seal");
        let store = tango_flash::FileStore::open(&dir, 64, 8).unwrap();
        let s = StorageServer::new(FlashUnit::open(Box::new(store), 64).unwrap());
        // The suite runs as root, so permissions cannot fail the meta write;
        // a directory squatting on its temp-file path can.
        std::fs::create_dir(dir.join("meta.tmp")).unwrap();
        assert!(matches!(
            s.process(StorageRequest::Seal { epoch: 1 }),
            StorageResponse::ErrStorage(_)
        ));
        // Nothing was adopted: the node still serves epoch 0.
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.process(StorageRequest::LocalTail { epoch: 0 }), StorageResponse::Tail(0));
        std::fs::remove_dir(dir.join("meta.tmp")).unwrap();
        assert_eq!(s.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(0));
        assert_eq!(
            s.process(StorageRequest::LocalTail { epoch: 0 }),
            StorageResponse::ErrSealed { epoch: 1 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_pass_reports_a_failed_migration() {
        let dir = tmpdir("compact");
        let store = tango_flash::TieredStore::open(&dir, 64, 8, 2).unwrap();
        let registry = Registry::new();
        let s = StorageServer::new(FlashUnit::open(Box::new(store), 64).unwrap())
            .with_metrics(&registry);
        for addr in 0..3 {
            let w = StorageRequest::Write {
                epoch: 0,
                addr,
                kind: WriteKind::Data,
                payload: Bytes::from_static(b"x"),
            };
            assert_eq!(s.process(w), StorageResponse::Ok);
        }
        // One page over the hot capacity, and its segment file cannot be
        // created: a directory has its name.
        std::fs::create_dir(dir.join("seg-0.dat")).unwrap();
        let report = s.compact_once(true);
        assert!(matches!(report.error, Some(FlashError::Io(_))), "{report:?}");
        assert_eq!((report.migrated_pages, report.occupancy), (0, 3));
        // The steps after the failed one still ran.
        assert!(report.scrub.is_some());
        assert_eq!(registry.snapshot().counter("corfu.storage.scrub_errors"), 1);
        std::fs::remove_dir(dir.join("seg-0.dat")).unwrap();
        let report = s.compact_once(false);
        assert_eq!((report.error, report.migrated_pages), (None, 1));
        assert_eq!(registry.snapshot().counter("corfu.storage.scrub_errors"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handles_garbage_request_bytes() {
        let s = server();
        let resp = s.handle(&[0xFF, 0x00, 0x13]);
        let decoded: StorageResponse = decode_from_slice(&resp).unwrap();
        assert!(matches!(decoded, StorageResponse::ErrStorage(_)));
    }
}
