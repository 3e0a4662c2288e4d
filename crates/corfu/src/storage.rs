//! The storage server: an epoch gate in front of a [`FlashUnit`].

use parking_lot::{Mutex, MutexGuard};
use tango_flash::{FlashError, FlashMetrics, FlashUnit, PageRead, ScrubReport, TierStats};
use tango_metrics::{EventKind, Registry, Span, SpanKind};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::metrics::StorageMetrics;
use crate::proto::{PageCopy, PageOutcome, StorageRequest, StorageResponse, WriteKind, WriteRef};
use crate::Epoch;

/// Upper bound on addresses scanned per [`StorageRequest::CopyRange`] round
/// trip, regardless of what the requester asks for. Bounds both response
/// size and the time the node's lock is held.
pub const MAX_COPY_RANGE: u32 = 1024;

/// Upper bound on pages served per [`StorageRequest::ReadBatch`]. Oversized
/// batches are rejected outright (the client chunks), bounding response
/// size and the time the node's lock is held.
pub const MAX_READ_BATCH: usize = 1024;

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
    epoch: Epoch,
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The prefix-trim horizon after the pass.
    pub trim_horizon: u64,
    /// Pages migrated hot → cold by this pass.
    pub migrated_pages: u64,
    /// Whole segments reclaimed by this pass.
    pub reclaimed_segments: u64,
    /// Live (untrimmed) pages occupying the unit after the pass.
    pub occupancy: u64,
    /// The CRC scrub outcome, when the pass scrubbed.
    pub scrub: Option<ScrubReport>,
}

impl StorageServer {
    /// Wraps a flash unit. The server adopts the unit's persisted epoch.
    pub fn new(unit: FlashUnit) -> Self {
        let epoch = unit.epoch();
        Self {
            inner: Mutex::new(Inner { unit, epoch, published: PublishedBaseline::default() }),
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
        self.inner.lock().epoch
    }

    /// Wear statistics from the underlying unit.
    pub fn stats(&self) -> tango_flash::WearStats {
        self.inner.lock().unit.stats()
    }

    /// Hot/cold occupancy and migration accounting from the underlying
    /// unit (all zeros over single-tier stores).
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
        let horizon =
            inner.unit.advance_trim_horizon().unwrap_or_else(|_| inner.unit.prefix_trim());
        let migrated = inner.unit.migrate_cold().unwrap_or(0);
        let scrub_report = if scrub {
            let report = inner.unit.scrub().unwrap_or_default();
            self.metrics.scrubbed_pages.add(report.pages_checked);
            self.metrics.scrub_errors.add(report.errors);
            Some(report)
        } else {
            None
        };
        let reclaimed_segments = self.publish(&mut inner);
        CompactionReport {
            trim_horizon: horizon,
            migrated_pages: migrated,
            reclaimed_segments,
            occupancy: inner.unit.live_pages(),
            scrub: scrub_report,
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
        self.metrics.reclaimed_segments.add(reclaimed_segments);

        if tier.migrated_pages > base.migrated_pages {
            self.metrics.events.emit(
                EventKind::ColdMigration,
                inner.epoch,
                self.log,
                tier.migrated_pages - base.migrated_pages,
            );
        }
        if reclaimed_segments > 0 {
            self.metrics.events.emit(
                EventKind::SegmentReclaimed,
                inner.epoch,
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
    /// unit's store makes the one copy.
    fn write(&self, inner: &mut Inner, write: WriteRef<'_>) -> StorageResponse {
        if let Err(resp) = inner.check_epoch(write.epoch) {
            return resp;
        }
        let (result, served) = match write.kind {
            WriteKind::Data => (inner.unit.write(write.addr, write.payload), &self.metrics.writes),
            WriteKind::Junk => (inner.unit.fill(write.addr), &self.metrics.fills),
        };
        match result {
            Ok(()) => {
                served.inc();
                StorageResponse::Ok
            }
            Err(e) => Inner::flash_error(e),
        }
    }

    /// Processes a decoded request (also used directly by unit tests).
    pub fn process(&self, req: StorageRequest) -> StorageResponse {
        let (mut inner, _span) = self.enter(match req {
            StorageRequest::Write { .. } => SpanKind::StorageWrite,
            StorageRequest::Read { .. } | StorageRequest::ReadBatch { .. } => SpanKind::StorageRead,
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
                match inner.unit.read(addr) {
                    Ok(PageRead::Data(bytes)) => StorageResponse::Data(bytes),
                    Ok(PageRead::Junk) => StorageResponse::Junk,
                    Ok(PageRead::Unwritten) => StorageResponse::Unwritten,
                    Ok(PageRead::Trimmed) => StorageResponse::Trimmed,
                    Err(e) => Inner::flash_error(e),
                }
            }
            StorageRequest::ReadBatch { epoch, addrs } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                if addrs.len() > MAX_READ_BATCH {
                    return StorageResponse::ErrStorage(format!(
                        "read batch of {} exceeds {MAX_READ_BATCH}",
                        addrs.len()
                    ));
                }
                // The whole batch is served under this one lock acquisition;
                // read_many charges wear per page but times the batch once.
                self.metrics.reads.add(addrs.len() as u64);
                self.metrics.read_batch.record(addrs.len() as u64);
                match inner.unit.read_many(&addrs) {
                    Ok(reads) => StorageResponse::BatchOutcomes(
                        reads
                            .into_iter()
                            .map(|r| match r {
                                PageRead::Data(bytes) => PageOutcome::Data(bytes),
                                PageRead::Junk => PageOutcome::Junk,
                                PageRead::Unwritten => PageOutcome::Unwritten,
                                PageRead::Trimmed => PageOutcome::Trimmed,
                            })
                            .collect(),
                    ),
                    Err(e) => Inner::flash_error(e),
                }
            }
            StorageRequest::Trim { epoch, addr } => {
                if let Err(resp) = inner.check_epoch(epoch) {
                    return resp;
                }
                match inner.unit.trim(addr) {
                    Ok(()) => {
                        self.metrics.trims.inc();
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
                        self.metrics.trims.inc();
                        self.metrics.prefix_trims.inc();
                        self.publish(&mut inner);
                        StorageResponse::Ok
                    }
                    Err(e) => Inner::flash_error(e),
                }
            }
            StorageRequest::Seal { epoch } => {
                if epoch <= inner.epoch {
                    return StorageResponse::ErrSealed { epoch: inner.epoch };
                }
                match inner.unit.seal(epoch) {
                    Ok(tail) => {
                        inner.epoch = epoch;
                        self.metrics.seals.inc();
                        StorageResponse::Tail(tail)
                    }
                    Err(e) => Inner::flash_error(e),
                }
            }
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
                        Ok(PageRead::Data(bytes)) => pages.push((addr, PageCopy::Data(bytes))),
                        Ok(PageRead::Junk) => pages.push((addr, PageCopy::Junk)),
                        Ok(PageRead::Trimmed) => pages.push((addr, PageCopy::Trimmed)),
                        Ok(PageRead::Unwritten) => {}
                        Err(e) => return Inner::flash_error(e),
                    }
                }
                self.metrics.copy_chunks.inc();
                StorageResponse::PageChunk { local_tail, prefix_trim, next, pages }
            }
        }
    }
}

impl Inner {
    fn check_epoch(&self, epoch: Epoch) -> Result<(), StorageResponse> {
        if epoch != self.epoch {
            Err(StorageResponse::ErrSealed { epoch: self.epoch })
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
        }
    }
}

impl RpcHandler for StorageServer {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        // A write is served from the request bytes as they arrived; every
        // other request is small and decodes into an owned value.
        let response = match WriteRef::peek(request) {
            Some(write) => write.map(|write| {
                let (mut inner, _span) = self.enter(SpanKind::StorageWrite);
                self.write(&mut inner, write)
            }),
            None => decode_from_slice::<StorageRequest>(request).map(|req| self.process(req)),
        };
        let response =
            response.unwrap_or_else(|e| StorageResponse::ErrStorage(format!("bad request: {e}")));
        encode_to_vec(&response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            StorageResponse::Data(Bytes::from_static(b"entry"))
        );
        assert_eq!(
            s.process(StorageRequest::Read { epoch: 0, addr: 4 }),
            StorageResponse::Unwritten
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
            StorageResponse::Unwritten
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
                PageOutcome::Data(Bytes::from_static(b"five")),
                PageOutcome::Unwritten,
                PageOutcome::Junk,
                PageOutcome::Trimmed,
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

    #[test]
    fn handles_garbage_request_bytes() {
        let s = server();
        let resp = s.handle(&[0xFF, 0x00, 0x13]);
        let decoded: StorageResponse = decode_from_slice(&resp).unwrap();
        assert!(matches!(decoded, StorageResponse::ErrStorage(_)));
    }
}
