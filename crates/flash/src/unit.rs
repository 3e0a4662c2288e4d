use std::collections::BTreeMap;

use bytes::Bytes;
use tango_metrics::Timer;

use crate::store::{Page, PageKind, ScannedState, ScrubReport, TierStats};
use crate::{FileStore, FlashError, FlashMetrics, PageAddr, Readahead, Result, TieredStore};

/// Wear and usage accounting for a flash unit.
///
/// The paper notes (§2.2) that "the flash lifetime of a CORFU node depends on
/// the workload; sequential trims result in substantially less wear on the
/// flash than random trims" — so the unit distinguishes the two.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WearStats {
    /// Data pages written.
    pub data_writes: u64,
    /// Junk fills written.
    pub junk_writes: u64,
    /// Bytes of payload written.
    pub bytes_written: u64,
    /// Pages read.
    pub reads: u64,
    /// Random (per-address) trims.
    pub random_trims: u64,
    /// Pages reclaimed by sequential prefix trims.
    pub prefix_trimmed_pages: u64,
    /// Writes rejected because the address was already consumed.
    pub rejected_writes: u64,
}

/// What the table holds for one address at or above the horizon. A page
/// changes tier by changing variant; nothing else records where it is.
#[derive(Debug)]
enum Slot {
    /// Never consumed: the address takes its one write here.
    Unwritten,
    /// Data held in RAM only, not yet written to the cold device.
    HotData(Bytes),
    /// A junk fill not yet written to the cold device.
    HotJunk,
    /// Data whose payload is in a record on the cold device.
    ColdData,
    /// A junk fill recorded on the cold device.
    ColdJunk,
    /// Individually trimmed: consumed, payload released.
    Trimmed,
}

/// The table's chunks are `1 << CHUNK_BITS` consecutive addresses.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The slot of every address in a chunk the table has not allocated.
const UNWRITTEN: &Slot = &Slot::Unwritten;
/// The slot of every address below the horizon.
const TRIMMED: &Slot = &Slot::Trimmed;

/// Address -> slot, in chunks of `CHUNK` consecutive addresses keyed by
/// `addr >> CHUNK_BITS`. The projection stripes a log round-robin, so a
/// unit's addresses are dense and a chunk fills up; a chunk is allocated
/// only where a page is, so pages at far-apart addresses cost a chunk each,
/// never the span between them.
#[derive(Default)]
struct SlotTable {
    chunks: BTreeMap<u64, Box<[Slot; CHUNK]>>,
}

/// `addr`'s chunk key and its place in the chunk.
fn chunk_of(addr: PageAddr) -> (u64, usize) {
    (addr >> CHUNK_BITS, addr as usize & (CHUNK - 1))
}

impl SlotTable {
    fn get(&self, addr: PageAddr) -> &Slot {
        let (key, at) = chunk_of(addr);
        self.chunks.get(&key).map_or(UNWRITTEN, |chunk| &chunk[at])
    }

    /// `addr`'s slot, its chunk allocated if it has none.
    fn get_mut(&mut self, addr: PageAddr) -> &mut Slot {
        let (key, at) = chunk_of(addr);
        let chunk = self.chunks.entry(key).or_insert_with(|| {
            let slots: Box<[Slot]> = (0..CHUNK).map(|_| Slot::Unwritten).collect();
            slots.try_into().expect("CHUNK slots")
        });
        &mut chunk[at]
    }

    /// Every slot of an allocated chunk from `from` up, with its address, in
    /// address order.
    fn slots_from(&mut self, from: PageAddr) -> impl Iterator<Item = (PageAddr, &mut Slot)> {
        let (first, skip) = chunk_of(from);
        self.chunks.range_mut(first..).flat_map(move |(&key, chunk)| {
            let base = key << CHUNK_BITS;
            let skip = if key == first { skip } else { 0 };
            (chunk.iter_mut().enumerate().skip(skip))
                .map(move |(at, slot)| (base + at as u64, slot))
        })
    }

    /// Empties every slot below `horizon`, showing `each` what it held: the
    /// chunks wholly below go, the one straddling `horizon` keeps its upper
    /// slots.
    fn clear_below(&mut self, horizon: PageAddr, mut each: impl FnMut(&Slot)) {
        let (key, at) = chunk_of(horizon);
        let keep = self.chunks.split_off(&key);
        let below = std::mem::replace(&mut self.chunks, keep);
        below.values().flat_map(|chunk| chunk.iter()).for_each(&mut each);
        if let Some(chunk) = self.chunks.get_mut(&key) {
            for slot in &mut chunk[..at] {
                each(&std::mem::replace(slot, Slot::Unwritten));
            }
        }
    }

    #[cfg(test)]
    fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// One past `addr`: what the local tail becomes when `addr` is consumed. The
/// last address has none, so it takes no page.
fn after(addr: PageAddr) -> Result<PageAddr> {
    addr.checked_add(1).ok_or(FlashError::OutOfRange { addr })
}

/// A write-once, 64-bit page address space: the storage device under a CORFU
/// storage server (§2.2).
///
/// One slot table is the only record of a page: a write is one test-and-set
/// of its slot, a read one load. A write lands hot (in RAM); over a cold
/// device, migration writes the lowest hot pages into segment files and
/// flips their slots to cold. Hot pages are volatile until then, which is
/// safe under CORFU's client-driven chain replication: an acked append is
/// durable across replicas, not across one unit's power cycle, and a
/// replacement rebuilds from the surviving chain.
///
/// Invariants:
///
/// * Every address accepts at most one write (data or junk) over its
///   lifetime, even across trims: a trimmed address stays consumed. This is
///   what makes client-driven chain replication safe.
/// * `seal` is monotone: the epoch only increases.
pub struct FlashUnit {
    /// Address -> slot. Addresses below `prefix_trim` are implicitly trimmed
    /// and their slots unwritten.
    table: SlotTable,
    /// The segment files cold pages, trim markers, the epoch and the horizon
    /// are persisted in; `None` for an in-memory unit.
    cold: Option<FileStore>,
    /// Target number of hot pages: `migrate_cold` drains down to this, and
    /// writes spill eagerly past twice this (a burst guard between
    /// compactor runs).
    hot_capacity: usize,
    /// No hot slot sits below this address: where migration starts looking.
    hot_floor: PageAddr,
    /// All addresses strictly below this are trimmed.
    prefix_trim: PageAddr,
    /// The highest consumed address + 1 (never decreases, even on trim).
    local_tail: PageAddr,
    epoch: u64,
    page_size: usize,
    /// `hot_pages + cold_pages` is the unit's occupancy; `cold_segments` is
    /// read off the device on demand.
    tier: TierStats,
    stats: WearStats,
    metrics: FlashMetrics,
}

/// Records `timer` when the device did the work, drops the measurement when
/// it failed: errors are not service time.
fn timed<T>(timer: Timer, result: Result<T>) -> Result<T> {
    match result {
        Ok(_) => timer.stop(),
        Err(_) => timer.discard(),
    }
    result
}

/// The device's answer for a page the index holds as cold data: its payload.
fn cold_data<T>(addr: PageAddr, got: Result<Option<(PageKind, T)>>) -> Result<T> {
    match got? {
        Some((PageKind::Data, bytes)) => Ok(bytes),
        // The index said data was here; the device losing it is corruption,
        // not a hole.
        _ => Err(FlashError::Corrupt(format!("indexed data page {addr} missing"))),
    }
}

impl FlashUnit {
    fn new(cold: Option<FileStore>, hot_capacity: usize, page_size: usize) -> Self {
        Self {
            table: SlotTable::default(),
            cold,
            hot_capacity,
            hot_floor: 0,
            prefix_trim: 0,
            local_tail: 0,
            epoch: 0,
            page_size,
            tier: TierStats::default(),
            stats: WearStats::default(),
            metrics: FlashMetrics::default(),
        }
    }

    /// Creates a unit over a fresh or previously used cold device — a
    /// [`FileStore`] (every write goes through to it) or a [`TieredStore`]
    /// (one with a hot capacity) — recovering the index, epoch and trim
    /// horizon from what the store found when it parsed its segment files.
    /// Hot pages of a previous process are gone: they are the volatile tail
    /// by design.
    ///
    /// The store arrives boxed because that is the call every user makes,
    /// the frozen benchmark harness among them.
    #[allow(clippy::boxed_local)]
    pub fn open(store: Box<impl Into<TieredStore>>, page_size: usize) -> Result<Self> {
        let TieredStore { cold, hot_capacity } = (*store).into();
        let scanned = cold.scan();
        let meta = cold.get_meta()?;
        let mut unit = Self::new(Some(cold), hot_capacity, page_size);
        (unit.epoch, unit.prefix_trim) = meta.unwrap_or((0, 0));
        unit.local_tail = unit.prefix_trim;
        for page in scanned {
            unit.local_tail = unit.local_tail.max(after(page.addr)?);
            // A crash between persisting a horizon and unlinking the
            // segments below it leaves stale records: the horizon wins.
            if page.addr < unit.prefix_trim {
                continue;
            }
            let slot = match page.state {
                ScannedState::Data => Slot::ColdData,
                ScannedState::Junk => Slot::ColdJunk,
                ScannedState::Trimmed => Slot::Trimmed,
            };
            unit.tier.cold_pages += !matches!(slot, Slot::Trimmed) as u64;
            *unit.table.get_mut(page.addr) = slot;
        }
        Ok(unit)
    }

    /// Creates a unit with no cold device, for tests and the in-process
    /// cluster: every page stays hot.
    pub fn in_memory(page_size: usize) -> Self {
        Self::new(None, usize::MAX, page_size)
    }

    /// The fixed page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The unit's current seal epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The highest consumed address + 1. This is the "local tail" used by
    /// the slow check and by sequencer recovery.
    pub fn local_tail(&self) -> PageAddr {
        self.local_tail
    }

    /// The prefix-trim horizon: every address strictly below it is trimmed.
    /// A rebuild copying this unit onto a replacement must install the same
    /// horizon so the replacement rejects writes below it too.
    pub fn prefix_trim(&self) -> PageAddr {
        self.prefix_trim
    }

    /// Usage counters.
    pub fn stats(&self) -> WearStats {
        self.stats
    }

    /// Live (data or junk, not yet trimmed) pages currently occupying the
    /// unit: the occupancy number the compactor exports and the trim
    /// driver's test holds to about one round of pages.
    pub fn live_pages(&self) -> u64 {
        self.tier.hot_pages + self.tier.cold_pages
    }

    /// Hot/cold occupancy and migration accounting.
    pub fn tier_stats(&self) -> TierStats {
        let segments = self.cold.as_ref().map_or(0, FileStore::segment_count);
        TierStats { cold_segments: segments as u64, ..self.tier }
    }

    /// Migrates hot pages past the hot capacity to the cold device,
    /// returning how many pages moved. A no-op without a cold device.
    pub fn migrate_cold(&mut self) -> Result<u64> {
        self.drain_hot_to(self.hot_capacity)
    }

    /// Writes the lowest hot pages to the cold device — oldest first, so
    /// each segment file fills with a contiguous range — and flips their
    /// slots to cold, until at most `target` pages stay hot.
    fn drain_hot_to(&mut self, target: usize) -> Result<u64> {
        let Some(cold) = &mut self.cold else { return Ok(0) };
        let mut moved = 0;
        let mut result = Ok(());
        for (addr, slot) in self.table.slots_from(self.hot_floor) {
            self.hot_floor = addr;
            if self.tier.hot_pages <= target as u64 {
                break;
            }
            let (put, flipped) = match slot {
                Slot::HotData(bytes) => (cold.put(addr, PageKind::Data, bytes), Slot::ColdData),
                Slot::HotJunk => (cold.put(addr, PageKind::Junk, &[]), Slot::ColdJunk),
                Slot::Unwritten | Slot::ColdData | Slot::ColdJunk | Slot::Trimmed => continue,
            };
            if let Err(e) = put {
                result = Err(e);
                break;
            }
            *slot = flipped;
            self.tier.hot_pages -= 1;
            self.tier.cold_pages += 1;
            moved += 1;
        }
        if moved > 0 {
            self.tier.migrations += 1;
            self.tier.migrated_pages += moved;
        }
        result.map(|()| moved)
    }

    /// Verifies the checksums of the cold device's payloads; hot pages are
    /// RAM and carry none.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.cold.as_ref().map_or(Ok(ScrubReport::default()), FileStore::scrub)
    }

    /// Advances the prefix-trim horizon over any contiguous run of
    /// individually trimmed slots sitting just above it, converting
    /// accumulated random trims into a sequential trim (the cheap kind).
    /// Returns the horizon after the pass.
    pub fn advance_trim_horizon(&mut self) -> Result<PageAddr> {
        let mut horizon = self.prefix_trim;
        for (addr, slot) in self.table.slots_from(horizon) {
            // The last address is never trimmed, so `horizon` cannot wrap.
            if addr != horizon || !matches!(slot, Slot::Trimmed) {
                break;
            }
            horizon += 1;
        }
        if horizon > self.prefix_trim {
            self.trim_prefix(horizon)?;
        }
        Ok(self.prefix_trim)
    }

    /// Installs service-time instruments (`flash.*`). Until this is
    /// called every histogram handle is a disabled no-op.
    pub fn set_metrics(&mut self, metrics: FlashMetrics) {
        self.metrics = metrics;
    }

    /// Writes a data page. Fails with [`FlashError::AlreadyWritten`] if the
    /// address was ever consumed, or [`FlashError::Trimmed`] below the trim
    /// horizon.
    pub fn write(&mut self, addr: PageAddr, data: &[u8]) -> Result<()> {
        if data.len() > self.page_size {
            return Err(FlashError::PageTooLarge { len: data.len(), page_size: self.page_size });
        }
        self.put(addr, PageKind::Data, data)
    }

    /// Fills a page with junk (the hole-patching primitive, §3.2). Subject to
    /// the same write-once rules as [`FlashUnit::write`].
    pub fn fill(&mut self, addr: PageAddr) -> Result<()> {
        self.put(addr, PageKind::Junk, &[])
    }

    /// Write-once arbitration — one test-and-set of the address's slot — and
    /// the one payload copy a write costs.
    fn put(&mut self, addr: PageAddr, kind: PageKind, data: &[u8]) -> Result<()> {
        if addr < self.prefix_trim {
            return Err(FlashError::Trimmed { addr });
        }
        let end = after(addr)?;
        let slot = self.table.get_mut(addr);
        if !matches!(slot, Slot::Unwritten) {
            self.stats.rejected_writes += 1;
            return Err(FlashError::AlreadyWritten { addr });
        }
        // The timer starts after arbitration so rejected writes (a
        // protocol outcome, not device work) never pollute service time.
        let timer = match kind {
            PageKind::Data => &self.metrics.write_service_ns,
            PageKind::Junk => &self.metrics.fill_service_ns,
        }
        .start_sampled(&self.metrics.sampler);
        match kind {
            PageKind::Data => {
                *slot = Slot::HotData(Bytes::copy_from_slice(data));
                self.stats.data_writes += 1;
                self.stats.bytes_written += data.len() as u64;
            }
            PageKind::Junk => {
                *slot = Slot::HotJunk;
                self.stats.junk_writes += 1;
            }
        }
        self.tier.hot_pages += 1;
        self.hot_floor = self.hot_floor.min(addr);
        self.local_tail = self.local_tail.max(end);
        // Burst guard: if the compactor falls behind, spill eagerly rather
        // than letting the hot pages grow without bound. With a hot capacity
        // of 0 this is write-through. A page whose spill fails stays hot and
        // readable; the writer hears the error.
        let spilled = if self.tier.hot_pages > (self.hot_capacity as u64).saturating_mul(2) {
            self.drain_hot_to(self.hot_capacity).map(drop)
        } else {
            Ok(())
        };
        timed(timer, spilled)
    }

    /// Reads the page at `addr`.
    pub fn read(&mut self, addr: PageAddr) -> Result<Page<Bytes>> {
        self.stats.reads += 1;
        let timer = self.metrics.read_service_ns.start_sampled(&self.metrics.sampler);
        // Every non-error outcome counts as service time: the device does
        // index work whether or not the page holds data.
        let read = self.page(addr, Bytes::clone, |device| cold_data(addr, device.get(addr)));
        timed(timer, read)
    }

    /// Reads a batch of pages in one device operation: the cold ones are
    /// handed to the device together, which reads each run of them that
    /// sits back to back in a segment file with one `pread`. Wear accounting
    /// still charges one read per page, but the sampled service timer covers
    /// the whole batch — that asymmetry is the point of batching.
    pub fn read_many(&mut self, addrs: &[PageAddr]) -> Result<Vec<Page<Bytes>>> {
        self.stats.reads += addrs.len() as u64;
        let timer = self.metrics.read_service_ns.start_sampled(&self.metrics.sampler);
        let mut reads = Vec::with_capacity(addrs.len());
        let mut failed = None;
        let mut cold = Vec::new();
        // The index answers for every page it holds; the cold data pages go
        // to the device in one call, and only if there are any. Until then
        // a cold page's data is empty.
        for (at, &addr) in addrs.iter().enumerate() {
            let read = self.page(addr, Bytes::clone, |_| {
                cold.push(at);
                Ok(Bytes::new())
            });
            reads.push(read?);
        }
        if !cold.is_empty() {
            self.device().get_many(cold.iter().map(|&at| addrs[at]), |k, got| {
                match cold_data(addrs[cold[k]], got) {
                    Ok(bytes) => reads[cold[k]] = Page::Data(bytes),
                    Err(e) => drop(failed.get_or_insert(e)),
                }
            });
        }
        timed(timer, failed.map_or(Ok(reads), Err))
    }

    /// Reads the page at `addr` as [`FlashUnit::read`] does, and counts and
    /// times it the same, but lends its data instead of copying it: a hot
    /// page's from its slot, a cold one's from where its record lies in
    /// `ahead`, the buffer of the walk this read is a step of. A walk that
    /// reads down through the records of a segment reads most of them with
    /// the `pread` of a record above them.
    pub fn lend<'a>(
        &'a mut self,
        addr: PageAddr,
        ahead: &'a mut Readahead,
    ) -> Result<Page<&'a [u8]>> {
        self.stats.reads += 1;
        let timer = self.metrics.read_service_ns.start_sampled(&self.metrics.sampler);
        let this: &'a Self = self;
        let lent =
            this.page(addr, |bytes| &bytes[..], |device| cold_data(addr, device.lend(addr, ahead)));
        timed(timer, lent)
    }

    /// What `addr` holds, its data `hot` of a hot page's slot or `cold` of
    /// the device that holds a cold one's record: the one place a read
    /// looks at a slot.
    fn page<'a, D>(
        &'a self,
        addr: PageAddr,
        hot: impl FnOnce(&'a Bytes) -> D,
        cold: impl FnOnce(&'a FileStore) -> Result<D>,
    ) -> Result<Page<D>> {
        Ok(match self.slot(addr) {
            Slot::Unwritten => Page::Unwritten,
            Slot::Trimmed => Page::Trimmed,
            Slot::HotJunk | Slot::ColdJunk => Page::Junk,
            Slot::HotData(bytes) => Page::Data(hot(bytes)),
            Slot::ColdData => Page::Data(cold(self.device())?),
        })
    }

    /// The cold device, for a page the index holds as cold.
    fn device(&self) -> &FileStore {
        self.cold.as_ref().expect("only a unit with a device has cold slots")
    }

    /// `addr`'s slot; below the horizon, a trimmed one.
    fn slot(&self, addr: PageAddr) -> &Slot {
        if addr < self.prefix_trim {
            return TRIMMED;
        }
        self.table.get(addr)
    }

    /// Takes a slot that is being emptied or trimmed out of the occupancy
    /// counts; true if it held a live page.
    fn release(tier: &mut TierStats, slot: &Slot) -> bool {
        match slot {
            Slot::HotData(_) | Slot::HotJunk => tier.hot_pages -= 1,
            Slot::ColdData | Slot::ColdJunk => tier.cold_pages -= 1,
            Slot::Unwritten | Slot::Trimmed => return false,
        }
        true
    }

    /// Trims a single address, releasing its payload. The address remains
    /// consumed: it will never accept a write again. Over a cold device a
    /// tombstone is appended whichever tier the page was in.
    pub fn trim(&mut self, addr: PageAddr) -> Result<()> {
        if addr < self.prefix_trim {
            return Ok(());
        }
        let end = after(addr)?;
        let timer = self.metrics.trim_service_ns.start_sampled(&self.metrics.sampler);
        let marked = self.cold.as_mut().map_or(Ok(()), |cold| cold.mark_trimmed(addr));
        if marked.is_ok() {
            let old = std::mem::replace(self.table.get_mut(addr), Slot::Trimmed);
            Self::release(&mut self.tier, &old);
            self.local_tail = self.local_tail.max(end);
            self.stats.random_trims += 1;
        }
        timed(timer, marked)
    }

    /// Trims every address strictly below `horizon` (sequential trim, the
    /// cheap kind). Idempotent; a lower horizon than the current one is a
    /// no-op.
    ///
    /// Over a cold device, segment files wholly below the horizon are
    /// unlinked — one `unlink` instead of a tombstone per page, which is what
    /// makes sequential trims cheap on flash (§2.2: the device erases whole
    /// blocks) — and only the cold pages of the segment straddling the
    /// horizon get tombstones. The horizon is persisted before the unlinks,
    /// so recovery after a crash between the two ignores the stale records.
    pub fn trim_prefix(&mut self, horizon: PageAddr) -> Result<()> {
        if horizon <= self.prefix_trim {
            return Ok(());
        }
        let timer = self.metrics.trim_service_ns.start_sampled(&self.metrics.sampler);
        timed(timer, self.reclaim_below(horizon))
    }

    fn reclaim_below(&mut self, horizon: PageAddr) -> Result<()> {
        if let Some(cold) = &mut self.cold {
            let pps = cold.pages_per_segment();
            for (addr, slot) in self.table.slots_from(horizon / pps * pps) {
                if addr >= horizon {
                    break;
                }
                if matches!(slot, Slot::ColdData | Slot::ColdJunk) {
                    cold.mark_trimmed(addr)?;
                }
            }
            cold.put_meta(self.epoch, horizon)?;
        }
        let (tier, stats) = (&mut self.tier, &mut self.stats);
        self.table.clear_below(horizon, |slot| {
            stats.prefix_trimmed_pages += !matches!(slot, Slot::Unwritten) as u64;
            tier.reclaimed_pages += Self::release(tier, slot) as u64;
        });
        self.prefix_trim = horizon;
        self.local_tail = self.local_tail.max(horizon);
        if let Some(cold) = &mut self.cold {
            self.tier.reclaimed_segments += cold.remove_segments_below(horizon)?.len() as u64;
        }
        Ok(())
    }

    /// Seals the unit at `epoch`, returning the local tail. Requests carrying
    /// an older epoch must be rejected by the storage server above. Sealing
    /// at an epoch not greater than the current one fails. The epoch is
    /// adopted only once it is persisted, so a failed seal can be retried.
    pub fn seal(&mut self, epoch: u64) -> Result<PageAddr> {
        if epoch <= self.epoch {
            return Err(FlashError::Sealed { current_epoch: self.epoch });
        }
        if let Some(cold) = &mut self.cold {
            cold.put_meta(epoch, self.prefix_trim)?;
        }
        self.epoch = epoch;
        Ok(self.local_tail)
    }

    /// The durability point: writes every hot page to the cold device and
    /// flushes it. A no-op without one.
    pub fn sync(&mut self) -> Result<()> {
        self.drain_hot_to(0)?;
        self.cold.as_mut().map_or(Ok(()), FileStore::sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{unit_on, MemDisk};

    fn unit() -> FlashUnit {
        FlashUnit::in_memory(4096)
    }

    #[test]
    fn write_once_enforced() {
        let mut u = unit();
        u.write(7, b"abc").unwrap();
        assert_eq!(u.write(7, b"xyz"), Err(FlashError::AlreadyWritten { addr: 7 }));
        assert_eq!(u.fill(7), Err(FlashError::AlreadyWritten { addr: 7 }));
        assert_eq!(u.read(7).unwrap(), Page::Data(bytes::Bytes::from_static(b"abc")));
    }

    #[test]
    fn fill_then_write_rejected() {
        let mut u = unit();
        u.fill(3).unwrap();
        assert_eq!(u.write(3, b"late"), Err(FlashError::AlreadyWritten { addr: 3 }));
        assert_eq!(u.read(3).unwrap(), Page::Junk);
    }

    #[test]
    fn unwritten_reads_and_tail() {
        let mut u = unit();
        assert_eq!(u.read(0).unwrap(), Page::Unwritten);
        assert_eq!(u.local_tail(), 0);
        u.write(5, b"sparse").unwrap();
        assert_eq!(u.local_tail(), 6);
        assert_eq!(u.read(2).unwrap(), Page::Unwritten);
    }

    #[test]
    fn read_many_mirrors_single_reads() {
        let mut u = unit();
        u.write(1, b"one").unwrap();
        u.fill(2).unwrap();
        u.write(4, b"four").unwrap();
        u.trim(4).unwrap();
        let before = u.stats().reads;
        let out = u.read_many(&[0, 1, 2, 4]).unwrap();
        assert_eq!(
            out,
            vec![
                Page::Unwritten,
                Page::Data(bytes::Bytes::from_static(b"one")),
                Page::Junk,
                Page::Trimmed,
            ]
        );
        // Wear accounting charges one read per page even in a batch.
        assert_eq!(u.stats().reads, before + 4);
        assert_eq!(u.read_many(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn trim_keeps_address_consumed() {
        let mut u = unit();
        u.write(1, b"v").unwrap();
        u.trim(1).unwrap();
        assert_eq!(u.read(1).unwrap(), Page::Trimmed);
        assert_eq!(u.write(1, b"again"), Err(FlashError::AlreadyWritten { addr: 1 }));
        assert_eq!(u.stats().random_trims, 1);
    }

    #[test]
    fn prefix_trim_reclaims_and_rejects() {
        let mut u = unit();
        for addr in 0..10 {
            u.write(addr, b"x").unwrap();
        }
        u.trim_prefix(5).unwrap();
        for addr in 0..5 {
            assert_eq!(u.read(addr).unwrap(), Page::Trimmed);
            assert_eq!(u.write(addr, b"y"), Err(FlashError::Trimmed { addr }));
        }
        assert_eq!(u.read(5).unwrap(), Page::Data(bytes::Bytes::from_static(b"x")));
        assert_eq!(u.stats().prefix_trimmed_pages, 5);
        // Lower horizon is a no-op.
        u.trim_prefix(2).unwrap();
        assert_eq!(u.local_tail(), 10);
    }

    #[test]
    fn occupancy_counts_live_pages() {
        let mut u = unit();
        for addr in 0..6 {
            u.write(addr, b"x").unwrap();
        }
        u.fill(6).unwrap();
        assert_eq!(u.live_pages(), 7);
        u.trim(3).unwrap();
        assert_eq!(u.live_pages(), 6);
        // Trimming a trimmed or unwritten address changes nothing.
        u.trim(3).unwrap();
        u.trim(100).unwrap();
        assert_eq!(u.live_pages(), 6);
        u.trim_prefix(5).unwrap();
        // 0,1,2,4 were live below the horizon; 3 was already trimmed.
        assert_eq!(u.live_pages(), 2);
    }

    #[test]
    fn advance_trim_horizon_converts_contiguous_random_trims() {
        let mut u = unit();
        for addr in 0..6 {
            u.write(addr, b"x").unwrap();
        }
        u.trim(0).unwrap();
        u.trim(1).unwrap();
        u.trim(4).unwrap(); // not contiguous with the prefix
        assert_eq!(u.advance_trim_horizon().unwrap(), 2);
        assert_eq!(u.prefix_trim(), 2);
        // 2 and 3 are still live, so the horizon cannot pass them.
        assert_eq!(u.advance_trim_horizon().unwrap(), 2);
        u.trim(2).unwrap();
        u.trim(3).unwrap();
        // Now 2..=4 are all marked: the horizon jumps over the whole run.
        assert_eq!(u.advance_trim_horizon().unwrap(), 5);
        assert_eq!(u.read(4).unwrap(), Page::Trimmed);
        assert_eq!(u.read(5).unwrap(), Page::Data(bytes::Bytes::from_static(b"x")));
        // A run that fills its chunk to the end does not go on in a chunk
        // far above that begins with a trimmed slot.
        for addr in (5..1024).chain([1 << 40]) {
            u.trim(addr).unwrap();
        }
        assert_eq!(u.advance_trim_horizon().unwrap(), 1024);
    }

    #[test]
    fn seal_is_monotone() {
        let mut u = unit();
        u.write(0, b"a").unwrap();
        assert_eq!(u.seal(1).unwrap(), 1);
        assert_eq!(u.seal(1), Err(FlashError::Sealed { current_epoch: 1 }));
        assert_eq!(u.seal(5).unwrap(), 1);
        assert_eq!(u.epoch(), 5);
    }

    #[test]
    fn seal_adopts_the_epoch_only_once_persisted() {
        // Each call of the meta write fails in turn: the temp file's create,
        // write and sync, the rename, the directory's sync.
        for call in 1..=5 {
            let disk = MemDisk::default();
            let mut u = unit_on(&disk, 64, 8, 0).unwrap();
            u.write(0, b"a").unwrap();
            disk.fail_in(call);
            assert!(matches!(u.seal(3), Err(FlashError::Io(_))), "call {call}");
            assert_eq!(u.epoch(), 0);
            assert_eq!(u.seal(3).unwrap(), 1);
            assert_eq!(unit_on(&disk, 64, 8, 0).unwrap().epoch(), 3);
        }
    }

    #[test]
    fn cold_reads_coalesce_and_an_open_reads_each_segment_once() {
        let disk = MemDisk::default();
        let page = |addr: u64| vec![addr as u8; 48];
        let mut u = unit_on(&disk, 4096, 64, 0).unwrap();
        for addr in 0..256 {
            u.write(addr, &page(addr)).unwrap();
        }
        let (u, reads) = disk.reads_in(|| unit_on(&disk, 4096, 64, 0));
        assert_eq!(reads, 4, "one read per segment");
        let mut u = u.unwrap();
        let addrs: Vec<u64> = (0..256).rev().collect();
        let (got, reads) = disk.reads_in(|| u.read_many(&addrs).unwrap());
        assert!(reads <= 64, "{reads} preads for 256 pages");
        let want: Vec<_> = addrs.iter().map(|&a| Page::Data(page(a).into())).collect();
        assert_eq!(got, want);
        // A batch the index answers alone costs the device nothing.
        u.fill(300).unwrap();
        let (got, reads) = disk.reads_in(|| u.read_many(&[1000, 300]).unwrap());
        assert_eq!((got, reads), (vec![Page::Unwritten, Page::Junk], 0));
    }

    /// A walk down a stream as a storage node walks one: each page of the
    /// stream names the `stride`-apart four below it, the highest address
    /// the pages read lead to is read next, none below `floor`, and a page
    /// that is no data or fails to read leads nowhere. Every address walked,
    /// with what it read as.
    fn walk(u: &mut FlashUnit, top: PageAddr, stride: u64, floor: PageAddr) -> Walked {
        let mut ahead = Readahead::down_to(floor);
        let (mut pending, mut walked) = (vec![top], Vec::new());
        while let Some(addr) = pending.pop() {
            let read = u.lend(addr, &mut ahead).map(Page::to_owned);
            if let Ok(Page::Data(_)) = read {
                let below = (1..=4).filter_map(|k| addr.checked_sub(k * stride));
                for to in below.filter(|&to| to >= floor) {
                    if let Err(at) = pending.binary_search(&to) {
                        pending.insert(at, to);
                    }
                }
            }
            walked.push((addr, read));
        }
        walked
    }

    type Walked = Vec<(PageAddr, Result<Page<Bytes>>)>;

    fn data(bytes: Vec<u8>) -> Result<Page<Bytes>> {
        Ok(Page::Data(bytes.into()))
    }

    #[test]
    fn a_walk_skips_only_the_page_that_fails() {
        let disk = MemDisk::default();
        let mut u = unit_on(&disk, 64, 8, 0).unwrap();
        for addr in 0..8 {
            u.write(addr, &[addr as u8; 4]).unwrap();
        }
        // Rot record 5's payload behind the unit's back.
        disk.corrupt("seg-0.dat", 5 * 36 + 32, b"X");
        let (walked, reads) = disk.reads_in(|| walk(&mut u, 7, 1, 0));
        // The walk reaches the pages below 5 through 6's and 7's other
        // pointers, and the one `pread` that served them all still serves
        // them after the page that failed its CRC.
        let addrs: Vec<PageAddr> = walked.iter().map(|&(addr, _)| addr).collect();
        assert_eq!((addrs, reads), ((0..8).rev().collect(), 1));
        for (addr, read) in walked {
            match addr {
                5 => assert!(matches!(read, Err(FlashError::Corrupt(_))), "{read:?}"),
                _ => assert_eq!(read, data(vec![addr as u8; 4])),
            }
        }
        assert!(matches!(u.read_many(&[4, 5]), Err(FlashError::Corrupt(_))));
        assert_eq!(u.stats().reads, 10);
    }

    #[test]
    fn a_walk_reads_its_stream_through_a_few_growing_preads() {
        let disk = MemDisk::default();
        let page = |addr: u64| vec![addr as u8; 48];
        let mut u = unit_on(&disk, 4096, 64, 0).unwrap();
        for addr in 0..256 {
            u.write(addr, &page(addr)).unwrap();
        }
        // Four segments of 64 records of 80 bytes: a `pread` at the top of
        // the first, one that reaches its start, and one for each of the
        // others. Batches of the four pages an entry names read about one
        // record in four.
        let (walked, preads) = disk.preads_in(|| walk(&mut u, 255, 1, 0));
        assert!(preads.len() <= 8, "{preads:?}");
        let want: Walked = (0..256).rev().map(|addr| (addr, data(page(addr)))).collect();
        assert_eq!(walked, want);
        // A page walked is a page read, hot or cold.
        assert_eq!(u.stats().reads, 256);
        let mut u = unit_on(&disk, 4096, 64, 512).unwrap();
        for addr in 256..300 {
            u.write(addr, &page(addr)).unwrap();
        }
        let (walked, preads) = disk.preads_in(|| walk(&mut u, 299, 1, 200));
        assert_eq!(walked.len(), 100);
        assert!(walked.iter().all(|(addr, read)| *read == data(page(*addr))));
        // The 44 hot pages cost none; the cold ones stop at the floor's.
        assert_eq!((preads.len(), u.stats().reads), (2, 100), "{preads:?}");
    }

    #[test]
    fn a_sparse_walk_reads_less_than_batches_do_and_at_most_16_kib_at_once() {
        let disk = MemDisk::default();
        let page = |addr: u64| vec![addr as u8; 200];
        let mut u = unit_on(&disk, 4096, 256, 0).unwrap();
        for addr in 0..1024 {
            u.write(addr, &page(addr)).unwrap();
        }
        // The walked stream is every eighth page.
        let (walked, preads) = disk.preads_in(|| walk(&mut u, 1023, 8, 0));
        assert_eq!(walked.len(), 128);
        assert!(walked.iter().all(|(addr, read)| *read == data(page(*addr))));
        assert!(preads.iter().all(|&len| len <= 16 * 1024), "{preads:?}");
        // Reading, as one batch at a time, every address the pages read so
        // far led to: four records eight apart, four `pread`s.
        let (mut batched, mut known) = (0, std::collections::BTreeSet::new());
        let mut batch = vec![1023u64];
        while !batch.is_empty() {
            batched += disk.reads_in(|| u.read_many(&batch).unwrap()).1;
            let led =
                batch.iter().flat_map(|&addr| (1..=4).filter_map(move |k| addr.checked_sub(8 * k)));
            let mut next: Vec<u64> = led.filter(|&to| known.insert(to)).collect();
            next.sort_unstable_by(|a, b| b.cmp(a));
            batch = next;
        }
        assert_eq!(batched, 128);
        assert!(preads.len() as u64 <= batched / 4, "{} preads, {batched} batched", preads.len());
    }

    #[test]
    fn a_walk_stops_at_a_trimmed_segment_below_its_floor_without_reading_it() {
        let disk = MemDisk::default();
        let page = |addr: u64| vec![addr as u8; 48];
        let mut u = unit_on(&disk, 4096, 64, 0).unwrap();
        for addr in 0..192 {
            u.write(addr, &page(addr)).unwrap();
        }
        u.trim_prefix(64).unwrap();
        // A floor below the horizon: the trimmed pages read as such from
        // the index and lead nowhere, and segment 0 is gone.
        let (walked, preads) = disk.preads_in(|| walk(&mut u, 191, 1, 40));
        let trimmed: Vec<PageAddr> = (walked.iter())
            .filter(|(_, read)| *read == Ok(Page::Trimmed))
            .map(|&(addr, _)| addr)
            .collect();
        assert_eq!((walked.len(), trimmed), (132, vec![63, 62, 61, 60]));
        assert!(preads.len() <= 4, "{preads:?}");
        // A floor inside a segment: no byte below its record is read.
        let (walked, preads) = disk.preads_in(|| walk(&mut u, 127, 1, 96));
        assert_eq!(walked.len(), 32);
        assert_eq!(preads, [32 * 80]);
    }

    #[test]
    fn reopening_over_an_unreadable_segment_fails() {
        let disk = MemDisk::default();
        let mut u = unit_on(&disk, 64, 8, 0).unwrap();
        u.write(1, b"synced").unwrap();
        u.sync().unwrap();
        // Whichever call of the open fails — the listing, a meta read, the
        // segment's open, length or read — the open fails: the page is not
        // absent, and its address must not take a second write.
        for call in 1.. {
            disk.fail_in(call);
            match unit_on(&disk, 64, 8, 0) {
                Err(e) => assert!(matches!(e, FlashError::Io(_)), "call {call}: {e}"),
                Ok(_) => {
                    assert_eq!(call, 7, "an open makes six calls");
                    break;
                }
            }
        }
    }

    #[test]
    fn the_last_address_takes_no_page() {
        let last = PageAddr::MAX;
        let mut u = unit();
        u.write(last - 1, b"x").unwrap();
        assert_eq!(u.write(last, b"y"), Err(FlashError::OutOfRange { addr: last }));
        assert_eq!(u.fill(last), Err(FlashError::OutOfRange { addr: last }));
        assert_eq!(u.trim(last), Err(FlashError::OutOfRange { addr: last }));
        assert_eq!((u.read(last).unwrap(), u.local_tail()), (Page::Unwritten, last));
        assert_eq!(u.stats().rejected_writes, 0);
        u.trim(last - 1).unwrap();
        assert_eq!((u.read(last - 1).unwrap(), u.local_tail()), (Page::Trimmed, last));
        // Nor does a record a device holds for it.
        let disk = MemDisk::default();
        let mut store = FileStore::with_disk(Box::new(disk.clone()), 64, 8).unwrap();
        store.put(last, PageKind::Data, b"z").unwrap();
        assert!(matches!(unit_on(&disk, 64, 8, 0), Err(FlashError::OutOfRange { .. })));
    }

    #[test]
    fn far_apart_pages_hold_a_chunk_each_until_trimmed() {
        let mut u = unit();
        // The last slot of 16 chunks far apart, and one page in the chunk
        // after the last of them.
        let far: Vec<PageAddr> = (0..16).map(|i| i << 40 | 1023).collect();
        let near = far[15] + 5;
        for &addr in far.iter().chain([&near]) {
            u.write(addr, b"page").unwrap();
        }
        assert_eq!(u.table.chunk_count(), 17);
        assert_eq!(u.read(far[15] + 1).unwrap(), Page::Unwritten);
        // A horizon inside the near page's chunk: the far ones go whole.
        u.trim_prefix(near - 2).unwrap();
        assert_eq!((u.table.chunk_count(), u.live_pages()), (1, 1));
        assert_eq!(u.stats().prefix_trimmed_pages, 16);
        assert_eq!(u.read(near).unwrap(), Page::Data(Bytes::from_static(b"page")));
        assert_eq!(u.advance_trim_horizon().unwrap(), near - 2);
        u.write(near - 1, b"next").unwrap();
        assert_eq!(u.table.chunk_count(), 1);
        // A horizon past every page leaves no chunk below it.
        u.trim_prefix(1 << 50).unwrap();
        assert_eq!((u.table.chunk_count(), u.live_pages()), (0, 0));
    }

    #[test]
    fn a_slot_is_no_wider_than_a_page_handle_and_a_tag() {
        // One slot per page: PR 15 measured +4 % RSS from 16 more bytes.
        // Where a cold page's record sits is the device's table, not this.
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn service_time_histograms_record_per_op() {
        use tango_metrics::{Registry, Sampler};
        let registry = Registry::new();
        let mut metrics = crate::FlashMetrics::from_registry(&registry);
        metrics.sampler = Sampler::one_in(1); // every op, for determinism
        let mut u = unit();
        u.set_metrics(metrics);

        u.write(0, b"a").unwrap();
        u.read(0).unwrap();
        u.fill(1).unwrap();
        u.trim(0).unwrap();
        u.write(2, b"b").unwrap();
        u.write(3, b"c").unwrap();
        u.trim_prefix(3).unwrap();
        // Rejected work is arbitration, not service time.
        assert!(u.write(3, b"again").is_err());

        let snap = registry.snapshot();
        let count = |name: &str| snap.histogram(name).unwrap().count();
        assert_eq!(count("flash.write.service_ns"), 3);
        assert_eq!(count("flash.read.service_ns"), 1);
        assert_eq!(count("flash.fill.service_ns"), 1);
        // One random trim + one prefix trim.
        assert_eq!(count("flash.trim.service_ns"), 2);
    }

    #[test]
    fn page_size_enforced() {
        let mut u = FlashUnit::in_memory(8);
        assert!(matches!(u.write(0, &[0u8; 9]), Err(FlashError::PageTooLarge { .. })));
        u.write(0, &[0u8; 8]).unwrap();
    }
}
