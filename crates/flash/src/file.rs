//! Segmented, append-only record files.
//!
//! Layout:
//!
//! * `<dir>/meta` — unit metadata (magic, geometry, epoch, prefix-trim),
//!   rewritten atomically via a temp file + rename. A store is given one when
//!   it is created, before any segment, so segment files without a meta are
//!   not a store of this layout.
//! * `<dir>/seg-<n>.dat` — the records of pages `n * pages_per_segment ..
//!   (n + 1) * pages_per_segment`, back to back in the order they were
//!   written. A record is a 32-byte header — magic, kind (data, junk or
//!   trimmed), payload length, CRC-32C of the payload, the page address, and a
//!   CRC-32C of those — followed by the payload: a page occupies the bytes it
//!   holds. Each record is one `pwrite` at the end of its segment.
//!
//! Nothing is rewritten in place. A trim appends a tombstone, and the newest
//! record of an address is the one that counts. Each segment keeps a table of
//! where every page's newest record sits, built by the appends and, when a
//! store is opened, by parsing the file in order: a header that fails its
//! checks costs that record only (the parse resynchronises on the next header
//! whose magic, checksum and address check), a record cut short by the end of
//! the file ends the segment, and a data record whose payload fails its CRC
//! stays in the table but not in [`FileStore::scan`]'s answer. A torn or
//! corrupt record is therefore never a page to the unit above: it reads as
//! unwritten, which is safe because CORFU clients retry or fill incomplete
//! writes. Appends resume at the end of the last whole record.
//!
//! Durability: a record is durable once a `sync` follows its append, and a
//! `sync` also syncs the directory if a segment file was created since it
//! was last synced — a create, rename or unlink is durable only after that.
//! The meta is written to a temp file, synced, renamed over the old one, and
//! the directory synced, so the epoch and the horizon it holds are durable
//! when [`FileStore`] reports them written; a store's first meta is durable
//! before its first segment exists. Unlinking the segments below a horizon
//! needs no directory sync: one that comes back lies below a durable horizon.

use std::io;
use std::path::Path;

use bytes::Bytes;
use tango_wire::{crc32c, IdMap};

use crate::disk::{Disk, DiskFile, StdDisk};
use crate::store::{PageKind, ScannedPage, ScannedState, ScrubReport};
use crate::{FlashError, PageAddr, Result};

const RECORD_MAGIC: u32 = 0xC0_4F_5E_03;
const META_MAGIC: u32 = 0xC0_4F_5E_04;
const HEADER_LEN: usize = 32;
const META: &str = "meta";
const META_TMP: &str = "meta.tmp";

const STATE_DATA: u8 = 1;
const STATE_JUNK: u8 = 2;
const STATE_TRIMMED: u8 = 3;
/// In a segment's table only: a data record whose payload failed its CRC
/// when the segment was parsed.
const STATE_TORN: u8 = 4;

/// Where a page's newest record sits in its segment file. A `state` of 0
/// means the page has none.
#[derive(Debug, Default, Clone, Copy)]
struct Loc {
    off: u64,
    len: u32,
    state: u8,
}

impl Loc {
    fn end(&self) -> u64 {
        self.off + self.len as u64
    }
}

/// One open segment file and the table of its records.
struct Segment {
    file: Box<dyn DiskFile>,
    /// Each page's newest record, by the page's place in the segment.
    locs: Vec<Loc>,
    /// The end of the last whole record: where the next one is written.
    end: u64,
}

/// The bytes one walk down the cold device read last: one `pread` of a
/// segment file that ends with the record the walk asked for and reaches
/// below it, where a walk down a stream lands next. A segment holds its
/// records in the order they were written, which is address order for a log.
///
/// It lives for one walk under the unit's lock, so no write can change what
/// it holds. Every record served from it is checked as a single read checks
/// one: its header, its address and its payload's CRC.
pub struct Readahead {
    /// The lowest address the walk reads: the window reaches no record
    /// below this one's in its segment.
    floor: PageAddr,
    /// The segment the buffer holds bytes of, the file offset of its first
    /// byte, and how many of its bytes the last `pread` filled.
    seg: u64,
    start: u64,
    held: usize,
    buf: Vec<u8>,
    /// How far below a missed record the next `pread` reaches, and the
    /// records served from the buffer since it was filled.
    window: usize,
    served: usize,
}

/// A walk's first `pread` is four times as long as the record it missed, and
/// at least this long; while the walk keeps landing in what it read, each
/// next one is twice as long as the last, up to [`MAX_WINDOW`].
const MIN_WINDOW: usize = 4 * 1024;
const MAX_WINDOW: usize = 16 * 1024;

impl Readahead {
    /// A walk that reads no address below `floor`. It allocates its buffer
    /// at its first `pread`.
    pub fn down_to(floor: PageAddr) -> Self {
        Self { floor, seg: 0, start: 0, held: 0, buf: Vec::new(), window: 0, served: 0 }
    }

    /// The record at `loc` of segment `seg`, if the buffer holds all of it.
    fn record(&self, seg: u64, loc: Loc) -> Option<&[u8]> {
        let off = loc.off.checked_sub(self.start).filter(|_| seg == self.seg)? as usize;
        self.buf[..self.held].get(off..off + loc.len as usize)
    }
}

/// A record header's fields, once its magic, checksum and shape checked.
struct Header {
    state: u8,
    len: usize,
    crc: u32,
    addr: PageAddr,
}

/// The cold device under a [`crate::FlashUnit`]: segmented record files.
///
/// A dumb page device — write-once enforcement, sealing and trim bookkeeping
/// live in the unit. It persists page payloads, trim markers and the unit
/// metadata (epoch, prefix-trim horizon).
pub struct FileStore {
    disk: Box<dyn Disk>,
    page_size: usize,
    pages_per_segment: u64,
    segments: IdMap<u64, Segment>,
    /// A segment file was created since the directory was last synced.
    created: bool,
}

impl FileStore {
    /// Opens (or creates) a store rooted at `dir` with the given geometry,
    /// reading each segment file once to learn where its records are.
    ///
    /// Opening an existing store validates that the geometry matches what it
    /// was created with. A store in another layout is refused as `Corrupt`;
    /// a segment that cannot be read fails the open.
    pub fn open(dir: impl AsRef<Path>, page_size: usize, pages_per_segment: u64) -> Result<Self> {
        let disk = StdDisk::open(dir.as_ref().to_path_buf())?;
        Self::with_disk(Box::new(disk), page_size, pages_per_segment)
    }

    /// [`FileStore::open`] over any disk.
    pub(crate) fn with_disk(
        disk: Box<dyn Disk>,
        page_size: usize,
        pages_per_segment: u64,
    ) -> Result<Self> {
        let segments = IdMap::default();
        let mut store = Self { disk, page_size, pages_per_segment, segments, created: false };
        let seg_ids = store.segment_files()?;
        match store.read_meta()? {
            Some((stored_page_size, stored_pps, _, _)) => {
                if stored_page_size != page_size as u64 || stored_pps != pages_per_segment {
                    return Err(FlashError::Corrupt(format!(
                        "geometry mismatch: store has page_size={stored_page_size}, \
                         pages_per_segment={stored_pps}"
                    )));
                }
            }
            None if !seg_ids.is_empty() => {
                return Err(FlashError::Corrupt("segment files without a meta".into()));
            }
            None => store.put_meta(0, 0)?,
        }
        for seg in seg_ids {
            let segment = store.open_segment(seg)?;
            store.segments.insert(seg, segment);
        }
        Ok(store)
    }

    /// The ids of the segment files in the directory.
    fn segment_files(&self) -> Result<Vec<u64>> {
        let mut seg_ids = Vec::new();
        for name in self.disk.list()? {
            if let Some(rest) = name.strip_prefix("seg-").and_then(|r| r.strip_suffix(".dat")) {
                if let Ok(id) = rest.parse::<u64>() {
                    seg_ids.push(id);
                }
            }
        }
        Ok(seg_ids)
    }

    /// Opens an existing segment file and parses it: one read of the whole
    /// file.
    fn open_segment(&self, seg: u64) -> Result<Segment> {
        let file = self.disk.open(&segment_name(seg), false)?;
        let mut bytes = vec![0u8; file.size()? as usize];
        let got = file.pread(&mut bytes, 0)?;
        let mut segment = Segment { file, locs: self.empty_table(), end: 0 };
        self.parse(seg, &bytes[..got], &mut segment);
        Ok(segment)
    }

    fn empty_table(&self) -> Vec<Loc> {
        vec![Loc::default(); self.pages_per_segment as usize]
    }

    /// Fills `segment`'s table from the file's bytes, in the order they were
    /// written: a later record of an address supersedes an earlier one.
    fn parse(&self, seg: u64, bytes: &[u8], segment: &mut Segment) {
        let first = seg * self.pages_per_segment;
        let mut at = 0;
        while let Some(head) = bytes.get(at..at + HEADER_LEN) {
            let header = decode_header(head, self.page_size)
                .filter(|h| h.addr.wrapping_sub(first) < self.pages_per_segment);
            let Some(h) = header else {
                // Not a header: the next one may start a byte further on.
                at += 1;
                continue;
            };
            let len = HEADER_LEN + h.len;
            // A record the file ends inside is the torn last write.
            let Some(payload) = bytes.get(at + HEADER_LEN..at + len) else { break };
            let state = match h.state {
                STATE_DATA if crc32c(payload) != h.crc => STATE_TORN,
                state => state,
            };
            segment.locs[(h.addr - first) as usize] =
                Loc { off: at as u64, len: len as u32, state };
            at += len;
            segment.end = at as u64;
        }
    }

    /// The segment `addr` is in and where its newest record sits, if it has
    /// one.
    fn locate(&self, addr: PageAddr) -> Option<(u64, &Segment, Loc)> {
        let seg_id = addr / self.pages_per_segment;
        let seg = self.segments.get(&seg_id)?;
        let loc = seg.locs[(addr % self.pages_per_segment) as usize];
        (loc.state != 0).then_some((seg_id, seg, loc))
    }

    /// Checks the record `bytes`, read where `addr`'s newest one sits, and
    /// returns its kind and payload: `None` if its header does not check or is
    /// another page's, `Corrupt` if a data payload fails its CRC.
    fn check<'a>(&self, bytes: &'a [u8], addr: PageAddr) -> Result<Option<(u8, &'a [u8])>> {
        let Some(h) = decode_header(bytes, self.page_size).filter(|h| h.addr == addr) else {
            return Ok(None);
        };
        let Some(payload) = bytes.get(HEADER_LEN..HEADER_LEN + h.len) else { return Ok(None) };
        if h.state == STATE_DATA && crc32c(payload) != h.crc {
            return Err(FlashError::Corrupt(format!("payload CRC mismatch at {addr}")));
        }
        Ok(Some((h.state, payload)))
    }

    /// What the checked record `bytes` of `addr` holds, its payload copied
    /// out; a tombstone holds no page.
    fn decode(&self, bytes: &[u8], addr: PageAddr) -> Result<Option<(PageKind, Bytes)>> {
        Ok(match self.check(bytes, addr)? {
            Some((STATE_DATA, payload)) => Some((PageKind::Data, Bytes::copy_from_slice(payload))),
            Some((STATE_JUNK, _)) => Some((PageKind::Junk, Bytes::new())),
            _ => None,
        })
    }

    fn read_meta(&self) -> Result<Option<(u64, u64, u64, u64)>> {
        match self.disk.read(META) {
            Ok(bytes) => Self::decode_meta(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The number of pages each segment file holds the records of.
    pub fn pages_per_segment(&self) -> u64 {
        self.pages_per_segment
    }

    /// The number of segment files the store has.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Deletes every segment file whose entire address range falls strictly
    /// below `horizon`, returning the reclaimed segment ids. The caller must
    /// have persisted a prefix-trim horizon at or above `horizon` first, so
    /// a crash between the meta write and the unlinks recovers cleanly (the
    /// unit ignores addresses below the horizon either way).
    pub fn remove_segments_below(&mut self, horizon: PageAddr) -> Result<Vec<u64>> {
        let pps = self.pages_per_segment;
        let mut removed: Vec<u64> = (self.segments.keys().copied())
            .filter(|seg| (seg + 1).saturating_mul(pps) <= horizon)
            .collect();
        removed.sort_unstable();
        for &seg in &removed {
            self.segments.remove(&seg);
            self.disk.unlink(&segment_name(seg))?;
        }
        Ok(removed)
    }

    /// Page size, pages per segment, epoch and prefix-trim horizon.
    fn decode_meta(bytes: &[u8]) -> Result<(u64, u64, u64, u64)> {
        if bytes.len() != 40 {
            return Err(FlashError::Corrupt("bad meta length".into()));
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != META_MAGIC {
            return Err(FlashError::Corrupt("bad meta magic".into()));
        }
        let crc = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
        if crc32c(&bytes[..36]) != crc {
            return Err(FlashError::Corrupt("meta checksum mismatch".into()));
        }
        Ok((word(4), word(12), word(20), word(28)))
    }

    /// Appends a page payload (data or junk) for `addr`. The unit calls this
    /// at most once per live address.
    pub(crate) fn put(&mut self, addr: PageAddr, kind: PageKind, data: &[u8]) -> Result<()> {
        if data.len() > self.page_size {
            return Err(FlashError::PageTooLarge { len: data.len(), page_size: self.page_size });
        }
        let state = match kind {
            PageKind::Data => STATE_DATA,
            PageKind::Junk => STATE_JUNK,
        };
        self.append(addr, state, data)
    }

    /// Writes one record — header and payload in one `pwrite` — at the end
    /// of `addr`'s segment, and points the segment's table at it. A write
    /// that fails leaves the end where it was, so the next one overwrites
    /// whatever part of it landed.
    fn append(&mut self, addr: PageAddr, state: u8, payload: &[u8]) -> Result<()> {
        let header = encode_header(state, payload.len() as u32, crc32c(payload), addr);
        let record = [&header[..], payload].concat();
        let slot = (addr % self.pages_per_segment) as usize;
        let seg = self.segment_mut(addr / self.pages_per_segment)?;
        seg.file.pwrite(&record, seg.end)?;
        seg.locs[slot] = Loc { off: seg.end, len: record.len() as u32, state };
        seg.end += record.len() as u64;
        Ok(())
    }

    /// The segment `seg`, its file created if this is its first record.
    fn segment_mut(&mut self, seg: u64) -> Result<&mut Segment> {
        if !self.segments.contains_key(&seg) {
            let file = self.disk.open(&segment_name(seg), true)?;
            self.created = true;
            let segment = Segment { file, locs: self.empty_table(), end: 0 };
            self.segments.insert(seg, segment);
        }
        Ok(self.segments.get_mut(&seg).expect("just inserted"))
    }

    /// Reads `addr`'s newest record with one `pread`, or `None` if it holds
    /// no page.
    pub(crate) fn get(&self, addr: PageAddr) -> Result<Option<(PageKind, Bytes)>> {
        let Some((_, seg, loc)) = self.locate(addr) else { return Ok(None) };
        let mut bytes = vec![0u8; loc.len as usize];
        // A record past the end of its file — a segment truncated behind the
        // store's back — holds no page.
        if seg.file.pread(&mut bytes, loc.off)? < bytes.len() {
            return Ok(None);
        }
        self.decode(&bytes, addr)
    }

    /// Reads the newest records of `addrs` with one `pread` per run of them
    /// that sit back to back in a file, and hands `visit` each address's
    /// position in `addrs` and what its record holds, in file order. Every
    /// record is checked as [`FileStore::get`] checks it, and a run the device
    /// fails to read fails each of its records.
    pub(crate) fn get_many(
        &self,
        addrs: impl IntoIterator<Item = PageAddr>,
        mut visit: impl FnMut(usize, Result<Option<(PageKind, Bytes)>>),
    ) {
        let mut found = Vec::new();
        for (at, addr) in addrs.into_iter().enumerate() {
            match self.locate(addr) {
                Some((seg_id, _, loc)) => found.push((seg_id, loc, at, addr)),
                None => visit(at, Ok(None)),
            }
        }
        found.sort_unstable_by_key(|&(seg_id, loc, ..)| (seg_id, loc.off));
        let mut bytes = Vec::new();
        for run in
            found.chunk_by(|(a_seg, a, ..), (b_seg, b, ..)| a_seg == b_seg && a.end() == b.off)
        {
            let (seg_id, first) = (run[0].0, run[0].1.off);
            bytes.clear();
            bytes.resize((run[run.len() - 1].1.end() - first) as usize, 0);
            let got = match self.segments[&seg_id].file.pread(&mut bytes, first) {
                Ok(got) => got,
                Err(e) => {
                    let e = FlashError::from(e);
                    run.iter().for_each(|&(.., at, _)| visit(at, Err(e.clone())));
                    continue;
                }
            };
            for &(_, loc, at, addr) in run {
                let off = (loc.off - first) as usize;
                let read = bytes[..got]
                    .get(off..off + loc.len as usize)
                    .map_or(Ok(None), |record| self.decode(record, addr));
                visit(at, read);
            }
        }
    }

    /// Reads `addr`'s newest record as [`FileStore::get`] does, but lends
    /// its payload from where it lies in `ahead`, which reads it first if it
    /// does not hold all of it.
    pub(crate) fn lend<'b>(
        &self,
        addr: PageAddr,
        ahead: &'b mut Readahead,
    ) -> Result<Option<(PageKind, &'b [u8])>> {
        let Some((seg_id, seg, loc)) = self.locate(addr) else { return Ok(None) };
        if ahead.record(seg_id, loc).is_none() {
            self.read_ahead(seg_id, seg, loc, ahead)?;
        }
        ahead.served += 1;
        let ahead: &'b Readahead = ahead;
        // A record past the end of its file holds no page, as in `get`.
        let Some(record) = ahead.record(seg_id, loc) else { return Ok(None) };
        Ok(match self.check(record, addr)? {
            Some((STATE_DATA, payload)) => Some((PageKind::Data, payload)),
            Some((STATE_JUNK, _)) => Some((PageKind::Junk, &[])),
            _ => None,
        })
    }

    /// Fills `ahead` with one `pread` that ends with the record at `loc` and
    /// reaches below it: four times the record or [`MIN_WINDOW`] at first,
    /// twice the last one while the walk keeps landing in what it read, and
    /// never past [`MAX_WINDOW`] (unless the record is longer), the start of
    /// the segment or its lowest record of an address at or above the floor.
    fn read_ahead(
        &self,
        seg_id: u64,
        seg: &Segment,
        loc: Loc,
        ahead: &mut Readahead,
    ) -> Result<()> {
        ahead.window = if ahead.served > 1 {
            (ahead.window * 2).min(MAX_WINDOW)
        } else {
            (4 * loc.len as usize).clamp(MIN_WINDOW, MAX_WINDOW)
        };
        let floor_off = match ahead.floor.checked_sub(seg_id * self.pages_per_segment) {
            Some(slot) if slot < self.pages_per_segment => seg.locs[slot as usize..]
                .iter()
                .filter(|l| l.state != 0)
                .map(|l| l.off)
                .min()
                .unwrap_or(loc.off),
            _ => 0,
        };
        let start = loc.end().saturating_sub(ahead.window as u64).max(floor_off).min(loc.off);
        let len = (loc.end() - start) as usize;
        if ahead.buf.len() < len {
            ahead.buf.resize(len, 0);
        }
        (ahead.seg, ahead.start, ahead.held, ahead.served) = (seg_id, start, 0, 0);
        ahead.held = seg.file.pread(&mut ahead.buf[..len], start)?;
        Ok(())
    }

    /// Appends a tombstone for `addr`, releasing its payload; an address
    /// whose newest record is one already costs nothing.
    pub(crate) fn mark_trimmed(&mut self, addr: PageAddr) -> Result<()> {
        match self.locate(addr) {
            Some((.., loc)) if loc.state == STATE_TRIMMED => Ok(()),
            _ => self.append(addr, STATE_TRIMMED, &[]),
        }
    }

    /// Persists unit metadata, the seal epoch and the prefix-trim horizon,
    /// durably: the directory is synced after the rename.
    pub(crate) fn put_meta(&mut self, epoch: u64, prefix_trim: PageAddr) -> Result<()> {
        let mut bytes = Vec::with_capacity(40);
        bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(self.page_size as u64).to_le_bytes());
        bytes.extend_from_slice(&self.pages_per_segment.to_le_bytes());
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&prefix_trim.to_le_bytes());
        let crc = crc32c(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        self.disk.write_synced(META_TMP, &bytes)?;
        self.disk.rename(META_TMP, META)?;
        self.sync_dir()
    }

    /// Loads unit metadata: the epoch and the prefix-trim horizon.
    pub(crate) fn get_meta(&self) -> Result<Option<(u64, PageAddr)>> {
        Ok(self.read_meta()?.map(|(_, _, epoch, prefix_trim)| (epoch, prefix_trim)))
    }

    /// Every page whose newest record holds data, junk or a trim marker, by
    /// address, for crash recovery: what the open found, and what was
    /// appended since.
    pub(crate) fn scan(&self) -> Vec<ScannedPage> {
        let mut seg_ids: Vec<u64> = self.segments.keys().copied().collect();
        seg_ids.sort_unstable();
        let mut out = Vec::new();
        for seg in seg_ids {
            for (slot, loc) in (0..).zip(&self.segments[&seg].locs) {
                let state = match loc.state {
                    STATE_DATA => ScannedState::Data,
                    STATE_JUNK => ScannedState::Junk,
                    STATE_TRIMMED => ScannedState::Trimmed,
                    _ => continue,
                };
                out.push(ScannedPage { addr: seg * self.pages_per_segment + slot, state });
            }
        }
        out
    }

    /// Flushes the segment files to stable storage, and the directory if a
    /// segment file was created since it was last synced.
    pub(crate) fn sync(&mut self) -> Result<()> {
        for seg in self.segments.values() {
            seg.file.sync_data()?;
        }
        if self.created {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<()> {
        self.disk.sync_dir()?;
        self.created = false;
        Ok(())
    }

    /// Re-reads each segment file once and verifies every data record its
    /// table points at: header, address and payload CRC.
    pub(crate) fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for (&seg_id, seg) in &self.segments {
            let mut bytes = vec![0u8; seg.end as usize];
            let got = seg.file.pread(&mut bytes, 0)?;
            for (slot, loc) in (0..).zip(&seg.locs) {
                if !matches!(loc.state, STATE_DATA | STATE_TORN) {
                    continue;
                }
                report.pages_checked += 1;
                let addr = seg_id * self.pages_per_segment + slot;
                let record = bytes[..got].get(loc.off as usize..loc.end() as usize);
                let intact = record
                    .is_some_and(|r| matches!(self.check(r, addr), Ok(Some((STATE_DATA, _)))));
                report.errors += !intact as u64;
            }
        }
        Ok(report)
    }
}

fn segment_name(seg: u64) -> String {
    format!("seg-{seg}.dat")
}

fn encode_header(state: u8, len: u32, crc: u32, addr: PageAddr) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    h[4] = state;
    h[5..9].copy_from_slice(&len.to_le_bytes());
    h[9..13].copy_from_slice(&crc.to_le_bytes());
    h[13..21].copy_from_slice(&addr.to_le_bytes());
    // Header self-checksum over the first 21 bytes.
    let hcrc = crc32c(&h[..21]);
    h[21..25].copy_from_slice(&hcrc.to_le_bytes());
    h
}

/// The header at the start of `bytes`, if it is one: the magic, its own
/// checksum, a known kind, and a length that kind can have on a page of
/// `page_size` bytes.
fn decode_header(bytes: &[u8], page_size: usize) -> Option<Header> {
    let h = bytes.get(..HEADER_LEN)?;
    let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("four bytes"));
    if word(0) != RECORD_MAGIC || crc32c(&h[..21]) != word(21) {
        return None;
    }
    let (state, len) = (h[4], word(5) as usize);
    let shaped = match state {
        STATE_DATA => len <= page_size,
        STATE_JUNK | STATE_TRIMMED => len == 0,
        _ => false,
    };
    let addr = u64::from_le_bytes(h[13..21].try_into().expect("eight bytes"));
    shaped.then_some(Header { state, len, crc: word(9), addr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::MemDisk;

    const SEG0: &str = "seg-0.dat";

    fn on(disk: &MemDisk, page_size: usize, pages_per_segment: u64) -> FileStore {
        FileStore::with_disk(Box::new(disk.clone()), page_size, pages_per_segment).unwrap()
    }

    fn data(bytes: &'static [u8]) -> Option<(PageKind, Bytes)> {
        Some((PageKind::Data, Bytes::from_static(bytes)))
    }

    fn scanned(store: &FileStore) -> Vec<(PageAddr, ScannedState)> {
        store.scan().iter().map(|p| (p.addr, p.state)).collect()
    }

    #[test]
    fn get_reads_any_length_through_the_open_handle() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 1024, 4);
        // Empty to full, and in a segment's last place (3, 7).
        let lens = [(0u64, 0usize), (1, 1), (2, 480), (3, 481), (7, 1024)];
        let page = |len: usize| -> Vec<u8> { (0..len).map(|i| (i % 251) as u8).collect() };
        for &(addr, len) in &lens {
            store.put(addr, PageKind::Data, &page(len)).unwrap();
        }
        let check = |store: &FileStore| {
            for &(addr, len) in &lens {
                assert_eq!(
                    store.get(addr).unwrap(),
                    Some((PageKind::Data, Bytes::from(page(len)))),
                    "addr {addr}, {len} bytes"
                );
            }
            assert_eq!(store.get(4).unwrap(), None);
        };
        check(&store);
        check(&on(&disk, 1024, 4));
        // The store reads through the handles it holds: unlinking the files
        // behind its back does not take the pages away.
        disk.unlink(SEG0).unwrap();
        disk.unlink("seg-1.dat").unwrap();
        check(&store);
        assert_eq!(on(&disk, 1024, 4).get(0).unwrap(), None);
    }

    #[test]
    fn a_page_occupies_its_header_and_payload() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 4096, 64);
        store.put(0, PageKind::Data, &[1u8; 48]).unwrap();
        store.put(1, PageKind::Junk, &[]).unwrap();
        assert_eq!(disk.read(SEG0).unwrap().len(), HEADER_LEN + 48 + HEADER_LEN);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let disk = MemDisk::default();
        on(&disk, 256, 16);
        let reopened = FileStore::with_disk(Box::new(disk), 512, 16);
        assert!(matches!(reopened, Err(FlashError::Corrupt(_))));
    }

    #[test]
    fn a_store_in_the_slot_layout_is_refused() {
        // The slot layout's meta: its magic, then what this one holds.
        let disk = MemDisk::default();
        let mut meta = 0xC0_4F_5E_02u32.to_le_bytes().to_vec();
        [64u64, 4, 0, 0].iter().for_each(|word| meta.extend_from_slice(&word.to_le_bytes()));
        meta.extend_from_slice(&crc32c(&meta).to_le_bytes());
        disk.write_synced(META, &meta).unwrap();
        let open = || FileStore::with_disk(Box::new(disk.clone()), 64, 4);
        assert!(matches!(open(), Err(FlashError::Corrupt(_))));
        // Segment files and no meta: a slot-layout store never sealed or
        // trimmed.
        disk.unlink(META).unwrap();
        let mut slot = [0u8; HEADER_LEN + 64];
        slot[..4].copy_from_slice(&0xC0_4F_5E_01u32.to_le_bytes());
        disk.write_synced(SEG0, &slot).unwrap();
        assert!(matches!(open(), Err(FlashError::Corrupt(_))));
    }

    #[test]
    fn oversized_page_rejected() {
        let mut store = on(&MemDisk::default(), 8, 16);
        assert!(matches!(
            store.put(0, PageKind::Data, &[0u8; 9]),
            Err(FlashError::PageTooLarge { .. })
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 64, 16);
        store.put(3, PageKind::Data, b"payload-bytes").unwrap();
        store.put(4, PageKind::Data, b"after").unwrap();
        store.sync().unwrap();
        disk.corrupt(SEG0, HEADER_LEN, b"X");
        assert!(matches!(store.get(3), Err(FlashError::Corrupt(_))));
        let report = store.scrub().unwrap();
        assert_eq!((report.pages_checked, report.errors), (2, 1));
        // Reopened: the scan skips it as a torn write, a read still says
        // what it is, and so does a scrub.
        let store = on(&disk, 64, 16);
        assert_eq!(scanned(&store), vec![(4, ScannedState::Data)]);
        assert!(matches!(store.get(3), Err(FlashError::Corrupt(_))));
        assert_eq!(store.get(4).unwrap(), data(b"after"));
        let report = store.scrub().unwrap();
        assert_eq!((report.pages_checked, report.errors), (2, 1));
    }

    #[test]
    fn a_trimmed_address_takes_one_tombstone_however_often_it_is_trimmed() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 64, 16);
        store.put(2, PageKind::Data, b"x").unwrap();
        let len = || disk.read(SEG0).unwrap().len();
        let before = len();
        for _ in 0..100 {
            store.mark_trimmed(2).unwrap();
        }
        assert_eq!(len(), before + HEADER_LEN);
        // Nor after a reopen.
        on(&disk, 64, 16).mark_trimmed(2).unwrap();
        assert_eq!(len(), before + HEADER_LEN);
    }

    #[test]
    fn a_corrupt_header_in_the_middle_loses_that_record_only() {
        let disk = MemDisk::default();
        let page =
            |addr: u64| Some((PageKind::Data, Bytes::from(vec![addr as u8; 4 + addr as usize])));
        let mut store = on(&disk, 64, 16);
        for addr in 0..6 {
            store.put(addr, PageKind::Data, &page(addr).unwrap().1).unwrap();
        }
        // Flip a byte of record 2's address, after records of 36 and 37
        // bytes: its header checksum fails.
        disk.corrupt(SEG0, 36 + 37 + 14, b"\xFF");
        let mut store = on(&disk, 64, 16);
        let addrs: Vec<_> = store.scan().iter().map(|p| p.addr).collect();
        assert_eq!(addrs, vec![0, 1, 3, 4, 5]);
        for addr in [0, 1, 3, 4, 5] {
            assert_eq!(store.get(addr).unwrap(), page(addr));
        }
        assert_eq!(store.get(2).unwrap(), None);
        // Appends go on after the last record, not over the lost one.
        store.put(2, PageKind::Data, b"two").unwrap();
        assert_eq!(on(&disk, 64, 16).get(5).unwrap(), page(5));
        assert_eq!(on(&disk, 64, 16).get(2).unwrap(), data(b"two"));
    }

    #[test]
    fn a_run_ends_at_a_segment_boundary_and_at_a_record_out_of_place() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 64, 64);
        for addr in 0..128u64 {
            store.put(addr, PageKind::Data, &[addr as u8; 48]).unwrap();
        }
        // Records 100..=103's run is cut by 101's tombstone at the file end.
        store.mark_trimmed(101).unwrap();
        let mut got = Vec::new();
        let addrs = [103, 102, 101, 100, 65, 64, 63, 62];
        let ((), reads) = disk
            .reads_in(|| store.get_many(addrs, |at, read| got.push((addrs[at], read.unwrap()))));
        assert_eq!(reads, 5, "62..=63, 64..=65, 100, 102..=103, the tombstone");
        got.sort_unstable_by_key(|&(addr, _)| addr);
        let page = |addr: u64| Some((PageKind::Data, Bytes::from(vec![addr as u8; 48])));
        let want = [62, 63, 64, 65, 100, 101, 102, 103]
            .map(|a| (a, if a == 101 { None } else { page(a) }));
        assert_eq!(got, want);
    }

    #[test]
    fn a_single_read_is_one_exact_pread() {
        let disk = MemDisk::default();
        let mut store = on(&disk, 4096, 64);
        store.put(5, PageKind::Data, &[9u8; 560]).unwrap();
        let (page, reads) = disk.reads_in(|| store.get(5).unwrap());
        assert_eq!((page.map(|(_, bytes)| bytes.len()), reads), (Some(560), 1));
    }
}
