//! Segmented slot-file page store.
//!
//! Layout:
//!
//! * `<dir>/meta` — unit metadata (magic, geometry, epoch, prefix-trim),
//!   rewritten atomically via a temp file + rename.
//! * `<dir>/seg-<n>.dat` — `pages_per_segment` fixed-size slots. Each slot is
//!   a 32-byte header followed by `page_size` payload bytes. The header
//!   carries a magic, the slot state, the payload length, a CRC-32C of the
//!   payload, and the page address (as a torn-write guard: a slot whose
//!   header or CRC fails validation is treated as unwritten, which is safe
//!   because CORFU clients retry or fill incomplete writes).
//!
//! The address space is sparse; segment files are created on demand and
//! sized `slot_size * pages_per_segment` (the filesystem keeps them sparse
//! until slots are written).

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use tango_wire::{crc32c, IdMap};

use crate::store::{PageKind, ScannedPage, ScannedState, ScrubReport};
use crate::{FlashError, PageAddr, Result};

const SLOT_MAGIC: u32 = 0xC0_4F_5E_01;
const META_MAGIC: u32 = 0xC0_4F_5E_02;
const HEADER_LEN: usize = 32;
/// Payload bytes `get` reads together with the slot header: a payload up
/// to this long costs one `pread`, a longer one a second for the rest.
const INLINE_READ: usize = 480;

const STATE_DATA: u8 = 1;
const STATE_JUNK: u8 = 2;
const STATE_TRIMMED: u8 = 3;

/// The cold device under a [`crate::FlashUnit`]: segmented slot files.
///
/// A dumb slot device — write-once enforcement, sealing and trim bookkeeping
/// live in the unit. It persists page payloads, trim markers and the unit
/// metadata (epoch, prefix-trim horizon).
pub struct FileStore {
    dir: PathBuf,
    page_size: usize,
    pages_per_segment: u64,
    segments: IdMap<u64, File>,
}

impl FileStore {
    /// Opens (or creates) a store rooted at `dir` with the given geometry.
    ///
    /// Opening an existing store validates that the geometry matches what it
    /// was created with.
    pub fn open(dir: impl AsRef<Path>, page_size: usize, pages_per_segment: u64) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = Self { dir, page_size, pages_per_segment, segments: IdMap::default() };
        if let Some((stored_page_size, stored_pps)) = store.read_geometry()? {
            if stored_page_size != page_size as u64 || stored_pps != pages_per_segment {
                return Err(FlashError::Corrupt(format!(
                    "geometry mismatch: store has page_size={stored_page_size}, \
                     pages_per_segment={stored_pps}"
                )));
            }
        }
        Ok(store)
    }

    fn slot_size(&self) -> u64 {
        HEADER_LEN as u64 + self.page_size as u64
    }

    fn locate(&self, addr: PageAddr) -> (u64, u64) {
        let seg = addr / self.pages_per_segment;
        let slot = addr % self.pages_per_segment;
        (seg, slot * self.slot_size())
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.dir.join(format!("seg-{seg}.dat"))
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta")
    }

    fn segment(&mut self, seg: u64) -> Result<&File> {
        if !self.segments.contains_key(&seg) {
            let path = self.segment_path(seg);
            // Segments are reopened across restarts; never truncate.
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            file.set_len(self.slot_size() * self.pages_per_segment)?;
            self.segments.insert(seg, file);
        }
        Ok(self.segments.get(&seg).expect("just inserted"))
    }

    fn segment_readonly(&self, seg: u64) -> Result<Option<File>> {
        match File::open(self.segment_path(seg)) {
            Ok(f) => Ok(Some(f)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn encode_header(state: u8, len: u32, crc: u32, addr: PageAddr) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&SLOT_MAGIC.to_le_bytes());
        h[4] = state;
        h[5..9].copy_from_slice(&len.to_le_bytes());
        h[9..13].copy_from_slice(&crc.to_le_bytes());
        h[13..21].copy_from_slice(&addr.to_le_bytes());
        // Header self-checksum over the first 21 bytes.
        let hcrc = crc32c(&h[..21]);
        h[21..25].copy_from_slice(&hcrc.to_le_bytes());
        h
    }

    fn decode_header(h: &[u8], expect_addr: Option<PageAddr>) -> Option<(u8, u32, u32, PageAddr)> {
        if h.len() < HEADER_LEN {
            return None;
        }
        let magic = u32::from_le_bytes(h[0..4].try_into().ok()?);
        if magic != SLOT_MAGIC {
            return None;
        }
        let hcrc = u32::from_le_bytes(h[21..25].try_into().ok()?);
        if crc32c(&h[..21]) != hcrc {
            return None;
        }
        let state = h[4];
        let len = u32::from_le_bytes(h[5..9].try_into().ok()?);
        let crc = u32::from_le_bytes(h[9..13].try_into().ok()?);
        let addr = u64::from_le_bytes(h[13..21].try_into().ok()?);
        if let Some(expect) = expect_addr {
            if addr != expect {
                return None;
            }
        }
        Some((state, len, crc, addr))
    }

    fn read_geometry(&self) -> Result<Option<(u64, u64)>> {
        match fs::read(self.meta_path()) {
            Ok(bytes) => {
                let meta = Self::decode_meta(&bytes)?;
                Ok(Some((meta.1, meta.2)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The number of page slots per segment file.
    pub fn pages_per_segment(&self) -> u64 {
        self.pages_per_segment
    }

    /// Lists the ids of segment files currently on disk, ascending.
    pub fn segment_ids(&self) -> Result<Vec<u64>> {
        let mut seg_ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("seg-").and_then(|r| r.strip_suffix(".dat")) {
                if let Ok(id) = rest.parse::<u64>() {
                    seg_ids.push(id);
                }
            }
        }
        seg_ids.sort_unstable();
        Ok(seg_ids)
    }

    /// Deletes every segment file whose entire address range falls strictly
    /// below `horizon`, returning the reclaimed segment ids. The caller must
    /// have persisted a prefix-trim horizon at or above `horizon` first, so
    /// a crash between the meta write and the unlinks recovers cleanly (the
    /// scan ignores addresses below the horizon either way).
    pub fn remove_segments_below(&mut self, horizon: PageAddr) -> Result<Vec<u64>> {
        let mut removed = Vec::new();
        for seg in self.segment_ids()? {
            let seg_end = (seg + 1).saturating_mul(self.pages_per_segment);
            if seg_end <= horizon {
                self.segments.remove(&seg);
                fs::remove_file(self.segment_path(seg))?;
                removed.push(seg);
            }
        }
        Ok(removed)
    }

    fn decode_meta(bytes: &[u8]) -> Result<(u32, u64, u64, u64, u64)> {
        if bytes.len() != 40 {
            return Err(FlashError::Corrupt("bad meta length".into()));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != META_MAGIC {
            return Err(FlashError::Corrupt("bad meta magic".into()));
        }
        let crc = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
        if crc32c(&bytes[..36]) != crc {
            return Err(FlashError::Corrupt("meta checksum mismatch".into()));
        }
        let page_size = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let pps = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let epoch = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let prefix_trim = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
        Ok((magic, page_size, pps, epoch, prefix_trim))
    }

    /// Persists a page payload (data or junk) at `addr`. The unit calls this
    /// at most once per live address, so the slot is overwritten
    /// unconditionally.
    pub(crate) fn put(&mut self, addr: PageAddr, kind: PageKind, data: &[u8]) -> Result<()> {
        if data.len() > self.page_size {
            return Err(FlashError::PageTooLarge { len: data.len(), page_size: self.page_size });
        }
        let (seg, off) = self.locate(addr);
        let state = match kind {
            PageKind::Data => STATE_DATA,
            PageKind::Junk => STATE_JUNK,
        };
        let header = Self::encode_header(state, data.len() as u32, crc32c(data), addr);
        let file = self.segment(seg)?;
        // Payload first, header last: a torn write leaves an invalid header
        // and the slot reads as unwritten.
        file.write_all_at(data, off + HEADER_LEN as u64)?;
        file.write_all_at(&header, off)?;
        Ok(())
    }

    /// Reads the slot at `addr`, or `None` if it holds no page.
    pub(crate) fn get(&self, addr: PageAddr) -> Result<Option<(PageKind, Bytes)>> {
        let (seg, off) = self.locate(addr);
        // Read through the handle this process wrote the segment with; only
        // a segment it has not touched (reopened store) costs an open.
        let opened;
        let file = match self.segments.get(&seg) {
            Some(file) => file,
            None => match self.segment_readonly(seg)? {
                Some(file) => {
                    opened = file;
                    &opened
                }
                None => return Ok(None),
            },
        };
        // Header and the head of the payload in one read; a slot never
        // extends past its file (segments are sized at creation).
        let mut first = [0u8; HEADER_LEN + INLINE_READ];
        let first = &mut first[..HEADER_LEN + self.page_size.min(INLINE_READ)];
        if let Err(e) = file.read_exact_at(first, off) {
            return no_page(e);
        }
        let (header, head) = first.split_at(HEADER_LEN);
        let Some((state, len, crc, _)) = Self::decode_header(header, Some(addr)) else {
            return Ok(None);
        };
        match state {
            STATE_DATA => {
                let len = len as usize;
                if len > self.page_size {
                    return Err(FlashError::Corrupt(format!("payload length {len} at {addr}")));
                }
                let payload = match head.get(..len) {
                    Some(whole) => Bytes::copy_from_slice(whole),
                    None => {
                        let mut payload = vec![0u8; len];
                        let (inline, rest) = payload.split_at_mut(head.len());
                        inline.copy_from_slice(head);
                        file.read_exact_at(rest, off + (HEADER_LEN + head.len()) as u64)?;
                        Bytes::from(payload)
                    }
                };
                if crc32c(&payload) != crc {
                    return Err(FlashError::Corrupt(format!("payload CRC mismatch at {addr}")));
                }
                Ok(Some((PageKind::Data, payload)))
            }
            STATE_JUNK => Ok(Some((PageKind::Junk, Bytes::new()))),
            // Trimmed slots are reported as absent; the unit tracks trims.
            STATE_TRIMMED => Ok(None),
            _ => Ok(None),
        }
    }

    /// Persists a trim marker at `addr`, releasing the payload.
    pub(crate) fn mark_trimmed(&mut self, addr: PageAddr) -> Result<()> {
        let (seg, off) = self.locate(addr);
        let header = Self::encode_header(STATE_TRIMMED, 0, 0, addr);
        let file = self.segment(seg)?;
        file.write_all_at(&header, off)?;
        Ok(())
    }

    /// Persists unit metadata: the seal epoch and the prefix-trim horizon.
    pub(crate) fn put_meta(&mut self, epoch: u64, prefix_trim: PageAddr) -> Result<()> {
        let mut bytes = Vec::with_capacity(40);
        bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(self.page_size as u64).to_le_bytes());
        bytes.extend_from_slice(&self.pages_per_segment.to_le_bytes());
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&prefix_trim.to_le_bytes());
        let crc = crc32c(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let tmp = self.dir.join("meta.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, self.meta_path())?;
        Ok(())
    }

    /// Loads unit metadata, or `None` on a fresh store.
    pub(crate) fn get_meta(&self) -> Result<Option<(u64, PageAddr)>> {
        match fs::read(self.meta_path()) {
            Ok(bytes) => {
                let (_, _, _, epoch, prefix_trim) = Self::decode_meta(&bytes)?;
                Ok(Some((epoch, prefix_trim)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Enumerates every persisted slot for crash recovery.
    pub(crate) fn scan(&self) -> Result<Vec<ScannedPage>> {
        let mut out = Vec::new();
        for seg in self.segment_ids()? {
            let Some(file) = self.segment_readonly(seg)? else { continue };
            for slot in 0..self.pages_per_segment {
                let addr = seg * self.pages_per_segment + slot;
                let off = slot * self.slot_size();
                let mut header = [0u8; HEADER_LEN];
                if file.read_exact_at(&mut header, off).is_err() {
                    continue;
                }
                let Some((state, len, crc, _)) = Self::decode_header(&header, Some(addr)) else {
                    continue;
                };
                let scanned = match state {
                    STATE_DATA => {
                        // Validate the payload; a torn data write is unwritten.
                        let mut payload = vec![0u8; len as usize];
                        if file.read_exact_at(&mut payload, off + HEADER_LEN as u64).is_err()
                            || crc32c(&payload) != crc
                        {
                            continue;
                        }
                        ScannedState::Data
                    }
                    STATE_JUNK => ScannedState::Junk,
                    STATE_TRIMMED => ScannedState::Trimmed,
                    _ => continue,
                };
                out.push(ScannedPage { addr, state: scanned });
            }
        }
        Ok(out)
    }

    /// Flushes written segments to stable storage.
    pub(crate) fn sync(&mut self) -> Result<()> {
        for file in self.segments.values() {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Verifies every data slot's payload against its CRC.
    pub(crate) fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for seg in self.segment_ids()? {
            let Some(file) = self.segment_readonly(seg)? else { continue };
            for slot in 0..self.pages_per_segment {
                let addr = seg * self.pages_per_segment + slot;
                let off = slot * self.slot_size();
                let mut header = [0u8; HEADER_LEN];
                if file.read_exact_at(&mut header, off).is_err() {
                    continue;
                }
                let Some((state, len, crc, _)) = Self::decode_header(&header, Some(addr)) else {
                    // Torn write: header never committed, slot is unwritten.
                    continue;
                };
                if state != STATE_DATA {
                    continue;
                }
                report.pages_checked += 1;
                let mut payload = vec![0u8; len as usize];
                if file.read_exact_at(&mut payload, off + HEADER_LEN as u64).is_err()
                    || crc32c(&payload) != crc
                {
                    // The header committed (written after the payload), so a
                    // failing payload CRC is bit rot, not an in-flight write.
                    report.errors += 1;
                }
            }
        }
        Ok(report)
    }
}

/// What a failed read of a slot means. A slot beyond the end of its file —
/// a truncated segment of a reopened store — holds no page; any other
/// failure is the device's, and the reader hears it as one.
fn no_page<T>(e: std::io::Error) -> Result<Option<T>> {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => Ok(None),
        _ => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmpdir;

    #[test]
    fn only_a_read_past_the_end_of_a_segment_means_no_page() {
        use std::io::{Error, ErrorKind};
        assert_eq!(no_page::<()>(Error::from(ErrorKind::UnexpectedEof)), Ok(None));
        // EIO, as the kernel reports a failing device.
        let eio = no_page::<()>(Error::from_raw_os_error(5));
        assert!(matches!(eio, Err(FlashError::Io(_))), "{eio:?}");
        for kind in [ErrorKind::PermissionDenied, ErrorKind::InvalidInput, ErrorKind::Other] {
            assert!(matches!(no_page::<()>(Error::from(kind)), Err(FlashError::Io(_))));
        }
    }

    #[test]
    fn a_truncated_segment_reads_as_no_page_and_a_directory_in_its_place_as_an_error() {
        let dir = tmpdir("truncated");
        {
            let mut store = FileStore::open(&dir, 64, 4).unwrap();
            store.put(1, PageKind::Data, b"kept").unwrap();
            store.put(3, PageKind::Data, b"cut off").unwrap();
        }
        let slot = (HEADER_LEN + 64) as u64;
        let seg = OpenOptions::new().write(true).open(dir.join("seg-0.dat")).unwrap();
        seg.set_len(3 * slot + 8).unwrap();
        let store = FileStore::open(&dir, 64, 4).unwrap();
        assert_eq!(store.get(1).unwrap(), Some((PageKind::Data, Bytes::from_static(b"kept"))));
        assert_eq!(store.get(3).unwrap(), None);
        // Reading a directory fails with EISDIR: not a page that is absent.
        fs::remove_file(dir.join("seg-0.dat")).unwrap();
        fs::create_dir(dir.join("seg-0.dat")).unwrap();
        assert!(matches!(store.get(1), Err(FlashError::Io(_))), "{:?}", store.get(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_get_roundtrip_across_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut store = FileStore::open(&dir, 256, 16).unwrap();
            store.put(0, PageKind::Data, b"hello").unwrap();
            store.put(17, PageKind::Data, b"world").unwrap();
            store.put(5, PageKind::Junk, &[]).unwrap();
            store.put_meta(3, 1).unwrap();
            store.sync().unwrap();
        }
        let store = FileStore::open(&dir, 256, 16).unwrap();
        assert_eq!(store.get(0).unwrap(), Some((PageKind::Data, Bytes::from_static(b"hello"))));
        assert_eq!(store.get(17).unwrap(), Some((PageKind::Data, Bytes::from_static(b"world"))));
        assert_eq!(store.get(5).unwrap(), Some((PageKind::Junk, Bytes::new())));
        assert_eq!(store.get(1).unwrap(), None);
        assert_eq!(store.get_meta().unwrap(), Some((3, 1)));
        let scanned = store.scan().unwrap();
        assert_eq!(scanned.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_reads_any_length_through_the_open_handle() {
        let dir = tmpdir("inline");
        let mut store = FileStore::open(&dir, 1024, 4).unwrap();
        // Around the one-read limit, and in a segment's last slot (3, 7).
        let lens = [(0u64, 0usize), (1, 1), (2, INLINE_READ), (3, INLINE_READ + 1), (7, 1024)];
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
        // A store that has not touched the segments falls back to an open.
        check(&FileStore::open(&dir, 1024, 4).unwrap());
        // The writing store reads through its own handles: unlinking the
        // files behind its back does not take the pages away.
        fs::remove_file(dir.join("seg-0.dat")).unwrap();
        fs::remove_file(dir.join("seg-1.dat")).unwrap();
        check(&store);
        assert_eq!(FileStore::open(&dir, 1024, 4).unwrap().get(0).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let dir = tmpdir("geom");
        {
            let mut store = FileStore::open(&dir, 256, 16).unwrap();
            store.put_meta(0, 0).unwrap();
        }
        assert!(matches!(FileStore::open(&dir, 512, 16), Err(FlashError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_page_rejected() {
        let dir = tmpdir("oversize");
        let mut store = FileStore::open(&dir, 8, 16).unwrap();
        assert!(matches!(
            store.put(0, PageKind::Data, &[0u8; 9]),
            Err(FlashError::PageTooLarge { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_detected() {
        let dir = tmpdir("corrupt");
        {
            let mut store = FileStore::open(&dir, 64, 16).unwrap();
            store.put(3, PageKind::Data, b"payload-bytes").unwrap();
            store.sync().unwrap();
        }
        // Flip a payload byte behind the store's back.
        {
            let path = dir.join("seg-0.dat");
            let file = OpenOptions::new().write(true).open(&path).unwrap();
            let slot_size = (HEADER_LEN + 64) as u64;
            file.write_all_at(b"X", 3 * slot_size + HEADER_LEN as u64).unwrap();
        }
        let store = FileStore::open(&dir, 64, 16).unwrap();
        assert!(matches!(store.get(3), Err(FlashError::Corrupt(_))));
        // Scan treats it as a torn write and skips it.
        assert!(store.scan().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trim_marker_persists() {
        let dir = tmpdir("trim");
        {
            let mut store = FileStore::open(&dir, 64, 16).unwrap();
            store.put(2, PageKind::Data, b"x").unwrap();
            store.mark_trimmed(2).unwrap();
        }
        let store = FileStore::open(&dir, 64, 16).unwrap();
        assert_eq!(store.get(2).unwrap(), None);
        let scanned = store.scan().unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].state, ScannedState::Trimmed);
        fs::remove_dir_all(&dir).unwrap();
    }
}
