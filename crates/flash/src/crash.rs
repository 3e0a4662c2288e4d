//! Crash images of the cold device, enumerated ALICE-style, and the one
//! oracle every image must pass.
//!
//! [`MemDisk`] records every call that changes it. A crash after the first
//! `p` calls keeps what was durable by then — a file's writes once the file
//! is synced, a create, rename or unlink once the directory is — and of the
//! rest, one image each: all of it, none of it, each write torn (its first
//! byte, half, all but its last byte), each call dropped alone. At every call
//! of a seeded run of unit operations, every image must open, read each page
//! as a value it held since the last completed `sync`, keep the last `seal`'s
//! epoch and `trim_prefix`'s horizon, refuse a write to an address consumed
//! at that `sync`, and keep what it held across a rewrite of the pages it
//! lost and a reopen. A failure prints its seed, crash point and image, and
//! `TANGO_FAULT_SEED=<seed> cargo test -p tango-flash crash` replays it.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::disk::{Disk, DiskFile};
use crate::{FileStore, FlashError, FlashUnit, Page, PageAddr, Result, TieredStore};

/// A call that changed a disk. Files are named by inode, unique across disks.
#[derive(Clone, Debug)]
enum Call {
    Create(String, usize),
    Write(usize, u64, Vec<u8>),
    Sync(usize),
    Rename(String, String),
    Unlink(String),
    SyncDir,
}

static NEXT_INODE: AtomicUsize = AtomicUsize::new(0);

/// Names bound to inodes, and the bytes of each inode.
#[derive(Clone, Default)]
struct Fs(BTreeMap<String, usize>, BTreeMap<usize, Vec<u8>>);

impl Fs {
    /// Applies `call`, of a write only its first `keep` bytes.
    fn apply(&mut self, call: &Call, keep: usize) {
        match call {
            Call::Create(name, ino) => drop(self.0.insert(name.clone(), *ino)),
            Call::Write(ino, off, bytes) => {
                let (file, off) = (self.1.entry(*ino).or_default(), *off as usize);
                let bytes = &bytes[..keep.min(bytes.len())];
                file.resize(file.len().max(off + bytes.len()), 0);
                file[off..off + bytes.len()].copy_from_slice(bytes);
            }
            Call::Rename(from, to) => {
                if let Some(ino) = self.0.remove(from) {
                    self.0.insert(to.clone(), ino);
                }
            }
            Call::Unlink(name) => drop(self.0.remove(name)),
            Call::Sync(_) | Call::SyncDir => {}
        }
    }

    fn bytes(&self, ino: usize) -> &[u8] {
        self.1.get(&ino).map_or(&[], Vec::as_slice)
    }
}

/// The recording disk. Its clones are one disk, so a test can keep one to
/// look at what a store did with another.
#[derive(Clone, Default)]
pub(crate) struct MemDisk(Arc<Mutex<Recording>>);

#[derive(Default)]
struct Recording {
    /// The disk when recording began, all of it durable; the calls since;
    /// and the disk they made of it.
    base: Fs,
    calls: Vec<Call>,
    now: Fs,
    /// The length of each read of an open file; calls made; the call that
    /// fails with `EIO`.
    preads: Vec<usize>,
    made: u64,
    fail_at: Option<u64>,
}

impl Recording {
    fn record(&mut self, call: Call) {
        self.now.apply(&call, usize::MAX);
        self.calls.push(call);
    }

    fn create(&mut self, name: &str) -> usize {
        let ino = NEXT_INODE.fetch_add(1, Ordering::Relaxed);
        self.record(Call::Create(name.into(), ino));
        ino
    }
}

/// What a crash keeps of the calls that were not yet durable.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Image {
    All,
    None,
    /// All, the `n`th pending call — a write — cut to its first `k` bytes.
    Torn(usize, usize),
    /// All but the `n`th pending call.
    Dropped(usize),
}

impl MemDisk {
    fn holding(fs: Fs) -> Self {
        Self(Arc::new(Mutex::new(Recording { base: fs.clone(), now: fs, ..Recording::default() })))
    }

    /// Makes one call, unless it is the one that fails.
    fn call<T>(&self, f: impl FnOnce(&mut Recording) -> T) -> io::Result<T> {
        let mut disk = self.0.lock();
        disk.made += 1;
        if disk.fail_at == Some(disk.made) {
            return Err(io::Error::from_raw_os_error(5)); // EIO
        }
        Ok(f(&mut disk))
    }

    /// Fails the `n`th call from now with `EIO`; the next call is the first.
    pub(crate) fn fail_in(&self, n: u64) {
        let mut disk = self.0.lock();
        disk.fail_at = Some(disk.made + n);
    }

    /// What `f` returns, and how many reads of open files it made.
    pub(crate) fn reads_in<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, preads) = self.preads_in(f);
        (out, preads.len() as u64)
    }

    /// What `f` returns, and the length of each read of an open file it
    /// made.
    pub(crate) fn preads_in<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<usize>) {
        let before = self.0.lock().preads.len();
        let out = f();
        (out, self.0.lock().preads[before..].to_vec())
    }

    /// Overwrites bytes of `name` behind the store's back, as rot would.
    pub(crate) fn corrupt(&self, name: &str, off: usize, bytes: &[u8]) {
        let Fs(names, files) = &mut self.0.lock().now;
        files.get_mut(&names[name]).expect("a file")[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn calls(&self) -> usize {
        self.0.lock().calls.len()
    }

    /// Every image of a crash after the first `p` recorded calls.
    fn crash(&self, p: usize) -> Vec<(Image, MemDisk)> {
        let disk = self.0.lock();
        // Walking back from the crash: a write is durable if its file is
        // synced after it, another call if the directory is.
        let (mut synced, mut dir_synced) = (BTreeSet::new(), false);
        let (mut durable, mut pending) = (Vec::new(), Vec::new());
        for call in disk.calls[..p].iter().rev() {
            match call {
                Call::Sync(ino) => drop(synced.insert(*ino)),
                Call::SyncDir => dir_synced = true,
                Call::Write(ino, ..) if synced.contains(ino) => durable.push(call),
                Call::Write(..) => pending.push(call),
                _ if dir_synced => durable.push(call),
                _ => pending.push(call),
            }
        }
        let mut kept = disk.base.clone();
        durable.iter().rev().for_each(|call| kept.apply(call, usize::MAX));
        pending.reverse();
        let mut images = vec![Image::All, Image::None];
        for (n, call) in pending.iter().enumerate() {
            if let Call::Write(.., bytes) = call {
                let cuts = [1, bytes.len() / 2, bytes.len().saturating_sub(1)];
                images.extend(
                    cuts.into_iter().filter(|&k| k < bytes.len()).map(|k| Image::Torn(n, k)),
                );
            }
            images.push(Image::Dropped(n));
        }
        let image_of = |image| {
            let mut fs = kept.clone();
            for (n, call) in pending.iter().enumerate().take_while(|_| image != Image::None) {
                match image {
                    Image::Dropped(m) if m == n => {}
                    Image::Torn(m, k) if m == n => fs.apply(call, k),
                    _ => fs.apply(call, usize::MAX),
                }
            }
            MemDisk::holding(fs)
        };
        images.into_iter().map(|image| (image, image_of(image))).collect()
    }
}

impl Disk for MemDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        self.call(|disk| disk.now.0.keys().cloned().collect())
    }

    fn open(&self, name: &str, create: bool) -> io::Result<Box<dyn DiskFile>> {
        let ino = self.call(|disk| match (disk.now.0.get(name), create) {
            (None, true) => Ok(disk.create(name)),
            (Some(&ino), false) => Ok(ino),
            (Some(_), true) => Err(io::ErrorKind::AlreadyExists),
            (None, false) => Err(io::ErrorKind::NotFound),
        })??;
        Ok(Box::new(MemFile(self.clone(), ino)))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let found =
            self.call(|disk| disk.now.0.get(name).map(|&ino| disk.now.bytes(ino).to_vec()))?;
        found.ok_or(io::ErrorKind::NotFound.into())
    }

    fn write_synced(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let file = MemFile(self.clone(), self.call(|disk| disk.create(name))?);
        file.pwrite(bytes, 0)?;
        file.sync_data()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.call(|disk| disk.record(Call::Rename(from.into(), to.into())))
    }

    fn unlink(&self, name: &str) -> io::Result<()> {
        self.call(|disk| disk.record(Call::Unlink(name.into())))
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.call(|disk| disk.record(Call::SyncDir))
    }
}

/// An open file of a [`MemDisk`], by inode.
struct MemFile(MemDisk, usize);

impl DiskFile for MemFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        self.0.call(|disk| {
            disk.preads.push(buf.len());
            let file = disk.now.bytes(self.1);
            let from = file.len().min(off as usize);
            let n = buf.len().min(file.len() - from);
            buf[..n].copy_from_slice(&file[from..from + n]);
            n
        })
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.0.call(|disk| disk.record(Call::Write(self.1, off, buf.to_vec())))
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.call(|disk| disk.record(Call::Sync(self.1)))
    }

    fn size(&self) -> io::Result<u64> {
        self.0.call(|disk| disk.now.bytes(self.1).len() as u64)
    }
}

/// A unit over `disk` keeping `hot` pages hot.
pub(crate) fn unit_on(disk: &MemDisk, page: usize, per_seg: u64, hot: usize) -> Result<FlashUnit> {
    let cold = FileStore::with_disk(Box::new(disk.clone()), page, per_seg)?;
    FlashUnit::open(Box::new(TieredStore { cold, hot_capacity: hot }), page)
}

const PAGE: usize = 64;
const PER_SEGMENT: u64 = 4;
/// The addresses a run uses and the oracle reads.
const ADDRS: u64 = 96;

#[derive(Debug)]
enum Op {
    Write(PageAddr, Vec<u8>),
    Fill(PageAddr),
    Trim(PageAddr),
    TrimPrefix(PageAddr),
    AdvanceHorizon,
    Migrate,
    Seal(u64),
    Sync,
    Read(PageAddr),
}

/// What `op` returned, in a form any two units can be compared by.
fn apply(unit: &mut FlashUnit, op: &Op) -> String {
    match op {
        Op::Write(addr, data) => format!("{:?}", unit.write(*addr, data)),
        Op::Fill(addr) => format!("{:?}", unit.fill(*addr)),
        Op::Trim(addr) => format!("{:?}", unit.trim(*addr)),
        Op::TrimPrefix(horizon) => format!("{:?}", unit.trim_prefix(*horizon)),
        Op::AdvanceHorizon => format!("{:?}", unit.advance_trim_horizon()),
        Op::Migrate => format!("{:?}", unit.migrate_cold().map(drop)),
        Op::Seal(epoch) => format!("{:?}", unit.seal(*epoch)),
        Op::Sync => format!("{:?}", unit.sync()),
        Op::Read(addr) => format!("{:?}", unit.read(*addr)),
    }
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// The next operation on a unit in `model`'s state: addresses at its
    /// tail or below it, horizons a few pages past its own.
    fn op(&mut self, model: &FlashUnit) -> Op {
        let (floor, tail) = (model.prefix_trim(), model.local_tail().max(model.prefix_trim()));
        let addr = match self.below(3) {
            0 => tail + self.below(2),
            _ => floor + self.below(tail + 1 - floor),
        }
        .min(ADDRS - 1);
        match self.below(20) {
            0..=6 => {
                let len = self.below(PAGE as u64 + 1);
                Op::Write(addr, (0..len).map(|_| self.below(256) as u8).collect())
            }
            7 => Op::Fill(addr),
            8 | 9 => Op::Trim(addr),
            10 | 11 => Op::TrimPrefix((floor + self.below(8)).min(tail)),
            12 => Op::AdvanceHorizon,
            13 => Op::Migrate,
            14 => Op::Seal(model.epoch() + self.below(3)),
            15..=17 => Op::Sync,
            _ => Op::Read(addr),
        }
    }
}

/// What the model unit held after an operation: every page, the epoch and
/// the horizon.
struct Held(Vec<Page<Bytes>>, u64, PageAddr);

impl Held {
    fn of(unit: &mut FlashUnit) -> Self {
        let pages = (0..ADDRS).map(|addr| unit.read(addr).expect("in memory")).collect();
        Self(pages, unit.epoch(), unit.prefix_trim())
    }
}

/// The oracle, on the image `disk`: `since` is what the model held from the
/// last completed sync on, `done` what it held after the last operation
/// that completed, and `at` names the image.
fn check(disk: &MemDisk, since: &[Held], done: &Held, at: &str) {
    let open = || unit_on(disk, PAGE, PER_SEGMENT, 0).unwrap_or_else(|e| panic!("{at}: {e}"));
    let mut unit = open();
    let (epoch, horizon) = (unit.epoch(), unit.prefix_trim());
    assert!(epoch >= done.1 && horizon >= done.2, "{at}: epoch {epoch}, horizon {horizon}");
    let mut pages = Vec::new();
    for (i, addr) in (0..ADDRS).enumerate() {
        let mut page = unit.read(addr).unwrap_or_else(|e| panic!("{at}: {addr}: {e}"));
        let held: Vec<_> = since.iter().map(|held| &held.0[i]).collect();
        assert!(held.contains(&&page), "{at}: {addr} reads {page:?}, held {held:?}");
        let again = held[0].is_consumed().then(|| unit.write(addr, b"again"));
        assert!(again.is_none_or(|again| again.is_err()), "{at}: {addr} written twice");
        // A page lost since the sync is written again, and must survive.
        if page == Page::Unwritten && held.iter().any(|held| held.is_consumed()) {
            unit.write(addr, &[addr as u8]).unwrap_or_else(|e| panic!("{at}: {addr}: {e}"));
            page = Page::Data(Bytes::from(vec![addr as u8]));
        }
        pages.push(page);
    }
    unit.sync().unwrap_or_else(|e| panic!("{at}: {e}"));
    let mut unit = open();
    for (addr, page) in (0..).zip(pages) {
        assert_eq!(unit.read(addr).as_ref(), Ok(&page), "{at}: {addr} after a reopen");
    }
}

/// Runs a seeded sequence of operations over a recording disk, keeping an
/// in-memory model in step, then checks every image of a crash at every call
/// it made. A metalog replica syncs after every write.
fn enumerate(hot: usize, metalog: bool) {
    let seed = std::env::var("TANGO_FAULT_SEED").map_or(0xC0FF_EE00, |seed| {
        let seed = seed.trim().to_lowercase();
        let parsed =
            seed.strip_prefix("0x").map_or(seed.parse(), |hex| u64::from_str_radix(hex, 16));
        parsed.expect("TANGO_FAULT_SEED is a decimal or 0x-hex u64")
    });
    let mut rng = Rng(seed ^ ((hot as u64) << 1) ^ metalog as u64);
    let disk = MemDisk::default();
    let mut unit = unit_on(&disk, PAGE, PER_SEGMENT, hot).unwrap();
    let mut model = FlashUnit::in_memory(PAGE);
    // Each operation's first call, the call after its last, and whether it
    // syncs; what the model held before the first and after each.
    let mut spans = Vec::new();
    let mut held = vec![Held::of(&mut model)];
    while spans.len() < 200 {
        let op = rng.op(&model);
        let sync = metalog && matches!(op, Op::Write(..) | Op::Fill(_));
        for op in [Some(op), sync.then_some(Op::Sync)].into_iter().flatten() {
            let start = disk.calls();
            let want = apply(&mut model, &op);
            assert_eq!(apply(&mut unit, &op), want, "TANGO_FAULT_SEED={seed:#x}: {op:?}");
            spans.push((start, disk.calls(), matches!(op, Op::Sync)));
            held.push(Held::of(&mut model));
        }
    }
    for p in 0..=disk.calls() {
        let done = spans.iter().take_while(|span| span.1 <= p).count();
        let started = spans.iter().take_while(|span| span.0 <= p).count();
        let synced = spans[..done].iter().rposition(|span| span.2).map_or(0, |op| op + 1);
        for (image, crashed) in disk.crash(p) {
            let at = format!(
                "TANGO_FAULT_SEED={seed:#x}, hot {hot}, metalog {metalog}, {p} calls, {image:?}"
            );
            check(&crashed, &held[synced..=started], &held[done], &at);
        }
    }
}

#[test]
fn every_crash_image_recovers() {
    std::thread::scope(|threads| {
        for (hot, metalog) in [(0, false), (2, false), (16, false), (0, true)] {
            threads.spawn(move || enumerate(hot, metalog));
        }
    });
}

/// A write-through unit on a fresh recording disk after `ops`, reopened on
/// every image of a crash then.
fn crashed_after(ops: impl FnOnce(&mut FlashUnit)) -> Vec<(Image, Result<FlashUnit>)> {
    let disk = MemDisk::default();
    ops(&mut unit_on(&disk, PAGE, PER_SEGMENT, 0).unwrap());
    let images = disk.crash(disk.calls());
    images.into_iter().map(|(image, disk)| (image, unit_on(&disk, PAGE, PER_SEGMENT, 0))).collect()
}

#[test]
fn a_completed_seal_never_unseals() {
    for (image, unit) in crashed_after(|unit| assert_eq!(unit.seal(3), Ok(0))) {
        assert_eq!(unit.unwrap().epoch(), 3, "{image:?}");
    }
}

#[test]
fn a_horizon_never_rewinds_below_unlinked_segments() {
    let images = crashed_after(|unit| {
        (0..8).for_each(|addr| unit.write(addr, b"x").unwrap());
        unit.sync().unwrap();
        unit.trim_prefix(8).unwrap();
    });
    for (image, unit) in images {
        assert_eq!(unit.unwrap().write(3, b"y"), Err(FlashError::Trimmed { addr: 3 }), "{image:?}");
    }
}

#[test]
fn a_fresh_store_with_a_segment_and_no_meta_still_opens() {
    for (image, unit) in crashed_after(|unit| unit.write(0, b"x").unwrap()) {
        assert!(unit.is_ok(), "{image:?}: {:?}", unit.err());
    }
}

#[test]
fn a_synced_page_in_a_fresh_segment_survives() {
    for (image, unit) in crashed_after(|unit| unit.write(0, b"x").and(unit.sync()).unwrap()) {
        let page = unit.unwrap().read(0).unwrap();
        assert_eq!(page, Page::Data(Bytes::from_static(b"x")), "{image:?}");
    }
}
