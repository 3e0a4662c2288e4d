//! Property tests for the write-once invariant under arbitrary operation
//! interleavings, against a model, and for the equivalence of a unit with no
//! cold device, a write-through one and tiered ones, across reopens, on the
//! real disk.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use tango_flash::{FileStore, FlashError, FlashUnit, Page, Readahead, TieredStore, WearStats};

/// One step. `Reopen` syncs first, so it loses nothing; the lossy reopen is
/// the end of every differential sequence.
#[derive(Debug, Clone)]
enum Op {
    Write(u64, Vec<u8>),
    Fill(u64),
    Read(u64),
    ReadMany(Vec<u64>),
    /// `len` adjacent addresses from `top` down, as a chase asks for them:
    /// the reads a cold device coalesces. Read as one batch, and lent one at
    /// a time as a walk down them reads them, through one readahead.
    ReadRun(u64, u64),
    Trim(u64),
    TrimPrefix(u64),
    AdvanceHorizon,
    Migrate,
    Sync,
    Reopen,
}

fn page() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..16)
}

/// The in-memory unit alone, over 32 dense addresses.
fn dense_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32, page()).prop_map(|(a, d)| Op::Write(a, d)),
        (0u64..32).prop_map(Op::Fill),
        (0u64..32).prop_map(Op::Trim),
        (0u64..32).prop_map(Op::TrimPrefix),
        (0u64..32).prop_map(Op::Read),
    ]
}

/// How many addresses the differential test draws from.
const DIFF_ADDRS: u64 = 64;

/// The `i`th address of the differential test: four clusters of 16 far
/// apart, so that pages share a table chunk and chunks lie far apart. Near
/// 0; either side of the boundary at 1 024, where the unit's second table
/// chunk starts; either side of `1 << 40`; and the top 16, the last address,
/// which takes no page, among them.
fn diff_addr(i: u64) -> u64 {
    let at = i % 16;
    match i / 16 {
        0 => at,
        1 => 1024 - 8 + at,
        2 => (1 << 40) - 8 + at,
        _ => u64::MAX - 15 + at,
    }
}

fn diff_op_strategy() -> impl Strategy<Value = Op> {
    let addr = || (0..DIFF_ADDRS).prop_map(diff_addr);
    prop_oneof![
        6 => (addr(), page()).prop_map(|(a, d)| Op::Write(a, d)),
        2 => addr().prop_map(Op::Fill),
        3 => addr().prop_map(Op::Read),
        1 => proptest::collection::vec(addr(), 0..8).prop_map(Op::ReadMany),
        2 => (addr(), 1u64..40).prop_map(|(top, len)| Op::ReadRun(top, len)),
        3 => addr().prop_map(Op::Trim),
        1 => addr().prop_map(Op::TrimPrefix),
        1 => Just(Op::AdvanceHorizon),
        1 => Just(Op::Migrate),
        1 => Just(Op::Sync),
        1 => Just(Op::Reopen),
    ]
}

/// The addresses of a `ReadRun`, top first.
fn run(top: u64, len: u64) -> Vec<u64> {
    (top.saturating_sub(len - 1)..=top).rev().collect()
}

/// A trivially correct model of the write-once address space.
#[derive(Default)]
struct Model {
    /// Live pages at or above the horizon: data, or `None` for junk.
    pages: HashMap<u64, Option<Vec<u8>>>,
    /// Individually trimmed addresses at or above the horizon.
    trimmed: HashSet<u64>,
    prefix: u64,
    tail: u64,
}

impl Model {
    fn read(&self, addr: u64) -> Page<bytes::Bytes> {
        if addr < self.prefix || self.trimmed.contains(&addr) {
            return Page::Trimmed;
        }
        match self.pages.get(&addr) {
            Some(Some(d)) => Page::Data(bytes::Bytes::copy_from_slice(d)),
            Some(None) => Page::Junk,
            None => Page::Unwritten,
        }
    }

    fn put(&mut self, addr: u64, page: Option<Vec<u8>>) -> Result<(), FlashError> {
        if addr < self.prefix {
            return Err(FlashError::Trimmed { addr });
        }
        if addr == u64::MAX {
            return Err(FlashError::OutOfRange { addr });
        }
        if self.pages.contains_key(&addr) || self.trimmed.contains(&addr) {
            return Err(FlashError::AlreadyWritten { addr });
        }
        self.pages.insert(addr, page);
        self.tail = self.tail.max(addr + 1);
        Ok(())
    }

    fn trim(&mut self, addr: u64) -> Result<(), FlashError> {
        if addr < self.prefix {
            return Ok(());
        }
        if addr == u64::MAX {
            return Err(FlashError::OutOfRange { addr });
        }
        self.pages.remove(&addr);
        self.trimmed.insert(addr);
        self.tail = self.tail.max(addr + 1);
        Ok(())
    }

    fn trim_prefix(&mut self, horizon: u64) {
        if horizon > self.prefix {
            self.prefix = horizon;
            self.pages.retain(|&a, _| a >= horizon);
            self.trimmed.retain(|&a| a >= horizon);
            self.tail = self.tail.max(horizon);
        }
    }

    /// What `op` returns on a correct unit, as [`apply`] prints it.
    fn apply(&mut self, op: &Op) -> String {
        let reads = |addrs: &[u64]| -> Result<Vec<Page<bytes::Bytes>>, FlashError> {
            Ok(addrs.iter().map(|&a| self.read(a)).collect())
        };
        match op {
            Op::Write(addr, data) => format!("{:?}", self.put(*addr, Some(data.clone()))),
            Op::Fill(addr) => format!("{:?}", self.put(*addr, None)),
            Op::Read(addr) => format!("{:?}", Ok::<_, FlashError>(self.read(*addr))),
            Op::ReadMany(addrs) => format!("{:?}", reads(addrs)),
            Op::ReadRun(top, len) => {
                let run = reads(&run(*top, *len));
                format!("{run:?} {run:?}")
            }
            Op::Trim(addr) => format!("{:?}", self.trim(*addr)),
            Op::TrimPrefix(horizon) => {
                self.trim_prefix(*horizon);
                format!("{:?}", Ok::<_, FlashError>(()))
            }
            Op::AdvanceHorizon => {
                let mut horizon = self.prefix;
                while self.trimmed.contains(&horizon) {
                    horizon += 1;
                }
                self.trim_prefix(horizon);
                format!("{:?}", Ok::<_, FlashError>(self.prefix))
            }
            Op::Migrate | Op::Sync | Op::Reopen => format!("{:?}", Ok::<_, FlashError>(())),
        }
    }
}

/// A unit over segment files: a bare `FileStore` (`hot_capacity` `None`) or
/// a `TieredStore`.
struct Backed {
    dir: std::path::PathBuf,
    hot_capacity: Option<usize>,
    unit: FlashUnit,
}

impl Backed {
    fn open(dir: &std::path::Path, hot_capacity: Option<usize>) -> FlashUnit {
        match hot_capacity {
            None => FlashUnit::open(Box::new(FileStore::open(dir, 64, 8).unwrap()), 64),
            Some(hot) => FlashUnit::open(Box::new(TieredStore::open(dir, 64, 8, hot).unwrap()), 64),
        }
        .unwrap()
    }

    fn reopen(&mut self) {
        self.unit = Self::open(&self.dir, self.hot_capacity);
    }
}

/// What an operation returned, in a form any two units can be compared by.
fn apply(unit: &mut FlashUnit, op: &Op) -> String {
    match op {
        Op::Write(addr, data) => format!("{:?}", unit.write(*addr, data)),
        Op::Fill(addr) => format!("{:?}", unit.fill(*addr)),
        Op::Read(addr) => format!("{:?}", unit.read(*addr)),
        Op::ReadMany(addrs) => format!("{:?}", unit.read_many(addrs)),
        Op::ReadRun(top, len) => {
            let addrs = run(*top, *len);
            let mut ahead = Readahead::down_to(addrs[addrs.len() - 1]);
            let lent: Result<Vec<Page<bytes::Bytes>>, FlashError> =
                addrs.iter().map(|&addr| unit.lend(addr, &mut ahead).map(Page::to_owned)).collect();
            format!("{:?} {lent:?}", unit.read_many(&addrs))
        }
        Op::Trim(addr) => format!("{:?}", unit.trim(*addr)),
        Op::TrimPrefix(horizon) => format!("{:?}", unit.trim_prefix(*horizon)),
        Op::AdvanceHorizon => format!("{:?}", unit.advance_trim_horizon()),
        // How many pages move depends on the hot capacity; that it works
        // does not.
        Op::Migrate => format!("{:?}", unit.migrate_cold().map(drop)),
        Op::Sync | Op::Reopen => format!("{:?}", unit.sync()),
    }
}

/// Wear since `base`: a reopened unit counts from zero again.
fn wear_since(now: WearStats, base: WearStats) -> WearStats {
    WearStats {
        data_writes: now.data_writes - base.data_writes,
        junk_writes: now.junk_writes - base.junk_writes,
        bytes_written: now.bytes_written - base.bytes_written,
        reads: now.reads - base.reads,
        random_trims: now.random_trims - base.random_trims,
        prefix_trimmed_pages: now.prefix_trimmed_pages - base.prefix_trimmed_pages,
        rejected_writes: now.rejected_writes - base.rejected_writes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_cold_device_yields_the_same_unit(
        ops in proptest::collection::vec(diff_op_strategy(), 1..96),
    ) {
        let root = std::env::temp_dir().join(format!(
            "tango-flash-diff-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let mut model = Model::default();
        let mut mem = FlashUnit::in_memory(64);
        let mut backed: Vec<Backed> = [None, Some(0), Some(2), Some(16)]
            .into_iter()
            .map(|hot_capacity| {
                let dir = root.join(format!("{hot_capacity:?}"));
                Backed { unit: Backed::open(&dir, hot_capacity), dir, hot_capacity }
            })
            .collect();
        // The in-memory unit's wear when the backed ones last reopened.
        let mut base = WearStats::default();
        for op in &ops {
            let expected = model.apply(op);
            prop_assert_eq!(&apply(&mut mem, op), &expected, "{:?} in memory", op);
            prop_assert_eq!(
                (mem.local_tail(), mem.prefix_trim(), mem.live_pages()),
                (model.tail, model.prefix, model.pages.len() as u64),
                "after {:?} in memory", op
            );
            if matches!(op, Op::Reopen) {
                base = mem.stats();
            }
            for b in &mut backed {
                prop_assert_eq!(&apply(&mut b.unit, op), &expected, "{:?} on {:?}", op, b.hot_capacity);
                if matches!(op, Op::Reopen) {
                    b.reopen();
                }
                prop_assert_eq!(
                    (b.unit.local_tail(), b.unit.prefix_trim(), b.unit.live_pages(), b.unit.stats()),
                    (mem.local_tail(), mem.prefix_trim(), mem.live_pages(), wear_since(mem.stats(), base)),
                    "after {:?} on {:?}", op, b.hot_capacity
                );
            }
            // A bare FileStore is a TieredStore with no hot capacity.
            prop_assert_eq!(backed[0].unit.tier_stats(), backed[1].unit.tier_stats());
            prop_assert_eq!(backed[0].unit.tier_stats().hot_pages, 0);
        }
        // A reopen without a sync loses the pages that were still hot, which
        // read as unwritten again, and nothing else.
        for b in &mut backed {
            let hot = b.unit.tier_stats().hot_pages;
            b.reopen();
            let mut lost = 0;
            for addr in (0..DIFF_ADDRS).map(diff_addr) {
                let (was, is) = (mem.read(addr).unwrap(), b.unit.read(addr).unwrap());
                if was != is {
                    prop_assert!(matches!(was, Page::Data(_) | Page::Junk), "{:?}", was);
                    prop_assert_eq!(is, Page::Unwritten, "addr {} on {:?}", addr, b.hot_capacity);
                    lost += 1;
                }
            }
            prop_assert_eq!(lost, hot, "on {:?}", b.hot_capacity);
            prop_assert_eq!(b.unit.live_pages() + lost, mem.live_pages());
            prop_assert_eq!(b.unit.prefix_trim(), mem.prefix_trim());
            prop_assert!(b.unit.local_tail() <= mem.local_tail());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unit_matches_model(ops in proptest::collection::vec(dense_op_strategy(), 1..128)) {
        let mut unit = FlashUnit::in_memory(64);
        let mut model = Model::default();
        for op in &ops {
            prop_assert_eq!(apply(&mut unit, op), model.apply(op), "{:?}", op);
        }
    }
}
