//! Property tests for the write-once invariant under arbitrary operation
//! interleavings, and for the equivalence of a unit with no cold device, a
//! write-through one and tiered ones, across reopens, on the real disk.

use proptest::prelude::*;
use tango_flash::{FileStore, FlashError, FlashUnit, PageRead, TieredStore, WearStats};

#[derive(Debug, Clone)]
enum Op {
    Write(u64, Vec<u8>),
    Fill(u64),
    Trim(u64),
    TrimPrefix(u64),
    Read(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(a, d)| Op::Write(a, d)),
        (0u64..32).prop_map(Op::Fill),
        (0u64..32).prop_map(Op::Trim),
        (0u64..32).prop_map(Op::TrimPrefix),
        (0u64..32).prop_map(Op::Read),
    ]
}

/// A trivially correct model of the write-once address space.
#[derive(Default)]
struct Model {
    slots: std::collections::HashMap<u64, Option<Vec<u8>>>, // None = junk
    consumed: std::collections::HashSet<u64>,
    trimmed: std::collections::HashSet<u64>,
    prefix: u64,
}

impl Model {
    fn read(&self, addr: u64) -> PageRead {
        if addr < self.prefix || self.trimmed.contains(&addr) {
            PageRead::Trimmed
        } else if let Some(slot) = self.slots.get(&addr) {
            match slot {
                Some(d) => PageRead::Data(bytes::Bytes::copy_from_slice(d)),
                None => PageRead::Junk,
            }
        } else {
            PageRead::Unwritten
        }
    }
}

/// One step of the differential test. `Reopen` syncs first, so it loses
/// nothing; the lossy reopen is the end of every sequence.
#[derive(Debug, Clone)]
enum DiffOp {
    Write(u64, Vec<u8>),
    Fill(u64),
    Read(u64),
    ReadMany(Vec<u64>),
    /// `len` adjacent addresses from `top` down, as a chase asks for them:
    /// the reads a cold device coalesces.
    ReadRun(u64, u64),
    Trim(u64),
    TrimPrefix(u64),
    AdvanceHorizon,
    Migrate,
    Sync,
    Reopen,
}

const DIFF_ADDRS: u64 = 40;

fn diff_op_strategy() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        6 => (0..DIFF_ADDRS, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(a, d)| DiffOp::Write(a, d)),
        2 => (0..DIFF_ADDRS).prop_map(DiffOp::Fill),
        3 => (0..DIFF_ADDRS).prop_map(DiffOp::Read),
        1 => proptest::collection::vec(0..DIFF_ADDRS, 0..8).prop_map(DiffOp::ReadMany),
        2 => (0..DIFF_ADDRS, 1..DIFF_ADDRS).prop_map(|(top, len)| DiffOp::ReadRun(top, len)),
        3 => (0..DIFF_ADDRS).prop_map(DiffOp::Trim),
        1 => (0..DIFF_ADDRS).prop_map(DiffOp::TrimPrefix),
        1 => Just(DiffOp::AdvanceHorizon),
        1 => Just(DiffOp::Migrate),
        1 => Just(DiffOp::Sync),
        1 => Just(DiffOp::Reopen),
    ]
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
fn apply(unit: &mut FlashUnit, op: &DiffOp) -> String {
    match op {
        DiffOp::Write(addr, data) => format!("{:?}", unit.write(*addr, data)),
        DiffOp::Fill(addr) => format!("{:?}", unit.fill(*addr)),
        DiffOp::Read(addr) => format!("{:?}", unit.read(*addr)),
        DiffOp::ReadMany(addrs) => format!("{:?}", unit.read_many(addrs)),
        DiffOp::ReadRun(top, len) => {
            let addrs: Vec<u64> = (top.saturating_sub(len - 1)..=*top).rev().collect();
            format!("{:?}", unit.read_many(&addrs))
        }
        DiffOp::Trim(addr) => format!("{:?}", unit.trim(*addr)),
        DiffOp::TrimPrefix(horizon) => format!("{:?}", unit.trim_prefix(*horizon)),
        DiffOp::AdvanceHorizon => format!("{:?}", unit.advance_trim_horizon()),
        // How many pages move depends on the hot capacity; that it works
        // does not.
        DiffOp::Migrate => format!("{:?}", unit.migrate_cold().map(drop)),
        DiffOp::Sync | DiffOp::Reopen => format!("{:?}", unit.sync()),
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
            let expected = apply(&mut mem, op);
            if matches!(op, DiffOp::Reopen) {
                base = mem.stats();
            }
            for b in &mut backed {
                prop_assert_eq!(&apply(&mut b.unit, op), &expected, "{:?} on {:?}", op, b.hot_capacity);
                if matches!(op, DiffOp::Reopen) {
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
            for addr in 0..DIFF_ADDRS {
                let (was, is) = (mem.read(addr).unwrap(), b.unit.read(addr).unwrap());
                if was != is {
                    prop_assert!(matches!(was, PageRead::Data(_) | PageRead::Junk), "{:?}", was);
                    prop_assert_eq!(is, PageRead::Unwritten, "addr {} on {:?}", addr, b.hot_capacity);
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
    fn unit_matches_model(ops in proptest::collection::vec(op_strategy(), 1..128)) {
        let mut unit = FlashUnit::in_memory(64);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Write(addr, data) => {
                    let res = unit.write(addr, &data);
                    if addr < model.prefix || model.trimmed.contains(&addr) {
                        let rejected = matches!(res,
                            Err(FlashError::Trimmed { .. }) | Err(FlashError::AlreadyWritten { .. }));
                        prop_assert!(rejected);
                    } else if model.consumed.contains(&addr) {
                        prop_assert_eq!(res, Err(FlashError::AlreadyWritten { addr }));
                    } else {
                        prop_assert!(res.is_ok());
                        model.slots.insert(addr, Some(data));
                        model.consumed.insert(addr);
                    }
                }
                Op::Fill(addr) => {
                    let res = unit.fill(addr);
                    if addr < model.prefix || model.trimmed.contains(&addr) {
                        let rejected = matches!(res,
                            Err(FlashError::Trimmed { .. }) | Err(FlashError::AlreadyWritten { .. }));
                        prop_assert!(rejected);
                    } else if model.consumed.contains(&addr) {
                        prop_assert_eq!(res, Err(FlashError::AlreadyWritten { addr }));
                    } else {
                        prop_assert!(res.is_ok());
                        model.slots.insert(addr, None);
                        model.consumed.insert(addr);
                    }
                }
                Op::Trim(addr) => {
                    unit.trim(addr).unwrap();
                    if addr >= model.prefix {
                        model.trimmed.insert(addr);
                        model.consumed.insert(addr);
                        model.slots.remove(&addr);
                    }
                }
                Op::TrimPrefix(horizon) => {
                    unit.trim_prefix(horizon).unwrap();
                    if horizon > model.prefix {
                        model.prefix = horizon;
                        model.slots.retain(|&a, _| a >= horizon);
                        model.trimmed.retain(|&a| a >= horizon);
                        for a in 0..horizon {
                            model.consumed.insert(a);
                        }
                    }
                }
                Op::Read(addr) => {
                    prop_assert_eq!(unit.read(addr).unwrap(), model.read(addr));
                }
            }
        }
    }

}
