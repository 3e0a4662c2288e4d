//! The cold device with a hot capacity in front of it.

use std::path::Path;

use crate::file::FileStore;
use crate::Result;

/// A [`FileStore`] plus the number of pages the unit over it may keep hot.
///
/// The log's write pattern is append-heavy: the tail is hammered by writes
/// and catch-up reads, while everything behind the most recent checkpoint
/// goes cold and is eventually prefix-trimmed (§5's checkpoint-then-trim
/// discipline). A [`crate::FlashUnit`] opened over a `TieredStore` keeps up
/// to `hot_capacity` recent pages in RAM only and migrates older ones into
/// the segment files; opened over a bare [`FileStore`] (hot capacity 0) it
/// writes every page through.
pub struct TieredStore {
    pub(crate) cold: FileStore,
    pub(crate) hot_capacity: usize,
}

impl TieredStore {
    /// Opens (or creates) the segment files rooted at `dir`.
    ///
    /// `hot_capacity` is the target number of pages kept in RAM;
    /// `page_size`/`pages_per_segment` fix the geometry exactly as for
    /// [`FileStore::open`].
    pub fn open(
        dir: impl AsRef<Path>,
        page_size: usize,
        pages_per_segment: u64,
        hot_capacity: usize,
    ) -> Result<Self> {
        Ok(Self { cold: FileStore::open(dir, page_size, pages_per_segment)?, hot_capacity })
    }
}

impl From<FileStore> for TieredStore {
    fn from(cold: FileStore) -> Self {
        Self { cold, hot_capacity: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{unit_on, MemDisk};
    use crate::disk::Disk;
    use crate::store::{PageKind, ScannedState};
    use crate::{FlashUnit, Page};
    use bytes::Bytes;

    fn open(disk: &MemDisk, pages_per_segment: u64, hot_capacity: usize) -> FlashUnit {
        unit_on(disk, 64, pages_per_segment, hot_capacity).unwrap()
    }

    /// The cold device under a unit, opened again beside it.
    fn device(disk: &MemDisk, pages_per_segment: u64) -> FileStore {
        FileStore::with_disk(Box::new(disk.clone()), 64, pages_per_segment).unwrap()
    }

    fn data(bytes: &'static [u8]) -> Page<Bytes> {
        Page::Data(Bytes::from_static(bytes))
    }

    #[test]
    fn hot_tail_serves_reads_before_migration() {
        let disk = MemDisk::default();
        let mut unit = open(&disk, 8, 16);
        unit.write(0, b"zero").unwrap();
        unit.fill(1).unwrap();
        assert_eq!(unit.read(0).unwrap(), data(b"zero"));
        assert_eq!(unit.read(1).unwrap(), Page::Junk);
        let stats = unit.tier_stats();
        assert_eq!((stats.hot_pages, stats.cold_pages, stats.cold_segments), (2, 0, 0));
        // Nothing reached the device: the hot tail is RAM only.
        assert!(device(&disk, 8).scan().is_empty());
    }

    #[test]
    fn migration_moves_oldest_pages_cold() {
        let disk = MemDisk::default();
        let mut unit = open(&disk, 8, 4);
        for addr in 0..10u64 {
            unit.write(addr, format!("p{addr}").as_bytes()).unwrap();
        }
        // The burst guard already spilled 5 pages when the hot pages hit
        // twice the capacity; the explicit pass drains the remainder.
        assert_eq!(unit.migrate_cold().unwrap(), 1);
        let stats = unit.tier_stats();
        assert_eq!((stats.hot_pages, stats.cold_pages), (4, 6));
        assert_eq!(stats.migrated_pages, 6);
        assert_eq!(stats.migrations, 2);
        // Oldest first: 0..6 are on the device, 6..10 are not.
        let on_device: Vec<u64> = device(&disk, 8).scan().iter().map(|p| p.addr).collect();
        assert_eq!(on_device, (0..6).collect::<Vec<u64>>());
        // Reads hit whichever tier holds the page.
        assert_eq!(unit.read(0).unwrap(), data(b"p0"));
        assert_eq!(unit.read(9).unwrap(), data(b"p9"));
        unit.sync().unwrap(); // the durability point drains the tail
        assert_eq!(unit.tier_stats().hot_pages, 0);
    }

    #[test]
    fn overflow_spills_without_explicit_migration() {
        let mut unit = open(&MemDisk::default(), 8, 2);
        for addr in 0..5u64 {
            unit.write(addr, b"x").unwrap();
        }
        // Capacity 2, burst guard at 4: the fifth write drains down to 2 hot.
        let stats = unit.tier_stats();
        assert_eq!(stats.hot_pages, 2);
        assert_eq!(stats.cold_pages, 3);
        // A late write below the migrated range is found by the next pass.
        let mut unit = open(&MemDisk::default(), 8, 1);
        for addr in [10u64, 11, 12, 3] {
            unit.write(addr, b"x").unwrap();
        }
        assert_eq!(unit.tier_stats().hot_pages, 2);
        assert_eq!(unit.migrate_cold().unwrap(), 1);
        unit.trim(12).unwrap();
        assert_eq!(unit.tier_stats().hot_pages, 0);
        assert_eq!(unit.tier_stats().cold_pages, 3);
    }

    #[test]
    fn prefix_trim_reclaims_whole_segments() {
        let disk = MemDisk::default();
        let mut unit = open(&disk, 4, 0);
        for addr in 0..10u64 {
            unit.write(addr, b"x").unwrap();
        }
        // hot_capacity 0 writes through: everything is cold already.
        assert_eq!(unit.migrate_cold().unwrap(), 0);
        assert_eq!(unit.tier_stats().cold_segments, 3);
        unit.seal(1).unwrap();

        // Horizon 9 covers segments 0 and 1 entirely; segment 2 straddles.
        unit.trim_prefix(9).unwrap();
        let stats = unit.tier_stats();
        assert_eq!(stats.reclaimed_segments, 2);
        assert_eq!(stats.reclaimed_pages, 9);
        assert_eq!(stats.cold_pages, 1);
        assert_eq!(unit.stats().prefix_trimmed_pages, 9);
        assert_eq!(disk.list().unwrap(), ["meta", "seg-2.dat"]);
        // The straddling slot got a durable marker, the survivor reads back,
        // and the horizon is on the device with the epoch.
        let device = device(&disk, 4);
        let slots: Vec<_> = device.scan().iter().map(|p| (p.addr, p.state)).collect();
        assert_eq!(slots, vec![(8, ScannedState::Trimmed), (9, ScannedState::Data)]);
        assert_eq!(device.get(9).unwrap(), Some((PageKind::Data, Bytes::from_static(b"x"))));
        assert_eq!(device.get_meta().unwrap(), Some((1, 9)));
        assert_eq!(unit.read(8).unwrap(), Page::Trimmed);
        assert_eq!(unit.read(9).unwrap(), data(b"x"));
    }

    #[test]
    fn reclaim_drops_hot_pages_below_horizon() {
        let disk = MemDisk::default();
        let mut unit = open(&disk, 4, 16);
        for addr in 0..6u64 {
            unit.write(addr, b"x").unwrap();
        }
        unit.trim_prefix(4).unwrap();
        let stats = unit.tier_stats();
        assert_eq!(stats.hot_pages, 2);
        assert_eq!(stats.reclaimed_pages, 4);
        assert_eq!(unit.live_pages(), 2);
        assert_eq!(unit.read(1).unwrap(), Page::Trimmed);
        assert_eq!(unit.read(5).unwrap(), data(b"x"));
        // Hot pages just evaporate: no slot was ever written for them.
        assert!(device(&disk, 4).scan().is_empty());
    }

    #[test]
    fn scrub_checks_cold_payloads() {
        let disk = MemDisk::default();
        let mut unit = open(&disk, 8, 1);
        unit.write(0, b"checked").unwrap();
        unit.write(1, b"also").unwrap();
        unit.write(2, b"hot").unwrap();
        // Only the device carries checksums; the one hot page is RAM.
        assert_eq!(unit.tier_stats().hot_pages, 1);
        let report = unit.scrub().unwrap();
        assert_eq!((report.pages_checked, report.errors), (2, 0));
        // Bit rot behind the unit's back is found: the first byte of the
        // first record's payload, right after its 32-byte header.
        disk.corrupt("seg-0.dat", 32, b"X");
        let report = unit.scrub().unwrap();
        assert_eq!((report.pages_checked, report.errors), (2, 1));
    }
}
