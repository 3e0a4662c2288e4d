//! Version tracking for optimistic concurrency control (§3.2).
//!
//! An object's version is the last log position that modified it (+1, so 0
//! means "never modified"). For large structures, objects may pass a
//! fine-grained key with each update/read; a read of key `k` then conflicts
//! only with writes to `k` or with whole-object writes, allowing
//! transactions to concurrently modify unrelated parts of a map or tree.
//!
//! This module is deliberately free of any I/O. The evaluation's figures
//! run the real runtime on the simulated testbed, so the goodput they
//! report is this table's.

use tango_wire::IdMap;

use crate::record::ReadKey;
use crate::{KeyHash, LogOffset, Oid};

/// Tracks the latest modification position per object and per key.
#[derive(Debug, Default, Clone)]
pub struct ConflictTable {
    /// Last modification of any part of the object.
    whole: IdMap<Oid, u64>,
    /// Last whole-object (key-less) write, which conflicts with every key.
    whole_writes: IdMap<Oid, u64>,
    /// Last modification per fine-grained key.
    keys: IdMap<(Oid, KeyHash), u64>,
}

impl ConflictTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `oid` (or key `key` within it) was modified by the
    /// entry at `pos`.
    pub fn record_write(&mut self, oid: Oid, key: Option<KeyHash>, pos: LogOffset) {
        let version = pos + 1;
        let whole = self.whole.entry(oid).or_insert(0);
        *whole = (*whole).max(version);
        match key {
            None => {
                let ww = self.whole_writes.entry(oid).or_insert(0);
                *ww = (*ww).max(version);
            }
            Some(k) => {
                let kv = self.keys.entry((oid, k)).or_insert(0);
                *kv = (*kv).max(version);
            }
        }
    }

    /// The version a transactional read of `(oid, key)` should record:
    /// the newest write that would conflict with it.
    pub fn version_for_read(&self, oid: Oid, key: Option<KeyHash>) -> u64 {
        match key {
            // A whole-object read conflicts with any write.
            None => self.whole.get(&oid).copied().unwrap_or(0),
            // A key read conflicts with writes to that key and with
            // whole-object writes.
            Some(k) => {
                let kv = self.keys.get(&(oid, k)).copied().unwrap_or(0);
                let ww = self.whole_writes.get(&oid).copied().unwrap_or(0);
                kv.max(ww)
            }
        }
    }

    /// The witness that `read` is stale: the offset of the newest
    /// conflicting write after the version it observed, if there is one.
    pub fn conflict(&self, read: &ReadKey) -> Option<LogOffset> {
        let version = self.version_for_read(read.oid, read.key);
        (version > read.version).then(|| version - 1)
    }

    /// Drops all state for `oid` (object deregistration).
    pub fn forget_object(&mut self, oid: Oid) {
        self.whole.remove(&oid);
        self.whole_writes.remove(&oid);
        self.keys.retain(|(o, _), _| *o != oid);
    }

    /// Number of tracked keys (for memory accounting in tests).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(oid: Oid, key: Option<u64>, version: u64) -> ReadKey {
        ReadKey { oid, key, version }
    }

    #[test]
    fn whole_object_semantics() {
        let mut t = ConflictTable::new();
        assert_eq!(t.version_for_read(1, None), 0);
        t.record_write(1, None, 9);
        assert_eq!(t.version_for_read(1, None), 10);
        assert_eq!(t.conflict(&read(1, None, 0)), Some(9));
        assert_eq!(t.conflict(&read(1, None, 10)), None);
        // Other objects are unaffected.
        assert_eq!(t.conflict(&read(2, None, 0)), None);
    }

    #[test]
    fn key_write_conflicts_with_key_and_whole_reads() {
        let mut t = ConflictTable::new();
        t.record_write(1, Some(5), 3);
        // Key 5 read is stale, key 6 read is not.
        assert_eq!(t.conflict(&read(1, Some(5), 0)), Some(3));
        assert_eq!(t.conflict(&read(1, Some(6), 0)), None);
        // A whole-object read conflicts with the key write.
        assert_eq!(t.conflict(&read(1, None, 0)), Some(3));
    }

    #[test]
    fn whole_write_conflicts_with_every_key_read() {
        let mut t = ConflictTable::new();
        t.record_write(1, None, 7);
        assert_eq!(t.conflict(&read(1, Some(5), 0)), Some(7));
        assert_eq!(t.conflict(&read(1, Some(999), 0)), Some(7));
        // A key read taken after the whole write is fine.
        assert_eq!(t.conflict(&read(1, Some(5), 8)), None);
    }

    #[test]
    fn versions_are_monotone() {
        let mut t = ConflictTable::new();
        t.record_write(1, Some(5), 10);
        t.record_write(1, Some(5), 4); // out-of-order record keeps the max
        assert_eq!(t.version_for_read(1, Some(5)), 11);
        // The witness is the newest conflicting write, not the first.
        assert_eq!(t.conflict(&read(1, Some(5), 0)), Some(10));
    }

    #[test]
    fn forget_object_clears_state() {
        let mut t = ConflictTable::new();
        t.record_write(1, Some(5), 3);
        t.record_write(2, Some(5), 3);
        t.forget_object(1);
        assert_eq!(t.version_for_read(1, Some(5)), 0);
        assert_eq!(t.version_for_read(2, Some(5)), 4);
        assert_eq!(t.tracked_keys(), 1);
    }
}
