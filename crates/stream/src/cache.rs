use std::collections::hash_map;
use std::collections::VecDeque;

use corfu::{Entry, LogOffset};
use tango_wire::IdMap;

/// A bounded FIFO cache of log entries, each held as the page it arrived
/// in: a handle on the storage node's reply and a range of it, not a
/// decoded copy (see [`Entry`]). Caching an entry allocates nothing, and a
/// reply's buffer lives exactly as long as the last of its entries the
/// cache (or a reader) still holds.
///
/// A commit record appended to multiple streams is encountered once per
/// stream during playback; the cache ensures it is fetched from the log only
/// once. The generating client also seeds the cache on append, so it usually
/// replays its own writes without any log reads.
pub struct EntryCache {
    map: IdMap<LogOffset, Entry>,
    order: VecDeque<LogOffset>,
    capacity: usize,
    /// The buffer a bulk fetch collects its entries in, kept (empty) between
    /// fetches so that collecting them allocates only while it grows.
    spare: Vec<(LogOffset, Entry)>,
}

impl EntryCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { map: IdMap::default(), order: VecDeque::new(), capacity, spare: Vec::new() }
    }

    /// Looks up the entry at `offset`. Hit/miss accounting lives in the
    /// stream client's `stream.cache_hits/misses` counters, not here.
    pub fn get(&self, offset: LogOffset) -> Option<Entry> {
        self.map.get(&offset).cloned()
    }

    /// Inserts an entry, evicting the oldest if full.
    pub fn insert(&mut self, offset: LogOffset, entry: Entry) {
        let hash_map::Entry::Vacant(slot) = self.map.entry(offset) else { return };
        slot.insert(entry);
        self.order.push_back(offset);
        if self.map.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }

    /// An empty buffer to collect entries in outside the lock: emptied into
    /// the cache by [`EntryCache::insert_lent`], returned by
    /// [`EntryCache::give_back`]. Concurrent borrowers get a new one.
    pub(crate) fn lend_buffer(&mut self) -> Vec<(LogOffset, Entry)> {
        std::mem::take(&mut self.spare)
    }

    /// Inserts, in order, the entries collected in a lent buffer, leaving
    /// it empty.
    pub(crate) fn insert_lent(&mut self, entries: &mut Vec<(LogOffset, Entry)>) {
        for (offset, entry) in entries.drain(..) {
            self.insert(offset, entry);
        }
    }

    /// Keeps an emptied lent buffer for the next borrower, if it has more
    /// room than the one kept.
    pub(crate) fn give_back(&mut self, buffer: Vec<(LogOffset, Entry)>) {
        debug_assert!(buffer.is_empty());
        if buffer.capacity() > self.spare.capacity() {
            self.spare = buffer;
        }
    }

    /// Drops every cached entry below `horizon` (after a prefix trim).
    pub fn evict_below(&mut self, horizon: LogOffset) {
        self.map.retain(|&off, _| off >= horizon);
        self.order.retain(|&off| off >= horizon);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use corfu::EntryEnvelope;

    fn entry(tag: u8) -> Entry {
        Entry::encode(&EntryEnvelope::raw(Bytes::from(vec![tag])), tag as LogOffset).unwrap()
    }

    #[test]
    fn fifo_eviction() {
        let mut c = EntryCache::new(2);
        c.insert(1, entry(1));
        c.insert(2, entry(2));
        c.insert(3, entry(3));
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = EntryCache::new(2);
        c.insert(1, entry(1));
        c.insert(1, entry(9));
        assert_eq!(c.get(1).unwrap().payload(), [1]);
    }

    #[test]
    fn a_lent_buffer_comes_back_empty_and_keeps_its_room() {
        let mut c = EntryCache::new(10);
        let mut lent = c.lend_buffer();
        lent.extend((0..4).map(|off| (off, entry(off as u8))));
        let room = lent.capacity();
        c.insert_lent(&mut lent);
        assert_eq!(c.len(), 4);
        assert!(lent.is_empty());
        c.give_back(lent);
        let again = c.lend_buffer();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), room);
        assert_eq!(c.lend_buffer().capacity(), 0, "a second borrower gets a new one");
    }

    #[test]
    fn evict_below_horizon() {
        let mut c = EntryCache::new(10);
        for off in 0..5 {
            c.insert(off, entry(off as u8));
        }
        c.evict_below(3);
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }
}
