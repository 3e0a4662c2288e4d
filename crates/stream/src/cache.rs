use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use corfu::{EntryEnvelope, LogOffset};
use tango_wire::IdMap;

/// A bounded FIFO cache of decoded log entries.
///
/// A commit record appended to multiple streams is encountered once per
/// stream during playback; the cache ensures it is fetched from the log only
/// once. The generating client also seeds the cache on append, so it usually
/// replays its own writes without any log reads.
pub struct EntryCache {
    map: IdMap<LogOffset, Arc<EntryEnvelope>>,
    order: VecDeque<LogOffset>,
    capacity: usize,
}

impl EntryCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { map: IdMap::default(), order: VecDeque::new(), capacity }
    }

    /// Looks up the entry at `offset`. Hit/miss accounting lives in the
    /// stream client's `stream.cache_hits/misses` counters, not here.
    pub fn get(&self, offset: LogOffset) -> Option<Arc<EntryEnvelope>> {
        self.map.get(&offset).map(Arc::clone)
    }

    /// Inserts an entry, evicting the oldest if full.
    pub fn insert(&mut self, offset: LogOffset, entry: Arc<EntryEnvelope>) {
        let Entry::Vacant(slot) = self.map.entry(offset) else { return };
        slot.insert(entry);
        self.order.push_back(offset);
        if self.map.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
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

    fn entry(tag: u8) -> Arc<EntryEnvelope> {
        Arc::new(EntryEnvelope::raw(Bytes::from(vec![tag])))
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
        assert_eq!(c.get(1).unwrap().payload, Bytes::from(vec![1]));
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
