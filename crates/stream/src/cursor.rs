use corfu::{LogOffset, StreamId};

/// Client-side state for one stream: the reconstructed linked list of
/// member offsets plus an iterator over it.
///
/// Invariant: `offsets` is sorted ascending and, below `synced_tail`,
/// contains *every* offset the sequencer issued for this stream (some of
/// which may turn out to hold junk — `readnext` skips those lazily).
#[derive(Debug, Clone)]
pub struct StreamCursor {
    /// The stream this cursor tracks.
    pub id: StreamId,
    /// Known member offsets, ascending.
    offsets: Vec<LogOffset>,
    /// Index into `offsets` of the next entry to deliver.
    next: usize,
    /// Membership is complete for all offsets below this global tail.
    synced_tail: LogOffset,
}

impl StreamCursor {
    /// Creates an empty cursor.
    pub fn new(id: StreamId) -> Self {
        Self { id, offsets: Vec::new(), next: 0, synced_tail: 0 }
    }

    /// The highest known member offset.
    pub fn max_known(&self) -> Option<LogOffset> {
        self.offsets.last().copied()
    }

    /// The global tail through which membership is known.
    pub fn synced_tail(&self) -> LogOffset {
        self.synced_tail
    }

    /// All known member offsets (ascending).
    pub fn offsets(&self) -> &[LogOffset] {
        &self.offsets
    }

    /// The offset the next `readnext` will deliver, if any is known.
    pub fn peek(&self) -> Option<LogOffset> {
        self.offsets.get(self.next).copied()
    }

    /// Marks the head entry consumed and returns its offset.
    pub fn advance(&mut self) -> Option<LogOffset> {
        let off = self.peek()?;
        self.next += 1;
        Some(off)
    }

    /// Removes the entry at the iterator head without delivering it (used
    /// when it turns out to hold junk).
    pub fn drop_current(&mut self) {
        if self.next < self.offsets.len() {
            self.offsets.remove(self.next);
        }
    }

    /// Whether `offset` is a known member (binary search).
    pub fn contains(&self, offset: LogOffset) -> bool {
        self.offsets.binary_search(&offset).is_ok()
    }

    /// The known member offsets strictly above `offset` (ascending).
    pub fn above(&self, offset: LogOffset) -> &[LogOffset] {
        &self.offsets[self.offsets.partition_point(|&o| o <= offset)..]
    }

    /// The known member offsets strictly below `offset` (ascending).
    pub fn below(&self, offset: LogOffset) -> &[LogOffset] {
        &self.offsets[..self.offsets.partition_point(|&o| o < offset)]
    }

    /// Integrates newly discovered offsets (any order; duplicates of
    /// already-known offsets are dropped) and advances the synced tail.
    ///
    /// Discoveries that sort above everything known — every discovery,
    /// outside a shard remap — are appended in place, so the cost is
    /// proportional to what is new, not to what the stream holds.
    ///
    /// Discoveries may also sort *below* the known suffix: a stream
    /// remapped back to a lower-numbered log gets numerically smaller
    /// offsets for newer entries. Those are merged into the membership list
    /// — keeping the list complete for `offsets`/`seek`/fresh replays — but
    /// the iterator never rewinds below its consumed watermark: offsets
    /// inserted at or below the last delivered offset are not delivered by
    /// this cursor, while insertions between the watermark and the next
    /// pending entry are.
    pub fn extend(&mut self, mut discovered: Vec<LogOffset>, tail: LogOffset) {
        discovered.sort_unstable();
        discovered.dedup();
        let split = match self.offsets.last() {
            Some(&max) => discovered.partition_point(|&o| o <= max),
            None => 0,
        };
        let (below, above) = discovered.split_at(split);
        if below.iter().any(|&o| !self.contains(o)) {
            self.merge_below(below);
        }
        // `next` indexes the unchanged prefix, so appending never moves it.
        self.offsets.extend_from_slice(above);
        self.synced_tail = self.synced_tail.max(tail);
    }

    /// Merges `below` (sorted, unique, nothing above the known maximum)
    /// into the membership list, keeping the iterator at its watermark.
    fn merge_below(&mut self, below: &[LogOffset]) {
        let watermark = self.next.checked_sub(1).map(|i| self.offsets[i]);
        let mut merged = Vec::with_capacity(self.offsets.len() + below.len());
        let mut a = self.offsets.iter().copied().peekable();
        let mut b = below.iter().copied().peekable();
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) if x <= y => {
                    if x == y {
                        b.next();
                    }
                    a.next()
                }
                (Some(_), Some(_)) | (None, Some(_)) => b.next(),
                (Some(_), None) => a.next(),
                (None, None) => break,
            };
            merged.extend(next);
        }
        self.offsets = merged;
        self.next = match watermark {
            Some(w) => self.offsets.partition_point(|&o| o <= w),
            None => 0,
        };
    }

    /// Repositions the iterator so the next delivered offset is the first
    /// one `>= offset`. Returns the number of entries skipped or rewound.
    pub fn seek(&mut self, offset: LogOffset) -> usize {
        let target = self.offsets.partition_point(|&o| o < offset);
        let moved = target.abs_diff(self.next);
        self.next = target;
        moved
    }

    /// Number of known-but-unconsumed entries.
    pub fn backlog(&self) -> usize {
        self.offsets.len() - self.next
    }

    /// The next (up to) `n` unconsumed member offsets, in delivery order —
    /// what the upcoming `readnext` calls will try to fetch. Feeds the
    /// readahead prefetcher.
    pub fn upcoming(&self, n: usize) -> &[LogOffset] {
        let end = self.next.saturating_add(n).min(self.offsets.len());
        &self.offsets[self.next..end]
    }

    /// Forgets membership below `horizon` (after a checkpoint + trim). The
    /// iterator position is preserved relative to the remaining entries.
    pub fn forget_below(&mut self, horizon: LogOffset) {
        let cut = self.offsets.partition_point(|&o| o < horizon);
        self.offsets.drain(..cut);
        self.next = self.next.saturating_sub(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_and_iterate() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![5, 2, 9], 10);
        assert_eq!(c.offsets(), &[2, 5, 9]);
        assert_eq!(c.peek(), Some(2));
        assert_eq!(c.advance(), Some(2));
        assert_eq!(c.advance(), Some(5));
        assert_eq!(c.backlog(), 1);
        c.extend(vec![12], 13);
        assert_eq!(c.advance(), Some(9));
        assert_eq!(c.advance(), Some(12));
        assert_eq!(c.advance(), None);
        assert_eq!(c.synced_tail(), 13);
    }

    #[test]
    fn extend_merges_below_the_known_suffix_without_rewinding() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![10, 20], 30);
        assert_eq!(c.advance(), Some(10));
        // A remapped-back stream discovers offsets below the suffix: they
        // join the membership list, the iterator position is preserved.
        c.extend(vec![5, 15, 25], 30);
        assert_eq!(c.offsets(), &[5, 10, 15, 20, 25]);
        assert_eq!(c.advance(), Some(15), "position stays at the old next entry");
        assert_eq!(c.advance(), Some(20));
        assert_eq!(c.advance(), Some(25));
        // Fully consumed, then a below-max discovery arrives: skipped, not
        // rewound to; later above-max discoveries still deliver.
        c.extend(vec![1], 30);
        assert_eq!(c.peek(), None);
        c.extend(vec![40], 41);
        assert_eq!(c.advance(), Some(40));
        assert_eq!(c.offsets(), &[1, 5, 10, 15, 20, 25, 40]);
    }

    #[test]
    fn drop_current_skips_junk() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![1, 2, 3], 4);
        assert_eq!(c.advance(), Some(1));
        c.drop_current(); // 2 turned out to be junk
        assert_eq!(c.advance(), Some(3));
        assert_eq!(c.offsets(), &[1, 3]);
    }

    #[test]
    fn seek_both_directions() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![10, 20, 30, 40], 50);
        assert_eq!(c.seek(25), 2); // skips 10, 20
        assert_eq!(c.peek(), Some(30));
        assert_eq!(c.seek(0), 2); // rewind to start
        assert_eq!(c.peek(), Some(10));
        assert_eq!(c.seek(40), 3);
        assert_eq!(c.peek(), Some(40));
        assert_eq!(c.seek(41), 1);
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn upcoming_windows_from_iterator_position() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![10, 20, 30, 40], 50);
        assert_eq!(c.upcoming(2), &[10, 20]);
        c.advance();
        assert_eq!(c.upcoming(2), &[20, 30]);
        assert_eq!(c.upcoming(100), &[20, 30, 40]);
        assert_eq!(c.upcoming(usize::MAX), &[20, 30, 40]);
        assert_eq!(c.upcoming(0), &[] as &[LogOffset]);
    }

    #[test]
    fn forget_below_preserves_position() {
        let mut c = StreamCursor::new(1);
        c.extend(vec![1, 2, 3, 4, 5], 6);
        c.advance();
        c.advance();
        c.advance(); // next points at 4
        c.forget_below(3);
        assert_eq!(c.offsets(), &[3, 4, 5]);
        assert_eq!(c.peek(), Some(4));
    }
}
