use corfu::{Entry, LogOffset, StreamId};

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

    /// Adds `offset`, an entry this client appended itself, when its own
    /// header shows the cursor missed nothing before it: `previous`, the
    /// stream's entry before `offset` by that header, is the newest member
    /// known (or there is neither). Otherwise nothing changes. The synced
    /// tail stays either way: the header speaks for this stream alone.
    pub fn extend_by_own(&mut self, previous: Option<LogOffset>, offset: LogOffset) {
        if self.max_known() == previous && previous.is_none_or(|p| p < offset) {
            self.offsets.push(offset);
        }
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

    /// Moves the iterator past every offset `<= offset`; never backward.
    pub fn advance_through(&mut self, offset: LogOffset) {
        self.next = self.next.max(self.offsets.partition_point(|&o| o <= offset));
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

/// One offset of a [`Run`]: the entry there, and which streams' cursors
/// deliver it.
#[derive(Debug, Clone, Copy)]
pub struct Delivery<'a> {
    /// The offset delivered.
    pub offset: LogOffset,
    /// The entry it holds; `None` for junk or trimmed.
    pub entry: Option<&'a Entry>,
    /// The run's `(offset, stream)` pairs of this offset.
    streams: &'a [(LogOffset, StreamId)],
}

impl Delivery<'_> {
    /// Whether `stream`'s cursor is one of those delivering the entry.
    pub fn is_to(&self, stream: StreamId) -> bool {
        self.streams.iter().any(|&(_, to)| to == stream)
    }
}

/// The next stretch of several cursors' merged delivery order: the offsets
/// a playback of those streams delivers next, ascending, each with the
/// streams delivering it and, once fetched, the entry it holds. A playback
/// keeps one `Run` and refills it, so a refill allocates nothing once the
/// buffers have grown.
#[derive(Debug, Default)]
pub struct Run {
    /// `(offset, stream)` for every stream delivering every offset of the
    /// run, ascending.
    deliveries: Vec<(LogOffset, StreamId)>,
    /// The distinct offsets of `deliveries`, ascending.
    pub(crate) offsets: Vec<LogOffset>,
    /// Parallel to `offsets` (`None`: junk or trimmed).
    pub(crate) entries: Vec<Option<Entry>>,
}

impl Run {
    /// Refills the run with what `cursors` deliver next below `below`, at
    /// most `limit` offsets. Each cursor contributes its next `limit`
    /// offsets, so none of them can deliver anything unseen before the
    /// `limit`-th offset of the merge: everything any of the cursors
    /// delivers up to the run's last offset is in the run. The next merge
    /// continues behind it; an empty run means the cursors deliver nothing
    /// below `below`.
    pub(crate) fn merge<'a>(
        &mut self,
        cursors: impl Iterator<Item = &'a StreamCursor>,
        below: LogOffset,
        limit: usize,
    ) {
        self.deliveries.clear();
        self.offsets.clear();
        self.entries.clear();
        for cursor in cursors {
            let upcoming = cursor.upcoming(limit);
            let upcoming = &upcoming[..upcoming.partition_point(|&o| o < below)];
            self.deliveries.extend(upcoming.iter().map(|&offset| (offset, cursor.id)));
        }
        // One cursor's share is sorted already, which the sort sees at once.
        self.deliveries.sort_unstable();
        self.offsets.extend(self.deliveries.iter().map(|&(offset, _)| offset));
        self.offsets.dedup();
        if let Some(&cut) = self.offsets.get(limit) {
            self.offsets.truncate(limit);
            self.deliveries.truncate(self.deliveries.partition_point(|&(o, _)| o < cut));
        }
    }

    /// The run's offsets, ascending.
    pub fn offsets(&self) -> &[LogOffset] {
        &self.offsets
    }

    /// The `(offset, stream)` pairs of the run's first `applied` offsets.
    pub(crate) fn delivered(&self, applied: usize) -> &[(LogOffset, StreamId)] {
        let end = match self.offsets.get(applied) {
            Some(&next) => self.deliveries.partition_point(|&(o, _)| o < next),
            None => self.deliveries.len(),
        };
        &self.deliveries[..end]
    }

    /// The run in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = Delivery<'_>> {
        let per_offset = self.deliveries.chunk_by(|a, b| a.0 == b.0);
        per_offset.zip(&self.entries).map(|(streams, entry)| Delivery {
            offset: streams[0].0,
            entry: entry.as_ref(),
            streams,
        })
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

    fn cursor(id: StreamId, offsets: &[LogOffset]) -> StreamCursor {
        let mut c = StreamCursor::new(id);
        c.extend(offsets.to_vec(), offsets.last().map_or(0, |last| last + 1));
        c
    }

    fn deliveries(run: &mut Run) -> Vec<(LogOffset, Vec<StreamId>)> {
        run.entries.resize(run.offsets.len(), None);
        let to = |d: &Delivery<'_>| (1..=3).filter(|&s| d.is_to(s)).collect();
        run.iter().map(|d| (d.offset, to(&d))).collect()
    }

    #[test]
    fn a_run_is_the_merge_of_the_cursors_next_offsets_below_the_bound() {
        let (mut a, b, c) = (cursor(1, &[1, 4, 6, 9]), cursor(2, &[2, 4, 7]), cursor(3, &[]));
        a.advance();
        let mut run = Run::default();
        run.merge([&a, &b, &c].into_iter(), 9, 10);
        assert_eq!(run.offsets(), &[2, 4, 6, 7]);
        assert_eq!(
            deliveries(&mut run),
            vec![(2, vec![2]), (4, vec![1, 2]), (6, vec![1]), (7, vec![2])]
        );
        assert_eq!(run.delivered(0), &[]);
        assert_eq!(run.delivered(2), &[(2, 2), (4, 1), (4, 2)]);
        assert_eq!(run.delivered(4).len(), 5);
        run.merge([&a, &b, &c].into_iter(), 2, 10);
        assert!(run.offsets().is_empty());
    }

    #[test]
    fn a_run_ends_before_any_cursor_could_deliver_what_it_did_not_contribute() {
        // Two offsets each: stream 1 says nothing about 6 and beyond, so 7
        // must not be delivered yet — and is not, the run being two long.
        let (a, b) = (cursor(1, &[1, 5, 6, 8]), cursor(2, &[2, 7]));
        let mut run = Run::default();
        run.merge([&a, &b].into_iter(), 100, 2);
        assert_eq!(run.offsets(), &[1, 2]);
        run.merge([&a, &b].into_iter(), 100, 3);
        assert_eq!(deliveries(&mut run), vec![(1, vec![1]), (2, vec![2]), (5, vec![1])]);
        // An entry of both streams counts once.
        let b = cursor(2, &[1, 5, 7]);
        run.merge([&a, &b].into_iter(), 100, 3);
        assert_eq!(deliveries(&mut run), vec![(1, vec![1, 2]), (5, vec![1, 2]), (6, vec![1])]);
    }
}
