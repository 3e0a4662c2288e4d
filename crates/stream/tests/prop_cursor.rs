//! Property test: `StreamCursor::extend` (append in place above the known
//! suffix, merge only what lands below it) is observably the full merge it
//! replaced, for any interleaving of above-suffix, below-suffix and
//! duplicate discoveries with iterator movement in between.

use corfu::LogOffset;
use corfu_stream::StreamCursor;
use proptest::prelude::*;

/// The reference: a cursor whose `extend` rebuilds the whole membership
/// list with a two-way merge and re-derives the iterator from its consumed
/// watermark on every call.
#[derive(Default)]
struct FullMerge {
    offsets: Vec<LogOffset>,
    next: usize,
    synced_tail: LogOffset,
}

impl FullMerge {
    fn peek(&self) -> Option<LogOffset> {
        self.offsets.get(self.next).copied()
    }

    fn extend(&mut self, mut discovered: Vec<LogOffset>, tail: LogOffset) {
        discovered.sort_unstable();
        discovered.dedup();
        let watermark = self.next.checked_sub(1).map(|i| self.offsets[i]);
        let mut merged = self.offsets.clone();
        merged.extend(discovered);
        merged.sort_unstable();
        merged.dedup();
        self.offsets = merged;
        self.next = match watermark {
            Some(w) => self.offsets.partition_point(|&o| o <= w),
            None => 0,
        };
        self.synced_tail = self.synced_tail.max(tail);
    }

    fn advance(&mut self) -> Option<LogOffset> {
        let off = self.peek()?;
        self.next += 1;
        Some(off)
    }

    fn seek(&mut self, offset: LogOffset) {
        self.next = self.offsets.partition_point(|&o| o < offset);
    }

    fn drop_current(&mut self) {
        if self.next < self.offsets.len() {
            self.offsets.remove(self.next);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Discover offsets this far above the highest known one (the steady
    /// state: a sync finds newer entries).
    Above(Vec<u64>),
    /// Discover arbitrary offsets of a small range: below the suffix (a
    /// remapped stream), duplicates of known ones, and above, mixed.
    Anywhere(Vec<u64>),
    /// Re-discover known offsets by index (a concurrent sync got there
    /// first), plus one offset above.
    Duplicates(Vec<usize>),
    Advance,
    Seek(u64),
    DropCurrent,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(1u64..6, 0..5).prop_map(Op::Above),
        2 => proptest::collection::vec(0u64..400, 0..6).prop_map(Op::Anywhere),
        1 => proptest::collection::vec(0usize..64, 1..4).prop_map(Op::Duplicates),
        4 => Just(Op::Advance),
        1 => (0u64..400).prop_map(Op::Seek),
        1 => Just(Op::DropCurrent),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extend_equals_the_full_merge(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut cursor = StreamCursor::new(1);
        let mut model = FullMerge::default();
        let mut tail = 0;
        for op in ops {
            let discovered = match op {
                Op::Above(steps) => {
                    let mut at = model.offsets.last().copied().unwrap_or(0);
                    Some(steps.into_iter().map(|s| { at += s; at }).collect::<Vec<_>>())
                }
                Op::Anywhere(offsets) => Some(offsets),
                Op::Duplicates(picks) if !model.offsets.is_empty() => {
                    let n = model.offsets.len();
                    let mut d: Vec<_> = picks.into_iter().map(|i| model.offsets[i % n]).collect();
                    d.push(model.offsets[n - 1] + 1);
                    Some(d)
                }
                Op::Duplicates(_) => None,
                Op::Advance => {
                    prop_assert_eq!(cursor.advance(), model.advance());
                    None
                }
                Op::Seek(to) => {
                    cursor.seek(to);
                    model.seek(to);
                    None
                }
                Op::DropCurrent => {
                    cursor.drop_current();
                    model.drop_current();
                    None
                }
            };
            if let Some(discovered) = discovered {
                // Syncs report growing tails, but a stale one must not
                // lower what is already known.
                tail = discovered.iter().copied().max().map_or(tail, |m| m + 1);
                cursor.extend(discovered.clone(), tail);
                model.extend(discovered, tail);
            }
            prop_assert_eq!(cursor.offsets(), &model.offsets[..]);
            prop_assert_eq!(cursor.peek(), model.peek());
            prop_assert_eq!(cursor.synced_tail(), model.synced_tail);
            prop_assert_eq!(cursor.backlog(), model.offsets.len() - model.next);
        }
    }
}
