//! A model of playback that knows nothing of cursors, runs or caches: what
//! was written where, and what a runtime hosting some of the objects must
//! therefore apply, in which order. The differential oracle of
//! `prop_playback.rs`, fed there from the test's own writes, and the model
//! the history checker of `transactions.rs` replays a scanned log into: there
//! each update carries its whole buffer, and the state an object reaches at
//! a prefix of the log is its owed updates applied in order.
//!
//! Integration test binaries pull this in as a module of their own; not
//! every binary uses every item, hence the allowance below.
#![allow(dead_code)]

use std::collections::BTreeMap;

use tango::Oid;

/// The log offset type, as the runtime's `ApplyMeta` reports it.
pub type LogOffset = u64;

/// One `apply` upcall: where the entry sits, the object, and the first byte
/// of the update (so that the order within an entry shows).
pub type Apply = (LogOffset, Oid, u8);

/// What playback owes; `T` is what the model keeps of an update — its first
/// byte in `prop_playback.rs`, its buffer in the history checker.
pub struct PlaybackModel<T = u8> {
    /// The updates each entry applies once it is delivered, in the order its
    /// record lists them. Entries that apply nothing (junk, decisions,
    /// aborted commits) are simply absent.
    written: BTreeMap<LogOffset, Vec<(Oid, T)>>,
    /// Per hosted object, the offset below which it has been delivered all
    /// there is. An object is hosted from the beginning of its stream.
    delivered_below: BTreeMap<Oid, LogOffset>,
}

impl<T> Default for PlaybackModel<T> {
    fn default() -> Self {
        Self { written: BTreeMap::new(), delivered_below: BTreeMap::new() }
    }
}

impl<T: Clone> PlaybackModel<T> {
    /// The entry at `offset` applies `updates`, in this order.
    pub fn wrote(&mut self, offset: LogOffset, updates: Vec<(Oid, T)>) {
        assert!(self.written.insert(offset, updates).is_none(), "offset {offset} written twice");
    }

    /// The runtime hosts `oid` from now on.
    pub fn host(&mut self, oid: Oid) {
        self.delivered_below.entry(oid).or_insert(0);
    }

    /// What a playback to `target` owes: every update below `target` of a
    /// hosted object that the object has not been delivered yet — the sorted
    /// merge of the hosted streams, one apply per member object per offset.
    pub fn pending(&self, target: LogOffset) -> Vec<(LogOffset, Oid, T)> {
        let mut owed = Vec::new();
        for (&offset, updates) in self.written.range(..target) {
            for (oid, update) in updates {
                if self.delivered_below.get(oid).is_some_and(|&below| offset >= below) {
                    owed.push((offset, *oid, update.clone()));
                }
            }
        }
        owed
    }

    /// The runtime applied `applies` (a prefix of what was pending): none of
    /// it is owed again.
    pub fn applied(&mut self, applies: &[(LogOffset, Oid, T)]) {
        for &(offset, oid, _) in applies {
            let below = self.delivered_below.get_mut(&oid).expect("applied to a hosted object");
            *below = (*below).max(offset + 1);
        }
    }
}
