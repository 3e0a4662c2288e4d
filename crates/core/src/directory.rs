//! The object directory (§3.2 "Naming"): a Tango object at hard-coded
//! OID 0 mapping human-readable names to oids, and tracking per-object
//! `forget` offsets for garbage collection.

use std::collections::HashMap;

use tango_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::object::{ApplyMeta, StateMachine};
use crate::{LogOffset, Oid, DIRECTORY_OID};

/// Directory mutations, encoded as its update records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DirectoryOp {
    /// Bind `name` to `oid` and advance the allocator.
    Register {
        /// The human-readable object name.
        name: String,
        /// The oid being assigned.
        oid: Oid,
    },
    /// Record that `oid`'s history below `offset` may be reclaimed.
    SetForget {
        /// The object.
        oid: Oid,
        /// Entries strictly below this offset are forgettable.
        offset: LogOffset,
    },
}

impl Encode for DirectoryOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            DirectoryOp::Register { name, oid } => {
                w.put_u8(0);
                w.put_str(name);
                w.put_u32(*oid);
            }
            DirectoryOp::SetForget { oid, offset } => {
                w.put_u8(1);
                w.put_u32(*oid);
                w.put_u64(*offset);
            }
        }
    }
}

impl Decode for DirectoryOp {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(DirectoryOp::Register { name: r.get_str()?.to_owned(), oid: r.get_u32()? }),
            1 => Ok(DirectoryOp::SetForget { oid: r.get_u32()?, offset: r.get_u64()? }),
            tag => Err(WireError::InvalidTag { what: "DirectoryOp", tag: tag as u64 }),
        }
    }
}

/// The directory's in-memory view.
#[derive(Debug, Default, Clone)]
pub struct DirectoryState {
    names: HashMap<String, Oid>,
    forget: HashMap<Oid, LogOffset>,
    next_oid: Oid,
}

impl DirectoryState {
    /// Creates an empty directory. Oid 0 is the directory itself; user
    /// objects start at 1.
    pub fn new() -> Self {
        Self { names: HashMap::new(), forget: HashMap::new(), next_oid: 1 }
    }

    /// Looks up a name.
    pub fn resolve(&self, name: &str) -> Option<Oid> {
        self.names.get(name).copied()
    }

    /// The oid the next registration will receive.
    pub fn next_oid(&self) -> Oid {
        self.next_oid
    }

    /// All name bindings (for listing tools).
    pub fn bindings(&self) -> impl Iterator<Item = (&str, Oid)> {
        self.names.iter().map(|(n, &o)| (n.as_str(), o))
    }

    /// The forget offset for `oid`, or 0 if never set.
    pub fn forget_offset(&self, oid: Oid) -> LogOffset {
        self.forget.get(&oid).copied().unwrap_or(0)
    }

    /// The log prefix that may be trimmed: the minimum forget offset across
    /// every object the directory knows (§3.2) — each named one, each that
    /// ever recorded an offset, and the directory itself, whose records are
    /// log entries like any other's. An object that never forgot anything
    /// pins the horizon at 0.
    pub fn trim_horizon(&self) -> LogOffset {
        let known = self.names.values().chain(self.forget.keys()).chain([&DIRECTORY_OID]);
        known.map(|&oid| self.forget_offset(oid)).min().unwrap_or(0)
    }
}

impl StateMachine for DirectoryState {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        // Malformed directory records are ignored rather than poisoning the
        // view; they cannot occur through this runtime's own encoders.
        let Ok(op) = tango_wire::decode_from_slice::<DirectoryOp>(data) else {
            return;
        };
        match op {
            DirectoryOp::Register { name, oid } => {
                self.names.entry(name).or_insert(oid);
                self.next_oid = self.next_oid.max(oid + 1);
            }
            DirectoryOp::SetForget { oid, offset } => {
                let slot = self.forget.entry(oid).or_insert(0);
                *slot = (*slot).max(offset);
            }
        }
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        let mut names: Vec<(&String, &Oid)> = self.names.iter().collect();
        names.sort();
        w.put_varint(names.len() as u64);
        for (name, &oid) in names {
            w.put_str(name);
            w.put_u32(oid);
        }
        let mut forget: Vec<(&Oid, &LogOffset)> = self.forget.iter().collect();
        forget.sort();
        w.put_varint(forget.len() as u64);
        for (&oid, &off) in forget {
            w.put_u32(oid);
            w.put_u64(off);
        }
        w.put_u32(self.next_oid);
        Some(w.into_vec())
    }

    fn restore(&mut self, data: &[u8]) -> crate::Result<()> {
        let mut r = Reader::new(data);
        let mut fresh = DirectoryState::new();
        let parse = (|| -> tango_wire::Result<()> {
            let n = r.get_len(1 << 24)?;
            for _ in 0..n {
                let name = r.get_str()?.to_owned();
                let oid = r.get_u32()?;
                fresh.names.insert(name, oid);
            }
            let n = r.get_len(1 << 24)?;
            for _ in 0..n {
                let oid = r.get_u32()?;
                let off = r.get_u64()?;
                fresh.forget.insert(oid, off);
            }
            fresh.next_oid = r.get_u32()?;
            Ok(())
        })();
        parse.map_err(|e| crate::TangoError::Codec(e.to_string()))?;
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_wire::encode_to_vec;

    fn apply(state: &mut DirectoryState, op: DirectoryOp) {
        state.apply(&encode_to_vec(&op), &ApplyMeta::synthetic());
    }

    #[test]
    fn register_and_resolve() {
        let mut d = DirectoryState::new();
        apply(&mut d, DirectoryOp::Register { name: "free-list".into(), oid: 1 });
        apply(&mut d, DirectoryOp::Register { name: "alloc-table".into(), oid: 2 });
        assert_eq!(d.resolve("free-list"), Some(1));
        assert_eq!(d.resolve("alloc-table"), Some(2));
        assert_eq!(d.resolve("missing"), None);
        assert_eq!(d.next_oid(), 3);
    }

    #[test]
    fn duplicate_registration_keeps_first_binding() {
        let mut d = DirectoryState::new();
        apply(&mut d, DirectoryOp::Register { name: "x".into(), oid: 1 });
        apply(&mut d, DirectoryOp::Register { name: "x".into(), oid: 2 });
        assert_eq!(d.resolve("x"), Some(1));
        // The allocator still advances past the losing oid.
        assert_eq!(d.next_oid(), 3);
    }

    #[test]
    fn trim_horizon_is_min_across_objects() {
        let mut d = DirectoryState::new();
        apply(&mut d, DirectoryOp::Register { name: "a".into(), oid: 1 });
        apply(&mut d, DirectoryOp::Register { name: "b".into(), oid: 2 });
        assert_eq!(d.trim_horizon(), 0);
        apply(&mut d, DirectoryOp::SetForget { oid: 1, offset: 100 });
        // Object b never forgot anything: horizon pinned at 0.
        assert_eq!(d.trim_horizon(), 0);
        apply(&mut d, DirectoryOp::SetForget { oid: 2, offset: 60 });
        // Nor has the directory, whose own records sit in the same prefix.
        assert_eq!(d.trim_horizon(), 0);
        apply(&mut d, DirectoryOp::SetForget { oid: DIRECTORY_OID, offset: 80 });
        assert_eq!(d.trim_horizon(), 60);
        // An object nobody named counts once it has recorded an offset.
        apply(&mut d, DirectoryOp::SetForget { oid: 9, offset: 50 });
        assert_eq!(d.trim_horizon(), 50);
        // Forget offsets are monotone.
        apply(&mut d, DirectoryOp::SetForget { oid: 2, offset: 40 });
        assert_eq!(d.forget_offset(2), 60);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut d = DirectoryState::new();
        apply(&mut d, DirectoryOp::Register { name: "a".into(), oid: 1 });
        apply(&mut d, DirectoryOp::SetForget { oid: 1, offset: 42 });
        let bytes = d.checkpoint().unwrap();
        let mut restored = DirectoryState::new();
        restored.restore(&bytes).unwrap();
        assert_eq!(restored.resolve("a"), Some(1));
        assert_eq!(restored.forget_offset(1), 42);
        assert_eq!(restored.next_oid(), 2);
    }
}
