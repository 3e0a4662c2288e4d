//! The Tango log-record vocabulary stored in entry payloads.

use bytes::Bytes;
use tango_wire::{decode_all, decode_seq, Decode, Encode, Reader, WireError, Writer};

use crate::{KeyHash, LogOffset, Oid};

/// Globally unique transaction identifier: the generating runtime's client
/// id plus a per-runtime sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId {
    /// The generating runtime's client id.
    pub client: u64,
    /// Per-runtime transaction counter.
    pub seq: u64,
}

/// A single object mutation: the opaque buffer a mutator coalesced its
/// parameters into (§3.1), plus the optional fine-grained versioning key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// The object being mutated.
    pub oid: Oid,
    /// Fine-grained versioning key (None = whole-object).
    pub key: Option<KeyHash>,
    /// The opaque update buffer, interpreted by the object's `apply`.
    pub data: Bytes,
}

/// One entry of a transaction's read set: the object/key read and the
/// version it had at read time (the last log offset that modified it, +1;
/// 0 = never modified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadKey {
    /// The object read.
    pub oid: Oid,
    /// Fine-grained key (None = whole-object read).
    pub key: Option<KeyHash>,
    /// The version observed at read time.
    pub version: u64,
}

/// Everything Tango writes into the shared log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A non-transactional single-object update.
    Update(UpdateRecord),
    /// Buffered transactional writes flushed before the commit record
    /// ("speculative writes", §3.2): invisible until the commit record.
    Speculative {
        /// The owning transaction.
        txid: TxId,
        /// The buffered updates.
        updates: Vec<UpdateRecord>,
    },
    /// A transaction commit record (§3.2): appended to every write-set
    /// stream via `multiappend`, so it occupies one position in the global
    /// order (§4.1).
    Commit {
        /// The transaction id.
        txid: TxId,
        /// The read set with observed versions.
        reads: Vec<ReadKey>,
        /// Small write sets are carried inline.
        updates: Vec<UpdateRecord>,
        /// Offsets of earlier [`LogRecord::Speculative`] entries belonging
        /// to this transaction.
        speculative: Vec<LogOffset>,
        /// True if the generating client will follow up with a
        /// [`LogRecord::Decision`] (§4.1 case C).
        needs_decision: bool,
    },
    /// The commit/abort outcome of an earlier commit record, appended to
    /// the same streams for consumers that cannot evaluate the read set.
    Decision {
        /// The transaction decided.
        txid: TxId,
        /// The commit record's position.
        commit_pos: LogOffset,
        /// True = committed.
        committed: bool,
    },
    /// A checkpoint of an object's view; playback may start here instead of
    /// the beginning of the stream (§3.1 "History").
    Checkpoint {
        /// The object checkpointed.
        oid: Oid,
        /// Opaque state produced by [`crate::StateMachine::checkpoint`].
        data: Bytes,
        /// The playback position the checkpoint captures (entries at or
        /// below this offset are reflected in `data`).
        as_of: LogOffset,
    },
}

impl Encode for TxId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.client);
        w.put_u64(self.seq);
    }
}

impl Decode for TxId {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        Ok(Self { client: r.get_u64()?, seq: r.get_u64()? })
    }
}

impl Encode for UpdateRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.oid);
        self.key.encode(w);
        w.put_bytes(&self.data);
    }
}

impl Decode for UpdateRecord {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        UpdateRef::decode(r).map(|update| update.to_owned())
    }
}

/// An [`UpdateRecord`] whose buffer is a view into the entry payload it was
/// decoded from: what playback hands to `apply`, which only reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpdateRef<'a> {
    pub oid: Oid,
    pub key: Option<KeyHash>,
    pub data: &'a [u8],
}

impl<'a> UpdateRef<'a> {
    fn decode(r: &mut Reader<'a>) -> tango_wire::Result<Self> {
        Ok(Self { oid: r.get_u32()?, key: Option::<u64>::decode(r)?, data: r.get_bytes()? })
    }

    /// The update with a copy of its buffer, for whoever keeps it.
    pub fn to_owned(self) -> UpdateRecord {
        UpdateRecord { oid: self.oid, key: self.key, data: Bytes::copy_from_slice(self.data) }
    }
}

impl UpdateRecord {
    /// The update with its buffer lent.
    pub(crate) fn as_ref(&self) -> UpdateRef<'_> {
        UpdateRef { oid: self.oid, key: self.key, data: &self.data }
    }
}

/// A [`LogRecord`] decoded where it lies: update and checkpoint buffers are
/// views into the payload. The one parser of the record format — the owned
/// [`Decode`] is this plus a copy of each buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LogRecordRef<'a> {
    /// [`LogRecord::Update`].
    Update(UpdateRef<'a>),
    /// [`LogRecord::Speculative`].
    Speculative { txid: TxId, updates: Vec<UpdateRef<'a>> },
    /// [`LogRecord::Commit`].
    Commit {
        txid: TxId,
        reads: Vec<ReadKey>,
        updates: Vec<UpdateRef<'a>>,
        speculative: Vec<LogOffset>,
        needs_decision: bool,
    },
    /// [`LogRecord::Decision`].
    Decision { txid: TxId, commit_pos: LogOffset, committed: bool },
    /// [`LogRecord::Checkpoint`].
    Checkpoint { oid: Oid, data: &'a [u8], as_of: LogOffset },
}

impl<'a> LogRecordRef<'a> {
    /// Decodes the record that is the whole of `payload`.
    pub fn decode(payload: &'a [u8]) -> tango_wire::Result<Self> {
        decode_all(payload, Self::decode_from)
    }

    fn decode_from(r: &mut Reader<'a>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(Self::Update(UpdateRef::decode(r)?)),
            1 => Ok(Self::Speculative {
                txid: TxId::decode(r)?,
                updates: decode_seq(r, UpdateRef::decode)?,
            }),
            2 => {
                let txid = TxId::decode(r)?;
                let reads = Vec::<ReadKey>::decode(r)?;
                let updates = decode_seq(r, UpdateRef::decode)?;
                let n = r.get_len(1 << 20)?;
                let mut speculative = Vec::with_capacity(n);
                for _ in 0..n {
                    speculative.push(r.get_u64()?);
                }
                let needs_decision = r.get_bool()?;
                Ok(Self::Commit { txid, reads, updates, speculative, needs_decision })
            }
            3 => Ok(Self::Decision {
                txid: TxId::decode(r)?,
                commit_pos: r.get_u64()?,
                committed: r.get_bool()?,
            }),
            4 => Ok(Self::Checkpoint {
                oid: r.get_u32()?,
                data: r.get_bytes()?,
                as_of: r.get_u64()?,
            }),
            tag => Err(WireError::InvalidTag { what: "LogRecord", tag: tag as u64 }),
        }
    }

    /// The record with a copy of every buffer.
    fn into_owned(self) -> LogRecord {
        let owned =
            |updates: Vec<UpdateRef<'_>>| updates.into_iter().map(UpdateRef::to_owned).collect();
        match self {
            Self::Update(update) => LogRecord::Update(update.to_owned()),
            Self::Speculative { txid, updates } => {
                LogRecord::Speculative { txid, updates: owned(updates) }
            }
            Self::Commit { txid, reads, updates, speculative, needs_decision } => {
                LogRecord::Commit {
                    txid,
                    reads,
                    updates: owned(updates),
                    speculative,
                    needs_decision,
                }
            }
            Self::Decision { txid, commit_pos, committed } => {
                LogRecord::Decision { txid, commit_pos, committed }
            }
            Self::Checkpoint { oid, data, as_of } => {
                LogRecord::Checkpoint { oid, data: Bytes::copy_from_slice(data), as_of }
            }
        }
    }
}

impl Encode for ReadKey {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.oid);
        self.key.encode(w);
        w.put_u64(self.version);
    }
}

impl Decode for ReadKey {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        Ok(Self { oid: r.get_u32()?, key: Option::<u64>::decode(r)?, version: r.get_u64()? })
    }
}

impl Encode for LogRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            LogRecord::Update(u) => {
                w.put_u8(0);
                u.encode(w);
            }
            LogRecord::Speculative { txid, updates } => {
                w.put_u8(1);
                txid.encode(w);
                updates.encode(w);
            }
            LogRecord::Commit { txid, reads, updates, speculative, needs_decision } => {
                w.put_u8(2);
                txid.encode(w);
                reads.encode(w);
                updates.encode(w);
                w.put_varint(speculative.len() as u64);
                for &off in speculative {
                    w.put_u64(off);
                }
                w.put_bool(*needs_decision);
            }
            LogRecord::Decision { txid, commit_pos, committed } => {
                w.put_u8(3);
                txid.encode(w);
                w.put_u64(*commit_pos);
                w.put_bool(*committed);
            }
            LogRecord::Checkpoint { oid, data, as_of } => {
                w.put_u8(4);
                w.put_u32(*oid);
                w.put_bytes(data);
                w.put_u64(*as_of);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        LogRecordRef::decode_from(r).map(LogRecordRef::into_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_wire::{decode_from_slice, encode_to_vec};

    fn upd(oid: Oid, key: Option<u64>) -> UpdateRecord {
        UpdateRecord { oid, key, data: Bytes::from_static(b"data") }
    }

    #[test]
    fn all_records_roundtrip() {
        let records = vec![
            LogRecord::Update(upd(3, None)),
            LogRecord::Update(upd(3, Some(0xDEAD_BEEF))),
            LogRecord::Speculative {
                txid: TxId { client: 1, seq: 2 },
                updates: vec![upd(1, None), upd(2, Some(7))],
            },
            LogRecord::Commit {
                txid: TxId { client: 9, seq: 100 },
                reads: vec![
                    ReadKey { oid: 1, key: None, version: 0 },
                    ReadKey { oid: 2, key: Some(5), version: 77 },
                ],
                updates: vec![upd(1, Some(5))],
                speculative: vec![10, 20],
                needs_decision: true,
            },
            LogRecord::Decision {
                txid: TxId { client: 9, seq: 100 },
                commit_pos: 55,
                committed: false,
            },
            LogRecord::Checkpoint { oid: 4, data: Bytes::from_static(b"ckpt"), as_of: 42 },
        ];
        for rec in records {
            let bytes = encode_to_vec(&rec);
            assert_eq!(decode_from_slice::<LogRecord>(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(decode_from_slice::<LogRecord>(&[]).is_err());
        assert!(decode_from_slice::<LogRecord>(&[99]).is_err());
        assert!(decode_from_slice::<LogRecord>(&[2, 1, 2, 3]).is_err());
    }
}
