//! The on-log entry format: per-stream backpointer headers + payload (§5).
//!
//! Each entry carries a small header per stream it belongs to. A header
//! holds the 31-bit stream id and backpointers to the previous K entries of
//! that stream, in one of two formats selected per header by the id's high
//! bit: 2-byte deltas relative to the entry's own offset (compact, but a
//! delta overflows if the previous entry is more than 64K entries back) or
//! 8-byte absolute offsets (at most K/4 of them, so the header size is
//! unchanged). The entry's own offset is therefore needed to decode relative
//! headers, which is fine: readers always know the offset they just read.

use bytes::Bytes;
use tango_wire::{Reader, Writer};

use crate::{CorfuError, LogOffset, Result, StreamId, MAX_STREAM_ID};

const ENTRY_MAGIC: u8 = 0xE7;
/// Magic for entries carrying a cross-log link section. Entries without a
/// link keep [`ENTRY_MAGIC`] and encode byte-identically to the pre-link
/// format.
const ENTRY_MAGIC_LINKED: u8 = 0xE8;
const FMT_ABSOLUTE: u32 = 1 << 31;

/// Links the per-log parts of one cross-log `multiappend` together (§4 OCC
/// applied across logs). Every part of the multiappend — one entry per
/// participating log — carries the same link. The part whose own offset
/// equals `home` is the *anchor*: it is written last, and its write-once
/// success or failure IS the atomic commit/abort decision for the whole
/// multiappend. A reader that encounters a non-anchor part resolves it by
/// reading `home`: a data entry there carrying this same link means the
/// multiappend committed (deliver the part); junk or an unrelated entry
/// means it aborted (skip the part like junk). Write-once storage makes
/// either resolution permanent, so replays decide identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossLogLink {
    /// Composite offset of the anchor part.
    pub home: LogOffset,
    /// Composite offsets of every part (including the anchor), ascending.
    pub parts: Vec<LogOffset>,
}

/// A decoded per-stream header: the stream id and absolute backpointers to
/// the previous entries of that stream (most recent first). An offset of
/// `u64::MAX` means "no previous entry".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// The stream this entry belongs to.
    pub stream: StreamId,
    /// Absolute offsets of the previous K entries in this stream, most
    /// recent first. May be shorter than K if the stream is young.
    pub backpointers: Vec<LogOffset>,
}

/// A log entry as stored on the storage nodes: stream headers + payload,
/// plus an optional cross-log link when the entry is one part of a
/// multiappend that spans logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryEnvelope {
    /// One header per stream the entry belongs to (empty for raw appends).
    pub headers: Vec<StreamHeader>,
    /// The application payload.
    pub payload: Bytes,
    /// Present iff this entry is part of a cross-log multiappend.
    pub link: Option<CrossLogLink>,
}

impl EntryEnvelope {
    /// Creates an envelope with no stream membership.
    pub fn raw(payload: Bytes) -> Self {
        Self { headers: Vec::new(), payload, link: None }
    }

    /// Returns the header for `stream`, if the entry belongs to it.
    pub fn header_for(&self, stream: StreamId) -> Option<&StreamHeader> {
        self.headers.iter().find(|h| h.stream == stream)
    }

    /// Returns true if the entry belongs to `stream`.
    pub fn belongs_to(&self, stream: StreamId) -> bool {
        self.header_for(stream).is_some()
    }

    /// Encodes the envelope for storage at `offset`. Backpointer deltas are
    /// computed relative to `offset`; any delta that does not fit in 16 bits
    /// switches that header to the absolute format (truncated to K/4
    /// pointers, minimum 1, matching §5).
    pub fn encode(&self, offset: LogOffset) -> Result<Vec<u8>> {
        self.encode_after(0, offset)
    }

    /// [`EntryEnvelope::encode`] behind `spare` zero bytes, for a caller
    /// that frames the entry in place instead of copying it into a frame.
    #[inline]
    pub(crate) fn encode_after(&self, spare: usize, offset: LogOffset) -> Result<Vec<u8>> {
        let mut w =
            Writer::with_capacity(spare + self.payload.len() + 16 + self.headers.len() * 16);
        w.put_zeros(spare);
        w.put_u8(if self.link.is_some() { ENTRY_MAGIC_LINKED } else { ENTRY_MAGIC });
        w.put_u8(self.headers.len() as u8);
        if self.headers.len() > u8::MAX as usize {
            return Err(CorfuError::Codec("too many stream headers".into()));
        }
        for h in &self.headers {
            if h.stream > MAX_STREAM_ID {
                return Err(CorfuError::Codec(format!("stream id {} exceeds 31 bits", h.stream)));
            }
            let relative_ok = h
                .backpointers
                .iter()
                .all(|&b| b == u64::MAX || (b < offset && offset - b <= u16::MAX as u64));
            if relative_ok {
                w.put_u32(h.stream);
                w.put_u8(h.backpointers.len() as u8);
                for &b in &h.backpointers {
                    // Delta 0 encodes "no previous entry".
                    let delta = if b == u64::MAX { 0 } else { (offset - b) as u16 };
                    w.put_u16(delta);
                }
            } else {
                w.put_u32(h.stream | FMT_ABSOLUTE);
                let keep = (h.backpointers.len() / 4).max(1).min(h.backpointers.len());
                w.put_u8(keep as u8);
                for &b in h.backpointers.iter().take(keep) {
                    w.put_u64(b);
                }
            }
        }
        if let Some(link) = &self.link {
            w.put_u64(link.home);
            w.put_varint(link.parts.len() as u64);
            for &p in &link.parts {
                w.put_u64(p);
            }
        }
        w.put_bytes(&self.payload);
        Ok(w.into_vec())
    }

    /// Decodes an envelope read from `offset`.
    pub fn decode(bytes: &[u8], offset: LogOffset) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.get_u8()?;
        if magic != ENTRY_MAGIC && magic != ENTRY_MAGIC_LINKED {
            return Err(CorfuError::Codec(format!("bad entry magic {magic:#x} at {offset}")));
        }
        let nheaders = r.get_u8()? as usize;
        let mut headers = Vec::with_capacity(nheaders);
        for _ in 0..nheaders {
            let id_fmt = r.get_u32()?;
            let stream = id_fmt & MAX_STREAM_ID;
            let nback = r.get_u8()? as usize;
            let mut backpointers = Vec::with_capacity(nback);
            if id_fmt & FMT_ABSOLUTE != 0 {
                for _ in 0..nback {
                    backpointers.push(r.get_u64()?);
                }
            } else {
                for _ in 0..nback {
                    let delta = r.get_u16()?;
                    backpointers.push(if delta == 0 {
                        u64::MAX
                    } else {
                        offset
                            .checked_sub(delta as u64)
                            .ok_or_else(|| CorfuError::Codec("backpointer underflow".into()))?
                    });
                }
            }
            headers.push(StreamHeader { stream, backpointers });
        }
        let link = if magic == ENTRY_MAGIC_LINKED {
            let home = r.get_u64()?;
            let nparts = r.get_len(256)?;
            let mut parts = Vec::with_capacity(nparts);
            for _ in 0..nparts {
                parts.push(r.get_u64()?);
            }
            Some(CrossLogLink { home, parts })
        } else {
            None
        };
        let payload = Bytes::copy_from_slice(r.get_bytes()?);
        if !r.is_empty() {
            return Err(CorfuError::Codec("trailing bytes after entry payload".into()));
        }
        Ok(Self { headers, payload, link })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let e = EntryEnvelope::raw(Bytes::from_static(b"payload"));
        let bytes = e.encode(42).unwrap();
        assert_eq!(EntryEnvelope::decode(&bytes, 42).unwrap(), e);
    }

    #[test]
    fn relative_backpointers_roundtrip() {
        let e = EntryEnvelope {
            headers: vec![
                StreamHeader { stream: 7, backpointers: vec![99, 95, 80, 2] },
                StreamHeader { stream: 9, backpointers: vec![u64::MAX] },
            ],
            payload: Bytes::from_static(b"x"),
            link: None,
        };
        let bytes = e.encode(100).unwrap();
        let back = EntryEnvelope::decode(&bytes, 100).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn absolute_format_on_large_delta() {
        // Previous entry is 1M entries back: the relative format overflows.
        let e = EntryEnvelope {
            headers: vec![StreamHeader { stream: 3, backpointers: vec![1_000, 900, 800, 700] }],
            payload: Bytes::new(),
            link: None,
        };
        let bytes = e.encode(2_000_000).unwrap();
        let back = EntryEnvelope::decode(&bytes, 2_000_000).unwrap();
        // Absolute format keeps K/4 = 1 pointer.
        assert_eq!(back.headers[0].backpointers, vec![1_000]);
        assert_eq!(back.headers[0].stream, 3);
    }

    #[test]
    fn mixed_formats_per_header() {
        let e = EntryEnvelope {
            headers: vec![
                StreamHeader { stream: 1, backpointers: vec![999_999] }, // near: relative
                StreamHeader { stream: 2, backpointers: vec![5, 4, 3, 2] }, // far: absolute
            ],
            payload: Bytes::from_static(b"p"),
            link: None,
        };
        let bytes = e.encode(1_000_000).unwrap();
        let back = EntryEnvelope::decode(&bytes, 1_000_000).unwrap();
        assert_eq!(back.headers[0].backpointers, vec![999_999]);
        assert_eq!(back.headers[1].backpointers, vec![5]);
    }

    #[test]
    fn header_lookup() {
        let e = EntryEnvelope {
            headers: vec![StreamHeader { stream: 1, backpointers: vec![] }],
            payload: Bytes::new(),
            link: None,
        };
        assert!(e.belongs_to(1));
        assert!(!e.belongs_to(2));
    }

    #[test]
    fn stream_id_31_bit_enforced() {
        let e = EntryEnvelope {
            headers: vec![StreamHeader { stream: 1 << 31, backpointers: vec![] }],
            payload: Bytes::new(),
            link: None,
        };
        assert!(e.encode(0).is_err());
    }

    #[test]
    fn linked_roundtrip_and_unlinked_bytes_unchanged() {
        let link = CrossLogLink { home: (2u64 << 56) | 7, parts: vec![5, (2u64 << 56) | 7] };
        let e = EntryEnvelope {
            headers: vec![StreamHeader { stream: 4, backpointers: vec![u64::MAX] }],
            payload: Bytes::from_static(b"body"),
            link: Some(link),
        };
        let bytes = e.encode(5).unwrap();
        assert_eq!(EntryEnvelope::decode(&bytes, 5).unwrap(), e);
        // An entry without a link still starts with the original magic.
        let plain = EntryEnvelope::raw(Bytes::from_static(b"x")).encode(0).unwrap();
        assert_eq!(plain[0], ENTRY_MAGIC);
        assert_eq!(bytes[0], ENTRY_MAGIC_LINKED);
    }

    #[test]
    fn garbage_rejected() {
        assert!(EntryEnvelope::decode(b"", 0).is_err());
        assert!(EntryEnvelope::decode(b"\xFF\x00", 0).is_err());
        let mut good = EntryEnvelope::raw(Bytes::from_static(b"ok")).encode(5).unwrap();
        good.push(0xAA);
        assert!(EntryEnvelope::decode(&good, 5).is_err());
    }
}
