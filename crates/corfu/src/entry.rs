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
use tango_wire::{Reader, WireError, Writer};

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
        let mut scan = Headers::new(bytes)
            .map_err(|e| CorfuError::Codec(format!("bad entry at {offset}: {e}")))?;
        let mut headers = Vec::with_capacity(scan.remaining);
        for header in scan.by_ref() {
            headers.push(header?.resolve(offset)?);
        }
        let Headers { mut r, linked, .. } = scan;
        let link = if linked {
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

/// One stream header of an encoded entry, borrowed from the entry's bytes.
#[derive(Debug, Clone)]
pub(crate) struct HeaderRef<'a> {
    /// The stream the entry belongs to.
    pub stream: StreamId,
    /// Whether `pointers` are 8-byte absolute offsets, not 2-byte deltas.
    absolute: bool,
    /// The backpointers as stored, most recent first.
    pointers: &'a [u8],
}

impl<'a> HeaderRef<'a> {
    /// The header's deltas from the entry's own offset as stored: most
    /// recent first, 0 for "no previous entry". A header in the absolute
    /// format has none.
    pub fn deltas(&self) -> impl Iterator<Item = u16> + 'a {
        let stored = if self.absolute { &[] } else { self.pointers };
        stored.chunks_exact(2).map(|delta| u16::from_le_bytes([delta[0], delta[1]]))
    }

    /// The header as absolute offsets, for an entry read from `offset`.
    fn resolve(&self, offset: LogOffset) -> Result<StreamHeader> {
        let backpointers = if self.absolute {
            let stored = self.pointers.chunks_exact(8);
            stored.map(|at| u64::from_le_bytes(at.try_into().expect("chunk of 8"))).collect()
        } else {
            let mut resolved = Vec::with_capacity(self.pointers.len() / 2);
            for delta in self.deltas() {
                resolved.push(match delta {
                    0 => u64::MAX,
                    delta => offset
                        .checked_sub(delta as u64)
                        .ok_or_else(|| CorfuError::Codec("backpointer underflow".into()))?,
                });
            }
            resolved
        };
        Ok(StreamHeader { stream: self.stream, backpointers })
    }
}

/// Walks the stream headers of an encoded entry where they lie: no payload
/// copy, no allocation. The one place that knows the header layout on the
/// decode side — [`EntryEnvelope::decode`] builds its headers from it, and a
/// storage node following a stream's backpointers reads nothing else of a
/// page.
pub(crate) struct Headers<'a> {
    /// Positioned at the next header; behind the last one, at the link.
    r: Reader<'a>,
    /// Headers not yet yielded.
    remaining: usize,
    /// Whether a link section follows the headers.
    linked: bool,
}

impl<'a> Headers<'a> {
    /// Starts at the first header of the encoded entry `bytes`.
    pub fn new(bytes: &'a [u8]) -> tango_wire::Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.get_u8()?;
        if magic != ENTRY_MAGIC && magic != ENTRY_MAGIC_LINKED {
            return Err(WireError::InvalidTag { what: "entry magic", tag: magic as u64 });
        }
        let remaining = r.get_u8()? as usize;
        Ok(Self { r, remaining, linked: magic == ENTRY_MAGIC_LINKED })
    }

    fn header(&mut self) -> tango_wire::Result<HeaderRef<'a>> {
        let id_fmt = self.r.get_u32()?;
        let absolute = id_fmt & FMT_ABSOLUTE != 0;
        let stored = self.r.get_u8()? as usize * if absolute { 8 } else { 2 };
        let pointers = self.r.get_raw(stored)?;
        Ok(HeaderRef { stream: id_fmt & MAX_STREAM_ID, absolute, pointers })
    }
}

impl<'a> Iterator for Headers<'a> {
    type Item = tango_wire::Result<HeaderRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(self.header())
    }
}

/// The deltas `stream`'s header holds in the encoded entry `bytes` (see
/// [`HeaderRef::deltas`]). Nothing when the entry is not of `stream`, and
/// nothing when `bytes` stop being an entry before that header is found.
pub(crate) fn deltas_of(bytes: &[u8], stream: StreamId) -> impl Iterator<Item = u16> + '_ {
    let mut headers = Headers::new(bytes).into_iter().flatten().map_while(|header| header.ok());
    headers.find(|header| header.stream == stream).into_iter().flat_map(|header| header.deltas())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// An offset and an envelope to store there: 0–4 headers of 0–4
    /// backpointers each — absent, within a 2-byte delta, or far enough to
    /// push the header into the absolute format — over few enough streams
    /// that ids repeat, and sometimes a link.
    fn envelopes() -> impl Strategy<Value = (LogOffset, EntryEnvelope)> {
        let offset = 70_000u64..1 << 40;
        let distance = prop_oneof![
            Just(None),
            (1u64..=65_535).prop_map(Some),
            (65_536u64..70_000).prop_map(Some)
        ];
        let header = (0u32..6, proptest::collection::vec(distance, 0..5));
        let headers = proptest::collection::vec(header, 0..5);
        let payload = proptest::collection::vec(any::<u8>(), 0..40);
        let link =
            prop_oneof![Just(None), proptest::collection::vec(any::<u64>(), 1..4).prop_map(Some)];
        (offset, headers, payload, link).prop_map(|(offset, headers, payload, link)| {
            let headers = headers
                .into_iter()
                .map(|(stream, distances)| StreamHeader {
                    stream,
                    backpointers: distances
                        .into_iter()
                        .map(|distance| distance.map_or(u64::MAX, |d| offset - d))
                        .collect(),
                })
                .collect();
            let link = link.map(|parts| CrossLogLink { home: parts[0], parts });
            (offset, EntryEnvelope { headers, payload: payload.into(), link })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What a storage node reads of a page is what the client's decode
        /// makes of it: per stream, the deltas of the entry's first header
        /// for that stream if it is stored in the relative format — which
        /// resolve to the backpointers `decode` reports — and nothing
        /// otherwise. Of a page cut short it reads the same or nothing.
        #[test]
        fn borrowed_header_scan_agrees_with_decode(
            (offset, envelope) in envelopes(),
            cut in 0usize..120,
        ) {
            let bytes = envelope.encode(offset).unwrap();
            let decoded = EntryEnvelope::decode(&bytes, offset).unwrap();
            let cut = &bytes[..cut.min(bytes.len())];
            for stream in 0..7 {
                let deltas: Vec<u16> = deltas_of(&bytes, stream).collect();
                let relative = |h: &&StreamHeader| {
                    h.backpointers.iter().all(|&b| b == u64::MAX || offset - b <= u16::MAX as u64)
                };
                match envelope.header_for(stream).filter(relative) {
                    Some(_) => {
                        let resolved: Vec<LogOffset> = deltas
                            .iter()
                            .map(|&d| if d == 0 { u64::MAX } else { offset - d as u64 })
                            .collect();
                        prop_assert_eq!(&resolved, &decoded.header_for(stream).unwrap().backpointers);
                    }
                    None => prop_assert!(deltas.is_empty(), "{:?}", deltas),
                }
                let of_cut: Vec<u16> = deltas_of(cut, stream).collect();
                prop_assert!(of_cut.is_empty() || of_cut == deltas, "{:?} of {:?}", of_cut, cut);
                if EntryEnvelope::decode(cut, offset).is_ok() {
                    prop_assert_eq!(of_cut, deltas);
                }
            }
        }
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
