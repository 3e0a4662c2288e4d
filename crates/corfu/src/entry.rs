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

use std::fmt;

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

    /// Decodes an envelope read from `offset`: the entry is checked as an
    /// [`Entry`] is, and copied out as the check walks it.
    pub fn decode(bytes: &[u8], offset: LogOffset) -> Result<Self> {
        let mut headers = Vec::with_capacity(bytes.get(1).map_or(0, |&n| n as usize));
        let layout = Layout::of(bytes, offset, |header| headers.push(header.to_owned()))?;
        let entry = EntryRef { bytes, offset, layout };
        Ok(Self {
            headers,
            payload: Bytes::copy_from_slice(entry.payload()),
            link: entry.link().map(|link| link.to_owned()),
        })
    }
}

/// A log entry as a reader keeps it: the page it arrived in, checked once
/// when it is made and read in place afterwards. The page stays where it
/// lies in the storage node's reply, shared with the other pages of that
/// reply, so an entry is a handle on the reply and a range of it — making
/// one allocates nothing, cloning one is a reference count, and the reply
/// is freed with the last entry that points into it.
#[derive(Clone)]
pub struct Entry {
    /// The buffer the page lies in.
    buf: Bytes,
    /// Where the entry was read from: relative backpointers resolve here.
    offset: LogOffset,
    /// The page within `buf`.
    start: u32,
    end: u32,
    /// Where the page's parts lie, from its start.
    layout: Layout,
}

impl Entry {
    /// The entry at `offset` whose page is `page`, a part of `reply`: shares
    /// `reply` rather than copying the page out of it. Fails as
    /// [`EntryEnvelope::decode`] does on a page that is not an entry.
    ///
    /// # Panics
    ///
    /// If `page` does not lie in `reply`.
    pub fn in_reply(reply: &Bytes, page: &[u8], offset: LogOffset) -> Result<Self> {
        let start = (page.as_ptr() as usize).wrapping_sub(reply.as_ptr() as usize);
        assert!(
            start <= reply.len() && page.len() <= reply.len() - start,
            "a page lies in the reply it arrived in"
        );
        let end = u32::try_from(start + page.len())
            .map_err(|_| CorfuError::Codec(format!("entry at {offset} lies past 4 GiB")))?;
        let layout = Layout::of(page, offset, |_| ())?;
        Ok(Self { buf: reply.clone(), offset, start: start as u32, end, layout })
    }

    /// The entry at `offset` whose page is all of `page`.
    pub fn new(page: Bytes, offset: LogOffset) -> Result<Self> {
        Self::in_reply(&page, &page, offset)
    }

    /// The page `envelope` is stored as at `offset`, as a reader would read
    /// it: what a writer caches of its own append.
    pub fn encode(envelope: &EntryEnvelope, offset: LogOffset) -> Result<Self> {
        Self::new(Bytes::from(envelope.encode(offset)?), offset)
    }

    fn view(&self) -> EntryRef<'_> {
        let bytes = &self.buf[self.start as usize..self.end as usize];
        EntryRef { bytes, offset: self.offset, layout: self.layout }
    }

    /// The application payload.
    pub fn payload(&self) -> &[u8] {
        self.view().payload()
    }

    /// The streams the entry belongs to, in header order (none for raw
    /// appends).
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.view().headers().map(|header| header.stream)
    }

    /// The header for `stream`, if the entry belongs to it.
    pub fn header_for(&self, stream: StreamId) -> Option<HeaderRef<'_>> {
        self.view().headers().find(|header| header.stream == stream)
    }

    /// Returns true if the entry belongs to `stream`.
    pub fn belongs_to(&self, stream: StreamId) -> bool {
        self.header_for(stream).is_some()
    }

    /// The cross-log link, if the entry is part of a cross-log multiappend.
    pub fn link(&self) -> Option<LinkRef<'_>> {
        self.view().link()
    }
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry")
            .field("offset", &self.offset)
            .field("headers", &self.view().headers().collect::<Vec<_>>())
            .field("link", &self.link())
            .field("payload", &self.payload())
            .finish()
    }
}

/// Where the parts of an encoded entry lie, as positions in its bytes.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The link section's first byte (the payload length's, unlinked).
    link: u32,
    /// The payload's first byte.
    payload: u32,
}

impl Layout {
    /// Checks that `bytes`, read from `offset`, are an entry, showing `each`
    /// header as the walk passes it: the one walk that does, so [`Entry`] and
    /// [`EntryEnvelope::decode`] accept the same pages and fail the same way.
    fn of<'a>(
        bytes: &'a [u8],
        offset: LogOffset,
        mut each: impl FnMut(HeaderRef<'a>),
    ) -> Result<Self> {
        if u32::try_from(bytes.len()).is_err() {
            return Err(CorfuError::Codec(format!("entry at {offset} is longer than 4 GiB")));
        }
        let mut scan = Headers::new(bytes, offset)
            .map_err(|e| CorfuError::Codec(format!("bad entry at {offset}: {e}")))?;
        for header in scan.by_ref() {
            let header = header?;
            if header.deltas().any(|delta| delta as u64 > offset) {
                return Err(CorfuError::Codec("backpointer underflow".into()));
            }
            each(header);
        }
        let Headers { mut r, linked, .. } = scan;
        let link = r.position() as u32;
        if linked {
            r.get_u64()?;
            for _ in 0..r.get_len(256)? {
                r.get_u64()?;
            }
        }
        let payload = r.get_bytes()?.len();
        if !r.is_empty() {
            return Err(CorfuError::Codec("trailing bytes after entry payload".into()));
        }
        Ok(Self { link, payload: (bytes.len() - payload) as u32 })
    }
}

/// An entry checked where it lies, borrowed: what [`Entry`] reads through
/// and [`EntryEnvelope::decode`] copies out of.
struct EntryRef<'a> {
    bytes: &'a [u8],
    offset: LogOffset,
    layout: Layout,
}

impl<'a> EntryRef<'a> {
    /// The stream headers: all of them, the entry being checked.
    fn headers(&self) -> impl Iterator<Item = HeaderRef<'a>> + 'a {
        let mut scan = Headers::new(self.bytes, self.offset).ok();
        std::iter::from_fn(move || scan.as_mut()?.next()?.ok())
    }

    fn payload(&self) -> &'a [u8] {
        &self.bytes[self.layout.payload as usize..]
    }

    fn link(&self) -> Option<LinkRef<'a>> {
        if self.bytes[0] != ENTRY_MAGIC_LINKED {
            return None;
        }
        let mut r = Reader::new(&self.bytes[self.layout.link as usize..]);
        let home = r.get_u64().ok()?;
        let parts = r.get_len(256).ok()?;
        Some(LinkRef { home, parts: r.get_raw(parts * 8).ok()? })
    }
}

/// A [`CrossLogLink`] read where it is stored in an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRef<'a> {
    /// Composite offset of the anchor part.
    pub home: LogOffset,
    /// The parts' offsets as stored: 8 bytes each.
    parts: &'a [u8],
}

impl<'a> LinkRef<'a> {
    /// Composite offsets of every part (including the anchor), ascending.
    pub fn parts(&self) -> impl DoubleEndedIterator<Item = LogOffset> + ExactSizeIterator + 'a {
        self.parts.chunks_exact(8).map(|at| u64::from_le_bytes(at.try_into().expect("chunk of 8")))
    }

    /// The link with its parts copied out.
    pub fn to_owned(self) -> CrossLogLink {
        CrossLogLink { home: self.home, parts: self.parts().collect() }
    }
}

/// One stream header of an encoded entry, borrowed from the entry's bytes.
#[derive(Debug, Clone, Copy)]
pub struct HeaderRef<'a> {
    /// The stream the entry belongs to.
    pub stream: StreamId,
    /// Whether `pointers` are 8-byte absolute offsets, not 2-byte deltas.
    absolute: bool,
    /// The backpointers as stored, most recent first.
    pointers: &'a [u8],
    /// The offset of the entry, which relative backpointers count back from.
    offset: LogOffset,
}

impl<'a> HeaderRef<'a> {
    /// The header's deltas from the entry's own offset as stored: most
    /// recent first, 0 for "no previous entry". A header in the absolute
    /// format has none.
    pub(crate) fn deltas(&self) -> impl Iterator<Item = u16> + 'a {
        let stored = if self.absolute { &[] } else { self.pointers };
        stored.chunks_exact(2).map(|delta| u16::from_le_bytes([delta[0], delta[1]]))
    }

    /// Absolute offsets of the previous entries in this stream, most recent
    /// first (`u64::MAX`: no previous entry), as
    /// [`StreamHeader::backpointers`] holds them.
    pub fn backpointers(&self) -> Backpointers<'a> {
        let from = (!self.absolute).then_some(self.offset);
        Backpointers { stored: self.pointers, from }
    }

    fn to_owned(self) -> StreamHeader {
        StreamHeader { stream: self.stream, backpointers: self.backpointers().collect() }
    }
}

/// The backpointers of a [`HeaderRef`], resolved as they are read.
#[derive(Debug, Clone)]
pub struct Backpointers<'a> {
    /// What is left to read, as stored.
    stored: &'a [u8],
    /// The offset 2-byte deltas count back from; `None`: 8-byte absolute
    /// offsets.
    from: Option<LogOffset>,
}

impl Iterator for Backpointers<'_> {
    type Item = LogOffset;

    fn next(&mut self) -> Option<LogOffset> {
        match self.from {
            None => {
                let (at, rest) = self.stored.split_first_chunk::<8>()?;
                self.stored = rest;
                Some(u64::from_le_bytes(*at))
            }
            Some(from) => {
                let (at, rest) = self.stored.split_first_chunk::<2>()?;
                self.stored = rest;
                Some(match u16::from_le_bytes(*at) {
                    0 => u64::MAX,
                    // Checked when the entry was: no delta reaches below 0.
                    delta => from - delta as u64,
                })
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.stored.len() / if self.from.is_some() { 2 } else { 8 };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Backpointers<'_> {}

/// Walks the stream headers of an encoded entry where they lie: no payload
/// copy, no allocation. The one place that knows the header layout on the
/// decode side — an [`Entry`] reads its headers with it, and a storage node
/// following a stream's backpointers reads nothing else of a page.
pub(crate) struct Headers<'a> {
    /// Positioned at the next header; behind the last one, at the link.
    r: Reader<'a>,
    /// Headers not yet yielded.
    remaining: usize,
    /// Whether a link section follows the headers.
    linked: bool,
    /// The offset the entry was read from.
    offset: LogOffset,
}

impl<'a> Headers<'a> {
    /// Starts at the first header of the encoded entry `bytes`, read from
    /// `offset`.
    pub fn new(bytes: &'a [u8], offset: LogOffset) -> tango_wire::Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.get_u8()?;
        if magic != ENTRY_MAGIC && magic != ENTRY_MAGIC_LINKED {
            return Err(WireError::InvalidTag { what: "entry magic", tag: magic as u64 });
        }
        let remaining = r.get_u8()? as usize;
        Ok(Self { r, remaining, linked: magic == ENTRY_MAGIC_LINKED, offset })
    }

    fn header(&mut self) -> tango_wire::Result<HeaderRef<'a>> {
        let id_fmt = self.r.get_u32()?;
        let absolute = id_fmt & FMT_ABSOLUTE != 0;
        let stored = self.r.get_u8()? as usize * if absolute { 8 } else { 2 };
        let pointers = self.r.get_raw(stored)?;
        Ok(HeaderRef { stream: id_fmt & MAX_STREAM_ID, absolute, pointers, offset: self.offset })
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
    // The deltas are as stored: no offset resolves them.
    let mut headers = Headers::new(bytes, 0).into_iter().flatten().map_while(|header| header.ok());
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
        let payload = prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..40),
            proptest::collection::vec(any::<u8>(), 120..700)
        ];
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

    /// The entry format read front to back, one field after the other, as
    /// `decode` read it before an entry was a view of its page: the oracle
    /// the view is held to. `None` for bytes that are no entry.
    fn reference_decode(bytes: &[u8], offset: LogOffset) -> Option<EntryEnvelope> {
        let mut r = Reader::new(bytes);
        let linked = match r.get_u8().ok()? {
            ENTRY_MAGIC => false,
            ENTRY_MAGIC_LINKED => true,
            _ => return None,
        };
        let mut headers = Vec::new();
        for _ in 0..r.get_u8().ok()? {
            let id_fmt = r.get_u32().ok()?;
            let backpointers = (0..r.get_u8().ok()?)
                .map(|_| match id_fmt & FMT_ABSOLUTE {
                    0 => match r.get_u16().ok()? {
                        0 => Some(u64::MAX),
                        delta => offset.checked_sub(delta as u64),
                    },
                    _ => r.get_u64().ok(),
                })
                .collect::<Option<Vec<_>>>()?;
            headers.push(StreamHeader { stream: id_fmt & MAX_STREAM_ID, backpointers });
        }
        let link = match linked {
            true => {
                let home = r.get_u64().ok()?;
                let parts: Option<Vec<_>> =
                    (0..r.get_len(256).ok()?).map(|_| r.get_u64().ok()).collect();
                Some(CrossLogLink { home, parts: parts? })
            }
            false => None,
        };
        let payload = Bytes::copy_from_slice(r.get_bytes().ok()?);
        r.is_empty().then_some(EntryEnvelope { headers, payload, link })
    }

    /// A page and the offset it is read from: an envelope's encoding as it
    /// is, cut short, with bytes behind it, with one byte overwritten, or
    /// read from a lower offset than it was written for (relative
    /// backpointers may then reach below 0); or bytes that are no entry at
    /// all, some of them behind an entry's magic.
    fn pages() -> impl Strategy<Value = (LogOffset, Vec<u8>)> {
        let tail = proptest::collection::vec(any::<u8>(), 1..4);
        let encoded = (envelopes(), 0u8..5, any::<usize>(), any::<u8>(), tail).prop_map(
            |((offset, envelope), how, at, byte, tail)| {
                let mut page = envelope.encode(offset).unwrap();
                let at_page = at % page.len();
                match how {
                    0 => {}
                    1 => page.truncate(at_page),
                    2 => page.extend(tail),
                    3 => page[at_page] = byte,
                    _ => return ((at as u64) % 70_000, page),
                }
                (offset, page)
            },
        );
        let magic =
            prop_oneof![Just(None), Just(Some(ENTRY_MAGIC)), Just(Some(ENTRY_MAGIC_LINKED))];
        let noise = (0u64..300, proptest::collection::vec(any::<u8>(), 0..64), magic).prop_map(
            |(offset, mut bytes, magic)| {
                bytes.splice(0..0, magic);
                (offset, bytes)
            },
        );
        prop_oneof![4 => encoded, 1 => noise]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// An entry read in place accepts exactly the pages the reference
        /// decoder accepts, wherever in its reply the page lies, and reads
        /// the same streams, backpointers, link and payload out of them;
        /// `EntryEnvelope::decode` copies out the same. Any other page fails
        /// both with a codec error.
        #[test]
        fn an_entry_reads_what_the_reference_decoder_reads(
            (offset, page) in pages(),
            pad in 0usize..3,
        ) {
            let oracle = reference_decode(&page, offset);
            let mut reply = vec![0xA5; pad];
            reply.extend_from_slice(&page);
            reply.extend(vec![0x5A; pad]);
            let reply = Bytes::from(reply);
            let view = Entry::in_reply(&reply, &reply[pad..pad + page.len()], offset);
            let decoded = EntryEnvelope::decode(&page, offset);
            let Some(oracle) = oracle else {
                prop_assert!(matches!(view, Err(CorfuError::Codec(_))), "accepted {:?}", view);
                prop_assert!(matches!(decoded, Err(CorfuError::Codec(_))), "accepted {:?}", decoded);
                return Ok(());
            };
            prop_assert!(view.is_ok(), "rejected {:?}: {:?}", oracle, view);
            let view = view.unwrap();
            prop_assert_eq!(decoded.ok(), Some(oracle.clone()));
            let streams: Vec<StreamId> = oracle.headers.iter().map(|h| h.stream).collect();
            prop_assert_eq!(view.streams().collect::<Vec<_>>(), streams.clone());
            for stream in streams.into_iter().chain(0..7) {
                let header = view.header_for(stream);
                let backpointers = header.map(|h| h.backpointers().collect::<Vec<_>>());
                let expected = oracle.header_for(stream).map(|h| h.backpointers.clone());
                prop_assert_eq!(header.map(|h| h.backpointers().len()), expected.as_ref().map(Vec::len));
                prop_assert_eq!(backpointers, expected);
                prop_assert_eq!(view.belongs_to(stream), oracle.belongs_to(stream));
            }
            prop_assert_eq!(view.link().map(|link| link.to_owned()), oracle.link.clone());
            prop_assert_eq!(view.payload(), &oracle.payload[..]);
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
