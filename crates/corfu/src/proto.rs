//! Wire messages for the storage and sequencer services. (The layout
//! service speaks the metalog protocol, `tango_meta::proto`.)
//!
//! A storage node reads pages three ways: `Read` (one address),
//! `ReadBatch` (the addresses named, under one lock acquisition) and
//! `ReadChase` (those, and then the pages one stream's backpointers lead to
//! on that node — the one request in which a node looks inside a page).

use bytes::Bytes;
use tango_wire::{decode_all, Decode, Encode, Reader, WireError, Writer};

use crate::{Epoch, LogOffset, StreamId};

/// Whether a page write carries data or a junk fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Application payload.
    Data,
    /// Junk fill (hole patching).
    Junk,
}

/// Requests accepted by a storage node. Addresses are *local* page
/// addresses; the client performs the global→local mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageRequest {
    /// Write-once put at `addr`.
    Write {
        /// The client's epoch.
        epoch: Epoch,
        /// Local page address.
        addr: u64,
        /// Data or junk.
        kind: WriteKind,
        /// Payload (empty for junk).
        payload: Bytes,
    },
    /// Read the page at `addr`.
    Read {
        /// The client's epoch.
        epoch: Epoch,
        /// Local page address.
        addr: u64,
    },
    /// Trim a single address.
    Trim {
        /// The client's epoch.
        epoch: Epoch,
        /// Local page address.
        addr: u64,
    },
    /// Trim every address below `horizon`.
    TrimPrefix {
        /// The client's epoch.
        epoch: Epoch,
        /// First local address to keep.
        horizon: u64,
    },
    /// Seal the node at `epoch`; returns the local tail.
    Seal {
        /// The new epoch.
        epoch: Epoch,
    },
    /// Query the local tail (highest consumed address + 1).
    LocalTail {
        /// The client's epoch.
        epoch: Epoch,
    },
    /// Read a batch of pages in one round trip (the bulk-read primitive
    /// behind `CorfuClient::read_many`). The node serves the whole batch
    /// under one lock acquisition and answers with a
    /// [`StorageResponse::BatchOutcomes`] carrying one [`PageOutcome`] per
    /// requested address, in request order. Batches larger than
    /// [`crate::MAX_READ_BATCH`] are rejected; the client chunks.
    ReadBatch {
        /// The client's epoch.
        epoch: Epoch,
        /// Local page addresses, in the order outcomes are wanted.
        addrs: Vec<u64>,
    },
    /// [`StorageRequest::ReadBatch`] that keeps reading where `stream`'s
    /// backpointers lead *on this node*, so a client walking a stream
    /// backward gets its next strides' pages in the round trip of this one.
    /// `addrs` are served first, exactly as a `ReadBatch` serves them. Then,
    /// under the same lock acquisition and until `limit` pages have been
    /// read in all (clamped to [`crate::MAX_READ_BATCH`]; `addrs` are always
    /// served), the node reads the highest address not yet read that a page
    /// it has read points to: a page holding an entry of `stream` whose
    /// header is in the relative format names, per delta `d` that is a
    /// multiple of `stripe` (the number of replica sets the log stripes
    /// over), the local address `d / stripe` below its own; addresses under
    /// `floor` are left alone. Any other page — another stream's entry, an
    /// absolute-format header, junk, a hole, bytes that are no entry —
    /// points nowhere: the node reports what it read and judges nothing.
    /// Each page followed is below all those followed before it, so a reply
    /// that the limit or the node's byte cap
    /// ([`crate::CHASE_REPLY_BYTES`]) cuts short holds the highest pages of
    /// the chain. Answered with [`StorageResponse::Chased`].
    ReadChase {
        /// The client's epoch.
        epoch: Epoch,
        /// Local page addresses, in the order outcomes are wanted.
        addrs: Vec<u64>,
        /// The stream whose backpointers are followed.
        stream: StreamId,
        /// Raw-offset distance between neighbouring local addresses.
        stripe: u32,
        /// Lowest local address worth following a backpointer to.
        floor: u64,
        /// Pages to read in all, the requested ones included.
        limit: u32,
    },
    /// Stream a range of consumed pages out of this node, for rebuilding a
    /// failed replica onto a replacement (§5 / CORFU chain rebuild). The
    /// node answers with a [`StorageResponse::PageChunk`] covering local
    /// addresses `start..start+count` (clamped to the local tail);
    /// unwritten addresses are skipped. The requester iterates until the
    /// chunk reports `next >= local_tail`.
    CopyRange {
        /// The client's epoch (the *new*, sealed epoch during a rebuild).
        epoch: Epoch,
        /// First local address of the requested range.
        start: u64,
        /// Maximum number of addresses to scan in this round trip.
        count: u32,
    },
}

/// A [`StorageRequest::Write`] whose payload is a view into the bytes it
/// was decoded from, so a storage node copies a page once: into its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteRef<'a> {
    pub epoch: Epoch,
    pub addr: u64,
    pub kind: WriteKind,
    pub payload: &'a [u8],
}

/// The most bytes of a `Write` that precede its payload: tag, epoch,
/// address, kind and the payload's varint length.
pub(crate) const WRITE_HEAD_MAX: usize = 1 + 8 + 8 + 1 + 10;

impl<'a> WriteRef<'a> {
    /// Everything of a `Write` up to its payload bytes: the one place that
    /// knows the variant's layout on the encode side.
    fn put_head(w: &mut Writer, epoch: Epoch, addr: u64, kind: WriteKind, payload_len: usize) {
        w.put_u8(0);
        w.put_u64(epoch);
        w.put_u64(addr);
        kind.encode(w);
        w.put_varint(payload_len as u64);
    }

    /// The fields that follow a `Write`'s tag: the one place that knows the
    /// layout on the decode side.
    fn decode_fields(r: &mut Reader<'a>) -> tango_wire::Result<Self> {
        let (epoch, addr, kind) = (r.get_u64()?, r.get_u64()?, WriteKind::decode(r)?);
        Ok(Self { epoch, addr, kind, payload: r.get_bytes()? })
    }

    /// `request` as a `Write`, when that is what its tag says — with
    /// exactly the outcome `decode_from_slice::<StorageRequest>` has on the
    /// same bytes. `None`: some other request (or none at all).
    pub fn peek(request: &'a [u8]) -> Option<tango_wire::Result<Self>> {
        let fields = |r: &mut Reader<'a>| r.get_u8().and_then(|_| Self::decode_fields(r));
        (request.first() == Some(&0)).then(|| decode_all(request, fields))
    }

    /// Turns `buf` — [`WRITE_HEAD_MAX`] spare bytes, then a payload — into
    /// the encoded `Write` of that payload and returns it: the bytes
    /// `encode_to_vec(&StorageRequest::Write { .. })` gives, without a
    /// second buffer. Stamping again (a retry at another epoch) is fine.
    pub fn stamp(buf: &mut [u8], epoch: Epoch, addr: u64, kind: WriteKind) -> &[u8] {
        let mut head = Writer::with_capacity(WRITE_HEAD_MAX);
        Self::put_head(&mut head, epoch, addr, kind, buf.len() - WRITE_HEAD_MAX);
        let start = WRITE_HEAD_MAX - head.len();
        buf[start..WRITE_HEAD_MAX].copy_from_slice(head.as_slice());
        &buf[start..]
    }
}

/// The per-address outcome of a [`StorageRequest::ReadBatch`] or
/// [`StorageRequest::ReadChase`] — the same four states a single `Read`
/// distinguishes, minus the error cases (a batch either succeeds wholesale
/// or fails with one error response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOutcome {
    /// The page holds this payload.
    Data(Bytes),
    /// The page holds junk (a patched hole).
    Junk,
    /// The page has never been written.
    Unwritten,
    /// The page is trimmed.
    Trimmed,
}

/// A [`PageOutcome`] whose data is lent from the reply it was decoded from,
/// so a reader copies a page once: into the entry it decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRef<'a> {
    /// The page holds this payload.
    Data(&'a [u8]),
    /// The page holds junk (a patched hole).
    Junk,
    /// The page has never been written.
    Unwritten,
    /// The page is trimmed.
    Trimmed,
}

impl<'a> PageRef<'a> {
    /// One outcome of a bulk reply: the one place that knows its layout on
    /// the decode side.
    fn decode(r: &mut Reader<'a>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(PageRef::Data(r.get_bytes()?)),
            1 => Ok(PageRef::Junk),
            2 => Ok(PageRef::Unwritten),
            3 => Ok(PageRef::Trimmed),
            tag => Err(WireError::InvalidTag { what: "PageOutcome", tag: tag as u64 }),
        }
    }

    /// The outcome with a copy of its data.
    pub fn to_owned(self) -> PageOutcome {
        match self {
            PageRef::Data(bytes) => PageOutcome::Data(Bytes::copy_from_slice(bytes)),
            PageRef::Junk => PageOutcome::Junk,
            PageRef::Unwritten => PageOutcome::Unwritten,
            PageRef::Trimmed => PageOutcome::Trimmed,
        }
    }
}

/// The pages of a [`StorageResponse::BatchOutcomes`] or
/// [`StorageResponse::Chased`] reply, decoded one at a time where they lie:
/// each with its local address if the reply names one, and — exactly as
/// `decode_from_slice::<StorageResponse>` would on the same bytes — an error
/// in place of the page that is malformed, or behind the last page when
/// bytes are left over.
pub(crate) struct Pages<'a> {
    r: Reader<'a>,
    remaining: usize,
    /// Whether an address precedes each outcome (`Chased`).
    addressed: bool,
}

impl<'a> Pages<'a> {
    /// `reply` as a bulk-read reply, when that is what its tag says. `None`:
    /// some other response (or none at all).
    pub fn peek(reply: &'a [u8]) -> Option<tango_wire::Result<Self>> {
        let addressed = match reply.first() {
            Some(12) => false,
            Some(&CHASED) => true,
            _ => return None,
        };
        let mut r = Reader::new(reply);
        let len = r.get_u8().and_then(|_| r.get_len(1 << 20));
        Some(len.map(|remaining| Self { r, remaining, addressed }))
    }

    /// Pages not yet yielded.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the reply names each page's address: a `Chased` reply, which
    /// may hold more pages than were asked for.
    pub fn addressed(&self) -> bool {
        self.addressed
    }

    fn page(&mut self) -> tango_wire::Result<(Option<u64>, PageRef<'a>)> {
        let addr = if self.addressed { Some(self.r.get_u64()?) } else { None };
        Ok((addr, PageRef::decode(&mut self.r)?))
    }
}

impl<'a> Iterator for Pages<'a> {
    type Item = tango_wire::Result<(Option<u64>, PageRef<'a>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.remaining.checked_sub(1) {
            Some(remaining) => {
                self.remaining = remaining;
                Some(self.page())
            }
            None if self.r.is_empty() => None,
            None => {
                // As `decode_all` reports it — once: the reader is emptied.
                let (read, left) = (self.r.position() as u64, self.r.remaining() as u64);
                self.r = Reader::new(&[]);
                Some(Err(WireError::LengthOutOfRange { declared: read + left, max: read }))
            }
        }
    }
}

/// One consumed page streamed by [`StorageRequest::CopyRange`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageCopy {
    /// A data page with its payload.
    Data(Bytes),
    /// A junk fill (filled hole) — must stay junk on the replacement.
    Junk,
    /// A randomly trimmed address — must stay consumed on the replacement.
    Trimmed,
}

/// Responses from a storage node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageResponse {
    /// The operation succeeded.
    Ok,
    /// A tail or seal result.
    Tail(u64),
    /// The page holds this payload.
    Data(Bytes),
    /// The page holds junk.
    Junk,
    /// The page has never been written.
    Unwritten,
    /// The page is trimmed.
    Trimmed,
    /// Write-once violation.
    ErrAlreadyWritten,
    /// Below the trim horizon.
    ErrTrimmed,
    /// The node is sealed at a newer epoch.
    ErrSealed {
        /// The node's current epoch.
        epoch: Epoch,
    },
    /// Payload exceeded the page size.
    ErrTooLarge {
        /// The node's page size — the largest payload it accepts.
        max: u64,
    },
    /// An internal storage fault.
    ErrStorage(String),
    /// One window of a [`StorageRequest::CopyRange`] stream.
    PageChunk {
        /// The source node's local tail (highest consumed address + 1).
        local_tail: u64,
        /// The source node's prefix-trim horizon; the replacement should
        /// install it with a `TrimPrefix` before (or after) the page copy.
        prefix_trim: u64,
        /// First address not covered by this chunk; pass as the next
        /// `start`. The stream is complete when `next >= local_tail`.
        next: u64,
        /// The consumed pages in the scanned window (unwritten addresses
        /// are omitted), in ascending address order.
        pages: Vec<(u64, PageCopy)>,
    },
    /// Per-address outcomes of a [`StorageRequest::ReadBatch`], in request
    /// order (`outcomes[i]` answers `addrs[i]`).
    BatchOutcomes(Vec<PageOutcome>),
    /// The pages a [`StorageRequest::ReadChase`] read, each with its local
    /// address: the requested ones first, in request order, then those the
    /// node followed backpointers to, highest address first.
    Chased(Vec<(u64, PageOutcome)>),
}

/// The tag of a [`StorageResponse::Chased`] on the wire, which the storage
/// node writes itself as its walk reads (`crate::storage`).
pub(crate) const CHASED: u8 = 13;

/// Requests accepted by the sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerRequest {
    /// Reserve the next offset; `streams` lists the streams the entry will
    /// belong to, so the response can carry their backpointers.
    Next {
        /// The client's epoch.
        epoch: Epoch,
        /// Streams the new entry joins.
        streams: Vec<StreamId>,
    },
    /// [`SequencerRequest::Next`] that also reads, under the same lock as
    /// the grant, the last-K offsets of the streams in `observe` — what a
    /// [`SequencerRequest::Query`] sent right after the grant would return
    /// for them. A committing client passes the streams it hosts but does
    /// not write, so the token reply doubles as the commit's stream sync.
    NextObserve {
        /// The client's epoch.
        epoch: Epoch,
        /// Streams the new entry joins.
        streams: Vec<StreamId>,
        /// Streams whose last-K offsets ride back with the token.
        observe: Vec<StreamId>,
    },
    /// Read the tail and per-stream backpointers without incrementing
    /// (the "fast check" / stream-sync primitive).
    Query {
        /// The client's epoch.
        epoch: Epoch,
        /// Streams of interest.
        streams: Vec<StreamId>,
    },
    /// Seal the sequencer at `epoch`; it stops issuing tokens for older
    /// epochs.
    Seal {
        /// The new epoch.
        epoch: Epoch,
    },
    /// Dump the full soft state (tail + all per-stream backpointers), used
    /// to write sequencer-state checkpoints into the log.
    Dump {
        /// The client's epoch.
        epoch: Epoch,
    },
    /// Install recovered state into a fresh sequencer (reconfiguration).
    Bootstrap {
        /// The epoch this state corresponds to.
        epoch: Epoch,
        /// The global tail to resume from.
        tail: LogOffset,
        /// Per-stream last-K issued offsets (most recent first).
        streams: Vec<(StreamId, Vec<LogOffset>)>,
    },
    /// Merge one stream's backpointer window into this (live) sequencer.
    /// Used when a stream is remapped to a different log: the new log's
    /// sequencer adopts the stream's last-K composite offsets from the old
    /// log so backpointer chains stay connected across the move.
    AdoptStream {
        /// The client's epoch (for this sequencer's log).
        epoch: Epoch,
        /// The stream being adopted.
        stream: StreamId,
        /// The stream's last-K issued composite offsets, most recent first.
        backpointers: Vec<LogOffset>,
    },
}

/// Responses from the sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerResponse {
    /// A token: the reserved offset plus, for each requested stream, the
    /// previous K offsets (most recent first, excluding the new offset).
    Token {
        /// The reserved global offset.
        offset: LogOffset,
        /// Backpointers per requested stream, in request order.
        backpointers: Vec<Vec<LogOffset>>,
        /// Last-K issued offsets (most recent first, as of this grant) per
        /// stream of a [`SequencerRequest::NextObserve`]'s `observe` list,
        /// in request order; empty for a plain `Next`.
        observed: Vec<Vec<LogOffset>>,
    },
    /// A query result: the current tail (next offset to be issued) plus the
    /// last K offsets of each requested stream.
    TailInfo {
        /// The next offset that will be issued.
        tail: LogOffset,
        /// Last-K issued offsets per requested stream, most recent first.
        backpointers: Vec<Vec<LogOffset>>,
    },
    /// The operation succeeded.
    Ok,
    /// A full state dump.
    State {
        /// The next offset to be issued.
        tail: LogOffset,
        /// Per-stream last-K issued offsets, most recent first.
        streams: Vec<(StreamId, Vec<LogOffset>)>,
    },
    /// The sequencer is sealed at a newer epoch.
    ErrSealed {
        /// Its current epoch.
        epoch: Epoch,
    },
}

impl Encode for WriteKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            WriteKind::Data => 0,
            WriteKind::Junk => 1,
        });
    }
}

impl Decode for WriteKind {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(WriteKind::Data),
            1 => Ok(WriteKind::Junk),
            tag => Err(WireError::InvalidTag { what: "WriteKind", tag: tag as u64 }),
        }
    }
}

impl Encode for PageRef<'_> {
    fn encode(&self, w: &mut Writer) {
        match self {
            PageRef::Data(b) => {
                w.put_u8(0);
                w.put_bytes(b);
            }
            PageRef::Junk => w.put_u8(1),
            PageRef::Unwritten => w.put_u8(2),
            PageRef::Trimmed => w.put_u8(3),
        }
    }
}

impl Encode for PageOutcome {
    fn encode(&self, w: &mut Writer) {
        match self {
            PageOutcome::Data(b) => PageRef::Data(b),
            PageOutcome::Junk => PageRef::Junk,
            PageOutcome::Unwritten => PageRef::Unwritten,
            PageOutcome::Trimmed => PageRef::Trimmed,
        }
        .encode(w)
    }
}

impl Decode for PageOutcome {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        PageRef::decode(r).map(PageRef::to_owned)
    }
}

impl Encode for StorageRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            StorageRequest::Write { epoch, addr, kind, payload } => {
                WriteRef::put_head(w, *epoch, *addr, *kind, payload.len());
                w.put_raw(payload);
            }
            StorageRequest::Read { epoch, addr } => {
                w.put_u8(1);
                w.put_u64(*epoch);
                w.put_u64(*addr);
            }
            StorageRequest::Trim { epoch, addr } => {
                w.put_u8(2);
                w.put_u64(*epoch);
                w.put_u64(*addr);
            }
            StorageRequest::TrimPrefix { epoch, horizon } => {
                w.put_u8(3);
                w.put_u64(*epoch);
                w.put_u64(*horizon);
            }
            StorageRequest::Seal { epoch } => {
                w.put_u8(4);
                w.put_u64(*epoch);
            }
            StorageRequest::LocalTail { epoch } => {
                w.put_u8(5);
                w.put_u64(*epoch);
            }
            StorageRequest::CopyRange { epoch, start, count } => {
                w.put_u8(6);
                w.put_u64(*epoch);
                w.put_u64(*start);
                w.put_u32(*count);
            }
            StorageRequest::ReadBatch { epoch, addrs } => {
                w.put_u8(7);
                w.put_u64(*epoch);
                put_offsets(w, addrs);
            }
            StorageRequest::ReadChase { epoch, addrs, stream, stripe, floor, limit } => {
                w.put_u8(8);
                w.put_u64(*epoch);
                put_offsets(w, addrs);
                w.put_u32(*stream);
                w.put_u32(*stripe);
                w.put_u64(*floor);
                w.put_u32(*limit);
            }
        }
    }
}

impl Decode for StorageRequest {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => {
                let WriteRef { epoch, addr, kind, payload } = WriteRef::decode_fields(r)?;
                let payload = Bytes::copy_from_slice(payload);
                Ok(StorageRequest::Write { epoch, addr, kind, payload })
            }
            1 => Ok(StorageRequest::Read { epoch: r.get_u64()?, addr: r.get_u64()? }),
            2 => Ok(StorageRequest::Trim { epoch: r.get_u64()?, addr: r.get_u64()? }),
            3 => Ok(StorageRequest::TrimPrefix { epoch: r.get_u64()?, horizon: r.get_u64()? }),
            4 => Ok(StorageRequest::Seal { epoch: r.get_u64()? }),
            5 => Ok(StorageRequest::LocalTail { epoch: r.get_u64()? }),
            6 => Ok(StorageRequest::CopyRange {
                epoch: r.get_u64()?,
                start: r.get_u64()?,
                count: r.get_u32()?,
            }),
            7 => Ok(StorageRequest::ReadBatch { epoch: r.get_u64()?, addrs: get_offsets(r)? }),
            8 => Ok(StorageRequest::ReadChase {
                epoch: r.get_u64()?,
                addrs: get_offsets(r)?,
                stream: r.get_u32()?,
                stripe: r.get_u32()?,
                floor: r.get_u64()?,
                limit: r.get_u32()?,
            }),
            tag => Err(WireError::InvalidTag { what: "StorageRequest", tag: tag as u64 }),
        }
    }
}

impl Encode for StorageResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            StorageResponse::Ok => w.put_u8(0),
            StorageResponse::Tail(t) => {
                w.put_u8(1);
                w.put_u64(*t);
            }
            StorageResponse::Data(b) => {
                w.put_u8(2);
                w.put_bytes(b);
            }
            StorageResponse::Junk => w.put_u8(3),
            StorageResponse::Unwritten => w.put_u8(4),
            StorageResponse::Trimmed => w.put_u8(5),
            StorageResponse::ErrAlreadyWritten => w.put_u8(6),
            StorageResponse::ErrTrimmed => w.put_u8(7),
            StorageResponse::ErrSealed { epoch } => {
                w.put_u8(8);
                w.put_u64(*epoch);
            }
            StorageResponse::ErrTooLarge { max } => {
                w.put_u8(9);
                w.put_u64(*max);
            }
            StorageResponse::ErrStorage(msg) => {
                w.put_u8(10);
                w.put_str(msg);
            }
            StorageResponse::PageChunk { local_tail, prefix_trim, next, pages } => {
                w.put_u8(11);
                w.put_u64(*local_tail);
                w.put_u64(*prefix_trim);
                w.put_u64(*next);
                w.put_varint(pages.len() as u64);
                for (addr, page) in pages {
                    w.put_u64(*addr);
                    match page {
                        PageCopy::Data(b) => {
                            w.put_u8(0);
                            w.put_bytes(b);
                        }
                        PageCopy::Junk => w.put_u8(1),
                        PageCopy::Trimmed => w.put_u8(2),
                    }
                }
            }
            StorageResponse::BatchOutcomes(outcomes) => {
                w.put_u8(12);
                w.put_varint(outcomes.len() as u64);
                for outcome in outcomes {
                    outcome.encode(w);
                }
            }
            StorageResponse::Chased(pages) => {
                w.put_u8(CHASED);
                w.put_varint(pages.len() as u64);
                for (addr, outcome) in pages {
                    w.put_u64(*addr);
                    outcome.encode(w);
                }
            }
        }
    }
}

impl Decode for StorageResponse {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(StorageResponse::Ok),
            1 => Ok(StorageResponse::Tail(r.get_u64()?)),
            2 => Ok(StorageResponse::Data(Bytes::decode(r)?)),
            3 => Ok(StorageResponse::Junk),
            4 => Ok(StorageResponse::Unwritten),
            5 => Ok(StorageResponse::Trimmed),
            6 => Ok(StorageResponse::ErrAlreadyWritten),
            7 => Ok(StorageResponse::ErrTrimmed),
            8 => Ok(StorageResponse::ErrSealed { epoch: r.get_u64()? }),
            9 => Ok(StorageResponse::ErrTooLarge { max: r.get_u64()? }),
            10 => Ok(StorageResponse::ErrStorage(r.get_str()?.to_owned())),
            11 => {
                let local_tail = r.get_u64()?;
                let prefix_trim = r.get_u64()?;
                let next = r.get_u64()?;
                let len = r.get_len(1 << 20)?;
                let mut pages = Vec::with_capacity(len);
                for _ in 0..len {
                    let addr = r.get_u64()?;
                    let page = match r.get_u8()? {
                        0 => PageCopy::Data(Bytes::decode(r)?),
                        1 => PageCopy::Junk,
                        2 => PageCopy::Trimmed,
                        tag => {
                            return Err(WireError::InvalidTag { what: "PageCopy", tag: tag as u64 })
                        }
                    };
                    pages.push((addr, page));
                }
                Ok(StorageResponse::PageChunk { local_tail, prefix_trim, next, pages })
            }
            12 => {
                let len = r.get_len(1 << 20)?;
                let mut outcomes = Vec::with_capacity(len);
                for _ in 0..len {
                    outcomes.push(PageOutcome::decode(r)?);
                }
                Ok(StorageResponse::BatchOutcomes(outcomes))
            }
            CHASED => {
                let len = r.get_len(1 << 20)?;
                let mut pages = Vec::with_capacity(len);
                for _ in 0..len {
                    pages.push((r.get_u64()?, PageOutcome::decode(r)?));
                }
                Ok(StorageResponse::Chased(pages))
            }
            tag => Err(WireError::InvalidTag { what: "StorageResponse", tag: tag as u64 }),
        }
    }
}

fn put_offsets(w: &mut Writer, offs: &[LogOffset]) {
    w.put_varint(offs.len() as u64);
    for &o in offs {
        w.put_u64(o);
    }
}

fn get_offsets(r: &mut Reader<'_>) -> tango_wire::Result<Vec<LogOffset>> {
    let len = r.get_len(1 << 20)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

fn put_streams(w: &mut Writer, streams: &[StreamId]) {
    w.put_varint(streams.len() as u64);
    for &s in streams {
        w.put_u32(s);
    }
}

fn get_streams(r: &mut Reader<'_>) -> tango_wire::Result<Vec<StreamId>> {
    let len = r.get_len(1 << 16)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_u32()?);
    }
    Ok(out)
}

fn put_backs(w: &mut Writer, backs: &[Vec<LogOffset>]) {
    w.put_varint(backs.len() as u64);
    for b in backs {
        put_offsets(w, b);
    }
}

fn get_backs(r: &mut Reader<'_>) -> tango_wire::Result<Vec<Vec<LogOffset>>> {
    let len = r.get_len(1 << 16)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_offsets(r)?);
    }
    Ok(out)
}

impl Encode for SequencerRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            SequencerRequest::Next { epoch, streams } => {
                w.put_u8(0);
                w.put_u64(*epoch);
                put_streams(w, streams);
            }
            SequencerRequest::Query { epoch, streams } => {
                w.put_u8(1);
                w.put_u64(*epoch);
                put_streams(w, streams);
            }
            SequencerRequest::Seal { epoch } => {
                w.put_u8(2);
                w.put_u64(*epoch);
            }
            SequencerRequest::Dump { epoch } => {
                w.put_u8(4);
                w.put_u64(*epoch);
            }
            SequencerRequest::Bootstrap { epoch, tail, streams } => {
                w.put_u8(3);
                w.put_u64(*epoch);
                w.put_u64(*tail);
                w.put_varint(streams.len() as u64);
                for (id, offs) in streams {
                    w.put_u32(*id);
                    put_offsets(w, offs);
                }
            }
            SequencerRequest::AdoptStream { epoch, stream, backpointers } => {
                w.put_u8(6);
                w.put_u64(*epoch);
                w.put_u32(*stream);
                put_offsets(w, backpointers);
            }
            SequencerRequest::NextObserve { epoch, streams, observe } => {
                w.put_u8(7);
                w.put_u64(*epoch);
                put_streams(w, streams);
                put_streams(w, observe);
            }
        }
    }
}

impl Decode for SequencerRequest {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(SequencerRequest::Next { epoch: r.get_u64()?, streams: get_streams(r)? }),
            1 => Ok(SequencerRequest::Query { epoch: r.get_u64()?, streams: get_streams(r)? }),
            2 => Ok(SequencerRequest::Seal { epoch: r.get_u64()? }),
            3 => {
                let epoch = r.get_u64()?;
                let tail = r.get_u64()?;
                let len = r.get_len(1 << 20)?;
                let mut streams = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = r.get_u32()?;
                    streams.push((id, get_offsets(r)?));
                }
                Ok(SequencerRequest::Bootstrap { epoch, tail, streams })
            }
            4 => Ok(SequencerRequest::Dump { epoch: r.get_u64()? }),
            // Tag 5 (a batch grant for client-side token pooling) is retired:
            // never reuse it.
            6 => Ok(SequencerRequest::AdoptStream {
                epoch: r.get_u64()?,
                stream: r.get_u32()?,
                backpointers: get_offsets(r)?,
            }),
            7 => Ok(SequencerRequest::NextObserve {
                epoch: r.get_u64()?,
                streams: get_streams(r)?,
                observe: get_streams(r)?,
            }),
            tag => Err(WireError::InvalidTag { what: "SequencerRequest", tag: tag as u64 }),
        }
    }
}

impl Encode for SequencerResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            SequencerResponse::Token { offset, backpointers, observed } => {
                w.put_u8(0);
                w.put_u64(*offset);
                put_backs(w, backpointers);
                put_backs(w, observed);
            }
            SequencerResponse::TailInfo { tail, backpointers } => {
                w.put_u8(1);
                w.put_u64(*tail);
                put_backs(w, backpointers);
            }
            SequencerResponse::Ok => w.put_u8(2),
            SequencerResponse::ErrSealed { epoch } => {
                w.put_u8(3);
                w.put_u64(*epoch);
            }
            SequencerResponse::State { tail, streams } => {
                w.put_u8(4);
                w.put_u64(*tail);
                w.put_varint(streams.len() as u64);
                for (id, offs) in streams {
                    w.put_u32(*id);
                    put_offsets(w, offs);
                }
            }
        }
    }
}

impl Decode for SequencerResponse {
    fn decode(r: &mut Reader<'_>) -> tango_wire::Result<Self> {
        match r.get_u8()? {
            0 => Ok(SequencerResponse::Token {
                offset: r.get_u64()?,
                backpointers: get_backs(r)?,
                observed: get_backs(r)?,
            }),
            1 => {
                Ok(SequencerResponse::TailInfo { tail: r.get_u64()?, backpointers: get_backs(r)? })
            }
            2 => Ok(SequencerResponse::Ok),
            3 => Ok(SequencerResponse::ErrSealed { epoch: r.get_u64()? }),
            4 => {
                let tail = r.get_u64()?;
                let len = r.get_len(1 << 20)?;
                let mut streams = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = r.get_u32()?;
                    streams.push((id, get_offsets(r)?));
                }
                Ok(SequencerResponse::State { tail, streams })
            }
            // Tag 5 (the batch grant's reply) is retired: never reuse it.
            tag => Err(WireError::InvalidTag { what: "SequencerResponse", tag: tag as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn storage_messages_roundtrip() {
        let msgs = vec![
            StorageRequest::Write {
                epoch: 3,
                addr: 9,
                kind: WriteKind::Data,
                payload: Bytes::from_static(b"abc"),
            },
            StorageRequest::Write {
                epoch: 0,
                addr: 0,
                kind: WriteKind::Junk,
                payload: Bytes::new(),
            },
            StorageRequest::Read { epoch: 1, addr: 2 },
            StorageRequest::Trim { epoch: 1, addr: 2 },
            StorageRequest::TrimPrefix { epoch: 1, horizon: 100 },
            StorageRequest::Seal { epoch: 7 },
            StorageRequest::LocalTail { epoch: 7 },
            StorageRequest::CopyRange { epoch: 9, start: 128, count: 256 },
            StorageRequest::ReadBatch { epoch: 5, addrs: vec![0, 7, 12, u64::MAX] },
            StorageRequest::ReadBatch { epoch: 0, addrs: vec![] },
            StorageRequest::ReadChase {
                epoch: 5,
                addrs: vec![40, 38, u64::MAX],
                stream: crate::MAX_STREAM_ID,
                stripe: 2,
                floor: 17,
                limit: 32,
            },
            StorageRequest::ReadChase {
                epoch: 0,
                addrs: vec![],
                stream: 0,
                stripe: 0,
                floor: 0,
                limit: 0,
            },
        ];
        for m in msgs {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<StorageRequest>(&bytes).unwrap(), m);
        }
        let resps = vec![
            StorageResponse::Ok,
            StorageResponse::Tail(55),
            StorageResponse::Data(Bytes::from_static(b"xyz")),
            StorageResponse::Junk,
            StorageResponse::Unwritten,
            StorageResponse::Trimmed,
            StorageResponse::ErrAlreadyWritten,
            StorageResponse::ErrTrimmed,
            StorageResponse::ErrSealed { epoch: 9 },
            StorageResponse::ErrTooLarge { max: 4096 },
            StorageResponse::ErrStorage("boom".into()),
            StorageResponse::PageChunk {
                local_tail: 40,
                prefix_trim: 3,
                next: 20,
                pages: vec![
                    (3, PageCopy::Data(Bytes::from_static(b"page"))),
                    (4, PageCopy::Junk),
                    (7, PageCopy::Trimmed),
                ],
            },
            StorageResponse::PageChunk { local_tail: 0, prefix_trim: 0, next: 0, pages: vec![] },
            StorageResponse::BatchOutcomes(vec![
                PageOutcome::Data(Bytes::from_static(b"entry")),
                PageOutcome::Junk,
                PageOutcome::Unwritten,
                PageOutcome::Trimmed,
            ]),
            StorageResponse::BatchOutcomes(vec![]),
            StorageResponse::Chased(vec![
                (40, PageOutcome::Data(Bytes::from_static(b"asked"))),
                (u64::MAX, PageOutcome::Unwritten),
                (39, PageOutcome::Data(Bytes::from_static(b"followed"))),
                (36, PageOutcome::Junk),
                (35, PageOutcome::Trimmed),
            ]),
            StorageResponse::Chased(vec![]),
        ];
        for m in resps {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<StorageResponse>(&bytes).unwrap(), m);
        }
        // The chase is request 8 and response 13.
        let chase = StorageRequest::ReadChase {
            epoch: 1,
            addrs: vec![2],
            stream: 3,
            stripe: 4,
            floor: 5,
            limit: 6,
        };
        let expected = [
            &[8u8][..],
            &1u64.to_le_bytes(),
            &[1],
            &2u64.to_le_bytes(),
            &3u32.to_le_bytes(),
            &4u32.to_le_bytes(),
            &5u64.to_le_bytes(),
            &6u32.to_le_bytes(),
        ];
        assert_eq!(encode_to_vec(&chase), expected.concat());
        let chased = StorageResponse::Chased(vec![(2, PageOutcome::Junk)]);
        assert_eq!(encode_to_vec(&chased), [&[13u8, 1][..], &2u64.to_le_bytes(), &[1]].concat());
    }

    /// The borrowed walk over a bulk reply is the owned decode of the same
    /// bytes: the same pages, and an error exactly where the owned decode
    /// has one — cut short anywhere, or with a byte left over.
    #[test]
    fn borrowed_pages_agree_with_the_owned_decode() {
        let data = |bytes: &'static [u8]| PageOutcome::Data(Bytes::from_static(bytes));
        let batch = vec![data(b"entry"), PageOutcome::Junk, PageOutcome::Unwritten, data(b"")];
        let chased = vec![(40, data(b"asked")), (u64::MAX, PageOutcome::Trimmed), (39, data(b"x"))];
        type Walked = Vec<(Option<u64>, PageOutcome)>;
        let walk = |reply: &[u8]| -> Option<tango_wire::Result<Walked>> {
            let pages = Pages::peek(reply)?;
            Some(pages.and_then(|pages| {
                pages.map(|page| page.map(|(addr, page)| (addr, page.to_owned()))).collect()
            }))
        };
        for response in [
            StorageResponse::BatchOutcomes(batch),
            StorageResponse::BatchOutcomes(vec![]),
            StorageResponse::Chased(chased),
            StorageResponse::Chased(vec![]),
        ] {
            let expected: Walked = match &response {
                StorageResponse::BatchOutcomes(pages) => {
                    pages.iter().map(|page| (None, page.clone())).collect()
                }
                StorageResponse::Chased(pages) => {
                    pages.iter().map(|(addr, page)| (Some(*addr), page.clone())).collect()
                }
                _ => unreachable!(),
            };
            let mut bytes = encode_to_vec(&response);
            assert_eq!(walk(&bytes), Some(Ok(expected)));
            for cut in 1..bytes.len() {
                let owned = decode_from_slice::<StorageResponse>(&bytes[..cut]);
                assert_eq!(walk(&bytes[..cut]).unwrap().err(), owned.err(), "cut at {cut}");
            }
            bytes.push(0);
            let owned = decode_from_slice::<StorageResponse>(&bytes);
            assert_eq!(walk(&bytes).unwrap().err(), owned.err(), "a byte left over");
        }
        assert!(walk(&encode_to_vec(&StorageResponse::Junk)).is_none());
        assert!(walk(&[]).is_none());
    }

    #[test]
    fn stamped_write_is_the_owned_encoding_and_peeks_back() {
        // Payload lengths either side of each varint width.
        for len in [0usize, 1, 127, 128, 16_383, 16_384] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = [&[0xAA; WRITE_HEAD_MAX][..], &payload].concat();
            // Stamped twice, as a retry at another epoch does.
            for (epoch, addr) in [(u64::MAX, 7), (3, u64::MAX)] {
                let owned = StorageRequest::Write {
                    epoch,
                    addr,
                    kind: WriteKind::Data,
                    payload: Bytes::copy_from_slice(&payload),
                };
                let stamped = WriteRef::stamp(&mut buf, epoch, addr, WriteKind::Data);
                assert_eq!(stamped, encode_to_vec(&owned));
                let expected = WriteRef { epoch, addr, kind: WriteKind::Data, payload: &payload };
                assert_eq!(WriteRef::peek(stamped), Some(Ok(expected)));
            }
        }
        // Not a write, not anything, and a write that is cut short.
        assert_eq!(WriteRef::peek(&encode_to_vec(&StorageRequest::Seal { epoch: 1 })), None);
        assert_eq!(WriteRef::peek(&[]), None);
        assert!(matches!(WriteRef::peek(&[0, 1, 2]), Some(Err(WireError::Truncated { .. }))));
    }

    #[test]
    fn sequencer_messages_roundtrip() {
        let msgs = vec![
            SequencerRequest::Next { epoch: 1, streams: vec![1, 2, 3] },
            SequencerRequest::NextObserve { epoch: 1, streams: vec![1, 2], observe: vec![0, 9] },
            SequencerRequest::NextObserve { epoch: 0, streams: vec![], observe: vec![] },
            SequencerRequest::Query { epoch: 1, streams: vec![] },
            SequencerRequest::Seal { epoch: 4 },
            SequencerRequest::Bootstrap {
                epoch: 4,
                tail: 77,
                streams: vec![(1, vec![70, 60]), (9, vec![])],
            },
            SequencerRequest::AdoptStream {
                epoch: 6,
                stream: 12,
                backpointers: vec![(1u64 << 56) | 4, (1u64 << 56) | 1, 9],
            },
        ];
        for m in msgs {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<SequencerRequest>(&bytes).unwrap(), m);
        }
        let resps = vec![
            SequencerResponse::Token {
                offset: 5,
                backpointers: vec![vec![4, 2], vec![]],
                observed: vec![],
            },
            SequencerResponse::Token {
                offset: 6,
                backpointers: vec![vec![5]],
                observed: vec![vec![3, 1], vec![]],
            },
            SequencerResponse::TailInfo { tail: 6, backpointers: vec![vec![5]] },
            SequencerResponse::Ok,
            SequencerResponse::ErrSealed { epoch: 2 },
        ];
        for m in resps {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_from_slice::<SequencerResponse>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn retired_sequencer_tag_5_is_invalid() {
        // The batch grant and its reply as a pre-retirement peer sent them.
        let request = [&[5u8][..], &1u64.to_le_bytes(), &[0], &4u32.to_le_bytes()].concat();
        assert!(matches!(
            decode_from_slice::<SequencerRequest>(&request),
            Err(WireError::InvalidTag { what: "SequencerRequest", tag: 5 })
        ));
        let response = [&[5u8][..], &10u64.to_le_bytes(), &[0]].concat();
        assert!(matches!(
            decode_from_slice::<SequencerResponse>(&response),
            Err(WireError::InvalidTag { what: "SequencerResponse", tag: 5 })
        ));
    }
}
