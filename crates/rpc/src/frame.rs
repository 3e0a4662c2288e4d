//! Length-prefixed, CRC-checked framing for the TCP transport.
//!
//! One frame layout: `magic u32 | request_id u64 | len u32 | crc u32 |
//! trace_id u64 | span_id u64 | payload[len]`, all little-endian. The
//! `request_id` lets many RPCs share one socket: the client stamps each
//! request with a fresh id and the server echoes it on the response, so
//! responses may arrive in any order and are routed back to the right
//! caller. `crc` is the CRC-32C of the payload. `len` is bounded to guard
//! against garbage on the socket.
//!
//! `trace_id | span_id` propagate a [`TraceContext`] caller → callee. Trace
//! ids are never 0, so a zero `trace_id` means "untraced" (responses always
//! are) and the header needs no optional part: the decoder is two states,
//! header then payload.
//!
//! The low byte of the magic is the layout version; a peer speaking any
//! other layout fails with `BadFrame` instead of misparsing.

use std::io::{Read, Write};

use tango_metrics::TraceContext;
use tango_wire::crc32c;

use crate::{Result, RpcError};

/// Frame magic; the low byte is the layout version.
pub const FRAME_MAGIC: u32 = 0x7A_4E_47_04;

/// Bytes in a frame header: magic, request id, length, CRC, trace id,
/// span id.
pub const HEADER_LEN: usize = 36;

/// Upper bound on a frame payload (64 MiB): far above any CORFU entry but
/// small enough to reject corrupted lengths immediately.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// One decoded frame: the request id, its payload, and the propagated
/// trace context if the sender included one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlates a response with the request that produced it.
    pub id: u64,
    /// The message bytes.
    pub payload: Vec<u8>,
    /// The sender's trace context (`None` for untraced frames).
    pub trace: Option<TraceContext>,
}

/// Writes one untraced frame to `w`.
pub fn write_frame(w: &mut impl Write, id: u64, payload: &[u8]) -> Result<()> {
    write_frame_traced(w, id, None, payload)
}

/// Writes one frame to `w`, carrying `trace` in the header when present.
pub fn write_frame_traced(
    w: &mut impl Write,
    id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Result<()> {
    check_len(payload)?;
    let (trace_id, span_id) = trace.map_or((0, 0), |ctx| (ctx.trace_id, ctx.span_id));
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..12].copy_from_slice(&id.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[16..20].copy_from_slice(&crc32c(payload).to_le_bytes());
    header[20..28].copy_from_slice(&trace_id.to_le_bytes());
    header[28..36].copy_from_slice(&span_id.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Refuses a payload no frame can carry, before anything is written.
pub(crate) fn check_len(payload: &[u8]) -> Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(RpcError::BadFrame(format!("payload of {} bytes too large", payload.len())));
    }
    Ok(())
}

/// Encodes one frame into a buffer of its own, so that a socket takes
/// header and payload in a single write.
pub(crate) fn encode_frame(
    id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame_traced(&mut frame, id, trace, payload)?;
    Ok(frame)
}

/// Reads one complete frame from `r`, treating a read timeout as an error.
///
/// Both ends of the transport must keep partial progress when a read comes
/// back empty-handed (a nonblocking server socket, a client reader whose
/// deadline passed mid-frame) and use a [`FrameAssembler`] instead.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    // This assembler does not outlive the call, so it must not read past
    // the frame's end.
    let mut assembler = FrameAssembler { reach: 0, ..FrameAssembler::new() };
    match assembler.poll(r)? {
        Some(frame) => Ok(frame),
        None => Err(RpcError::Timeout),
    }
}

/// How far past a header a long-lived assembler reads: enough that no
/// frame of a 512 B append needs a second read. The stack buffer it reads
/// into is zeroed on every call, which at 4 KiB cost more than it saved.
const READ_AHEAD: usize = 1024;

enum AssemblerState {
    Header,
    Payload { id: u64, crc: u32, trace: Option<TraceContext> },
}

/// Incremental frame reader that survives reads that stop mid-frame.
///
/// A server socket is nonblocking and a client's reader gives up at its
/// caller's deadline, so a read can return `WouldBlock`/`TimedOut` after
/// part of a frame has been consumed; with a plain `read_exact` that
/// progress would be discarded and the stream desynced (the next read
/// would start mid-frame and die with `BadFrame`). The assembler instead
/// buffers whatever has arrived: [`FrameAssembler::poll`] returns
/// `Ok(None)` when the reader has nothing more for now and resumes exactly
/// where it left off on the next call, whichever thread makes it.
pub struct FrameAssembler {
    state: AssemblerState,
    header: [u8; HEADER_LEN],
    payload: Vec<u8>,
    /// Bytes of the current state's buffer (header or payload) filled.
    got: usize,
    /// How far past a header one read may reach.
    reach: usize,
    /// Bytes read past the end of the last frame; empty (and unallocated)
    /// unless the peer pipelines.
    ahead: Vec<u8>,
}

impl FrameAssembler {
    /// A fresh assembler at a frame boundary.
    pub fn new() -> Self {
        Self {
            state: AssemblerState::Header,
            header: [0u8; HEADER_LEN],
            payload: Vec::new(),
            got: 0,
            reach: READ_AHEAD,
            ahead: Vec::new(),
        }
    }

    /// True if no partial frame is buffered (the stream is at a frame
    /// boundary, so an empty-handed read means the peer is idle).
    pub fn is_idle(&self) -> bool {
        matches!(self.state, AssemblerState::Header) && self.got == 0 && self.ahead.is_empty()
    }

    /// Drives assembly forward. Returns `Ok(Some(frame))` once a complete
    /// frame is available, `Ok(None)` if the reader would block or timed
    /// out (partial progress is retained; call again), or an error on EOF,
    /// I/O failure, or frame validation failure.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Frame>> {
        loop {
            match self.state {
                AssemblerState::Header => {
                    // One read fetches the header and whatever is behind
                    // it — for the small frames an append is made of, the
                    // whole payload. Bytes past this frame's end (the next
                    // one, pipelined behind it) wait in `ahead`.
                    let mut chunk = [0u8; HEADER_LEN + READ_AHEAD];
                    let mut n = self.ahead.len();
                    chunk[..n].copy_from_slice(&self.ahead);
                    self.ahead.clear();
                    if n == 0 {
                        let want = HEADER_LEN - self.got + self.reach;
                        match read_some(r, &mut chunk[..want])? {
                            Some(read) => n = read,
                            None => return Ok(None),
                        }
                    }
                    let head = n.min(HEADER_LEN - self.got);
                    self.header[self.got..][..head].copy_from_slice(&chunk[..head]);
                    self.got += head;
                    if self.got < HEADER_LEN {
                        continue;
                    }
                    let h = &self.header;
                    let u32_at =
                        |at| u32::from_le_bytes(h[at..at + 4].try_into().expect("fixed slice"));
                    let u64_at =
                        |at| u64::from_le_bytes(h[at..at + 8].try_into().expect("fixed slice"));
                    let magic = u32_at(0);
                    if magic != FRAME_MAGIC {
                        return Err(RpcError::BadFrame(format!("bad magic {magic:#x}")));
                    }
                    let len = u32_at(12);
                    if len > MAX_FRAME_LEN {
                        return Err(RpcError::BadFrame(format!("length {len} exceeds bound")));
                    }
                    let trace = match u64_at(20) {
                        0 => None,
                        trace_id => Some(TraceContext { trace_id, span_id: u64_at(28) }),
                    };
                    self.state = AssemblerState::Payload { id: u64_at(4), crc: u32_at(16), trace };
                    self.payload = vec![0u8; len as usize];
                    self.got = (n - head).min(len as usize);
                    self.payload[..self.got].copy_from_slice(&chunk[head..][..self.got]);
                    self.ahead.extend_from_slice(&chunk[head + self.got..n]);
                }
                AssemblerState::Payload { id, crc, trace } => {
                    if !fill(r, &mut self.payload, &mut self.got)? {
                        return Ok(None);
                    }
                    let payload = std::mem::take(&mut self.payload);
                    self.state = AssemblerState::Header;
                    self.got = 0;
                    if crc32c(&payload) != crc {
                        return Err(RpcError::BadFrame("payload checksum mismatch".into()));
                    }
                    return Ok(Some(Frame { id, payload, trace }));
                }
            }
        }
    }
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads into `buf[*got..]` until it is full (`Ok(true)`) or the reader
/// would block or times out (`Ok(false)`, progress kept in `got`).
fn fill(r: &mut impl Read, buf: &mut [u8], got: &mut usize) -> Result<bool> {
    while *got < buf.len() {
        match read_some(r, &mut buf[*got..])? {
            Some(n) => *got += n,
            None => return Ok(false),
        }
    }
    Ok(true)
}

/// One successful read into `buf`: `Some(n)` with `n > 0`, or `None` if
/// the reader would block or timed out.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> Result<Option<usize>> {
    loop {
        match r.read(buf) {
            Ok(0) => return Err(RpcError::Disconnected),
            Ok(n) => return Ok(Some(n)),
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => return Ok(None),
                std::io::ErrorKind::Interrupted => continue,
                _ => return Err(e.into()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello frame").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor).unwrap();
        assert_eq!(frame.id, 7);
        assert_eq!(frame.payload, b"hello frame");
        assert_eq!(frame.trace, None);
    }

    #[test]
    fn traced_roundtrip() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, span_id: 42 };
        let mut buf = Vec::new();
        write_frame_traced(&mut buf, 9, Some(ctx), b"traced").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor).unwrap();
        assert_eq!(frame.id, 9);
        assert_eq!(frame.payload, b"traced");
        assert_eq!(frame.trace, Some(ctx));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, u64::MAX, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor).unwrap();
        assert_eq!(frame.id, u64::MAX);
        assert_eq!(frame.payload, Vec::<u8>::new());
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"hello frame").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(RpcError::BadFrame(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        // A corrupted vendor prefix and an unknown layout version both fail
        // the magic check rather than being parsed as this layout.
        for byte in [1, 0] {
            let mut buf = Vec::new();
            write_frame(&mut buf, 1, b"x").unwrap();
            buf[byte] ^= 1;
            let mut cursor = std::io::Cursor::new(buf);
            assert!(matches!(read_frame(&mut cursor), Err(RpcError::BadFrame(_))));
        }
    }

    #[test]
    fn truncated_stream_disconnects() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(RpcError::Disconnected)));
    }

    #[test]
    fn insane_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.resize(HEADER_LEN, 0);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(RpcError::BadFrame(_))));
    }

    /// A reader that yields its bytes a few at a time, interleaved with
    /// timeout errors — the shape of a slow peer behind a read timeout.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        timeout_next: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.timeout_next {
                self.timeout_next = false;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.timeout_next = true;
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn assembler_survives_mid_frame_timeouts() {
        // chunk=3 lands timeouts inside every header field, the trace
        // context included, and all through the payload.
        let ctx = TraceContext { trace_id: u64::MAX, span_id: 0x0102_0304_0506_0708 };
        let mut buf = Vec::new();
        write_frame_traced(&mut buf, 42, Some(ctx), &vec![0xAB; 1000]).unwrap();
        let mut dribble = Dribble { data: buf, pos: 0, chunk: 3, timeout_next: false };
        let mut assembler = FrameAssembler::new();
        let mut timeouts = 0u32;
        let frame = loop {
            match assembler.poll(&mut dribble).unwrap() {
                Some(frame) => break frame,
                None => timeouts += 1,
            }
        };
        assert_eq!(frame.id, 42);
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, vec![0xAB; 1000]);
        // The frame arrived across many timeouts, several of them mid-frame.
        assert!(timeouts > 100, "expected many interleaved timeouts, got {timeouts}");
    }

    #[test]
    fn pipelined_frames_survive_any_chunking() {
        // Frames from empty to larger than the read-ahead, back to back,
        // arriving in chunks that split headers, payloads and frame
        // boundaries everywhere: each comes out whole and in order.
        let sizes = [0usize, 1, 35, 36, 37, 512, 4096, READ_AHEAD, READ_AHEAD + 1, 9000, 3, 0];
        let mut wire = Vec::new();
        for (id, &len) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + id) as u8).collect();
            write_frame(&mut wire, id as u64, &payload).unwrap();
        }
        for chunk in [1, 7, 36, 100, 1000, 5000, wire.len()] {
            let mut dribble = Dribble { data: wire.clone(), pos: 0, chunk, timeout_next: false };
            let mut assembler = FrameAssembler::new();
            for (id, &len) in sizes.iter().enumerate() {
                let frame = loop {
                    if let Some(frame) = assembler.poll(&mut dribble).unwrap() {
                        break frame;
                    }
                };
                assert_eq!((frame.id, frame.payload.len()), (id as u64, len), "chunk {chunk}");
                assert!(frame.payload.iter().enumerate().all(|(i, &b)| b == (i * 31 + id) as u8));
            }
            assert!(assembler.is_idle(), "chunk {chunk}: bytes left over");
        }
    }

    #[test]
    fn read_frame_takes_one_frame_and_no_more() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"first").unwrap();
        write_frame(&mut wire, 2, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().payload, b"first");
        assert_eq!(read_frame(&mut cursor).unwrap().payload, b"second");
    }

    #[test]
    fn assembler_reports_idle_only_at_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"abcdef").unwrap();
        let mut dribble = Dribble { data: buf, pos: 0, chunk: 4, timeout_next: false };
        let mut assembler = FrameAssembler::new();
        assert!(assembler.is_idle());
        assert!(assembler.poll(&mut dribble).unwrap().is_none());
        assert!(!assembler.is_idle(), "partial header must not look idle");
        while assembler.poll(&mut dribble).unwrap().is_none() {}
        assert!(assembler.is_idle());
    }
}
