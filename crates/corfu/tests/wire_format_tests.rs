//! One wire format, however a message is produced or consumed. Golden byte
//! vectors pin the chain-write request, the entry envelope and the replies
//! a node reads pages with (so a faster encoder, or a new type on either
//! side, cannot quietly become a different format); the bytes `write_at`
//! frames in place are the bytes the owned `Encode` impl gives; and the
//! storage node's borrowed `Write` decode answers every input — malformed
//! ones included — exactly as the owned decode would.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
use corfu::{
    ClientOptions, ConnFactory, CrossLogLink, EntryEnvelope, NodeInfo, StorageServer, StreamHeader,
};
use proptest::prelude::*;
use tango_metrics::Registry;
use tango_rpc::{ClientConn, RpcHandler};
use tango_wire::{decode_from_slice, encode_to_vec};

fn write(epoch: u64, addr: u64, kind: WriteKind, payload: &[u8]) -> StorageRequest {
    StorageRequest::Write { epoch, addr, kind, payload: Bytes::copy_from_slice(payload) }
}

#[test]
fn write_request_golden_bytes() {
    // tag, epoch and address as little-endian u64s, kind, varint length,
    // payload.
    let data = write(3, 9, WriteKind::Data, b"abc");
    let mut expected = vec![0u8];
    expected.extend([3, 0, 0, 0, 0, 0, 0, 0]);
    expected.extend([9, 0, 0, 0, 0, 0, 0, 0]);
    expected.extend([0, 3, b'a', b'b', b'c']);
    assert_eq!(encode_to_vec(&data), expected);

    let junk = write(0x0102, 1 << 40, WriteKind::Junk, b"");
    let expected =
        [&[0u8][..], &[2, 1, 0, 0, 0, 0, 0, 0], &[0, 0, 0, 0, 0, 1, 0, 0], &[1, 0]].concat();
    assert_eq!(encode_to_vec(&junk), expected);

    // A 300-byte payload takes a two-byte length.
    let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
    let long = encode_to_vec(&write(u64::MAX, 0, WriteKind::Data, &payload));
    assert_eq!(&long[..1 + 8], &[0u8, 255, 255, 255, 255, 255, 255, 255, 255][..]);
    assert_eq!(&long[1 + 8 + 8..1 + 8 + 8 + 3], &[0u8, 0xAC, 0x02][..]);
    assert_eq!(&long[1 + 8 + 8 + 3..], &payload[..]);
}

#[test]
fn entry_envelope_golden_bytes() {
    // Relative header: 2-byte deltas from the entry's own offset, 0 for
    // "no previous entry".
    let relative = EntryEnvelope {
        headers: vec![StreamHeader { stream: 7, backpointers: vec![99, 95, u64::MAX] }],
        payload: Bytes::from_static(b"xy"),
        link: None,
    };
    let expected = [0xE7u8, 1, 7, 0, 0, 0, 3, 1, 0, 5, 0, 0, 0, 2, b'x', b'y'];
    assert_eq!(relative.encode(100).unwrap(), expected);

    // Absolute header: the id's high bit set, K/4 eight-byte offsets.
    let absolute = EntryEnvelope {
        headers: vec![StreamHeader { stream: 3, backpointers: vec![1_000, 900, 800, 700] }],
        payload: Bytes::new(),
        link: None,
    };
    let expected = [0xE7u8, 1, 3, 0, 0, 0x80, 1, 0xE8, 0x03, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(absolute.encode(2_000_000).unwrap(), expected);

    // Linked: its own magic, and the link between the headers and the
    // payload.
    let home = (2u64 << 56) | 7;
    let linked = EntryEnvelope {
        headers: vec![StreamHeader { stream: 4, backpointers: vec![u64::MAX] }],
        payload: Bytes::from_static(b"body"),
        link: Some(CrossLogLink { home, parts: vec![5, home] }),
    };
    let mut expected = vec![0xE8u8, 1, 4, 0, 0, 0, 1, 0, 0];
    expected.extend([7, 0, 0, 0, 0, 0, 0, 2]);
    expected.push(2);
    expected.extend([5, 0, 0, 0, 0, 0, 0, 0]);
    expected.extend([7, 0, 0, 0, 0, 0, 0, 2]);
    expected.extend([4, b'b', b'o', b'd', b'y']);
    assert_eq!(linked.encode(5).unwrap(), expected);
    for (envelope, offset) in [(relative, 100), (linked, 5)] {
        let bytes = envelope.encode(offset).unwrap();
        assert_eq!(EntryEnvelope::decode(&bytes, offset).unwrap(), envelope);
    }
}

/// (destination node, request bytes) of every call, in order.
type Sent = Vec<(u32, Vec<u8>)>;

/// Records every request a client sends.
struct Tap {
    inner: Arc<dyn ClientConn>,
    node: u32,
    seen: Arc<Mutex<Sent>>,
}

impl ClientConn for Tap {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        self.seen.lock().unwrap().push((self.node, request.to_vec()));
        self.inner.call(request)
    }
}

/// The request framed in place around an entry is, byte for byte, the owned
/// encoding of the same fields — and the head and the tail of the chain are
/// sent the same bytes.
#[test]
fn chain_write_sends_the_owned_encoding_to_every_hop() {
    let cluster = LocalCluster::new(ClusterConfig {
        num_sets: 2,
        replication: 2,
        ..ClusterConfig::default()
    });
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (plain, tap) = (cluster.conn_factory(), Arc::clone(&seen));
    let factory: Arc<dyn ConnFactory> = Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
        Arc::new(Tap { inner: plain.connect(node), node: node.id, seen: Arc::clone(&tap) })
    });
    let client =
        cluster.client_with_factory(factory, ClientOptions::default(), Registry::new()).unwrap();
    let writes_seen = || -> Sent {
        let is_write = |(_, req): &(u32, Vec<u8>)| {
            matches!(decode_from_slice(req), Ok(StorageRequest::Write { .. }))
        };
        std::mem::take(&mut *seen.lock().unwrap()).into_iter().filter(is_write).collect()
    };

    // Payloads either side of the one- and two-byte length boundary.
    for len in [0usize, 1, 100, 127, 128, 512, 3000] {
        let payload = Bytes::from(vec![len as u8; len]);
        let (offset, envelope) = client.append_streams(&[1, 2], payload).unwrap();
        let proj = client.projection();
        let owned = encode_to_vec(&write(
            proj.epoch_of_log(0),
            proj.map(offset).1,
            WriteKind::Data,
            &envelope.encode(offset).unwrap(),
        ));
        let expected: Sent =
            proj.chain_for(offset).iter().map(|&node| (node, owned.clone())).collect();
        assert_eq!(writes_seen(), expected, "append of {len} bytes");
    }

    // `write_at` of caller-encoded bytes takes the same path.
    let token = client.token(&[]).unwrap();
    client.write_at(token.offset, b"raw body").unwrap();
    let proj = client.projection();
    let owned = encode_to_vec(&write(0, proj.map(token.offset).1, WriteKind::Data, b"raw body"));
    let sent = writes_seen();
    assert_eq!(sent.len(), 2);
    assert!(sent.iter().all(|(_, request)| *request == owned));
}

/// What the storage node answered before it had a borrowed decode: decode
/// the whole request into an owned value, then process it.
fn owned_path(server: &StorageServer, request: &[u8]) -> StorageResponse {
    match decode_from_slice::<StorageRequest>(request) {
        Ok(req) => server.process(req),
        Err(e) => StorageResponse::ErrStorage(format!("bad request: {e}")),
    }
}

/// A request frame and a way to damage it.
fn frames() -> impl Strategy<Value = Vec<u8>> {
    let request = (0u64..3, 0u64..6, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(epoch, addr, junk, payload)| {
            let kind = if junk { WriteKind::Junk } else { WriteKind::Data };
            encode_to_vec(&write(epoch, addr, kind, &payload))
        });
    (request, 0u8..6, any::<u64>()).prop_map(|(mut frame, damage, salt)| {
        let at = salt as usize % frame.len();
        match damage {
            // As it was encoded.
            0 => {}
            // Truncated anywhere, to nothing at all.
            1 => frame.truncate(at),
            // Trailing bytes after a complete request.
            2 => frame.extend_from_slice(&salt.to_le_bytes()[..1 + at % 8]),
            // Another tag (another request's, or nobody's) on the same bytes.
            3 => frame[0] = salt as u8,
            // A declared payload length far beyond the frame.
            4 => {
                frame.truncate(1 + 8 + 8 + 1);
                frame.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1]);
                frame.extend_from_slice(&salt.to_le_bytes());
            }
            // One byte flipped anywhere (kind, length, epoch, payload).
            _ => frame[at] ^= 1 << (salt % 8),
        }
        frame
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two identical nodes are fed the same frames, one through `handle`
    /// (borrowed `Write` decode) and one through the owned decode. They
    /// answer the same bytes every time — sealing, write-once refusals and
    /// decode errors included — and end up holding the same pages.
    #[test]
    fn borrowed_and_owned_write_decodes_agree(frames in proptest::collection::vec(frames(), 1..40)) {
        let (borrowed, owned) = (StorageServer::in_memory(64), StorageServer::in_memory(64));
        for server in [&borrowed, &owned] {
            prop_assert_eq!(server.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(0));
        }
        for frame in &frames {
            let expected = owned_path(&owned, frame);
            let answered: StorageResponse = decode_from_slice(&borrowed.handle(frame)).unwrap();
            prop_assert_eq!(answered, expected, "frame {:?}", frame);
        }
        prop_assert_eq!(borrowed.stats(), owned.stats());
        for addr in 0..6 {
            let read = StorageRequest::Read { epoch: 1, addr };
            prop_assert_eq!(borrowed.process(read.clone()), owned.process(read));
        }
    }
}

/// The last address takes no page: a write or fill there is refused the
/// same on either decode, and the tail a seal reports to a recovering
/// sequencer does not wrap.
#[test]
fn a_write_at_the_last_address_is_refused() {
    let server = StorageServer::in_memory(64);
    let frame = |addr, kind| encode_to_vec(&write(0, addr, kind, b"x"));
    let answer =
        |frame: &[u8]| decode_from_slice::<StorageResponse>(&server.handle(frame)).unwrap();
    assert_eq!(answer(&frame(u64::MAX - 1, WriteKind::Data)), StorageResponse::Ok);
    for kind in [WriteKind::Data, WriteKind::Junk] {
        let frame = frame(u64::MAX, kind);
        let answered = answer(&frame);
        assert!(matches!(answered, StorageResponse::ErrStorage(_)), "{answered:?}");
        assert_eq!(answered, owned_path(&server, &frame));
    }
    let read = StorageRequest::Read { epoch: 0, addr: u64::MAX };
    assert_eq!(server.process(read), StorageResponse::Page(corfu::Page::Unwritten));
    assert_eq!(server.process(StorageRequest::Seal { epoch: 1 }), StorageResponse::Tail(u64::MAX));
}

/// The snapshot request shares a port with every service, so it must not be
/// a request of any of them: a node without the wrapper refuses it rather
/// than acting on it.
#[test]
fn no_service_decoder_accepts_the_snapshot_request() {
    use corfu::proto::SequencerRequest;
    use tango_meta::proto::MetaRequest;
    use tango_rpc::SNAPSHOT_REQUEST;

    assert!(decode_from_slice::<StorageRequest>(SNAPSHOT_REQUEST).is_err());
    assert!(decode_from_slice::<SequencerRequest>(SNAPSHOT_REQUEST).is_err());
    assert!(decode_from_slice::<MetaRequest>(SNAPSHOT_REQUEST).is_err());
}

/// A node holding every page state: data at 0, junk at 1, a trimmed page at
/// 2, nothing at 3, and at 4 and 5 entries of stream 7 whose backpointers
/// lead 5 → 4 and 1, 4 → 2. The requests go in and the replies come out as
/// bytes, so the golden vectors below pin what a node sends, whatever types
/// either side decodes them into.
fn node_of_every_state() -> StorageServer {
    let server = StorageServer::in_memory(64);
    let entry = |backpointers: Vec<u64>, payload: &'static [u8], offset: u64| {
        let headers = vec![StreamHeader { stream: 7, backpointers }];
        EntryEnvelope { headers, payload: Bytes::from_static(payload), link: None }
            .encode(offset)
            .unwrap()
    };
    let requests = [
        write(0, 0, WriteKind::Data, b"ab"),
        write(0, 1, WriteKind::Junk, b""),
        write(0, 2, WriteKind::Data, b"gone"),
        StorageRequest::Trim { epoch: 0, addr: 2 },
        write(0, 4, WriteKind::Data, &entry(vec![2], b"e4", 4)),
        write(0, 5, WriteKind::Data, &entry(vec![4, 1], b"e5", 5)),
    ];
    for request in requests {
        assert_eq!(call(&server, request.clone()), [0u8], "{request:?}");
    }
    server
}

/// The bytes `server` answers `request` with.
fn call(server: &StorageServer, request: StorageRequest) -> Vec<u8> {
    server.handle(&encode_to_vec(&request))
}

/// The page at 4 and 5: magic and version, one header of stream 7 with its
/// deltas, the payload.
const ENTRY_4: [u8; 12] = [0xE7, 1, 7, 0, 0, 0, 1, 2, 0, 2, b'e', b'4'];
const ENTRY_5: [u8; 14] = [0xE7, 1, 7, 0, 0, 0, 2, 1, 0, 4, 0, 2, b'e', b'5'];

/// Whatever a reply's bytes decode into encodes back to the same bytes.
fn assert_reencodes(reply: &[u8]) {
    let decoded: StorageResponse = decode_from_slice(reply).unwrap();
    assert_eq!(encode_to_vec(&decoded), reply, "{decoded:?}");
}

#[test]
fn read_reply_golden_bytes() {
    let server = node_of_every_state();
    // One tag per state, 2 to 5; only data carries a varint length and bytes.
    let read = |addr| call(&server, StorageRequest::Read { epoch: 0, addr });
    let expected: [&[u8]; 4] = [&[2, 2, b'a', b'b'], &[3], &[5], &[4]];
    for (addr, expected) in (0..4).zip(expected) {
        let reply = read(addr);
        assert_eq!(reply, expected, "read at {addr}");
        assert_reencodes(&reply);
    }
}

#[test]
fn batch_outcomes_reply_golden_bytes() {
    let server = node_of_every_state();
    // Tag 12, a varint count, then per page its own tag, 0 to 3.
    let reply = call(&server, StorageRequest::ReadBatch { epoch: 0, addrs: vec![3, 2, 1, 0] });
    assert_eq!(reply, [12, 4, 2, 3, 1, 0, 2, b'a', b'b']);
    assert_reencodes(&reply);
}

#[test]
fn chased_reply_golden_bytes() {
    let server = node_of_every_state();
    // Tag 13, a varint count, then per page its address as a little-endian
    // u64 and the page as in a batch: the asked pages in request order, then
    // those the walk followed, highest first.
    let chase = StorageRequest::ReadChase {
        epoch: 0,
        addrs: vec![5, 3],
        stream: 7,
        stripe: 1,
        floor: 0,
        limit: 16,
    };
    let reply = call(&server, chase);
    let addr = |a: u8| [a, 0, 0, 0, 0, 0, 0, 0];
    let expected = [
        &[13, 5][..],
        &addr(5),
        &[0, ENTRY_5.len() as u8],
        &ENTRY_5,
        &addr(3),
        &[2],
        &addr(4),
        &[0, ENTRY_4.len() as u8],
        &ENTRY_4,
        &addr(2),
        &[3],
        &addr(1),
        &[1],
    ]
    .concat();
    assert_eq!(reply, expected);
    assert_reencodes(&reply);
}

#[test]
fn page_chunk_reply_golden_bytes() {
    let server = node_of_every_state();
    // Tag 11, the local tail, the trim horizon and the next address as
    // little-endian u64s, a varint count, then per consumed page its address
    // and its own tag, 0 to 2: an unwritten address is left out.
    let reply = call(&server, StorageRequest::CopyRange { epoch: 0, start: 0, count: 4 });
    let u64_le = |n: u8| [n, 0, 0, 0, 0, 0, 0, 0];
    let expected = [
        &[11][..],
        &u64_le(6),
        &u64_le(0),
        &u64_le(4),
        &[3],
        &u64_le(0),
        &[0, 2, b'a', b'b'],
        &u64_le(1),
        &[1],
        &u64_le(2),
        &[2],
    ]
    .concat();
    assert_eq!(reply, expected);
    assert_reencodes(&reply);
}
