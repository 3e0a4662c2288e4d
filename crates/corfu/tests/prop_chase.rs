//! A storage node's `ReadChase` against a model, on a tiered node: random
//! interleaved streams over a log striped across 1–3 replica sets, whose
//! pages are hot or in segment files of 4–64 pages, junk fills, holes, trims
//! and records rotted on disk; random asked pages, floors, limits (0 and past
//! `MAX_READ_BATCH` among them) and page sizes (so the byte cap bites too).
//!
//! The model knows nothing of the walk's order or its buffer: the pages a
//! chase can reach are those the asked ones lead to through readable pages
//! of the stream, and the reply holds them newest first, up to the limit and
//! the cap. The reply's bytes must be what `encode_to_vec` makes of that
//! answer, and the node must count one read per page it walked.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
use corfu::{EntryEnvelope, StorageServer, StreamHeader, CHASE_REPLY_BYTES, MAX_READ_BATCH};
use proptest::prelude::*;
use proptest::TestRng;
use tango_flash::{FlashUnit, TieredStore};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec};

/// What one raw offset of the log became.
#[derive(Debug, Clone)]
enum Granted {
    /// An entry of these streams (bit `s` for stream `s + 1`).
    Entry(u8, usize),
    /// Granted and never written.
    Lost,
    /// Granted, never written, filled.
    Filled,
}

#[derive(Debug, Clone)]
struct Case {
    page_size: usize,
    stripe: u64,
    per_segment: u64,
    hot: usize,
    log: Vec<Granted>,
    /// Local addresses trimmed one by one, and the prefix trimmed.
    trims: Vec<u64>,
    horizon: u64,
    /// Local addresses whose record is rotted, if they are in a file.
    rot: Vec<u64>,
    asked: Vec<u64>,
    stream: u32,
    floor: u64,
    limit: u32,
}

/// Draws cases; it is a `Strategy` of its own because one draw bounds the
/// next (the addresses drawn depend on how long the log is).
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn sample(&self, rng: &mut TestRng) -> Case {
        let mut pick = |from: &[u64]| from[rng.below(from.len() as u64) as usize];
        let page_size = pick(&[256, 4096, 65536]) as usize;
        let hot = pick(&[0, 2, 16, 64]) as usize;
        let stripe = 1 + rng.below(3);
        let per_segment = 4 + rng.below(61);
        let log: Vec<Granted> = (0..1 + rng.below(300))
            .map(|_| match rng.below(14) {
                0 => Granted::Lost,
                1 => Granted::Filled,
                _ => {
                    let len = if rng.below(2) == 0 { rng.below(32) } else { rng.below(3000) };
                    Granted::Entry(1 + rng.below(7) as u8, len as usize)
                }
            })
            .collect();
        let local = (log.len() as u64).div_ceil(stripe);
        let mut addrs = |most: u64| -> Vec<u64> {
            let mut seen = BTreeSet::new();
            (0..rng.below(most + 1))
                .map(|_| rng.below(local + 2))
                .filter(|a| seen.insert(*a))
                .collect()
        };
        let (trims, rot) = (addrs(8), addrs(6));
        // A walk from near the top of the log, most of the time.
        let mut asked = addrs(6);
        if asked.is_empty() || rng.below(2) == 0 {
            let top = local.saturating_sub(1 + rng.below(4));
            asked.retain(|&a| a != top);
            asked.insert(0, top);
        }
        let horizon = if rng.below(4) == 0 { rng.below(local + 1) } else { 0 };
        let limit = match rng.below(6) {
            0 => 0,
            1 => 1 + rng.below(7),
            2 => 8 + rng.below(292),
            3 => MAX_READ_BATCH as u64,
            4 => MAX_READ_BATCH as u64 + 1,
            _ => u32::MAX as u64,
        } as u32;
        let floor = if rng.below(2) == 0 { 0 } else { rng.below(local + 1) };
        let stream = 1 + rng.below(3) as u32;
        Case {
            page_size,
            stripe,
            per_segment,
            hot,
            log,
            trims,
            horizon,
            rot,
            asked,
            stream,
            floor,
            limit,
        }
    }
}

/// What a local address of the node holds, as the model sees it.
#[derive(Debug, Clone, PartialEq)]
enum Page {
    /// An entry: its bytes, the streams it leads down (stream, local
    /// addresses), and whether its record is rotted.
    Data(Vec<u8>, Vec<(u32, Vec<u64>)>, bool),
    Junk,
    Unwritten,
    Trimmed,
}

/// Builds the node the case describes in `dir`, and the model of its pages.
fn build(case: &Case, dir: &Path) -> (StorageServer, HashMap<u64, Page>) {
    let store = TieredStore::open(dir, case.page_size, case.per_segment, case.hot).unwrap();
    let node = StorageServer::new(FlashUnit::open(Box::new(store), case.page_size).unwrap());
    let mut issued: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut pages = HashMap::new();
    let stripe = case.stripe;
    for (raw, granted) in (0u64..).zip(&case.log) {
        let streams: Vec<u32> = match granted {
            Granted::Entry(bits, _) => {
                (0..3).filter(|s| bits >> s & 1 == 1).map(|s| s + 1).collect()
            }
            _ => Vec::new(),
        };
        if raw % stripe == 0 {
            let local = raw / stripe;
            let page = match granted {
                Granted::Entry(_, len) => {
                    let headers: Vec<StreamHeader> = (streams.iter())
                        .map(|&stream| StreamHeader {
                            stream,
                            backpointers: issued.get(&stream).cloned().unwrap_or_default(),
                        })
                        .collect();
                    let leads = (headers.iter())
                        .map(|h| {
                            let steps = h.backpointers.iter().map(|&b| raw - b);
                            let local_steps = steps.filter(|d| d % stripe == 0).map(|d| d / stripe);
                            (h.stream, local_steps.map(|step| local - step).collect())
                        })
                        .collect();
                    // The payload names its offset, so a record is found on
                    // disk by its bytes.
                    let len = (*len).min(case.page_size - 64).max(8);
                    let mut payload = raw.to_le_bytes().to_vec();
                    payload.resize(len, raw as u8);
                    let envelope = EntryEnvelope { headers, payload: payload.into(), link: None };
                    let bytes = envelope.encode(raw).unwrap();
                    write(&node, local, WriteKind::Data, bytes.clone());
                    Page::Data(bytes, leads, false)
                }
                Granted::Lost => Page::Unwritten,
                Granted::Filled => {
                    write(&node, local, WriteKind::Junk, Vec::new());
                    Page::Junk
                }
            };
            pages.insert(local, page);
        }
        for stream in streams {
            let backpointers = issued.entry(stream).or_default();
            backpointers.insert(0, raw);
            backpointers.truncate(4);
        }
    }
    for &addr in &case.trims {
        let trim = StorageRequest::Trim { epoch: 0, addr };
        assert_eq!(node.process(trim), StorageResponse::Ok);
        pages.insert(addr, Page::Trimmed);
    }
    let horizon = StorageRequest::TrimPrefix { epoch: 0, horizon: case.horizon };
    assert_eq!(node.process(horizon), StorageResponse::Ok);
    pages.retain(|&addr, _| addr >= case.horizon);
    // Migrate all but the hot capacity's worth into segment files.
    assert_eq!(node.compact_once(false).error, None);
    for &addr in &case.rot {
        if let Some(Page::Data(bytes, _, rotted)) = pages.get_mut(&addr) {
            *rotted |= rot(dir, addr / case.per_segment, bytes);
        }
    }
    (node, pages)
}

fn write(node: &StorageServer, addr: u64, kind: WriteKind, payload: Vec<u8>) {
    let write = StorageRequest::Write { epoch: 0, addr, kind, payload: Bytes::from(payload) };
    assert_eq!(node.process(write), StorageResponse::Ok);
}

/// Flips the last byte of the record holding `page` in segment `seg`, if the
/// page is in a file: whether it was.
fn rot(dir: &Path, seg: u64, page: &[u8]) -> bool {
    use std::os::unix::fs::FileExt;
    let path = dir.join(format!("seg-{seg}.dat"));
    let Ok(bytes) = std::fs::read(&path) else { return false };
    let Some(at) = bytes.windows(page.len()).position(|w| w == page) else { return false };
    let last = at + page.len() - 1;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all_at(&[!bytes[last]], last as u64).unwrap();
    true
}

/// A `Chased` reply's pages.
type Chased = Vec<(u64, corfu::Page<Bytes>)>;

/// The model's answer: the reply, or that the request fails; and the pages
/// the node reads to give it.
fn model(case: &Case, pages: &HashMap<u64, Page>) -> (Option<Chased>, u64) {
    let at = |addr: u64| {
        pages.get(&addr).cloned().unwrap_or(if addr < case.horizon {
            Page::Trimmed
        } else {
            Page::Unwritten
        })
    };
    let outcome = |page: &Page| match page {
        Page::Data(bytes, _, _) => corfu::Page::Data(Bytes::copy_from_slice(bytes)),
        Page::Junk => corfu::Page::Junk,
        Page::Unwritten => corfu::Page::Unwritten,
        Page::Trimmed => corfu::Page::Trimmed,
    };
    // A readable page of the stream leads to its predecessors at or above
    // the floor.
    let leads = |page: &Page| -> Vec<u64> {
        match page {
            Page::Data(_, leads, false) => (leads.iter())
                .filter(|(stream, _)| *stream == case.stream)
                .flat_map(|(_, to)| to.iter().copied())
                .filter(|&to| to >= case.floor)
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut reply = Vec::new();
    for (n, &addr) in (1..).zip(&case.asked) {
        match at(addr) {
            Page::Data(_, _, true) => return (None, n),
            page => reply.push((addr, outcome(&page))),
        }
    }
    // Everything the asked pages reach through readable pages, asked ones
    // aside.
    let mut reach: Vec<u64> = case.asked.iter().flat_map(|&a| leads(&at(a))).collect();
    let mut reached = BTreeSet::new();
    while let Some(addr) = reach.pop() {
        if !case.asked.contains(&addr) && reached.insert(addr) {
            reach.extend(leads(&at(addr)));
        }
    }
    let limit = (case.limit as usize).min(MAX_READ_BATCH);
    let mut data: usize =
        (reply.iter()).map(|(_, o)| if let corfu::Page::Data(b) = o { b.len() } else { 0 }).sum();
    let mut reads = case.asked.len() as u64;
    for addr in reached.into_iter().rev() {
        if reply.len() >= limit || data + case.page_size > CHASE_REPLY_BYTES {
            break;
        }
        reads += 1;
        match at(addr) {
            // Unreadable, and nobody asked: left out.
            Page::Data(_, _, true) => {}
            page => {
                if let Page::Data(bytes, ..) = &page {
                    data += bytes.len();
                }
                reply.push((addr, outcome(&page)));
            }
        }
    }
    (Some(reply), reads)
}

fn fresh_dir() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("corfu-prop-chase-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_chase_replies_what_the_model_reaches(case in Cases) {
        let dir = fresh_dir();
        let (node, pages) = build(&case, &dir);
        let (want, walked) = model(&case, &pages);
        let request = StorageRequest::ReadChase {
            epoch: 0,
            addrs: case.asked.clone(),
            stream: case.stream,
            stripe: case.stripe as u32,
            floor: case.floor,
            limit: case.limit,
        };
        let before = node.stats().reads;
        let bytes = node.handle(&encode_to_vec(&request));
        prop_assert_eq!(node.stats().reads - before, walked);
        let decoded: StorageResponse = decode_from_slice(&bytes).unwrap();
        match want {
            Some(want) => {
                let want = StorageResponse::Chased(want);
                prop_assert_eq!(&decoded, &want);
                prop_assert!(bytes == encode_to_vec(&want), "the reply's bytes");
            }
            None => prop_assert!(matches!(decoded, StorageResponse::ErrStorage(_)), "{decoded:?}"),
        }
        // The unit tests' entry point runs the same walk.
        prop_assert_eq!(node.process(request), decoded);
        drop(node);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
