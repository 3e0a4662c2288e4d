//! What a chased page costs a storage node, in allocator calls: one
//! `ReadChase` of 256 pages, served through `RpcHandler::handle` as a TCP
//! node serves it, down a stream whose pages are mostly in segment files.
//! Counted with a counting allocator instead of a clock, so the check
//! repeats exactly. Its own test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use corfu::proto::{StorageRequest, StorageResponse, WriteKind};
use corfu::{EntryEnvelope, StorageServer, StreamHeader};
use tango_flash::{FlashUnit, TieredStore};
use tango_rpc::RpcHandler;
use tango_wire::{decode_from_slice, encode_to_vec};

thread_local! {
    /// How many times this thread asked the allocator while `COUNTING`.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn record() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Entries in the log: two streams taking turns, as `catchup_tcp` writes
/// them, and as many hot pages as it keeps.
const ENTRIES: u64 = 1_024;
const HOT: usize = 128;
const CHASED: usize = 256;

/// Allocator calls per page of a 256-page chase down one of two interleaved
/// streams on a tiered node (64 pages a segment, 128 hot), the request
/// decoded and the reply encoded: 1.44 (369 calls) while the node read in
/// waves of the four pages an entry names, each cold page copied into its
/// own `Bytes` and the reply into a buffer that grew as it was encoded; 0.03
/// (7 calls) now that it walks down through one readahead buffer and writes
/// each page into a reply sized from the request.
#[test]
fn a_chased_page_allocates_a_fixed_number_of_times() {
    let dir = std::env::temp_dir().join(format!("corfu-chase-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TieredStore::open(&dir, 4096, 64, HOT).unwrap();
    let node = StorageServer::new(FlashUnit::open(Box::new(store), 4096).unwrap());
    for offset in 0..ENTRIES {
        let stream = 1 + (offset % 2) as u32;
        let backpointers = (1..=4).filter_map(|k| offset.checked_sub(2 * k)).collect();
        let headers = vec![StreamHeader { stream, backpointers }];
        let payload = Bytes::from(offset.to_le_bytes().repeat(2));
        let page = EntryEnvelope { headers, payload, link: None }.encode(offset).unwrap();
        let write = StorageRequest::Write {
            epoch: 0,
            addr: offset,
            kind: WriteKind::Data,
            payload: page.into(),
        };
        assert_eq!(node.process(write), StorageResponse::Ok);
    }
    assert_eq!(node.compact_once(false).error, None);
    assert_eq!(node.tier_stats().hot_pages, HOT as u64);

    let chase = encode_to_vec(&StorageRequest::ReadChase {
        epoch: 0,
        addrs: vec![ENTRIES - 2],
        stream: 1,
        stripe: 1,
        floor: 0,
        limit: CHASED as u32,
    });
    // Once to warm the node's lazily made state, then counted.
    node.handle(&chase);
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let reply = node.handle(&chase);
    COUNTING.with(|on| on.set(false));
    match decode_from_slice(&reply).unwrap() {
        StorageResponse::Chased(pages) => assert_eq!(pages.len(), CHASED),
        other => panic!("expected Chased, got {other:?}"),
    }
    let per_page = CALLS.with(|c| c.get()) as f64 / CHASED as f64;
    println!("a {CHASED}-page chase: {per_page:.3} allocator calls per page");
    assert!(per_page <= 0.05, "a chased page cost {per_page:.3} allocator calls");
    std::fs::remove_dir_all(&dir).unwrap();
}
