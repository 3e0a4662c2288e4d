//! A cached entry is a handle on the reply it arrived in, so the cache
//! decides how long replies live: once no entry of a reply is cached (or
//! held by a reader), its buffer must be freed, whichever way the entries
//! left — FIFO eviction at the cache's capacity, or `evict_below` after
//! `StreamClient::forget_below`. Measured as the bytes live on this thread,
//! with a counting allocator; the in-process cluster serves every call on
//! the caller's thread, so the replies are allocated and freed here. Its
//! own test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::{Entry, EntryEnvelope, StreamHeader};
use corfu_stream::{EntryCache, StreamClient};

thread_local! {
    /// Bytes allocated and not yet freed on this thread (freed minus
    /// allocated, when negative).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn record(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.with(|live| live.get())
}

const PAGE_PAYLOAD: usize = 1_024;

/// One reply's worth of `pages` encoded entries of stream 1, at offsets
/// `first..`, back to back in one buffer — with each page's place in it.
fn reply(first: u64, pages: usize, payload: usize) -> (Bytes, Vec<(u64, std::ops::Range<usize>)>) {
    let mut buf = Vec::new();
    let mut at = Vec::new();
    for off in first..first + pages as u64 {
        let header = StreamHeader { stream: 1, backpointers: vec![off.wrapping_sub(1)] };
        let envelope =
            EntryEnvelope { headers: vec![header], payload: vec![7; payload].into(), link: None };
        let page = envelope.encode(off).unwrap();
        at.push((off, buf.len()..buf.len() + page.len()));
        buf.extend_from_slice(&page);
    }
    (Bytes::from(buf), at)
}

fn cache_reply(cache: &mut EntryCache, first: u64, pages: usize, payload: usize) {
    let (reply, at) = reply(first, pages, payload);
    for (off, range) in at {
        cache.insert(off, Entry::in_reply(&reply, &reply[range], off).unwrap());
    }
}

/// FIFO eviction: a reply's entries pushed out of a full cache by later
/// ones take the reply's buffer with them — the last one to go frees it.
#[test]
fn a_reply_is_freed_when_fifo_eviction_takes_its_last_entry() {
    const CAPACITY: usize = 64;
    let mut cache = EntryCache::new(CAPACITY);
    // Grow the cache's own tables to capacity first, so what they take is
    // not billed to the replies.
    cache_reply(&mut cache, 1_000_000, CAPACITY, 1);
    cache_reply(&mut cache, 2_000_000, CAPACITY, 1);
    // The small replies come and go by a kilobyte or two; the big one is
    // 32 KiB of pages.
    let (big, small) = (32 * PAGE_PAYLOAD as i64, 8 * 1_024);
    let before = live();
    cache_reply(&mut cache, 10, 32, PAGE_PAYLOAD);
    let cached = live() - before;
    assert!(cached >= big, "32 cached pages hold {cached} B");
    // Half the cache's worth of small entries: the big reply's entries are
    // still the newest half, so all of its buffer stays.
    cache_reply(&mut cache, 3_000_000, CAPACITY / 2, 1);
    assert!(cache.get(10).is_some() && cache.get(41).is_some());
    assert!(live() - before >= big, "a reply was freed while entries of it were cached");
    // All but one of them gone: the reply stays for its last entry.
    cache_reply(&mut cache, 4_000_000, 31, 1);
    assert!(cache.get(40).is_none() && cache.get(41).is_some());
    assert!(live() - before >= big, "a reply was freed while an entry of it was cached");
    // The last one gone: the buffer goes with it.
    cache_reply(&mut cache, 5_000_000, 1, 1);
    assert!(cache.get(41).is_none());
    let left = live() - before;
    assert!(
        left < small,
        "{left} B still live after every entry of a {cached} B reply was evicted"
    );
}

/// `forget_below`: a reader that drops its cached prefix after a trim
/// frees the replies it was read from, and an entry it still holds keeps
/// exactly its own reply alive.
#[test]
fn forgotten_entries_free_their_replies() {
    const STREAM: u32 = 1;
    const ENTRIES: usize = 128;
    let cluster = LocalCluster::new(ClusterConfig::tiny());
    let writer = StreamClient::new(cluster.client().unwrap());
    for _ in 0..ENTRIES {
        writer.multiappend(&[STREAM], Bytes::from(vec![7; PAGE_PAYLOAD])).unwrap();
    }
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(STREAM);
    // One warm-up round trip, so the reader's lazily made tables and
    // metrics are not billed to the replies.
    reader.read_at(0).unwrap();
    let before = live();
    let tail = reader.sync(&[STREAM]).unwrap();
    let mut kept = None;
    while let Some((_, entry)) = reader.readnext(STREAM).unwrap() {
        kept = Some(entry);
    }
    let cached = live() - before;
    assert!(cached >= (ENTRIES * PAGE_PAYLOAD) as i64, "{ENTRIES} cached pages hold {cached} B");
    reader.forget_below(STREAM, tail);
    assert_eq!(reader.read_many_at(&[]).unwrap().len(), 0);
    let held = live() - before;
    let kept = kept.expect("the stream has entries");
    assert_eq!(kept.payload().len(), PAGE_PAYLOAD);
    // The entry still held pins its own reply — one chase reply holds at
    // most 128 KiB of pages — and nothing else.
    assert!(held < 160 * 1_024, "{held} B live of {cached} B after the cache forgot them all");
    drop(kept);
    let left = live() - before;
    assert!(left < 32 * 1_024, "{left} B live of {cached} B after every entry was dropped");
}
