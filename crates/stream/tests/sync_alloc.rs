//! A sync pays for what it discovers, not for what the stream holds: the
//! bytes one `StreamClient::sync` allocates while discovering a single new
//! entry must not grow with the number of entries already known. Measured
//! with a counting allocator instead of a clock, so the check repeats
//! exactly. A cold replay is counted the same way, in allocator calls per
//! entry, and so is dropping the reader afterwards, in calls to free. Its
//! own test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu_stream::StreamClient;

thread_local! {
    /// Bytes this thread asked the allocator for while `COUNTING`.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// How many times it asked.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// How many times it gave memory back.
    static FREES: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = FREES.try_with(|f| f.set(f.get() + 1));
            }
        });
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn record(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread by one `sync` that discovers exactly one
/// entry, on a reader that already knows (and has consumed) `known` entries.
/// The cluster is in-process, so the sequencer's and storage node's share of
/// the round trips is counted too — and is the same at every `known`.
fn sync_bytes_discovering_one(known: usize) -> u64 {
    const STREAM: u32 = 7;
    let cluster = LocalCluster::new(ClusterConfig::tiny());
    let writer = StreamClient::new(cluster.client().unwrap());
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(STREAM);
    let payload = Bytes::from_static(b"entry");
    for _ in 0..known {
        writer.multiappend(&[STREAM], payload.clone()).unwrap();
    }
    reader.sync(&[STREAM]).unwrap();
    let mut drained = 0;
    while reader.readnext(STREAM).unwrap().is_some() {
        drained += 1;
    }
    assert_eq!(drained, known);
    // One warm-up discovery so one-time growth (the cursor's `Vec` doubling,
    // lazily bound metrics) is not billed to the measured sync.
    let mut bytes = 0;
    for _ in 0..2 {
        let off = writer.multiappend(&[STREAM], payload.clone()).unwrap();
        ALLOCATED.with(|a| a.set(0));
        COUNTING.with(|on| on.set(true));
        let synced = reader.sync(&[STREAM]);
        COUNTING.with(|on| on.set(false));
        bytes = ALLOCATED.with(|a| a.get());
        synced.unwrap();
        assert_eq!(reader.readnext(STREAM).unwrap().map(|(o, _)| o), Some(off));
        assert!(reader.readnext(STREAM).unwrap().is_none());
    }
    bytes
}

#[test]
fn sync_allocation_does_not_grow_with_the_stream() {
    let small = sync_bytes_discovering_one(100);
    let large = sync_bytes_discovering_one(10_000);
    assert!(small > 0, "the counting allocator saw nothing");
    assert!(
        large <= 2 * small,
        "one-entry sync allocated {small} B at 100 known entries, {large} B at 10 000"
    );
}

/// Allocator calls per entry of a cold reader's `sync` and drain of a
/// 1 024-entry stream — the in-process storage nodes' share of the walk's
/// round trips included. 6.64 with 32-entry replies and a header cloned per
/// stride (PR 20), 5.69 with every page copied out of its reply before it
/// was decoded (PR 21), 4.66–4.69 while four of them were the decoded entry
/// itself (its `headers`, their `backpointers`, its `payload` and the `Arc`
/// the cache and the reader shared); 0.70 now that a cached entry is a
/// handle on the reply it arrived in and a range of it. Dropping the reader
/// afterwards gave those four back, 4.03 calls to free per entry; now it
/// frees each reply once, 0.04.
#[test]
fn a_cold_replay_allocates_a_fixed_number_of_times_per_entry() {
    const STREAM: u32 = 7;
    const ENTRIES: u64 = 1_024;
    let cluster = LocalCluster::new(ClusterConfig::tiny());
    let writer = StreamClient::new(cluster.client().unwrap());
    for _ in 0..ENTRIES {
        writer.multiappend(&[STREAM], Bytes::from_static(b"entry")).unwrap();
    }
    let reader = StreamClient::new(cluster.client().unwrap());
    reader.open(STREAM);
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let synced = reader.sync(&[STREAM]);
    let mut drained = 0;
    while let Ok(Some(_)) = reader.readnext(STREAM) {
        drained += 1;
    }
    COUNTING.with(|on| on.set(false));
    synced.unwrap();
    assert_eq!(drained, ENTRIES);
    let per_entry = CALLS.with(|c| c.get()) as f64 / ENTRIES as f64;
    println!("cold sync + drain: {per_entry:.2} allocator calls per entry");
    assert!(per_entry <= 0.85, "a replayed entry cost {per_entry:.2} allocator calls");

    FREES.with(|f| f.set(0));
    COUNTING.with(|on| on.set(true));
    drop(reader);
    COUNTING.with(|on| on.set(false));
    let per_entry = FREES.with(|f| f.get()) as f64 / ENTRIES as f64;
    println!("dropping the reader: {per_entry:.3} calls to free per entry");
    assert!(per_entry <= 0.1, "dropping a replayed entry cost {per_entry:.3} calls to free");
}
