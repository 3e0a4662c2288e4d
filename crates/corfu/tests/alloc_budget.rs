//! An append pays for its payload once per side and for its layout never.
//! Counted with an allocator instead of a clock, so the check repeats
//! exactly: a 512 B append on an in-process 2×2 cluster (client, sequencer
//! and both replicas all run on the calling thread) and a `read` of the
//! entry it wrote. Its own test binary: the allocator is process-wide, the
//! counters are per thread so the harness's other threads do not count.
//!
//! Median allocator calls per operation, 64 operations after warm-up
//! (ROADMAP item 2 estimated "~64 allocations per append"):
//!
//! | operation      | parent (PR 14) | here | of them ≥ 512 B, parent → here |
//! |----------------|----------------|------|--------------------------------|
//! | 512 B `append` | 63             | 15   | 9 → 3                          |
//! | `read` of it   | 17             | 4    | 2 → 2                          |
//!
//! The three large allocations of an append are the ones the protocol
//! needs: the client's one encoded chain-write request, and one page per
//! replica. A deep copy of the layout (two `Vec`s per log, a `String` per
//! node) or a request encoded once per hop cannot fit under either budget.
//! Medians, because now and then an append also grows a table: one in 1 024
//! allocates a slot-table chunk on each replica of its set.
//!
//! Under the append, a page write into a unit's dense address space is the
//! payload copy and 1/1 024 of a chunk: ≤ 1.01 allocator calls on average,
//! where a page map that splits a tree node every few inserts made 1.17.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::ReadOutcome;
use tango_flash::FlashUnit;

const PAYLOAD_LEN: usize = 512;

thread_local! {
    /// (allocator calls, calls asking for at least `PAYLOAD_LEN` bytes) on
    /// this thread while `COUNTING`.
    static CALLS: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
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
            let _ = CALLS.try_with(|c| {
                let (all, large) = c.get();
                c.set((all + 1, large + u32::from(bytes >= PAYLOAD_LEN)));
            });
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `op` and returns its result with this thread's allocator calls.
fn counted<T>(op: impl FnOnce() -> T) -> (T, (u32, u32)) {
    CALLS.with(|c| c.set((0, 0)));
    COUNTING.with(|on| on.set(true));
    let out = op();
    COUNTING.with(|on| on.set(false));
    (out, CALLS.with(Cell::get))
}

fn median(mut counts: Vec<u32>) -> u32 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn append_and_read_stay_within_their_allocation_budgets() {
    const STREAM: u32 = 1;
    const OPS: usize = 64;
    let cluster = LocalCluster::new(ClusterConfig {
        num_sets: 2,
        replication: 2,
        ..ClusterConfig::default()
    });
    let client = cluster.client().unwrap();
    let payload = |i: usize| Bytes::from(vec![i as u8; PAYLOAD_LEN]);
    // Warm-up: connections dialled, per-log instruments bound, the stream
    // has its K backpointers.
    for i in 0..16 {
        let (off, _) = client.append_streams(&[STREAM], payload(i)).unwrap();
        client.read(off).unwrap();
    }

    let (mut append_all, mut append_large) = (Vec::new(), Vec::new());
    let (mut read_all, mut read_large) = (Vec::new(), Vec::new());
    for i in 0..OPS {
        // The caller's own buffer is not the append's cost.
        let data = payload(i);
        let (appended, (all, large)) = counted(|| client.append_streams(&[STREAM], data));
        let (off, envelope) = appended.unwrap();
        append_all.push(all);
        append_large.push(large);

        let (read, (all, large)) = counted(|| client.read(off));
        read_all.push(all);
        read_large.push(large);
        match read.unwrap() {
            ReadOutcome::Data(stored) => assert_eq!(stored, envelope.encode(off).unwrap()),
            other => panic!("offset {off} read back {other:?}"),
        }
    }

    let (append_all, append_large) = (median(append_all), median(append_large));
    let (read_all, read_large) = (median(read_all), median(read_large));
    println!("append: {append_all} allocations, {append_large} of them >= {PAYLOAD_LEN} B");
    println!("read:   {read_all} allocations, {read_large} of them >= {PAYLOAD_LEN} B");
    // Half the parent's 63 and 17.
    assert!(append_all <= 31, "an append made {append_all} allocations");
    assert!(read_all <= 8, "a read made {read_all} allocations");
    // One client encode and one page per replica; one server encode and
    // one client decode.
    assert!(append_large <= 3, "an append made {append_large} payload-sized allocations");
    assert!(read_large <= 3, "a read made {read_large} payload-sized allocations");
}

#[test]
fn a_page_write_allocates_its_payload_and_little_else() {
    const HELD: u64 = 100_000;
    const WRITES: u64 = 10_000;
    let mut unit = FlashUnit::in_memory(4096);
    let page = [7u8; PAYLOAD_LEN];
    for addr in 0..HELD {
        unit.write(addr, &page).unwrap();
    }
    let ((), (all, large)) =
        counted(|| (HELD..HELD + WRITES).for_each(|addr| unit.write(addr, &page).unwrap()));
    let per_write = f64::from(all) / WRITES as f64;
    println!("page write: {per_write:.4} allocations, {large} of {all} >= {PAYLOAD_LEN} B");
    assert!(per_write <= 1.01, "a page write made {per_write} allocations");
}
