//! What a replayed entry costs a runtime, in allocator calls: a fresh
//! runtime opens one of two maps whose updates alternate in the log and
//! reads it — a cold walk of the stream, the decode of every entry and its
//! `apply` — and what dropping that runtime gives back. Counted with a
//! counting allocator instead of a clock, so the check repeats exactly. Its
//! own test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use corfu::cluster::{ClusterConfig, LocalCluster};
use tango::{ApplyMeta, ObjectOptions, ObjectView, StateMachine, TangoRuntime};

thread_local! {
    /// How many times this thread asked the allocator while `COUNTING`.
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
        record();
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

const PUTS: u64 = 1_024;

/// A map of `u64` to `u64` with room for every key it will be given, so
/// that its own `apply` asks the allocator for nothing. Update format:
/// key | value, little-endian.
struct Map(HashMap<u64, u64>);

impl Map {
    fn sized() -> Self {
        Self(HashMap::with_capacity(2 * PUTS as usize))
    }
}

impl StateMachine for Map {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        self.0.insert(word(0), word(8));
    }
}

fn put(map: &ObjectView<Map>, key: u64, value: u64) {
    map.update(Some(key), [key.to_le_bytes(), value.to_le_bytes()].concat()).unwrap();
}

/// Allocator calls per entry of a fresh runtime's first read of a map of
/// 1 024 puts, a second map's puts between them — the in-process nodes'
/// share of the walk's round trips included. 6.74 when every entry was
/// copied out of its reply as a page and every update out of its entry,
/// 4.71–4.76 while four of them were the cached entry itself (its headers,
/// their backpointers, its payload and the `Arc`); 0.77 now that a cached
/// entry is a handle on its reply and a range of it. Dropping the runtime
/// afterwards freed those four, 4.07 calls to free per update; now 0.08.
#[test]
fn a_replayed_update_allocates_a_fixed_number_of_times() {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let writer = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let open = |rt: &std::sync::Arc<TangoRuntime>, name: &str| {
        let oid = rt.create_or_open(name).unwrap();
        rt.register_object(oid, Map::sized(), ObjectOptions::default()).unwrap()
    };
    let (ours, theirs) = (open(&writer, "ours"), open(&writer, "theirs"));
    for i in 0..PUTS {
        put(&ours, i, i * i);
        put(&theirs, i, i + 1);
    }
    let written = ours.query(None, |map| map.0.clone()).unwrap();
    assert_eq!(written.len() as u64, PUTS);

    let reader = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let oid = reader.create_or_open("ours").unwrap();
    let map = Map::sized();
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let view = reader.register_object(oid, map, ObjectOptions::default());
    let replayed = view.as_ref().map(|view| view.query(None, |map| map.0.len()));
    COUNTING.with(|on| on.set(false));
    assert_eq!(replayed.unwrap().unwrap() as u64, PUTS);
    let per_entry = CALLS.with(|c| c.get()) as f64 / PUTS as f64;
    println!("open + first read: {per_entry:.2} allocator calls per replayed update");
    assert!(per_entry <= 0.95, "a replayed update cost {per_entry:.2} allocator calls");
    let view = view.unwrap();
    assert_eq!(view.query(None, |map| map.0.clone()).unwrap(), written);

    FREES.with(|f| f.set(0));
    COUNTING.with(|on| on.set(true));
    drop((view, reader));
    COUNTING.with(|on| on.set(false));
    let per_entry = FREES.with(|f| f.get()) as f64 / PUTS as f64;
    println!("dropping the runtime: {per_entry:.3} calls to free per replayed update");
    assert!(per_entry <= 0.15, "dropping a replayed update cost {per_entry:.3} calls to free");
}
