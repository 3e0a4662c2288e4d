//! End-to-end tests of the standard object library over an in-process
//! CORFU cluster.

use std::sync::Arc;

use corfu::cluster::{ClusterConfig, LocalCluster};
use tango::TangoRuntime;
use tango_objects::{
    TangoCounter, TangoList, TangoMap, TangoOffsetMap, TangoQueue, TangoRegister, TangoTreeMap,
    TangoTreeSet,
};

fn setup() -> (LocalCluster, Arc<TangoRuntime>) {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    (cluster, rt)
}

#[test]
fn register_read_write_cas() {
    let (_c, rt) = setup();
    let reg: TangoRegister<String> = TangoRegister::open(&rt, "reg").unwrap();
    assert_eq!(reg.read().unwrap(), None);
    reg.write(&"hello".to_owned()).unwrap();
    assert_eq!(reg.read().unwrap(), Some("hello".to_owned()));
    // CAS succeeds on match, fails on mismatch.
    assert!(reg.compare_and_swap(Some(&"hello".to_owned()), &"world".to_owned()).unwrap());
    assert!(!reg.compare_and_swap(Some(&"hello".to_owned()), &"nope".to_owned()).unwrap());
    assert_eq!(reg.read().unwrap(), Some("world".to_owned()));
}

#[test]
fn counter_add_and_fetch_add() {
    let (cluster, rt) = setup();
    let counter = TangoCounter::open(&rt, "ctr").unwrap();
    counter.add(5).unwrap();
    counter.add(-2).unwrap();
    assert_eq!(counter.get().unwrap(), 3);
    assert_eq!(counter.fetch_add(10).unwrap(), 3);
    assert_eq!(counter.get().unwrap(), 13);

    // A second client sees the same value.
    let rt2 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let counter2 = TangoCounter::open(&rt2, "ctr").unwrap();
    assert_eq!(counter2.get().unwrap(), 13);
}

#[test]
fn map_operations_and_visibility() {
    let (cluster, rt) = setup();
    let map: TangoMap<String, u64> = TangoMap::open(&rt, "map").unwrap();
    map.put(&"a".to_owned(), &1).unwrap();
    map.put(&"b".to_owned(), &2).unwrap();
    assert_eq!(map.get(&"a".to_owned()).unwrap(), Some(1));
    assert_eq!(map.len().unwrap(), 2);
    map.remove(&"a".to_owned()).unwrap();
    assert_eq!(map.get(&"a".to_owned()).unwrap(), None);
    assert!(map.contains_key(&"b".to_owned()).unwrap());

    let rt2 = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map2: TangoMap<String, u64> = TangoMap::open(&rt2, "map").unwrap();
    let mut snap = map2.snapshot().unwrap();
    snap.sort();
    assert_eq!(snap, vec![("b".to_owned(), 2)]);
    map.clear().unwrap();
    assert!(map2.is_empty().unwrap());
}

#[test]
fn treemap_range_queries() {
    let (_c, rt) = setup();
    let tree: TangoTreeMap<String, u64> = TangoTreeMap::open(&rt, "tree").unwrap();
    for (i, name) in ["apple", "banana", "blueberry", "cherry", "date"].iter().enumerate() {
        tree.put(&name.to_string(), &(i as u64)).unwrap();
    }
    // "list all files starting with the letter B" (§3.1).
    let b_names = tree.range("b".to_owned().."c".to_owned()).unwrap();
    assert_eq!(
        b_names.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        vec!["banana", "blueberry"]
    );
    assert_eq!(tree.first().unwrap().unwrap().0, "apple");
    assert_eq!(tree.last().unwrap().unwrap().0, "date");
    tree.remove(&"apple".to_owned()).unwrap();
    assert_eq!(tree.first().unwrap().unwrap().0, "banana");
}

#[test]
fn treeset_membership_and_order() {
    let (_c, rt) = setup();
    let set: TangoTreeSet<u64> = TangoTreeSet::open(&rt, "set").unwrap();
    for v in [30u64, 10, 20] {
        set.insert(&v).unwrap();
    }
    assert!(set.contains(&20).unwrap());
    assert_eq!(set.first().unwrap(), Some(10));
    assert_eq!(set.last().unwrap(), Some(30));
    assert_eq!(set.range(10..25).unwrap(), vec![10, 20]);
    set.remove(&10).unwrap();
    assert_eq!(set.first().unwrap(), Some(20));
    assert_eq!(set.len().unwrap(), 2);
}

#[test]
fn list_positional_ops() {
    let (_c, rt) = setup();
    let list: TangoList<String> = TangoList::open(&rt, "list").unwrap();
    list.push_back(&"b".to_owned()).unwrap();
    list.push_front(&"a".to_owned()).unwrap();
    list.push_back(&"d".to_owned()).unwrap();
    list.insert(2, &"c".to_owned()).unwrap();
    assert_eq!(list.snapshot().unwrap(), vec!["a", "b", "c", "d"]);
    assert_eq!(list.get(1).unwrap(), Some("b".to_owned()));
    assert_eq!(list.remove(1).unwrap(), Some("b".to_owned()));
    assert_eq!(list.len().unwrap(), 3);
    list.set(0, &"A".to_owned()).unwrap();
    assert_eq!(list.get(0).unwrap(), Some("A".to_owned()));
    assert_eq!(list.remove(99).unwrap(), None);
}

#[test]
fn queue_fifo_and_exclusive_dequeue() {
    let (cluster, rt) = setup();
    let queue: TangoQueue<u64> = TangoQueue::open(&rt, "queue").unwrap();
    for i in 0..10 {
        queue.enqueue(&i).unwrap();
    }
    assert_eq!(queue.peek().unwrap(), Some(0));
    assert_eq!(queue.len().unwrap(), 10);

    // Concurrent consumers: each item delivered exactly once.
    let mut handles = Vec::new();
    for _ in 0..3 {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let q: TangoQueue<u64> = TangoQueue::open(&rt, "queue").unwrap();
            let mut got = Vec::new();
            while let Some(v) = q.dequeue().unwrap() {
                got.push(v);
            }
            got
        }));
    }
    let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..10).collect::<Vec<u64>>());
    assert!(queue.is_empty().unwrap());
}

#[test]
fn offset_map_stores_offsets_not_values() {
    let (cluster, rt) = setup();
    let map: TangoOffsetMap<String, String> = TangoOffsetMap::open(&rt, "omap").unwrap();
    map.put(&"k1".to_owned(), &"value-one".to_owned()).unwrap();
    map.put(&"k2".to_owned(), &"value-two".to_owned()).unwrap();
    assert_eq!(map.get(&"k1".to_owned()).unwrap(), Some("value-one".to_owned()));
    assert_eq!(map.get(&"missing".to_owned()).unwrap(), None);
    // The view genuinely holds an offset pointer into the log.
    let off = map.offset_of(&"k2".to_owned()).unwrap().unwrap();
    assert!(matches!(cluster.client().unwrap().read(off).unwrap(), corfu::Page::Data(_)));
    // Overwrite moves the pointer forward.
    map.put(&"k2".to_owned(), &"value-two-b".to_owned()).unwrap();
    let off2 = map.offset_of(&"k2".to_owned()).unwrap().unwrap();
    assert!(off2 > off);
    assert_eq!(map.get(&"k2".to_owned()).unwrap(), Some("value-two-b".to_owned()));
    map.remove(&"k1".to_owned()).unwrap();
    assert_eq!(map.get(&"k1".to_owned()).unwrap(), None);
    assert_eq!(map.len().unwrap(), 1);
}

#[test]
fn cross_structure_transaction() {
    // The paper's headline API demo: "applications can transactionally
    // delete a TangoZK node while creating an entry in a TangoMap".
    let (_c, rt) = setup();
    let map: TangoMap<String, u64> = TangoMap::open(&rt, "meta-map").unwrap();
    let set: TangoTreeSet<u64> = TangoTreeSet::open(&rt, "free-set").unwrap();
    set.insert(&42).unwrap();
    map.len().unwrap(); // refresh views

    // Move 42 from the free set into the allocation map, atomically.
    rt.begin_tx().unwrap();
    set.remove(&42).unwrap();
    map.put(&"answer".to_owned(), &42).unwrap();
    assert!(rt.end_tx().unwrap().is_committed());

    assert!(!set.contains(&42).unwrap());
    assert_eq!(map.get(&"answer".to_owned()).unwrap(), Some(42));
}

#[test]
fn two_structures_same_data_different_shapes() {
    // §3.1: "objects with different in-memory data structures can share the
    // same data on the log" — here a hash map and a tree map are kept in
    // lockstep through a transaction, supporting both query shapes.
    let (_c, rt) = setup();
    let by_name: TangoTreeMap<String, u64> = TangoTreeMap::open(&rt, "by-name").unwrap();
    let by_id: TangoMap<u64, String> = TangoMap::open(&rt, "by-id").unwrap();
    for (id, name) in [(1u64, "alpha"), (2, "beta"), (3, "bravo")] {
        rt.begin_tx().unwrap();
        by_name.put(&name.to_owned(), &id).unwrap();
        by_id.put(&id, &name.to_owned()).unwrap();
        assert!(rt.end_tx().unwrap().is_committed());
    }
    // Ordered query on one shape, point query on the other.
    let b_entries = by_name.range("b".to_owned().."c".to_owned()).unwrap();
    assert_eq!(b_entries.len(), 2);
    assert_eq!(by_id.get(&1).unwrap(), Some("alpha".to_owned()));
}
