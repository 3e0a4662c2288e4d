//! Consistent remote mirroring (§3.2): "application state can be
//! asynchronously mirrored to remote data centers by having a process at
//! the remote site play the log and copy its contents. Since log order is
//! maintained, the mirror is guaranteed to represent a consistent,
//! system-wide snapshot of the primary at some point in the past."
//!
//! A mirror daemon replays the primary log's entries, in order, into a
//! second CORFU cluster; Tango views opened against the mirror reconstruct
//! a consistent snapshot — across *all* objects at once.
//!
//! Run with: `cargo run --example remote_mirror`

use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::Page;
use tango::{TangoRuntime, TxStatus};
use tango_objects::{TangoCounter, TangoMap};

/// Replays primary entries `[from, tail)` into the mirror, preserving
/// order and stream membership. Returns the offset to resume from.
fn mirror_once(primary: &corfu::CorfuClient, mirror: &corfu::CorfuClient, from: u64) -> u64 {
    let tail = primary.check_tail_fast().unwrap();
    for off in from..tail {
        match primary.wait_read(off).unwrap() {
            Page::Data(bytes) => {
                let entry = corfu::EntryEnvelope::decode(&bytes, off).unwrap();
                let streams: Vec<u32> = entry.headers.iter().map(|h| h.stream).collect();
                mirror.append_streams(&streams, entry.payload).unwrap();
            }
            // Junk (patched holes) carries no state; mirror it as junk so
            // offsets stay aligned (not required for correctness, since
            // streams re-link via backpointers, but keeps the logs
            // comparable).
            Page::Junk | Page::Trimmed | Page::Unwritten => {
                let token = mirror.token(&[]).unwrap();
                let _ = mirror.fill(token.offset);
            }
        }
    }
    tail
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let primary_cluster = LocalCluster::new(ClusterConfig::default());
    let mirror_cluster = LocalCluster::new(ClusterConfig::default());

    // The primary application: an inventory map and an order counter,
    // updated transactionally so their states are always consistent.
    let rt = TangoRuntime::new(primary_cluster.client()?)?;
    let inventory: TangoMap<String, u64> = TangoMap::open(&rt, "inventory")?;
    let orders = TangoCounter::open(&rt, "orders")?;
    inventory.put(&"widgets".to_owned(), &100)?;
    for _ in 0..7 {
        inventory.len()?; // refresh
        rt.begin_tx()?;
        let w = inventory.get(&"widgets".to_owned())?.unwrap();
        inventory.put(&"widgets".to_owned(), &(w - 1))?;
        orders.add(1)?;
        assert_eq!(rt.end_tx()?, TxStatus::Committed);
    }
    println!(
        "primary: widgets = {:?}, orders = {}",
        inventory.get(&"widgets".to_owned())?,
        orders.get()?
    );

    // The mirror daemon replays the log into the remote cluster.
    let primary_log = primary_cluster.client()?;
    let mirror_log = mirror_cluster.client()?;
    let copied = mirror_once(&primary_log, &mirror_log, 0);
    println!("mirror daemon copied {copied} log entries to the remote site");

    // Disaster strikes the primary; the remote site opens views against
    // its own log and sees a consistent system-wide snapshot.
    let remote_rt = TangoRuntime::new(mirror_cluster.client()?)?;
    let remote_inventory: TangoMap<String, u64> = TangoMap::open(&remote_rt, "inventory")?;
    let remote_orders = TangoCounter::open(&remote_rt, "orders")?;
    let widgets = remote_inventory.get(&"widgets".to_owned())?.unwrap();
    let order_count = remote_orders.get()? as u64;
    println!("mirror: widgets = {widgets}, orders = {order_count}");
    // The invariant (widgets sold == orders taken) holds at the mirror:
    // the shared log's total order is what makes the cross-object snapshot
    // consistent.
    assert_eq!(widgets + order_count, 100, "mirror snapshot must be consistent");
    println!("cross-object invariant holds at the remote site");
    Ok(())
}
