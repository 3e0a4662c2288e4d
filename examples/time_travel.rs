//! History as a first-class property (§3.1, §3.2): point-in-time
//! snapshots, coordinated rollback across objects, checkpoints, and
//! garbage collection — all via simple operations on the shared log.
//!
//! Run with: `cargo run --example time_travel`

use corfu::cluster::{ClusterConfig, LocalCluster};
use tango::{RuntimeOptions, TangoRuntime};
use tango_objects::{TangoMap, TangoRegister};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = LocalCluster::new(ClusterConfig::default());
    let runtime = TangoRuntime::new(cluster.client()?)?;

    let config: TangoRegister<String> = TangoRegister::open(&runtime, "config")?;
    let users: TangoMap<String, u64> = TangoMap::open(&runtime, "users")?;

    // Epoch 1 of the application's life.
    config.write(&"v1".to_owned())?;
    users.put(&"alice".to_owned(), &1)?;
    users.put(&"bob".to_owned(), &2)?;
    config.read()?; // sync
    let snapshot_pos = runtime.position();
    println!("took a consistent snapshot at log position {snapshot_pos}");

    // Epoch 2: a cascading corruption event (oops).
    config.write(&"v2-broken".to_owned())?;
    users.put(&"alice".to_owned(), &999)?;
    users.remove(&"bob".to_owned())?;
    println!("current state: config={:?}, users={}", config.read()?, users.len()?);

    // Coordinated rollback: instantiate views of BOTH objects synced to
    // the same prefix of the shared log (§3.2) — a consistent system-wide
    // snapshot, like the paper's remote mirroring guarantee.
    let past_runtime = TangoRuntime::with_options(
        cluster.client()?,
        RuntimeOptions { play_limit: Some(snapshot_pos), ..RuntimeOptions::default() },
    )?;
    let past_config: TangoRegister<String> = TangoRegister::open(&past_runtime, "config")?;
    let past_users: TangoMap<String, u64> = TangoMap::open(&past_runtime, "users")?;
    println!(
        "time-travel view: config={:?}, alice={:?}, bob={:?}",
        past_config.read()?,
        past_users.get(&"alice".to_owned())?,
        past_users.get(&"bob".to_owned())?,
    );

    // Repair the live state from the snapshot.
    for (k, v) in past_users.snapshot()? {
        users.put(&k, &v)?;
    }
    config.write(&past_config.read()?.unwrap())?;
    println!("restored: config={:?}, users={}", config.read()?, users.len()?);

    // Checkpoints + forget: reclaim the log prefix (§3.1 "forget"). Each
    // checkpoint records in the directory what its object no longer needs.
    runtime.checkpoint(users.oid())?;
    runtime.checkpoint(config.oid())?;
    runtime.checkpoint(tango::DIRECTORY_OID)?;
    let horizon = runtime.compact()?;
    println!("compacted the shared log below offset {horizon}");

    // New clients bootstrap from checkpoints, not the (trimmed) history.
    let fresh = TangoRuntime::new(cluster.client()?)?;
    assert!(fresh.resolve("users")?.is_some(), "directory survived compaction");
    let fresh_users: TangoMap<String, u64> = TangoMap::open_from_checkpoint(&fresh, "users")?;
    println!("fresh client restored {} users from the checkpoint", fresh_users.len()?);
    Ok(())
}
