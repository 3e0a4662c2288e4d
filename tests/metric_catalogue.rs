//! The catalogue (ROADMAP 9c): the instrument names a deployment registers
//! are exactly the names README documents, each with what it counts and
//! who reads it. An undocumented instrument fails; so does a documented one
//! that nothing registers any more.

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, StorageBackend, TcpCluster};
use corfu::{reconfig, ClientOptions, ReadOutcome};
use tango::{TangoRuntime, TxStatus};
use tango_metrics::Snapshot;
use tango_objects::TangoMap;
use tango_rpc::fetch_snapshot;

/// `name` without its `.logN` scope.
fn base_name(name: &str) -> &str {
    match name.rsplit_once(".log") {
        Some((base, n)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => base,
        _ => name,
    }
}

fn names_of(snapshot: &Snapshot, into: &mut BTreeSet<String>) {
    let counters = snapshot.counters.iter().map(|(n, _)| n);
    let gauges = snapshot.gauges.iter().map(|(n, _)| n);
    let histograms = snapshot.histograms.iter().map(|h| &h.name);
    into.extend(counters.chain(gauges).chain(histograms).map(|n| base_name(n).to_string()));
}

/// The first column of the README table between the two catalogue markers.
fn documented() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let table = readme
        .split("<!-- catalogue:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- catalogue:end -->").next())
        .expect("README.md has the catalogue markers");
    let names: Vec<String> = table
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next().map(str::to_string))
        .collect();
    let set: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(set.len(), names.len(), "a name is documented twice");
    set
}

#[test]
fn registered_instruments_are_the_documented_ones() {
    let root = std::env::temp_dir().join(format!("tango-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Two logs of one 2-replica chain each, on tiered storage, compacted by
    // hand so the pass below is the one that runs.
    let cluster = TcpCluster::spawn(ClusterConfig {
        num_logs: 2,
        num_sets: 1,
        replication: 2,
        storage: StorageBackend::Tiered {
            root: root.clone(),
            pages_per_segment: 4,
            hot_capacity: 2,
        },
        client_options: ClientOptions { hole_fill_timeout: Duration::from_millis(20) },
        ..ClusterConfig::default()
    })
    .unwrap();

    // Append, read, and a hole filled on the reader's deadline.
    let client = cluster.client().unwrap();
    let offset = client.append(Bytes::from_static(b"catalogue")).unwrap();
    assert!(matches!(client.read(offset).unwrap(), ReadOutcome::Data(_)));
    let hole = client.token(&[]).unwrap().offset;
    assert_eq!(client.wait_read(hole).unwrap(), ReadOutcome::Junk);

    // A committed and an aborted transaction, then checkpoint + trim and
    // one compaction pass (with scrub) on every storage node.
    let rt = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map: TangoMap<u64, u64> = TangoMap::open(&rt, "catalogue").unwrap();
    for i in 0..24 {
        map.put(&i, &i).unwrap();
    }
    assert_eq!(map.len().unwrap(), 24);
    rt.begin_tx().unwrap();
    let v = map.get(&1).unwrap().unwrap();
    map.put(&1, &(v + 1)).unwrap();
    assert_eq!(rt.end_tx().unwrap(), TxStatus::Committed);
    rt.begin_tx().unwrap();
    map.put(&2, &0).unwrap();
    rt.abort_tx().unwrap();
    assert!(rt.checkpoint_and_trim().unwrap() > 0);
    for id in 0..4 {
        cluster.storage_server(id).unwrap().compact_once(true);
    }

    // A storage replacement, a sequencer replacement and a stream remap.
    cluster.kill_storage_node(1);
    let (replacement, _) = cluster.spawn_replacement_storage().unwrap();
    reconfig::replace_storage_node(&client, 1, replacement).unwrap();
    cluster.kill_sequencer();
    let (sequencer, _) = cluster.spawn_replacement_sequencer().unwrap();
    reconfig::replace_sequencer(&client, sequencer, cluster.config().k_backpointers).unwrap();
    let stream = map.oid();
    let to_log = 1 - client.projection().log_of_stream(stream);
    reconfig::remap_stream(&client, stream, to_log).unwrap();
    map.put(&3, &3).unwrap();
    assert_eq!(map.get(&3).unwrap(), Some(3));

    // Every live node over the one request, plus the handle's registry.
    let mut registered = BTreeSet::new();
    for (name, addr) in cluster.scrape_targets() {
        let snapshot = fetch_snapshot(&addr, Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("{name} did not answer: {e}"));
        names_of(&snapshot, &mut registered);
    }
    names_of(&cluster.metrics().snapshot(), &mut registered);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&root);

    let documented = documented();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(undocumented.is_empty(), "registered, not in README's catalogue: {undocumented:?}");
    assert!(unregistered.is_empty(), "in README's catalogue, registered nowhere: {unregistered:?}");
}
