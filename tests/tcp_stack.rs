//! The full stack over real TCP sockets on localhost: CORFU servers,
//! stream layer, Tango runtime, objects, transactions.

use corfu::cluster::{ClusterConfig, TcpCluster};
use tango::{TangoRuntime, TxStatus};
use tango_objects::{TangoMap, TangoRegister};

#[test]
fn tango_over_tcp_sockets() {
    let config = ClusterConfig { num_sets: 2, replication: 2, ..ClusterConfig::default() };
    let cluster = TcpCluster::spawn(config).unwrap();

    let rt_a = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let rt_b = TangoRuntime::new(cluster.client().unwrap()).unwrap();

    let reg_a: TangoRegister<u64> = TangoRegister::open(&rt_a, "tcp-reg").unwrap();
    let reg_b: TangoRegister<u64> = TangoRegister::open(&rt_b, "tcp-reg").unwrap();
    reg_a.write(&42).unwrap();
    assert_eq!(reg_b.read().unwrap(), Some(42));

    let map_a: TangoMap<String, u64> = TangoMap::open(&rt_a, "tcp-map").unwrap();
    let map_b: TangoMap<String, u64> = TangoMap::open(&rt_b, "tcp-map").unwrap();
    for i in 0..20u64 {
        map_a.put(&format!("key-{i}"), &i).unwrap();
    }
    assert_eq!(map_b.len().unwrap(), 20);

    // A cross-object transaction across the wire.
    map_a.len().unwrap();
    rt_a.begin_tx().unwrap();
    let v = map_a.get(&"key-3".to_owned()).unwrap().unwrap();
    map_a.put(&"key-3".to_owned(), &(v * 100)).unwrap();
    reg_a.write(&v).unwrap();
    assert_eq!(rt_a.end_tx().unwrap(), TxStatus::Committed);
    assert_eq!(map_b.get(&"key-3".to_owned()).unwrap(), Some(300));
    assert_eq!(reg_b.read().unwrap(), Some(3));
}

#[test]
fn concurrent_clients_over_tcp() {
    let config = ClusterConfig { num_sets: 1, replication: 1, ..ClusterConfig::default() };
    let cluster = TcpCluster::spawn(config).unwrap();
    let bootstrap = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let _ = TangoMap::<u64, u64>::open(&bootstrap, "shared").unwrap();

    let mut handles = Vec::new();
    for t in 0..3u64 {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let rt = TangoRuntime::new(client).unwrap();
            let map: TangoMap<u64, u64> = TangoMap::open(&rt, "shared").unwrap();
            for i in 0..20u64 {
                map.put(&(t * 100 + i), &i).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let verify = TangoRuntime::new(cluster.client().unwrap()).unwrap();
    let map: TangoMap<u64, u64> = TangoMap::open(&verify, "shared").unwrap();
    assert_eq!(map.len().unwrap(), 60);
}
