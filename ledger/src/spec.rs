//! The names this benchmark is judged on: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root carries
//! the same tables for the driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: which layers it stresses and why it is in the suite.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "append_tcp",
        why: "one closed-loop client appends 512 B over localhost TCP: rpc + sequencer + chain write do nearly all the work, stream/core none",
    },
    WorkloadSpec {
        name: "append_local",
        why: "the same appends in-process: every layer minus rpc, so a transport change must not move it and a codec or storage-lock change moves it most",
    },
    WorkloadSpec {
        name: "tx_mix_tcp",
        why: "2 runtimes take turns at 3-read/3-write zipf transactions on one map: conflict check, apply and playback of the other client's commits on top of the append path",
    },
    WorkloadSpec {
        name: "read_mostly_tcp",
        why: "2 runtimes take turns at 90% linearizable get / 10% put on one map: sequencer tail checks and remote playback instead of tokens and chain writes",
    },
    WorkloadSpec {
        name: "catchup_tcp",
        why: "fresh runtimes replay one of two interleaved streams from cold tiered storage: batched reads, backpointer walk, decode, apply; no tokens, no writes; log larger than the hot tier",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, what }
}

use Better::{Higher, Lower};

/// Reported by every workload from untraced rounds only.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("ops_per_s", "ops/s", Higher, 0.25, "rate of the run's best block of consecutive operations (catchup: log entries applied per second)"),
    e2e("op_p50_us", "us", Lower, 0.25, "median latency of the best block (lowest block median) (tx: including retries; catchup: one whole replay)"),
    e2e("op_p95_us", "us", Lower, 0.25, "95th-percentile latency of the best block (lowest block p95)"),
    e2e("cpu_ms_per_kop", "ms", Lower, 0.25, "process user+system CPU per 1000 operations, clients and servers, of the best block (catchup: per 1000 entries applied)"),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.01, "bytes written to flash over all storage nodes per payload byte submitted (replication, headers, commit records)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.2, "VmHWM of the run's process; every round holds the same number of operations in memory"),
    e2e("setup_s", "s", Lower, 0.25, "median over rounds of cluster spawn + client creation + prefill + warm-up"),
];

/// Reported by every workload from a traced run (`--trace 1`); 0 where a
/// metric does not apply to the workload.
pub const PER_LAYER: &[MetricSpec] = &[
    // The ladder: each rung alone, one thread, fixed iteration counts.
    layer("wire.encode_entry_ns", "ns", Lower, "EntryEnvelope::encode, 512 B payload + 1 stream header"),
    layer("wire.decode_entry_ns", "ns", Lower, "EntryEnvelope::decode of the same entry"),
    layer("wire.crc32c_4k_ns", "ns", Lower, "crc32c over one 4 KiB page"),
    layer("flash.write_ns", "ns", Lower, "FlashUnit::write of one encoded entry, in-memory store"),
    layer("flash.read_ns", "ns", Lower, "FlashUnit::read of one page, in-memory store"),
    layer("flash.read_many32_ns", "ns", Lower, "FlashUnit::read_many of 32 pages, per call"),
    layer("flash.tiered_cold_read_ns", "ns", Lower, "FlashUnit::read of a page in a TieredStore cold segment file"),
    layer("rpc.frame_encode_ns", "ns", Lower, "write_frame of a 512 B payload into a buffer"),
    layer("rpc.frame_decode_ns", "ns", Lower, "FrameAssembler::poll of one whole 512 B frame"),
    layer("rpc.local_call_ns", "ns", Lower, "LocalConn::call to an echo handler, 512 B"),
    layer("rpc.tcp_echo_rtt_us", "us", Lower, "TcpConn::call to a TcpServer echo handler on localhost, 512 B, wall time"),
    layer("rpc.tcp_echo_cpu_us", "us", Lower, "process CPU per call of the same echo"),
    layer("corfu.seq.process_ns", "ns", Lower, "SequencerServer::process of one Next for one stream"),
    layer("corfu.storage.write_handle_ns", "ns", Lower, "StorageServer::handle of an encoded Write (codec + lock + flash)"),
    layer("corfu.storage.read_handle_ns", "ns", Lower, "StorageServer::handle of an encoded Read"),
    layer("corfu.storage.readbatch32_handle_ns", "ns", Lower, "StorageServer::handle of an encoded ReadBatch of 32, per call"),
    layer("meta.client_init_us", "us", Lower, "TcpCluster::client(): quorum layout read over TCP + client construction"),
    layer("stream.local_sync_entry_ns", "ns", Lower, "fresh StreamClient sync + drain of a 2000-entry stream, per entry, in-process"),
    layer("core.local_replay_entry_ns", "ns", Lower, "fresh runtime opening a 2000-put map and playing it, per entry, in-process"),
    layer("core.local_tx_commit_us", "us", Lower, "uncontended 1-read/1-write transaction, begin to committed, in-process"),
    layer("objects.local_put_us", "us", Lower, "TangoMap::put, in-process"),
    layer("objects.local_get_us", "us", Lower, "linearizable TangoMap::get with nothing to play, in-process"),
    layer("metrics.append_overhead_pct", "%", Lower, "append through a metered client vs a Registry::disabled() one, paired blocks"),
    // In situ: the workload's own traced round (spans recorded by the benchmark).
    layer("rpc.calls_per_op", "count", Lower, "ClientConn::call invocations per operation"),
    layer("rpc.req_bytes_per_op", "bytes", Lower, "request payload bytes per operation"),
    layer("rpc.resp_bytes_per_op", "bytes", Lower, "response payload bytes per operation"),
    layer("corfu.seq.calls_per_op", "count", Lower, "sequencer calls per operation"),
    layer("corfu.seq.call_p50_us", "us", Lower, "median sequencer call as the client sees it"),
    layer("corfu.seq.call_share", "ratio", Lower, "share of operation time covered by a sequencer call"),
    layer("corfu.storage.calls_per_op", "count", Lower, "storage-node calls per operation"),
    layer("corfu.storage.call_p50_us", "us", Lower, "median storage call as the client sees it"),
    layer("corfu.storage.call_share", "ratio", Lower, "share of operation time covered by at least one storage call"),
    layer("meta.calls_per_op", "count", Lower, "layout-replica calls per operation"),
    layer("client.self_us", "us", Lower, "median operation time covered by no RPC: client-side objects+core+stream+corfu CPU and lock waits"),
    layer("client.self_share", "ratio", Lower, "the same as a share of total operation time"),
    layer("corfu.seq.handler_ns", "ns", Lower, "median sequencer handler time in situ (append_local only)"),
    layer("corfu.storage.handler_ns", "ns", Lower, "median storage handler time in situ (append_local only)"),
    layer("flash.pages_written_per_op", "count", Lower, "pages written over all storage nodes per operation"),
    layer("flash.bytes_written_per_op", "bytes", Lower, "bytes written over all storage nodes per operation"),
    layer("flash.reads_per_op", "count", Lower, "page reads over all storage nodes per operation"),
    layer("flash.cold_page_share", "ratio", Higher, "share of live pages in the cold tier when the timed phase starts"),
    layer("corfu.hole_polls_per_kop", "count", Lower, "re-reads of an unwritten offset per 1000 operations"),
    layer("stream.cache_hit_ratio", "ratio", Higher, "entry-cache hits over lookups during the timed phase"),
    layer("stream.read_batch_mean", "count", Higher, "mean offsets per bulk read issued by the stream layer"),
    layer("core.tx_abort_ratio", "ratio", Lower, "aborted attempts over attempts"),
    layer("core.tx_attempts_per_commit", "count", Lower, "attempts per committed transaction"),
    layer("core.tx_exec_p50_us", "us", Lower, "median begin_tx to just before end_tx"),
    layer("core.tx_commit_p50_us", "us", Lower, "median end_tx"),
    layer("objects.get_p50_us", "us", Lower, "median linearizable get (read_mostly_tcp)"),
    layer("objects.put_p50_us", "us", Lower, "median put (read_mostly_tcp)"),
    layer("client.op_p99_us", "us", Lower, "99th-percentile operation latency, untraced round; not steady enough to gate"),
    layer("client.op_p999_us", "us", Lower, "99.9th-percentile operation latency, untraced round"),
    layer("client.fail_ratio", "ratio", Lower, "operations returning an error over operations attempted (aborted transactions are retried, not failures)"),
    layer("trace.overhead_pct", "%", Lower, "ops_per_s lost in the traced round against the untraced one"),
    layer("ladder.append_explained_share", "ratio", Higher, "calls x ladder rung costs over op_p50_us (append workloads)"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()) && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    /// `BENCHMARK.json` is written by hand for the driver; it must list
    /// exactly what this binary reports.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let file = Json::parse(&text).unwrap();
        let list = |key: &str| match file.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let names = |key: &str| -> Vec<String> {
            list(key).iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_owned()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (item, w) in list("workloads").iter().zip(WORKLOADS) {
            assert_eq!(item.get("why").unwrap().as_str(), Some(w.why));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(names(key), table.iter().map(|m| m.name).collect::<Vec<_>>());
            for (item, m) in list(key).iter().zip(table) {
                assert_eq!(item.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(item.get("better").unwrap().as_str(), Some(m.better.as_str()));
                assert_eq!(item.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
