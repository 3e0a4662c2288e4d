//! One benchmark run of one workload: rounds until `--seconds` of timed work
//! have been measured, then the metrics. An untraced run yields the
//! end-to-end metrics; a traced run yields the per-layer ones (the ladder,
//! plus alternating untraced/traced rounds whose difference is the tracing
//! overhead).

use std::collections::HashMap;
use std::path::PathBuf;

use crate::json::Json;
use crate::os::{self, Scratch};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{self, best, median, percentile};
use crate::sut::{self, Res};
use crate::trace::{analyze, write_spans, InSitu, Span};
use crate::workloads::{run_round, Ctx, Round};

pub struct BenchArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
}

pub struct BenchResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    pub rounds: usize,
    /// Timed operations behind the latency metrics.
    pub samples: usize,
    pub measured_s: f64,
    pub error: Option<String>,
}

impl BenchResult {
    /// The result line the driver reads: exactly these four keys.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(m, value)| {
            (m.name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// What the result line has no room for; printed on the line before it.
    pub fn info_json(&self) -> Json {
        Json::obj([(
            "info",
            Json::obj([
                ("rounds", Json::Num(self.rounds as f64)),
                ("samples", Json::Num(self.samples as f64)),
                ("measured_s", Json::Num(self.measured_s)),
                ("error", self.error.as_ref().map_or(Json::Null, Json::str)),
            ]),
        )])
    }
}

fn latencies_us(rounds: &[&Round], kind: Option<u8>) -> Vec<f64> {
    let mut lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ops.iter())
        .filter(|o| kind.is_none_or(|k| o.kind == k))
        .map(|o| o.lat_ns as f64 / 1e3)
        .collect();
    stats::sort(&mut lat);
    lat
}

/// What the best block of a run measured, each metric on its own: the
/// highest rate (work units per second), the lowest median and 95th
/// percentile latency, the least CPU time per work unit.
struct Bests {
    rate: f64,
    p50_us: f64,
    p95_us: f64,
    cpu_us_per_unit: f64,
}

fn block_bests(rounds: &[&Round]) -> Bests {
    let (mut rates, mut p50s, mut p95s, mut cpus) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in rounds {
        for b in &r.blocks {
            rates.push(b.ops_per_s * r.units_per_op as f64);
            p50s.push(b.p50_us);
            p95s.push(b.p95_us);
            cpus.push(b.cpu_us_per_op / r.units_per_op as f64);
        }
    }
    Bests {
        rate: best(&rates, true),
        p50_us: best(&p50s, false),
        p95_us: best(&p95s, false),
        cpu_us_per_unit: best(&cpus, false),
    }
}

fn end_to_end(rounds: &[&Round]) -> HashMap<&'static str, f64> {
    let bests = block_bests(rounds);
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(|r| f(r)).sum::<u64>() as f64;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    HashMap::from([
        ("ops_per_s", bests.rate),
        ("op_p50_us", bests.p50_us),
        ("op_p95_us", bests.p95_us),
        // us per operation is ms per thousand.
        ("cpu_ms_per_kop", bests.cpu_us_per_unit),
        ("stored_bytes_per_user_byte", sum(|r| r.stored_bytes) / sum(|r| r.user_bytes).max(1.0)),
        ("peak_rss_mb", os::peak_rss_mb()),
        ("setup_s", median(&setups)),
    ])
}

fn per_layer(
    workload: &str,
    ladder: &[(&'static str, f64)],
    plain: &[&Round],
    traced: &[&Round],
    spans: &[Span],
) -> HashMap<&'static str, f64> {
    let mut m: HashMap<&'static str, f64> = ladder.iter().copied().collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let all: Vec<&Round> = plain.iter().chain(traced).copied().collect();
    let sum =
        |rounds: &[&Round], f: fn(&Round) -> u64| rounds.iter().map(|r| f(r)).sum::<u64>() as f64;

    // Spans: per operation, and per work unit where an operation is many.
    let a: InSitu = analyze(spans);
    let units_per_op = traced.first().map_or(1, |r| r.units_per_op) as f64;
    let span_units = a.ops as f64 * units_per_op;
    m.insert("rpc.calls_per_op", ratio(a.rpc_calls as f64, span_units));
    m.insert("rpc.req_bytes_per_op", ratio(a.req_bytes as f64, span_units));
    m.insert("rpc.resp_bytes_per_op", ratio(a.resp_bytes as f64, span_units));
    for (class, [calls, p50, share]) in [
        (&a.seq, ["corfu.seq.calls_per_op", "corfu.seq.call_p50_us", "corfu.seq.call_share"]),
        (
            &a.storage,
            ["corfu.storage.calls_per_op", "corfu.storage.call_p50_us", "corfu.storage.call_share"],
        ),
    ] {
        m.insert(calls, ratio(class.calls as f64, span_units));
        m.insert(p50, median(&class.call_us));
        m.insert(share, ratio(class.covered_ns as f64, a.op_ns as f64));
    }
    m.insert("meta.calls_per_op", ratio(a.meta.calls as f64, span_units));
    m.insert("client.self_us", median(&a.self_us));
    m.insert("client.self_share", ratio(a.self_us.iter().sum::<f64>() * 1e3, a.op_ns as f64));
    for (phase, name) in
        [("tx.exec", "core.tx_exec_p50_us"), ("tx.commit", "core.tx_commit_p50_us")]
    {
        if let Some((_, us)) = a.phases.iter().find(|(n, _)| *n == phase) {
            m.insert(name, median(us));
        }
    }
    let handlers = || traced.iter().filter_map(|r| r.handler_ns.as_ref());
    let seq_ns: Vec<f64> = handlers().flat_map(|h| h.seq.iter().copied()).collect();
    let storage_ns: Vec<f64> = handlers().flat_map(|h| h.storage.iter().copied()).collect();
    m.insert("corfu.seq.handler_ns", median(&seq_ns));
    m.insert("corfu.storage.handler_ns", median(&storage_ns));

    // Counts read from the system's own registries, over every round.
    let units = all.iter().map(|r| r.units()).sum::<u64>() as f64;
    m.insert("flash.pages_written_per_op", ratio(sum(&all, |r| r.flash.pages_written), units));
    m.insert("flash.bytes_written_per_op", ratio(sum(&all, |r| r.flash.bytes_written), units));
    m.insert("flash.reads_per_op", ratio(sum(&all, |r| r.flash.reads), units));
    m.insert(
        "flash.cold_page_share",
        ratio(all.iter().map(|r| r.cold_share).sum(), all.len() as f64),
    );
    m.insert("corfu.hole_polls_per_kop", ratio(sum(&all, |r| r.client.hole_polls) * 1e3, units));
    let (hits, misses) = (sum(&all, |r| r.client.cache_hits), sum(&all, |r| r.client.cache_misses));
    m.insert("stream.cache_hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "stream.read_batch_mean",
        ratio(sum(&all, |r| r.client.read_batch_entries), sum(&all, |r| r.client.read_batches)),
    );
    let (attempts, aborts) = (sum(&all, |r| r.tx_attempts), sum(&all, |r| r.tx_aborts));
    m.insert("core.tx_abort_ratio", ratio(aborts, attempts));
    m.insert("core.tx_attempts_per_commit", ratio(attempts, attempts - aborts));
    m.insert("client.fail_ratio", ratio(sum(&all, |r| r.failed), sum(&all, |r| r.attempted)));

    // Latencies: by kind from every round; the far tail from untraced ones.
    if let Some(kinds) = all.first().map(|r| r.kinds) {
        for (kind, name) in [("get", "objects.get_p50_us"), ("put", "objects.put_p50_us")] {
            if let Some(k) = kinds.iter().position(|n| *n == kind) {
                m.insert(name, percentile(&latencies_us(&all, Some(k as u8)), 50.0));
            }
        }
    }
    let lat = latencies_us(plain, None);
    m.insert("client.op_p99_us", percentile(&lat, 99.0));
    m.insert("client.op_p999_us", percentile(&lat, 99.9));
    let (plain_rate, traced_rate) = (block_bests(plain).rate, block_bests(traced).rate);
    m.insert("trace.overhead_pct", ratio(plain_rate - traced_rate, plain_rate) * 100.0);

    // Does the ladder add up? Each call costs its transport rung plus its
    // handler rung; the client encodes the entry once.
    let transport_ns = match workload {
        "append_tcp" => m.get("rpc.tcp_echo_rtt_us").map(|us| us * 1e3),
        "append_local" => m.get("rpc.local_call_ns").copied(),
        _ => None,
    };
    if let Some(transport_ns) = transport_ns {
        let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
        let explained = get("corfu.seq.calls_per_op")
            * (transport_ns + get("corfu.seq.process_ns"))
            + get("corfu.storage.calls_per_op")
                * (transport_ns + get("corfu.storage.write_handle_ns"))
            + get("wire.encode_entry_ns");
        m.insert(
            "ladder.append_explained_share",
            ratio(explained, block_bests(plain).p50_us * 1e3),
        );
    }
    m
}

/// Runs every ladder rung: the median over its blocks.
fn run_ladder(scratch: &std::path::Path) -> Res<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    for mut rung in sut::ladder(scratch)? {
        let mut values = Vec::with_capacity(rung.blocks);
        for _ in 0..rung.blocks {
            values.push((rung.block)().map_err(|e| format!("{}: {e}", rung.name))?);
        }
        out.push((rung.name, median(&values)));
    }
    Ok(out)
}

fn measure(args: &BenchArgs) -> Res<BenchResult> {
    os::one_malloc_arena();
    match os::pin_to_one_cpu() {
        Some(cpu) => eprintln!("ledger: whole process pinned to cpu {cpu}"),
        None => eprintln!("ledger: could not pin to one cpu; expect noisier numbers"),
    }
    let scratch = Scratch::new(&args.workload).map_err(|e| format!("scratch dir: {e}"))?;
    let ladder = if args.trace { run_ladder(&scratch.0)? } else { Vec::new() };
    // A traced run spends half its time on the ladder's behalf and splits
    // the rest between untraced and traced rounds, one pair at least.
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut measured = 0.0;
    while measured < budget || (args.trace && rounds.len() < 2) {
        let traced = args.trace && rounds.len() % 2 == 1;
        let ctx = Ctx {
            workload: &args.workload,
            seed: args.seed,
            round: rounds.len() as u64,
            scale: args.scale,
            traced,
            keep_samples: args.trace,
            scratch: &scratch.0,
        };
        let round = run_round(&ctx)?;
        measured += round.timed_s;
        let b = block_bests(&[&round]);
        eprintln!(
            "ledger: round {}: set-up {:.3} s, timed {:.3} s; best block {:.0} ops/s, p50 {:.1} us, p95 {:.1} us, cpu {:.3} ms/kop",
            rounds.len(),
            round.setup_s,
            round.timed_s,
            b.rate,
            b.p50_us,
            b.p95_us,
            b.cpu_us_per_unit,
        );
        rounds.push((traced, round));
    }

    let pick = |want: bool| -> Vec<&Round> {
        rounds.iter().filter(|(traced, _)| *traced == want).map(|(_, r)| r).collect()
    };
    let (plain, traced) = (pick(false), pick(true));
    let (table, values) = if args.trace {
        let spans: Vec<Span> = traced.iter().flat_map(|r| r.spans.iter().copied()).collect();
        let path = match &args.spans_out {
            Some(path) => path.clone(),
            None => os::scratch_root()
                .map_err(|e| e.to_string())?
                .join(format!("ledger-spans-{}.csv", args.workload)),
        };
        write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("ledger: {} spans written to {}", spans.len(), path.display());
        (PER_LAYER, per_layer(&args.workload, &ladder, &plain, &traced, &spans))
    } else {
        (END_TO_END, end_to_end(&plain))
    };
    Ok(BenchResult {
        correct: true,
        attempted: rounds.iter().map(|(_, r)| r.attempted).sum(),
        failed: rounds.iter().map(|(_, r)| r.failed).sum(),
        metrics: table.iter().map(|m| (m, values.get(m.name).copied().unwrap_or(0.0))).collect(),
        rounds: rounds.len(),
        samples: plain.iter().map(|r| r.completed as usize).sum(),
        measured_s: measured,
        error: None,
    })
}

/// Runs the benchmark; a failed correctness check (or any error that keeps
/// a round from finishing) comes back as `correct: false` with the reason.
pub fn run(args: &BenchArgs) -> BenchResult {
    measure(args).unwrap_or_else(|error| BenchResult {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        rounds: 0,
        samples: 0,
        measured_s: 0.0,
        error: Some(error),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses_back() {
        let result = BenchResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .zip([6400.5, 301.25, 512.0, 0.31, 2.13, 90.5, 0.8127])
                .collect(),
            rounds: 4,
            samples: 1000,
            measured_s: 10.5,
            error: None,
        };
        let line = result.to_json().render();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(1000.0));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            Json::parse(&result.info_json().render())
                .unwrap()
                .get("info")
                .unwrap()
                .get("rounds")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
    }
}
