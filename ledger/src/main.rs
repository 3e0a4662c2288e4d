//! `ledger` — the repo's benchmark: five workloads over the real stack,
//! end-to-end metrics with regression bounds, and a per-layer cost ladder.
//! See `README.md` next to `Cargo.toml` for what each name means and why.
//!
//! ```text
//! ledger bench  --workload W --seed N --seconds S --trace 0|1 [--scale F] [--spans-out FILE]
//! ledger list   [--json]
//! ledger run    [--workload W|all] [--seed N] [--scale F] [--quick] [--traced] [--out FILE]
//! ledger repeat --sets N [--seed N] [--scale F] [--quick]
//! ```
//!
//! `bench` is what `BENCHMARK.json` points the driver at: one workload, one
//! process, one result line. `run` and `repeat` run `bench` in child
//! processes (so peak RSS and reactor threads never carry over from one
//! workload to the next) and put the results side by side.

mod bench;
mod json;
mod os;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::{Command, ExitCode};

use bench::BenchArgs;
use json::Json;
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds of timed work per run; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: f64 = 20.0;
/// `--quick`: a smoke run of the whole suite in well under 20 s, checks on.
const QUICK_SCALE: f64 = 0.05;

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg}"))?;
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            map.insert(name.to_owned(), value);
        }
        Ok(Self(map))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn scale(&self) -> Result<f64, String> {
        let scale = self.get("scale", if self.has("quick") { QUICK_SCALE } else { 1.0 })?;
        if scale > 0.0 && scale.is_finite() {
            Ok(scale)
        } else {
            Err("--scale must be positive".into())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: ledger bench|list|run|repeat [flags]   (see ledger/README.md)");
        return ExitCode::from(2);
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "list" => Ok(list(&flags)),
        "bench" | "run" | "repeat" if cfg!(debug_assertions) => {
            Err("this is a debug build; measure with --release".into())
        }
        "bench" => bench_command(&flags),
        "run" => run_command(&flags),
        "repeat" => repeat_command(&flags),
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// bench: the driver's entry point
// ---------------------------------------------------------------------------

fn bench_command(flags: &Flags) -> Result<ExitCode, String> {
    let workload: String = flags.get("workload", String::new())?;
    if spec::workload(&workload).is_none() {
        return Err(format!("--workload must be one of: {}", workload_names().join(", ")));
    }
    let args = BenchArgs {
        workload,
        seed: flags.get("seed", 1)?,
        seconds: flags.get("seconds", RUN_SECONDS)?,
        scale: flags.scale()?,
        trace: flags.get::<u8>("trace", 0)? != 0,
        spans_out: flags.0.get("spans-out").map(Into::into),
    };
    eprintln!(
        "ledger: {} seed {} — closed loop, one load thread, servers in-process on localhost TCP \
         with no injected delay (latency = CPU + kernel loopback); nproc = {}",
        args.workload,
        args.seed,
        os::nproc()
    );
    let result = bench::run(&args);
    if let Some(error) = &result.error {
        eprintln!("ledger: {}: {error}", args.workload);
    }
    println!("{}", result.info_json().render());
    println!("{}", result.to_json().render());
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

// ---------------------------------------------------------------------------
// list
// ---------------------------------------------------------------------------

fn metric_json(m: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The contents of `BENCHMARK.json`, generated from the tables in `spec.rs`.
fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
        "bench",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}

fn list(flags: &Flags) -> ExitCode {
    if flags.has("json") {
        println!("{}", benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    println!("workloads (closed loop; {} s of timed work per run):", RUN_SECONDS);
    for w in WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload, untraced run; bound = allowed worsening):");
    for m in END_TO_END {
        let bound = m.bound.unwrap_or(0.0) * 100.0;
        println!(
            "  {:<28} {:<6} {:<6} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.what
        );
    }
    println!("\nper-layer metrics (traced run; no bound):");
    for m in PER_LAYER {
        println!("  {:<36} {:<6} {:<6} {}", m.name, m.unit, m.better.as_str(), m.what);
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// run / repeat: the suite, one child process per workload
// ---------------------------------------------------------------------------

/// One child run's parsed output.
struct ChildRun {
    result: Json,
    info: Json,
}

impl ChildRun {
    fn value(&self, metric: &str) -> Option<f64> {
        self.result.get("metrics")?.get(metric)?.get("value")?.as_f64()
    }
}

fn run_child(workload: &str, seed: u64, scale: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["bench", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &(RUN_SECONDS * scale).to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or(""))
        .map_err(|e| format!("{workload}: result line: {e}"))?;
    let info = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| j.get("info").cloned())
        .unwrap_or(Json::Null);
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        let why = info.get("error").and_then(Json::as_str).unwrap_or("no reason given");
        return Err(format!("{workload} failed its run: {why}"));
    }
    Ok(ChildRun { result, info })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn print_table(
    title: &str,
    table: &[MetricSpec],
    workloads: &[&str],
    runs: &HashMap<&str, ChildRun>,
) {
    println!("\n{title}");
    print!("{:<38}", "");
    for w in workloads {
        print!("{w:>16}");
    }
    println!();
    for m in table {
        print!("{:<30} {:<7}", m.name, m.unit);
        for w in workloads {
            match runs.get(w).and_then(|r| r.value(m.name)) {
                Some(v) => print!("{:>16}", human(v)),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
}

/// Four significant digits, enough to compare by eye.
fn human(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{v:.digits$}")
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    let (seed, scale) = (flags.get("seed", 1u64)?, flags.scale()?);
    let which: String = flags.get("workload", "all".to_owned())?;
    let workloads: Vec<&str> = match which.as_str() {
        "all" => workload_names(),
        one => vec![spec::workload(one).ok_or_else(|| format!("unknown workload {one}"))?.name],
    };
    let mut plain = HashMap::new();
    let mut traced = HashMap::new();
    for &w in &workloads {
        plain.insert(w, run_child(w, seed, scale, false)?);
        if flags.has("traced") {
            traced.insert(w, run_child(w, seed, scale, true)?);
        }
    }

    let per_workload = workloads.iter().map(|&w| {
        let mut fields = vec![
            ("info", plain[w].info.clone()),
            ("end_to_end", plain[w].result.get("metrics").cloned().unwrap_or(Json::Null)),
        ];
        if let Some(t) = traced.get(w) {
            fields.push(("per_layer", t.result.get("metrics").cloned().unwrap_or(Json::Null)));
        }
        (w, Json::obj(fields))
    });
    let report = Json::obj([
        ("git_sha", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("nproc", Json::Num(os::nproc() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale)),
        ("load", Json::str("closed loop, one load thread; localhost TCP, no injected delay; clients and servers in one process pinned to one CPU")),
        ("workloads", Json::obj(per_workload)),
    ]);
    println!("{}", report.render());
    if let Some(path) = flags.0.get("out") {
        std::fs::write(path, report.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    print_table("end-to-end (untraced runs)", END_TO_END, &workloads, &plain);
    if flags.has("traced") {
        print_table("per-layer (traced runs)", PER_LAYER, &workloads, &traced);
    }
    Ok(ExitCode::SUCCESS)
}

fn repeat_command(flags: &Flags) -> Result<ExitCode, String> {
    let (seed, scale) = (flags.get("seed", 1u64)?, flags.scale()?);
    let sets: u64 = flags.get("sets", 5)?;
    let mut values: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    for set in 0..sets {
        // Alternate the order so drift over a set does not always hit the
        // same workload; a new seed per set, as the driver does per run.
        let mut order = workload_names();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run = run_child(w, seed + set, scale, false)?;
            for m in END_TO_END {
                values.entry((w, m.name)).or_default().extend(run.value(m.name));
            }
        }
    }
    println!(
        "{sets} sets, seeds {seed}..{}; spread = (max-min)/median, iqr = quartile distance/median",
        seed + sets - 1
    );
    println!(
        "{:<18}{:<28}{:>14}{:>10}{:>10}{:>8}",
        "workload", "metric", "median", "spread", "iqr", "bound"
    );
    let mut unsteady = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = &values[&(w.name, m.name)];
            let (spread, iqr, bound) =
                (stats::range_spread(v), stats::quartile_spread(v), m.bound.unwrap_or(0.0));
            // Quartiles mean little below four sets; setup_s is gated on its
            // median only, never on its spread.
            let width = if sets >= 4 { iqr } else { spread };
            let flag =
                if width > bound && m.name != "setup_s" { "  <-- wider than bound" } else { "" };
            unsteady += usize::from(!flag.is_empty());
            println!(
                "{:<18}{:<28}{:>14}{:>9.1}%{:>9.1}%{:>7.0}%{flag}",
                w.name,
                m.name,
                human(stats::median(v)),
                spread * 100.0,
                iqr * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if unsteady == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_take_values_and_switches() {
        let args: Vec<String> = ["--workload", "append_tcp", "--quick", "--seed", "7", "--traced"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.get("workload", String::new()).unwrap(), "append_tcp");
        assert_eq!(flags.get("seed", 1u64).unwrap(), 7);
        assert_eq!(flags.get("seconds", 20.0).unwrap(), 20.0);
        assert!(flags.has("quick") && flags.has("traced") && !flags.has("out"));
        assert_eq!(flags.scale().unwrap(), QUICK_SCALE);
        assert!(flags.get::<u64>("workload", 0).is_err());
        assert!(Flags::parse(&["stray".to_string()]).is_err());
    }

    #[test]
    fn generated_benchmark_json_meets_the_contract_shape() {
        let file = benchmark_json();
        let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(Json::parse(&file.render()).unwrap(), file);
        let Some(Json::Arr(command)) = file.get("command") else { panic!() };
        assert!(command.len() <= 32);
    }

    #[test]
    fn human_keeps_four_significant_digits() {
        assert_eq!(human(6412.345), "6412");
        assert_eq!(human(301.256), "301.3");
        assert_eq!(human(2.1349), "2.135");
        assert_eq!(human(0.081234), "0.08123");
        assert_eq!(human(0.0), "0");
    }
}
