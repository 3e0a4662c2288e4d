//! `tangoctl` — inspect a live Tango/CORFU deployment by asking each node
//! for its snapshot, on the port the node serves its clients on.
//!
//! ```text
//! tangoctl status   [name=]host:port ...   shard table + per-node summary
//! tangoctl health   [name=]host:port ...   verdict; exit 0=ok 1=degraded 2=unhealthy
//! tangoctl timeline [name=]host:port ...   merged causal control-plane timeline
//! tangoctl storage  [name=]host:port ...   occupancy, trim horizon, tier split, scrub
//! tangoctl metrics  [name=]host:port ...   every instrument, per node and summed
//! ```
//!
//! Targets are node addresses (`TcpCluster::scrape_targets`), one per node; a
//! `name=` prefix sets the node name used in output (defaults to the
//! address). Unreachable targets are reported, never fatal — an
//! inspector that wedges on the dead node you are debugging is useless.

use std::process::ExitCode;
use std::time::Duration;

use tango_metrics::HealthStatus;
use tango_repro::inspector;

const USAGE: &str = "usage: tangoctl <status|health|timeline|storage|metrics> [name=]host:port ...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, target_args)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let targets = inspector::parse_targets(target_args);
    if targets.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    }
    let (cluster, unreachable) = inspector::scrape(&targets, Duration::from_secs(2));
    match command.as_str() {
        "status" => {
            print!("{}", inspector::render_status(&cluster, &unreachable));
            ExitCode::SUCCESS
        }
        "health" => {
            let (text, status) = inspector::render_health(&cluster, &unreachable);
            print!("{text}");
            match status {
                HealthStatus::Ok => ExitCode::SUCCESS,
                HealthStatus::Degraded => ExitCode::from(1),
                HealthStatus::Unhealthy => ExitCode::from(2),
            }
        }
        "timeline" => {
            print!("{}", inspector::render_timeline(&cluster));
            ExitCode::SUCCESS
        }
        "storage" => {
            print!("{}", inspector::render_storage(&cluster, &unreachable));
            ExitCode::SUCCESS
        }
        "metrics" => {
            print!("{}", inspector::render_metrics(&cluster, &unreachable));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("tangoctl: unknown command `{other}`\n{USAGE}");
            ExitCode::from(64)
        }
    }
}
