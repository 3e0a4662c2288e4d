//! The `tangoctl` inspector: ask live nodes for their snapshots, render
//! cluster status, health, metrics, and the merged control-plane timeline.
//!
//! Everything here is pure rendering over [`ClusterSnapshot`] /
//! [`ClusterHealth`] so tests can drive it without sockets; the binary in
//! `src/bin/tangoctl.rs` is a thin argv-and-scrape shell around it. The
//! timeline rendering delegates to [`ClusterSnapshot::timeline_text`],
//! whose causal ordering (epoch, node, node sequence — no clocks) makes
//! `tangoctl timeline` byte-identical across replays of a seeded chaos
//! schedule.

use std::collections::BTreeSet;
use std::time::Duration;

use tango_metrics::health::{
    GAUGE_APPLIED, GAUGE_EPOCH, GAUGE_OCCUPANCY, GAUGE_SEQ_TAIL, GAUGE_TRIM_HORIZON,
};
use tango_metrics::{log_scoped, scoped_log, ClusterHealth, ClusterSnapshot, HealthStatus};
use tango_rpc::fetch_snapshot;

/// One node to scrape: a display name plus the address it serves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeTarget {
    /// Display name used in renderings (`name=` prefix, or the address).
    pub name: String,
    /// `host:port` the node listens on — the address its clients dial.
    pub addr: String,
}

/// Parses `name=host:port` (or bare `host:port`, which names the node
/// after its address) target arguments.
pub fn parse_targets(args: &[String]) -> Vec<ScrapeTarget> {
    args.iter()
        .map(|arg| match arg.split_once('=') {
            Some((name, addr)) => ScrapeTarget { name: name.to_string(), addr: addr.to_string() },
            None => ScrapeTarget { name: arg.clone(), addr: arg.clone() },
        })
        .collect()
}

/// Asks every target for its snapshot ([`fetch_snapshot`]). Nodes that do
/// not answer within `timeout` land in the returned unreachable list
/// instead of wedging the scrape.
pub fn scrape(targets: &[ScrapeTarget], timeout: Duration) -> (ClusterSnapshot, Vec<String>) {
    let mut cluster = ClusterSnapshot::new();
    let mut unreachable = Vec::new();
    for t in targets {
        match fetch_snapshot(&t.addr, timeout) {
            Ok(snap) => cluster.insert(t.name.clone(), snap),
            Err(_) => unreachable.push(t.name.clone()),
        }
    }
    (cluster, unreachable)
}

/// `tangoctl status`: a per-log shard table (epoch, sequencer tail,
/// applied watermark, lag — each the max across nodes publishing that
/// gauge) followed by a per-node summary.
pub fn render_status(cluster: &ClusterSnapshot, unreachable: &[String]) -> String {
    let mut out = format!(
        "cluster: {} node(s) scraped, {} unreachable\n\n",
        cluster.len(),
        unreachable.len()
    );

    // Every log any node publishes a scoped gauge for.
    let merged = cluster.merged();
    let mut logs: BTreeSet<u64> = BTreeSet::new();
    for (name, _) in &merged.gauges {
        for base in [GAUGE_SEQ_TAIL, GAUGE_APPLIED, GAUGE_EPOCH] {
            if let Some(log) = scoped_log(name, base) {
                logs.insert(log);
            }
        }
    }

    out.push_str("LOG  EPOCH  SEQ-TAIL  APPLIED  LAG\n");
    for log in &logs {
        let max_gauge = |base: &str| -> i64 {
            let scoped = log_scoped(base, *log);
            cluster.nodes().map(|(_, s)| s.gauge(&scoped)).max().unwrap_or(0)
        };
        let epoch = max_gauge(GAUGE_EPOCH);
        let tail = max_gauge(GAUGE_SEQ_TAIL);
        let applied = max_gauge(GAUGE_APPLIED);
        out.push_str(&format!(
            "{:<4} {:<6} {:<9} {:<8} {}\n",
            log,
            epoch,
            tail,
            applied,
            (tail - applied).max(0)
        ));
    }

    out.push_str("\nNODE                 CONNS  DROPS  EVENTS\n");
    for (name, snap) in cluster.nodes() {
        out.push_str(&format!(
            "{:<20} {:<6} {:<6} {}\n",
            name,
            snap.gauge("rpc.server_conns"),
            snap.counter("rpc.accepts_dropped"),
            snap.events.len()
        ));
    }
    for name in unreachable {
        out.push_str(&format!("{name:<20} unreachable\n"));
    }
    out
}

/// `tangoctl health`: the cluster verdict, each tripped reason, and a
/// per-node status line. Returns the rendering plus the verdict (the
/// binary maps it to an exit code: ok=0, degraded=1, unhealthy=2).
pub fn render_health(cluster: &ClusterSnapshot, unreachable: &[String]) -> (String, HealthStatus) {
    let health = ClusterHealth::evaluate(cluster, unreachable);
    let mut out = format!("cluster: {}\n", health.status.name());
    for reason in &health.reasons {
        out.push_str(&format!("  [{}] {}: {}\n", reason.status.name(), reason.code, reason.detail));
    }
    for (name, report) in &health.nodes {
        out.push_str(&format!("node {name}: {}\n", report.status.name()));
        for reason in &report.reasons {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                reason.status.name(),
                reason.code,
                reason.detail
            ));
        }
    }
    (out, health.status)
}

/// `tangoctl timeline`: the merged causally-ordered control-plane
/// timeline. Replay-stable by construction (no timestamps).
pub fn render_timeline(cluster: &ClusterSnapshot) -> String {
    cluster.timeline_text()
}

/// `tangoctl metrics`: every node's instruments as text
/// ([`tango_metrics::Snapshot::to_text`]), then the cluster-wide sums.
pub fn render_metrics(cluster: &ClusterSnapshot, unreachable: &[String]) -> String {
    let mut out = String::new();
    for (name, snap) in cluster.nodes() {
        out.push_str(&format!("# {name}\n{}\n", snap.to_text()));
    }
    for name in unreachable {
        out.push_str(&format!("# {name}: unreachable\n\n"));
    }
    out.push_str(&format!("# merged\n{}", cluster.merged().to_text()));
    out
}

/// `tangoctl storage`: the reclamation loop per storage node — occupancy,
/// trim horizon, hot/cold tier split, pages reclaimed/migrated, and scrub
/// progress. Nodes that publish no `corfu.storage.occupancy` gauge
/// (sequencers, layout replicas, clients) are left out.
pub fn render_storage(cluster: &ClusterSnapshot, unreachable: &[String]) -> String {
    let mut out =
        String::from("NODE                 LOG  OCCUPANCY  HORIZON  HOT    COLD   RECLAIMED  MIGRATED  SCRUBBED  SCRUB-ERRS\n");
    let mut rows = 0usize;
    for (name, snap) in cluster.nodes() {
        // One row per log the node publishes storage gauges for (a node
        // serves one log, but the scrape does not assume that).
        let mut logs: BTreeSet<u64> = BTreeSet::new();
        for (gauge_name, _) in &snap.gauges {
            if let Some(log) = scoped_log(gauge_name, GAUGE_OCCUPANCY) {
                logs.insert(log);
            }
        }
        for log in logs {
            let g = |base: &str| snap.gauge(&log_scoped(base, log));
            let c = |base: &str| snap.counter(&log_scoped(base, log));
            out.push_str(&format!(
                "{:<20} {:<4} {:<10} {:<8} {:<6} {:<6} {:<10} {:<9} {:<9} {}\n",
                name,
                log,
                g(GAUGE_OCCUPANCY),
                g(GAUGE_TRIM_HORIZON),
                g("corfu.storage.hot_pages"),
                g("corfu.storage.cold_pages"),
                c("corfu.storage.reclaimed_pages"),
                c("corfu.storage.migrated_pages"),
                c("corfu.storage.scrubbed_pages"),
                c("corfu.storage.scrub_errors"),
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        out.push_str("(no storage nodes in scrape)\n");
    }
    for name in unreachable {
        out.push_str(&format!("{name:<20} unreachable\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_metrics::{EventKind, Registry};

    #[test]
    fn parse_targets_accepts_named_and_bare() {
        let targets =
            parse_targets(&["seq=127.0.0.1:9001".to_string(), "127.0.0.1:9002".to_string()]);
        assert_eq!(targets[0].name, "seq");
        assert_eq!(targets[0].addr, "127.0.0.1:9001");
        assert_eq!(targets[1].name, "127.0.0.1:9002");
        assert_eq!(targets[1].addr, "127.0.0.1:9002");
    }

    #[test]
    fn status_renders_per_log_and_per_node_tables() {
        let seq = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_SEQ_TAIL, 1)).set(500);
            r.gauge(&log_scoped(GAUGE_EPOCH, 1)).set(2);
            r.snapshot()
        };
        let client = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_APPLIED, 1)).set(480);
            r.events().emit(EventKind::Sealed, 2, 1, 500);
            r.snapshot()
        };
        let mut cs = ClusterSnapshot::new();
        cs.insert("sequencer-1", seq);
        cs.insert("clients", client);
        let text = render_status(&cs, &["storage-9".to_string()]);
        assert!(text.contains("2 node(s) scraped, 1 unreachable"), "{text}");
        assert!(text.contains("1    2      500       480      20"), "{text}");
        assert!(text.contains("storage-9"), "{text}");
        assert!(text.contains("clients"), "{text}");
    }

    #[test]
    fn health_maps_verdicts_and_lists_reasons() {
        let cs = ClusterSnapshot::new();
        let (text, status) = render_health(&cs, &[]);
        assert_eq!(status, HealthStatus::Ok);
        assert!(text.starts_with("cluster: ok"), "{text}");

        let (text, status) = render_health(&cs, &["storage-1".to_string()]);
        assert_eq!(status, HealthStatus::Degraded);
        assert!(text.contains("[degraded] unreachable"), "{text}");
    }

    #[test]
    fn storage_renders_reclamation_columns() {
        let storage = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_OCCUPANCY, 1)).set(96);
            r.gauge(&log_scoped(GAUGE_TRIM_HORIZON, 1)).set(800);
            r.gauge(&log_scoped("corfu.storage.hot_pages", 1)).set(16);
            r.gauge(&log_scoped("corfu.storage.cold_pages", 1)).set(80);
            r.counter(&log_scoped("corfu.storage.reclaimed_pages", 1)).add(700);
            r.counter(&log_scoped("corfu.storage.migrated_pages", 1)).add(750);
            r.counter(&log_scoped("corfu.storage.scrubbed_pages", 1)).add(123);
            r.snapshot()
        };
        let seq = Registry::new().snapshot();
        let mut cs = ClusterSnapshot::new();
        cs.insert("storage-3", storage);
        cs.insert("sequencer", seq);
        let text = render_storage(&cs, &["storage-9".to_string()]);
        assert!(text.contains("storage-3"), "{text}");
        assert!(text.contains("96"), "{text}");
        assert!(text.contains("800"), "{text}");
        assert!(text.contains("123"), "{text}");
        // The sequencer publishes no occupancy gauge: no row.
        assert!(!text.contains("sequencer"), "{text}");
        assert!(text.contains("storage-9            unreachable"), "{text}");
    }

    #[test]
    fn metrics_renders_each_node_then_the_merged_sums() {
        let node = |n: u64| {
            let r = Registry::new();
            r.counter("corfu.storage.writes").add(n);
            r.snapshot()
        };
        let mut cs = ClusterSnapshot::new();
        cs.insert("storage-0", node(2));
        cs.insert("storage-1", node(3));
        let text = render_metrics(&cs, &["storage-9".to_string()]);
        let merged = text.split("# merged\n").nth(1).expect("a merged section");
        assert!(text.starts_with("# storage-0\n"), "{text}");
        assert!(text.contains("# storage-9: unreachable"), "{text}");
        assert!(merged.lines().any(|l| l.starts_with("corfu.storage.writes") && l.ends_with(" 5")));
    }

    #[test]
    fn timeline_is_causal_text() {
        let r = Registry::new();
        r.events().emit(EventKind::Sealed, 3, 0, 42);
        let mut cs = ClusterSnapshot::new();
        cs.insert("seq", r.snapshot());
        assert_eq!(render_timeline(&cs), "epoch=3 node=seq seq=1 kind=sealed log=0 detail=42\n");
    }
}
