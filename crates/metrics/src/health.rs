//! The health/lag plane: machine-readable health verdicts derived from
//! snapshots.
//!
//! A [`HealthReport`] evaluates one node's [`Snapshot`] against the
//! `MAX_*` thresholds below (node-local signals: hole-fill backlog, forced-junk
//! pressure, transport accept drops, apply lag when the sequencer tail
//! and applied watermark live in the same registry). [`ClusterHealth`]
//! evaluates a whole [`ClusterSnapshot`] plus the set of unreachable
//! scrape targets, adding the cross-node signals: sealed-epoch
//! divergence, per-log apply lag across registries, and metalog quorum
//! membership. Both surface `ok` / `degraded` / `unhealthy` with a list
//! of typed reasons; `tangoctl health` renders them and exits with the
//! verdict.
//!
//! The evaluators read well-known instrument names (the `GAUGE_*` /
//! `COUNTER_*` constants below); emitters use [`crate::log_scoped`] to
//! scope the per-log ones, so log 0 keeps its historical bare names.

use std::collections::{BTreeMap, BTreeSet};

use crate::{log_scoped, scoped_log, ClusterSnapshot, Snapshot};

/// Sequencer tail gauge (log-scoped): the highest raw offset granted.
pub const GAUGE_SEQ_TAIL: &str = "corfu.seq.tail";
/// Runtime applied-watermark gauge (log-scoped): the highest raw offset
/// a runtime has applied from that log.
pub const GAUGE_APPLIED: &str = "tango.applied_offset";
/// Sealed/installed epoch gauge (log-scoped): each node's view of the
/// current epoch of a log. Divergence across nodes means a reconfiguration
/// is in flight (or a node is stuck behind one).
pub const GAUGE_EPOCH: &str = "tango.epoch";
/// Client hole-fill backlog gauge: holes currently being chased.
pub const GAUGE_HOLE_BACKLOG: &str = "corfu.client.hole_backlog";
/// Client forced-junk counter.
pub const COUNTER_JUNK_FORCED: &str = "corfu.client.junk_forced";
/// Transport accept-drop counter.
pub const COUNTER_ACCEPT_DROPS: &str = "rpc.accepts_dropped";
/// Storage occupancy gauge (log-scoped): live (untrimmed) pages on a
/// storage node. Published by the node's compactor; a node whose log keeps
/// growing past [`MAX_OCCUPANCY`] has a broken checkpoint/trim loop.
pub const GAUGE_OCCUPANCY: &str = "corfu.storage.occupancy";
/// Storage prefix-trim horizon gauge (log-scoped).
pub const GAUGE_TRIM_HORIZON: &str = "corfu.storage.trim_horizon";

/// The three-level health verdict. `Ord` ranks severity, so the overall
/// status of a report is the max of its reasons' statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// All signals within their thresholds.
    Ok,
    /// Service continues but something needs attention.
    Degraded,
    /// The node/cluster is likely not serving correctly.
    Unhealthy,
}

impl HealthStatus {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// One tripped health check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReason {
    /// Stable machine-readable code, e.g. `apply_lag`, `unreachable`.
    pub code: String,
    /// Severity this reason contributes.
    pub status: HealthStatus,
    /// Human-readable specifics (values, thresholds, node names).
    pub detail: String,
}

// Thresholds for the health checks. All checks are inclusive-pass: a value
// must *exceed* its threshold to trip.

/// Offsets the applied watermark may trail the sequencer tail.
pub const MAX_APPLY_LAG: i64 = 4096;
/// Concurrent hole-fills in flight before the client is degraded (4x this
/// is unhealthy).
pub const MAX_HOLE_BACKLOG: i64 = 8;
/// Epochs two nodes' views of one log may differ.
pub const MAX_EPOCH_DIVERGENCE: i64 = 1;
/// Lifetime accept drops before the transport is degraded.
pub const MAX_ACCEPT_DROPS: u64 = 128;
/// Live pages a storage node may hold before it is degraded — an occupancy
/// still climbing past this means checkpoints are not trimming the log.
pub const MAX_OCCUPANCY: i64 = 1 << 20;

/// A node-local health verdict with its tripped checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Overall verdict (max severity of `reasons`, `Ok` when empty).
    pub status: HealthStatus,
    /// Every tripped check.
    pub reasons: Vec<HealthReason>,
}

impl HealthReport {
    fn from_reasons(reasons: Vec<HealthReason>) -> Self {
        let status = reasons.iter().map(|r| r.status).max().unwrap_or(HealthStatus::Ok);
        Self { status, reasons }
    }

    /// Evaluates one node's snapshot.
    pub fn evaluate(snap: &Snapshot) -> HealthReport {
        let mut reasons = Vec::new();

        let backlog = snap.gauge(GAUGE_HOLE_BACKLOG);
        if backlog > MAX_HOLE_BACKLOG {
            let status = if backlog > MAX_HOLE_BACKLOG * 4 {
                HealthStatus::Unhealthy
            } else {
                HealthStatus::Degraded
            };
            reasons.push(HealthReason {
                code: "hole_backlog".into(),
                status,
                detail: format!("{backlog} holes in flight (max {})", MAX_HOLE_BACKLOG),
            });
        }

        let drops = snap.counter(COUNTER_ACCEPT_DROPS);
        if drops > MAX_ACCEPT_DROPS {
            reasons.push(HealthReason {
                code: "accept_drops".into(),
                status: HealthStatus::Degraded,
                detail: format!("{drops} connections dropped (max {})", MAX_ACCEPT_DROPS),
            });
        }

        // Storage occupancy: published per log by the node's compactor.
        for (name, pages) in &snap.gauges {
            let Some(log) = scoped_log(name, GAUGE_OCCUPANCY) else { continue };
            if *pages > MAX_OCCUPANCY {
                reasons.push(HealthReason {
                    code: "occupancy".into(),
                    status: HealthStatus::Degraded,
                    detail: format!("log {log}: {pages} live pages (max {})", MAX_OCCUPANCY),
                });
            }
        }

        // Apply lag is node-local only when one registry carries both
        // gauges (the LocalCluster case); TCP clusters get it from
        // ClusterHealth instead.
        for (name, tail) in &snap.gauges {
            let Some(log) = scoped_log(name, GAUGE_SEQ_TAIL) else { continue };
            let applied_name = log_scoped(GAUGE_APPLIED, log);
            if !snap.gauges.iter().any(|(n, _)| *n == applied_name) {
                continue;
            }
            let lag = tail - snap.gauge(&applied_name);
            if lag > MAX_APPLY_LAG {
                reasons.push(HealthReason {
                    code: "apply_lag".into(),
                    status: HealthStatus::Degraded,
                    detail: format!(
                        "log {log}: applied trails tail by {lag} (max {})",
                        MAX_APPLY_LAG
                    ),
                });
            }
        }

        HealthReport::from_reasons(reasons)
    }
}

/// A cluster-wide health verdict: per-node reports plus the cross-node
/// checks (reachability, metalog quorum, epoch divergence, apply lag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterHealth {
    /// Overall verdict: max severity across cluster reasons and every
    /// node report.
    pub status: HealthStatus,
    /// Cluster-level tripped checks.
    pub reasons: Vec<HealthReason>,
    /// Per-node reports for the reachable nodes.
    pub nodes: BTreeMap<String, HealthReport>,
}

impl ClusterHealth {
    /// Evaluates a scraped cluster. `unreachable` names the scrape
    /// targets that did not answer; they degrade the cluster (and, for
    /// metalog members — nodes named `layout*` — losing a majority makes
    /// it unhealthy).
    pub fn evaluate(cluster: &ClusterSnapshot, unreachable: &[String]) -> ClusterHealth {
        let mut reasons = Vec::new();

        for name in unreachable {
            reasons.push(HealthReason {
                code: "unreachable".into(),
                status: HealthStatus::Degraded,
                detail: format!("scrape target {name} did not answer"),
            });
        }

        let is_layout = |name: &str| name.starts_with("layout");
        let layout_total = cluster.nodes().filter(|(n, _)| is_layout(n)).count()
            + unreachable.iter().filter(|n| is_layout(n)).count();
        let layout_down = unreachable.iter().filter(|n| is_layout(n)).count();
        if layout_total > 0 && layout_down * 2 > layout_total {
            reasons.push(HealthReason {
                code: "meta_quorum".into(),
                status: HealthStatus::Unhealthy,
                detail: format!("{layout_down} of {layout_total} metalog replicas unreachable"),
            });
        }

        // Sealed-epoch divergence: every node publishing a view of one
        // log's epoch should agree within the bound.
        let mut epochs: BTreeMap<String, Vec<(String, i64)>> = BTreeMap::new();
        // Per-log maxima for the cross-node apply-lag check.
        let mut tails: BTreeMap<u64, i64> = BTreeMap::new();
        let mut applied: BTreeMap<u64, i64> = BTreeMap::new();
        let mut logs: BTreeSet<u64> = BTreeSet::new();
        for (node, snap) in cluster.nodes() {
            for (name, value) in &snap.gauges {
                if scoped_log(name, GAUGE_EPOCH).is_some() {
                    epochs.entry(name.clone()).or_default().push((node.to_string(), *value));
                }
                if let Some(log) = scoped_log(name, GAUGE_SEQ_TAIL) {
                    let slot = tails.entry(log).or_insert(i64::MIN);
                    *slot = (*slot).max(*value);
                    logs.insert(log);
                }
                if let Some(log) = scoped_log(name, GAUGE_APPLIED) {
                    let slot = applied.entry(log).or_insert(i64::MIN);
                    *slot = (*slot).max(*value);
                }
            }
        }

        for (name, views) in &epochs {
            let min = views.iter().map(|(_, v)| *v).min().unwrap_or(0);
            let max = views.iter().map(|(_, v)| *v).max().unwrap_or(0);
            if max - min > MAX_EPOCH_DIVERGENCE {
                let lagging: Vec<&str> =
                    views.iter().filter(|(_, v)| *v == min).map(|(n, _)| n.as_str()).collect();
                reasons.push(HealthReason {
                    code: "epoch_divergence".into(),
                    status: HealthStatus::Degraded,
                    detail: format!(
                        "{name}: views span {min}..{max} (max divergence {}), behind: {}",
                        MAX_EPOCH_DIVERGENCE,
                        lagging.join(",")
                    ),
                });
            }
        }

        for log in &logs {
            let (Some(tail), Some(done)) = (tails.get(log), applied.get(log)) else {
                continue;
            };
            let lag = tail - done;
            if lag > MAX_APPLY_LAG {
                reasons.push(HealthReason {
                    code: "apply_lag".into(),
                    status: HealthStatus::Degraded,
                    detail: format!(
                        "log {log}: applied trails tail by {lag} (max {})",
                        MAX_APPLY_LAG
                    ),
                });
            }
        }

        let nodes: BTreeMap<String, HealthReport> = cluster
            .nodes()
            .map(|(name, snap)| (name.to_string(), HealthReport::evaluate(snap)))
            .collect();

        let status = reasons
            .iter()
            .map(|r| r.status)
            .chain(nodes.values().map(|r| r.status))
            .max()
            .unwrap_or(HealthStatus::Ok);
        ClusterHealth { status, reasons, nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn clean_snapshot_is_ok() {
        let r = Registry::new();
        r.counter("corfu.client.tokens").add(5);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Ok);
        assert!(report.reasons.is_empty());
    }

    #[test]
    fn hole_backlog_degrades_then_unhealthies() {
        let r = Registry::new();
        let backlog = r.gauge(GAUGE_HOLE_BACKLOG);

        backlog.set(MAX_HOLE_BACKLOG + 1);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons[0].code, "hole_backlog");

        backlog.set(MAX_HOLE_BACKLOG * 4 + 1);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn storage_occupancy_past_policy_degrades() {
        let r = Registry::new();
        r.gauge(&log_scoped(GAUGE_OCCUPANCY, 1)).set(MAX_OCCUPANCY);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Ok);

        r.gauge(&log_scoped(GAUGE_OCCUPANCY, 1)).set(MAX_OCCUPANCY + 1);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons[0].code, "occupancy");
        assert!(report.reasons[0].detail.contains("log 1"), "{:?}", report.reasons);
    }

    #[test]
    fn node_local_apply_lag_checks_each_log() {
        let r = Registry::new();
        r.gauge(&log_scoped(GAUGE_SEQ_TAIL, 0)).set(MAX_APPLY_LAG * 10);
        r.gauge(&log_scoped(GAUGE_APPLIED, 0)).set(MAX_APPLY_LAG * 10 - 50);
        r.gauge(&log_scoped(GAUGE_SEQ_TAIL, 2)).set(MAX_APPLY_LAG * 50);
        r.gauge(&log_scoped(GAUGE_APPLIED, 2)).set(100);
        let report = HealthReport::evaluate(&r.snapshot());
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons.len(), 1);
        assert!(report.reasons[0].detail.contains("log 2"), "{:?}", report.reasons);
    }

    #[test]
    fn unreachable_nodes_degrade_and_lost_quorum_is_unhealthy() {
        let mut cs = ClusterSnapshot::new();
        cs.insert("layout-0", Registry::new().snapshot());
        cs.insert("seq-0", Registry::new().snapshot());

        let health = ClusterHealth::evaluate(&cs, &[]);
        assert_eq!(health.status, HealthStatus::Ok);

        let health = ClusterHealth::evaluate(&cs, &["storage-1".to_string()]);
        assert_eq!(health.status, HealthStatus::Degraded);
        assert_eq!(health.reasons[0].code, "unreachable");

        // 2 of 3 metalog replicas down: no quorum.
        let health =
            ClusterHealth::evaluate(&cs, &["layout-1".to_string(), "layout-2".to_string()]);
        assert_eq!(health.status, HealthStatus::Unhealthy);
        assert!(health.reasons.iter().any(|r| r.code == "meta_quorum"));
    }

    #[test]
    fn epoch_divergence_across_nodes_degrades() {
        let ahead = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_EPOCH, 1)).set(7);
            r.snapshot()
        };
        let behind = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_EPOCH, 1)).set(3);
            r.snapshot()
        };
        let mut cs = ClusterSnapshot::new();
        cs.insert("seq-1", ahead);
        cs.insert("clients", behind);
        let health = ClusterHealth::evaluate(&cs, &[]);
        assert_eq!(health.status, HealthStatus::Degraded);
        let reason = health.reasons.iter().find(|r| r.code == "epoch_divergence").unwrap();
        assert!(reason.detail.contains("clients"), "{}", reason.detail);
    }

    #[test]
    fn cross_node_apply_lag_uses_per_log_maxima() {
        let seq = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_SEQ_TAIL, 1)).set(MAX_APPLY_LAG + 490);
            r.snapshot()
        };
        let client = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_APPLIED, 1)).set(480);
            r.snapshot()
        };
        let mut cs = ClusterSnapshot::new();
        cs.insert("seq-1", seq);
        cs.insert("clients", client.clone());
        let health = ClusterHealth::evaluate(&cs, &[]);
        assert_eq!(health.status, HealthStatus::Degraded);
        assert!(health.reasons.iter().any(|r| r.code == "apply_lag"));

        // A second, caught-up runtime raises the per-log max: healthy.
        let caught_up = {
            let r = Registry::new();
            r.gauge(&log_scoped(GAUGE_APPLIED, 1)).set(495);
            r.snapshot()
        };
        cs.insert("clients-2", caught_up);
        let health = ClusterHealth::evaluate(&cs, &[]);
        assert_eq!(health.status, HealthStatus::Ok);
    }

    #[test]
    fn scoped_log_parses_suffixes() {
        for log in [0, 1, 17] {
            assert_eq!(scoped_log(&log_scoped(GAUGE_SEQ_TAIL, log), GAUGE_SEQ_TAIL), Some(log));
        }
        assert_eq!(scoped_log("corfu.seq.tail", GAUGE_SEQ_TAIL), Some(0));
        assert_eq!(scoped_log("corfu.seq.tail.log3", GAUGE_SEQ_TAIL), Some(3));
        assert_eq!(scoped_log("corfu.seq.tail.logx", GAUGE_SEQ_TAIL), None);
        assert_eq!(scoped_log("corfu.seq.tails", GAUGE_SEQ_TAIL), None);
        assert_eq!(scoped_log("other", GAUGE_SEQ_TAIL), None);
    }
}
