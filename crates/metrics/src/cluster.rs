//! Cluster-wide metric aggregation: per-node snapshots keyed by node
//! name, plus an order-independent merged view.
//!
//! The aggregator is deliberately a *keyed map*, not a running sum:
//! inserting the same node twice replaces its snapshot (scrapes are
//! idempotent), and merging two aggregators is a right-biased union
//! (associative), so any fetch/merge topology — one scraper, a tree of
//! scrapers, retries — converges to the same view.

use std::collections::BTreeMap;

use crate::{EventRecord, Snapshot};

/// One event in the merged cluster timeline: a node name plus the event
/// it journalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// The node whose journal recorded the event.
    pub node: String,
    /// The recorded event.
    pub event: EventRecord,
}

impl TimelineEntry {
    /// Renders the causal fields only — epoch, node, node sequence,
    /// kind, log, detail. Timestamps and trace ids are deliberately
    /// excluded so the rendering of a seeded chaos schedule is
    /// byte-identical across replays.
    pub fn to_causal_text(&self) -> String {
        format!(
            "epoch={} node={} seq={} kind={} log={} detail={}",
            self.event.epoch,
            self.node,
            self.event.node_seq,
            self.event.kind.name(),
            self.event.log,
            self.event.detail,
        )
    }
}

/// Per-node snapshots plus a merged cluster view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    nodes: BTreeMap<String, Snapshot>,
}

impl ClusterSnapshot {
    /// An empty aggregation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) one node's snapshot. Re-inserting the same
    /// node is idempotent — the previous scrape is replaced, never
    /// double-counted.
    pub fn insert(&mut self, node: impl Into<String>, snapshot: Snapshot) {
        self.nodes.insert(node.into(), snapshot);
    }

    /// Right-biased union: `other`'s snapshot wins for nodes present in
    /// both. Associative, and idempotent when merging the same data.
    pub fn merge(&mut self, other: &ClusterSnapshot) {
        for (node, snap) in &other.nodes {
            self.nodes.insert(node.clone(), snap.clone());
        }
    }

    /// One node's snapshot.
    pub fn node(&self, name: &str) -> Option<&Snapshot> {
        self.nodes.get(name)
    }

    /// Iterates `(node name, snapshot)` in name order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, &Snapshot)> {
        self.nodes.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of nodes aggregated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True with no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The cluster-wide view: every node's instruments summed by name
    /// (counters/gauges add, histograms add bucket-wise). Because the
    /// per-pair sum is commutative and associative, the result does not
    /// depend on node order.
    pub fn merged(&self) -> Snapshot {
        self.nodes.values().fold(Snapshot::default(), |acc, s| acc.merged_with(s))
    }

    /// The merged cluster timeline: every node's journalled events,
    /// causally ordered by `(epoch, node, node_seq)`. The order uses no
    /// clocks — a node's own events keep their emission order (the node
    /// sequence), cross-node events are grouped by the protocol epoch
    /// they happened under — so the timeline of a seeded chaos schedule
    /// is identical across replays. Because the aggregator is a keyed
    /// map, building the timeline is as idempotent and associative as
    /// [`ClusterSnapshot::merge`] itself.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        let mut out: Vec<TimelineEntry> = self
            .nodes
            .iter()
            .flat_map(|(node, snap)| {
                snap.events
                    .iter()
                    .map(move |event| TimelineEntry { node: node.clone(), event: event.clone() })
            })
            .collect();
        out.sort_by(|a, b| {
            (a.event.epoch, &a.node, a.event.node_seq).cmp(&(
                b.event.epoch,
                &b.node,
                b.event.node_seq,
            ))
        });
        out
    }

    /// The replay-stable text rendering of [`ClusterSnapshot::timeline`]
    /// (one [`TimelineEntry::to_causal_text`] line per event).
    pub fn timeline_text(&self) -> String {
        let mut out = String::new();
        for entry in self.timeline() {
            out.push_str(&entry.to_causal_text());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snap(counter: u64, hist_value: u64) -> Snapshot {
        let r = Registry::new();
        r.counter("ops").add(counter);
        r.gauge("depth").add(counter as i64);
        r.histogram("lat_ns").record(hist_value);
        r.snapshot()
    }

    #[test]
    fn merged_sums_counters_gauges_and_histogram_buckets() {
        let mut cs = ClusterSnapshot::new();
        cs.insert("a", snap(2, 100));
        cs.insert("b", snap(3, 100_000));
        let merged = cs.merged();
        assert_eq!(merged.counter("ops"), 5);
        assert_eq!(merged.gauge("depth"), 5);
        let h = merged.histogram("lat_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 100_100);
        // Both original buckets survive the merge.
        assert_eq!(h.buckets[crate::bucket_index(100)], 1);
        assert_eq!(h.buckets[crate::bucket_index(100_000)], 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ClusterSnapshot::new();
        cs.insert("a", snap(2, 100));
        cs.insert("a", snap(2, 100));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.merged().counter("ops"), 2);
    }

    #[test]
    fn merge_is_associative_and_idempotent() {
        let parts: Vec<ClusterSnapshot> = (0..3)
            .map(|i| {
                let mut cs = ClusterSnapshot::new();
                cs.insert(format!("node-{i}"), snap(i + 1, 10 << i));
                cs
            })
            .collect();

        // (a ∪ b) ∪ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ∪ (b ∪ c)
        let mut right_tail = parts[1].clone();
        right_tail.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&right_tail);
        assert_eq!(left, right);
        assert_eq!(left.merged(), right.merged());

        // x ∪ x = x
        let mut twice = left.clone();
        twice.merge(&left);
        assert_eq!(twice, left);
    }

    #[test]
    fn timeline_orders_by_epoch_then_node_then_sequence() {
        use crate::EventKind;
        let seq0 = {
            let r = Registry::new();
            r.events().emit(EventKind::Sealed, 2, 0, 10);
            r.events().emit(EventKind::StreamAdopted, 3, 0, 5);
            r.snapshot()
        };
        let client = {
            let r = Registry::new();
            r.events().emit(EventKind::HoleFilled, 2, 0, 4);
            r.events().emit(EventKind::ProjectionInstalled, 3, 0, 1);
            r.snapshot()
        };
        let mut cs = ClusterSnapshot::new();
        cs.insert("seq-0", seq0);
        cs.insert("clients", client);

        let lines: Vec<String> = cs.timeline().iter().map(TimelineEntry::to_causal_text).collect();
        assert_eq!(
            lines,
            vec![
                "epoch=2 node=clients seq=1 kind=hole_filled log=0 detail=4",
                "epoch=2 node=seq-0 seq=1 kind=sealed log=0 detail=10",
                "epoch=3 node=clients seq=2 kind=projection_installed log=0 detail=1",
                "epoch=3 node=seq-0 seq=2 kind=stream_adopted log=0 detail=5",
            ]
        );
        assert_eq!(cs.timeline_text().lines().count(), 4);

        // Rendering is insensitive to insertion order (keyed map) and to
        // re-insertion of the same scrape.
        let mut again = ClusterSnapshot::new();
        again.insert("clients", cs.node("clients").unwrap().clone());
        again.insert("seq-0", cs.node("seq-0").unwrap().clone());
        again.insert("clients", cs.node("clients").unwrap().clone());
        assert_eq!(again.timeline_text(), cs.timeline_text());
    }
}
