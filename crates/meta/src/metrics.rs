//! Instrument bundles for the metalog (`meta.*`).

use tango_metrics::{Counter, Events, Registry};

/// Client-side metalog instruments (`meta.*`). Control-plane traffic is
/// cold, so every observation is exact (no sampling).
#[derive(Clone, Default)]
pub struct MetaMetrics {
    /// Proposals that installed this client's record.
    pub installs: Counter,
    /// Replica calls that failed and were skipped (the quorum carried on
    /// without that replica).
    pub failovers: Counter,
    /// Whole-quorum rounds retried after exponential backoff (also counts
    /// the single-node layout client's transport retries).
    pub retries: Counter,
    /// Records copied to lagging or fresh replicas (position repair and
    /// replacement catch-up).
    pub catchup_reads: Counter,
    /// Control-plane event journal (quorum repairs, decided proposals).
    pub events: Events,
}

impl MetaMetrics {
    /// Binds the `meta.*` names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            installs: registry.counter("meta.installs"),
            failovers: registry.counter("meta.failovers"),
            retries: registry.counter("meta.retries"),
            catchup_reads: registry.counter("meta.catchup_reads"),
            events: registry.events(),
        }
    }
}
