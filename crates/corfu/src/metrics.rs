//! Instrument bundles for the CORFU client and servers.
//!
//! Each bundle pre-binds its instruments at construction so the hot paths
//! never take the registry's registration lock. All bundles default to
//! disabled (no-op) handles; harnesses like [`crate::cluster::LocalCluster`]
//! bind every component to one shared [`Registry`] so a single snapshot
//! covers the whole deployment.

use tango_metrics::health::{GAUGE_OCCUPANCY, GAUGE_TRIM_HORIZON};
use tango_metrics::{log_scoped, Counter, Events, Gauge, Histogram, Registry, Sampler, Tracer};

/// Client-side instruments (`corfu.client.*`).
///
/// The append latency histogram is paced by a 1-in-16 [`Sampler`]: the
/// counters stay exact, but only sampled operations pay the timer's clock
/// reads.
#[derive(Clone, Default)]
pub struct ClientMetrics {
    /// Sequencer tokens successfully acquired.
    pub tokens: Counter,
    /// Tail/backpointer queries (`tail_info` and the fast check).
    pub tail_queries: Counter,
    /// End-to-end latency of successful `append_streams` calls, ns
    /// (sampled).
    pub append_latency_ns: Histogram,
    /// Polls — one bulk re-read of whatever is still unwritten — spent in
    /// `wait_read_many` before every offset resolved (or was filled).
    pub hole_polls: Counter,
    /// `ReadBatch` round trips issued by `read_many`.
    pub read_batches: Counter,
    /// Operations retried because a server reported a newer epoch.
    pub seal_retries: Counter,
    /// Holes currently being chased by this client (raised when a fill
    /// starts, lowered when it resolves). The health plane reads this as
    /// `corfu.client.hole_backlog`.
    pub hole_backlog: Gauge,
    /// Fills that actually forced junk into the log (as opposed to
    /// discovering the slow writer won).
    pub junk_forced: Counter,
    /// Gate pacing the latency histogram above. The client's root trace
    /// spans share the same gate, so one sampling decision covers both
    /// the latency timer and the span (see `CorfuClient::append_streams`).
    pub sampler: Sampler,
    /// Span recorder for client root spans.
    pub tracer: Tracer,
    /// Control-plane event journal (hole fills, cross-log decisions).
    pub events: Events,
}

impl ClientMetrics {
    /// Binds the `corfu.client.*` names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            tokens: registry.counter("corfu.client.tokens"),
            tail_queries: registry.counter("corfu.client.tail_queries"),
            append_latency_ns: registry.histogram("corfu.client.append_latency_ns"),
            hole_polls: registry.counter("corfu.hole_polls"),
            read_batches: registry.counter("corfu.client.read_batches"),
            seal_retries: registry.counter("corfu.client.seal_retries"),
            hole_backlog: registry.gauge(tango_metrics::health::GAUGE_HOLE_BACKLOG),
            junk_forced: registry.counter(tango_metrics::health::COUNTER_JUNK_FORCED),
            sampler: Sampler::default(),
            tracer: registry.tracer(),
            events: registry.events(),
        }
    }
}

/// Per-log client instruments for a sharded deployment: what is worth
/// telling apart by shard. Log 0 keeps the bare name (see [`log_scoped`]).
#[derive(Clone, Default)]
pub struct ClientLogMetrics {
    /// Appends committed to this log (counting each part of a cross-log
    /// multiappend against the log it landed in).
    pub appends: Counter,
}

impl ClientLogMetrics {
    /// Binds the log-scoped `corfu.client.*` names in `registry`.
    pub fn for_log(registry: &Registry, log: u64) -> Self {
        Self { appends: registry.counter(&log_scoped("corfu.client.appends", log)) }
    }
}

/// Sequencer-side instruments (`corfu.seq.*`).
///
/// Binding with [`SequencerMetrics::for_log`] scopes every name to the
/// sequencer's log, so the shards of a sharded deployment are tellable
/// apart even when several sequencers share one registry. Log 0 keeps
/// the historical bare names.
#[derive(Clone, Default)]
pub struct SequencerMetrics {
    /// Tokens granted (`Next` and `NextObserve` requests that succeeded).
    pub tokens_granted: Counter,
    /// The highest raw offset granted (`corfu.seq.tail`, log-scoped).
    /// The health plane compares it against the runtime applied
    /// watermark to compute apply lag.
    pub tail: Gauge,
    /// This sequencer's current epoch (`tango.epoch`, log-scoped). The
    /// health plane flags divergence across nodes.
    pub epoch: Gauge,
    /// Span recorder for sequencer-side child spans: grants and queries
    /// record under the caller's trace when one arrives with the request.
    pub tracer: Tracer,
    /// Control-plane event journal (seals, stream adoptions).
    pub events: Events,
}

impl SequencerMetrics {
    /// Binds the log-0 `corfu.seq.*` names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self::for_log(registry, 0)
    }

    /// Binds the `corfu.seq.*` names scoped to `log` in `registry`.
    pub fn for_log(registry: &Registry, log: u64) -> Self {
        Self {
            tokens_granted: registry.counter(&log_scoped("corfu.seq.tokens_granted", log)),
            tail: registry.gauge(&log_scoped(tango_metrics::health::GAUGE_SEQ_TAIL, log)),
            epoch: registry.gauge(&log_scoped(tango_metrics::health::GAUGE_EPOCH, log)),
            tracer: registry.tracer(),
            events: registry.events(),
        }
    }
}

/// Storage-node instruments (`corfu.storage.*`), shared by every node bound
/// to the same registry.
///
/// The request counters keep their historical bare names even in sharded
/// deployments (every node bound to one registry aggregates); the trim
/// accounting and the occupancy/tiering family added for the reclamation
/// loop are log-scoped via [`log_scoped`] so a snapshot tells the shards
/// apart (log 0 keeps bare names).
#[derive(Clone, Default)]
pub struct StorageMetrics {
    /// Successful page reads (any outcome: data, junk, unwritten, trimmed).
    pub reads: Counter,
    /// Successful data writes.
    pub writes: Counter,
    /// Sizes of the `ReadBatch` requests this node served (pages per
    /// batch).
    pub read_batch: Histogram,
    /// Time a request waited for the node's unit lock before being
    /// serviced, ns (sampled). Together with the `flash.*.service_ns`
    /// histograms this decomposes storage latency into queue wait vs.
    /// device service time.
    pub queue_wait_ns: Histogram,
    /// Per-address trims accepted (`corfu.storage.random_trims`,
    /// log-scoped) — the expensive kind of reclamation on flash (§2.2).
    pub random_trims: Counter,
    /// Pages released by sequential prefix trims
    /// (`corfu.storage.prefix_trimmed_pages`, log-scoped).
    pub prefix_trimmed_pages: Counter,
    /// Live (untrimmed) pages on the unit ([`GAUGE_OCCUPANCY`],
    /// log-scoped). The health plane compares this against
    /// `tango_metrics::health::MAX_OCCUPANCY`.
    pub occupancy: Gauge,
    /// The unit's prefix-trim horizon ([`GAUGE_TRIM_HORIZON`], log-scoped).
    pub trim_horizon: Gauge,
    /// Live pages resident in the hot (RAM) tier (log-scoped).
    pub hot_pages: Gauge,
    /// Live pages resident in the cold (file) tier (log-scoped).
    pub cold_pages: Gauge,
    /// Migration passes that moved pages hot → cold (log-scoped).
    pub migrations: Counter,
    /// Pages migrated hot → cold (log-scoped).
    pub migrated_pages: Counter,
    /// Live pages released by tiered reclamation (log-scoped).
    pub reclaimed_pages: Counter,
    /// Pages whose checksums the scrub pass verified (log-scoped).
    pub scrubbed_pages: Counter,
    /// Scrub checksum failures, plus one per background pass that hit a
    /// storage error (log-scoped). Any nonzero value is bit rot or a failing
    /// device.
    pub scrub_errors: Counter,
    /// Gate pacing `queue_wait_ns`.
    pub sampler: Sampler,
    /// Span recorder for storage-side child spans.
    pub tracer: Tracer,
    /// Control-plane event journal (segment reclaims, cold migrations).
    pub events: Events,
}

impl StorageMetrics {
    /// Binds the `corfu.storage.*` names in `registry`, scoped to log 0.
    pub fn from_registry(registry: &Registry) -> Self {
        Self::for_log(registry, 0)
    }

    /// Binds the `corfu.storage.*` names in `registry`, with the trim and
    /// occupancy family scoped to `log`.
    pub fn for_log(registry: &Registry, log: u64) -> Self {
        Self {
            reads: registry.counter("corfu.storage.reads"),
            writes: registry.counter("corfu.storage.writes"),
            read_batch: registry.histogram("corfu.storage.read_batch"),
            queue_wait_ns: registry.histogram("flash.queue_wait_ns"),
            random_trims: registry.counter(&log_scoped("corfu.storage.random_trims", log)),
            prefix_trimmed_pages: registry
                .counter(&log_scoped("corfu.storage.prefix_trimmed_pages", log)),
            occupancy: registry.gauge(&log_scoped(GAUGE_OCCUPANCY, log)),
            trim_horizon: registry.gauge(&log_scoped(GAUGE_TRIM_HORIZON, log)),
            hot_pages: registry.gauge(&log_scoped("corfu.storage.hot_pages", log)),
            cold_pages: registry.gauge(&log_scoped("corfu.storage.cold_pages", log)),
            migrations: registry.counter(&log_scoped("corfu.storage.migrations", log)),
            migrated_pages: registry.counter(&log_scoped("corfu.storage.migrated_pages", log)),
            reclaimed_pages: registry.counter(&log_scoped("corfu.storage.reclaimed_pages", log)),
            scrubbed_pages: registry.counter(&log_scoped("corfu.storage.scrubbed_pages", log)),
            scrub_errors: registry.counter(&log_scoped("corfu.storage.scrub_errors", log)),
            sampler: Sampler::default(),
            tracer: registry.tracer(),
            events: registry.events(),
        }
    }
}

/// Reconfiguration instruments (`corfu.reconfig.*`), bound per call by the
/// [`crate::reconfig`] entry points against the coordinating client's
/// registry. Reconfiguration is not a hot path, so the registration lock is
/// acceptable there.
#[derive(Clone, Default)]
pub struct ReconfigMetrics {
    /// Completed stream remaps (stream moved to another log of a sharded
    /// deployment).
    pub stream_remaps: Counter,
    /// Control-plane event journal (seals, projection installs, remaps,
    /// replica replacements) — the flight recorder of the coordinating
    /// client.
    pub events: Events,
}

impl ReconfigMetrics {
    /// Binds the `corfu.reconfig.*` names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            stream_remaps: registry.counter("corfu.reconfig.stream_remaps"),
            events: registry.events(),
        }
    }
}
