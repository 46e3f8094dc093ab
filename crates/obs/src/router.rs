//! The coordinator's instrument bundle.
//!
//! `blot-router` registers these in its own registry (the coordinator
//! has no store of its own), so a `Stats` request against the
//! coordinator snapshots the routing layer alongside the aggregated
//! per-shard documents. Names follow the dotted convention under a
//! `router.` prefix; per-shard counters carry the shard id in the name
//! (`router.shard0.queries`), keeping the registry's flat string-keyed
//! model.

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::registry::MetricsRegistry;

/// Handles for everything the scatter-gather coordinator records.
/// Cheap to clone; clones share the underlying cells.
#[derive(Debug, Clone)]
pub struct RouterMetrics {
    /// Queries answered without touching every shard because the shard
    /// map pruned the fan-out (`router.fanout_pruned`).
    pub fanout_pruned: Counter,
    /// Shards touched per query (`router.fanout`); its count is the
    /// number of scatter-gather queries executed.
    pub fanout: Histogram,
    /// Wall-clock scatter→gather latency per query, in milliseconds
    /// (`router.gather_ms`).
    pub gather_ms: Histogram,
    /// Sub-queries retried after a shard shed or transport error
    /// (`router.retries`).
    pub retries: Counter,
    /// Queries that failed because a shard stayed unavailable
    /// (`router.shard_failures`).
    pub shard_failures: Counter,
    /// Per-shard sub-query counters (`router.shard{i}.queries`),
    /// indexed by shard id.
    pub shard_queries: Vec<Counter>,
    /// Per-shard sub-query error counters (`router.shard{i}.errors`),
    /// indexed by shard id.
    pub shard_errors: Vec<Counter>,
}

impl RouterMetrics {
    /// Registers (or re-attaches to) the routing instruments in
    /// `registry`, with per-shard counters for shard ids `0..shards`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, shards: u32) -> Self {
        let shard_queries = (0..shards)
            .map(|i| registry.counter(&format!("router.shard{i}.queries")))
            .collect();
        let shard_errors = (0..shards)
            .map(|i| registry.counter(&format!("router.shard{i}.errors")))
            .collect();
        Self {
            fanout_pruned: registry.counter("router.fanout_pruned"),
            fanout: registry.histogram("router.fanout"),
            gather_ms: registry.histogram("router.gather_ms"),
            retries: registry.counter("router.retries"),
            shard_failures: registry.counter("router.shard_failures"),
            shard_queries,
            shard_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_covers_every_shard_and_snapshots() {
        let registry = MetricsRegistry::new();
        let m = RouterMetrics::register(&registry, 4);
        assert_eq!(m.shard_queries.len(), 4);
        assert_eq!(m.shard_errors.len(), 4);
        m.fanout.record(3.0);
        for c in &m.shard_queries {
            c.inc();
        }
        let snap = registry.snapshot();
        if crate::enabled() {
            assert_eq!(snap.counter("router.shard3.queries"), Some(1));
            assert_eq!(snap.histogram("router.fanout").map(|h| h.count()), Some(1));
        }
    }
}
