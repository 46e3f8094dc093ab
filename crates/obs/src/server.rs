//! The serving layer's instrument bundle.
//!
//! `blot-server` registers these alongside the store's own metrics in
//! the *same* registry, so one `Stats` request (or `blot stats
//! --remote`) snapshots the whole serving stack at once. Names follow
//! the store's dotted convention under a `server.` prefix.

use crate::counter::{Counter, Gauge};
use crate::histogram::Histogram;
use crate::registry::MetricsRegistry;

/// Handles for everything the serving layer records. Cheap to clone;
/// clones share the underlying cells.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Currently open client connections (`server.connections`).
    pub connections: Gauge,
    /// Connections accepted over the server's lifetime
    /// (`server.connections_accepted`).
    pub accepted: Counter,
    /// Connections turned away at the accept loop because the handler
    /// pool was full — `min(max_conns, handlers)` connections open
    /// (`server.connections_rejected`).
    pub rejected: Counter,
    /// Queries currently waiting in the admission queue
    /// (`server.queue_depth`).
    pub queue_depth: Gauge,
    /// Queries shed with an `Overloaded` reply because the admission
    /// queue was full (`server.shed`).
    pub shed: Counter,
    /// Requests decoded, of any kind (`server.requests`).
    pub requests: Counter,
    /// Requests answered with a wire error (`server.request_errors`).
    pub request_errors: Counter,
    /// Wall-clock latency from frame decode to reply write, in
    /// milliseconds (`server.request_ms`).
    pub request_ms: Histogram,
    /// Queries per pooled micro-batch (`server.batch_size`); its count
    /// is the number of micro-batches executed.
    pub batch_size: Histogram,
}

impl ServerMetrics {
    /// Registers (or re-attaches to) the serving instruments in
    /// `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            connections: registry.gauge("server.connections"),
            accepted: registry.counter("server.connections_accepted"),
            rejected: registry.counter("server.connections_rejected"),
            queue_depth: registry.gauge("server.queue_depth"),
            shed: registry.counter("server.shed"),
            requests: registry.counter("server.requests"),
            request_errors: registry.counter("server.request_errors"),
            request_ms: registry.histogram("server.request_ms"),
            batch_size: registry.histogram("server.batch_size"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_snapshots() {
        let registry = MetricsRegistry::new();
        let a = ServerMetrics::register(&registry);
        let b = ServerMetrics::register(&registry);
        a.requests.inc();
        b.requests.inc();
        a.connections.add(1);
        a.request_ms.record(1.5);
        let snap = registry.snapshot();
        if crate::enabled() {
            assert_eq!(snap.counter("server.requests"), Some(2));
            assert_eq!(snap.gauge("server.connections"), Some(1));
            assert!(snap.histogram("server.request_ms").is_some());
        }
    }
}
