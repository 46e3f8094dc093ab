//! [`QueryService`] adapter: front a [`Coordinator`] with the
//! existing `blot-server` TCP layer.
//!
//! `Server::start` accepts any `QueryService`, so wrapping the
//! coordinator in [`RouterService`] gives the distributed tier the
//! whole serving stack — framing, admission control, micro-batching,
//! graceful drain, tracing — for free, and `blot query --remote`
//! is just the ordinary remote client pointed at it.

use std::sync::Arc;

use blot_core::obs::{DriftBand, DriftReport};
use blot_core::store::{QueryResult, QueryService, TracedQuery};
use blot_core::CoreError;
use blot_geo::Cuboid;
use blot_obs::{FlightRecorder, MetricsRegistry};
use blot_storage::ScanExecutor;

use crate::coordinator::{Coordinator, DistributedQueryResult, RouterConfig};
use crate::error::RouterError;
use crate::shardmap::ShardMap;

/// A [`Coordinator`] wearing the store's serving trait.
#[derive(Debug)]
pub struct RouterService {
    inner: Coordinator,
}

/// The coordinator has no replica of its own; the `replica` slot of a
/// merged [`QueryResult`] is fixed to this sentinel (each shard's real
/// routing decision is in the coordinator's trace and stats views).
pub const COORDINATOR_REPLICA: u32 = 0;

fn into_query_result(r: DistributedQueryResult) -> QueryResult {
    QueryResult {
        records: r.records,
        replica: COORDINATOR_REPLICA,
        sim_ms: r.sim_ms,
        makespan_ms: r.makespan_ms,
        partitions_scanned: r.partitions_scanned,
        units_skipped: r.units_skipped,
        bytes_skipped: r.bytes_skipped,
        failed_over: Vec::new(),
    }
}

impl RouterService {
    /// Builds the service (and its coordinator) over `map`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Coordinator::new`].
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Self, RouterError> {
        Ok(Self {
            inner: Coordinator::new(map, config)?,
        })
    }

    /// The coordinator behind the trait surface.
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.inner
    }
}

impl QueryService for RouterService {
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>> {
        let queries: Vec<(Cuboid, _)> = queries.iter().map(|q| (q.range, q.ctx)).collect();
        self.inner
            .query_batch_traced(&queries)
            .into_iter()
            .map(|r| r.map(into_query_result).map_err(CoreError::from))
            .collect()
    }

    fn recorder(&self) -> FlightRecorder {
        self.inner.recorder().clone()
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.inner.registry().clone()
    }

    fn drift_report(&self, band: DriftBand) -> DriftReport {
        // Drift is a per-shard, per-replica concern; the aggregated
        // view lives in `stats_json`'s per-shard documents.
        DriftReport::from_samples(band, [])
    }

    fn stats_json(&self, band: Option<DriftBand>) -> Option<String> {
        Some(self.inner.stats_json(band))
    }

    fn executor(&self) -> Arc<ScanExecutor> {
        Arc::clone(self.inner.executor())
    }
}

const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<RouterService>();
};
