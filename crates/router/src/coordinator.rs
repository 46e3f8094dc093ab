//! The scatter-gather coordinator.
//!
//! One [`Coordinator`] owns a versioned [`ShardMap`] and a
//! [`ShardPool`]; a query is (1) fanned out to exactly the shards the
//! map says could hold matching records, (2) gathered under a
//! deadline, and (3) merged into the canonical `(oid, time)` order —
//! bit-identical to running the same query against one store holding
//! the whole fleet, because shards partition the records and the
//! final filter/sort are deterministic.
//!
//! Failure semantics: all-or-nothing. If any shard leg fails after
//! the pool's retries, the whole query fails with a structured
//! [`RouterError`] naming the shard and carrying a retry hint;
//! successful legs are discarded, never silently merged into a
//! partial answer.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blot_core::obs::{DriftBand, DriftReport};
use blot_geo::Cuboid;
use blot_json::Json;
use blot_model::RecordBatch;
use blot_obs::trace::TraceSpan;
use blot_obs::{names, FlightRecorder, MetricsRegistry, RouterMetrics, SpanContext};
use blot_server::stats;
use blot_storage::ScanExecutor;

use crate::error::RouterError;
use crate::pool::{Job, PoolConfig, ShardPool, ShardReply, DEFAULT_RETRY_HINT_MS};
use crate::shardmap::ShardMap;

/// Tuning for a coordinator.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Connection pool, and the client config its workers retry with.
    pub pool: PoolConfig,
    /// Deadline for all shards of one query to reply, measured from
    /// dispatch. Generous by default: the clients' I/O timeouts and
    /// retry caps bound each leg well below this.
    pub gather_timeout: Duration,
    /// Flight-recorder ring capacity (spans).
    pub recorder_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            pool: PoolConfig::default(),
            gather_timeout: Duration::from_secs(30),
            recorder_capacity: 4096,
        }
    }
}

/// One shard's contribution to a merged result.
#[derive(Debug, Clone)]
pub struct ShardLeg {
    /// The shard id.
    pub shard: u32,
    /// The replica the shard's local selection routed to.
    pub replica: u32,
    /// Records the shard contributed.
    pub records: usize,
    /// The shard's simulated scan cost, ms.
    pub sim_ms: f64,
    /// Wall time of this leg, ms: from the coordinator's dispatch of
    /// the query to the shard's reply being decoded, so it includes
    /// waiting for a pooled connection and any retries. The slowest
    /// leg's `wall_ms` is what the gather waited for.
    pub wall_ms: f64,
    /// Of that, how long the query waited in the shard server's own
    /// admission queue, ms (as the shard reported it).
    pub admission_ms: f64,
    /// Storage units the shard's zone maps skipped.
    pub units_skipped: u64,
    /// Payload bytes the shard never fetched thanks to pruning.
    pub bytes_skipped: u64,
    /// Retries the pool spent on this leg.
    pub retries: u32,
}

/// A merged scatter-gather result.
#[derive(Debug, Clone)]
pub struct DistributedQueryResult {
    /// All matching records, sorted by `(oid, time)` — the same order
    /// and content a single store holding the whole fleet returns.
    pub records: RecordBatch,
    /// Sum of per-shard simulated costs, ms.
    pub sim_ms: f64,
    /// Max of per-shard simulated makespans, ms (shards run in
    /// parallel).
    pub makespan_ms: f64,
    /// Sum of per-shard partitions scanned.
    pub partitions_scanned: usize,
    /// Sum of per-shard units skipped by zone maps.
    pub units_skipped: usize,
    /// Sum of per-shard bytes never fetched.
    pub bytes_skipped: u64,
    /// Shards this query fanned out to.
    pub fanout: u32,
    /// Per-shard breakdown, ascending by shard id.
    pub shards: Vec<ShardLeg>,
}

/// The coordinator: shard map + pool + instruments.
#[derive(Debug)]
pub struct Coordinator {
    map: ShardMap,
    pool: ShardPool,
    registry: MetricsRegistry,
    metrics: RouterMetrics,
    recorder: FlightRecorder,
    executor: Arc<ScanExecutor>,
    config: RouterConfig,
}

/// An in-flight scattered query awaiting its gather.
struct Pending {
    root: TraceSpan,
    legs: Vec<(u32, TraceSpan)>,
    rx: std::sync::mpsc::Receiver<ShardReply>,
    /// Sub-queries that never reached a worker (pool shut down); the
    /// gather consumes these before listening on `rx`.
    failed: Vec<ShardReply>,
    started: Instant,
}

impl Coordinator {
    /// Builds a coordinator over `map` and spawns its connection pool.
    /// Shard connections are opened lazily on first use, so shards may
    /// come up after the coordinator does.
    ///
    /// # Errors
    ///
    /// [`RouterError::Spawn`] when a pool worker thread cannot be
    /// spawned.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Self, RouterError> {
        let pool = ShardPool::new(&map, &config.pool)?;
        let registry = MetricsRegistry::new();
        let metrics = RouterMetrics::register(&registry, map.len());
        let recorder = FlightRecorder::new(config.recorder_capacity);
        Ok(Self {
            map,
            pool,
            registry,
            metrics,
            recorder,
            executor: Arc::new(ScanExecutor::new(1)),
            config,
        })
    }

    /// The shard map this coordinator routes by.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The registry holding the router's instruments.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The coordinator's flight recorder (scatter-gather span trees).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The (trivial, single-thread) executor handle a fronting server
    /// drains on graceful shutdown.
    #[must_use]
    pub fn executor(&self) -> &Arc<ScanExecutor> {
        &self.executor
    }

    /// Scatter-gathers one range query. See the module docs for merge
    /// and failure semantics.
    ///
    /// # Errors
    ///
    /// [`RouterError::ShardUnavailable`] when a shard stayed
    /// unreachable / shed past the retry budget or missed the gather
    /// deadline; [`RouterError::ShardFatal`] when a shard answered
    /// with a non-retryable error.
    pub fn query(&self, range: &Cuboid) -> Result<DistributedQueryResult, RouterError> {
        let pending = self.scatter(range, None);
        self.gather(pending)
    }

    /// Scatter-gathers a micro-batch: every query's sub-queries are
    /// dispatched before any gather starts, so the shards' pools work
    /// all legs of the batch concurrently (the distributed analogue of
    /// the store's `query_batch` pooling). One entry per input range,
    /// in order.
    ///
    /// # Errors
    ///
    /// Each entry fails independently with the same contract as
    /// [`Coordinator::query`]; one shard's failure does not poison the
    /// batch's other queries.
    #[must_use]
    pub fn query_batch_traced(
        &self,
        queries: &[(Cuboid, Option<SpanContext>)],
    ) -> Vec<Result<DistributedQueryResult, RouterError>> {
        let pending: Vec<Pending> = queries
            .iter()
            .map(|(range, ctx)| self.scatter(range, *ctx))
            .collect();
        pending.into_iter().map(|p| self.gather(p)).collect()
    }

    /// Dispatches one query's sub-queries to the pool and returns the
    /// gather handle.
    fn scatter(&self, range: &Cuboid, parent: Option<SpanContext>) -> Pending {
        let mut root = match parent {
            Some(ctx) => self.recorder.span_under(ctx, names::ROUTER_QUERY),
            None => self.recorder.span(names::ROUTER_QUERY),
        };
        let targets = self.map.fanout(range);
        self.metrics.queries.inc();
        #[allow(clippy::cast_precision_loss)]
        self.metrics.fanout.record(targets.len() as f64);
        if targets.len() < self.map.len() as usize {
            self.metrics.fanout_pruned.inc();
        }
        root.note(names::FANOUT, targets.len() as u64);
        let started = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel::<ShardReply>();
        let mut legs = Vec::with_capacity(targets.len());
        let mut failed = Vec::new();
        for shard in targets {
            let mut leg = root.child(names::ROUTER_SHARD);
            leg.note(names::SHARD, u64::from(shard));
            if let Some(c) = self.metrics.shard_queries.get(shard as usize) {
                c.inc();
            }
            let job = Job::Query {
                range: *range,
                // The shard's server parents its own span tree under
                // this leg, so a remote trace shows the full path:
                // client → router.query → router.shard → server.request.
                ctx: leg.context(),
                dispatched: started,
                reply: tx.clone(),
            };
            if !self.pool.submit(shard, job) {
                // Workers only exit when the pool is dropped; record
                // the failure for the gather to consume first.
                failed.push(ShardReply {
                    shard,
                    outcome: Err(crate::pool::ShardFailure {
                        retryable: true,
                        retry_after_ms: DEFAULT_RETRY_HINT_MS,
                        detail: "shard pool is shut down".to_owned(),
                    }),
                    retries: 0,
                    wall_ms: 0.0,
                });
            }
            legs.push((shard, leg));
        }
        Pending {
            root,
            legs,
            rx,
            failed,
            started,
        }
    }

    /// Waits for every leg, then merges or fails as a whole.
    fn gather(&self, pending: Pending) -> Result<DistributedQueryResult, RouterError> {
        let Pending {
            mut root,
            legs,
            rx,
            failed,
            started,
        } = pending;
        let expected = legs.len();
        let fanout = u32::try_from(expected).unwrap_or(u32::MAX);
        let mut legs: Vec<(u32, Option<TraceSpan>)> =
            legs.into_iter().map(|(s, l)| (s, Some(l))).collect();
        let deadline = started + self.config.gather_timeout;
        let mut replies: Vec<ShardReply> = Vec::with_capacity(expected);
        for reply in failed {
            if let Some(slot) = legs.iter_mut().find(|(s, _)| *s == reply.shard) {
                if let Some(leg) = slot.1.take() {
                    leg.finish();
                }
            }
            replies.push(reply);
        }
        let mut timed_out: Option<u32> = None;
        while replies.len() < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(reply) => {
                    // Close this leg's span now so its duration is the
                    // true dispatch→reply wall time.
                    if let Some(slot) = legs.iter_mut().find(|(s, _)| *s == reply.shard) {
                        if let Some(leg) = slot.1.take() {
                            leg.finish();
                        }
                    }
                    replies.push(reply);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    // Deterministic victim: the smallest shard id that
                    // has not replied.
                    timed_out = legs
                        .iter()
                        .filter(|(_, leg)| leg.is_some())
                        .map(|(s, _)| *s)
                        .min();
                    break;
                }
            }
        }
        for (_, leg) in legs {
            if let Some(leg) = leg {
                leg.finish();
            }
        }
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        self.metrics.gather_ms.record(elapsed_ms);
        if let Some(shard) = timed_out {
            self.metrics.shard_failures.inc();
            if let Some(c) = self.metrics.shard_errors.get(shard as usize) {
                c.inc();
            }
            root.finish();
            return Err(RouterError::ShardUnavailable {
                shard,
                addr: self.map.addr(shard).unwrap_or("?").to_owned(),
                retry_after_ms: DEFAULT_RETRY_HINT_MS,
                detail: format!(
                    "no reply within the {} ms gather deadline",
                    self.config.gather_timeout.as_millis()
                ),
            });
        }
        // Deterministic merge and failure order: ascending shard id.
        replies.sort_by_key(|r| r.shard);
        let mut total_retries = 0u64;
        for r in &replies {
            total_retries = total_retries.saturating_add(u64::from(r.retries));
        }
        if total_retries > 0 {
            self.metrics.retries.add(total_retries);
        }
        if let Some(failed) = replies.iter().find(|r| r.outcome.is_err()) {
            self.metrics.shard_failures.inc();
            for r in &replies {
                if r.outcome.is_err() {
                    if let Some(c) = self.metrics.shard_errors.get(r.shard as usize) {
                        c.inc();
                    }
                }
            }
            let shard = failed.shard;
            let addr = self.map.addr(shard).unwrap_or("?").to_owned();
            let err = match &failed.outcome {
                Err(f) if !f.retryable => RouterError::ShardFatal {
                    shard,
                    addr,
                    detail: f.detail.clone(),
                },
                Err(f) => RouterError::ShardUnavailable {
                    shard,
                    addr,
                    retry_after_ms: f.retry_after_ms.max(DEFAULT_RETRY_HINT_MS),
                    detail: f.detail.clone(),
                },
                Ok(_) => RouterError::ShardUnavailable {
                    shard,
                    addr,
                    retry_after_ms: DEFAULT_RETRY_HINT_MS,
                    detail: "unreachable: find() matched an Err outcome".to_owned(),
                },
            };
            root.finish();
            return Err(err);
        }
        let mut merged = RecordBatch::new();
        let mut sim_ms = 0.0f64;
        let mut makespan_ms = 0.0f64;
        let mut partitions_scanned = 0usize;
        let mut units_skipped = 0usize;
        let mut bytes_skipped = 0u64;
        let mut shards = Vec::with_capacity(replies.len());
        for reply in &replies {
            if let Ok(r) = &reply.outcome {
                merged.extend_from(&r.records);
                sim_ms += r.sim_ms;
                makespan_ms = makespan_ms.max(r.makespan_ms);
                partitions_scanned =
                    partitions_scanned.saturating_add(r.partitions_scanned as usize);
                units_skipped =
                    units_skipped.saturating_add(usize::try_from(r.units_skipped).unwrap_or(0));
                bytes_skipped = bytes_skipped.saturating_add(r.bytes_skipped);
                shards.push(ShardLeg {
                    shard: reply.shard,
                    replica: r.replica,
                    records: r.records.len(),
                    sim_ms: r.sim_ms,
                    wall_ms: reply.wall_ms,
                    admission_ms: r.admission_ms,
                    units_skipped: r.units_skipped,
                    bytes_skipped: r.bytes_skipped,
                    retries: reply.retries,
                });
            }
        }
        // Canonical order: shards partition the records, so sorting
        // the concatenation reproduces a single store's output
        // bit-for-bit.
        merged.sort_by_oid_time();
        root.note(names::RECORDS, merged.len() as u64);
        root.set_sim_ms(sim_ms);
        root.finish();
        Ok(DistributedQueryResult {
            records: merged,
            sim_ms,
            makespan_ms,
            partitions_scanned,
            units_skipped,
            bytes_skipped,
            fanout,
            shards,
        })
    }

    /// The stats document of a single server (`blot_server::stats`),
    /// over the coordinator's own instruments, extended with every
    /// shard's: `pruning` is the shards' sum, `coordinator` is `true`,
    /// `shard_map` is the map, and `shards` holds each shard's document
    /// or its error.
    #[must_use]
    pub fn stats_json(&self, band: Option<DriftBand>) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut expected = 0usize;
        for shard in 0..self.map.len() {
            let job = Job::Stats {
                band,
                reply: tx.clone(),
            };
            if self.pool.submit(shard, job) {
                expected += 1;
            }
        }
        let deadline = Instant::now() + self.config.gather_timeout;
        let mut docs: Vec<(u32, Result<String, String>)> = Vec::with_capacity(expected);
        while docs.len() < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok((shard, outcome)) => {
                    docs.push((shard, outcome.map_err(|f| f.detail)));
                }
                Err(_) => break,
            }
        }
        docs.sort_by_key(|(shard, _)| *shard);
        let mut units_skipped = 0u64;
        let mut bytes_skipped = 0u64;
        let mut shard_docs = Vec::with_capacity(docs.len());
        for (shard, outcome) in docs {
            let mut entry = vec![
                ("shard".to_owned(), Json::Num(f64::from(shard))),
                (
                    "addr".to_owned(),
                    Json::Str(self.map.addr(shard).unwrap_or("?").to_owned()),
                ),
                ("ok".to_owned(), Json::Bool(outcome.is_ok())),
            ];
            match outcome {
                Ok(doc) => {
                    let parsed = Json::parse(&doc).unwrap_or_else(|_| Json::Obj(Vec::new()));
                    let skipped = |key| {
                        parsed
                            .get("pruning")
                            .and_then(|p| p.get(key))
                            .and_then(Json::as_u64)
                            .unwrap_or(0)
                    };
                    units_skipped = units_skipped.saturating_add(skipped("units_skipped"));
                    bytes_skipped = bytes_skipped.saturating_add(skipped("bytes_skipped"));
                    entry.push(("stats".to_owned(), parsed));
                }
                Err(detail) => entry.push(("error".to_owned(), Json::Str(detail))),
            }
            shard_docs.push(Json::Obj(entry));
        }
        // The coordinator scans nothing itself: its pruning is what its
        // shards saved, and drift lives in each shard's document.
        let no_drift = DriftReport::from_samples(band.unwrap_or_default(), []);
        let mut doc = stats::document(
            &self.registry.snapshot(),
            &no_drift,
            Some((units_skipped, bytes_skipped)),
        );
        doc.extend([
            ("coordinator".to_owned(), Json::Bool(true)),
            ("shard_map".to_owned(), self.map.to_json()),
            ("shards".to_owned(), Json::Arr(shard_docs)),
        ]);
        Json::Obj(doc).to_string()
    }
}
