//! An executable BLOT store with diverse replicas.
//!
//! Ties the whole paper together (Figure 1 / Figure 2): physical
//! replicas are built by partitioning + encoding the logical dataset;
//! each incoming range query is routed to the replica with the lowest
//! *estimated* cost; damaged storage units are repaired from any other
//! replica because "diverse replicas can recover each other when
//! failures occur \[since\] they share the same logical view of the data"
//! (§I).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blot_codec::{EncodingScheme, ZoneMap, ZONE_MAP_FOOTER_LEN};
use blot_geo::Cuboid;
use blot_index::PartitioningScheme;
use blot_model::RecordBatch;
use blot_obs::{
    names, FlightRecorder, MetricsRegistry, Snapshot, Span, SpanContext, SpanHandle, TraceId,
    TraceSpan,
};
use blot_storage::scan::{run_scan, ScanReport, ScanTask};
use blot_storage::sync::{Mutex, RwLock};
use blot_storage::{Backend, EnvProfile, ScanExecutor, StorageError, UnitKey};

use crate::cost::CostModel;
use crate::obs::{DriftBand, DriftReport, ReplicaMetrics, StoreMetrics};
use crate::replica::ReplicaConfig;
use crate::units::Millis;
use crate::CoreError;

/// A physical replica that has been built into the backend.
#[derive(Debug)]
pub struct BuiltReplica {
    /// Replica id (index into the store's replica list).
    pub id: u32,
    /// The configuration it was built from.
    pub config: ReplicaConfig,
    /// Its partitioning scheme (with per-partition counts of the built
    /// data).
    pub scheme: PartitioningScheme,
    /// Records stored.
    pub records: u64,
    /// Encoded bytes across all its storage units.
    pub bytes: u64,
    /// Per-replica instrument handles (routing wins, query costs,
    /// cost-model drift).
    pub obs: ReplicaMetrics,
    /// The zone-map half of the in-memory partition index: one entry
    /// per storage unit, in partition order, refreshed at every write
    /// the store performs (build, ingest, repair) and read back from the
    /// unit footers on restore.
    zones: RwLock<Vec<UnitEntry>>,
}

impl BuiltReplica {
    /// A copy of the partition index's per-unit entries, in partition
    /// order.
    #[must_use]
    pub fn unit_entries(&self) -> Vec<UnitEntry> {
        self.zones.read().clone()
    }

    /// Records what was just written as unit `pid`.
    fn set_entry(&self, pid: usize, entry: UnitEntry) {
        if let Some(slot) = self.zones.write().get_mut(pid) {
            *slot = entry;
        }
    }
}

/// What the in-memory partition index knows about one storage unit,
/// taken from the very bytes handed to [`Backend::put`]. The on-disk
/// footer stays the only persistent copy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitEntry {
    /// The unit's zone map; `None` when its footer is missing (legacy
    /// unit) or unreadable — such a unit is never pruned, only scanned.
    pub zone_map: Option<ZoneMap>,
    /// The unit's length in bytes.
    pub len: u64,
}

impl UnitEntry {
    /// The entry of a unit `len` bytes long that ends in `tail` (the
    /// whole unit, or at least its last [`ZONE_MAP_FOOTER_LEN`] bytes).
    fn new(tail: &[u8], len: u64) -> Self {
        let zone_map = ZoneMap::split_footer(tail).ok().and_then(|(_, zm)| zm);
        Self { zone_map, len }
    }

    /// The entry of a whole encoded unit.
    fn of(unit: &[u8]) -> Self {
        Self::new(unit, unit.len() as u64)
    }

    /// Bit-exact agreement (see [`ZoneMap::same_bits`]); two missing
    /// zone maps agree.
    #[must_use]
    pub fn same_bits(&self, other: &Self) -> bool {
        self.len == other.len
            && match (&self.zone_map, &other.zone_map) {
                (Some(a), Some(b)) => a.same_bits(b),
                (None, None) => true,
                _ => false,
            }
    }
}

/// One query planned on one replica, before any I/O: what it is
/// predicted to cost, which involved units the partition index ruled
/// out, and one scan task per surviving unit.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// Replica planned on.
    pub replica: u32,
    /// The model's `Cost(q, r)` in simulated ms — a function of the
    /// involved partitions only, not (yet) of the survivors.
    pub predicted_ms: f64,
    /// Partitions the range touches, pruned ones included.
    pub units_involved: usize,
    /// Of those, ruled out by their zone map: no task, no backend call,
    /// 0 simulated ms.
    pub units_skipped: usize,
    /// Payload bytes the skipped units will never transfer.
    pub bytes_skipped: u64,
    /// Total length of the surviving units.
    pub surviving_bytes: u64,
    /// One scan task per surviving unit, in partition order.
    pub tasks: Vec<ScanTask>,
}

/// Result of one range query.
#[derive(Debug)]
pub struct QueryResult {
    /// Matching records (order unspecified).
    pub records: RecordBatch,
    /// Replica that served the query.
    pub replica: u32,
    /// Σ simulated task milliseconds (the paper's query cost).
    pub sim_ms: f64,
    /// Simulated wall-clock with fully parallel mappers.
    pub makespan_ms: f64,
    /// Involved partitions planned.
    pub partitions_scanned: usize,
    /// Involved partitions the partition index's zone maps ruled out at
    /// plan time — counted within `partitions_scanned`, but never
    /// scanned: no backend call, 0 simulated ms.
    pub units_skipped: usize,
    /// Payload bytes the skipped partitions never transferred.
    pub bytes_skipped: u64,
    /// Replicas that failed before one answered (failover path).
    pub failed_over: Vec<u32>,
}

/// One query of a traced micro-batch: the range plus the trace context
/// it should execute under. `ctx: Some(..)` joins an existing trace
/// (e.g. one a remote client opened and shipped over the wire); `None`
/// starts a fresh trace for this query.
#[derive(Debug, Clone, Copy)]
pub struct TracedQuery {
    /// The query range.
    pub range: Cuboid,
    /// Adopted trace context, if the caller already has one.
    pub ctx: Option<SpanContext>,
}

impl TracedQuery {
    /// A traced query with no pre-existing context (fresh trace).
    #[must_use]
    pub fn new(range: Cuboid) -> Self {
        Self { range, ctx: None }
    }
}

/// One offender captured by the slow-query log: enough structured
/// context to attribute the time (and the cost-model's miss) to a
/// specific query, replica and encoding scheme.
#[derive(Debug, Clone, Copy)]
pub struct SlowQueryEntry {
    /// Trace id of the offending query (zero when it ran untraced).
    pub trace: TraceId,
    /// Replica that served it.
    pub replica: u32,
    /// That replica's encoding scheme.
    pub scheme: EncodingScheme,
    /// Involved storage units planned (including zone-map-skipped ones).
    pub units_scanned: usize,
    /// Involved units skipped via their zone map.
    pub units_skipped: usize,
    /// The cost model's predicted `Cost(q, r)` in simulated ms.
    pub predicted_ms: f64,
    /// Measured simulated ms (the paper's query cost).
    pub measured_ms: f64,
    /// The threshold that was in force when the entry was captured.
    pub threshold_ms: f64,
}

impl SlowQueryEntry {
    /// Predicted / measured cost ratio (0 when nothing was measured):
    /// a per-query drift sample, < 1 when the model was optimistic.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.measured_ms > 0.0 {
            self.predicted_ms / self.measured_ms
        } else {
            0.0
        }
    }

    /// The structured log line for this offender.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "slow-query trace={} replica={} scheme={} sim_ms={:.3} threshold_ms={:.3} \
             units={} skipped={} predicted_ms={:.3} ratio={:.3}",
            self.trace,
            self.replica,
            self.scheme.metric_label(),
            self.measured_ms,
            self.threshold_ms,
            self.units_scanned,
            self.units_skipped,
            self.predicted_ms,
            self.ratio(),
        )
    }
}

/// Report of a [`BlotStore::repair_all`] pass.
#[derive(Debug, Default)]
pub struct RepairReport {
    /// Units found damaged and rebuilt.
    pub repaired: Vec<UnitKey>,
    /// Units found damaged with no surviving source.
    pub unrecoverable: Vec<UnitKey>,
    /// Units examined by the scrub phase of this pass. Sourced from the
    /// store metrics: 0 when `blot-obs` is compiled out.
    pub units_scanned: u64,
    /// Units that read back and decoded cleanly during the scrub phase.
    /// Sourced from the store metrics: 0 when `blot-obs` is compiled out.
    pub units_verified: u64,
    /// Damaged units successfully rebuilt (`repaired.len()`).
    pub units_repaired: u64,
    /// Damaged units with no surviving source (`unrecoverable.len()`).
    pub units_failed: u64,
    /// Units flagged because their zone-map footer — or their entry in
    /// the partition index — disagreed with (or was missing for) the
    /// decoded payload — a subset of the damaged count. Repair rewrites
    /// them with a fresh footer and entry. Sourced from the store
    /// metrics: 0 when `blot-obs` is compiled out.
    pub units_footer_mismatch: u64,
}

/// Result of one [`BlotStore::ingest`] call.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Records appended (to every replica).
    pub records: usize,
    /// Storage units rewritten across all replicas.
    pub units_rewritten: usize,
}

/// A BLOT store over a storage backend and a simulated environment.
///
/// All unit-granular work — query scans, replica builds, ingest
/// re-encodes, scrub verifies, repair extraction — runs on one shared
/// [`ScanExecutor`] pool created with the store (or passed in via
/// [`with_pool`](Self::with_pool) to share across stores).
#[derive(Debug)]
pub struct BlotStore<B> {
    backend: Arc<B>,
    env: EnvProfile,
    universe: Cuboid,
    model: CostModel,
    replicas: Vec<BuiltReplica>,
    /// Shared executor for all unit-granular work.
    pool: Arc<ScanExecutor>,
    /// Instrument handles (see [`crate::obs`]).
    metrics: StoreMetrics,
    /// Per-store flight recorder holding the most recent trace spans.
    recorder: FlightRecorder,
    /// Slow-query threshold in simulated ms as `f64` bits (0 = off).
    slow_ms_bits: AtomicU64,
    /// Bounded slow-query log, oldest evicted.
    slow_log: Mutex<VecDeque<SlowQueryEntry>>,
}

/// Spans the per-store flight recorder retains (oldest evicted).
const TRACE_CAPACITY: usize = 4096;

/// Entries the slow-query log retains (oldest evicted).
const SLOW_LOG_CAPACITY: usize = 256;

/// Converts a partition index to its storage id, surfacing overflow
/// instead of silently truncating.
fn partition_id(pid: usize) -> Result<u32, CoreError> {
    u32::try_from(pid).map_err(|_| CoreError::IdOverflow { what: "partition" })
}

/// One query on its way through [`BlotStore::run_queries`].
struct QueryPlan<'a> {
    range: Cuboid,
    /// Replicas not tried yet, cheapest first.
    untried: std::vec::IntoIter<u32>,
    /// Replicas that failed, in the order they were tried.
    failed_over: Vec<u32>,
    /// This round's attempt: the replica and the query's plan on it.
    attempt: Option<(&'a BuiltReplica, ScanPlan)>,
    /// The `store.query` root span of a traced query.
    root: Option<TraceSpan>,
    /// Wall-time span of a routed query, recorded when the plan drops.
    _wall: Option<Span>,
    /// Set once the query is answered (or out of replicas).
    answer: Option<Result<QueryResult, CoreError>>,
}

impl QueryPlan<'_> {
    /// Closes the root span (annotated from a successful result) and
    /// stores the answer.
    fn finish(&mut self, answer: Result<QueryResult, CoreError>) {
        if let Some(mut span) = self.root.take() {
            if let Ok(r) = &answer {
                span.note(names::REPLICA, u64::from(r.replica));
                span.note(names::UNITS, r.partitions_scanned as u64);
                span.note(names::UNITS_SKIPPED, r.units_skipped as u64);
                span.note(names::FAILED_OVER, r.failed_over.len() as u64);
                span.set_sim_ms(r.sim_ms);
            }
        }
        self.answer = Some(answer);
    }
}

/// Scans one storage unit, recording a `scan.unit` span (with a
/// `unit.decode` child) under `trace`. A detached handle takes the
/// exact untraced path.
fn scan_one_unit(
    backend: &dyn Backend,
    env: &EnvProfile,
    task: &ScanTask,
    trace: &SpanHandle,
) -> Result<ScanReport, StorageError> {
    if trace.context().is_none() {
        return run_scan(backend, env, task, trace);
    }
    let mut unit = trace.child(names::SCAN_UNIT);
    unit.note(names::PARTITION, u64::from(task.key.partition));
    let report = run_scan(backend, env, task, &unit.handle());
    if let Ok(r) = &report {
        unit.note(names::BYTES, r.bytes);
        unit.set_sim_ms(r.sim_ms);
    }
    report
}

impl<B: Backend + 'static> BlotStore<B> {
    /// Creates an empty store with its own executor pool sized from
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn new(backend: B, env: EnvProfile, universe: Cuboid, model: CostModel) -> Self {
        Self::with_pool(
            backend,
            env,
            universe,
            model,
            Arc::new(ScanExecutor::with_default_parallelism()),
        )
    }

    /// Creates an empty store sharing an existing executor pool —
    /// multiple stores on one host should share one pool rather than
    /// oversubscribing the machine.
    #[must_use]
    pub fn with_pool(
        backend: B,
        env: EnvProfile,
        universe: Cuboid,
        model: CostModel,
        pool: Arc<ScanExecutor>,
    ) -> Self {
        let metrics = StoreMetrics::new();
        pool.attach_metrics(metrics.registry());
        Self {
            backend: Arc::new(backend),
            env,
            universe,
            model,
            replicas: Vec::new(),
            pool,
            metrics,
            recorder: FlightRecorder::new(TRACE_CAPACITY),
            slow_ms_bits: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// The store's flight recorder. Traced queries
    /// ([`query_batch_traced`](Self::query_batch_traced)) record their
    /// span trees here; untraced queries record nothing.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Sets the slow-query threshold in simulated milliseconds. Any
    /// query whose measured simulated cost exceeds it is captured in
    /// the slow-query log; `ms <= 0` disables the log.
    pub fn set_slow_query_ms(&self, ms: f64) {
        let bits = if ms > 0.0 { ms.to_bits() } else { 0 };
        self.slow_ms_bits.store(bits, Ordering::Relaxed);
    }

    /// The current slow-query threshold, if the log is enabled.
    #[must_use]
    pub fn slow_query_ms(&self) -> Option<f64> {
        let bits = self.slow_ms_bits.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Removes and returns every slow-query entry captured so far,
    /// oldest first.
    pub fn drain_slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slow_log.lock().drain(..).collect()
    }

    /// The store's shared scan-executor pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<ScanExecutor> {
        &self.pool
    }

    /// The store's instrument handles.
    #[must_use]
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// A point-in-time copy of every metric the store (and its executor
    /// pool) has recorded. Empty when `blot-obs` is compiled out.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.registry().snapshot()
    }

    /// Evaluates cost-model drift against `band`: per-replica
    /// predicted/actual ratio histograms are merged by encoding scheme
    /// and each scheme's median is checked against the band.
    #[must_use]
    pub fn drift_report(&self, band: DriftBand) -> DriftReport {
        DriftReport::from_samples(
            band,
            self.replicas
                .iter()
                .map(|r| (r.config.encoding, r.obs.drift.snapshot())),
        )
    }

    /// The store's backend (for failure injection in tests and for
    /// inspecting storage use).
    #[must_use]
    pub fn backend(&self) -> &B {
        self.backend.as_ref()
    }

    /// The built replicas.
    #[must_use]
    pub fn replicas(&self) -> &[BuiltReplica] {
        &self.replicas
    }

    /// The store's universe.
    #[must_use]
    pub fn universe(&self) -> Cuboid {
        self.universe
    }

    /// The calibrated cost model routing queries.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Total encoded bytes across all replicas.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.replicas.iter().map(|r| r.bytes).sum()
    }

    /// Builds a physical replica of `data` under `config`: partitions
    /// the records, encodes every partition on the executor pool, and
    /// writes the storage units in partition order. Returns the new
    /// replica's id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Storage`] if a unit cannot be written.
    pub fn build_replica(
        &mut self,
        data: &RecordBatch,
        config: ReplicaConfig,
    ) -> Result<u32, CoreError> {
        let id = u32::try_from(self.replicas.len())
            .map_err(|_| CoreError::IdOverflow { what: "replica" })?;
        let _span = Span::start(&self.metrics.build_wall_ms);
        let scheme = PartitioningScheme::build(data, self.universe, config.spec);
        let parts = scheme.assign_batch(data);
        let keys: Vec<UnitKey> = (0..parts.len())
            .map(|pid| {
                Ok(UnitKey {
                    replica: id,
                    partition: partition_id(pid)?,
                })
            })
            .collect::<Result<_, CoreError>>()?;
        // CPU-heavy encodes fan out on the pool; the (ordered) backend
        // puts stay on this thread.
        let encoding = config.encoding;
        let encodes: Vec<_> = parts
            .into_iter()
            .map(|part| move || Ok(encoding.encode(&part)))
            .collect();
        let units = self.pool.execute_all(encodes)?;
        let mut bytes = 0u64;
        let mut zones = Vec::with_capacity(keys.len());
        for (key, unit) in keys.into_iter().zip(units) {
            bytes += unit.len() as u64;
            self.metrics.build_units.inc();
            zones.push(UnitEntry::of(&unit));
            self.backend.put(key, unit)?;
        }
        self.replicas.push(BuiltReplica {
            id,
            config,
            scheme,
            records: data.len() as u64,
            bytes,
            obs: self.metrics.replica(id, config.encoding),
            zones: RwLock::new(zones),
        });
        Ok(id)
    }

    /// Re-attaches a replica whose storage units already exist in the
    /// backend (e.g. after reopening an on-disk store): no units are
    /// written, only the in-memory metadata is restored — the partition
    /// index's zone maps with one footer-sized tail read per unit. A
    /// unit that is missing or whose footer does not parse gets an entry
    /// that never prunes, so queries touching it scan it and fail over.
    /// The caller is responsible for `scheme` matching what the units
    /// were built with — [`scrub`](Self::scrub) will flag any mismatch
    /// as corruption.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IdOverflow`] if the store already holds
    /// `u32::MAX` replicas (or the scheme `u32::MAX` partitions).
    pub fn restore_replica(
        &mut self,
        config: ReplicaConfig,
        scheme: PartitioningScheme,
        records: u64,
        bytes: u64,
    ) -> Result<u32, CoreError> {
        let id = u32::try_from(self.replicas.len())
            .map_err(|_| CoreError::IdOverflow { what: "replica" })?;
        let mut zones = Vec::with_capacity(scheme.len());
        for pid in 0..scheme.len() {
            let key = UnitKey {
                replica: id,
                partition: partition_id(pid)?,
            };
            zones.push(match self.backend.get_tail(key, ZONE_MAP_FOOTER_LEN) {
                Ok((tail, len)) => UnitEntry::new(&tail, len),
                Err(_) => UnitEntry::default(),
            });
        }
        self.replicas.push(BuiltReplica {
            id,
            config,
            scheme,
            records,
            bytes,
            obs: self.metrics.replica(id, config.encoding),
            zones: RwLock::new(zones),
        });
        Ok(id)
    }

    /// Appends a batch of new records to **every** replica, preserving
    /// the diverse-replica invariant that all replicas encode the same
    /// logical dataset.
    ///
    /// Each touched storage unit is read, decoded, extended and
    /// re-encoded (BLOT units are optimised for sequential scans, not
    /// in-place appends). Partition boundaries stay fixed — continuous
    /// ingest skews partition sizes over time; correcting that means
    /// re-selecting and rebuilding the replicas.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoReplicas`] — nothing to ingest into;
    /// * [`CoreError::OutOfUniverse`] — some records fall outside the
    ///   universe (nothing is written);
    /// * [`CoreError::Storage`] — a unit could not be read or written.
    pub fn ingest(&mut self, batch: &RecordBatch) -> Result<IngestReport, CoreError> {
        if self.replicas.is_empty() {
            return Err(CoreError::NoReplicas);
        }
        let rejected = (0..batch.len())
            .filter(|&i| !self.universe.contains_point(&batch.point(i)))
            .count();
        if rejected > 0 {
            return Err(CoreError::OutOfUniverse { rejected });
        }
        let _span = Span::start(&self.metrics.ingest_wall_ms);
        self.metrics.ingest_records.add(batch.len() as u64);
        let mut report = IngestReport {
            records: batch.len(),
            units_rewritten: 0,
        };
        for replica in &mut self.replicas {
            // Group incoming records by target partition.
            let mut by_partition: std::collections::HashMap<usize, RecordBatch> =
                std::collections::HashMap::new();
            for i in 0..batch.len() {
                let p = batch.point(i);
                let pid = replica.scheme.assign_point(p.x, p.y, p.t);
                by_partition.entry(pid).or_default().push(batch.get(i));
            }
            let mut touched: Vec<(usize, RecordBatch)> = by_partition.into_iter().collect();
            touched.sort_unstable_by_key(|&(pid, _)| pid);
            // Decode → extend → re-encode of each touched unit runs on
            // the pool; metadata updates and the ordered puts stay here.
            let encoding = replica.config.encoding;
            let rid = replica.id;
            let mut meta = Vec::with_capacity(touched.len());
            let mut rewrites = Vec::with_capacity(touched.len());
            for (pid, additions) in touched {
                let key = UnitKey {
                    replica: rid,
                    partition: partition_id(pid)?,
                };
                meta.push((pid, additions.len()));
                let backend: Arc<dyn Backend> = self.backend.clone();
                let decodes = self.metrics.decode_counter(encoding);
                let records_decoded = self.metrics.records_decoded.clone();
                let bytes_read = self.metrics.bytes_read.clone();
                rewrites.push(move || {
                    let bytes = backend.get(key)?;
                    let mut records = encoding
                        .decode(&bytes)
                        .map_err(|source| StorageError::Corrupt { key, source })?;
                    decodes.inc();
                    records_decoded.add(records.len() as u64);
                    bytes_read.add(bytes.len() as u64);
                    records.extend_from(&additions);
                    let unit = encoding.encode(&records);
                    Ok((key, bytes.len(), unit))
                });
            }
            let rewritten = self.pool.execute_all(rewrites)?;
            for ((pid, added), (key, old_len, unit)) in meta.into_iter().zip(rewritten) {
                replica.bytes = replica.bytes - old_len as u64 + unit.len() as u64;
                let entry = UnitEntry::of(&unit);
                self.backend.put(key, unit)?;
                replica.set_entry(pid, entry);
                replica.scheme.note_insertions(pid, added)?;
                self.metrics.ingest_units_rewritten.inc();
                report.units_rewritten += 1;
            }
            replica.records += batch.len() as u64;
        }
        Ok(report)
    }

    /// Ranks built replicas by estimated cost for `range`, cheapest
    /// first — the query-routing decision of §II-E ("query cost
    /// estimation helps the system to determine which one of the
    /// existing replicas is supposed to have the least processing
    /// time").
    #[must_use]
    pub fn route(&self, range: &Cuboid) -> Vec<u32> {
        let mut ranked: Vec<(&BuiltReplica, Millis)> = self
            .replicas
            .iter()
            .map(|r| (r, self.predicted_cost(r, range)))
            .collect();
        ranked.sort_by(|a, b| a.1.get().total_cmp(&b.1.get()));
        if let Some((winner, _)) = ranked.first() {
            winner.obs.routed_first.inc();
        }
        ranked.into_iter().map(|(r, _)| r.id).collect()
    }

    /// Executes a range query on the estimated-cheapest replica, failing
    /// over to the next-cheapest when storage units are missing or
    /// corrupt.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoReplicas`] — nothing built yet;
    /// * [`CoreError::Storage`] — every replica failed.
    pub fn query(&self, range: &Cuboid) -> Result<QueryResult, CoreError> {
        let mut answers = self.run_queries(&[TracedQuery::new(*range)], None, false);
        answers.pop().unwrap_or(Err(CoreError::NoReplicas))
    }

    /// Executes a range query on a specific replica (§II-D: find the
    /// involved partitions, scan each in a map-only job, filter).
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoSuchReplica`] — unknown id;
    /// * [`CoreError::Storage`] — a unit could not be read or decoded.
    pub fn query_on(&self, id: u32, range: &Cuboid) -> Result<QueryResult, CoreError> {
        let mut answers = self.run_queries(&[TracedQuery::new(*range)], Some(id), false);
        answers.pop().unwrap_or(Err(CoreError::NoReplicas))
    }

    /// Executes a micro-batch of range queries in **one** pooled
    /// `execute_all` round: every query is routed to its cheapest
    /// replica, the scan tasks of all queries are flattened into a
    /// single batch (so a burst of small queries pays the pool's
    /// submission overhead once), and per-query results are sliced back
    /// out in order. A query whose replica fails is re-planned on its
    /// next-cheapest one in a following round (as in [`Self::query`], a
    /// batch of one); one query's failure never aborts its neighbours.
    ///
    /// The returned vector holds one entry per input range, in input
    /// order.
    ///
    /// # Errors
    ///
    /// The call itself is infallible; each element is `Err` under the
    /// same conditions as [`query`](Self::query)
    /// ([`CoreError::NoReplicas`], [`CoreError::Storage`], …).
    pub fn query_batch(&self, ranges: &[Cuboid]) -> Vec<Result<QueryResult, CoreError>> {
        let queries: Vec<TracedQuery> = ranges.iter().copied().map(TracedQuery::new).collect();
        self.run_queries(&queries, None, false)
    }

    /// [`query_batch`](Self::query_batch) with span recording: each
    /// query opens its own `store.query` root span (joining its
    /// [`TracedQuery::ctx`] when supplied, starting a fresh trace
    /// otherwise) with child spans per stage — route, per-unit scan
    /// (prune + decode, parented across the pool), merge — and every
    /// flattened scan task carries *its* query's span handle into the
    /// pool, so interleaved queries never cross-contaminate parents.
    ///
    /// # Errors
    ///
    /// The call itself is infallible; each element is `Err` under the
    /// same conditions as [`query`](Self::query).
    pub fn query_batch_traced(
        &self,
        queries: &[TracedQuery],
    ) -> Vec<Result<QueryResult, CoreError>> {
        self.run_queries(queries, None, true)
    }

    /// The one query pipeline. Each round *plans* every unanswered
    /// query on its next untried replica, *executes* all their scan
    /// tasks in one pooled round and *merges* each query's reports; a
    /// query whose replica failed is re-planned next round. Scan errors
    /// stay inside the task results so one damaged replica never aborts
    /// its neighbours. A round whose plans pruned every unit gives the
    /// pool nothing to run.
    fn run_queries(
        &self,
        queries: &[TracedQuery],
        forced: Option<u32>,
        traced: bool,
    ) -> Vec<Result<QueryResult, CoreError>> {
        let mut plans: Vec<QueryPlan<'_>> = queries
            .iter()
            .map(|query| self.start_plan(query, forced, traced))
            .collect();
        let env = self.env;
        let backend: Arc<dyn Backend> = self.backend.clone();
        while plans.iter().any(|p| p.answer.is_none()) {
            let mut scans = Vec::new();
            for plan in plans.iter_mut().filter(|p| p.answer.is_none()) {
                if plan.attempt.is_none() {
                    let span = plan.root.as_ref().map(|r| r.child(names::ROUTE));
                    self.plan_next(plan, span);
                }
                let Some((_, attempt)) = &plan.attempt else {
                    continue;
                };
                let trace = plan.root.as_ref().map(TraceSpan::handle);
                scans.extend(attempt.tasks.iter().map(|&task| {
                    let backend = Arc::clone(&backend);
                    let trace = trace.clone().unwrap_or_default();
                    move || Ok(scan_one_unit(backend.as_ref(), &env, &task, &trace))
                }));
            }
            // A round the pool could not finish failed in every task. (An
            // all-pruned round is empty: `execute_all` returns at once,
            // touching neither the workers nor the pool's instruments.)
            let n_scans = scans.len();
            let outcomes = self.pool.execute_all(scans).unwrap_or_else(|_| {
                let panicked = |_| Err(StorageError::WorkerPanicked);
                (0..n_scans).map(panicked).collect()
            });
            let mut outcomes = outcomes.into_iter();
            for plan in &mut plans {
                let Some((replica, attempt)) = plan.attempt.take() else {
                    continue;
                };
                let n_tasks = attempt.tasks.len();
                let mut reports = Vec::with_capacity(n_tasks);
                let mut scan_err = None;
                for outcome in outcomes.by_ref().take(n_tasks) {
                    match outcome {
                        Ok(report) => reports.push(report),
                        Err(e) => scan_err = scan_err.or(Some(e)),
                    }
                }
                if let Some(e) = scan_err {
                    plan.failed_over.push(replica.id);
                    if plan.untried.as_slice().is_empty() {
                        plan.finish(Err(CoreError::Storage(e)));
                    }
                    continue;
                }
                let merge_span = plan.root.as_ref().map(|s| s.child(names::MERGE));
                let trace = plan.root.as_ref().and_then(TraceSpan::context);
                let mut result = self.assemble(replica, &attempt, &reports, trace);
                drop(merge_span);
                result.failed_over = std::mem::take(&mut plan.failed_over);
                if forced.is_none() {
                    let returned = result.records.len() as u64;
                    self.metrics.records_returned.add(returned);
                    let failovers = result.failed_over.len() as u64;
                    self.metrics.query_failovers.add(failovers);
                }
                plan.finish(Ok(result));
            }
        }
        plans.into_iter().filter_map(|p| p.answer).collect()
    }

    /// Opens one query's plan and plans its first attempt. A routed
    /// query (`forced` is `None`) is counted, timed into
    /// `store.query_wall_ms` until its batch returns and — when `traced`
    /// — given a `store.query` root span whose first `route` child covers
    /// the ranking and the plan; a forced one tries exactly that replica
    /// and records none of these.
    fn start_plan(&self, query: &TracedQuery, forced: Option<u32>, traced: bool) -> QueryPlan<'_> {
        let mut wall = None;
        if forced.is_none() {
            self.metrics.queries.inc();
            wall = Some(Span::start(&self.metrics.query_wall_ms));
        }
        let root = traced.then(|| match query.ctx {
            Some(ctx) => self.recorder.span_under(ctx, names::QUERY),
            None => self.recorder.span(names::QUERY),
        });
        let route_span = root.as_ref().map(|r| r.child(names::ROUTE));
        let untried = forced.map_or_else(|| self.route(&query.range), |id| vec![id]);
        let mut plan = QueryPlan {
            range: query.range,
            untried: untried.into_iter(),
            failed_over: Vec::new(),
            attempt: None,
            root,
            _wall: wall,
            answer: None,
        };
        self.plan_next(&mut plan, route_span);
        plan
    }

    /// Plans `plan` on its next untried replica — this round's attempt —
    /// or answers it with the error that stops it. The `route` span, when
    /// there is one, closes here carrying what the partition index
    /// decided.
    fn plan_next<'a>(&'a self, plan: &mut QueryPlan<'a>, span: Option<TraceSpan>) {
        // An unanswered plan has a replica left unless none is built.
        let planned = plan.untried.next().ok_or(CoreError::NoReplicas);
        match planned.and_then(|id| Ok((self.replica(id)?, self.plan_on(id, &plan.range)?))) {
            Ok((replica, attempt)) => {
                if let Some(mut span) = span {
                    span.note(names::REPLICA, u64::from(attempt.replica));
                    span.note(names::UNITS, attempt.units_involved as u64);
                    span.note(names::UNITS_SKIPPED, attempt.units_skipped as u64);
                    span.note(names::BYTES_SKIPPED, attempt.bytes_skipped);
                }
                plan.attempt = Some((replica, attempt));
            }
            Err(e) => plan.finish(Err(e)),
        }
    }

    fn replica(&self, id: u32) -> Result<&BuiltReplica, CoreError> {
        self.replicas
            .get(id as usize)
            .ok_or(CoreError::NoSuchReplica { id })
    }

    /// The model's `Cost(q, r)` (Eq. 6/7): what routing ranks by and the
    /// drift histogram compares measured cost against.
    fn predicted_cost(&self, replica: &BuiltReplica, range: &Cuboid) -> Millis {
        #[allow(clippy::cast_precision_loss)]
        let records = replica.records as f64;
        self.model
            .concrete_query_cost(range, &replica.scheme, replica.config.encoding, records)
    }

    /// Plans a query on one replica without touching the backend:
    /// predicted `Cost(q, r)` (captured before execution so the drift
    /// histogram compares the same quantity routing used) plus one scan
    /// task per involved partition whose zone map in the partition index
    /// does not rule it out. This is the one place units are pruned: a
    /// skipped unit costs no task, no pool slot, no backend call and no
    /// simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchReplica`] for an unknown id.
    pub fn plan_on(&self, id: u32, range: &Cuboid) -> Result<ScanPlan, CoreError> {
        let replica = self.replica(id)?;
        let involved = replica.scheme.involved(range);
        let mut plan = ScanPlan {
            replica: id,
            predicted_ms: self.predicted_cost(replica, range).get(),
            units_involved: involved.len(),
            units_skipped: 0,
            bytes_skipped: 0,
            surviving_bytes: 0,
            tasks: Vec::with_capacity(involved.len()),
        };
        let zones = replica.zones.read();
        for pid in involved {
            let entry = zones.get(pid).copied().unwrap_or_default();
            if entry.zone_map.is_some_and(|zm| !zm.overlaps(range)) {
                plan.units_skipped += 1;
                plan.bytes_skipped += entry.len.saturating_sub(ZONE_MAP_FOOTER_LEN as u64);
            } else {
                plan.surviving_bytes += entry.len;
                plan.tasks.push(ScanTask {
                    key: UnitKey {
                        replica: id,
                        partition: partition_id(pid)?,
                    },
                    scheme: replica.config.encoding,
                    range: Some(*range),
                });
            }
        }
        Ok(plan)
    }

    /// Turns the scan reports of one planned query's surviving units
    /// into a [`QueryResult`], recording the store and replica
    /// instruments. With one mapper slot per task (the paper's
    /// fully-parallel configuration) the simulated makespan is the
    /// longest single task.
    fn assemble(
        &self,
        replica: &BuiltReplica,
        plan: &ScanPlan,
        reports: &[ScanReport],
        trace: Option<SpanContext>,
    ) -> QueryResult {
        let mut records = RecordBatch::new();
        for r in reports {
            records.extend_from(&r.output);
        }
        let total_ms: f64 = reports.iter().map(|r| r.sim_ms).sum();
        let makespan_ms = reports.iter().map(|r| r.sim_ms).fold(0.0, f64::max);
        self.metrics.units_scanned.add(plan.units_involved as u64);
        self.metrics.units_skipped.add(plan.units_skipped as u64);
        self.metrics.bytes_skipped.add(plan.bytes_skipped);
        self.metrics
            .decode_counter(replica.config.encoding)
            .add(reports.len() as u64);
        self.metrics
            .records_decoded
            .add(reports.iter().map(|r| r.records_scanned as u64).sum());
        self.metrics
            .bytes_read
            .add(reports.iter().map(|r| r.bytes).sum());
        self.metrics.query_sim_ms.record(total_ms);
        replica.obs.queries.inc();
        replica.obs.sim_ms.record(total_ms);
        if total_ms > 0.0 {
            replica.obs.drift.record(plan.predicted_ms / total_ms);
        }
        if let Some(threshold) = self.slow_query_ms() {
            if total_ms > threshold {
                let mut log = self.slow_log.lock();
                if log.len() >= SLOW_LOG_CAPACITY {
                    log.pop_front();
                }
                log.push_back(SlowQueryEntry {
                    trace: trace.map_or(TraceId(0), |c| c.trace),
                    replica: replica.id,
                    scheme: replica.config.encoding,
                    units_scanned: plan.units_involved,
                    units_skipped: plan.units_skipped,
                    predicted_ms: plan.predicted_ms,
                    measured_ms: total_ms,
                    threshold_ms: threshold,
                });
            }
        }
        QueryResult {
            records,
            replica: replica.id,
            sim_ms: total_ms,
            makespan_ms,
            partitions_scanned: plan.units_involved,
            units_skipped: plan.units_skipped,
            bytes_skipped: plan.bytes_skipped,
            failed_over: Vec::new(),
        }
    }

    /// Reads every storage unit of every replica (verification scans
    /// run in parallel on the pool) and reports the keys that are
    /// missing, no longer decode, or whose recomputed statistics and
    /// length disagree with their footer or with their entry in the
    /// partition index, in unit order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IdOverflow`] if a replica somehow holds
    /// more than `u32::MAX` partitions; damaged units are *data*, not
    /// errors.
    pub fn scrub(&self) -> Result<Vec<UnitKey>, CoreError> {
        let env = self.env;
        let _span = Span::start(&self.metrics.scrub_wall_ms);
        let mut verifies = Vec::new();
        for replica in &self.replicas {
            let zones = replica.unit_entries();
            for pid in 0..replica.scheme.len() {
                let key = UnitKey {
                    replica: replica.id,
                    partition: partition_id(pid)?,
                };
                let entry = zones.get(pid).copied().unwrap_or_default();
                let scheme = replica.config.encoding;
                let backend: Arc<dyn Backend> = self.backend.clone();
                let scanned = self.metrics.scrub_units_scanned.clone();
                let verified = self.metrics.scrub_units_verified.clone();
                let damaged = self.metrics.scrub_units_damaged.clone();
                let mismatches = self.metrics.scrub_footer_mismatches.clone();
                let decodes = self.metrics.decode_counter(scheme);
                let records_decoded = self.metrics.records_decoded.clone();
                let bytes_read = self.metrics.bytes_read.clone();
                verifies.push(move || {
                    scanned.inc();
                    match run_scan(
                        backend.as_ref(),
                        &env,
                        &ScanTask {
                            key,
                            scheme,
                            range: None,
                        },
                        &SpanHandle::detached(),
                    ) {
                        Ok(report) => {
                            decodes.inc();
                            records_decoded.add(report.records_scanned as u64);
                            bytes_read.add(report.bytes);
                            // A footer or index entry that disagrees
                            // with the payload (or is missing) is
                            // damage: repair rewrites the unit, which
                            // refreshes both.
                            let indexed = UnitEntry {
                                zone_map: report.stats,
                                len: report.bytes,
                            };
                            if report.footer_mismatch || !entry.same_bits(&indexed) {
                                mismatches.inc();
                                damaged.inc();
                                Ok(Some(key))
                            } else {
                                verified.inc();
                                Ok(None)
                            }
                        }
                        Err(_) => {
                            damaged.inc();
                            Ok(Some(key))
                        }
                    }
                });
            }
        }
        let damaged = self.pool.execute_all(verifies)?;
        Ok(damaged.into_iter().flatten().collect())
    }

    /// Rebuilds one damaged unit from the other replicas.
    ///
    /// First tries a clean single-source repair: extract the partition's
    /// records from one fully-readable replica (re-assigning boundary
    /// records with the owner's partitioner so the rebuilt unit holds
    /// exactly the original record set).
    ///
    /// When every source replica is itself partially damaged over the
    /// range, falls back to *multi-source* repair: the readable units of
    /// each source contribute a partial view, the views are merged (per
    /// source a record appears at most once per copy it had, so the
    /// merged multiplicity of each record is the maximum over sources),
    /// and the merge is accepted only if it reaches the unit's known
    /// record count — diverse replicas recovering each other even when
    /// no single replica survived intact.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoSuchReplica`] — unknown id;
    /// * [`CoreError::Unrecoverable`] — the surviving units do not cover
    ///   every record of the partition (both copies of some region are
    ///   gone).
    pub fn repair_unit(&self, key: UnitKey) -> Result<(), CoreError> {
        let _span = Span::start(&self.metrics.repair_wall_ms);
        match self.repair_unit_inner(key) {
            Ok(()) => {
                self.metrics.repair_units_repaired.inc();
                Ok(())
            }
            Err(e) => {
                if matches!(e, CoreError::Unrecoverable { .. }) {
                    self.metrics.repair_units_failed.inc();
                }
                Err(e)
            }
        }
    }

    fn repair_unit_inner(&self, key: UnitKey) -> Result<(), CoreError> {
        let owner = self.replica(key.replica)?;
        let partition = owner
            .scheme
            .partitions()
            .get(key.partition as usize)
            .ok_or(CoreError::NoSuchReplica { id: key.replica })?;
        let is_member = |records: &RecordBatch, i: usize| {
            let p = records.point(i);
            owner.scheme.assign_point(p.x, p.y, p.t) == key.partition as usize
        };

        // Fast path: one fully-readable source.
        for source in &self.replicas {
            if source.id == key.replica {
                continue;
            }
            let Ok(result) = self.query_on(source.id, &partition.range) else {
                continue; // this source is damaged too — try the next
            };
            // The closed-range query may pull boundary records owned by
            // neighbouring partitions; keep only true members.
            let mut members = RecordBatch::new();
            for i in 0..result.records.len() {
                if is_member(&result.records, i) {
                    members.push(result.records.get(i));
                }
            }
            return self.rewrite_unit(owner, key, &members);
        }

        // Fallback: merge partial views. A record's multiplicity in the
        // truth equals its multiplicity in any complete source view, so
        // the max multiplicity over partial views is a lower bound that
        // becomes exact once the views jointly cover the partition.
        type RecordKey = (u32, i64, u64, u64, u32, u32, bool, u8);
        let key_of = |b: &RecordBatch, i: usize| -> RecordKey {
            let r = b.get(i);
            (
                r.oid,
                r.time,
                r.x.to_bits(),
                r.y.to_bits(),
                r.speed.to_bits(),
                r.heading.to_bits(),
                r.occupied,
                r.passengers,
            )
        };
        let mut merged: std::collections::HashMap<RecordKey, (blot_model::Record, usize)> =
            std::collections::HashMap::new();
        for source in &self.replicas {
            if source.id == key.replica {
                continue;
            }
            let mut counts: std::collections::HashMap<RecordKey, (blot_model::Record, usize)> =
                std::collections::HashMap::new();
            // Extraction scans over this source's surviving units (planned
            // like any query) run on the pool; an unreadable unit
            // contributes nothing (another source may cover it) rather
            // than failing the batch.
            let env = self.env;
            let scans: Vec<_> = self
                .plan_on(source.id, &partition.range)?
                .tasks
                .into_iter()
                .map(|task| {
                    let backend: Arc<dyn Backend> = self.backend.clone();
                    move || {
                        Ok(run_scan(backend.as_ref(), &env, &task, &SpanHandle::detached()).ok())
                    }
                })
                .collect();
            for report in self.pool.execute_all(scans)?.into_iter().flatten() {
                for i in 0..report.output.len() {
                    if is_member(&report.output, i) {
                        let k = key_of(&report.output, i);
                        counts.entry(k).or_insert((report.output.get(i), 0)).1 += 1;
                    }
                }
            }
            for (k, (r, c)) in counts {
                let e = merged.entry(k).or_insert((r, 0));
                e.1 = e.1.max(c);
            }
        }
        let total: usize = merged.values().map(|&(_, c)| c).sum();
        if total != partition.count {
            return Err(CoreError::Unrecoverable {
                replica: key.replica,
                partition: key.partition,
            });
        }
        let mut members = RecordBatch::with_capacity(total);
        for (r, c) in merged.into_values() {
            for _ in 0..c {
                members.push(r);
            }
        }
        self.rewrite_unit(owner, key, &members)
    }

    /// Encodes `members` as `owner`'s unit `key`, writes it and refreshes
    /// the unit's partition-index entry from the bytes written.
    fn rewrite_unit(
        &self,
        owner: &BuiltReplica,
        key: UnitKey,
        members: &RecordBatch,
    ) -> Result<(), CoreError> {
        let unit = owner.config.encoding.encode(members);
        let entry = UnitEntry::of(&unit);
        self.backend.put(key, unit)?;
        owner.set_entry(key.partition as usize, entry);
        Ok(())
    }

    /// Scrubs the store and repairs everything repairable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Storage`] only on write failures; units with
    /// no surviving source are reported, not errored.
    pub fn repair_all(&self) -> Result<RepairReport, CoreError> {
        let scanned_before = self.metrics.scrub_units_scanned.value();
        let verified_before = self.metrics.scrub_units_verified.value();
        let mismatch_before = self.metrics.scrub_footer_mismatches.value();
        let mut report = RepairReport::default();
        for key in self.scrub()? {
            match self.repair_unit(key) {
                Ok(()) => report.repaired.push(key),
                Err(CoreError::Unrecoverable { .. }) => report.unrecoverable.push(key),
                Err(e) => return Err(e),
            }
        }
        report.units_scanned = self
            .metrics
            .scrub_units_scanned
            .value()
            .saturating_sub(scanned_before);
        report.units_verified = self
            .metrics
            .scrub_units_verified
            .value()
            .saturating_sub(verified_before);
        report.units_repaired = report.repaired.len() as u64;
        report.units_failed = report.unrecoverable.len() as u64;
        report.units_footer_mismatch = self
            .metrics
            .scrub_footer_mismatches
            .value()
            .saturating_sub(mismatch_before);
        Ok(report)
    }
}

/// A shared, thread-safe handle to a store, for subsystems (the server,
/// background scrubbers) that answer queries from many threads at once.
pub type SharedStore<B> = Arc<BlotStore<B>>;

/// The query-side surface a serving layer needs, object-safe and
/// backend-agnostic: answer micro-batches of range queries, expose the
/// metrics registry and drift report, and share the scan executor so a
/// server can drain it on shutdown.
pub trait QueryService: Send + Sync {
    /// Routes and executes a micro-batch of queries with failover in one
    /// pooled round, recording per-query span trees into the service's
    /// flight recorder. One entry per input query, in order, each `Err`
    /// under the same contract as [`BlotStore::query`]; see
    /// [`BlotStore::query_batch_traced`].
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>>;

    /// The service's flight recorder, for serving-layer spans and trace
    /// export. Disabled (records nothing) by default.
    fn recorder(&self) -> FlightRecorder {
        FlightRecorder::disabled()
    }

    /// Sets the slow-query threshold in simulated ms (`<= 0` disables).
    /// No-op by default.
    fn set_slow_query_ms(&self, ms: f64) {
        let _ = ms;
    }

    /// Drains structured slow-query entries captured since the last
    /// drain. Empty by default.
    fn drain_slow_queries(&self) -> Vec<SlowQueryEntry> {
        Vec::new()
    }

    /// A handle to the registry all of this service's instruments live
    /// in, so a server can register its own alongside them.
    fn metrics_registry(&self) -> MetricsRegistry;

    /// Cost-model drift, per encoding scheme.
    fn drift_report(&self, band: DriftBand) -> DriftReport;

    /// A full pre-rendered `Stats` JSON document, when the service
    /// replaces the serving layer's default payload (a coordinator
    /// aggregates per-shard documents into one view). `None` — the
    /// default — means "render the standard single-store payload".
    fn stats_json(&self, band: Option<DriftBand>) -> Option<String> {
        let _ = band;
        None
    }

    /// The scan executor the service runs on, so graceful shutdown can
    /// drain it after the last request completes.
    fn executor(&self) -> Arc<ScanExecutor>;
}

impl<B: Backend + 'static> QueryService for BlotStore<B> {
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>> {
        BlotStore::query_batch_traced(self, queries)
    }

    fn recorder(&self) -> FlightRecorder {
        self.recorder.clone()
    }

    fn set_slow_query_ms(&self, ms: f64) {
        BlotStore::set_slow_query_ms(self, ms);
    }

    fn drain_slow_queries(&self) -> Vec<SlowQueryEntry> {
        BlotStore::drain_slow_queries(self)
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.metrics.registry().clone()
    }

    fn drift_report(&self, band: DriftBand) -> DriftReport {
        BlotStore::drift_report(self, band)
    }

    fn executor(&self) -> Arc<ScanExecutor> {
        Arc::clone(&self.pool)
    }
}

// The server hands one store to many connection threads; losing either
// auto-trait would surface as a distant, confusing bound failure there.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<BlotStore<blot_storage::MemBackend>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use blot_storage::{FailingBackend, FailureMode, MemBackend};
    use blot_tracegen::FleetConfig;

    fn small_store() -> (BlotStore<FailingBackend<MemBackend>>, RecordBatch) {
        let mut config = FleetConfig::small();
        config.num_taxis = 50;
        config.records_per_taxi = 120;
        let data = config.generate();
        let universe = config.universe();
        let env = EnvProfile::local_cluster();
        let model = CostModel::calibrate(&env, &data, 11);
        let mut store =
            BlotStore::new(FailingBackend::new(MemBackend::new()), env, universe, model);
        store
            .build_replica(
                &data,
                ReplicaConfig::new(
                    SchemeSpec::new(16, 4),
                    EncodingScheme::new(Layout::Row, Compression::Lzf),
                ),
            )
            .unwrap();
        store
            .build_replica(
                &data,
                ReplicaConfig::new(
                    SchemeSpec::new(4, 2),
                    EncodingScheme::new(Layout::Column, Compression::Deflate),
                ),
            )
            .unwrap();
        (store, data)
    }

    fn test_query(store: &BlotStore<FailingBackend<MemBackend>>) -> Cuboid {
        let u = store.universe();
        Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / 3.0, u.extent(1) / 3.0, u.extent(2) / 3.0),
        )
    }

    #[test]
    fn query_matches_oracle_on_every_replica() {
        let (store, data) = small_store();
        let q = test_query(&store);
        let expected = data.count_in_range(&q);
        assert!(expected > 0, "test query must match something");
        for id in 0..2 {
            let result = store.query_on(id, &q).unwrap();
            assert_eq!(result.records.len(), expected, "replica {id}");
            assert!(result.records.iter().all(|r| r.in_range(&q)));
            assert!(result.partitions_scanned > 0);
            assert!(result.sim_ms > 0.0);
        }
    }

    #[test]
    fn routing_follows_the_cost_model() {
        // A synthetic model with scan-dominated costs makes routing
        // deterministic: tiny queries go to the fine replica (it prunes
        // more records), universe-sized queries to the coarse one (it
        // pays fewer per-partition extra costs).
        let mut config = FleetConfig::small();
        config.num_taxis = 50;
        config.records_per_taxi = 120;
        let data = config.generate();
        let universe = config.universe();
        let params = blot_codec::SchemeTable::build(|_| crate::cost::CostParams {
            ms_per_record: Millis::new(1.0),
            extra_ms: Millis::new(50.0),
        });
        let bpr = blot_codec::SchemeTable::build(|_| 38.0);
        let model = CostModel::from_params("synthetic", params, bpr);
        let mut store = BlotStore::new(
            FailingBackend::new(MemBackend::new()),
            EnvProfile::local_cluster(),
            universe,
            model,
        );
        let enc = EncodingScheme::new(Layout::Row, Compression::Plain);
        let fine = store
            .build_replica(&data, ReplicaConfig::new(SchemeSpec::new(64, 8), enc))
            .unwrap();
        let coarse = store
            .build_replica(&data, ReplicaConfig::new(SchemeSpec::new(4, 2), enc))
            .unwrap();

        let tiny = Cuboid::from_centroid(
            universe.centroid(),
            QuerySize::new(0.01, 0.01, universe.extent(2) / 100.0),
        );
        assert_eq!(
            store.route(&tiny)[0],
            fine,
            "tiny query must go to the fine replica"
        );
        assert_eq!(
            store.route(&universe)[0],
            coarse,
            "whole-universe query must go to the coarse replica"
        );
        let result = store.query(&tiny).unwrap();
        assert_eq!(result.replica, fine);
        assert_eq!(result.records.len(), data.count_in_range(&tiny));
    }

    #[test]
    fn failover_serves_query_from_surviving_replica() {
        let (store, data) = small_store();
        let q = test_query(&store);
        // Drop every unit of replica 0.
        for pid in 0..store.replicas()[0].scheme.len() {
            store.backend().inject(
                UnitKey {
                    replica: 0,
                    partition: u32::try_from(pid).unwrap_or(u32::MAX),
                },
                FailureMode::Drop,
            );
        }
        let result = store.query(&q).unwrap();
        assert_eq!(result.records.len(), data.count_in_range(&q));
        assert_eq!(result.replica, 1);
    }

    #[test]
    fn scrub_finds_injected_damage_and_repair_heals_it() {
        let (store, data) = small_store();
        let k1 = UnitKey {
            replica: 0,
            partition: 3,
        };
        let k2 = UnitKey {
            replica: 1,
            partition: 0,
        };
        store.backend().inject(k1, FailureMode::Drop);
        store.backend().inject(k2, FailureMode::Corrupt);
        let damaged = store.scrub().unwrap();
        assert!(
            damaged.contains(&k1) && damaged.contains(&k2),
            "{damaged:?}"
        );

        let report = store.repair_all().unwrap();
        assert!(report.unrecoverable.is_empty());
        assert!(report.repaired.contains(&k1) && report.repaired.contains(&k2));
        assert!(
            store.scrub().unwrap().is_empty(),
            "store must be clean after repair"
        );

        // Full-universe query returns every record again, on both replicas.
        let u = store.universe();
        for id in 0..2 {
            assert_eq!(store.query_on(id, &u).unwrap().records.len(), data.len());
        }
    }

    #[test]
    fn repaired_unit_is_byte_identical() {
        let (store, _) = small_store();
        let key = UnitKey {
            replica: 0,
            partition: 5,
        };
        let original = store.backend().get(key).unwrap();
        store.backend().inject(key, FailureMode::Drop);
        store.repair_unit(key).unwrap();
        let repaired = store.backend().get(key).unwrap();
        // Row layout preserves order only per encoding; compare decoded
        // record sets via the canonical column sort.
        let scheme = store.replicas()[0].config.encoding;
        let mut a = scheme.decode(&original).unwrap();
        let mut b = scheme.decode(&repaired).unwrap();
        a.sort_by_oid_time();
        b.sort_by_oid_time();
        assert_eq!(a, b);
    }

    #[test]
    fn damage_on_all_replicas_is_unrecoverable() {
        let (store, _) = small_store();
        // Kill everything everywhere: nothing survives to recover from.
        for replica in store.replicas() {
            for pid in 0..replica.scheme.len() {
                store.backend().inject(
                    UnitKey {
                        replica: replica.id,
                        partition: u32::try_from(pid).unwrap_or(u32::MAX),
                    },
                    FailureMode::Drop,
                );
            }
        }
        let report = store.repair_all().unwrap();
        assert!(report.repaired.is_empty());
        let total: usize = store.replicas().iter().map(|r| r.scheme.len()).sum();
        assert_eq!(report.unrecoverable.len(), total);
    }

    #[test]
    fn partial_cross_damage_recovers_what_it_can() {
        let (store, data) = small_store();
        // One partition of replica 0 and all of replica 1 are lost:
        // replica 1 partitions disjoint from the lost unit's range come
        // back from replica 0; the lost r0 unit itself cannot (its only
        // source is down at scrub time).
        let lost = UnitKey {
            replica: 0,
            partition: 1,
        };
        store.backend().inject(lost, FailureMode::Drop);
        for pid in 0..store.replicas()[1].scheme.len() {
            store.backend().inject(
                UnitKey {
                    replica: 1,
                    partition: u32::try_from(pid).unwrap_or(u32::MAX),
                },
                FailureMode::Drop,
            );
        }
        let _ = data;
        let report = store.repair_all().unwrap();
        assert!(report.unrecoverable.contains(&lost));
        assert!(
            !report.repaired.is_empty(),
            "disjoint r1 units must come back"
        );
        // The lost r0 unit and the r1 unit whose range overlaps it
        // depend on each other: both copies of the overlap region are
        // gone, so with two replicas that data is genuinely lost — a
        // second pass must keep reporting exactly those units.
        let second = store.repair_all().unwrap();
        assert!(second.repaired.is_empty());
        assert_eq!(second.unrecoverable.len(), report.unrecoverable.len());
        for key in &second.unrecoverable {
            let owner = &store.replicas()[key.replica as usize];
            let range = owner.scheme.partitions()[key.partition as usize].range;
            assert!(
                second
                    .unrecoverable
                    .iter()
                    .filter(|k| k.replica != key.replica)
                    .any(|k| {
                        let other = &store.replicas()[k.replica as usize];
                        other.scheme.partitions()[k.partition as usize]
                            .range
                            .intersects(&range)
                    }),
                "every unrecoverable unit must be blocked by an overlapping lost unit"
            );
        }
    }

    #[test]
    fn unknown_replica_errors() {
        let (store, _) = small_store();
        let u = store.universe();
        assert!(matches!(
            store.query_on(9, &u),
            Err(CoreError::NoSuchReplica { id: 9 })
        ));
    }

    #[test]
    fn query_batch_matches_serial_query() {
        let (store, data) = small_store();
        let u = store.universe();
        let mut ranges = vec![test_query(&store), u];
        for k in 1..5_u32 {
            let f = f64::from(k) / 6.0;
            ranges.push(Cuboid::from_centroid(
                u.centroid(),
                QuerySize::new(u.extent(0) * f, u.extent(1) * f, u.extent(2) * f),
            ));
        }
        let batch = store.query_batch(&ranges);
        assert_eq!(batch.len(), ranges.len());
        if blot_obs::enabled() {
            // Every batched query is counted and wall-timed, like `query`.
            assert_eq!(store.metrics().queries.value(), ranges.len() as u64);
            let wall = store.metrics().query_wall_ms.snapshot();
            assert_eq!(wall.count(), ranges.len() as u64);
        }
        for (q, result) in ranges.iter().zip(batch) {
            let got = result.unwrap();
            let serial = store.query(q).unwrap();
            assert_eq!(got.records, serial.records, "records must be bit-identical");
            assert_eq!(got.replica, serial.replica);
            assert_eq!(got.partitions_scanned, serial.partitions_scanned);
            assert_eq!(got.records.len(), data.count_in_range(q));
            assert!(got.failed_over.is_empty());
        }
    }

    #[test]
    fn query_batch_fails_over_per_query() {
        let (store, data) = small_store();
        let q = test_query(&store);
        let first = store.route(&q)[0];
        // Kill the cheapest replica for this query: the batch path must
        // fail over to the survivor without disturbing its neighbours.
        for pid in 0..store.replicas()[first as usize].scheme.len() {
            store.backend().inject(
                UnitKey {
                    replica: first,
                    partition: u32::try_from(pid).unwrap_or(u32::MAX),
                },
                FailureMode::Drop,
            );
        }
        let batch = store.query_batch(&[q, q]);
        for result in batch {
            let got = result.unwrap();
            assert_ne!(got.replica, first);
            assert_eq!(got.failed_over, vec![first]);
            assert_eq!(got.records.len(), data.count_in_range(&q));
        }
    }

    /// The span names every traced query records, whatever its batch size.
    fn span_tree_names() -> std::collections::BTreeSet<blot_obs::Name> {
        use blot_obs::names;
        [
            names::QUERY,
            names::ROUTE,
            names::SCAN_UNIT,
            names::UNIT_DECODE,
            names::MERGE,
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn traced_query_records_a_parented_span_tree() {
        let (store, data) = small_store();
        let q = test_query(&store);
        let ctx = blot_obs::SpanContext::fresh();
        let traced = TracedQuery {
            range: q,
            ctx: Some(ctx),
        };
        let result = store.query_batch_traced(&[traced]).pop().unwrap().unwrap();
        assert_eq!(result.records.len(), data.count_in_range(&q));
        if !blot_obs::enabled() {
            return;
        }
        use blot_obs::names;
        let records = store.recorder().snapshot();
        let in_trace: Vec<_> = records.iter().filter(|r| r.trace == ctx.trace).collect();
        let root = in_trace
            .iter()
            .find(|r| r.name == names::QUERY)
            .expect("root query span must be recorded");
        assert_eq!(root.parent, Some(ctx.span), "root adopts the caller's span");
        // The one span-tree shape: exactly these names, nothing else.
        let seen: std::collections::BTreeSet<_> = in_trace.iter().map(|r| r.name).collect();
        assert_eq!(seen, span_tree_names());
        // Every span parents inside the trace (or on the adopted ctx).
        let ids: std::collections::HashSet<_> = in_trace.iter().map(|r| r.span).collect();
        for r in &in_trace {
            let parent = r.parent.expect("no orphan spans inside a traced query");
            assert!(
                ids.contains(&parent) || parent == ctx.span,
                "span {} has a parent outside its trace",
                r.name
            );
        }
        assert_eq!(
            root.note_value(names::UNITS),
            Some(result.partitions_scanned as u64)
        );
    }

    #[test]
    fn batch_traced_queries_never_cross_contaminate() {
        let (store, _) = small_store();
        let q = test_query(&store);
        let contexts: Vec<_> = (0..4).map(|_| blot_obs::SpanContext::fresh()).collect();
        let queries: Vec<TracedQuery> = contexts
            .iter()
            .map(|&ctx| TracedQuery {
                range: q,
                ctx: Some(ctx),
            })
            .collect();
        for result in store.query_batch_traced(&queries) {
            result.unwrap();
        }
        if !blot_obs::enabled() {
            return;
        }
        let records = store.recorder().snapshot();
        for ctx in &contexts {
            let in_trace: Vec<_> = records.iter().filter(|r| r.trace == ctx.trace).collect();
            let seen: std::collections::BTreeSet<_> = in_trace.iter().map(|r| r.name).collect();
            assert_eq!(
                seen,
                span_tree_names(),
                "each interleaved query records the same tree as a batch of one"
            );
            let ids: std::collections::HashSet<_> = in_trace.iter().map(|r| r.span).collect();
            for r in &in_trace {
                let parent = r.parent.expect("batch spans must stay parented");
                assert!(
                    ids.contains(&parent) || parent == ctx.span,
                    "span parented across trace boundaries"
                );
            }
        }
    }

    #[test]
    fn slow_query_log_captures_offenders_and_drains() {
        let (store, _) = small_store();
        assert!(store.slow_query_ms().is_none());
        store.set_slow_query_ms(1e-9);
        let q = test_query(&store);
        store.query(&q).unwrap();
        let entries = store.drain_slow_queries();
        assert!(
            !entries.is_empty(),
            "threshold of ~0 must capture the query"
        );
        let line = entries[0].to_line();
        assert!(line.starts_with("slow-query trace="), "{line}");
        assert!(line.contains("ratio="), "{line}");
        assert!(entries[0].ratio() > 0.0);
        assert!(
            store.drain_slow_queries().is_empty(),
            "drain must consume the log"
        );
        store.set_slow_query_ms(0.0);
        store.query(&q).unwrap();
        assert!(
            store.drain_slow_queries().is_empty(),
            "disabled log must capture nothing"
        );
    }

    #[test]
    fn query_batch_on_empty_input_and_empty_store() {
        let (store, _) = small_store();
        assert!(store.query_batch(&[]).is_empty());
        let empty: BlotStore<MemBackend> = BlotStore::new(
            MemBackend::new(),
            EnvProfile::local_cluster(),
            store.universe(),
            store.model().clone(),
        );
        let batch = empty.query_batch(&[store.universe()]);
        assert!(matches!(batch.as_slice(), [Err(CoreError::NoReplicas)]));
    }
}
