//! The system under test, behind one adapter.
//!
//! Every call the benchmark makes into the program goes through this file,
//! and only through the program's public functions, so that a later change
//! to the program's interface is absorbed here and nowhere else. Nothing in
//! this file measures: timing, spans and statistics live with the callers.
//!
//! Deliberately unused: every `*_traced` / `*_reference` twin of the calls
//! below (ROADMAP item 2 plans to delete them).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use blot_codec::{Compression, DecodeScratch, Layout, ZoneMap, ZONE_MAP_FOOTER_LEN};
use blot_core::cost::{CalibrationConfig, CostModel};
use blot_core::obs::DriftBand;
use blot_core::query::Workload;
use blot_core::replica::ReplicaConfig;
use blot_core::select::{
    build_selection_problem, prune_dominated, select_greedy_with_stats, select_mip, CostMatrix,
};
use blot_core::store::{BlotStore, QueryResult};
use blot_core::units::Bytes;
use blot_index::{PartitioningScheme, SchemeSpec};
use blot_mip::MipSolver;
use blot_router::{RouterConfig, RouterService, ShardMap, ShardSpec};
use blot_server::wire::{self, Frame, RemoteQueryResult, Request, Response, WireQuery};
use blot_server::{Client, ClientConfig, Server, ServerConfig};
use blot_storage::{Backend, EnvProfile, FileBackend, ScanExecutor, StorageError, UnitKey};
use blot_tracegen::FleetConfig;

pub use blot_codec::EncodingScheme;
pub use blot_geo::{Cuboid, Point, QuerySize};
pub use blot_model::{Record, RecordBatch};

/// Anything the program can fail with, flattened to text: the harness
/// only counts failures and prints them.
pub type SutError = String;

fn err(e: impl std::fmt::Display) -> SutError {
    e.to_string()
}

// ---------------------------------------------------------------------
// Dataset (tracegen).

/// A generated fleet trace and the universe it lives in.
#[derive(Debug)]
pub struct Fleet {
    pub data: RecordBatch,
    pub universe: Cuboid,
}

/// `FleetConfig { num_taxis, records_per_taxi, seed, ..small() }`.
#[must_use]
pub fn generate_fleet(taxis: u32, fixes_per_taxi: u32, seed: u64) -> Fleet {
    let config = FleetConfig {
        num_taxis: taxis,
        records_per_taxi: fixes_per_taxi,
        seed,
        ..FleetConfig::small()
    };
    Fleet {
        data: config.generate(),
        universe: config.universe(),
    }
}

/// The sample `blot select` plans from (`FleetConfig::small()`, reseeded).
#[must_use]
pub fn generate_sample(seed: u64) -> Fleet {
    let small = FleetConfig::small();
    generate_fleet(small.num_taxis, small.records_per_taxi, seed)
}

// ---------------------------------------------------------------------
// Replica set and cost model (core).

/// One replica of the benchmark's fixed replica set.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSpec {
    pub spatial: usize,
    pub temporal: usize,
    pub encoding: EncodingScheme,
}

impl ReplicaSpec {
    fn config(&self) -> ReplicaConfig {
        ReplicaConfig::new(SchemeSpec::new(self.spatial, self.temporal), self.encoding)
    }

    /// `S64xT4/ROW-LZF`, as `blot build --replica` spells it.
    #[must_use]
    pub fn label(&self) -> String {
        self.config().to_string()
    }
}

/// `R3`: space-fine + fast codec, time-fine + slow codec, balanced +
/// uncompressed, so that routing genuinely splits by query shape. The
/// time-fine replica has 16 slices, not 32: at 1 M records a 32-slice unit
/// costs the model almost exactly two units of the others, and calibration
/// noise then flips tiny queries onto a replica that answers 20× slower.
pub const R3: [ReplicaSpec; 3] = [
    ReplicaSpec {
        spatial: 64,
        temporal: 4,
        encoding: EncodingScheme::new(Layout::Row, Compression::Lzf),
    },
    ReplicaSpec {
        spatial: 4,
        temporal: 16,
        encoding: EncodingScheme::new(Layout::Column, Compression::Deflate),
    },
    ReplicaSpec {
        spatial: 16,
        temporal: 8,
        encoding: EncodingScheme::new(Layout::Row, Compression::Plain),
    },
];

/// The encoding whose size defines "raw bytes" (`ROW-PLAIN`).
pub const RAW: EncodingScheme = EncodingScheme::new(Layout::Row, Compression::Plain);

/// The simulated environment every store and model uses.
fn env() -> EnvProfile {
    EnvProfile::local_cluster()
}

#[must_use]
pub fn env_name() -> &'static str {
    env().name
}

/// The calibration shape the benchmark uses: the §V-B procedure with 3
/// partition sets of 5. `CalibrationConfig::paper()` (5 × 20, up to 32 k
/// records) takes ~30 s on two cores, more than a whole run may.
fn calibration() -> CalibrationConfig {
    CalibrationConfig {
        sizes: vec![1_000, 2_000, 4_000],
        partitions_per_set: 5,
    }
}

#[must_use]
pub fn calibration_label() -> String {
    let c = calibration();
    format!("sizes {:?} x {} partitions", c.sizes, c.partitions_per_set)
}

/// A calibrated cost model.
#[derive(Debug, Clone)]
pub struct Model(CostModel);

impl Model {
    /// `CostModel::calibrate_with` on `sample`. Times the host, so two
    /// calls never fit exactly the same parameters.
    #[must_use]
    pub fn calibrate(sample: &RecordBatch, seed: u64) -> Self {
        Self(CostModel::calibrate_with(&env(), sample, &calibration(), seed).0)
    }

    /// `(ms_per_record, extra_ms)` fitted for `scheme`.
    #[must_use]
    pub fn params(&self, scheme: EncodingScheme) -> (f64, f64) {
        let p = self.0.params(scheme);
        (p.ms_per_record.get(), p.extra_ms.get())
    }
}

// ---------------------------------------------------------------------
// One answer shape for in-process, remote and routed queries.

/// What a caller gets back from any query path.
#[derive(Debug)]
pub struct Answer {
    pub records: RecordBatch,
    pub replica: u32,
    /// The paper's `Cost(q, r)`: Σ simulated task ms.
    pub sim_ms: f64,
    /// Involved units planned (pruned ones included).
    pub units: usize,
    /// Of those, skipped on their zone map.
    pub units_skipped: usize,
    /// Payload bytes the skipped units never transferred.
    pub bytes_skipped: u64,
    /// Server-side stage breakdown; zero for in-process answers.
    pub admission_ms: f64,
    pub batch_ms: f64,
    pub store_ms: f64,
}

impl From<QueryResult> for Answer {
    fn from(r: QueryResult) -> Self {
        Self {
            records: r.records,
            replica: r.replica,
            sim_ms: r.sim_ms,
            units: r.partitions_scanned,
            units_skipped: r.units_skipped,
            bytes_skipped: r.bytes_skipped,
            admission_ms: 0.0,
            batch_ms: 0.0,
            store_ms: 0.0,
        }
    }
}

impl From<RemoteQueryResult> for Answer {
    fn from(r: RemoteQueryResult) -> Self {
        Self {
            records: r.records,
            replica: r.replica,
            sim_ms: r.sim_ms,
            units: r.partitions_scanned as usize,
            units_skipped: usize::try_from(r.units_skipped).unwrap_or(usize::MAX),
            bytes_skipped: r.bytes_skipped,
            admission_ms: r.admission_ms,
            batch_ms: r.batch_ms,
            store_ms: r.store_ms,
        }
    }
}

// ---------------------------------------------------------------------
// The store (core + index + codec + storage).

/// What one built replica looks like from outside.
#[derive(Debug, Clone)]
pub struct ReplicaInfo {
    pub id: u32,
    pub label: String,
    pub scheme: &'static str,
    pub units: usize,
    pub records: u64,
    pub bytes: u64,
}

/// A `BlotStore` on a `FileBackend` directory, plus a second handle on
/// the same directory for the layer-by-layer replay.
///
/// Flush policy: `FileBackend::put` writes and closes the file and never
/// fsyncs; reads are served from the operating system's page cache.
#[derive(Debug)]
pub struct Store {
    /// Shared with a server once one is started over it; building and
    /// ingesting need it unshared.
    store: Arc<BlotStore<FileBackend>>,
    files: FileBackend,
    dir: PathBuf,
}

impl Store {
    /// An empty store in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(dir: &Path, universe: Cuboid, model: &Model) -> Result<Self, SutError> {
        let backend = FileBackend::new(dir).map_err(err)?;
        let files = FileBackend::new(dir).map_err(err)?;
        Ok(Self {
            store: Arc::new(BlotStore::new(backend, env(), universe, model.0.clone())),
            files,
            dir: dir.to_owned(),
        })
    }

    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// # Errors
    ///
    /// A unit could not be written.
    pub fn build_replica(
        &mut self,
        data: &RecordBatch,
        spec: &ReplicaSpec,
    ) -> Result<u32, SutError> {
        self.unshared()?
            .build_replica(data, spec.config())
            .map_err(err)
    }

    fn unshared(&mut self) -> Result<&mut BlotStore<FileBackend>, SutError> {
        Arc::get_mut(&mut self.store).ok_or_else(|| "the store is shared with a server".to_owned())
    }

    #[must_use]
    pub fn replicas(&self) -> Vec<ReplicaInfo> {
        self.store
            .replicas()
            .iter()
            .map(|r| ReplicaInfo {
                id: r.id,
                label: r.config.to_string(),
                scheme: r.config.encoding.metric_label(),
                units: r.scheme.len(),
                records: r.records,
                bytes: r.bytes,
            })
            .collect()
    }

    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    /// Replica ids, estimated-cheapest first.
    #[must_use]
    pub fn route(&self, range: &Cuboid) -> Vec<u32> {
        self.store.route(range)
    }

    /// # Errors
    ///
    /// Every replica failed.
    pub fn query(&self, range: &Cuboid) -> Result<Answer, SutError> {
        self.store.query(range).map(Answer::from).map_err(err)
    }

    /// # Errors
    ///
    /// Unknown replica, or a unit could not be read.
    pub fn query_on(&self, replica: u32, range: &Cuboid) -> Result<Answer, SutError> {
        self.store
            .query_on(replica, range)
            .map(Answer::from)
            .map_err(err)
    }

    #[must_use]
    pub fn query_batch(&self, ranges: &[Cuboid]) -> Vec<Result<Answer, SutError>> {
        self.store
            .query_batch(ranges)
            .into_iter()
            .map(|r| r.map(Answer::from).map_err(err))
            .collect()
    }

    /// Appends `batch` to every replica; returns units rewritten.
    ///
    /// # Errors
    ///
    /// Records outside the universe, or a unit could not be rewritten.
    pub fn ingest(&mut self, batch: &RecordBatch) -> Result<usize, SutError> {
        self.unshared()?
            .ingest(batch)
            .map(|r| r.units_rewritten)
            .map_err(err)
    }

    /// Number of damaged units a full scrub finds.
    ///
    /// # Errors
    ///
    /// The scrub itself failed.
    pub fn scrub(&self) -> Result<usize, SutError> {
        self.store.scrub().map(|damaged| damaged.len()).map_err(err)
    }

    /// Median predicted/measured cost ratio per encoding scheme that has
    /// served queries, as `(scheme label, median, samples)`.
    #[must_use]
    pub fn drift_medians(&self) -> Vec<(&'static str, f64, u64)> {
        self.store
            .drift_report(DriftBand::default())
            .schemes
            .iter()
            .filter(|s| s.samples > 0)
            .map(|s| (s.scheme.metric_label(), s.median_ratio, s.samples))
            .collect()
    }

    // -- the layers of one query, callable one at a time (replay) ------

    fn replica(&self, id: u32) -> Result<&blot_core::store::BuiltReplica, SutError> {
        self.store
            .replicas()
            .get(id as usize)
            .ok_or_else(|| format!("no replica {id}"))
    }

    /// `PartitioningScheme::involved` on replica `id`.
    ///
    /// # Errors
    ///
    /// Unknown replica.
    pub fn involved(&self, id: u32, range: &Cuboid) -> Result<Vec<usize>, SutError> {
        Ok(self.replica(id)?.scheme.involved(range))
    }

    /// The partitions a batch's records fall into on replica `id`, with
    /// how many records each gets (`PartitioningScheme::assign_batch`).
    ///
    /// # Errors
    ///
    /// Unknown replica.
    pub fn assign(&self, id: u32, batch: &RecordBatch) -> Result<Vec<(usize, usize)>, SutError> {
        Ok(self
            .replica(id)?
            .scheme
            .assign_batch(batch)
            .iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(pid, part)| (pid, part.len()))
            .collect())
    }

    fn key(replica: u32, partition: usize) -> Result<UnitKey, SutError> {
        Ok(UnitKey {
            replica,
            partition: u32::try_from(partition).map_err(err)?,
        })
    }

    /// `Backend::get_tail`: the unit's zone-map footer and total size.
    ///
    /// # Errors
    ///
    /// The unit is missing or unreadable.
    pub fn get_tail(&self, replica: u32, partition: usize) -> Result<(Vec<u8>, u64), SutError> {
        self.files
            .get_tail(Self::key(replica, partition)?, ZONE_MAP_FOOTER_LEN)
            .map_err(err)
    }

    /// `Backend::get`: the whole unit.
    ///
    /// # Errors
    ///
    /// The unit is missing or unreadable.
    pub fn get(&self, replica: u32, partition: usize) -> Result<Vec<u8>, SutError> {
        self.files.get(Self::key(replica, partition)?).map_err(err)
    }

    /// `decode_filter_batched` with replica `id`'s scheme; returns the
    /// matching records and how many records the unit held.
    ///
    /// # Errors
    ///
    /// Unknown replica, or the bytes do not decode.
    pub fn decode_filter(
        &self,
        id: u32,
        unit: &[u8],
        range: &Cuboid,
        scratch: &mut Scratch,
    ) -> Result<(RecordBatch, usize), SutError> {
        decode_filter(self.replica(id)?.config.encoding, unit, range, scratch)
    }
}

/// Reusable decode buffers (`DecodeScratch`).
#[derive(Debug, Default)]
pub struct Scratch(DecodeScratch);

/// `EncodingScheme::decode_filter_batched`; returns the matching records
/// and how many records the unit held.
///
/// # Errors
///
/// The bytes do not decode under `scheme`.
pub fn decode_filter(
    scheme: EncodingScheme,
    unit: &[u8],
    range: &Cuboid,
    scratch: &mut Scratch,
) -> Result<(RecordBatch, usize), SutError> {
    let filtered = scheme
        .decode_filter_batched(unit, range, &mut scratch.0)
        .map_err(err)?;
    Ok((filtered.matched, filtered.scanned))
}

/// `ZoneMap::split_footer` + `overlaps` on a unit tail: whether the
/// footer proves the unit holds nothing inside `range`.
///
/// # Errors
///
/// The footer is damaged.
pub fn zonemap_prunes(tail: &[u8], range: &Cuboid) -> Result<bool, SutError> {
    let (_, zone_map) = ZoneMap::split_footer(tail).map_err(err)?;
    Ok(zone_map.is_some_and(|zm| !zm.overlaps(range)))
}

// ---------------------------------------------------------------------
// Single layers, for the per-layer probes.

/// `EncodingScheme::encode`.
#[must_use]
pub fn encode(scheme: EncodingScheme, batch: &RecordBatch) -> Vec<u8> {
    scheme.encode(batch)
}

/// A built `PartitioningScheme`, opaque to the harness.
#[derive(Debug)]
pub struct Partitioning(PartitioningScheme);

/// `PartitioningScheme::build`.
#[must_use]
pub fn build_partitioning(
    data: &RecordBatch,
    universe: Cuboid,
    spec: &ReplicaSpec,
) -> Partitioning {
    Partitioning(PartitioningScheme::build(
        data,
        universe,
        SchemeSpec::new(spec.spatial, spec.temporal),
    ))
}

impl Partitioning {
    /// `assign_batch`; returns the sub-batch per partition.
    #[must_use]
    pub fn assign_batch(&self, batch: &RecordBatch) -> Vec<RecordBatch> {
        self.0.assign_batch(batch)
    }
}

/// A `FileBackend` on its own directory, for put/get probes.
#[derive(Debug)]
pub struct Files(FileBackend);

impl Files {
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, SutError> {
        FileBackend::new(dir).map(Self).map_err(err)
    }

    /// # Errors
    ///
    /// The unit cannot be written.
    pub fn put(&self, partition: u32, bytes: Vec<u8>) -> Result<(), SutError> {
        let key = UnitKey {
            replica: 0,
            partition,
        };
        self.0.put(key, bytes).map_err(err)
    }
}

/// A `ScanExecutor` (the store's pool type) of a chosen width.
#[derive(Debug)]
pub struct Pool(ScanExecutor);

impl Pool {
    /// The width every store gets (`with_default_parallelism`).
    #[must_use]
    pub fn default_width() -> Self {
        Self(ScanExecutor::with_default_parallelism())
    }

    #[must_use]
    pub fn single() -> Self {
        Self(ScanExecutor::new(1))
    }

    #[must_use]
    pub fn threads(&self) -> usize {
        self.0.threads()
    }

    /// `execute_all` over infallible tasks.
    ///
    /// # Errors
    ///
    /// A worker panicked.
    pub fn run_all<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, SutError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let tasks: Vec<_> = tasks
            .into_iter()
            .map(|f| move || Ok::<T, StorageError>(f()))
            .collect();
        self.0.execute_all(tasks).map_err(err)
    }
}

// ---------------------------------------------------------------------
// Serving (server + wire).

/// `ServerConfig::default()`, echoed into the provenance.
#[must_use]
pub fn server_config_label() -> String {
    let c = ServerConfig::default();
    format!(
        "handlers {} queue_depth {} max_batch {} batch_linger_ms {} max_conns {}",
        c.handlers,
        c.queue_depth,
        c.max_batch,
        c.batch_linger.as_secs_f64() * 1e3,
        c.max_conns
    )
}

/// A loopback server over any `QueryService`.
#[derive(Debug)]
pub struct Served {
    server: Server,
    addr: String,
}

impl Served {
    fn start<S>(service: Arc<S>) -> Result<Self, SutError>
    where
        S: blot_core::store::QueryService + ?Sized + 'static,
    {
        let server = Server::start(service, "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
        let addr = server.local_addr().to_string();
        Ok(Self { server, addr })
    }

    /// Serves `store` on a fresh loopback port.
    ///
    /// # Errors
    ///
    /// The port cannot be bound or a service thread cannot start.
    pub fn store(store: &Store) -> Result<Self, SutError> {
        Self::start(Arc::clone(&store.store))
    }

    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `(mean batch size, requests, shed)` from the server's own
    /// registry.
    #[must_use]
    pub fn counters(&self) -> (f64, u64, u64) {
        let snap = self.server.registry().snapshot();
        (
            snap.histogram("server.batch_size")
                .map_or(0.0, |h| h.mean()),
            snap.counter("server.requests").unwrap_or(0),
            snap.counter("server.shed").unwrap_or(0),
        )
    }

    /// Graceful shutdown; `false` if a service thread did not join.
    #[must_use]
    pub fn shutdown(self) -> bool {
        self.server.shutdown(Duration::from_secs(10)).threads_joined
    }
}

/// One client connection (`Client::connect_with`, default config).
#[derive(Debug)]
pub struct Conn(Client);

impl Conn {
    /// # Errors
    ///
    /// The connection cannot be established.
    pub fn open(addr: &str) -> Result<Self, SutError> {
        Client::connect_with(addr, ClientConfig::default())
            .map(Self)
            .map_err(err)
    }

    /// # Errors
    ///
    /// Transport or server error.
    pub fn ping(&mut self) -> Result<(), SutError> {
        self.0.ping().map_err(err)
    }

    /// `Client::query`: retries `Overloaded` with backoff.
    ///
    /// # Errors
    ///
    /// Shed after every retry, server error, or transport error.
    pub fn query(&mut self, range: &Cuboid) -> Result<Answer, SutError> {
        self.0.query(range).map(Answer::from).map_err(err)
    }

    /// Cumulative `Overloaded` retries of this connection.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.0.retries()
    }
}

/// The wire codec called directly, on one request and one reply.
pub mod codec_probe {
    use super::{wire, Answer, Cuboid, Frame, RemoteQueryResult, Request, Response, WireQuery};

    /// An encoded request or reply: `(kind, payload)`.
    pub type Encoded = (u8, Vec<u8>);

    #[must_use]
    pub fn encode_request(range: &Cuboid) -> Encoded {
        Request::RangeQuery(WireQuery::new(*range)).encode()
    }

    /// `Request::decode`; `true` if it decoded.
    #[must_use]
    pub fn decode_request(encoded: &Encoded) -> bool {
        Request::decode(&Frame {
            kind: encoded.0,
            payload: encoded.1.clone(),
        })
        .is_ok()
    }

    /// A reply as the server would build it for `answer`.
    #[must_use]
    pub fn reply_for(answer: &Answer) -> Response {
        Response::QueryOk(Box::new(RemoteQueryResult {
            records: answer.records.clone(),
            replica: answer.replica,
            sim_ms: answer.sim_ms,
            makespan_ms: 0.0,
            partitions_scanned: u32::try_from(answer.units).unwrap_or(u32::MAX),
            units_skipped: answer.units_skipped as u64,
            bytes_skipped: answer.bytes_skipped,
            admission_ms: answer.admission_ms,
            batch_ms: answer.batch_ms,
            store_ms: answer.store_ms,
            failed_over: Vec::new(),
        }))
    }

    #[must_use]
    pub fn encode_reply(reply: &Response) -> Encoded {
        reply.encode()
    }

    /// `write_frame` + `read_frame` through memory, then
    /// `Response::decode`; returns the records decoded.
    #[must_use]
    pub fn decode_reply(encoded: &Encoded) -> Option<usize> {
        let mut framed = Vec::with_capacity(encoded.1.len() + wire::HEADER_LEN);
        wire::write_frame(&mut framed, encoded.0, &encoded.1).ok()?;
        let frame = wire::read_frame(&mut framed.as_slice()).ok()?;
        match Response::decode(&frame).ok()? {
            Response::QueryOk(r) => Some(r.records.len()),
            _ => None,
        }
    }

    /// The largest payload a frame may carry.
    pub const MAX_PAYLOAD: u32 = wire::MAX_PAYLOAD;
}

// ---------------------------------------------------------------------
// Routing (router).

/// The shard map the routed workload uses: `OidHash` over `shards`.
#[derive(Debug, Clone)]
pub struct Shards {
    map: ShardMap,
}

impl Shards {
    /// A map with placeholder addresses, for placing records.
    ///
    /// # Errors
    ///
    /// `shards` is zero.
    pub fn placement(shards: u32) -> Result<Self, SutError> {
        Self::at(0, (0..shards).map(|i| format!("placeholder:{i}")).collect())
    }

    /// The same spec bound to real shard addresses.
    ///
    /// # Errors
    ///
    /// No addresses.
    pub fn at(version: u64, addrs: Vec<String>) -> Result<Self, SutError> {
        let shards = u32::try_from(addrs.len()).map_err(err)?;
        ShardMap::new(version, ShardSpec::OidHash { shards }, addrs)
            .map(|map| Self { map })
            .map_err(err)
    }

    #[must_use]
    pub fn shard_of(&self, record: &Record) -> u32 {
        self.map.shard_of(record)
    }

    /// `ShardMap::fanout`: shards a query must visit.
    #[must_use]
    pub fn fanout(&self, range: &Cuboid) -> Vec<u32> {
        self.map.fanout(range)
    }
}

/// A `RouterService` over running shard servers, itself served by a
/// front server.
#[derive(Debug)]
pub struct Routed {
    service: Arc<RouterService>,
    front: Served,
}

impl Routed {
    /// # Errors
    ///
    /// The coordinator's shard pool or the front server cannot start.
    pub fn start(shards: &Shards) -> Result<Self, SutError> {
        let service =
            Arc::new(RouterService::new(shards.map.clone(), RouterConfig::default()).map_err(err)?);
        let front = Served::start(Arc::clone(&service))?;
        Ok(Self { service, front })
    }

    #[must_use]
    pub fn addr(&self) -> &str {
        self.front.addr()
    }

    /// `Coordinator::query` in-process: scatter, gather, merge, without
    /// the front server's hop. Returns the answer and the fan-out.
    ///
    /// # Errors
    ///
    /// A shard stayed unreachable or answered with an error.
    pub fn coordinator_query(&self, range: &Cuboid) -> Result<(Answer, u32), SutError> {
        let r = self.service.coordinator().query(range).map_err(err)?;
        let fanout = r.fanout;
        Ok((
            Answer {
                records: r.records,
                replica: 0,
                sim_ms: r.sim_ms,
                units: r.partitions_scanned,
                units_skipped: r.units_skipped,
                bytes_skipped: r.bytes_skipped,
                admission_ms: 0.0,
                batch_ms: 0.0,
                store_ms: 0.0,
            },
            fanout,
        ))
    }

    /// The front server's own counters (see [`Served::counters`]).
    #[must_use]
    pub fn counters(&self) -> (f64, u64, u64) {
        self.front.counters()
    }

    /// Shuts the front server down; `false` if a thread did not join.
    #[must_use]
    pub fn shutdown(self) -> bool {
        self.front.shutdown()
    }
}

// ---------------------------------------------------------------------
// Replica selection (core::select + mip).

/// The inputs of `blot select`, fixed for the `advise` workload.
#[derive(Debug)]
pub struct Advisor {
    model: Model,
    sample: Fleet,
    workload: Workload,
    candidates: Vec<ReplicaConfig>,
    dataset_records: f64,
}

/// One `estimate → prune → greedy → MIP` round at one budget.
#[derive(Debug, Clone, Copy)]
pub struct Advice {
    pub candidates_kept: usize,
    pub greedy_gain_evals: usize,
    pub greedy_cost: f64,
    pub mip_cost: f64,
    pub mip_nodes: u64,
    pub mip_proven: bool,
    /// Mean estimated cost per workload query of the MIP's set,
    /// `Cost(W, R) / Σ w` in simulated ms.
    pub mip_cost_per_query_ms: f64,
    /// `Storage(R)` of the MIP's set over the raw size of the dataset.
    pub mip_storage_per_raw_byte: f64,
}

/// The steps of one round, so that a caller can time each.
pub trait AdviceSteps {
    /// Called around each step with its name.
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

impl Advisor {
    /// `Workload::paper_synthetic` × `ReplicaConfig::grid(specs, all)`,
    /// priced for `dataset_records` records; `specs` is the paper's grid
    /// (175 candidates) or the small one (28).
    #[must_use]
    pub fn new(model: Model, sample: Fleet, dataset_records: f64, paper_grid: bool) -> Self {
        let workload = Workload::paper_synthetic(&sample.universe);
        let specs = if paper_grid {
            SchemeSpec::paper_grid()
        } else {
            SchemeSpec::small_grid()
        };
        let candidates = ReplicaConfig::grid(&specs, &EncodingScheme::all());
        Self {
            model,
            sample,
            workload,
            candidates,
            dataset_records,
        }
    }

    #[must_use]
    pub fn candidates(&self) -> usize {
        self.candidates.len()
    }

    #[must_use]
    pub fn workload_queries(&self) -> usize {
        self.workload.len()
    }

    /// One round at `copies` × the storage of the optimal single replica.
    ///
    /// # Errors
    ///
    /// The MIP found no feasible set.
    pub fn advise(&self, copies: f64, steps: &mut impl AdviceSteps) -> Result<Advice, SutError> {
        let matrix = steps.step("core.estimate_matrix", || {
            CostMatrix::estimate_scaled(
                &self.model.0,
                &self.workload,
                &self.candidates,
                &self.sample.data,
                self.sample.universe,
                self.dataset_records,
            )
        });
        let kept = steps.step("core.prune_dominated", || prune_dominated(&matrix));
        let pruned = CostMatrix {
            costs: matrix
                .costs
                .iter()
                .map(|row| kept.iter().filter_map(|&j| row.get(j).copied()).collect())
                .collect(),
            weights: matrix.weights.clone(),
            storage: kept
                .iter()
                .filter_map(|&j| matrix.storage.get(j).copied())
                .collect(),
        };
        let single = matrix
            .storage
            .get(matrix.optimal_single().0)
            .copied()
            .unwrap_or(Bytes::ZERO);
        let budget = single * copies;
        let (greedy, greedy_stats) =
            steps.step("core.greedy", || select_greedy_with_stats(&pruned, budget));
        let solver = MipSolver::default();
        let mip = steps
            .step("core.select_mip", || select_mip(&pruned, budget, &solver))
            .map_err(err)?;
        // The bare solve, on the same problem `select_mip` builds.
        let problem = build_selection_problem(&pruned, budget);
        let bare = steps
            .step("mip.solve", || solver.solve_seeded(&problem, None))
            .map_err(err)?;
        let weight: f64 = matrix.weights.iter().sum();
        let raw = self
            .model
            .0
            .replica_storage_bytes(RAW, self.dataset_records);
        Ok(Advice {
            candidates_kept: kept.len(),
            greedy_gain_evals: greedy_stats.gain_evaluations,
            greedy_cost: greedy.workload_cost,
            mip_cost: mip.workload_cost,
            mip_nodes: bare.stats.nodes_explored,
            mip_proven: mip.proven_optimal,
            mip_cost_per_query_ms: mip.workload_cost / weight,
            mip_storage_per_raw_byte: mip.storage / raw,
        })
    }
}
