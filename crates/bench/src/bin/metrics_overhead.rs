//! Measures the cost of the observability layer on the query hot path.
//!
//! Runs a fixed, deterministic query workload against an in-memory
//! store twice — in process, then through a loopback `Server` and one
//! `Client` — and prints one JSON line with the per-round wall times of
//! each phase. The `cargo xtask metrics-overhead` guard builds this
//! probe twice — with metrics compiled in (default) and compiled out
//! (`--features obs-off`) — and fails if either phase's instrumented
//! minimum round time exceeds the compiled-out one by more than 5%.
//!
//! ```sh
//! cargo run --release -p blot-bench --bin metrics_overhead
//! cargo run --release -p blot-bench --bin metrics_overhead --features obs-off
//! ```

// Bench/driver code runs on data it constructs; panics here indicate a
// harness bug, not a recoverable condition.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_precision_loss
)]

use blot_core::prelude::*;
use blot_json::Json;
use blot_server::{Client, Server, ServerConfig};
use blot_storage::MemBackend;
use blot_tracegen::FleetConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 12;
const QUERIES_PER_ROUND: usize = 40;

fn build_store() -> BlotStore<MemBackend> {
    let mut config = FleetConfig::small();
    config.num_taxis = 80;
    config.records_per_taxi = 200;
    config.seed = 0x0B5E;
    let data = config.generate();
    let universe = config.universe();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 0x0B5E);
    let mut store = BlotStore::new(MemBackend::new(), env, universe, model);
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
    store
}

/// One round's queries: a fixed ladder of centroid queries of shrinking
/// extent.
fn ladder(u: Cuboid) -> impl Iterator<Item = Cuboid> {
    (0..QUERIES_PER_ROUND).map(move |k| {
        let f = 2.0 + k as f64 * 0.25;
        Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / f, u.extent(1) / f, u.extent(2) / f),
        )
    })
}

/// One in-process round. Every query runs through `query_batch_traced`
/// — the entry point the server's batch lanes call — so the
/// instrumented build pays the full tracing path — root span, per-stage
/// children, flight-recorder ring writes — and the guard's ratio bounds
/// what tracing costs, not just counters.
fn run_round(store: &BlotStore<MemBackend>) -> usize {
    ladder(store.universe())
        .flat_map(|q| store.query_batch_traced(&[TracedQuery::new(q)]))
        .map(|result| result.unwrap().records.len())
        .sum()
}

/// One served round: the same ladder over the wire, which adds the
/// `server.request` / `server.admission` / `server.batch` spans and the
/// serving-layer instruments to what the instrumented build pays.
fn run_served_round(client: &mut Client, universe: Cuboid) -> usize {
    ladder(universe)
        .map(|q| client.query(&q).unwrap().records.len())
        .sum()
}

/// A warm-up round (fault in units, warm caches, settle the pool), then
/// [`ROUNDS`] timed ones: the round's checksum and the minimum and
/// median round time in milliseconds.
fn time_rounds(mut round: impl FnMut() -> usize) -> (usize, f64, f64) {
    let checksum = round();
    let mut round_ms = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let got = round();
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(got, checksum, "workload must be deterministic");
    }
    round_ms.sort_by(f64::total_cmp);
    let min_ms = round_ms.first().copied().unwrap_or(0.0);
    let median_ms = round_ms.get(round_ms.len() / 2).copied().unwrap_or(0.0);
    (checksum, min_ms, median_ms)
}

fn main() {
    let store = Arc::new(build_store());
    let (checksum, min_ms, median_ms) = time_rounds(|| run_round(&store));

    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let universe = store.universe();
    let (served_checksum, served_min_ms, served_median_ms) =
        time_rounds(|| run_served_round(&mut client, universe));
    assert_eq!(
        served_checksum, checksum,
        "the wire must not change answers"
    );
    drop(client);
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined && report.pool_drained);

    let spans = store.recorder().recorded();
    if !blot_obs::enabled() {
        // The `off` feature must compile the whole trace layer to
        // zero-sized no-ops: no spans recorded, no bytes per handle.
        assert_eq!(spans, 0, "off build must record nothing");
        assert_eq!(std::mem::size_of::<blot_obs::FlightRecorder>(), 0);
        assert_eq!(std::mem::size_of::<blot_obs::TraceSpan>(), 0);
        assert_eq!(std::mem::size_of::<blot_obs::SpanHandle>(), 0);
    }
    let doc = Json::obj([
        ("enabled", Json::Bool(blot_obs::enabled())),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("queries_per_round", Json::Num(QUERIES_PER_ROUND as f64)),
        ("min_ms", Json::Num(min_ms)),
        ("median_ms", Json::Num(median_ms)),
        ("served_min_ms", Json::Num(served_min_ms)),
        ("served_median_ms", Json::Num(served_median_ms)),
        ("spans", Json::Num(spans as f64)),
        ("checksum", Json::Num(checksum as f64)),
    ]);
    println!("{doc}");
}
