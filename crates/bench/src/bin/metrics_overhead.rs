//! Measures the cost of the observability layer on the query hot path.
//!
//! Runs a fixed, deterministic query workload against an in-memory
//! store and prints one JSON line with the per-round wall times. The
//! `cargo xtask metrics-overhead` guard builds this probe twice — with
//! metrics compiled in (default) and compiled out (`--features
//! obs-off`) — and fails if the instrumented minimum round time
//! exceeds the compiled-out one by more than 5%.
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
use blot_storage::MemBackend;
use blot_tracegen::FleetConfig;
use std::time::Instant;

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

/// One round: a fixed ladder of centroid queries of shrinking extent.
/// Every query runs through `query_batch_traced` — the entry point the
/// server's batcher calls — so the instrumented build pays the full
/// tracing path — root span, per-stage children, flight-recorder ring
/// writes — and the guard's ratio bounds what tracing costs on the
/// served path, not just counters.
fn run_round(store: &BlotStore<MemBackend>) -> usize {
    let u = store.universe();
    let mut returned = 0;
    for k in 0..QUERIES_PER_ROUND {
        let f = 2.0 + k as f64 * 0.25;
        let q = Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / f, u.extent(1) / f, u.extent(2) / f),
        );
        for result in store.query_batch_traced(&[TracedQuery::new(q)]) {
            returned += result.unwrap().records.len();
        }
    }
    returned
}

fn main() {
    let store = build_store();
    // Warm-up: fault in units, warm caches, settle the pool.
    let checksum = run_round(&store);
    let mut round_ms = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let got = run_round(&store);
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(got, checksum, "workload must be deterministic");
    }
    round_ms.sort_by(f64::total_cmp);
    let min_ms = round_ms.first().copied().unwrap_or(0.0);
    let median_ms = round_ms.get(round_ms.len() / 2).copied().unwrap_or(0.0);
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
        ("spans", Json::Num(spans as f64)),
        ("checksum", Json::Num(checksum as f64)),
    ]);
    println!("{doc}");
}
