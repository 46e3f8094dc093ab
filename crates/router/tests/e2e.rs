//! Loopback scatter-gather end-to-end tests: real `blot-server` shards
//! on port 0, a real coordinator over real TCP, asserting
//!
//! * merged results are **bit-identical** to a single store holding
//!   the whole fleet,
//! * axis-cut maps prune fan-out without losing records,
//! * a shard killed mid-query yields a structured, retry-hinted error
//!   (never a hang, never silent partial results),
//! * an overloaded shard's shed propagates as the same structured
//!   error, and the query succeeds once the shard recovers,
//! * the coordinator's `Stats` view aggregates every shard.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_precision_loss
)]

#[path = "../../server/tests/support/mod.rs"]
mod support;

/// The `blot` CLI's stats renderer, the one way a stats document
/// becomes text.
#[path = "../../cli/src/stats.rs"]
mod cli_stats;

use std::io::Read;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_router::{
    Coordinator, PoolConfig, RouterConfig, RouterError, RouterService, ShardMap, ShardSpec,
};
use blot_server::client::{Client, ClientConfig, ClientError};
use blot_server::server::{Server, ServerConfig};
use blot_server::wire::ErrorCode;
use blot_storage::MemBackend;
use blot_tracegen::FleetConfig;

use support::{ask, occupy_lanes, wait_until, Latched};

type TestStore = BlotStore<MemBackend>;

fn fleet() -> (RecordBatch, Cuboid) {
    let mut config = FleetConfig::small();
    config.num_taxis = 40;
    config.records_per_taxi = 120;
    (config.generate(), config.universe())
}

/// A store over `data` with the same two-replica layout the server
/// e2e suite uses (per-shard replica selection stays local to each
/// shard's own store).
fn build_store(data: &RecordBatch, universe: Cuboid) -> TestStore {
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, data, 23);
    let mut store = BlotStore::new(MemBackend::new(), env, universe, model);
    store
        .build_replica(
            data,
            ReplicaConfig::new(
                SchemeSpec::new(16, 4),
                EncodingScheme::new(Layout::Row, Compression::Lzf),
            ),
        )
        .unwrap();
    store
        .build_replica(
            data,
            ReplicaConfig::new(
                SchemeSpec::new(4, 2),
                EncodingScheme::new(Layout::Column, Compression::Deflate),
            ),
        )
        .unwrap();
    store
}

/// Partitions `data` by `spec` (addresses are placeholders: placement
/// depends only on the spec).
fn partition(spec: &ShardSpec, data: &RecordBatch) -> Vec<RecordBatch> {
    let n = spec.shard_count();
    let placeholder: Vec<String> = (0..n).map(|i| format!("placeholder:{i}")).collect();
    let map = ShardMap::new(0, spec.clone(), placeholder).unwrap();
    let mut shards: Vec<RecordBatch> = (0..n).map(|_| RecordBatch::new()).collect();
    for r in data.iter() {
        shards[map.shard_of(&r) as usize].push(r);
    }
    shards
}

/// Starts one real server per shard slice and returns the servers plus
/// the live shard map binding their addresses.
fn start_shards(spec: ShardSpec, data: &RecordBatch, universe: Cuboid) -> (Vec<Server>, ShardMap) {
    let slices = partition(&spec, data);
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for slice in &slices {
        assert!(
            !slice.is_empty(),
            "test topology must give every shard records"
        );
        let store = Arc::new(build_store(slice, universe));
        let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    let map = ShardMap::new(1, spec, addrs).unwrap();
    (servers, map)
}

fn probe_queries(universe: &Cuboid, n: usize) -> Vec<Cuboid> {
    (0..n)
        .map(|k| {
            let f = 1.5 + k as f64;
            Cuboid::from_centroid(
                universe.centroid(),
                QuerySize::new(
                    universe.extent(0) / f,
                    universe.extent(1) / f,
                    universe.extent(2) / f,
                ),
            )
        })
        .collect()
}

fn sorted(records: &RecordBatch) -> RecordBatch {
    let mut out = records.clone();
    out.sort_by_oid_time();
    out
}

#[test]
fn four_shard_scatter_gather_is_bit_identical_to_single_store() {
    let (data, universe) = fleet();
    let single = build_store(&data, universe);
    let (servers, map) = start_shards(ShardSpec::OidHash { shards: 4 }, &data, universe);
    let coordinator = Coordinator::new(map, RouterConfig::default()).unwrap();

    for q in probe_queries(&universe, 10) {
        let asked = Instant::now();
        let dist = coordinator.query(&q).unwrap();
        let gather_ms = asked.elapsed().as_secs_f64() * 1e3;
        let local = single.query(&q).unwrap();
        assert_eq!(
            dist.records,
            sorted(&local.records),
            "merged records must be bit-identical to the single store"
        );
        // Belt and braces: the raw-data oracle agrees too.
        assert_eq!(dist.records, sorted(&data.filter_range(&q)));
        assert_eq!(dist.fanout, 4, "oid-hash queries touch every shard");
        assert_eq!(dist.shards.len(), 4);
        let leg_sum: usize = dist.shards.iter().map(|l| l.records).sum();
        assert_eq!(leg_sum, dist.records.len());
        // Each leg's wall time covers the shard's own admission wait,
        // and the slowest leg fits inside the gather that waited for it.
        for leg in &dist.shards {
            assert!(leg.admission_ms >= 0.0);
            assert!(
                leg.wall_ms >= leg.admission_ms,
                "shard {}: wall {} ms < admission {} ms",
                leg.shard,
                leg.wall_ms,
                leg.admission_ms
            );
        }
        let slowest = dist.shards.iter().map(|l| l.wall_ms).fold(0.0, f64::max);
        assert!(slowest > 0.0);
        assert!(
            slowest <= gather_ms,
            "slowest leg {slowest} ms outlasted the {gather_ms} ms gather"
        );
    }

    // The scatter-gather span tree landed in the coordinator's own
    // recorder: one router.query root per query, with per-shard legs.
    if blot_obs::enabled() {
        let spans = coordinator.recorder().snapshot();
        assert!(spans.iter().any(|s| s.name.as_str() == "router.query"));
        assert!(spans.iter().any(|s| s.name.as_str() == "router.shard"));
    }

    for server in servers {
        let report = server.shutdown(Duration::from_secs(10));
        assert!(report.threads_joined);
    }
}

#[test]
fn batched_queries_match_single_store_too() {
    let (data, universe) = fleet();
    let single = build_store(&data, universe);
    let (servers, map) = start_shards(ShardSpec::OidHash { shards: 4 }, &data, universe);
    let coordinator = Coordinator::new(map, RouterConfig::default()).unwrap();

    let queries: Vec<(Cuboid, _)> = probe_queries(&universe, 6)
        .into_iter()
        .map(|q| (q, None))
        .collect();
    let results = coordinator.query_batch_traced(&queries);
    assert_eq!(results.len(), 6);
    for ((q, _), result) in queries.iter().zip(results) {
        let dist = result.unwrap();
        let local = single.query(q).unwrap();
        assert_eq!(dist.records, sorted(&local.records));
    }
    for server in servers {
        let _ = server.shutdown(Duration::from_secs(10));
    }
}

#[test]
fn axis_cut_fanout_prunes_to_matching_shards_without_losing_records() {
    let (data, universe) = fleet();
    let single = build_store(&data, universe);
    // Slice the time axis at the data's quartiles so every slab is
    // populated regardless of how the trace distributes timestamps.
    let mut times: Vec<f64> = data.iter().map(|r| r.time as f64).collect();
    times.sort_by(f64::total_cmp);
    let cuts: Vec<f64> = (1..4).map(|k| times[k * times.len() / 4]).collect();
    assert!(cuts.windows(2).all(|w| w[0] < w[1]), "degenerate quartiles");
    let spec = ShardSpec::AxisCuts {
        axis: 2,
        cuts: cuts.clone(),
    };
    let (servers, map) = start_shards(spec, &data, universe);
    let coordinator = Coordinator::new(map, RouterConfig::default()).unwrap();

    // A thin slab query (strictly below the first cut) must prune its
    // fan-out below 4 shards…
    let thin = Cuboid::new(
        Point::new(universe.min().x, universe.min().y, times[0]),
        Point::new(
            universe.max().x,
            universe.max().y,
            (times[0] + cuts[0]) / 2.0,
        ),
    );
    let dist = coordinator.query(&thin).unwrap();
    assert!(dist.fanout < 4, "thin time slab must prune fan-out");
    assert_eq!(dist.records, sorted(&single.query(&thin).unwrap().records));

    // …and a universe-wide query still gathers everything, losslessly.
    for q in probe_queries(&universe, 8) {
        let dist = coordinator.query(&q).unwrap();
        assert_eq!(
            dist.records,
            sorted(&single.query(&q).unwrap().records),
            "axis-cut merge must be bit-identical"
        );
    }
    if blot_obs::enabled() {
        let snap = coordinator.registry().snapshot();
        assert!(snap.counter("router.fanout_pruned").unwrap_or(0) >= 1);
    }
    for server in servers {
        let _ = server.shutdown(Duration::from_secs(10));
    }
}

/// A stub shard that accepts connections, reads the start of the
/// request, then drops the socket — a server crashing mid-query.
fn spawn_crashing_shard() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Detached on purpose: the loop lives for the test process.
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 64];
            let _ = stream.read(&mut buf);
            drop(stream); // connection reset mid-request
        }
    });
    addr
}

#[test]
fn killed_shard_mid_query_yields_structured_error_with_retry_hint() {
    let (data, universe) = fleet();
    // Shards 0..3 are real; shard 3 is the crash stub.
    let spec = ShardSpec::OidHash { shards: 3 };
    let (servers, healthy_map) = start_shards(spec, &data, universe);
    let mut addrs: Vec<String> = healthy_map.addrs().to_vec();
    addrs.push(spawn_crashing_shard());
    let map = ShardMap::new(2, ShardSpec::OidHash { shards: 4 }, addrs).unwrap();

    let config = RouterConfig {
        pool: PoolConfig {
            client: ClientConfig {
                max_retries: 1,
                io_timeout: Duration::from_secs(2),
                max_backoff: Duration::from_millis(50),
            },
            ..PoolConfig::default()
        },
        gather_timeout: Duration::from_secs(20),
        ..RouterConfig::default()
    };
    let coordinator = Coordinator::new(map, config).unwrap();

    let q = probe_queries(&universe, 1)[0];
    let started = Instant::now();
    let err = coordinator.query(&q).unwrap_err();
    let elapsed = started.elapsed();
    match &err {
        RouterError::ShardUnavailable {
            shard,
            retry_after_ms,
            ..
        } => {
            assert_eq!(*shard, 3, "the crashed shard must be named");
            assert!(*retry_after_ms > 0, "the error must carry a retry hint");
        }
        other => panic!("expected ShardUnavailable, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "failure must be prompt, not a hang (took {elapsed:?})"
    );
    if blot_obs::enabled() {
        let snap = coordinator.registry().snapshot();
        assert!(snap.counter("router.shard_failures").unwrap_or(0) >= 1);
        assert!(snap.counter("router.shard3.errors").unwrap_or(0) >= 1);
    }
    for server in servers {
        let _ = server.shutdown(Duration::from_secs(10));
    }
}

#[test]
fn killed_shard_error_propagates_over_the_wire_with_its_hint() {
    let (data, universe) = fleet();
    let (servers, healthy_map) = start_shards(ShardSpec::OidHash { shards: 3 }, &data, universe);
    let mut addrs: Vec<String> = healthy_map.addrs().to_vec();
    addrs.push(spawn_crashing_shard());
    let map = ShardMap::new(2, ShardSpec::OidHash { shards: 4 }, addrs).unwrap();
    let config = RouterConfig {
        pool: PoolConfig {
            client: ClientConfig {
                max_retries: 0,
                io_timeout: Duration::from_secs(2),
                max_backoff: Duration::from_millis(50),
            },
            ..PoolConfig::default()
        },
        ..RouterConfig::default()
    };
    let service = RouterService::new(map, config).unwrap();
    // Front the coordinator with the ordinary serving layer…
    let front = Server::start(Arc::new(service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_with(
        &front.local_addr().to_string(),
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    // …and the structured error (code + retry hint) crosses the wire.
    let q = probe_queries(&universe, 1)[0];
    let wire_err = match client.query(&q) {
        Err(ClientError::Exhausted { last, .. }) => last,
        other => panic!("expected the shard's retryable error, got {other:?}"),
    };
    assert_eq!(wire_err.code, ErrorCode::ShardUnavailable);
    assert!(wire_err.retry_after_ms > 0);
    assert!(wire_err.message.contains("shard 3"), "{}", wire_err.message);

    let _ = front.shutdown(Duration::from_secs(10));
    for server in servers {
        let _ = server.shutdown(Duration::from_secs(10));
    }
}

#[test]
fn overloaded_shard_sheds_with_retry_hint_then_recovers() {
    let (data, universe) = fleet();
    let slices = partition(&ShardSpec::OidHash { shards: 2 }, &data);
    // Shard 0 is ordinary; shard 1 has a one-slot admission queue, and
    // its store parks at a latch so occupants hold both batch lanes and
    // the slot for as long as the test says.
    let normal = Server::start(
        Arc::new(build_store(&slices[0], universe)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let victim_config = ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let victim_store = Latched::holding(Arc::new(build_store(&slices[1], universe)), 2);
    let victim = Server::start(Arc::clone(&victim_store), "127.0.0.1:0", victim_config).unwrap();
    let victim_addr = victim.local_addr().to_string();
    let map = ShardMap::new(
        1,
        ShardSpec::OidHash { shards: 2 },
        vec![normal.local_addr().to_string(), victim_addr.clone()],
    )
    .unwrap();
    let config = RouterConfig {
        pool: PoolConfig {
            client: ClientConfig {
                max_retries: 0,
                ..PoolConfig::default().client
            },
            ..PoolConfig::default()
        },
        ..RouterConfig::default()
    };
    let coordinator = Coordinator::new(map, config).unwrap();
    let q = probe_queries(&universe, 1)[0];

    // Occupy the victim: a batch parked in each lane, then its only
    // queue slot.
    let mut occupiers = occupy_lanes(&victim_store, &victim_addr, q);
    occupiers.push(ask(&victim_addr, q));
    wait_until("the victim's queue slot is taken", || victim.queued() == 1);

    let err = coordinator.query(&q).unwrap_err();
    match &err {
        RouterError::ShardUnavailable {
            shard,
            retry_after_ms,
            ..
        } => {
            assert_eq!(*shard, 1, "the overloaded shard must be named");
            assert!(
                *retry_after_ms > 0,
                "the shard's shed hint must be forwarded"
            );
        }
        other => panic!("expected ShardUnavailable, got {other}"),
    }
    victim_store.open();
    for occupier in occupiers {
        assert!(occupier.join().unwrap() > 0);
    }

    // Once the lanes move again, the same query succeeds end to end.
    let dist = coordinator.query(&q).unwrap();
    assert_eq!(dist.records, sorted(&data.filter_range(&q)));

    let _ = normal.shutdown(Duration::from_secs(10));
    let _ = victim.shutdown(Duration::from_secs(10));
}

#[test]
fn coordinator_stats_aggregate_every_shard() {
    let (data, universe) = fleet();
    let (servers, map) = start_shards(ShardSpec::OidHash { shards: 4 }, &data, universe);
    let coordinator = Coordinator::new(map, RouterConfig::default()).unwrap();
    // Generate some per-shard work first.
    for q in probe_queries(&universe, 4) {
        coordinator.query(&q).unwrap();
    }
    let doc = blot_json::Json::parse(&coordinator.stats_json(None)).unwrap();
    assert_eq!(
        doc.get("coordinator").and_then(blot_json::Json::as_bool),
        Some(true)
    );
    let shard_map = doc.get("shard_map").unwrap();
    assert_eq!(
        shard_map.get("version").and_then(blot_json::Json::as_u64),
        Some(1)
    );
    let shards = doc
        .get("shards")
        .and_then(blot_json::Json::as_array)
        .unwrap();
    assert_eq!(shards.len(), 4);
    for s in shards {
        assert_eq!(s.get("ok").and_then(blot_json::Json::as_bool), Some(true));
        assert!(s.get("stats").is_some(), "per-shard stats doc present");
    }
    assert!(doc.get("pruning").is_some());
    assert!(doc.get("text").is_none(), "no pre-rendered text");
    // The CLI's renderer lists every shard under its `shards:` section.
    let text = cli_stats::to_text(&doc);
    let section = text
        .split_once("\nshards:\n")
        .map(|(_, rest)| rest)
        .unwrap_or_else(|| panic!("no shards section in {text}"));
    for shard in 0..4 {
        assert!(
            section
                .lines()
                .any(|l| l.starts_with(&format!("  shard {shard} ")) && l.contains(": ok (")),
            "shard {shard} missing or not ok in {text}"
        );
    }
    for server in servers {
        let _ = server.shutdown(Duration::from_secs(10));
    }
}
