//! The serving path in tier-1: a loopback `blot-server` over a small
//! built store answers concurrent clients exactly as the store answers
//! in process, and an idle server answers a lone query at once rather
//! than after its batch linger.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
use std::sync::Arc;
use std::time::{Duration, Instant};

use blot::core::prelude::*;
use blot::storage::MemBackend;
use blot::tracegen::FleetConfig;
use blot_server::{Client, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLIENTS: u64 = 4;
const QUERIES_PER_CLIENT: usize = 32;

fn store_and_data() -> (BlotStore<MemBackend>, RecordBatch) {
    let mut config = FleetConfig::small();
    config.num_taxis = 30;
    config.records_per_taxi = 80;
    config.seed = 0x5E7E;
    let data = config.generate();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 0x5E7E);
    let mut store = BlotStore::new(MemBackend::new(), env, config.universe(), model);
    for (spec, layout, compression) in [
        (SchemeSpec::new(16, 4), Layout::Row, Compression::Lzf),
        (SchemeSpec::new(4, 2), Layout::Column, Compression::Deflate),
    ] {
        let config = ReplicaConfig::new(spec, EncodingScheme::new(layout, compression));
        store.build_replica(&data, config).unwrap();
    }
    (store, data)
}

/// Seeded boxes from a sliver to half of the universe, all inside it.
fn ranges(universe: &Cuboid, seed: u64, n: usize) -> Vec<Cuboid> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let (mut lo, mut hi) = (universe.min(), universe.max());
            for axis in 0..3 {
                let extent = universe.extent(axis);
                let size = extent * rng.gen_range(0.01..0.5);
                let start = lo.axis(axis) + (extent - size) * rng.gen_range(0.0..1.0);
                lo = lo.with_axis(axis, start);
                hi = hi.with_axis(axis, start + size);
            }
            Cuboid::new(lo, hi)
        })
        .collect()
}

fn sorted(mut records: RecordBatch) -> RecordBatch {
    records.sort_by_oid_time();
    records
}

#[test]
fn concurrent_clients_get_exactly_what_the_store_answers_in_process() {
    let (store, data) = store_and_data();
    let (store, data) = (Arc::new(store), Arc::new(data));
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, store, data) = (addr.clone(), Arc::clone(&store), Arc::clone(&data));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut matched = 0;
                for q in ranges(&store.universe(), 0xC11E + c, QUERIES_PER_CLIENT) {
                    let remote = client.query(&q).unwrap();
                    let local = store.query(&q).unwrap();
                    // In order, and as a multiset against the raw data.
                    assert_eq!(remote.records, local.records);
                    assert_eq!(sorted(remote.records), sorted(data.filter_range(&q)));
                    assert_eq!(remote.replica, local.replica);
                    assert!(remote.failed_over.is_empty());
                    matched += local.records.len();
                }
                matched
            })
        })
        .collect();
    let matched: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(matched > 0, "the probe ranges must match something");

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined && report.pool_drained);
}

#[test]
fn an_idle_server_answers_a_lone_query_without_waiting_out_its_linger() {
    let (store, _) = store_and_data();
    let universe = store.universe();
    let config = ServerConfig {
        batch_linger: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(store), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.ping().unwrap();

    let q = Cuboid::from_centroid(
        universe.centroid(),
        QuerySize::new(
            universe.extent(0) / 20.0,
            universe.extent(1) / 20.0,
            universe.extent(2) / 20.0,
        ),
    );
    let asked = Instant::now();
    let reply = client.query(&q).unwrap();
    let elapsed = asked.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "a lone query took {elapsed:?} against a 500 ms linger"
    );
    assert!(reply.admission_ms < 100.0);

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined);
}
