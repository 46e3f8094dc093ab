//! Concurrency stress tests: many threads querying one store through
//! the shared scan-executor pool must see exactly the results a serial
//! caller sees.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use blot_core::prelude::*;
use blot_storage::{MemBackend, ScanExecutor};
use blot_tracegen::FleetConfig;
use std::sync::Arc;

fn build_store() -> (BlotStore<MemBackend>, Vec<Cuboid>, RecordBatch) {
    let mut config = FleetConfig::small();
    config.num_taxis = 60;
    config.records_per_taxi = 100;
    let data = config.generate();
    let universe = config.universe();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 23);
    // A deliberately small pool so tasks from concurrent queries
    // interleave on shared workers.
    let mut store = BlotStore::with_pool(
        MemBackend::new(),
        env,
        universe,
        model,
        Arc::new(ScanExecutor::new(3)),
    );
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
    // A mix of query shapes: centred boxes of growing extent plus a few
    // off-centre slabs, so different partition counts are involved.
    let mut queries = Vec::new();
    for k in 1..=6 {
        let f = f64::from(k) / 7.0;
        queries.push(Cuboid::from_centroid(
            universe.centroid(),
            QuerySize::new(
                universe.extent(0) * f,
                universe.extent(1) * f,
                universe.extent(2) * f,
            ),
        ));
    }
    queries.push(universe);
    (store, queries, data)
}

#[test]
fn concurrent_queries_match_serial_results() {
    let (store, queries, data) = build_store();

    // Serial oracle: per query, the matched record count on each replica
    // (both replicas must agree with the raw-data count).
    let expected: Vec<usize> = queries.iter().map(|q| data.count_in_range(q)).collect();
    for (q, &want) in queries.iter().zip(&expected) {
        for id in 0..2 {
            assert_eq!(store.query_on(id, q).unwrap().records.len(), want);
        }
    }

    // Hammer the same store from many threads through the shared pool:
    // every thread loops over every query on every replica.
    let store = Arc::new(store);
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..4 {
                    for (qi, q) in queries.iter().enumerate() {
                        let id = ((t + round + qi) % 2) as u32;
                        let result = store.query_on(id, q).unwrap();
                        assert_eq!(
                            result.records.len(),
                            expected[qi],
                            "thread {t} round {round} query {qi} replica {id}"
                        );
                        assert!(result.records.iter().all(|r| r.in_range(q)));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_routed_queries_agree_with_oracle() {
    let (store, queries, data) = build_store();
    let expected: Vec<usize> = queries.iter().map(|q| data.count_in_range(q)).collect();
    let store = Arc::new(store);
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let store = Arc::clone(&store);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for (qi, q) in queries.iter().enumerate() {
                    let result = store.query(q).unwrap();
                    assert_eq!(result.records.len(), expected[qi]);
                    assert!(result.failed_over.is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
