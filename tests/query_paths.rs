//! Every query entry point answers like a linear scan of the raw data,
//! and all of them fail over — or fail — the same way.
//!
//! `query`, `query_on`, `query_batch` and `query_batch_traced` are one
//! plan → execute → merge pipeline under four signatures; this file pins
//! what they must agree on, healthy and damaged.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
use blot::core::prelude::*;
use blot::core::CoreError;
use blot::storage::{EnvProfile, FailingBackend, FailureMode, MemBackend, UnitKey};
use blot::tracegen::FleetConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Store = BlotStore<FailingBackend<MemBackend>>;
type Answer = Result<QueryResult, CoreError>;

fn store_and_data() -> (Store, RecordBatch) {
    let mut config = FleetConfig::small();
    config.num_taxis = 40;
    config.records_per_taxi = 100;
    config.seed = 0x9A7B;
    let data = config.generate();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 0x9A7B);
    let backend = FailingBackend::new(MemBackend::new());
    let mut store = BlotStore::new(backend, env, config.universe(), model);
    for (spec, layout, compression) in [
        (SchemeSpec::new(16, 4), Layout::Row, Compression::Lzf),
        (SchemeSpec::new(4, 2), Layout::Column, Compression::Deflate),
        (SchemeSpec::new(64, 2), Layout::Row, Compression::Plain),
    ] {
        let config = ReplicaConfig::new(spec, EncodingScheme::new(layout, compression));
        store.build_replica(&data, config).unwrap();
    }
    (store, data)
}

/// Seeded boxes from a sliver to most of the universe, all inside it.
fn ranges(universe: &Cuboid, n: usize) -> Vec<Cuboid> {
    let mut rng = SmallRng::seed_from_u64(0x51DE);
    (0..n)
        .map(|_| {
            let (mut lo, mut hi) = (universe.min(), universe.max());
            for axis in 0..3 {
                let extent = universe.extent(axis);
                let size = extent * rng.gen_range(0.02..0.7);
                let start = lo.axis(axis) + (extent - size) * rng.gen_range(0.0..1.0);
                lo = lo.with_axis(axis, start);
                hi = hi.with_axis(axis, start + size);
            }
            Cuboid::new(lo, hi)
        })
        .collect()
}

/// A seeded ladder of centroid, mixed and thin-tail ranges: dense boxes
/// around the centre; small boxes in thin time slabs around the last
/// fix, which the zone maps of fine partitions prune before those of
/// coarse ones; and "everything since T" slabs of shrinking depth that
/// end past the last fix.
fn routing_ladder(universe: &Cuboid, t_last: f64) -> Vec<Cuboid> {
    let mut rng = SmallRng::seed_from_u64(0x2047E);
    let centroid = (2..8).map(|k| {
        let f = f64::from(k);
        let e = |axis| universe.extent(axis) / f;
        Cuboid::from_centroid(universe.centroid(), QuerySize::new(e(0), e(1), e(2)))
    });
    let mixed: Vec<Cuboid> = (0..48)
        .map(|_| {
            let w = universe.extent(0) * rng.gen_range(0.05..0.3);
            let h = universe.extent(1) * rng.gen_range(0.05..0.3);
            let x = rng.gen_range(universe.min().x + w / 2.0..universe.max().x - w / 2.0);
            let y = rng.gen_range(universe.min().y + h / 2.0..universe.max().y - h / 2.0);
            let t = t_last + rng.gen_range(-900.0..60.0);
            Cuboid::from_centroid(Point::new(x, y, t), QuerySize::new(w, h, 60.0))
        })
        .collect();
    let tail = (0..8).map(|k| {
        let depth = 30.0 * f64::from(1u32 << k);
        let lo = universe.min().with_axis(2, t_last - depth);
        Cuboid::new(lo, universe.max())
    });
    centroid.chain(mixed).chain(tail).collect()
}

fn sorted(mut records: RecordBatch) -> RecordBatch {
    records.sort_by_oid_time();
    records
}

/// The linear-filter oracle, in canonical order.
fn oracle(data: &RecordBatch, range: &Cuboid) -> RecordBatch {
    sorted(data.filter_range(range))
}

/// `query`, `query_batch` and `query_batch_traced` over all `ranges`:
/// one answer per range from each routed entry point.
fn routed_answers(store: &Store, ranges: &[Cuboid]) -> [Vec<Answer>; 3] {
    let traced: Vec<TracedQuery> = ranges.iter().copied().map(TracedQuery::new).collect();
    [
        ranges.iter().map(|q| store.query(q)).collect(),
        store.query_batch(ranges),
        store.query_batch_traced(&traced),
    ]
}

/// The first unit `replica` would actually scan for `range`: involved
/// and not ruled out by the partition index. Damaging a pruned unit
/// would not be noticed by a query — see the mirror case below.
fn first_surviving_unit(store: &Store, replica: u32, range: &Cuboid) -> UnitKey {
    store.plan_on(replica, range).unwrap().tasks[0].key
}

/// An involved unit of `replica` that the partition index prunes for
/// `range`, if there is one.
fn first_pruned_unit(store: &Store, replica: u32, range: &Cuboid) -> Option<UnitKey> {
    let survivors = store.plan_on(replica, range).unwrap().tasks;
    let scheme = &store.replicas()[replica as usize].scheme;
    scheme
        .involved(range)
        .into_iter()
        .map(|pid| UnitKey {
            replica,
            partition: u32::try_from(pid).unwrap(),
        })
        .find(|key| survivors.iter().all(|task| task.key != *key))
}

#[test]
fn routing_ranks_the_plans_the_executor_runs() {
    let (store, data) = store_and_data();
    let t_last = *data.times.iter().max().unwrap() as f64;
    let ladder = routing_ladder(&store.universe(), t_last);
    let plans = |q: &Cuboid| -> Vec<ScanPlan> {
        let ids = store.replicas().iter().map(|r| r.id);
        ids.map(|id| store.plan_on(id, q).unwrap()).collect()
    };

    // A replica with nothing to scan is the one to route to, even when
    // another involves fewer units — and the ladder holds such a range.
    let mut fewest_involved_still_scans = 0;
    for (i, q) in ladder.iter().enumerate() {
        let plans = plans(q);
        if plans.iter().any(|p| p.tasks.is_empty()) {
            let routed = store.route(q)[0];
            assert!(
                plans[routed as usize].tasks.is_empty(),
                "range {i}: routed to {routed}, which scans"
            );
            let fewest = plans.iter().min_by_key(|p| (p.units_involved, p.replica));
            fewest_involved_still_scans += usize::from(fewest.is_some_and(|p| !p.tasks.is_empty()));
        }
    }
    assert!(
        fewest_involved_still_scans > 0,
        "the ladder must prune some range to nothing on a replica other than the one with \
         the fewest involved units"
    );

    // `route` is exactly the plans sorted by (predicted_ms,
    // units_involved, id), and the same order every time.
    for (i, q) in ladder.iter().enumerate() {
        let mut plans = plans(q);
        plans.sort_by(|a, b| {
            a.predicted_ms
                .total_cmp(&b.predicted_ms)
                .then(a.units_involved.cmp(&b.units_involved))
                .then(a.replica.cmp(&b.replica))
        });
        let ranked: Vec<u32> = plans.iter().map(|p| p.replica).collect();
        let routed = store.route(q);
        assert_eq!(routed, ranked, "range {i}");
        assert_eq!(store.route(q), routed, "range {i}: a second call reorders");
    }
}

#[test]
fn all_entry_points_agree_with_the_oracle_healthy_and_damaged() {
    let (store, data) = store_and_data();
    let ranges = ranges(&store.universe(), 32);
    assert!(ranges.iter().any(|q| data.count_in_range(q) > 0));

    // Healthy: four entry points, one answer.
    let [single, batch, traced] = routed_answers(&store, &ranges);
    for (i, q) in ranges.iter().enumerate() {
        let want = oracle(&data, q);
        let cheapest = store.route(q)[0];
        let forced = store.query_on(cheapest, q).unwrap();
        assert_eq!(sorted(forced.records), want, "query_on, range {i}");
        for (path, answers) in [("query", &single), ("batch", &batch), ("traced", &traced)] {
            let got = answers[i].as_ref().unwrap();
            assert_eq!(sorted(got.records.clone()), want, "{path}, range {i}");
            assert_eq!(got.replica, cheapest, "{path}, range {i}");
            assert!(got.failed_over.is_empty(), "{path}, range {i}");
        }
    }

    // A unit the index prunes for some range is lost: that range's
    // queries never touch it, so every entry point stays exact with no
    // failover — only `scrub` sees the damage. (Healed before going on.)
    let (i, pruned) = ranges
        .iter()
        .enumerate()
        .find_map(|(i, q)| Some((i, first_pruned_unit(&store, store.route(q)[0], q)?)))
        .expect("some range has a pruned unit on its cheapest replica");
    store.backend().inject(pruned, FailureMode::Drop);
    let q = ranges[i];
    let want = oracle(&data, &q);
    let forced = store.query_on(pruned.replica, &q).unwrap();
    assert_eq!(sorted(forced.records), want, "query_on past a pruned loss");
    for answers in routed_answers(&store, &[q]) {
        let got = answers[0].as_ref().unwrap();
        assert_eq!(sorted(got.records.clone()), want);
        assert_eq!(got.replica, pruned.replica);
        assert!(got.failed_over.is_empty(), "a pruned unit is never read");
    }
    assert_eq!(store.scrub().unwrap(), vec![pruned]);
    store.backend().heal(pruned);
    assert!(store.scrub().unwrap().is_empty());

    // One unit range 0's cheapest replica would scan fails: every routed
    // entry point fails over identically; the forced one reports the
    // damage.
    let victim = store.route(&ranges[0])[0];
    let lost = first_surviving_unit(&store, victim, &ranges[0]);
    store.backend().inject(lost, FailureMode::Drop);
    let [single, batch, traced] = routed_answers(&store, &ranges);
    for (i, q) in ranges.iter().enumerate() {
        let want = oracle(&data, q);
        let first = single[i].as_ref().unwrap();
        for (path, answers) in [("query", &single), ("batch", &batch), ("traced", &traced)] {
            let got = answers[i].as_ref().unwrap();
            assert_eq!(sorted(got.records.clone()), want, "{path}, range {i}");
            assert_eq!(got.replica, first.replica, "{path}, range {i}");
            assert_eq!(got.failed_over, first.failed_over, "{path}, range {i}");
        }
    }
    assert_eq!(single[0].as_ref().unwrap().failed_over, vec![victim]);
    assert!(matches!(
        store.query_on(victim, &ranges[0]),
        Err(CoreError::Storage(_))
    ));

    // Every replica damaged under range 0: a structured storage error
    // from every entry point, never a short answer and never `NoReplicas`.
    for replica in store.replicas() {
        let key = first_surviving_unit(&store, replica.id, &ranges[0]);
        store.backend().inject(key, FailureMode::Drop);
    }
    for answers in routed_answers(&store, &ranges) {
        assert!(matches!(answers[0], Err(CoreError::Storage(_))));
        for (i, (q, answer)) in ranges.iter().zip(&answers).enumerate() {
            match answer {
                Ok(got) => assert_eq!(sorted(got.records.clone()), oracle(&data, q), "range {i}"),
                Err(e) => assert!(matches!(e, CoreError::Storage(_)), "range {i}: {e}"),
            }
        }
    }
    for replica in store.replicas() {
        assert!(matches!(
            store.query_on(replica.id, &ranges[0]),
            Err(CoreError::Storage(_))
        ));
    }
}
