//! Zone-map pruning integration: pruned queries stay bit-identical to
//! the oracle on every replica, skipped units are counted, legacy units
//! (no footer) still scan, and scrub/repair heal stripped or forged
//! footers.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::disallowed_methods
)]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use blot_codec::{ZoneMap, ZONE_MAP_FOOTER_LEN};
use blot_core::prelude::*;
use blot_core::store::BlotStore;
use blot_storage::{Backend, MemBackend, UnitKey};
use blot_tracegen::FleetConfig;

/// Two diverse replicas over a fleet whose universe reserves 2× time
/// headroom, so trailing time slices exist for zone maps to prune.
fn store_with_data() -> (BlotStore<MemBackend>, RecordBatch) {
    let mut fleet = FleetConfig::small();
    fleet.num_taxis = 60;
    fleet.records_per_taxi = 200;
    let data = fleet.generate();
    let universe = fleet.universe();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 0x2A9);
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
    (store, data)
}

/// Multiset fingerprint of a batch, order-independent and float-exact.
type Fingerprint = Vec<(u32, i64, u64, u64, u32, u32, bool, u8)>;

fn fingerprint(batch: &RecordBatch) -> Fingerprint {
    let mut keys: Fingerprint = batch
        .iter()
        .map(|r| {
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
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn last_fix_time(data: &RecordBatch) -> i64 {
    data.times.iter().copied().max().expect("non-empty fleet")
}

/// "Everything after T" — the selective shape zone maps exist for.
fn tail_query(u: &Cuboid, t_lo: f64) -> Cuboid {
    Cuboid::new(
        Point::new(u.min().x, u.min().y, t_lo),
        Point::new(u.max().x, u.max().y, u.max().t - 1.0),
    )
}

#[test]
fn pruned_queries_match_the_oracle_on_every_replica() {
    let (store, data) = store_with_data();
    let u = store.universe();
    let t_max = last_fix_time(&data) as f64;
    let queries = [
        // Mid-universe box: plenty of matches, little pruning.
        Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / 3.0, u.extent(1) / 3.0, u.extent(2) / 3.0),
        ),
        // Time tail straddling the last fixes: matches + prunes.
        tail_query(&u, t_max * 0.9),
        // Entirely inside the ingest headroom: prunes everything.
        tail_query(&u, t_max + 1.0),
        // Thin spatial sliver.
        Cuboid::new(
            Point::new(121.0, u.min().y, 0.0),
            Point::new(121.05, u.max().y, t_max),
        ),
    ];
    for (qi, q) in queries.iter().enumerate() {
        let expected = fingerprint(&data.filter_range(q));
        for id in 0..2 {
            let result = store.query_on(id, q).unwrap();
            assert_eq!(
                fingerprint(&result.records),
                expected,
                "query {qi} on replica {id} diverged from the oracle"
            );
        }
    }
}

#[test]
fn headroom_query_skips_every_involved_unit() {
    let (store, data) = store_with_data();
    let u = store.universe();
    let q = tail_query(&u, last_fix_time(&data) as f64 + 1.0);
    let before = store.metrics().units_skipped.value();
    let pool_batches = || {
        let snapshot = store.metrics_snapshot();
        snapshot.histogram("pool.batch_ms").map_or(0, |h| h.count())
    };
    let batches_before = pool_batches();
    let result = store.query_on(0, &q).unwrap();
    assert!(result.records.is_empty());
    assert!(result.partitions_scanned > 0, "tail slices must be planned");
    assert_eq!(
        result.units_skipped, result.partitions_scanned,
        "no unit holds post-tail data, so all must prune"
    );
    assert!(result.bytes_skipped > 0);
    assert_eq!(
        store.metrics().units_skipped.value() - before,
        result.units_skipped as u64
    );
    assert!(store.metrics().bytes_skipped.value() >= result.bytes_skipped);
    // Pruned at plan time: nothing was scanned, so nothing is on the
    // simulated clock and the pool never saw a batch.
    assert_eq!(result.sim_ms, 0.0);
    assert_eq!(result.makespan_ms, 0.0);
    assert_eq!(pool_batches(), batches_before);

    // Traced, the whole story is on the `route` span: no `scan.unit`.
    let traced = store
        .query_batch_traced(&[TracedQuery::new(q)])
        .pop()
        .unwrap()
        .unwrap();
    if !blot_obs::enabled() {
        return;
    }
    use blot_obs::names;
    let spans = store.recorder().snapshot();
    let seen: std::collections::BTreeSet<_> = spans.iter().map(|r| r.name).collect();
    let want = [names::QUERY, names::ROUTE, names::MERGE];
    assert_eq!(seen, want.into_iter().collect());
    let route = spans.iter().find(|r| r.name == names::ROUTE).unwrap();
    assert_eq!(
        route.note_value(names::REPLICA),
        Some(u64::from(traced.replica))
    );
    let units = traced.partitions_scanned as u64;
    assert_eq!(route.note_value(names::UNITS), Some(units));
    assert_eq!(route.note_value(names::UNITS_SKIPPED), Some(units));
    assert_eq!(
        route.note_value(names::BYTES_SKIPPED),
        Some(traced.bytes_skipped)
    );
    // Predicted 0, measured 0: the merge span notes agreement.
    let merge = spans.iter().find(|r| r.name == names::MERGE).unwrap();
    assert_eq!(merge.note_value(names::DRIFT_PERMILLE), Some(1_000));
}

#[test]
fn all_pruned_query_records_a_drift_sample_of_agreement() {
    if !blot_obs::enabled() {
        return;
    }
    let (store, data) = store_with_data();
    let q = tail_query(&store.universe(), last_fix_time(&data) as f64 + 1.0);
    let drift = |id: u32| store.replicas()[id as usize].obs.drift.snapshot();
    let result = store.query(&q).unwrap();
    assert_eq!(result.units_skipped, result.partitions_scanned);
    assert_eq!(result.sim_ms, 0.0);
    let plan = store.plan_on(result.replica, &q).unwrap();
    assert_eq!(
        plan.predicted_ms, 0.0,
        "nothing survives, nothing is priced"
    );
    for id in 0..2 {
        let want = u64::from(id == result.replica);
        assert_eq!(drift(id).count(), want, "one sample, on the routed replica");
    }
    assert_eq!(
        drift(result.replica).sum,
        1.0,
        "predicted 0, measured 0: agreement"
    );
}

#[test]
fn straddling_query_prunes_some_units_and_scans_the_rest() {
    let (store, data) = store_with_data();
    let u = store.universe();
    // Pick the prune threshold from the actual per-unit bounds: the
    // median of the distinct unit max-times guarantees both outcomes.
    let mut maxes: Vec<i64> = store
        .backend()
        .list()
        .into_iter()
        .filter(|k| k.replica == 0)
        .map(|k| {
            let bytes = store.backend().get(k).unwrap();
            let (_, zm) = ZoneMap::split_footer(&bytes[1..]).unwrap();
            zm.expect("freshly built units carry footers")
        })
        .filter(|zm| zm.count > 0)
        .map(|zm| zm.max_time)
        .collect();
    maxes.sort_unstable();
    maxes.dedup();
    assert!(maxes.len() >= 2, "need spread in unit bounds");
    let t_lo = maxes[maxes.len() / 2] as f64 + 0.5;
    let q = tail_query(&u, t_lo);
    let result = store.query_on(0, &q).unwrap();
    assert!(result.units_skipped > 0, "half the unit bounds sit below T");
    assert!(
        result.units_skipped < result.partitions_scanned,
        "half the unit bounds sit above T"
    );
    assert_eq!(
        fingerprint(&result.records),
        fingerprint(&data.filter_range(&q))
    );
}

#[test]
fn legacy_units_scan_identically_and_scrub_flags_them() {
    let (store, data) = store_with_data();
    let u = store.universe();
    let q = tail_query(&u, last_fix_time(&data) as f64 * 0.9);
    let expected = fingerprint(&data.filter_range(&q));

    // Strip the footer from every unit of replica 0, simulating data
    // written before zone maps existed.
    let stripped: Vec<UnitKey> = store
        .backend()
        .list()
        .into_iter()
        .filter(|k| k.replica == 0)
        .collect();
    for &key in &stripped {
        let mut bytes = store.backend().get(key).unwrap();
        let (payload, zm) = ZoneMap::split_footer(&bytes[1..]).unwrap();
        assert!(zm.is_some(), "built units carry footers");
        let keep = 1 + payload.len();
        assert_eq!(keep + ZONE_MAP_FOOTER_LEN, bytes.len());
        bytes.truncate(keep);
        store.backend().put(key, bytes).unwrap();
    }

    // Footer-less units still decode and answer exactly. (The store's
    // partition index predates the strip and plans as before; this range
    // overlaps every unit, so nothing is pruned either way. A store
    // *reopened* over such units never prunes them — tests/index_pruning.rs.)
    let result = store.query_on(0, &q).unwrap();
    assert_eq!(fingerprint(&result.records), expected);
    assert_eq!(result.units_skipped, 0, "the range overlaps every unit");

    // Scrub reports exactly the stripped units as footer mismatches.
    let before = store.metrics().scrub_footer_mismatches.value();
    let mut damaged = store.scrub().unwrap();
    damaged.sort_unstable();
    let mut want = stripped.clone();
    want.sort_unstable();
    assert_eq!(damaged, want);
    assert_eq!(
        store.metrics().scrub_footer_mismatches.value() - before,
        stripped.len() as u64
    );

    // Repair rewrites them with fresh footers and counts the mismatches.
    let report = store.repair_all().unwrap();
    assert_eq!(report.units_footer_mismatch, stripped.len() as u64);
    assert_eq!(report.repaired.len(), stripped.len());
    assert!(report.unrecoverable.is_empty());
    assert!(store.scrub().unwrap().is_empty(), "post-repair scrub clean");

    // Pruning works again after the upgrade-by-repair.
    let beyond = tail_query(&u, last_fix_time(&data) as f64 + 1.0);
    let result = store.query_on(0, &beyond).unwrap();
    assert!(result.units_skipped > 0);
    assert_eq!(
        fingerprint(&result.records),
        fingerprint(&RecordBatch::new())
    );
}

#[test]
fn repair_counts_its_own_scrub_not_a_concurrent_one() {
    let (store, _) = store_with_data();
    let units: usize = store.replicas().iter().map(|r| r.scheme.len()).sum();
    let (scrubs, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    let reports: Vec<_> = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                // Counted before the assertion, so a failing scrub ends
                // this thread without leaving the main one waiting.
                let clean = store.scrub().is_ok_and(|damaged| damaged.is_empty());
                scrubs.fetch_add(1, Ordering::Release);
                assert!(clean, "the store is healthy");
            }
        });
        while scrubs.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let reports = (0..4).map(|_| store.repair_all()).collect();
        stop.store(true, Ordering::Release);
        reports
    });
    for report in reports {
        let report = report.unwrap();
        assert_eq!(report.units_scanned, units as u64);
        assert_eq!(report.units_verified, units as u64);
        assert_eq!(report.units_footer_mismatch, 0);
        assert!(report.repaired.is_empty() && report.unrecoverable.is_empty());
    }
}

#[test]
fn forged_footer_is_caught_by_scrub_and_healed_by_repair() {
    let (store, data) = store_with_data();
    let u = store.universe();
    let key = UnitKey {
        replica: 0,
        partition: 3,
    };

    // Replace the unit's footer with a checksum-valid footer describing
    // entirely different data: bounds lie, bytes don't.
    let mut bytes = store.backend().get(key).unwrap();
    let keep = bytes.len() - ZONE_MAP_FOOTER_LEN;
    bytes.truncate(keep);
    let mut alien = RecordBatch::new();
    for i in 0..3 {
        alien.push(Record::new(i, 999_999_999, 100.0, 10.0));
    }
    ZoneMap::from_batch(&alien).append_to(&mut bytes);
    store.backend().put(key, bytes).unwrap();

    // Scrub compares stored bounds against the decoded payload and
    // flags exactly this unit.
    let damaged = store.scrub().unwrap();
    assert_eq!(damaged, vec![key]);

    store.repair_unit(key).unwrap();
    assert!(store.scrub().unwrap().is_empty());

    // The healed footer prunes and answers correctly again.
    let q = tail_query(&u, last_fix_time(&data) as f64 * 0.9);
    let result = store.query_on(0, &q).unwrap();
    assert_eq!(
        fingerprint(&result.records),
        fingerprint(&data.filter_range(&q))
    );
}
