//! Plan-time pruning against the in-memory partition index, held
//! against the on-disk footers it mirrors.
//!
//! For all eight encoding schemes and seeded random ranges, in every
//! state a store can get into — built, ingested into, a forged footer
//! scrubbed and repaired, a unit truncated by hand, reopened from files —
//! the index's prune set equals the one the unit footers give, the
//! records equal a linear filter of the raw data, the counters keep their
//! meaning, and a query reads exactly its surviving units and no footer.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
use std::sync::atomic::{AtomicU64, Ordering};

use blot::codec::{ZoneMap, ZONE_MAP_FOOTER_LEN};
use blot::core::prelude::*;
use blot::storage::{Backend, FileBackend, MemBackend, StorageError, UnitKey};
use blot::tracegen::FleetConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A backend that counts the reads a query may make.
#[derive(Debug)]
struct Counting<B> {
    inner: B,
    gets: AtomicU64,
    tails: AtomicU64,
}

impl<B> Counting<B> {
    fn new(inner: B) -> Self {
        Self {
            inner,
            gets: AtomicU64::new(0),
            tails: AtomicU64::new(0),
        }
    }

    /// `(get, get_tail)` calls since the last take.
    fn take(&self) -> (u64, u64) {
        (
            self.gets.swap(0, Ordering::Relaxed),
            self.tails.swap(0, Ordering::Relaxed),
        )
    }
}

impl<B: Backend> Backend for Counting<B> {
    fn put(&self, key: UnitKey, bytes: Vec<u8>) -> Result<(), StorageError> {
        self.inner.put(key, bytes)
    }
    fn get(&self, key: UnitKey) -> Result<Vec<u8>, StorageError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get(key)
    }
    fn get_tail(&self, key: UnitKey, len: usize) -> Result<(Vec<u8>, u64), StorageError> {
        self.tails.fetch_add(1, Ordering::Relaxed);
        self.inner.get_tail(key, len)
    }
    fn delete(&self, key: UnitKey) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn list(&self) -> Vec<UnitKey> {
        self.inner.list()
    }
    fn size_of(&self, key: UnitKey) -> Option<u64> {
        self.inner.size_of(key)
    }
}

type Store<B> = BlotStore<Counting<B>>;

fn fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        num_taxis: 30,
        records_per_taxi: 80,
        seed,
        ..FleetConfig::small()
    }
}

/// All eight layout × compression schemes, on alternating partitionings.
fn replica_configs() -> Vec<ReplicaConfig> {
    let specs = [
        SchemeSpec::new(16, 4),
        SchemeSpec::new(4, 2),
        SchemeSpec::new(4, 8),
        SchemeSpec::new(16, 2),
    ];
    let mut configs = Vec::new();
    for layout in [Layout::Row, Layout::Column] {
        for compression in [
            Compression::Plain,
            Compression::Lzf,
            Compression::Deflate,
            Compression::Lzr,
        ] {
            let spec = specs[configs.len() % specs.len()];
            configs.push(ReplicaConfig::new(
                spec,
                EncodingScheme::new(layout, compression),
            ));
        }
    }
    configs
}

fn build<B: Backend + 'static>(backend: B, data: &RecordBatch) -> Store<B> {
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, data, 0x1DE);
    let mut store = BlotStore::new(Counting::new(backend), env, fleet(0).universe(), model);
    for config in replica_configs() {
        store.build_replica(data, config).unwrap();
    }
    store
}

/// Seeded boxes inside the universe: every other one a sliver, the rest
/// up to most of an axis.
fn ranges(universe: &Cuboid, seed: u64, n: usize) -> Vec<Cuboid> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let widest = if i % 2 == 0 { 0.12 } else { 0.7 };
            let (mut lo, mut hi) = (universe.min(), universe.max());
            for axis in 0..3 {
                let extent = universe.extent(axis);
                let size = extent * rng.gen_range(0.01..widest);
                let start = lo.axis(axis) + (extent - size) * rng.gen_range(0.0..1.0);
                lo = lo.with_axis(axis, start);
                hi = hi.with_axis(axis, start + size);
            }
            Cuboid::new(lo, hi)
        })
        .collect()
}

type Fields = (u32, i64, u64, u64, u32, u32, bool, u8);

/// Every field of every record, in a total order: the ingested fixes
/// share `(oid, time)` keys with the built ones, so `sort_by_oid_time`
/// alone would leave ties in scan order.
fn sorted(records: RecordBatch) -> Vec<Fields> {
    let mut keys: Vec<Fields> = records
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

fn key(replica: u32, pid: usize) -> UnitKey {
    UnitKey {
        replica,
        partition: u32::try_from(pid).unwrap(),
    }
}

/// What the unit's bytes in the backend say about it, read the way
/// `run_scan` used to: tail → `split_footer`.
fn on_disk<B: Backend + 'static>(store: &Store<B>, key: UnitKey) -> UnitEntry {
    let (tail, len) = store
        .backend()
        .inner
        .get_tail(key, ZONE_MAP_FOOTER_LEN)
        .unwrap();
    UnitEntry {
        zone_map: ZoneMap::split_footer(&tail).unwrap().1,
        len,
    }
}

/// Units pruned and units scanned over one `check`.
#[derive(Debug, Default)]
struct Tally {
    pruned: usize,
    scanned: usize,
}

/// The strict state: the store wrote every unit itself, so index ≡
/// footers. Checks every replica × range.
fn check<B: Backend + 'static>(
    store: &Store<B>,
    data: &RecordBatch,
    ranges: &[Cuboid],
    state: &str,
) -> Tally {
    let mut tally = Tally::default();
    for replica in store.replicas() {
        let id = replica.id;
        let entries = replica.unit_entries();
        assert_eq!(entries.len(), replica.scheme.len(), "{state}: r{id}");
        for (pid, entry) in entries.iter().enumerate() {
            assert!(
                entry.same_bits(&on_disk(store, key(id, pid))),
                "{state}: entry of r{id}/p{pid} differs from its footer"
            );
        }
        for (i, q) in ranges.iter().enumerate() {
            let at = format!("{state}: r{id}, range {i}");
            let involved = replica.scheme.involved(q);
            let (mut survivors, mut bytes_skipped) = (Vec::new(), 0);
            for &pid in &involved {
                let unit = on_disk(store, key(id, pid));
                if unit.zone_map.is_some_and(|zm| !zm.overlaps(q)) {
                    bytes_skipped += unit.len - ZONE_MAP_FOOTER_LEN as u64;
                } else {
                    survivors.push(key(id, pid));
                }
            }
            let skipped = involved.len() - survivors.len();

            let plan = store.plan_on(id, q).unwrap();
            let planned: Vec<UnitKey> = plan.tasks.iter().map(|t| t.key).collect();
            assert_eq!(planned, survivors, "{at}: prune set");
            assert_eq!(plan.units_involved, involved.len(), "{at}");
            assert_eq!(plan.units_skipped, skipped, "{at}");
            assert_eq!(plan.bytes_skipped, bytes_skipped, "{at}");

            store.backend().take();
            let got = store.query_on(id, q).unwrap();
            let reads = store.backend().take();
            assert_eq!(reads, (survivors.len() as u64, 0), "{at}: (get, get_tail)");
            assert_eq!(sorted(got.records), sorted(data.filter_range(q)), "{at}");
            assert_eq!(got.partitions_scanned, involved.len(), "{at}");
            assert_eq!(got.units_skipped, skipped, "{at}");
            assert_eq!(got.bytes_skipped, bytes_skipped, "{at}");
            assert_eq!(got.sim_ms == 0.0, survivors.is_empty(), "{at}: sim_ms");
            tally.pruned += skipped;
            tally.scanned += survivors.len();
        }
    }
    tally
}

/// The loose state: a unit was changed behind the store's back, so the
/// index may be stale. Every answer is still exact or a structured
/// storage error — never short — and routed queries stay exact as long
/// as one replica is whole.
fn check_exact_or_error<B: Backend + 'static>(
    store: &Store<B>,
    data: &RecordBatch,
    ranges: &[Cuboid],
    state: &str,
) -> usize {
    let mut errors = 0;
    for (i, q) in ranges.iter().enumerate() {
        let want = sorted(data.filter_range(q));
        for replica in store.replicas() {
            match store.query_on(replica.id, q) {
                Ok(got) => assert_eq!(sorted(got.records), want, "{state}: range {i}"),
                Err(CoreError::Storage(_)) => errors += 1,
                Err(e) => panic!("{state}: range {i}: unstructured error {e}"),
            }
        }
        let routed = store.query(q).unwrap();
        assert_eq!(sorted(routed.records), want, "{state}: routed, range {i}");
    }
    errors
}

#[test]
fn index_prunes_exactly_what_the_footers_would_in_every_state() {
    let mut data = fleet(0x1D).generate();
    let mut store = build(MemBackend::new(), &data);
    let universe = store.universe();

    // Built.
    let tally = check(&store, &data, &ranges(&universe, 1, 10), "built");
    assert!(tally.pruned > 0 && tally.scanned > 0, "{tally:?}");

    // Ingested into: every rewritten unit's entry follows its new footer.
    let extra = fleet(0x2E).generate();
    let extra = RecordBatch::from_records(&extra.to_records()[..300]);
    store.ingest(&extra).unwrap();
    data.extend_from(&extra);
    let probes = ranges(&universe, 2, 10);
    let tally = check(&store, &data, &probes, "ingested");
    assert!(tally.pruned > 0 && tally.scanned > 0, "{tally:?}");

    // A forged (validly checksummed, wrong) footer behind the store's
    // back: the index still holds the truth, so answers stay exact; scrub
    // finds the unit and repair brings disk and index back in step.
    let forged_key = key(0, 3);
    let mut bytes = store.backend().get(forged_key).unwrap();
    bytes.truncate(bytes.len() - ZONE_MAP_FOOTER_LEN);
    let elsewhere = RecordBatch::from_records(&[Record::new(1, 999_999_999, 10.0, 10.0)]);
    ZoneMap::from_batch(&elsewhere).append_to(&mut bytes);
    store.backend().put(forged_key, bytes).unwrap();
    assert_eq!(
        check_exact_or_error(&store, &data, &probes, "forged"),
        0,
        "a forged footer is never consulted by a query"
    );
    assert_eq!(store.scrub().unwrap(), vec![forged_key]);
    assert_eq!(store.repair_all().unwrap().repaired, vec![forged_key]);
    assert!(store.scrub().unwrap().is_empty());
    check(&store, &data, &probes, "forged, repaired");

    // A unit truncated by hand: its entry is stale, so a query that
    // keeps it fails over (never a short answer), scrub finds it, and
    // repair refreshes the entry from the unit it rewrites.
    let cut_key = key(1, 0);
    let bytes = store.backend().get(cut_key).unwrap();
    store
        .backend()
        .put(cut_key, bytes[..bytes.len() / 2].to_vec())
        .unwrap();
    let everything = [universe];
    let errors = check_exact_or_error(&store, &data, &everything, "truncated");
    assert_eq!(errors, 1, "only the cut replica fails on the universe");
    check_exact_or_error(&store, &data, &probes, "truncated");
    assert_eq!(store.scrub().unwrap(), vec![cut_key]);
    assert_eq!(store.repair_all().unwrap().repaired, vec![cut_key]);
    check(&store, &data, &probes, "truncated, repaired");
}

#[test]
fn a_reopened_store_reads_its_index_back_from_the_footers() {
    let dir = std::env::temp_dir().join(format!("blot-it-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut data = fleet(0x3F).generate();
    let mut store = build(FileBackend::new(&dir).unwrap(), &data);
    let extra = fleet(0x40).generate();
    let extra = RecordBatch::from_records(&extra.to_records()[..200]);
    store.ingest(&extra).unwrap();
    data.extend_from(&extra);
    let probes = ranges(&store.universe(), 3, 8);
    check(&store, &data, &probes, "files, ingested");

    // Reopen: nothing but the unit files and the replica metadata a
    // manifest would carry.
    let mut reopened = BlotStore::new(
        Counting::new(FileBackend::new(&dir).unwrap()),
        EnvProfile::local_cluster(),
        store.universe(),
        store.model().clone(),
    );
    let mut units = 0;
    for r in store.replicas() {
        reopened
            .restore_replica(r.config, r.scheme.clone(), r.records, r.bytes)
            .unwrap();
        units += r.scheme.len() as u64;
    }
    drop(store);
    assert_eq!(
        reopened.backend().take(),
        (0, units),
        "restore reads one tail per unit and no payload"
    );
    let tally = check(&reopened, &data, &probes, "reopened");
    assert!(tally.pruned > 0 && tally.scanned > 0, "{tally:?}");

    // A unit that vanished while the store was closed, and one written
    // before footers existed, get entries that never prune: queries over
    // the first fail over, over the second scan it; scrub reports both.
    let lost = key(2, 1);
    std::fs::remove_file(dir.join("r2").join("p1.unit")).unwrap();
    let legacy = key(3, 0);
    let path = dir.join("r3").join("p0.unit");
    let bytes = std::fs::read(&path).unwrap();
    let stripped = bytes.len() - ZONE_MAP_FOOTER_LEN;
    std::fs::write(&path, &bytes[..stripped]).unwrap();
    let mut again = BlotStore::new(
        Counting::new(FileBackend::new(&dir).unwrap()),
        EnvProfile::local_cluster(),
        reopened.universe(),
        reopened.model().clone(),
    );
    for r in reopened.replicas() {
        again
            .restore_replica(r.config, r.scheme.clone(), r.records, r.bytes)
            .unwrap();
    }
    assert_eq!(again.replicas()[2].unit_entries()[1], UnitEntry::default());
    let legacy_entry = UnitEntry {
        zone_map: None,
        len: stripped as u64,
    };
    assert_eq!(again.replicas()[3].unit_entries()[0], legacy_entry);
    check_exact_or_error(&again, &data, &probes, "reopened, damaged");
    let whole = again.query_on(3, &again.universe()).unwrap();
    assert_eq!(whole.records.len(), data.len(), "a legacy unit still scans");
    assert_eq!(again.scrub().unwrap(), vec![lost, legacy]);
    assert_eq!(again.repair_all().unwrap().repaired, vec![lost, legacy]);
    check(&again, &data, &probes, "reopened, repaired");
    std::fs::remove_dir_all(&dir).unwrap();
}
