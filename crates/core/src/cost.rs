//! The query cost model of §IV and its calibration (§V-B).
//!
//! Per-partition cost (Equation 6):
//!
//! ```text
//! Cost(q, p) = |D(p)| / ScanRate + ExtraTime
//! ```
//!
//! With non-skewed partitioning (|D(pᵢ)| ≈ |D|/|P|, §IV-A) the cost of a
//! query on a replica is Equation 7:
//!
//! ```text
//! Cost(q, r) = Np(q, r)/|P(r)| · |D|/ScanRate + Np(q, r) · ExtraTime
//! ```
//!
//! For a *grouped* query only the extent is known, so `Np` is the
//! expected number of involved partitions over a uniformly random
//! centroid — Equation 11, `Σ_p P{I(p, q) = 1}`, with each probability
//! given by the centroid-range volume ratio of Equation 12
//! ([`blot_geo::intersection_probability`]).
//!
//! `ScanRate` and `ExtraTime` are *measured*, not assumed: following
//! §V-B, the calibration runs map-only scan jobs over partition sets of
//! increasing size in the simulated environment, averages each set, and
//! fits a straight line by least squares. The fit quality (Figure 5) is
//! how the paper argues the model is usable; [`CostModel::calibrate_with`]
//! exposes the measured points so the benchmark harness can reproduce
//! that figure.

use blot_codec::{EncodingScheme, Layout, SchemeTable};
use blot_geo::{intersection_probability, QuerySize};
use blot_index::PartitioningScheme;
use blot_model::RecordBatch;
use blot_storage::scan::{run_scan, ScanTask};
use blot_storage::{Backend, EnvProfile, MemBackend, UnitKey};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::units::{Bytes, Millis, PartitionCount};

/// Fitted parameters of one encoding scheme in one environment: the
/// `1/ScanRate` slope (ms per record) and `ExtraTime` intercept (ms) of
/// Equation 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostParams {
    /// Simulated milliseconds to scan one record (`1/ScanRate`).
    pub ms_per_record: Millis,
    /// Fixed per-partition simulated milliseconds (`ExtraTime`).
    pub extra_ms: Millis,
}

/// One calibration measurement: the average simulated cost of scanning
/// partitions holding `records` records each (a point in Figure 5).
#[derive(Debug, Clone, Copy)]
pub struct MeasurePoint {
    /// Encoding scheme measured.
    pub scheme: EncodingScheme,
    /// Records per partition in this partition set.
    pub records: usize,
    /// Average simulated milliseconds per partition scan.
    pub avg_ms: f64,
}

/// Shape of a calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Partition sizes (records per partition), one partition set each.
    pub sizes: Vec<usize>,
    /// Partitions per set ("5 sets of partitions with each set
    /// containing 20 partitions", §V-B).
    pub partitions_per_set: usize,
}

impl CalibrationConfig {
    /// The paper's §V-B shape: 5 partition sets × 20 partitions.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            sizes: vec![2_000, 4_000, 8_000, 16_000, 32_000],
            partitions_per_set: 20,
        }
    }

    /// A fast shape for tests and doctests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sizes: vec![400, 800, 1_600],
            partitions_per_set: 3,
        }
    }
}

/// Per-scheme calibration outcome: fitted cost parameters plus the
/// measured encoded bytes per record (drives `Storage(r)` estimates;
/// the ratio to `ROW-PLAIN` is Table I).
#[derive(Debug, Clone, Copy, Default)]
struct Calibration {
    params: CostParams,
    bytes_per_record: f64,
}

/// A calibrated cost model for one execution environment.
///
/// Calibration covers the full [`EncodingScheme::grid`] (every scheme a
/// storage-unit tag can decode to), so per-scheme lookups are total —
/// there is no "scheme not calibrated" panic path.
#[derive(Debug, Clone)]
pub struct CostModel {
    env_name: String,
    cal: SchemeTable<Calibration>,
}

/// One calibration probe: store an encoded partition, scan it, then
/// free it. The delete runs even when the scan fails so a bad probe
/// cannot leak its unit into later probes' memory footprint.
fn probe_scan(
    backend: &MemBackend,
    env: &EnvProfile,
    key: UnitKey,
    scheme: EncodingScheme,
    bytes: Vec<u8>,
) -> Result<blot_storage::scan::ScanReport, blot_storage::StorageError> {
    backend.put(key, bytes)?;
    let scan = run_scan(
        backend,
        env,
        &ScanTask {
            key,
            scheme,
            range: None,
        },
        &blot_obs::SpanHandle::detached(),
    );
    backend.delete(key)?;
    scan
}

/// Ordinary least squares for `y = slope·x + intercept`.
fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (0.0, sy / n);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

impl CostModel {
    /// Calibrates every encoding scheme in `env` with the quick
    /// configuration. `seed` controls which sample slices become the
    /// measured partitions.
    ///
    /// Calibration stays deliberately serial even though the rest of
    /// the scan paths run on the shared [`ScanExecutor`] pool:
    /// calibration *times* encode/decode work, and running the timed
    /// probes concurrently would contend for cores and inflate the
    /// measured per-record latencies the whole cost model is fitted to.
    ///
    /// [`ScanExecutor`]: blot_storage::ScanExecutor
    #[must_use]
    pub fn calibrate(env: &EnvProfile, sample: &RecordBatch, seed: u64) -> Self {
        Self::calibrate_with(env, sample, &CalibrationConfig::quick(), seed).0
    }

    /// Full calibration: measures every scheme of the full grid over
    /// the given partition sets (§V-B) and returns both the fitted
    /// model and the raw measurement points (Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty or the configuration has fewer than
    /// two partition sizes.
    #[must_use]
    pub fn calibrate_with(
        env: &EnvProfile,
        sample: &RecordBatch,
        config: &CalibrationConfig,
        seed: u64,
    ) -> (Self, Vec<MeasurePoint>) {
        assert!(!sample.is_empty(), "cannot calibrate on an empty sample");
        assert!(config.sizes.len() >= 2, "need at least two partition sizes");
        let mut rng = SmallRng::seed_from_u64(seed);
        let backend = MemBackend::new();
        let mut points = Vec::new();

        let mut si = 0u32;
        let cal = SchemeTable::build(|scheme| {
            si += 1;
            let mut fit_points = Vec::with_capacity(config.sizes.len());
            let mut total_bytes = 0u64;
            let mut total_records = 0u64;
            // Warm-up scan: the first decode of a process pays for page
            // faults and allocator growth that a long-running cluster
            // never sees; keep it out of the measurements.
            {
                let len = config.sizes.first().copied().unwrap_or(0).min(sample.len());
                let mut part = RecordBatch::with_capacity(len);
                for i in 0..len {
                    part.push(sample.get(i));
                }
                let key = UnitKey {
                    // One replica id per scheme; `si` is a tiny counter.
                    replica: si,
                    partition: u32::MAX,
                };
                // Warm-up probe — a failure only readmits the first-touch
                // noise the probe exists to shed.
                #[allow(clippy::let_underscore_must_use)]
                let _ = probe_scan(&backend, env, key, scheme, scheme.encode(&part));
            }
            for (zi, &size) in config.sizes.iter().enumerate() {
                let mut set_samples = Vec::with_capacity(config.partitions_per_set);
                for pi in 0..config.partitions_per_set {
                    // A contiguous random slice keeps trajectory locality,
                    // like a real space-time partition.
                    let len = size.min(sample.len());
                    let start = rng.gen_range(0..=sample.len() - len);
                    let mut part = RecordBatch::with_capacity(len);
                    for i in start..start + len {
                        part.push(sample.get(i));
                    }
                    let key = UnitKey {
                        // Calibration sets are small; both ids fit u32.
                        replica: si,
                        partition: u32::try_from(zi * config.partitions_per_set + pi)
                            .unwrap_or(u32::MAX),
                    };
                    let bytes = scheme.encode(&part);
                    total_bytes += bytes.len() as u64;
                    total_records += len as u64;
                    // MemBackend cannot fail; should a probe ever error,
                    // drop the sample point instead of aborting — the
                    // median over the remaining points still fits.
                    match probe_scan(&backend, env, key, scheme, bytes) {
                        Ok(report) => set_samples.push(report.sim_ms),
                        Err(_) => continue,
                    }
                }
                // Median, not mean: a host CPU spike during one scan must
                // not drag the whole partition set's estimate (the
                // simulated cluster is assumed dedicated, the host is not).
                set_samples.sort_by(f64::total_cmp);
                let Some(&avg) = set_samples.get(set_samples.len() / 2) else {
                    continue;
                };
                #[allow(clippy::cast_precision_loss)]
                fit_points.push((size.min(sample.len()) as f64, avg));
                points.push(MeasurePoint {
                    scheme,
                    records: size.min(sample.len()),
                    avg_ms: avg,
                });
            }
            let (slope, intercept) = linear_fit(&fit_points);
            #[allow(clippy::cast_precision_loss)]
            Calibration {
                params: CostParams {
                    ms_per_record: Millis::new(slope.max(0.0)),
                    extra_ms: Millis::new(intercept.max(0.0)),
                },
                bytes_per_record: total_bytes as f64 / total_records as f64,
            }
        });
        (
            Self {
                env_name: env.name.to_owned(),
                cal,
            },
            points,
        )
    }

    /// Builds a model from explicit parameters instead of measurement —
    /// e.g. to plug in the paper's own Table II numbers, or fully
    /// deterministic values in tests. The tables are total over the
    /// scheme grid by construction.
    #[must_use]
    pub fn from_params(
        env_name: impl Into<String>,
        params: SchemeTable<CostParams>,
        bytes_per_record: SchemeTable<f64>,
    ) -> Self {
        Self {
            env_name: env_name.into(),
            cal: SchemeTable::build(|s| Calibration {
                params: *params.get(s),
                bytes_per_record: *bytes_per_record.get(s),
            }),
        }
    }

    /// Name of the environment this model was calibrated in.
    #[must_use]
    pub fn env_name(&self) -> &str {
        &self.env_name
    }

    /// Fitted parameters for `scheme`. Total: calibration covers the
    /// full scheme grid.
    #[must_use]
    pub fn params(&self, scheme: EncodingScheme) -> CostParams {
        self.cal.get(scheme).params
    }

    /// Measured encoded bytes per record for `scheme`. Total: calibration
    /// covers the full scheme grid.
    #[must_use]
    pub fn bytes_per_record(&self, scheme: EncodingScheme) -> f64 {
        self.cal.get(scheme).bytes_per_record
    }

    /// Compression ratio relative to the uncompressed row layout — the
    /// quantity Table I reports.
    #[must_use]
    pub fn compression_ratio(&self, scheme: EncodingScheme) -> f64 {
        let base = self.bytes_per_record(EncodingScheme::new(
            Layout::Row,
            blot_codec::Compression::Plain,
        ));
        self.bytes_per_record(scheme) / base
    }

    /// Estimated storage size of a replica over a dataset of
    /// `dataset_records` records (`Storage(r)`, Definition 5).
    #[must_use]
    pub fn replica_storage_bytes(&self, encoding: EncodingScheme, dataset_records: f64) -> Bytes {
        Bytes::new(self.bytes_per_record(encoding) * dataset_records)
    }

    /// Expected number of involved partitions for a grouped query
    /// (Equation 11): `Σ_p P{I(p, q) = 1}`.
    #[must_use]
    pub fn expected_involved(scheme: &PartitioningScheme, size: QuerySize) -> PartitionCount {
        let u = scheme.universe();
        PartitionCount::new(
            scheme
                .partitions()
                .iter()
                .map(|p| intersection_probability(&u, size, &p.range))
                .sum(),
        )
    }

    /// Equation 6: the cost of scanning one partition of `records`
    /// records, `|D(p)|/ScanRate + ExtraTime`.
    #[must_use]
    pub fn partition_cost(&self, encoding: EncodingScheme, records: f64) -> Millis {
        let p = self.params(encoding);
        p.ms_per_record * records + p.extra_ms
    }

    /// Equation 7 with a known involved-partition count: `np` × Eq. 6 at `|D|/|P|`.
    #[must_use]
    pub fn cost_with_np(
        &self,
        np: PartitionCount,
        total_partitions: usize,
        encoding: EncodingScheme,
        dataset_records: f64,
    ) -> Millis {
        #[allow(clippy::cast_precision_loss)]
        let per_partition_records = dataset_records / total_partitions as f64;
        np.get() * self.partition_cost(encoding, per_partition_records)
    }

    /// Estimated cost of a *grouped* query on a replica (Equations 7 and
    /// 11 combined), for a dataset of `dataset_records` records.
    #[must_use]
    pub fn grouped_query_cost(
        &self,
        size: QuerySize,
        scheme: &PartitioningScheme,
        encoding: EncodingScheme,
        dataset_records: f64,
    ) -> Millis {
        let np = Self::expected_involved(scheme, size);
        self.cost_with_np(np, scheme.len(), encoding, dataset_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blot_codec::Compression;
    use blot_index::SchemeSpec;
    use blot_tracegen::FleetConfig;

    fn sample() -> RecordBatch {
        let mut c = FleetConfig::small();
        c.num_taxis = 60;
        c.records_per_taxi = 200;
        c.generate()
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=5)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 7.0))
            .collect();
        let (slope, intercept) = linear_fit(&pts);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 7.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_orderings_match_table_two() {
        let s = sample();
        let env = EnvProfile::local_cluster();
        let model = CostModel::calibrate(&env, &s, 1);
        let row = |c| model.params(EncodingScheme::new(Layout::Row, c));
        // Heavier compression ⇒ slower scan (Table II's 1/ScanRate grows
        // from PLAIN to LZMA within the row family).
        assert!(
            row(Compression::Lzr).ms_per_record > row(Compression::Plain).ms_per_record,
            "LZMA-class decode must cost more per record than plain"
        );
        // Compression ratios: PLAIN(1) > LZF > DEFLATE > LZR (Table I).
        let r = |c| model.compression_ratio(EncodingScheme::new(Layout::Row, c));
        assert!((r(Compression::Plain) - 1.0).abs() < 1e-9);
        assert!(r(Compression::Lzf) < 1.0);
        assert!(r(Compression::Deflate) < r(Compression::Lzf));
        assert!(r(Compression::Lzr) <= r(Compression::Deflate) * 1.1);
        // Column layouts beat rows under every codec.
        for c in [Compression::Lzf, Compression::Deflate, Compression::Lzr] {
            assert!(
                model.compression_ratio(EncodingScheme::new(Layout::Column, c))
                    < model.compression_ratio(EncodingScheme::new(Layout::Row, c))
            );
        }
    }

    #[test]
    fn cloud_extra_time_exceeds_local() {
        let s = sample();
        let local = CostModel::calibrate(&EnvProfile::local_cluster(), &s, 2);
        let cloud = CostModel::calibrate(&EnvProfile::cloud_object_store(), &s, 2);
        let scheme = EncodingScheme::new(Layout::Row, Compression::Plain);
        assert!(cloud.params(scheme).extra_ms > 3.0 * local.params(scheme).extra_ms);
    }

    #[test]
    fn expected_involved_matches_exact_counting_on_average() {
        let s = sample();
        let config = FleetConfig::small();
        let universe = config.universe();
        let scheme = PartitioningScheme::build(&s, universe, SchemeSpec::new(16, 4));
        let size = QuerySize::new(0.4, 0.4, universe.extent(2) / 8.0);
        let analytic = CostModel::expected_involved(&scheme, size).get();
        // Monte-Carlo over a grid of centroid positions.
        let q = crate::query::GroupedQuery::new(size);
        let mut total = 0usize;
        let n = 9 * 9 * 9;
        for ix in 0..9 {
            for iy in 0..9 {
                for it in 0..9 {
                    let range = q.at(
                        &universe,
                        f64::from(ix) / 8.0,
                        f64::from(iy) / 8.0,
                        f64::from(it) / 8.0,
                    );
                    total += scheme.involved(&range).len();
                }
            }
        }
        let empirical = total as f64 / f64::from(n);
        let rel = (analytic - empirical).abs() / empirical;
        assert!(
            rel < 0.15,
            "Eq. 11 estimate {analytic:.2} vs empirical {empirical:.2}"
        );
    }

    #[test]
    fn grouped_cost_scales_linearly_with_dataset_size() {
        let s = sample();
        let universe = FleetConfig::small().universe();
        let scheme = PartitioningScheme::build(&s, universe, SchemeSpec::new(16, 4));
        let model = CostModel::calibrate(&EnvProfile::local_cluster(), &s, 3);
        let enc = EncodingScheme::new(Layout::Row, Compression::Lzf);
        let size = QuerySize::new(0.5, 0.5, 2000.0);
        let c1 = model.grouped_query_cost(size, &scheme, enc, 1e6);
        let c10 = model.grouped_query_cost(size, &scheme, enc, 1e7);
        // Scan share grows 10×, extra share constant: c10 < 10·c1 but
        // c10 > c1.
        assert!(c10 > c1);
        assert!(c10 < 10.0 * c1);
    }

    #[test]
    fn finer_partitioning_helps_small_queries_hurts_large() {
        // The trade-off motivating diverse replicas (Figure 2).
        let s = sample();
        let universe = FleetConfig::small().universe();
        let coarse = PartitioningScheme::build(&s, universe, SchemeSpec::new(4, 2));
        let fine = PartitioningScheme::build(&s, universe, SchemeSpec::new(64, 16));
        // Synthetic parameters keep the test deterministic under host
        // load; the trade-off is a property of the Equation 7 arithmetic,
        // not of measurement.
        let params = SchemeTable::build(|_| CostParams {
            ms_per_record: Millis::new(6e-3),
            extra_ms: Millis::new(5200.0),
        });
        let bpr = SchemeTable::build(|_| 38.0);
        let model = CostModel::from_params("synthetic-local", params, bpr);
        let enc = EncodingScheme::new(Layout::Row, Compression::Plain);
        let records = 6.5e7;
        let tiny = QuerySize::new(0.02, 0.02, 500.0);
        let huge = QuerySize::new(
            universe.extent(0) * 0.9,
            universe.extent(1) * 0.9,
            universe.extent(2) * 0.9,
        );
        assert!(
            model.grouped_query_cost(tiny, &fine, enc, records)
                < model.grouped_query_cost(tiny, &coarse, enc, records),
            "fine partitioning must win on tiny queries"
        );
        assert!(
            model.grouped_query_cost(huge, &coarse, enc, records)
                < model.grouped_query_cost(huge, &fine, enc, records),
            "coarse partitioning must win on huge queries"
        );
    }

    #[test]
    fn eq7_is_np_partitions_of_the_mean_size() {
        let model = CostModel::calibrate(&EnvProfile::local_cluster(), &sample(), 5);
        let enc = EncodingScheme::new(Layout::Row, Compression::Plain);
        let eq7 = model.cost_with_np(PartitionCount::of(7), 64, enc, 1e6);
        let eq6 = model.partition_cost(enc, 1e6 / 64.0);
        assert!((eq7.get() - 7.0 * eq6.get()).abs() <= 1e-9 * eq7.get());
    }
}
