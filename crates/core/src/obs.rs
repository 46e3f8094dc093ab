//! Store-level observability: instrument handles and cost-model drift
//! accounting.
//!
//! Every [`BlotStore`](crate::store::BlotStore) owns a [`StoreMetrics`]
//! bundle: pre-registered handles into a [`MetricsRegistry`] that the
//! hot paths record into without ever touching the registry again. The
//! headline instrument is *drift* — each query records its plan's
//! predicted `Cost(q, r)` (Eq. 6) over the measured simulated time (1
//! when every unit is pruned) into a per-(replica, scheme) histogram, and
//! [`DriftReport`] flags the encoding schemes whose median ratio has
//! left a configurable band. A flagged scheme means the calibrated
//! `ScanRate`/`ExtraTime` parameters (§V-B) no longer describe the
//! workload, so routing decisions and the replica-selection matrix
//! built from them are suspect and recalibration is due.

use blot_codec::{EncodingScheme, SchemeTable};
use blot_obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};

/// Pre-registered instrument handles for one store.
///
/// Created by the store's constructor; cloned handles of the same
/// registry can be obtained via [`registry`](Self::registry) (e.g. for
/// export). With `blot-obs` compiled out (`off` feature) every handle
/// is a zero-sized no-op and counters read back as zero.
#[derive(Debug)]
pub struct StoreMetrics {
    registry: MetricsRegistry,
    /// Replicas that failed before one answered, summed over queries.
    pub query_failovers: Counter,
    /// Host wall-clock per routed query, milliseconds; its count is the
    /// number of queries accepted.
    pub query_wall_ms: Histogram,
    /// Simulated (paper) milliseconds per executed query.
    pub query_sim_ms: Histogram,
    /// Records returned to callers.
    pub records_returned: Counter,
    /// Storage units involved in queries' plans — including those the
    /// zone maps then skipped (see `units_skipped`), like
    /// `QueryResult::partitions_scanned`.
    pub units_scanned: Counter,
    /// Involved units whose zone-map footer proved them disjoint from
    /// the query range — payload never fetched or decoded.
    pub units_skipped: Counter,
    /// Payload bytes those skipped units never transferred.
    pub bytes_skipped: Counter,
    /// Records decoded from storage units (queries, ingest, scrub).
    pub records_decoded: Counter,
    /// Bytes read from the backend (queries, ingest, scrub).
    pub bytes_read: Counter,
    /// Host wall-clock per replica build, milliseconds.
    pub build_wall_ms: Histogram,
    /// Storage units written by replica builds.
    pub build_units: Counter,
    /// Host wall-clock per ingest batch, milliseconds.
    pub ingest_wall_ms: Histogram,
    /// Records ingested (counted once, not per replica).
    pub ingest_records: Counter,
    /// Storage units rewritten by ingest across all replicas.
    pub ingest_units_rewritten: Counter,
    /// Host wall-clock per scrub pass, milliseconds.
    pub scrub_wall_ms: Histogram,
    /// Storage units examined by scrub passes.
    pub scrub_units_scanned: Counter,
    /// Units that read back and decoded cleanly.
    pub scrub_units_verified: Counter,
    /// Units found missing or corrupt.
    pub scrub_units_damaged: Counter,
    /// Units whose zone-map footer disagrees with (or is missing for)
    /// the records it covers — counted within `scrub_units_damaged`.
    pub scrub_footer_mismatches: Counter,
    /// Host wall-clock per unit repair, milliseconds.
    pub repair_wall_ms: Histogram,
    /// Damaged units successfully rebuilt.
    pub repair_units_repaired: Counter,
    /// Damaged units with no surviving source.
    pub repair_units_failed: Counter,
    /// Unit decodes per encoding scheme.
    decodes: SchemeTable<Counter>,
}

impl StoreMetrics {
    /// Creates a bundle backed by a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        Self::register(&MetricsRegistry::new())
    }

    /// Creates a bundle backed by an existing registry (to share one
    /// exporter across stores).
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            query_failovers: registry.counter("store.query_failovers"),
            query_wall_ms: registry.histogram("store.query_wall_ms"),
            query_sim_ms: registry.histogram("store.query_sim_ms"),
            records_returned: registry.counter("store.records_returned"),
            units_scanned: registry.counter("store.units_scanned"),
            units_skipped: registry.counter("scan.units_skipped"),
            bytes_skipped: registry.counter("scan.bytes_skipped"),
            records_decoded: registry.counter("store.records_decoded"),
            bytes_read: registry.counter("store.bytes_read"),
            build_wall_ms: registry.histogram("store.build_wall_ms"),
            build_units: registry.counter("store.build_units"),
            ingest_wall_ms: registry.histogram("store.ingest_wall_ms"),
            ingest_records: registry.counter("store.ingest_records"),
            ingest_units_rewritten: registry.counter("store.ingest_units_rewritten"),
            scrub_wall_ms: registry.histogram("store.scrub_wall_ms"),
            scrub_units_scanned: registry.counter("store.scrub_units_scanned"),
            scrub_units_verified: registry.counter("store.scrub_units_verified"),
            scrub_units_damaged: registry.counter("store.scrub_units_damaged"),
            scrub_footer_mismatches: registry.counter("store.scrub_footer_mismatches"),
            repair_wall_ms: registry.histogram("store.repair_wall_ms"),
            repair_units_repaired: registry.counter("store.repair_units_repaired"),
            repair_units_failed: registry.counter("store.repair_units_failed"),
            decodes: SchemeTable::build(|scheme| {
                registry.counter(&format!(
                    "codec.decodes{{scheme={}}}",
                    scheme.metric_label()
                ))
            }),
        }
    }

    /// The registry behind the handles (for snapshots / export).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Handle counting unit decodes under `scheme`.
    #[must_use]
    pub fn decode_counter(&self, scheme: EncodingScheme) -> Counter {
        self.decodes.get(scheme).clone()
    }

    /// Registers the per-replica instruments for replica `id` encoded
    /// with `scheme`.
    #[must_use]
    pub fn replica(&self, id: u32, scheme: EncodingScheme) -> ReplicaMetrics {
        let label = scheme.metric_label();
        ReplicaMetrics {
            routed_first: self.registry.counter(&format!("replica.{id}.routed_first")),
            sim_ms: self.registry.histogram(&format!("replica.{id}.sim_ms")),
            drift: self
                .registry
                .histogram(&format!("drift.ratio{{replica={id},scheme={label}}}")),
        }
    }
}

impl Default for StoreMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-replica instrument handles, held by each built replica.
#[derive(Debug)]
pub struct ReplicaMetrics {
    /// Times this replica was the routing winner (estimated cheapest).
    pub routed_first: Counter,
    /// Simulated milliseconds per query executed on this replica.
    pub sim_ms: Histogram,
    /// Predicted/actual cost ratio per query (see [`DriftReport`]).
    pub drift: Histogram,
}

/// Acceptable band for the median predicted/actual cost ratio.
///
/// A perfectly calibrated model sits at ratio 1.0. The default band
/// `[0.5, 2.0]` tolerates a 2× error either way — comfortably wider
/// than the calibration noise of §V-B, yet narrow enough to catch a
/// mis-set `ScanRate` (which shifts the ratio by the same factor it is
/// wrong by). Schemes with fewer than `min_samples` observations are
/// never flagged: a median over a handful of queries is noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBand {
    /// Lower bound (exclusive flag threshold) for the median ratio.
    pub lo: f64,
    /// Upper bound (exclusive flag threshold) for the median ratio.
    pub hi: f64,
    /// Minimum drift samples before a scheme can be flagged.
    pub min_samples: u64,
}

impl Default for DriftBand {
    fn default() -> Self {
        Self {
            lo: 0.5,
            hi: 2.0,
            min_samples: 8,
        }
    }
}

impl DriftBand {
    /// True when `median` (of a scheme with enough samples) is outside
    /// the band.
    #[must_use]
    pub fn flags(&self, median: f64, samples: u64) -> bool {
        samples >= self.min_samples && !(self.lo..=self.hi).contains(&median)
    }
}

/// Drift summary for one encoding scheme.
#[derive(Debug, Clone, Copy)]
pub struct SchemeDrift {
    /// The scheme.
    pub scheme: EncodingScheme,
    /// Drift samples observed (queries executed under this scheme).
    pub samples: u64,
    /// Median predicted/actual cost ratio (1.0 = calibrated; 0.0 when
    /// no samples).
    pub median_ratio: f64,
    /// Mean predicted/actual cost ratio.
    pub mean_ratio: f64,
    /// Whether the median left the band (with enough samples).
    pub flagged: bool,
}

/// Cost-model drift accounting across every encoding scheme a store
/// serves queries with.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// The band the report was evaluated against.
    pub band: DriftBand,
    /// One row per scheme in grid order (schemes with zero samples
    /// included, never flagged).
    pub schemes: Vec<SchemeDrift>,
}

impl DriftReport {
    /// Builds a report from per-replica drift histograms, merging the
    /// samples of replicas that share an encoding scheme.
    pub fn from_samples(
        band: DriftBand,
        samples: impl IntoIterator<Item = (EncodingScheme, HistogramSnapshot)>,
    ) -> Self {
        let mut acc: Vec<(EncodingScheme, HistogramSnapshot)> = Vec::new();
        for (scheme, snap) in samples {
            if let Some((_, existing)) = acc.iter_mut().find(|&&mut (s, _)| s == scheme) {
                existing.merge(&snap);
            } else {
                acc.push((scheme, snap));
            }
        }
        let merged: SchemeTable<HistogramSnapshot> = SchemeTable::build(|s| {
            acc.iter()
                .find(|&&(scheme, _)| scheme == s)
                .map(|(_, snap)| snap.clone())
                .unwrap_or_default()
        });
        let schemes = merged
            .iter()
            .map(|(scheme, snap)| {
                let samples = snap.count();
                let median_ratio = if samples == 0 {
                    0.0
                } else {
                    snap.quantile(0.5)
                };
                SchemeDrift {
                    scheme,
                    samples,
                    median_ratio,
                    mean_ratio: snap.mean(),
                    flagged: band.flags(median_ratio, samples),
                }
            })
            .collect();
        Self { band, schemes }
    }

    /// The schemes whose median ratio left the band.
    pub fn flagged(&self) -> impl Iterator<Item = &SchemeDrift> {
        self.schemes.iter().filter(|s| s.flagged)
    }

    /// True when no scheme is flagged — the cost model still describes
    /// what the store measures.
    #[must_use]
    pub fn is_calibrated(&self) -> bool {
        self.schemes.iter().all(|s| !s.flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blot_codec::{Compression, Layout};

    fn ratios(values: &[f64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn calibrated_schemes_are_not_flagged() {
        let scheme = EncodingScheme::new(Layout::Row, Compression::Lzf);
        let snap = ratios(&[1.0; 20]);
        let report = DriftReport::from_samples(DriftBand::default(), [(scheme, snap)]);
        if blot_obs::enabled() {
            let row = report
                .schemes
                .iter()
                .find(|s| s.scheme == scheme)
                .copied()
                .unwrap_or_else(|| panic!("scheme row missing"));
            assert_eq!(row.samples, 20);
            assert!((row.median_ratio - 1.0).abs() < 0.2, "{}", row.median_ratio);
        }
        assert!(report.is_calibrated());
    }

    #[test]
    fn drifted_scheme_is_flagged_and_merged_across_replicas() {
        let drifted = EncodingScheme::new(Layout::Column, Compression::Deflate);
        let fine = EncodingScheme::new(Layout::Row, Compression::Plain);
        // Two replicas share the drifted scheme: 5 + 5 samples only
        // reach min_samples=8 when merged.
        let report = DriftReport::from_samples(
            DriftBand::default(),
            [
                (drifted, ratios(&[8.0; 5])),
                (drifted, ratios(&[8.0; 5])),
                (fine, ratios(&[1.1; 10])),
            ],
        );
        if blot_obs::enabled() {
            let flagged: Vec<EncodingScheme> = report.flagged().map(|s| s.scheme).collect();
            assert_eq!(flagged, vec![drifted]);
            assert!(!report.is_calibrated());
        }
    }

    #[test]
    fn too_few_samples_never_flag() {
        let band = DriftBand::default();
        assert!(!band.flags(100.0, band.min_samples - 1));
        assert!(band.flags(100.0, band.min_samples));
        assert!(!band.flags(1.0, 1_000));
    }
}
