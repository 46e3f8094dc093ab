//! The stats document: one JSON object carrying `enabled` (is the
//! metrics build live), `metrics` (a registry snapshot), `pruning`
//! (zone-map savings) and `drift` (the cost-model drift report). The
//! server's `Stats` reply and local `blot stats --json` are this
//! document; a coordinator's reply extends it with its shards. The CLI
//! renders any of them as text, so no renderer lives here.

use blot_core::obs::DriftReport;
use blot_json::Json;
use blot_obs::Snapshot;

/// The stats document's fields, in order, for `metrics` and `drift`.
/// A caller wraps them in `Json::Obj`, or extends them first.
/// `pruned` is the `(units, bytes)` the zone maps skipped when those
/// are not `metrics`' own `scan.*_skipped` counters: a coordinator
/// scans nothing and reports what its shards saved.
#[must_use]
pub fn document(
    metrics: &Snapshot,
    drift: &DriftReport,
    pruned: Option<(u64, u64)>,
) -> Vec<(String, Json)> {
    // Zone-map pruning effectiveness, surfaced explicitly so readers
    // need not dig for it in the raw counter dump.
    let (units, bytes) = pruned.unwrap_or_else(|| {
        let counter = |name| metrics.counter(name).unwrap_or(0);
        (counter("scan.units_skipped"), counter("scan.bytes_skipped"))
    });
    #[allow(clippy::cast_precision_loss)]
    let pruning = Json::obj([
        ("units_skipped", Json::Num(units as f64)),
        ("bytes_skipped", Json::Num(bytes as f64)),
    ]);
    let snapshot = Json::parse(&metrics.to_json()).unwrap_or_else(|_| Json::Obj(Vec::new()));
    vec![
        ("enabled".to_owned(), Json::Bool(blot_obs::enabled())),
        ("metrics".to_owned(), snapshot),
        ("pruning".to_owned(), pruning),
        ("drift".to_owned(), drift_to_json(drift)),
    ]
}

fn drift_to_json(report: &DriftReport) -> Json {
    #[allow(clippy::cast_precision_loss)]
    let schemes: Vec<Json> = report
        .schemes
        .iter()
        .map(|s| {
            Json::obj([
                ("scheme", Json::Str(s.scheme.metric_label().to_owned())),
                ("samples", Json::Num(s.samples as f64)),
                ("median_ratio", Json::Num(s.median_ratio)),
                ("mean_ratio", Json::Num(s.mean_ratio)),
                ("flagged", Json::Bool(s.flagged)),
            ])
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let band = Json::obj([
        ("lo", Json::Num(report.band.lo)),
        ("hi", Json::Num(report.band.hi)),
        ("min_samples", Json::Num(report.band.min_samples as f64)),
    ]);
    Json::obj([
        ("band", band),
        ("calibrated", Json::Bool(report.is_calibrated())),
        ("schemes", Json::Arr(schemes)),
    ])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn the_document_covers_an_empty_report_and_registry() {
        let report = DriftReport::from_samples(blot_core::obs::DriftBand::default(), []);
        let fields = document(&Snapshot::default(), &report, None);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["enabled", "metrics", "pruning", "drift"]);
        let doc = Json::Obj(fields);
        let drift = doc.get("drift").unwrap();
        assert_eq!(drift.get("calibrated").and_then(Json::as_bool), Some(true));
        let pruning = doc.get("pruning").unwrap();
        assert_eq!(pruning.get("units_skipped").and_then(Json::as_u64), Some(0));
    }
}
