//! The one text rendering of a stats document: what local
//! `blot stats` builds, what a server's `Stats` reply carries, and a
//! coordinator's reply, which adds a `shards` section. The document
//! itself is `blot_server::stats::document`; this is the only place
//! it turns into text.

use blot_json::Json;

/// Renders a stats document as the text `blot stats` prints: the
/// metric tables, zone-map pruning, the cost-model drift table, and the
/// per-shard status lines when the document has `shards`.
pub fn to_text(doc: &Json) -> String {
    let mut out = String::new();
    if doc.get("enabled").and_then(Json::as_bool) == Some(false) {
        out.push_str("metrics are compiled out (blot-obs `off` feature)\n");
    }
    metrics_text(&mut out, doc.get("metrics"));
    out.push_str(&format!(
        "\nzone-map pruning: {} units skipped, {} bytes never fetched\n\n",
        pruned(doc, "units_skipped"),
        pruned(doc, "bytes_skipped")
    ));
    drift_text(&mut out, doc.get("drift"));
    if let Some(shards) = doc.get("shards").and_then(Json::as_array) {
        out.push_str("\nshards:\n");
        for shard in shards {
            let id = shard.get("shard").and_then(Json::as_u64).unwrap_or(0);
            let addr = shard.get("addr").and_then(Json::as_str).unwrap_or("?");
            match shard.get("stats") {
                Some(stats) => out.push_str(&format!(
                    "  shard {id} {addr}: ok ({} units / {} bytes pruned)\n",
                    pruned(stats, "units_skipped"),
                    pruned(stats, "bytes_skipped")
                )),
                None => out.push_str(&format!(
                    "  shard {id} {addr}: UNAVAILABLE ({})\n",
                    shard.get("error").and_then(Json::as_str).unwrap_or("?")
                )),
            }
        }
    }
    out
}

/// One counter of a document's `pruning` section.
fn pruned(doc: &Json, key: &str) -> u64 {
    doc.get("pruning")
        .and_then(|p| p.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The registry snapshot as aligned tables, one name column across all
/// three kinds.
fn metrics_text(out: &mut String, metrics: Option<&Json>) {
    let section = |kind| match metrics.and_then(|m| m.get(kind)) {
        Some(Json::Obj(entries)) => entries.as_slice(),
        _ => &[],
    };
    let (counters, gauges, histograms) = (
        section("counters"),
        section("gauges"),
        section("histograms"),
    );
    let width = counters
        .iter()
        .chain(gauges)
        .chain(histograms)
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0);
    for (title, entries) in [("counters", counters), ("gauges", gauges)] {
        if !entries.is_empty() {
            out.push_str(&format!("{title}:\n"));
        }
        for (name, value) in entries {
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
    }
    if !histograms.is_empty() {
        out.push_str("histograms (count / mean / p50 / p90 / p99):\n");
    }
    for (name, h) in histograms {
        let num = |key| h.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "  {name:<width$}  {}  {:.3}  {:.3}  {:.3}  {:.3}\n",
            h.get("count").and_then(Json::as_u64).unwrap_or(0),
            num("mean"),
            num("p50"),
            num("p90"),
            num("p99")
        ));
    }
    if counters.is_empty() && gauges.is_empty() && histograms.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
}

/// One line per scheme with samples, flagged schemes marked `DRIFTED`.
fn drift_text(out: &mut String, drift: Option<&Json>) {
    let band = |key| {
        drift
            .and_then(|d| d.get("band"))
            .and_then(|b| b.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "cost-model drift (median predicted/actual, band [{}, {}], min {} samples):\n",
        band("lo"),
        band("hi"),
        band("min_samples")
    ));
    let rows = drift
        .and_then(|d| d.get("schemes"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let mut any = false;
    for row in rows {
        let samples = row.get("samples").and_then(Json::as_u64).unwrap_or(0);
        if samples == 0 {
            continue;
        }
        any = true;
        let ratio = |key| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "  {:<12} {samples:>6} samples  median {:>8.3}  mean {:>8.3}  {}\n",
            row.get("scheme").and_then(Json::as_str).unwrap_or("?"),
            ratio("median_ratio"),
            ratio("mean_ratio"),
            if row.get("flagged").and_then(Json::as_bool) == Some(true) {
                "DRIFTED"
            } else {
                "ok"
            }
        ));
    }
    if !any {
        out.push_str("  (no drift samples)\n");
    }
}
