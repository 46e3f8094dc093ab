//! Snapshot rendering as JSON (the CLI renders that JSON as text).
//!
//! The JSON emitter is local to this crate on purpose: `blot-obs` sits
//! below every other workspace crate (including `blot-json`), and the
//! shape it emits is flat enough that a full value model would be
//! overkill. Output is always valid JSON — names are escaped and
//! non-finite numbers are clamped to 0.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::registry::Snapshot;

/// Escapes a metric name for use inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The quantiles every histogram rendering reports.
const QUANTILES: &[(&str, f64)] = &[("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"mean\":{}",
        h.count(),
        json_f64(h.sum),
        json_f64(h.mean())
    );
    for &(name, q) in QUANTILES {
        let _ = write!(out, ",\"{name}\":{}", json_f64(h.quantile(q)));
    }
    out.push('}');
    out
}

impl Snapshot {
    /// Renders the snapshot as a JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,mean,p50,p90,p99}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(name), histogram_json(h));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_names_and_clamps_non_finite() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn snapshot_json_has_all_three_sections() {
        let r = crate::MetricsRegistry::new();
        r.counter("store.queries").add(3);
        r.gauge("pool.queue_depth").set(2);
        r.histogram("store.query.wall_ms").record(5.0);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"gauges\":{"), "{json}");
        assert!(
            json.contains("\"store.query.wall_ms\":{\"count\":"),
            "{json}"
        );
        assert!(json.ends_with("}}"), "{json}");
        assert_eq!(
            Snapshot::default().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
