//! `compare <dirA> <dirB>`: two sets of result files, judged by the bounds
//! in `BENCHMARK.json`.
//!
//! Each directory is searched recursively, so it may hold one set of runs
//! or many (one sub-directory per set, as `run.sh` writes them). Every
//! pairing of end-to-end metric and workload gets its own row; exact-count
//! per-layer metrics must be bit-equal wherever both sides ran the same
//! seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use blot_json::Json;

use crate::metrics::is_exact_count;
use crate::util::{median, quartiles};

pub struct Report {
    pub text: String,
    /// No row regressed and no exact count differed.
    pub ok: bool,
}

/// One result file: `(workload, seed)` and its metrics by name.
type Run = ((String, String), BTreeMap<String, f64>);

fn result_files(dir: &Path, suffix: &str, into: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            result_files(&path, suffix, into)?;
        } else if path.to_string_lossy().ends_with(suffix) {
            into.push(path);
        }
    }
    Ok(())
}

fn parse(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads every `*<suffix>` under `dir`. Two files of one workload and
/// seed (a set run twice) are kept apart by their path.
fn load(dir: &Path, suffix: &str) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    result_files(dir, suffix, &mut files)?;
    files.sort();
    let mut runs = Vec::new();
    for path in files {
        let doc = parse(&path)?;
        let text = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("?").to_owned();
        let key = (
            text(doc.get("workload")),
            text(doc.get("provenance").and_then(|p| p.get("seed"))),
        );
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = doc.get("metrics") {
            for (name, m) in pairs {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    metrics.insert(name.clone(), value);
                }
            }
        }
        runs.push((key, metrics));
    }
    Ok(runs)
}

/// `(name, unit, lower is better, bound)` of every end-to-end metric.
fn bounds(spec: &Path) -> Result<Vec<(String, String, bool, f64)>, String> {
    let doc = parse(spec)?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", spec.display()))?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_owned);
            Some((
                text("name")?,
                text("unit")?,
                text("better")? == "lower",
                m.get("bound").and_then(Json::as_f64)?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", spec.display()))
}

fn spread(values: &[f64]) -> Option<(f64, f64, f64)> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q1, q3, (q3 - q1) / m.abs()))
}

/// The verdict on one metric of one workload. `worse` is the change of
/// the median in the bad direction, as a share of A's median.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let better_than = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_beats_all_a = b.iter().all(|&x| a.iter().all(|&y| better_than(x, y)));
    let wide = [a, b]
        .iter()
        .filter_map(|side| spread(side))
        .any(|(_, _, share)| share > bound);
    let word = if wide && !b_beats_all_a {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound || (wide && b_beats_all_a) {
        "improved"
    } else {
        "same"
    };
    (word, worse)
}

fn quartile_text(values: &[f64]) -> String {
    spread(values).map_or_else(|| "-".to_owned(), |(q1, q3, _)| format!("{q1:.4}..{q3:.4}"))
}

/// Compares the result files under `a` (the parent) and `b` (the change).
///
/// # Errors
///
/// A directory or `BENCHMARK.json` cannot be read or parsed.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<Report, String> {
    let bounds = bounds(spec)?;
    let (runs_a, runs_b) = (load(a, ".e2e.json")?, load(b, ".e2e.json")?);
    if runs_a.is_empty() || runs_b.is_empty() {
        return Err("no *.e2e.json result files on one side".into());
    }
    let values = |runs: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|(key, _)| key.0 == workload)
            .filter_map(|(_, metrics)| metrics.get(metric).copied())
            .collect()
    };
    let mut workloads: Vec<&str> = runs_a.iter().map(|(key, _)| key.0.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut text = format!(
        "{:<12} {:<26} {:>5} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "worse",
        "bound"
    );
    let mut ok = true;
    for workload in workloads {
        for (metric, unit, lower, bound) in &bounds {
            let (va, vb) = (
                values(&runs_a, workload, metric),
                values(&runs_b, workload, metric),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (word, worse) = verdict(&va, &vb, *lower, *bound);
            ok &= word != "regressed";
            text.push_str(&format!(
                "{workload:<12} {metric:<26} {unit:>5} {:>12.4} {:>22} {:>12.4} {:>22} {:>+7.1}% {:>5.0}%  {word} (n={}/{})\n",
                median(&va),
                quartile_text(&va),
                median(&vb),
                quartile_text(&vb),
                worse * 100.0,
                bound * 100.0,
                va.len(),
                vb.len(),
            ));
        }
    }

    // Exact counts, wherever both sides traced the same workload and seed.
    let by_key = |runs: Vec<Run>| -> BTreeMap<_, _> { runs.into_iter().collect() };
    let (layers_a, layers_b) = (
        by_key(load(a, ".layers.json")?),
        by_key(load(b, ".layers.json")?),
    );
    let (mut compared, mut differing) = (0, 0);
    for (key, metrics_a) in &layers_a {
        let Some(metrics_b) = layers_b.get(key) else {
            continue;
        };
        // Counts of a query depend on the replica that served it, and
        // routing follows a cost model that is timed on the host.
        let routed_alike = metrics_a
            .iter()
            .filter(|(name, _)| name.starts_with("core.replica_share."))
            .all(|(name, share)| {
                metrics_b
                    .get(name)
                    .is_some_and(|b| b.to_bits() == share.to_bits())
            });
        if !routed_alike {
            text.push_str(&format!(
                "exact counts not comparable: {} seed {} was routed differently on the two sides\n",
                key.0, key.1
            ));
            continue;
        }
        for (name, value_a) in metrics_a.iter().filter(|(name, _)| is_exact_count(name)) {
            let Some(value_b) = metrics_b.get(name) else {
                continue;
            };
            compared += 1;
            if value_a.to_bits() != value_b.to_bits() {
                differing += 1;
                text.push_str(&format!(
                    "exact count differs: {} seed {} {name}: {value_a} vs {value_b}\n",
                    key.0, key.1
                ));
            }
        }
    }
    text.push_str(&format!(
        "exact counts: {compared} compared on equal seeds, {differing} differ\n"
    ));
    ok &= differing == 0;
    Ok(Report { text, ok })
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &[10.2, 10.3, 10.1, 10.2], true, 0.1).0, "same");
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], true, 0.1).0,
            "regressed"
        );
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9, 8.0], true, 0.1).0, "improved");
        // Higher is better: a drop is the regression.
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], false, 0.1).0,
            "regressed"
        );
        // A side whose own quartiles are wider apart than the bound.
        let noisy = [8.0, 12.0, 9.0, 11.5];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.1, 9.9, 10.0], true, 0.1).0,
            "unresolved"
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[5.0, 5.1, 4.9, 5.0], true, 0.1).0,
            "improved"
        );
        // Single runs: judged by the bound alone.
        assert_eq!(verdict(&[10.0], &[10.5], true, 0.1).0, "same");
    }
}
