//! The metrics-overhead guard: `cargo xtask metrics-overhead`.
//!
//! Builds the `metrics_overhead` probe from `blot-bench` twice, each
//! into its own target directory so neither build evicts the other —
//! once with the observability layer compiled in (the default) and
//! once compiled down to no-ops (`--features obs-off`) — then runs the
//! two binaries alternately, [`PAIRS`] times each, swapping which goes
//! first. Each run reports its minimum per-round wall time (the round
//! least disturbed by scheduler noise); the guard compares the *median*
//! of those minima per side, so one slow process start or a burst of
//! host load on one side cannot move the ratio the way it moved a
//! single on/off pair.
//!
//! The probe drives `query_batch_traced` (the one traced entry point,
//! which every served query goes through), so the instrumented run pays
//! the full tracing path (spans + flight-recorder writes). Besides the
//! ratio budget, the guard checks every run's `spans` count: positive
//! with tracing compiled in, exactly zero in the `off` build.

use blot_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Budget for the instrumented/compiled-out round-time ratio.
pub const MAX_RATIO: f64 = 1.05;

/// Runs of each probe binary; the two alternate.
pub const PAIRS: usize = 5;

/// Result of one guard run: both sides' timings and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median over the instrumented runs of the minimum round time, in
    /// milliseconds.
    pub enabled_min_ms: f64,
    /// The same with metrics compiled out.
    pub disabled_min_ms: f64,
    /// `enabled_min_ms / disabled_min_ms`.
    pub ratio: f64,
    /// Spans one instrumented run recorded in its flight recorder.
    pub enabled_spans: u64,
}

impl Probe {
    /// True when instrumentation stays within the [`MAX_RATIO`] budget.
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.ratio <= MAX_RATIO
    }
}

/// Builds both probe binaries once, alternates [`PAIRS`] runs of each
/// and returns the medians.
///
/// # Errors
///
/// Returns a message when a probe fails to build or run, prints output
/// the guard cannot parse, records no spans while instrumented, or
/// records any with tracing compiled out.
pub fn check(root: &Path) -> Result<Probe, String> {
    let enabled = build_probe(root, false)?;
    let disabled = build_probe(root, true)?;
    let mut enabled_ms = Vec::with_capacity(PAIRS);
    let mut disabled_ms = Vec::with_capacity(PAIRS);
    let mut enabled_spans = 0;
    for pair in 0..PAIRS {
        // Swap the order every pair so drift in host load lands on
        // both sides alike.
        for obs_off in [pair % 2 == 1, pair % 2 == 0] {
            let binary = if obs_off { &disabled } else { &enabled };
            let (min_ms, spans) = run_probe(binary)?;
            match (obs_off, spans) {
                (true, 0) => disabled_ms.push(min_ms),
                (true, n) => {
                    return Err(format!(
                        "obs-off probe recorded {n} spans — the off feature is not zero-cost"
                    ))
                }
                (false, 0) => {
                    return Err("instrumented probe recorded no spans — tracing is not \
                                reaching the hot path"
                        .into())
                }
                (false, n) => {
                    enabled_ms.push(min_ms);
                    enabled_spans = n;
                }
            }
        }
    }
    let (enabled_min_ms, disabled_min_ms) = (median(&mut enabled_ms), median(&mut disabled_ms));
    if disabled_min_ms <= 0.0 {
        return Err(format!(
            "compiled-out probe reported a non-positive round time ({disabled_min_ms} ms)"
        ));
    }
    Ok(Probe {
        enabled_min_ms,
        disabled_min_ms,
        ratio: enabled_min_ms / disabled_min_ms,
        enabled_spans,
    })
}

/// The middle value of `values` (the upper middle for an even count;
/// 0 for none).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// Builds the probe into `target/overhead-{on,off}` and returns the
/// binary's path.
fn build_probe(root: &Path, obs_off: bool) -> Result<PathBuf, String> {
    let target_dir = root.join("target").join(if obs_off {
        "overhead-off"
    } else {
        "overhead-on"
    });
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args(["build", "--release", "-q", "-p", "blot-bench"])
        .args(["--bin", "metrics_overhead", "--target-dir"])
        .arg(&target_dir);
    if obs_off {
        cmd.args(["--features", "obs-off"]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot build the overhead probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "overhead probe build (obs_off={obs_off}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(target_dir.join("release").join("metrics_overhead"))
}

/// One run of a built probe: its minimum round time and span count.
fn run_probe(binary: &Path) -> Result<(f64, u64), String> {
    let out = Command::new(binary)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} failed: {}{}",
            binary.display(),
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let doc = stdout
        .lines()
        .rev()
        .find_map(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("overhead probe printed no JSON line:\n{stdout}"))?;
    doc.get("min_ms")
        .and_then(Json::as_f64)
        .zip(doc.get("spans").and_then(Json::as_u64))
        .ok_or_else(|| format!("cannot read min_ms and spans from probe output: {doc}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_run() {
        assert_eq!(median(&mut [104.0, 98.0, 250.0, 99.0, 101.0]), 101.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn budget_compares_on_ratio() {
        let ok = Probe {
            enabled_min_ms: 103.0,
            disabled_min_ms: 100.0,
            ratio: 1.03,
            enabled_spans: 960,
        };
        assert!(ok.within_budget());
        let slow = Probe {
            enabled_min_ms: 110.0,
            disabled_min_ms: 100.0,
            ratio: 1.10,
            enabled_spans: 960,
        };
        assert!(!slow.within_budget());
    }
}
