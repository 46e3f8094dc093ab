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
//! The probe has two phases over the same queries, and the guard holds
//! each to the same budget by the same procedure: *in process* it
//! drives `query_batch_traced` (the one traced entry point, which every
//! served query goes through), so the instrumented run pays the full
//! tracing path (spans + flight-recorder writes); *served* it sends
//! them through a loopback `Server` and one `Client`, which adds the
//! serving layer's own spans and instruments (request, admission,
//! batch). Besides the ratio budget, the guard checks every run's
//! `spans` count: positive with tracing compiled in, exactly zero in
//! the `off` build.

use blot_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Budget for the instrumented/compiled-out round-time ratio.
pub const MAX_RATIO: f64 = 1.05;

/// Runs of each probe binary; the two alternate.
pub const PAIRS: usize = 5;

/// One phase's timings on both sides.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Median over the instrumented runs of the minimum round time, in
    /// milliseconds.
    pub enabled_min_ms: f64,
    /// The same with metrics compiled out.
    pub disabled_min_ms: f64,
}

impl Phase {
    /// `enabled_min_ms / disabled_min_ms`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.enabled_min_ms / self.disabled_min_ms
    }
}

/// Result of one guard run: both phases' timings and the span count.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// `query_batch_traced` called in process.
    pub in_process: Phase,
    /// The same queries through a loopback server.
    pub served: Phase,
    /// Spans one instrumented run recorded in its flight recorder.
    pub enabled_spans: u64,
}

impl Probe {
    /// True when instrumentation stays within the [`MAX_RATIO`] budget
    /// in both phases.
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.in_process.ratio() <= MAX_RATIO && self.served.ratio() <= MAX_RATIO
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
    // Minimum round times per run: [in-process, served].
    let mut enabled_ms = [Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS)];
    let mut disabled_ms = [Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS)];
    let mut enabled_spans = 0;
    for pair in 0..PAIRS {
        // Swap the order every pair so drift in host load lands on
        // both sides alike.
        for obs_off in [pair % 2 == 1, pair % 2 == 0] {
            let binary = if obs_off { &disabled } else { &enabled };
            let (min_ms, spans) = run_probe(binary)?;
            let side = match (obs_off, spans) {
                (true, 0) => &mut disabled_ms,
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
                    enabled_spans = n;
                    &mut enabled_ms
                }
            };
            for (runs, ms) in side.iter_mut().zip(min_ms) {
                runs.push(ms);
            }
        }
    }
    let [enabled_in_process, enabled_served] = &mut enabled_ms;
    let [disabled_in_process, disabled_served] = &mut disabled_ms;
    Ok(Probe {
        in_process: phase(enabled_in_process, disabled_in_process)?,
        served: phase(enabled_served, disabled_served)?,
        enabled_spans,
    })
}

/// The medians of one phase's runs on both sides.
fn phase(enabled_ms: &mut [f64], disabled_ms: &mut [f64]) -> Result<Phase, String> {
    let phase = Phase {
        enabled_min_ms: median(enabled_ms),
        disabled_min_ms: median(disabled_ms),
    };
    if phase.disabled_min_ms <= 0.0 {
        return Err(format!(
            "compiled-out probe reported a non-positive round time ({} ms)",
            phase.disabled_min_ms
        ));
    }
    Ok(phase)
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

/// One run of a built probe: its minimum round times (in process,
/// served) and span count.
fn run_probe(binary: &Path) -> Result<([f64; 2], u64), String> {
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
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    num("min_ms")
        .zip(num("served_min_ms"))
        .zip(doc.get("spans").and_then(Json::as_u64))
        .map(|((in_process, served), spans)| ([in_process, served], spans))
        .ok_or_else(|| {
            format!("cannot read min_ms, served_min_ms and spans from probe output: {doc}")
        })
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
    fn budget_compares_on_ratio_in_both_phases() {
        let fine = Phase {
            enabled_min_ms: 103.0,
            disabled_min_ms: 100.0,
        };
        let slow = Phase {
            enabled_min_ms: 110.0,
            disabled_min_ms: 100.0,
        };
        let probe = |in_process, served| Probe {
            in_process,
            served,
            enabled_spans: 960,
        };
        assert!(probe(fine, fine).within_budget());
        assert!(!probe(slow, fine).within_budget());
        assert!(!probe(fine, slow).within_budget());
    }
}
