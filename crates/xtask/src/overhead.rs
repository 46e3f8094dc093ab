//! The metrics-overhead guard: `cargo xtask metrics-overhead`.
//!
//! Builds and runs the `metrics_overhead` probe from `blot-bench`
//! twice — once with the observability layer compiled in (the
//! default) and once compiled down to no-ops (`--features obs-off`) —
//! and compares the minimum per-round wall time of the two runs. The
//! minimum is the right statistic here: it is the run least disturbed
//! by scheduler noise, so the ratio isolates what the instrumentation
//! itself costs on the query hot path.
//!
//! The probe drives `query_batch_traced` (the one traced entry point,
//! which every served query goes through), so the instrumented run pays
//! the full tracing path (spans + flight-recorder writes). Besides the
//! ratio budget, the guard checks the probe's `spans` count: positive
//! with tracing compiled in, exactly zero in the `off` build.

use std::path::Path;
use std::process::Command;

/// Budget for the instrumented/compiled-out minimum-round-time ratio.
pub const MAX_RATIO: f64 = 1.05;

/// Result of one guard run: both probe timings and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Minimum round time with metrics compiled in, in milliseconds.
    pub enabled_min_ms: f64,
    /// Minimum round time with metrics compiled out, in milliseconds.
    pub disabled_min_ms: f64,
    /// `enabled_min_ms / disabled_min_ms`.
    pub ratio: f64,
    /// Spans the instrumented probe recorded in its flight recorder.
    pub enabled_spans: u64,
}

impl Probe {
    /// True when instrumentation stays within the [`MAX_RATIO`] budget.
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.ratio <= MAX_RATIO
    }
}

/// Runs the overhead probe in both feature modes and returns the pair
/// of timings.
///
/// # Errors
///
/// Returns a message when either probe build fails to run, exits
/// non-zero, or prints output the guard cannot parse.
pub fn check(root: &Path) -> Result<Probe, String> {
    let (enabled_min_ms, enabled_spans) = run_probe(root, false)?;
    let (disabled_min_ms, disabled_spans) = run_probe(root, true)?;
    if disabled_min_ms <= 0.0 {
        return Err(format!(
            "compiled-out probe reported a non-positive round time ({disabled_min_ms} ms)"
        ));
    }
    if enabled_spans == 0 {
        return Err(
            "instrumented probe recorded no spans — tracing is not reaching the hot path".into(),
        );
    }
    if disabled_spans != 0 {
        return Err(format!(
            "obs-off probe recorded {disabled_spans} spans — the off feature is not zero-cost"
        ));
    }
    Ok(Probe {
        enabled_min_ms,
        disabled_min_ms,
        ratio: enabled_min_ms / disabled_min_ms,
        enabled_spans,
    })
}

fn run_probe(root: &Path, obs_off: bool) -> Result<(f64, u64), String> {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).args([
        "run",
        "--release",
        "-q",
        "-p",
        "blot-bench",
        "--bin",
        "metrics_overhead",
    ]);
    if obs_off {
        cmd.args(["--features", "obs-off"]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the overhead probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "overhead probe (obs_off={obs_off}) failed: {}{}",
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains("\"min_ms\""))
        .ok_or_else(|| format!("overhead probe printed no min_ms line:\n{stdout}"))?;
    let min_ms = field_f64(line, "min_ms")
        .ok_or_else(|| format!("cannot parse min_ms from probe output: {line}"))?;
    let spans = field_f64(line, "spans")
        .ok_or_else(|| format!("cannot parse spans from probe output: {line}"))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok((min_ms, spans.max(0.0) as u64))
}

/// Extracts a numeric field from one line of flat JSON. The probe's
/// output is machine-generated and non-nested, so a key scan suffices —
/// no JSON parser dependency in the audit tooling.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)?;
    let rest = json.get(at + pat.len()..)?;
    let end = rest.find([',', '}'])?;
    rest.get(..end)?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_handles_probe_output() {
        let line =
            r#"{"enabled":true,"rounds":12,"min_ms":98.078,"median_ms":100.66,"spans":3360}"#;
        assert_eq!(field_f64(line, "min_ms"), Some(98.078));
        assert_eq!(field_f64(line, "median_ms"), Some(100.66));
        assert_eq!(field_f64(line, "spans"), Some(3360.0));
        assert_eq!(field_f64(line, "max_ms"), None);
        assert_eq!(field_f64(line, "enabled"), None);
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
