//! What a workload is to the runner: something that can be set up (the
//! timed part a user pays for), prepared (the harness's own inputs),
//! verified against the oracle, measured without tracing, and traced.

use std::collections::BTreeMap;

use blot_json::Json;

use crate::fixture::Ctx;
use crate::spans::Tracer;
use crate::util::{mean, percentile, sorted};

/// Operations attempted and failed. An operation fails when it errors, is
/// shed after the client's retries, times out, or disagrees with the
/// oracle.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the result file.
    pub errors: Vec<String>,
}

impl Checks {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what.into());
        }
    }

    /// Counts `outcome` and hands back its value, if any.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(value) => {
                self.ok();
                Some(value)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one oracle comparison.
    pub fn agree(&mut self, what: &str, agrees: bool) {
        if agrees {
            self.ok();
        } else {
            self.fail(format!("{what}: answer differs from the linear scan"));
        }
    }

    pub fn merge(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// What a timed window (or one pass) observed from the caller's side.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every headline operation, ms.
    pub op_ms: Vec<f64>,
    /// Headline operations completed per second of the loop that defines
    /// throughput on this workload.
    pub ops_per_s: f64,
    /// Simulated cost (`Cost(q, r)`) of every query answered, ms.
    pub sim_ms: Vec<f64>,
    /// Result records delivered (or records ingested) per second.
    pub records_per_s: f64,
    /// Whole passes over the workload's list.
    pub passes: u32,
    pub checks: Checks,
    /// Further caller-side numbers a workload has (a second kind of
    /// operation, …). A traced run reports note `x` as `bench.x` where
    /// the metric table has one.
    pub notes: BTreeMap<&'static str, f64>,
}

/// Percentiles and count of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub n: usize,
}

#[must_use]
pub fn summary(ms: &[f64]) -> Summary {
    let v = sorted(ms);
    Summary {
        p50: percentile(&v, 0.50),
        p90: percentile(&v, 0.90),
        p95: percentile(&v, 0.95),
        p99: percentile(&v, 0.99),
        n: v.len(),
    }
}

impl Measured {
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        mean(&self.op_ms)
    }
}

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

pub trait Workload: Sized {
    /// The program state a set-up leaves behind.
    type Built;

    /// The set-up a user pays for: generate, calibrate, build, start
    /// servers. Timed as `setup_s`; its steps run under spans.
    ///
    /// # Errors
    ///
    /// The program failed to build or start.
    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Self::Built, String>;

    /// Stops and removes what `set_up` made.
    ///
    /// # Errors
    ///
    /// A server thread did not join.
    fn discard(built: Self::Built) -> Result<(), String>;

    /// The harness's own preparation (oracle, query lists); not set-up.
    fn prepare(ctx: &Ctx, built: Self::Built) -> Self;

    /// Checks every distinct query against the oracle, outside any timed
    /// section; also lets caches fill before timing.
    fn verify(&mut self) -> Checks;

    /// Whole passes until the window has elapsed, untraced.
    fn measure(&mut self, ctx: &Ctx) -> Measured;

    /// One untraced pass, one traced pass, and the layer probes.
    ///
    /// # Errors
    ///
    /// A layer call failed.
    fn trace(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String>;

    /// Bytes stored per `ROW-PLAIN` byte of the same records, now.
    fn stored_per_raw(&self) -> f64;

    /// Dataset, replica set, fitted model and workload constants.
    fn describe(&self) -> Json;

    /// # Errors
    ///
    /// A server thread did not join.
    fn tear_down(self) -> Result<(), String>;
}
