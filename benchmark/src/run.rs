//! One run of one workload: set up, verify, measure or trace, report.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use blot_json::Json;

use crate::fixture::{remove_dir, Ctx, FULL, SMOKE};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};
use crate::probes;
use crate::spans::Tracer;
use crate::sut;
use crate::util::{mean, median};
use crate::workload::{summary, Workload};
use crate::workloads::{advise, ingest_mix, inproc, routed, serve_small};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Caller threads (or connections) the loaded workloads use at most.
pub const CALLERS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where result files, the span dump and (briefly) the stores go.
    pub out: PathBuf,
}

/// What one run found.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The whole result file.
    pub doc: Json,
}

impl RunResult {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The single JSON line the driver reads.
    #[must_use]
    pub fn last_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Every metric by name with its unit, for a person.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<44} {value:>16.4} {unit}\n"));
        }
        out
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `YYYY-MM-DD` (UTC) of a Unix time.
fn civil_date(unix: u64) -> String {
    let z = (unix / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn provenance(args: &RunArgs, ctx: &Ctx, callers: usize) -> Json {
    let unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        (
            "commit",
            Json::Str(std::env::var("BLOT_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("date", Json::Str(civil_date(unix))),
        ("unix_time", Json::Num(unix as f64)),
        ("seed", Json::Str(args.seed.to_string())),
        ("available_parallelism", Json::Num(nproc as f64)),
        ("caller_threads", Json::Num(callers as f64)),
        (
            "scan_executor_threads",
            Json::Num(sut::Pool::default_width().threads() as f64),
        ),
        ("rustc", Json::Str(env!("BLOT_BENCH_RUSTC").into())),
        ("dataset", Json::Str(ctx.scale.dataset.into())),
        (
            "replica_set",
            Json::Arr(sut::R3.iter().map(|r| Json::Str(r.label())).collect()),
        ),
        ("server_config", Json::Str(sut::server_config_label())),
        ("window_s", Json::Num(ctx.window.as_secs_f64())),
        ("traced", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        remove_dir(&self.0);
    }
}

/// Runs `args.workload`.
///
/// # Errors
///
/// Unknown workload, the program failed to set up, or a result file
/// could not be written. Failed *operations* are not errors: they are
/// counted in the result.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "scan_heavy" => run_workload::<inproc::InProcess<inproc::ScanHeavy>>(args),
        "selective" => run_workload::<inproc::InProcess<inproc::Selective>>(args),
        "serve_small" => run_workload::<serve_small::ServeSmall>(args),
        "routed" => run_workload::<routed::Routed>(args),
        "ingest_mix" => run_workload::<ingest_mix::IngestMix>(args),
        "advise" => run_workload::<advise::Advise>(args),
        other => Err(format!(
            "unknown workload `{other}`; one of {}",
            WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

/// A metric value is a number: no NaN or infinity, and no `-0`.
fn finite(v: f64) -> f64 {
    if v.is_finite() && v != 0.0 {
        v
    } else {
        0.0
    }
}

fn run_workload<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let callers = CALLERS.min(nproc);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!("tmp-{}", std::process::id())));
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        scale: if args.smoke { SMOKE } else { FULL },
        scratch: scratch.0.clone(),
        callers,
    };
    let mut tracer = Tracer::new();

    // Set-up, several times when it is what is being measured.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(previous) = built.take() {
            W::discard(previous)?;
        }
        let started = Instant::now();
        built = Some(tracer.span("bench.set_up", |t| W::set_up(&ctx, t))?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = W::prepare(&ctx, built.ok_or("no set-up ran")?);
    let mut checks = workload.verify();

    let (measured, mut layers) = if args.trace {
        let (measured, layers) = workload.trace(&ctx, &mut tracer)?;
        (measured, Some(layers))
    } else {
        (workload.measure(&ctx), None)
    };
    let ops = summary(&measured.op_ms);
    if let Some(layers) = &mut layers {
        probes::set_up_layers(&tracer, layers);
        // What the caller saw in the traced run's untraced pass.
        layers.insert("bench.ops_sampled".into(), ops.n as f64);
        layers.insert("bench.op_p95_ms".into(), ops.p95);
        layers.insert("bench.op_p99_ms".into(), ops.p99);
        layers.insert("bench.records_per_s".into(), measured.records_per_s);
        for (note, value) in &measured.notes {
            let metric = format!("bench.{note}");
            if unit_of(&metric).is_some() {
                layers.insert(metric, *value);
            }
        }
    }
    let stored = workload.stored_per_raw();
    let described = workload.describe();
    workload.tear_down()?;
    checks.merge(measured.checks.clone());

    let metrics: Vec<(String, f64, &'static str)> = match &layers {
        None => {
            let value = |name: &str| match name {
                "setup_s" => median(&setup_s),
                "op_p50_ms" => ops.p50,
                "op_p90_ms" => ops.p90,
                "ops_per_s" => measured.ops_per_s,
                "sim_cost_ms_mean" => mean(&measured.sim_ms),
                "stored_bytes_per_raw_byte" => stored,
                "rss_peak_mb" => rss_peak_mb(),
                _ => 0.0,
            };
            END_TO_END
                .iter()
                .map(|m| (m.0.to_owned(), finite(value(m.0)), m.1))
                .collect()
        }
        Some(layers) => {
            if let Some(stray) = layers.keys().find(|k| unit_of(k).is_none()) {
                return Err(format!(
                    "per-layer metric `{stray}` is not in the metric table"
                ));
            }
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.0.to_owned(),
                        finite(layers.get(m.0).copied().unwrap_or(0.0)),
                        m.1,
                    )
                })
                .collect()
        }
    };

    let doc = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("provenance", provenance(args, &ctx, callers)),
        ("setup", described),
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        (
            "errors",
            Json::Arr(checks.errors.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "samples",
            Json::obj([
                ("ops", Json::Num(ops.n as f64)),
                ("passes", Json::Num(f64::from(measured.passes))),
                ("op_p50_ms", Json::Num(ops.p50)),
                ("op_p90_ms", Json::Num(ops.p90)),
                ("op_p95_ms", Json::Num(ops.p95)),
                ("op_p99_ms", Json::Num(ops.p99)),
                ("ops_per_s", Json::Num(measured.ops_per_s)),
                ("records_per_s", Json::Num(measured.records_per_s)),
                (
                    "setup_s",
                    Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
                ),
                (
                    "notes",
                    Json::Obj(
                        measured
                            .notes
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "layer_self_time_us",
            Json::Obj(
                tracer
                    .self_micros_by_layer()
                    .into_iter()
                    .map(|(layer, us)| (layer.to_owned(), Json::Num(us)))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let kind = if args.trace { "layers" } else { "e2e" };
    write(
        &args.out.join(format!("{}.{kind}.json", args.workload)),
        &doc.pretty(),
    )?;
    if args.trace {
        let path = args.out.join(format!("{}.trace.json", args.workload));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    drop(scratch);
    Ok(RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        doc,
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
