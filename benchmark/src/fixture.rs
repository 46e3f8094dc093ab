//! The set-up every store workload shares: dataset, cost model, the `R3`
//! replica set on a `FileBackend` directory, and the seeded query shapes
//! that are placed by the data's own quantiles.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::spans::Tracer;
use crate::sut::{self, Cuboid, Fleet, Model, Point, RecordBatch, ReplicaSpec, Store, R3};
use crate::util::Rng;

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub dataset: &'static str,
    pub taxis: u32,
    pub fixes_per_taxi: u32,
    /// `advise` prices the paper's 25 partitioning specs (175 candidates,
    /// ~0.8 s a round) or the 4 of `SchemeSpec::small_grid()`.
    pub paper_grid: bool,
}

/// 800 taxis × 1 250 fixes = 1 M records.
pub const FULL: Scale = Scale {
    dataset: "fleet1m",
    taxis: 800,
    fixes_per_taxi: 1_250,
    paper_grid: true,
};

/// 80 taxis × 250 fixes = 20 k records, for `--smoke` and the self-test.
pub const SMOKE: Scale = Scale {
    dataset: "fleet20k",
    taxis: 80,
    fixes_per_taxi: 250,
    paper_grid: false,
};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub scale: Scale,
    /// Directory for stores; every set-up takes a fresh child of it.
    pub scratch: PathBuf,
    /// Caller threads or connections a loaded workload may use.
    pub callers: usize,
}

impl Ctx {
    /// A directory no earlier set-up of this process used.
    #[must_use]
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        self.scratch
            .join(format!("{what}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }

    /// The seed of one of the run's independent random streams.
    #[must_use]
    pub fn stream(&self, stream: u64) -> Rng {
        Rng::new(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Removes a store directory; a leftover is reported, not fatal.
pub fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: cannot remove {}: {e}", dir.display());
        }
    }
}

/// The span of `build_replica`, by position in the replica set.
pub const BUILD_SPANS: [&str; 3] = [
    "core.build_replica.r0",
    "core.build_replica.r1",
    "core.build_replica.r2",
];

/// Builds `replicas` over `data` in a fresh directory, one span each.
///
/// # Errors
///
/// A unit could not be written.
pub fn build_store(
    ctx: &Ctx,
    data: &RecordBatch,
    universe: Cuboid,
    model: &Model,
    replicas: &[ReplicaSpec],
    tracer: &mut Tracer,
) -> Result<Store, String> {
    let mut store = Store::create(&ctx.fresh_dir("store"), universe, model)?;
    for (spec, name) in replicas.iter().zip(BUILD_SPANS) {
        tracer.leaf(name, || store.build_replica(data, spec))?;
    }
    Ok(store)
}

/// Dataset + model + store: what scan_heavy and selective need, and what
/// the serving workloads start from.
#[derive(Debug)]
pub struct Fixture {
    pub fleet: Fleet,
    pub model: Model,
    pub store: Store,
}

impl Fixture {
    /// generate → calibrate → build, each under its span.
    ///
    /// # Errors
    ///
    /// A unit could not be written.
    pub fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Self, String> {
        let (fleet, model) = generate_and_calibrate(ctx, ctx.scale.fixes_per_taxi, tracer);
        let store = build_store(ctx, &fleet.data, fleet.universe, &model, &R3, tracer)?;
        Ok(Self {
            fleet,
            model,
            store,
        })
    }
}

/// The seed of the dataset (`FleetConfig::small().seed`). The dataset is
/// part of the benchmark's definition, like its size: `--seed` draws the
/// traffic, not the city. Reseeding the fleet moves its hotspots, and with
/// them which replica serves which query; on ten fleet seeds the latency
/// medians of one commit differed by 15–60 %, more than any bound allows.
pub const FLEET_SEED: u64 = 0x5EED_B107;

/// The first two set-up steps, shared by every store workload.
pub fn generate_and_calibrate(
    ctx: &Ctx,
    fixes_per_taxi: u32,
    tracer: &mut Tracer,
) -> (Fleet, Model) {
    let fleet = tracer.leaf("tracegen.generate", || {
        sut::generate_fleet(ctx.scale.taxis, fixes_per_taxi, FLEET_SEED)
    });
    let model = tracer.leaf("core.calibrate", || {
        Model::calibrate(&fleet.data, FLEET_SEED)
    });
    (fleet, model)
}

/// `total_bytes` over the `ROW-PLAIN` size of the same records.
#[must_use]
pub fn stored_per_raw(total_bytes: u64, data: &RecordBatch) -> f64 {
    total_bytes as f64 / sut::encode(sut::RAW, data).len() as f64
}

// ---------------------------------------------------------------------
// Query shapes.

/// Where the data is: per-axis quantiles of a strided sample, so that a
/// query can be sized and placed by the *share of records* it spans. The
/// hotspots move with the seed; shares of records do not, which keeps a
/// workload the same workload on every seed.
#[derive(Debug)]
pub struct Space {
    pub universe: Cuboid,
    axes: [Vec<f64>; 3],
}

impl Space {
    #[must_use]
    pub fn of(data: &RecordBatch, universe: Cuboid) -> Self {
        let stride = (data.len() / 50_000).max(1);
        let mut axes = [Vec::new(), Vec::new(), Vec::new()];
        for i in (0..data.len()).step_by(stride) {
            let p = data.point(i);
            axes[0].push(p.x);
            axes[1].push(p.y);
            axes[2].push(p.t);
        }
        // The extremes are exact, not sampled: shapes are placed against
        // the newest fix and the outermost records.
        if let Some(bounds) = data.bounding_box() {
            for (axis, sample) in axes.iter_mut().enumerate() {
                sample.push(bounds.min().axis(axis));
                sample.push(bounds.max().axis(axis));
            }
        }
        for axis in &mut axes {
            axis.sort_by(f64::total_cmp);
        }
        Self { universe, axes }
    }

    /// The coordinate below which a share `q` of the records lies.
    #[must_use]
    pub fn quantile(&self, axis: usize, q: f64) -> f64 {
        let sample = &self.axes[axis];
        if sample.is_empty() {
            return self.universe.min().axis(axis);
        }
        let at = (q.clamp(0.0, 1.0) * (sample.len() - 1) as f64).round() as usize;
        sample[at]
    }

    /// Length of the time span that holds data.
    #[must_use]
    pub fn data_seconds(&self) -> f64 {
        self.quantile(2, 1.0) - self.quantile(2, 0.0)
    }

    /// A box spanning the shares `widths` of the records on x, y and time,
    /// placed at `at` ∈ [0, 1)³ of the positions where it fits.
    #[must_use]
    pub fn share_box(&self, widths: [f64; 3], at: [f64; 3]) -> Cuboid {
        let [x, y, t] = [0, 1, 2].map(|axis| {
            let from = at[axis] * (1.0 - widths[axis]);
            (
                self.quantile(axis, from),
                self.quantile(axis, from + widths[axis]),
            )
        });
        Cuboid::new(Point::new(x.0, y.0, t.0), Point::new(x.1, y.1, t.1))
    }

    /// A box of fixed extent centred on `at`, cut to the universe.
    #[must_use]
    pub fn box_at(&self, at: Point, degrees: f64, seconds: f64) -> Cuboid {
        let (lo, hi) = (self.universe.min(), self.universe.max());
        let clamp = |v: f64, axis: usize| v.clamp(lo.axis(axis), hi.axis(axis));
        Cuboid::new(
            Point::new(
                clamp(at.x - degrees / 2.0, 0),
                clamp(at.y - degrees / 2.0, 1),
                clamp(at.t - seconds / 2.0, 2),
            ),
            Point::new(
                clamp(at.x + degrees / 2.0, 0),
                clamp(at.y + degrees / 2.0, 1),
                clamp(at.t + seconds / 2.0, 2),
            ),
        )
    }
}

/// The position of a uniformly drawn record.
pub fn some_record(data: &RecordBatch, rng: &mut Rng) -> Point {
    data.point(rng.below(data.len()))
}

/// The positions of `n` records at a fixed stride from a random start
/// (systematic sampling). Every seed's list then covers the dataset
/// evenly — dense and sparse areas in the data's own proportions — where
/// `n` independent draws would make one list denser than the next.
pub fn spread_records(data: &RecordBatch, n: usize, rng: &mut Rng) -> Vec<Point> {
    let stride = data.len() as f64 / n as f64;
    let start = rng.unit() * stride;
    let mut points: Vec<Point> = (0..n)
        .map(|k| data.point(((start + k as f64 * stride) as usize).min(data.len() - 1)))
        .collect();
    shuffle(&mut points, rng);
    points
}

/// `n` points of [0, 1)³ by Latin-hypercube sampling: on each axis every
/// one of `n` equal strata is used exactly once. Seeded like independent
/// draws, but no list can crowd one end of an axis.
pub fn latin_cube(n: usize, rng: &mut Rng) -> Vec<[f64; 3]> {
    let mut points = vec![[0.0; 3]; n];
    for axis in 0..3 {
        let mut strata: Vec<usize> = (0..n).collect();
        shuffle(&mut strata, rng);
        for (point, stratum) in points.iter_mut().zip(strata) {
            point[axis] = (stratum as f64 + rng.unit()) / n as f64;
        }
    }
    points
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

// ---------------------------------------------------------------------
// Timing loops.

/// Runs `pass` (one whole pass over a workload's fixed list) until at
/// least `window` has elapsed, so that every run times the same multiset
/// of operations. Returns the passes run and the time they took.
pub fn whole_passes(window: Duration, mut pass: impl FnMut()) -> (u32, Duration) {
    let started = Instant::now();
    let mut passes = 0;
    loop {
        pass();
        passes += 1;
        let elapsed = started.elapsed();
        if elapsed >= window {
            return (passes, elapsed);
        }
    }
}
