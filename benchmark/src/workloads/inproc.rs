//! `scan_heavy` and `selective`: `BlotStore::query` called in-process by
//! one closed-loop caller. The two differ only in their query lists.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use blot_json::Json;

use crate::fixture::{self, latin_cube, whole_passes, Ctx, Fixture, Space};
use crate::oracle::{Fingerprint, Oracle};
use crate::probes;
use crate::replay::{self, replay, Counts};
use crate::spans::Tracer;
use crate::sut::{Answer, Cuboid, Point, Scratch, R3};
use crate::util::{mean, percentile, ratio, sorted, Rng};
use crate::workload::{Checks, Layers, Measured, Workload};
use crate::workloads::describe_store;

/// Queries also run on every replica, for routing regret.
const REGRET_QUERIES: usize = 32;

pub trait Shape {
    const QUERIES: usize;
    fn queries(space: &Space, rng: &mut Rng) -> Vec<Cuboid>;
    fn constants() -> Json;
}

/// Large boxes of four fixed aspects, all spanning the same share of the
/// data (x-share × y-share × time-share = 0.08), placed uniformly where
/// they fit (Latin hypercube). Equal volumes keep the latency
/// distribution in one mode, so that its percentiles do not jump between
/// modes from list to list.
#[derive(Debug)]
pub struct ScanHeavy;

/// Shares of records spanned on x, y and time.
const SCAN_ASPECTS: [[f64; 3]; 4] = [
    [0.5, 0.8, 0.2],
    [0.8, 0.5, 0.2],
    [0.64, 0.64, 0.195],
    [0.64, 0.5, 0.25],
];

impl Shape for ScanHeavy {
    const QUERIES: usize = 128;

    fn queries(space: &Space, rng: &mut Rng) -> Vec<Cuboid> {
        latin_cube(Self::QUERIES, rng)
            .into_iter()
            .enumerate()
            .map(|(i, at)| space.share_box(SCAN_ASPECTS[i % SCAN_ASPECTS.len()], at))
            .collect()
    }

    fn constants() -> Json {
        Json::obj([
            ("queries", Json::Num(Self::QUERIES as f64)),
            ("callers", Json::Num(1.0)),
            ("loop", Json::Str("closed".into())),
            (
                "shares_of_records_on_x_y_time",
                Json::Arr(
                    SCAN_ASPECTS
                        .iter()
                        .map(|a| Json::Arr(a.map(Json::Num).to_vec()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Queries that involve many units and match few records. Three in four
/// are *border strips*: from one edge of the map (west, east, south, north
/// in turn) to where the outermost 0.01 % of records begin, the full other
/// axis, half the time span; ~20 units involved, three quarters of them
/// pruned by their zone maps, ~40 records matched. One in four is an
/// *ahead-of-feed slab*: the whole map, a 1–10 min window just after the
/// newest fix; the universe has 2× time headroom, so the index involves
/// every cell's last time slice and only the zone maps know it is empty.
///
/// Strips are the bulk so that the median and the p90 both fall inside
/// one broad family. With families of equal share the percentiles sat on
/// the steps between families and moved 20 % between two runs of a seed.
/// Columns over half the time span are left out for a second reason: the
/// model prices one within a few per cent on the space-fine and on the
/// balanced replica, and the two answer it 3× apart.
#[derive(Debug)]
pub struct Selective;

impl Shape for Selective {
    const QUERIES: usize = 256;

    fn queries(space: &Space, rng: &mut Rng) -> Vec<Cuboid> {
        let (lo, hi) = (space.universe.min(), space.universe.max());
        let seconds = space.data_seconds();
        let newest = space.quantile(2, 1.0);
        (0..Self::QUERIES)
            .map(|i| {
                if i % 4 == 0 {
                    let from = (newest + 1.0).min(hi.t);
                    let to = (from + rng.range(60.0, 600.0)).min(hi.t);
                    return Cuboid::new(Point::new(lo.x, lo.y, from), Point::new(hi.x, hi.y, to));
                }
                let (axis, low_side) = ((i / 4) % 4 / 2, (i / 4) % 2 == 0);
                let (mut min, mut max) = (lo, hi);
                if low_side {
                    max = max.with_axis(axis, space.quantile(axis, 0.0001));
                } else {
                    min = min.with_axis(axis, space.quantile(axis, 0.9999));
                }
                let from = space.quantile(2, rng.range(0.0, 0.5));
                Cuboid::new(
                    min.with_axis(2, from),
                    max.with_axis(2, from + seconds / 2.0),
                )
            })
            .collect()
    }

    fn constants() -> Json {
        Json::obj([
            ("queries", Json::Num(Self::QUERIES as f64)),
            ("callers", Json::Num(1.0)),
            ("loop", Json::Str("closed".into())),
            (
                "families",
                Json::Str("border strip 3/4, ahead-of-feed slab 1/4".into()),
            ),
        ])
    }
}

#[derive(Debug)]
pub struct InProcess<S> {
    fx: Fixture,
    space: Space,
    oracle: Oracle,
    queries: Vec<Cuboid>,
    expected: Vec<Fingerprint>,
    shape: PhantomData<S>,
}

impl<S: Shape> InProcess<S> {
    /// One pass over the list, timing `query` alone; returns the records
    /// delivered.
    fn pass(&self, m: &mut Measured) -> u64 {
        let mut records = 0;
        for q in &self.queries {
            let started = Instant::now();
            let answer = self.fx.store.query(q);
            m.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if let Some(answer) = m.checks.record("query", answer) {
                m.sim_ms.push(answer.sim_ms);
                records += answer.records.len() as u64;
            }
        }
        records
    }

    /// `passes` whole passes, closed loop.
    fn passes(&self, window: Duration) -> Measured {
        let mut m = Measured::default();
        let mut records = 0;
        let (passes, elapsed) = whole_passes(window, || records += self.pass(&mut m));
        m.passes = passes;
        m.ops_per_s = ratio(m.op_ms.len() as f64, elapsed.as_secs_f64());
        m.records_per_s = ratio(records as f64, elapsed.as_secs_f64());
        m
    }

    /// The traced pass: `query` under a span, then its replay. Returns the
    /// latencies, the replica that served each query, and the counts.
    fn traced_pass(
        &self,
        checks: &mut Checks,
        tracer: &mut Tracer,
    ) -> Result<(Vec<f64>, Vec<u32>, Counts), String> {
        let mut scratch = Scratch::default();
        let mut op_ms = Vec::with_capacity(self.queries.len());
        let mut chosen = Vec::with_capacity(self.queries.len());
        let mut counts = Counts::default();
        for q in &self.queries {
            tracer.next_op();
            let started = Instant::now();
            let answer: Answer = tracer.leaf("bench.query", || self.fx.store.query(q))?;
            op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            checks.ok();
            let (replica, replayed, c) = tracer.span("bench.replay", |t| {
                replay(&self.fx.store, None, q, &mut scratch, t)
            })?;
            checks.agree(
                "replay",
                replica == answer.replica
                    && c.involved == answer.units
                    && c.pruned == answer.units_skipped
                    && Fingerprint::of(&replayed) == Fingerprint::of(&answer.records),
            );
            chosen.push(answer.replica);
            counts.add(&c);
        }
        Ok((op_ms, chosen, counts))
    }

    /// Runs a subset of the list on every replica: what routing gave up.
    fn regret(
        &self,
        chosen: &[u32],
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let n = self.queries.len();
        let mut scratch = Scratch::default();
        let (mut sim, mut wall) = (Vec::new(), Vec::new());
        for k in 0..REGRET_QUERIES.min(n) {
            let i = k * n / REGRET_QUERIES.min(n);
            let (q, picked) = (&self.queries[i], chosen[i] as usize);
            let (mut sims, mut walls) = (Vec::new(), Vec::new());
            tracer.next_op();
            for id in 0..R3.len() as u32 {
                let t = Instant::now();
                let answer = self.fx.store.query_on(id, q)?;
                walls.push(t.elapsed().as_secs_f64());
                sims.push(answer.sim_ms);
                checks.agree(
                    "query_on",
                    Fingerprint::of(&answer.records) == self.expected[i],
                );
                tracer.span("bench.regret_replay", |t| {
                    replay(&self.fx.store, Some(id), q, &mut scratch, t)
                })?;
            }
            let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            sim.push(ratio(sims[picked], best(&sims)));
            wall.push(ratio(walls[picked], best(&walls)));
        }
        layers.insert("core.regret_sim_mean".into(), mean(&sim));
        layers.insert(
            "core.regret_sim_p95".into(),
            percentile(&sorted(&sim), 0.95),
        );
        layers.insert("core.regret_wall_mean".into(), mean(&wall));
        Ok(())
    }
}

impl<S: Shape> Workload for InProcess<S> {
    type Built = Fixture;

    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Fixture, String> {
        Fixture::set_up(ctx, tracer)
    }

    fn discard(built: Fixture) -> Result<(), String> {
        fixture::remove_dir(built.store.dir());
        Ok(())
    }

    fn prepare(ctx: &Ctx, fx: Fixture) -> Self {
        let space = Space::of(&fx.fleet.data, fx.fleet.universe);
        let queries = S::queries(&space, &mut ctx.stream(1));
        let oracle = Oracle::new(&fx.fleet.data);
        Self {
            fx,
            space,
            oracle,
            queries,
            expected: Vec::new(),
            shape: PhantomData,
        }
    }

    fn verify(&mut self) -> Checks {
        let mut checks = Checks::default();
        self.expected = self.queries.iter().map(|q| self.oracle.expect(q)).collect();
        for (q, expected) in self.queries.iter().zip(&self.expected) {
            match self.fx.store.query(q) {
                Ok(answer) => checks.agree("query", Fingerprint::of(&answer.records) == *expected),
                Err(e) => checks.fail(format!("query: {e}")),
            }
        }
        checks
    }

    fn measure(&mut self, ctx: &Ctx) -> Measured {
        self.passes(ctx.window)
    }

    fn trace(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String> {
        let mut layers = Layers::new();
        let mut base = self.passes(Duration::ZERO);
        let (traced_ms, chosen, counts) = self.traced_pass(&mut base.checks, tracer)?;
        layers.insert(
            "core.query_gap_us".into(),
            mean(&tracer.micros("bench.query")) - mean(&tracer.micros("bench.replay")),
        );
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(mean(&traced_ms), base.mean_ms()),
        );
        self.regret(&chosen, &mut base.checks, tracer, &mut layers)?;
        replay::layers(tracer, &counts, &mut layers);
        let fleet = &self.fx.fleet;
        probes::store_layers(ctx, &fleet.data, fleet.universe, tracer, &mut layers)?;
        probes::live_store_layers(
            &self.fx.store,
            &fleet.data,
            &self.space,
            ctx,
            tracer,
            &mut layers,
        );
        Ok((base, layers))
    }

    fn stored_per_raw(&self) -> f64 {
        fixture::stored_per_raw(self.fx.store.total_bytes(), &self.fx.fleet.data)
    }

    fn describe(&self) -> Json {
        Json::obj([
            (
                "store",
                describe_store(&self.fx.store, &self.fx.model, self.fx.fleet.data.len()),
            ),
            ("workload", S::constants()),
        ])
    }

    fn tear_down(self) -> Result<(), String> {
        Self::discard(self.fx)
    }
}
