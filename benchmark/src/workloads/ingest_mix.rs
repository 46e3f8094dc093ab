//! `ingest_mix`: writes beside reads, in-process, one thread owning the
//! store. The fleet is generated with extra fixes per taxi; the first
//! `fixes_per_taxi` are built in set-up, then *ticks* (one new fix per
//! taxi, in time order: a live feed) are ingested one by one, each
//! followed by 32 tiny queries, half over the newest 5 % of time and half
//! over old data. The headline operation is the ingest of one tick.

use std::time::Instant;

use blot_json::Json;

use crate::fixture::{self, build_store, generate_and_calibrate, some_record, Ctx, Space};
use crate::oracle::{Fingerprint, Oracle};
use crate::probes;
use crate::replay::{self, replay, Counts};
use crate::spans::Tracer;
use crate::sut::{self, Cuboid, Model, Point, RecordBatch, Scratch, Store, R3};
use crate::util::{mean, ratio, Rng};
use crate::workload::{summary, Checks, Layers, Measured, Workload};
use crate::workloads::describe_store;

/// Ticks generated; a run stops early if it ever uses them all.
const MAX_TICKS: u32 = 192;
/// Ticks per pass: the window is filled with whole passes.
const TICKS_PER_PASS: usize = 8;
const QUERIES_PER_TICK: usize = 32;
const DEGREES: f64 = 0.05;
/// "New" queries span this share of the data's time span, ending now.
const NEWEST: f64 = 0.05;
/// "Old" queries span this share, anywhere in the base data.
const OLD: f64 = 1.0 / 64.0;

#[derive(Debug)]
pub struct Built {
    base: RecordBatch,
    ticks: Vec<RecordBatch>,
    universe: Cuboid,
    model: Model,
    store: Store,
}

#[derive(Debug)]
pub struct IngestMix {
    built: Built,
    space: Space,
    oracle: Oracle,
    rng: Rng,
    /// Ticks ingested so far.
    done: usize,
    /// `ROW-PLAIN` size of everything stored so far.
    raw_bytes: usize,
}

/// What one pass of ticks observed.
#[derive(Debug, Default)]
struct Pass {
    ingest_ms: Vec<f64>,
    query_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    records: usize,
    units_rewritten: usize,
    bytes_rewritten: u64,
    raw_bytes: usize,
    counts: Counts,
    checks: Checks,
}

impl IngestMix {
    /// The tick's 32 queries: 16 around positions of the tick's own
    /// records over the newest slice of time, 16 over old data.
    fn queries(&mut self, tick: &RecordBatch) -> Vec<Cuboid> {
        let seconds = self.space.data_seconds();
        let now = tick.times.iter().copied().max().unwrap_or(0) as f64;
        (0..QUERIES_PER_TICK)
            .map(|i| {
                if i % 2 == 0 {
                    let at = some_record(tick, &mut self.rng);
                    let window = seconds * NEWEST;
                    self.space
                        .box_at(Point::new(at.x, at.y, now - window / 2.0), DEGREES, window)
                } else {
                    let at = some_record(&self.built.base, &mut self.rng);
                    self.space.box_at(at, DEGREES, seconds * OLD)
                }
            })
            .collect()
    }

    /// Ingests the next `TICKS_PER_PASS` ticks, each followed by its
    /// queries. Oracle checks run between the timed calls.
    fn pass(&mut self, mut tracer: Option<&mut Tracer>, into: &mut Pass) {
        let mut scratch = Scratch::default();
        for _ in 0..TICKS_PER_PASS {
            let Some(tick) = self.built.ticks.get(self.done).cloned() else {
                return;
            };
            self.done += 1;
            let touched: Vec<Vec<(usize, usize)>> = match tracer.as_deref_mut() {
                Some(t) => (0..R3.len() as u32)
                    .map(|id| {
                        t.counted(
                            "index.assign_batch",
                            || self.built.store.assign(id, &tick),
                            |_| tick.len(),
                        )
                        .unwrap_or_default()
                    })
                    .collect(),
                None => Vec::new(),
            };
            if let Some(t) = tracer.as_deref_mut() {
                t.next_op();
            }
            let started = Instant::now();
            let outcome = match tracer.as_deref_mut() {
                Some(t) => t.counted(
                    "core.ingest",
                    || self.built.store.ingest(&tick),
                    |_| tick.len(),
                ),
                None => self.built.store.ingest(&tick),
            };
            into.ingest_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let Some(units) = into.checks.record("ingest", outcome) else {
                continue;
            };
            into.units_rewritten += units;
            into.records += tick.len();
            let raw = sut::encode(sut::RAW, &tick).len();
            into.raw_bytes += raw;
            self.raw_bytes += raw;
            self.oracle.extend(&tick);
            for (id, parts) in touched.iter().enumerate() {
                for &(partition, _) in parts {
                    if let Ok((_, len)) = self.built.store.get_tail(id as u32, partition) {
                        into.bytes_rewritten += len;
                    }
                }
            }
            for q in self.queries(&tick) {
                let started = Instant::now();
                let answer = self.built.store.query(&q);
                into.query_ms.push(started.elapsed().as_secs_f64() * 1e3);
                match answer {
                    Ok(answer) => {
                        into.sim_ms.push(answer.sim_ms);
                        into.checks.agree(
                            "query after ingest",
                            self.oracle.agrees(&q, &answer.records),
                        );
                    }
                    Err(e) => into.checks.fail(format!("query after ingest: {e}")),
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.next_op();
                    match t.span("bench.replay", |t| {
                        replay(&self.built.store, None, &q, &mut scratch, t)
                    }) {
                        Ok((_, replayed, c)) => {
                            into.checks.agree(
                                "replay",
                                Fingerprint::of(&replayed) == self.oracle.expect(&q),
                            );
                            into.counts.add(&c);
                        }
                        Err(e) => into.checks.fail(format!("replay: {e}")),
                    }
                }
            }
        }
    }

    /// After the last tick: nothing damaged, and every replica alone
    /// agrees with the oracle on the last tick's shapes.
    fn final_checks(&mut self, checks: &mut Checks) {
        match self.built.store.scrub() {
            Ok(0) => checks.ok(),
            Ok(damaged) => checks.fail(format!("scrub found {damaged} damaged units")),
            Err(e) => checks.fail(format!("scrub: {e}")),
        }
        let Some(last) = self
            .done
            .checked_sub(1)
            .and_then(|i| self.built.ticks.get(i))
            .cloned()
        else {
            return;
        };
        for q in self.queries(&last) {
            let expected = self.oracle.expect(&q);
            for id in 0..R3.len() as u32 {
                match self.built.store.query_on(id, &q) {
                    Ok(answer) => checks.agree(
                        "query_on after ingest",
                        Fingerprint::of(&answer.records) == expected,
                    ),
                    Err(e) => checks.fail(format!("query_on after ingest: {e}")),
                }
            }
        }
    }

    fn measured(pass: Pass, passes: u32) -> Measured {
        let busy_s = (pass.ingest_ms.iter().sum::<f64>() + pass.query_ms.iter().sum::<f64>()) / 1e3;
        let queries = summary(&pass.query_ms);
        let mut m = Measured {
            ops_per_s: ratio(pass.ingest_ms.len() as f64, busy_s),
            records_per_s: ratio(pass.records as f64, busy_s),
            sim_ms: pass.sim_ms,
            op_ms: pass.ingest_ms,
            passes,
            checks: pass.checks,
            ..Measured::default()
        };
        m.notes.insert("mix_query_p50_ms", queries.p50);
        m.notes.insert("mix_query_p95_ms", queries.p95);
        m.notes.insert("mix_queries", pass.query_ms.len() as f64);
        m
    }
}

impl Workload for IngestMix {
    type Built = Built;

    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Built, String> {
        let fixes = ctx.scale.fixes_per_taxi;
        let (fleet, model) = generate_and_calibrate(ctx, fixes + MAX_TICKS, tracer);
        // Records come ordered by taxi, then time: fix `i` of every taxi
        // with `i >= fixes` is tick `i - fixes`.
        let per_taxi = (fixes + MAX_TICKS) as usize;
        let mut base = RecordBatch::with_capacity(fleet.data.len());
        let mut ticks = vec![RecordBatch::new(); MAX_TICKS as usize];
        for (i, record) in fleet.data.iter().enumerate() {
            match (i % per_taxi).checked_sub(fixes as usize) {
                None => base.push(record),
                Some(tick) => ticks[tick].push(record),
            }
        }
        for tick in &mut ticks {
            tick.sort_by_time();
        }
        let store = build_store(ctx, &base, fleet.universe, &model, &R3, tracer)?;
        Ok(Built {
            base,
            ticks,
            universe: fleet.universe,
            model,
            store,
        })
    }

    fn discard(built: Built) -> Result<(), String> {
        fixture::remove_dir(built.store.dir());
        Ok(())
    }

    fn prepare(ctx: &Ctx, built: Built) -> Self {
        Self {
            space: Space::of(&built.base, built.universe),
            oracle: Oracle::new(&built.base),
            rng: ctx.stream(5),
            done: 0,
            raw_bytes: sut::encode(sut::RAW, &built.base).len(),
            built,
        }
    }

    fn verify(&mut self) -> Checks {
        // Before any tick: the old-data shapes on the freshly built store.
        let mut checks = Checks::default();
        let seconds = self.space.data_seconds();
        for _ in 0..QUERIES_PER_TICK {
            let q = self.space.box_at(
                some_record(&self.built.base, &mut self.rng),
                DEGREES,
                seconds * OLD,
            );
            match self.built.store.query(&q) {
                Ok(answer) => checks.agree("query", self.oracle.agrees(&q, &answer.records)),
                Err(e) => checks.fail(format!("query: {e}")),
            }
        }
        checks
    }

    fn measure(&mut self, ctx: &Ctx) -> Measured {
        let mut pass = Pass::default();
        let (passes, _) = fixture::whole_passes(ctx.window, || self.pass(None, &mut pass));
        self.final_checks(&mut pass.checks);
        Self::measured(pass, passes)
    }

    fn trace(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String> {
        let mut layers = Layers::new();
        let mut untraced = Pass::default();
        self.pass(None, &mut untraced);
        let mut traced = Pass::default();
        self.pass(Some(tracer), &mut traced);
        self.final_checks(&mut traced.checks);

        let ticks = traced.ingest_ms.len() as f64;
        layers.insert(
            "core.ingest_units_rewritten_per_tick".into(),
            ratio(traced.units_rewritten as f64, ticks),
        );
        layers.insert(
            "core.ingest_write_amp".into(),
            ratio(traced.bytes_rewritten as f64, traced.raw_bytes as f64),
        );
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(mean(&traced.ingest_ms), mean(&untraced.ingest_ms)),
        );
        layers.insert(
            "core.query_gap_us".into(),
            mean(&traced.query_ms) * 1e3 - mean(&tracer.micros("bench.replay")),
        );
        replay::layers(tracer, &traced.counts, &mut layers);
        let built = &self.built;
        probes::store_layers(ctx, &built.base, built.universe, tracer, &mut layers)?;
        probes::live_store_layers(
            &built.store,
            &built.base,
            &self.space,
            ctx,
            tracer,
            &mut layers,
        );

        let mut base = Self::measured(untraced, 1);
        base.checks.merge(traced.checks);
        Ok((base, layers))
    }

    fn stored_per_raw(&self) -> f64 {
        ratio(self.built.store.total_bytes() as f64, self.raw_bytes as f64)
    }

    fn describe(&self) -> Json {
        Json::obj([
            (
                "store",
                describe_store(&self.built.store, &self.built.model, self.oracle.len()),
            ),
            (
                "workload",
                Json::obj([
                    ("ticks_ingested", Json::Num(self.done as f64)),
                    ("ticks_per_pass", Json::Num(TICKS_PER_PASS as f64)),
                    (
                        "records_per_tick",
                        Json::Num(self.built.ticks.first().map_or(0, RecordBatch::len) as f64),
                    ),
                    ("queries_per_tick", Json::Num(QUERIES_PER_TICK as f64)),
                    ("degrees", Json::Num(DEGREES)),
                    ("newest_time_share", Json::Num(NEWEST)),
                    ("old_time_share", Json::Num(OLD)),
                ]),
            ),
        ])
    }

    fn tear_down(self) -> Result<(), String> {
        Self::discard(self.built)
    }
}
