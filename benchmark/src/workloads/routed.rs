//! `routed`: the fleet split by `OidHash` over four shard servers (each
//! the two row replicas of `R3` on its slice), a `RouterService` over them, a front `Server` over
//! that; 2 closed-loop connections send boxes that each span ~1 % of the
//! data, so every shard is hit, replies are large and the reply path
//! dominates.

use std::time::{Duration, Instant};

use blot_json::Json;

use crate::fixture::{self, build_store, generate_and_calibrate, latin_cube, Ctx, Space};
use crate::oracle::Oracle;
use crate::probes;
use crate::serving::{closed_loop, count, latencies, server_layers, Phase};
use crate::spans::Tracer;
use crate::sut::{
    self, Conn, Cuboid, Fleet, Model, RecordBatch, ReplicaSpec, Served, Shards, Store, R3,
};
use crate::util::{mean, median, ratio};
use crate::workload::{Checks, Layers, Measured, Workload};
use crate::workloads::describe_model;

const SHARDS: u32 = 4;
/// What every shard holds: the two row replicas of `R3`. Not the
/// time-fine `COL-DEFLATE` one: a shard's units are a quarter the size,
/// so the model prices replicas almost purely by unit count, boxes of
/// this workload's size are near-ties between it and the balanced
/// replica, and it answers them 20× slower. Which side of the tie
/// calibration noise fell on moved whole runs of one commit and seed
/// between 75 and 107 ops/s, and none of that is the router's doing.
const SHARD_REPLICAS: [ReplicaSpec; 2] = [R3[0], R3[2]];
const QUERIES: usize = 64;
/// Shares of records a box spans on x, y and time: ~1 % of the data each,
/// placed by Latin hypercube, so replies are all of one size class.
const SHARES: [f64; 3] = [0.25, 0.25, 0.125];

/// A slice's store and the server over it.
#[derive(Debug)]
struct Shard {
    store: Store,
    served: Served,
}

#[derive(Debug)]
pub struct Built {
    fleet: Fleet,
    model: Model,
    shards: Vec<Shard>,
    map: Shards,
    router: sut::Routed,
}

fn serve(
    ctx: &Ctx,
    data: &RecordBatch,
    fleet: &Fleet,
    model: &Model,
    tracer: &mut Tracer,
) -> Result<Shard, String> {
    let store = build_store(ctx, data, fleet.universe, model, &SHARD_REPLICAS, tracer)?;
    let served = tracer.leaf("server.start", || Served::store(&store))?;
    Ok(Shard { store, served })
}

fn stop(shard: Shard) -> bool {
    let joined = shard.served.shutdown();
    fixture::remove_dir(shard.store.dir());
    joined
}

#[derive(Debug)]
pub struct Routed {
    built: Built,
    oracle: Oracle,
    queries: Vec<Cuboid>,
}

impl Routed {
    fn measured(phase: &Phase, passes: u32) -> Measured {
        let mut m = Measured {
            op_ms: latencies(phase),
            ops_per_s: phase.ops_per_s,
            records_per_s: phase.records_per_s,
            passes,
            sim_ms: phase
                .samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.sim_ms)
                .collect(),
            ..Measured::default()
        };
        count(phase, &mut m.checks);
        m
    }
}

/// One connection, one request at a time: ms per query of the list.
fn sequential(addr: &str, queries: &[Cuboid]) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(addr)?;
    queries
        .iter()
        .map(|q| {
            let started = Instant::now();
            conn.query(q)?;
            Ok(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

impl Workload for Routed {
    type Built = Built;

    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Built, String> {
        let (fleet, model) = generate_and_calibrate(ctx, ctx.scale.fixes_per_taxi, tracer);
        let placement = Shards::placement(SHARDS)?;
        let mut slices: Vec<RecordBatch> = (0..SHARDS).map(|_| RecordBatch::new()).collect();
        for record in fleet.data.iter() {
            slices[placement.shard_of(&record) as usize].push(record);
        }
        let mut shards = Vec::new();
        for slice in &slices {
            shards.push(serve(ctx, slice, &fleet, &model, tracer)?);
        }
        let map = Shards::at(
            1,
            shards.iter().map(|s| s.served.addr().to_owned()).collect(),
        )?;
        let router = tracer.leaf("router.start", || sut::Routed::start(&map))?;
        Ok(Built {
            fleet,
            model,
            shards,
            map,
            router,
        })
    }

    fn discard(built: Built) -> Result<(), String> {
        let mut joined = built.router.shutdown();
        for shard in built.shards {
            joined &= stop(shard);
        }
        if joined {
            Ok(())
        } else {
            Err("a server thread did not join".into())
        }
    }

    fn prepare(ctx: &Ctx, built: Built) -> Self {
        let data = &built.fleet.data;
        let space = Space::of(data, built.fleet.universe);
        let queries = latin_cube(QUERIES, &mut ctx.stream(4))
            .into_iter()
            .map(|at| space.share_box(SHARES, at))
            .collect();
        let oracle = Oracle::new(data);
        Self {
            built,
            oracle,
            queries,
        }
    }

    fn verify(&mut self) -> Checks {
        let mut checks = Checks::default();
        match Conn::open(self.built.router.addr()) {
            Ok(mut conn) => {
                for q in &self.queries {
                    match conn.query(q) {
                        Ok(answer) => {
                            checks.agree("routed query", self.oracle.agrees(q, &answer.records))
                        }
                        Err(e) => checks.fail(format!("routed query: {e}")),
                    }
                }
            }
            Err(e) => checks.fail(format!("connect: {e}")),
        }
        checks
    }

    fn measure(&mut self, ctx: &Ctx) -> Measured {
        let phase = closed_loop(
            self.built.router.addr(),
            ctx.callers,
            &self.queries,
            ctx.window,
        );
        let passes = (phase.samples.len() / self.queries.len()) as u32;
        Self::measured(&phase, passes)
    }

    fn trace(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String> {
        let mut layers = Layers::new();
        let front = self.built.router.addr().to_owned();
        // A window shorter than a pass: exactly one pass per connection.
        let one_pass = Duration::ZERO;
        let phase = closed_loop(&front, ctx.callers, &self.queries, one_pass);
        let mut base = Self::measured(&phase, 1);
        let traced = closed_loop(&front, ctx.callers, &self.queries, one_pass);
        count(&traced, &mut base.checks);
        for s in &traced.samples {
            tracer.add("server.client_query", s.sent, s.done, s.records);
        }
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(mean(&latencies(&traced)), mean(&latencies(&phase))),
        );
        layers.insert(
            "server.retries_per_req".into(),
            ratio(
                (phase.retries + traced.retries) as f64,
                (phase.samples.len() + traced.samples.len()) as f64,
            ),
        );

        // The same list, one request at a time: through the front server,
        // through the coordinator in-process, straight to each shard.
        let through_front = sequential(&front, &self.queries)?;
        let mut fanouts = Vec::new();
        let mut coordinator = Vec::new();
        for q in &self.queries {
            fanouts.push(
                tracer
                    .leaf("router.fanout", || self.built.map.fanout(q))
                    .len() as f64,
            );
            let started = Instant::now();
            let (answer, _) = tracer.leaf("router.coordinator_query", || {
                self.built.router.coordinator_query(q)
            })?;
            coordinator.push(started.elapsed().as_secs_f64() * 1e3);
            base.checks
                .agree("coordinator query", self.oracle.agrees(q, &answer.records));
        }
        let mut slowest = vec![0.0f64; self.queries.len()];
        for shard in &self.built.shards {
            let direct = sequential(shard.served.addr(), &self.queries)?;
            for (worst, ms) in slowest.iter_mut().zip(direct) {
                *worst = worst.max(ms);
            }
        }
        // ... and against one unsharded server over the whole fleet.
        let fleet = &self.built.fleet;
        let single = serve(
            ctx,
            &fleet.data,
            fleet,
            &self.built.model,
            &mut Tracer::new(),
        )?;
        let unsharded = sequential(single.served.addr(), &self.queries);
        if !stop(single) {
            return Err("a server thread did not join".into());
        }
        let mut put = |name: &str, value: f64| layers.insert(name.to_owned(), value);
        put("router.fanout_us", mean(&tracer.micros("router.fanout")));
        put("router.fanout_shards_mean", mean(&fanouts));
        put("router.coordinator_query_ms", mean(&coordinator));
        put(
            "router.front_hop_ms",
            mean(&through_front) - mean(&coordinator),
        );
        put("router.slowest_shard_direct_ms", mean(&slowest));
        put(
            "router.gather_overhead_ms",
            mean(&coordinator) - mean(&slowest),
        );
        put(
            "router.vs_single_ratio",
            ratio(median(&through_front), median(&unsharded?)),
        );

        // The serving layer on this workload's large replies.
        server_layers(
            &front,
            &self.queries[..16.min(self.queries.len())],
            &traced,
            self.built.router.counters(),
            tracer,
            &mut layers,
        )?;
        probes::store_layers(ctx, &fleet.data, fleet.universe, tracer, &mut layers)?;
        Ok((base, layers))
    }

    fn stored_per_raw(&self) -> f64 {
        let total: u64 = self
            .built
            .shards
            .iter()
            .map(|s| s.store.total_bytes())
            .sum();
        fixture::stored_per_raw(total, &self.built.fleet.data)
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("records", Json::Num(self.built.fleet.data.len() as f64)),
            ("shards", Json::Num(f64::from(SHARDS))),
            ("placement", Json::Str("OidHash".into())),
            (
                "shard_replicas",
                Json::Arr(
                    SHARD_REPLICAS
                        .iter()
                        .map(|r| Json::Str(r.label()))
                        .collect(),
                ),
            ),
            (
                "shard_bytes",
                Json::Arr(
                    self.built
                        .shards
                        .iter()
                        .map(|s| Json::Num(s.store.total_bytes() as f64))
                        .collect(),
                ),
            ),
            ("cost_model", describe_model(&self.built.model)),
            (
                "workload",
                Json::obj([
                    ("queries", Json::Num(QUERIES as f64)),
                    (
                        "shares_of_records_on_x_y_time",
                        Json::Arr(SHARES.map(Json::Num).to_vec()),
                    ),
                    ("loop", Json::Str("closed".into())),
                ]),
            ),
        ])
    }

    fn tear_down(self) -> Result<(), String> {
        Self::discard(self.built)
    }
}
