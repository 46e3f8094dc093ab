//! `serve_small`: a loopback `Server` (default config: 1 ms linger, 8
//! handlers) over the common store, tiny queries over 2 connections.
//!
//! The window is split in two. First an *open loop*: requests are due at
//! a fixed total rate whatever the server does, and each is timed from
//! when it was due, so a stall counts against every request behind it;
//! this gives the workload's latency. Then a *closed loop*: each
//! connection sends its next request when the previous one returned;
//! this gives its throughput (capacity at 2 callers).

use std::time::Duration;

use blot_json::Json;

use crate::fixture::{self, spread_records, Ctx, Fixture, Space};
use crate::oracle::{Fingerprint, Oracle};
use crate::probes;
use crate::replay::{self, replay, Counts};
use crate::serving::{closed_loop, count, latencies, open_loop, server_layers, Phase, Sample};
use crate::spans::Tracer;
use crate::sut::{Conn, Cuboid, Scratch, Served};
use crate::util::{mean, percentile, ratio, sorted};
use crate::workload::{summary, Checks, Layers, Measured, Workload};
use crate::workloads::describe_store;

const QUERIES: usize = 256;
/// Spatial extent of a query, degrees.
const DEGREES: f64 = 0.02;
/// Temporal extent, seconds (one reporting interval of the fleet). Short, so
/// that a query rarely straddles a time slice: one that does in the
/// balanced replica is cheaper, by the model, on the slow time-fine one,
/// and a few per cent of those put the p95 in another mode.
const SECONDS: f64 = 30.0;
/// Open-loop arrival rate over all connections: about a quarter of the
/// closed-loop ceiling on two cores, far from the knee, so it repeats.
const OPEN_QPS: f64 = 300.0;

/// Dataset, store and the server over it.
#[derive(Debug)]
pub struct Built {
    fx: Fixture,
    served: Served,
}

#[derive(Debug)]
pub struct ServeSmall {
    built: Built,
    space: Space,
    oracle: Oracle,
    queries: Vec<Cuboid>,
}

impl ServeSmall {
    fn addr(&self) -> &str {
        self.built.served.addr()
    }

    /// Open phase then closed phase, each over `window`.
    fn phases(&self, ctx: &Ctx, window: Duration) -> (Phase, Phase) {
        let passes = ((window.as_secs_f64() * OPEN_QPS / QUERIES as f64).ceil() as usize).max(1);
        let open = open_loop(self.addr(), ctx.callers, &self.queries, passes, OPEN_QPS);
        let closed = closed_loop(self.addr(), ctx.callers, &self.queries, window);
        (open, closed)
    }

    fn measured(open: &Phase, closed: &Phase) -> Measured {
        let mut m = Measured {
            op_ms: latencies(open),
            ops_per_s: closed.ops_per_s,
            records_per_s: closed.records_per_s,
            passes: 1,
            ..Measured::default()
        };
        for phase in [open, closed] {
            count(phase, &mut m.checks);
            m.sim_ms
                .extend(phase.samples.iter().filter(|s| s.ok).map(|s| s.sim_ms));
        }
        let closed_loop = summary(&latencies(closed));
        let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();
        m.notes.insert("closed_p50_ms", closed_loop.p50);
        m.notes.insert("closed_p95_ms", closed_loop.p95);
        m.notes
            .insert("open_late_p95_ms", percentile(&sorted(&late), 0.95));
        m.notes.insert("open_qps", OPEN_QPS);
        m.notes
            .insert("retries", (open.retries + closed.retries) as f64);
        m
    }
}

impl Workload for ServeSmall {
    type Built = Built;

    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Built, String> {
        let fx = Fixture::set_up(ctx, tracer)?;
        let served = tracer.leaf("server.start", || Served::store(&fx.store))?;
        Ok(Built { fx, served })
    }

    fn discard(built: Built) -> Result<(), String> {
        let joined = built.served.shutdown();
        fixture::remove_dir(built.fx.store.dir());
        if joined {
            Ok(())
        } else {
            Err("a server thread did not join".into())
        }
    }

    fn prepare(ctx: &Ctx, built: Built) -> Self {
        let data = &built.fx.fleet.data;
        let space = Space::of(data, built.fx.fleet.universe);
        let queries = spread_records(data, QUERIES, &mut ctx.stream(3))
            .into_iter()
            .map(|at| space.box_at(at, DEGREES, SECONDS))
            .collect();
        let oracle = Oracle::new(data);
        Self {
            built,
            space,
            oracle,
            queries,
        }
    }

    fn verify(&mut self) -> Checks {
        let mut checks = Checks::default();
        match Conn::open(self.addr()) {
            Ok(mut conn) => {
                for q in &self.queries {
                    match conn.query(q) {
                        Ok(answer) => {
                            checks.agree("remote query", self.oracle.agrees(q, &answer.records))
                        }
                        Err(e) => checks.fail(format!("remote query: {e}")),
                    }
                }
            }
            Err(e) => checks.fail(format!("connect: {e}")),
        }
        checks
    }

    fn measure(&mut self, ctx: &Ctx) -> Measured {
        let (open, closed) = self.phases(ctx, ctx.window / 2);
        Self::measured(&open, &closed)
    }

    fn trace(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String> {
        let mut layers = Layers::new();
        let pass = Duration::from_secs_f64(QUERIES as f64 / OPEN_QPS);
        let (open, closed) = self.phases(ctx, pass);
        let mut base = Self::measured(&open, &closed);

        // The traced pass is the same loop; its requests become spans.
        let (traced_open, traced_closed) = self.phases(ctx, pass);
        let rtt =
            |phase: &Phase| mean(&phase.samples.iter().map(Sample::rtt_ms).collect::<Vec<_>>());
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(rtt(&traced_open), rtt(&open)),
        );
        let phases = [&open, &closed, &traced_open, &traced_closed];
        layers.insert(
            "server.retries_per_req".into(),
            ratio(
                phases.iter().map(|p| p.retries).sum::<u64>() as f64,
                phases.iter().map(|p| p.samples.len()).sum::<usize>() as f64,
            ),
        );
        for traced in [&traced_open, &traced_closed] {
            count(traced, &mut base.checks);
            for s in &traced.samples {
                tracer.add("server.client_query", s.sent, s.done, s.records);
            }
        }
        server_layers(
            self.addr(),
            &self.queries[..64.min(self.queries.len())],
            &traced_open,
            self.built.served.counters(),
            tracer,
            &mut layers,
        )?;

        // What the store does for these queries, replayed in-process.
        let mut scratch = Scratch::default();
        let mut counts = Counts::default();
        for q in &self.queries {
            tracer.next_op();
            let (_, replayed, c) = tracer.span("bench.replay", |t| {
                replay(&self.built.fx.store, None, q, &mut scratch, t)
            })?;
            base.checks.agree(
                "replay",
                Fingerprint::of(&replayed) == self.oracle.expect(q),
            );
            counts.add(&c);
        }
        replay::layers(tracer, &counts, &mut layers);
        let fleet = &self.built.fx.fleet;
        probes::store_layers(ctx, &fleet.data, fleet.universe, tracer, &mut layers)?;
        probes::live_store_layers(
            &self.built.fx.store,
            &fleet.data,
            &self.space,
            ctx,
            tracer,
            &mut layers,
        );
        Ok((base, layers))
    }

    fn stored_per_raw(&self) -> f64 {
        fixture::stored_per_raw(self.built.fx.store.total_bytes(), &self.built.fx.fleet.data)
    }

    fn describe(&self) -> Json {
        let fx = &self.built.fx;
        Json::obj([
            (
                "store",
                describe_store(&fx.store, &fx.model, fx.fleet.data.len()),
            ),
            (
                "workload",
                Json::obj([
                    ("queries", Json::Num(QUERIES as f64)),
                    ("degrees", Json::Num(DEGREES)),
                    ("seconds", Json::Num(SECONDS)),
                    ("open_loop_qps", Json::Num(OPEN_QPS)),
                    (
                        "phases",
                        Json::Str("open loop, then closed loop; half the window each".into()),
                    ),
                ]),
            ),
        ])
    }

    fn tear_down(self) -> Result<(), String> {
        Self::discard(self.built)
    }
}
