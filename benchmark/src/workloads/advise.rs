//! `advise`: the `blot select` path, no store. One operation prices the
//! paper's synthetic workload on all 175 candidate replicas for a 65 M
//! record dataset (`estimate_scaled`), prunes dominated candidates, and
//! selects by greedy and by MIP at one of five budgets (1× to 5× the
//! storage of the best single replica).

use std::time::Instant;

use blot_json::Json;

use crate::fixture::{whole_passes, Ctx};
use crate::spans::{Tracer, Untraced};
use crate::sut::{self, Advice, Advisor, Model};
use crate::util::{mean, ratio};
use crate::workload::{Checks, Layers, Measured, Workload};
use crate::workloads::describe_model;

/// The paper's dataset size, which the sample is scaled to.
const DATASET_RECORDS: f64 = 65e6;
/// Budgets, in copies of the best single replica; one pass runs each.
const BUDGETS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

#[derive(Debug)]
pub struct Advise {
    advisor: Advisor,
    model: Model,
    /// The advice at the middle budget, for the size and cost metrics.
    middle: Option<Advice>,
}

impl Advise {
    /// One pass: one round per budget.
    fn pass(
        &mut self,
        m: &mut Measured,
        costs: &mut Vec<f64>,
        tracer: &mut Option<&mut Tracer>,
    ) -> Vec<Advice> {
        let mut advices = Vec::new();
        for (i, copies) in BUDGETS.into_iter().enumerate() {
            let started = Instant::now();
            let advice = match tracer.as_deref_mut() {
                Some(t) => {
                    t.next_op();
                    t.span("bench.advise", |t| self.advisor.advise(copies, t))
                }
                None => self.advisor.advise(copies, &mut Untraced),
            };
            m.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let Some(advice) = m.checks.record("advise", advice) else {
                continue;
            };
            // The exact solver can only match or beat the heuristic.
            m.checks.agree(
                "mip <= greedy",
                advice.mip_cost <= advice.greedy_cost * (1.0 + 1e-9) && advice.mip_proven,
            );
            costs.push(advice.mip_cost_per_query_ms);
            if i == BUDGETS.len() / 2 {
                self.middle = Some(advice);
            }
            advices.push(advice);
        }
        advices
    }
}

impl Workload for Advise {
    type Built = (Advisor, Model);

    fn set_up(ctx: &Ctx, tracer: &mut Tracer) -> Result<Self::Built, String> {
        let sample = tracer.leaf("tracegen.generate", || sut::generate_sample(ctx.seed));
        let model = tracer.leaf("core.calibrate", || {
            Model::calibrate(&sample.data, ctx.seed)
        });
        Ok((
            Advisor::new(model.clone(), sample, DATASET_RECORDS, ctx.scale.paper_grid),
            model,
        ))
    }

    fn discard(_: Self::Built) -> Result<(), String> {
        Ok(())
    }

    fn prepare(_: &Ctx, (advisor, model): Self::Built) -> Self {
        Self {
            advisor,
            model,
            middle: None,
        }
    }

    fn verify(&mut self) -> Checks {
        // One untimed pass: fills caches, and checks MIP against greedy.
        let mut m = Measured::default();
        self.pass(&mut m, &mut Vec::new(), &mut None);
        m.checks
    }

    fn measure(&mut self, ctx: &Ctx) -> Measured {
        let mut m = Measured::default();
        let mut costs = Vec::new();
        let (passes, elapsed) = whole_passes(ctx.window, || {
            self.pass(&mut m, &mut costs, &mut None);
        });
        m.passes = passes;
        m.ops_per_s = ratio(m.op_ms.len() as f64, elapsed.as_secs_f64());
        m.sim_ms = costs;
        m
    }

    fn trace(&mut self, _: &Ctx, tracer: &mut Tracer) -> Result<(Measured, Layers), String> {
        let mut layers = Layers::new();
        let mut base = Measured::default();
        let mut costs = Vec::new();
        let started = Instant::now();
        self.pass(&mut base, &mut costs, &mut None);
        base.passes = 1;
        base.ops_per_s = ratio(base.op_ms.len() as f64, started.elapsed().as_secs_f64());
        base.sim_ms = costs;

        let mut traced = Measured::default();
        let advices = self.pass(&mut traced, &mut Vec::new(), &mut Some(tracer));
        base.checks.merge(traced.checks.clone());
        let mean_us = |name: &str| mean(&tracer.micros(name));
        layers.insert(
            "core.estimate_matrix_ms".into(),
            mean_us("core.estimate_matrix") / 1e3,
        );
        layers.insert(
            "core.prune_dominated_us".into(),
            mean_us("core.prune_dominated"),
        );
        layers.insert("core.greedy_us".into(), mean_us("core.greedy"));
        layers.insert(
            "core.select_mip_ms".into(),
            mean_us("core.select_mip") / 1e3,
        );
        layers.insert("mip.solve_ms".into(), mean_us("mip.solve") / 1e3);
        let of = |f: fn(&Advice) -> f64| mean(&advices.iter().map(f).collect::<Vec<_>>());
        layers.insert(
            "core.candidates_kept".into(),
            of(|a| a.candidates_kept as f64),
        );
        layers.insert(
            "core.greedy_gain_evals".into(),
            of(|a| a.greedy_gain_evals as f64),
        );
        layers.insert("mip.nodes".into(), of(|a| a.mip_nodes as f64));
        layers.insert(
            "core.greedy_vs_mip_cost_ratio".into(),
            of(|a| ratio(a.greedy_cost, a.mip_cost)),
        );
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(traced.mean_ms(), base.mean_ms()),
        );
        Ok((base, layers))
    }

    fn stored_per_raw(&self) -> f64 {
        self.middle.map_or(0.0, |a| a.mip_storage_per_raw_byte)
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("sample", Json::Str("FleetConfig::small(), reseeded".into())),
            ("dataset_records", Json::Num(DATASET_RECORDS)),
            ("candidates", Json::Num(self.advisor.candidates() as f64)),
            (
                "workload_queries",
                Json::Num(self.advisor.workload_queries() as f64),
            ),
            (
                "budgets_in_copies",
                Json::Arr(BUDGETS.map(Json::Num).to_vec()),
            ),
            ("cost_model", describe_model(&self.model)),
        ])
    }

    fn tear_down(self) -> Result<(), String> {
        Ok(())
    }
}
