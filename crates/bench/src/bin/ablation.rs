//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. dominance pruning — MIP input size and solve time, optimum
//!    preserved;
//! 2. greedy warm-starting — branch & bound nodes with and without the
//!    incumbent seed;
//! 3. the Equation 11 grouped-query estimator — analytic expected
//!    involvement vs Monte-Carlo ground truth.
//!
//! ```sh
//! cargo run --release -p blot-bench --bin ablation
//! ```

// Bench/driver code runs on data it constructs; panics here indicate a
// harness bug, not a recoverable condition.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use blot_bench::{Context, Scale};
use blot_codec::EncodingScheme;
use blot_core::cost::CostModel;
use blot_core::prelude::*;
use blot_core::select::{build_selection_problem, prune_dominated, select_greedy, select_mip};
use blot_index::PartitioningScheme;
use blot_mip::MipSolver;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ctx = Context::new(if quick { Scale::Quick } else { Scale::Full });
    println!("context ready: {} sample records\n", ctx.sample.len());

    ablate_pruning(&ctx);
    ablate_warm_start(&ctx);
    ablate_eq11(&ctx);
}

fn paper_matrix(ctx: &Context) -> CostMatrix {
    let candidates = ReplicaConfig::grid(&ctx.spec_grid(), &EncodingScheme::all());
    let workload = Workload::paper_synthetic(&ctx.universe);
    // 100× the sample scale (the 370 GB point of Figure 6): at sample
    // scale the flat cost surface makes selection trivial and the
    // ablations uninformative.
    CostMatrix::estimate_scaled(
        &ctx.cloud_model,
        &workload,
        &candidates,
        &ctx.sample,
        ctx.universe,
        ctx.dataset_records * 100.0,
    )
}

fn submatrix(matrix: &CostMatrix, kept: &[usize]) -> CostMatrix {
    CostMatrix {
        costs: matrix
            .costs
            .iter()
            .map(|row| kept.iter().map(|&j| row[j]).collect())
            .collect(),
        weights: matrix.weights.clone(),
        storage: kept.iter().map(|&j| matrix.storage[j]).collect(),
    }
}

fn ablate_pruning(ctx: &Context) {
    println!("== ablation 1: dominance pruning (§III-C2) ==");
    let matrix = paper_matrix(ctx);
    let budget = 3.0 * matrix.storage[matrix.optimal_single().0];
    let solver = MipSolver::default();

    let t = Instant::now();
    let full = select_mip(&matrix, budget, &solver).expect("mip full");
    let full_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let kept = prune_dominated(&matrix);
    let prune_ms = t.elapsed().as_secs_f64() * 1e3;
    let sub = submatrix(&matrix, &kept);
    let t = Instant::now();
    let pruned = select_mip(&sub, budget, &solver).expect("mip pruned");
    let pruned_ms = t.elapsed().as_secs_f64() * 1e3;

    println!(
        "  candidates: {} → {} ({prune_ms:.1} ms to prune)",
        matrix.n_candidates(),
        kept.len()
    );
    println!(
        "  MIP on full set:   {full_ms:>9.1} ms, cost {:.3e}",
        full.workload_cost
    );
    println!(
        "  MIP on pruned set: {pruned_ms:>9.1} ms, cost {:.3e}",
        pruned.workload_cost
    );
    println!(
        "  optimum preserved: {}\n",
        (full.workload_cost - pruned.workload_cost).abs() < 1e-6 * full.workload_cost
    );
}

fn ablate_warm_start(_ctx: &Context) {
    println!("== ablation 2: greedy warm-start of branch & bound ==");
    // Real replica-selection matrices prune down to easy instances; the
    // warm-start earns its keep on hard synthetic ones (the regime of
    // Figure 3 where cold solves blow up). Same generator as fig3.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0xAB1A);
    let (n, m) = (32, 30);
    let quality: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..2.0)).collect();
    let sub = CostMatrix {
        costs: (0..n)
            .map(|_| {
                (0..m)
                    .map(|j| quality[j] * rng.gen_range(1.0..100.0f64))
                    .collect()
            })
            .collect(),
        weights: vec![1.0; n],
        storage: (0..m)
            .map(|_| Bytes::new(rng.gen_range(1.0..20.0)))
            .collect(),
    };
    let budget = sub.storage.iter().copied().sum::<Bytes>() * 0.3;
    let problem = build_selection_problem(&sub, budget);
    let solver = MipSolver::default();

    let t = Instant::now();
    let cold = solver.solve(&problem).expect("cold solve");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    let greedy = select_greedy(&sub, budget);
    let mut seed = vec![0.0; problem.num_vars()];
    let m = sub.n_candidates();
    for &j in &greedy.chosen {
        seed[j] = 1.0;
    }
    for i in 0..sub.n_queries() {
        let best = greedy
            .chosen
            .iter()
            .copied()
            .min_by(|&a, &b| sub.costs[i][a].total_cmp(&sub.costs[i][b]))
            .expect("greedy non-empty");
        seed[m + i * m + best] = 1.0;
    }
    let t = Instant::now();
    let warm = solver
        .solve_seeded(&problem, Some(&seed))
        .expect("warm solve");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    println!(
        "  cold: {cold_ms:>9.1} ms, {:>7} nodes",
        cold.stats.nodes_explored
    );
    println!(
        "  warm: {warm_ms:>9.1} ms, {:>7} nodes",
        warm.stats.nodes_explored
    );
    println!(
        "  same optimum: {}\n",
        (cold.objective - warm.objective).abs() < 1e-9 * cold.objective.abs().max(1.0)
    );
}

fn ablate_eq11(ctx: &Context) {
    println!("== ablation 3: Equation 11 estimator vs Monte-Carlo ==");
    let spec = blot_index::SchemeSpec::new(256, 32);
    let scheme = PartitioningScheme::build(&ctx.sample, ctx.universe, spec);
    let workload = Workload::paper_synthetic(&ctx.universe);
    println!("  scheme {spec}: query   analytic Np   empirical Np   rel.err");
    let mut worst: f64 = 0.0;
    for (gi, (q, _)) in workload.entries().iter().enumerate() {
        let analytic = CostModel::expected_involved(&scheme, q.size).get();
        // Grid-sample centroid positions.
        let steps = 8;
        let mut total = 0usize;
        for ix in 0..steps {
            for iy in 0..steps {
                for it in 0..steps {
                    // Midpoint rule: uniform-measure cells, no corner bias.
                    let f = |k: usize| (k as f64 + 0.5) / steps as f64;
                    let range = q.at(&ctx.universe, f(ix), f(iy), f(it));
                    total += scheme.involved(&range).len();
                }
            }
        }
        let empirical = total as f64 / (steps * steps * steps) as f64;
        let rel = (analytic - empirical).abs() / empirical.max(1.0);
        worst = worst.max(rel);
        println!(
            "    q{:<22} {analytic:>11.2} {empirical:>14.2} {rel:>9.3}",
            gi + 1
        );
    }
    println!("  worst relative error: {worst:.3}\n");
}
