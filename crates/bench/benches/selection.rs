//! Criterion bench: the selection pipeline on a paper-shaped instance —
//! matrix estimation, dominance pruning, greedy, and warm-started MIP.

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
use blot_codec::EncodingScheme;
use blot_core::cost::CostModel;
use blot_core::prelude::*;
use blot_core::select::{prune_dominated, select_greedy, select_greedy_reference, select_mip};
use blot_mip::MipSolver;
use blot_tracegen::FleetConfig;
use criterion::{criterion_group, criterion_main, Criterion};

struct Setup {
    model: CostModel,
    workload: Workload,
    candidates: Vec<ReplicaConfig>,
    sample: RecordBatch,
    universe: Cuboid,
    matrix: CostMatrix,
    budget: Bytes,
}

fn setup() -> Setup {
    let config = FleetConfig::small();
    let sample = config.generate();
    let universe = config.universe();
    let model = CostModel::calibrate(&EnvProfile::cloud_object_store(), &sample, 0xBE);
    let specs = vec![
        SchemeSpec::new(16, 16),
        SchemeSpec::new(16, 64),
        SchemeSpec::new(64, 32),
        SchemeSpec::new(256, 16),
        SchemeSpec::new(256, 64),
    ];
    let candidates = ReplicaConfig::grid(&specs, &EncodingScheme::all());
    let workload = Workload::paper_synthetic(&universe);
    let matrix =
        CostMatrix::estimate_scaled(&model, &workload, &candidates, &sample, universe, 65e6);
    let budget = 3.0 * matrix.storage[matrix.optimal_single().0];
    Setup {
        model,
        workload,
        candidates,
        sample,
        universe,
        matrix,
        budget,
    }
}

/// A dense synthetic instance (200 queries × 64 candidates) sized so the
/// lazy evaluation actually has room to skip work; the paper-shaped
/// instance above is small enough that both variants are microseconds.
fn synthetic_matrix(queries: usize, candidates: usize) -> (CostMatrix, Bytes) {
    // Deterministic LCG so the bench needs no RNG dependency.
    let mut state: u64 = 0xCE1F_2026;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as f64 / f64::from(1u32 << 31)
    };
    let costs: Vec<Vec<f64>> = (0..queries)
        .map(|_| (0..candidates).map(|_| 1.0 + 499.0 * next()).collect())
        .collect();
    let weights: Vec<f64> = (0..queries).map(|_| 0.5 + 3.5 * next()).collect();
    let storage: Vec<Bytes> = (0..candidates)
        .map(|_| Bytes::new(1.0 + 29.0 * next()))
        .collect();
    let budget = storage.iter().copied().sum::<Bytes>() * 0.4;
    (
        CostMatrix {
            costs,
            weights,
            storage,
        },
        budget,
    )
}

fn bench_selection(c: &mut Criterion) {
    let s = setup();
    let (big, big_budget) = synthetic_matrix(200, 64);
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    group.bench_function("prune_dominated", |b| b.iter(|| prune_dominated(&s.matrix)));
    group.bench_function("greedy", |b| b.iter(|| select_greedy(&s.matrix, s.budget)));
    group.bench_function("greedy_lazy_200x64", |b| {
        b.iter(|| select_greedy(&big, big_budget));
    });
    group.bench_function("greedy_reference_200x64", |b| {
        b.iter(|| select_greedy_reference(&big, big_budget));
    });
    group.bench_function("mip_warm_started", |b| {
        b.iter(|| select_mip(&s.matrix, s.budget, &MipSolver::default()).expect("mip"));
    });
    group.bench_function("matrix_estimate_serial", |b| {
        b.iter(|| {
            CostMatrix::estimate_scaled(
                &s.model,
                &s.workload,
                &s.candidates,
                &s.sample,
                s.universe,
                65e6,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
