//! Property-based tests for the selection algorithms on random cost
//! matrices.

// Test code: panicking on setup failure is the desired behaviour.
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
use blot_core::select::{
    ideal_cost, prune_dominated, select_greedy, select_greedy_with_stats, select_mip,
    select_single, CostMatrix,
};
use blot_core::units::Bytes;
use blot_mip::MipSolver;
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = CostMatrix> {
    (2usize..=5, 2usize..=8).prop_flat_map(|(n, m)| {
        let costs = prop::collection::vec(prop::collection::vec(1.0f64..100.0, m), n);
        let weights = prop::collection::vec(0.5f64..4.0, n);
        let storage = prop::collection::vec(1.0f64..20.0, m);
        (costs, weights, storage).prop_map(|(costs, weights, storage)| CostMatrix {
            costs,
            weights,
            storage: storage.into_iter().map(Bytes::new).collect(),
        })
    })
}

/// Brute-force the optimal subset (m ≤ 8 ⇒ ≤ 256 subsets).
fn brute_force(matrix: &CostMatrix, budget: Bytes) -> f64 {
    let m = matrix.n_candidates();
    let mut best = f64::INFINITY;
    for mask in 1u32..(1 << m) {
        let chosen: Vec<usize> = (0..m).filter(|&j| mask >> j & 1 == 1).collect();
        if matrix.storage_of(&chosen) <= budget {
            best = best.min(matrix.workload_cost(&chosen));
        }
    }
    best
}

/// What the naive greedy picked and what it cost to find.
struct NaiveGreedy {
    chosen: Vec<usize>,
    workload_cost: f64,
    storage: f64,
    gain_evaluations: usize,
}

/// Algorithm 1 as the paper states it — every round re-evaluates the
/// gain of every remaining affordable candidate — over `CostMatrix`'s
/// public fields and `workload_cost` only, so it shares no helper with
/// the lazy greedy it is the oracle for. The empty set is priced at the
/// worst candidate per query, the first maximum wins ties, and a run
/// that finds no positive gain falls back to the best affordable single.
fn naive_greedy(matrix: &CostMatrix, budget: Bytes) -> NaiveGreedy {
    let budget = budget.get();
    let mut best_cost: Vec<f64> = matrix
        .costs
        .iter()
        .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let mut out = NaiveGreedy {
        chosen: Vec::new(),
        workload_cost: f64::INFINITY,
        storage: 0.0,
        gain_evaluations: 0,
    };
    let mut remaining: Vec<usize> = (0..matrix.storage.len()).collect();

    while out.storage < budget {
        let mut best: Option<(usize, f64)> = None; // (candidate, score)
        for &j in &remaining {
            if out.storage + matrix.storage[j].get() > budget {
                continue;
            }
            out.gain_evaluations += 1;
            let gain: f64 = best_cost
                .iter()
                .enumerate()
                .map(|(i, &bc)| matrix.weights[i] * (bc - matrix.costs[i][j]).max(0.0))
                .sum();
            if gain <= 0.0 {
                continue;
            }
            let score = gain / matrix.storage[j].get();
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        let Some((j, _)) = best else {
            break;
        };
        for (i, bc) in best_cost.iter_mut().enumerate() {
            *bc = bc.min(matrix.costs[i][j]);
        }
        out.storage += matrix.storage[j].get();
        out.chosen.push(j);
        remaining.retain(|&r| r != j);
    }
    if out.chosen.is_empty() {
        let single = (0..matrix.storage.len())
            .filter(|&j| matrix.storage[j].get() <= budget)
            .map(|j| (j, matrix.workload_cost(&[j])))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((j, _)) = single {
            out.chosen.push(j);
            out.storage = matrix.storage[j].get();
        }
    }
    out.workload_cost = matrix.workload_cost(&out.chosen);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mip_is_exact_on_random_matrices(matrix in arb_matrix(), budget_frac in 0.2f64..1.0) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let brute = brute_force(&matrix, budget);
        if brute.is_finite() {
            let mip = select_mip(&matrix, budget, &MipSolver::default()).expect("feasible");
            prop_assert!(
                (mip.workload_cost - brute).abs() <= 1e-6 * brute.max(1.0),
                "mip {} vs brute {}",
                mip.workload_cost,
                brute
            );
            prop_assert!(mip.storage <= budget + Bytes::new(1e-9));
        }
    }

    #[test]
    fn strategy_ordering_always_holds(matrix in arb_matrix(), budget_frac in 0.2f64..1.5) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let single = select_single(&matrix, budget).workload_cost;
        let greedy = select_greedy(&matrix, budget).workload_cost;
        let ideal = ideal_cost(&matrix);
        if single.is_finite() {
            let mip = select_mip(&matrix, budget, &MipSolver::default()).expect("feasible");
            prop_assert!(mip.workload_cost <= single + 1e-9);
            prop_assert!(mip.workload_cost <= greedy + 1e-9);
            prop_assert!(mip.workload_cost + 1e-9 >= ideal);
            // Note: greedy *can* lose to single at tight budgets (the
            // density heuristic spends budget on small cheap replicas) —
            // the paper's own Figure 4 shows this below budget 1.0×, so
            // no ordering is asserted between them.
            prop_assert!(greedy + 1e-9 >= ideal);
        }
    }

    #[test]
    fn pruning_never_changes_the_optimum(matrix in arb_matrix(), budget_frac in 0.3f64..1.0) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let kept = prune_dominated(&matrix);
        prop_assert!(!kept.is_empty());
        let before = brute_force(&matrix, budget);
        let sub = CostMatrix {
            costs: matrix
                .costs
                .iter()
                .map(|row| kept.iter().map(|&j| row[j]).collect())
                .collect(),
            weights: matrix.weights.clone(),
            storage: kept.iter().map(|&j| matrix.storage[j]).collect(),
        };
        let after = brute_force(&sub, budget);
        if before.is_finite() {
            prop_assert!(
                (before - after).abs() <= 1e-9 * before.max(1.0),
                "pruning changed optimum {before} → {after}"
            );
        } else {
            prop_assert!(after.is_infinite());
        }
    }

    #[test]
    fn lazy_greedy_matches_naive_reference_exactly(
        matrix in arb_matrix(),
        budget_frac in 0.05f64..2.0,
    ) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let lazy = select_greedy(&matrix, budget);
        let naive = naive_greedy(&matrix, budget);
        // Not just the same set: the same candidates in the same pick
        // order, and bit-identical cost/storage.
        prop_assert_eq!(&lazy.chosen, &naive.chosen);
        prop_assert!(lazy.workload_cost.total_cmp(&naive.workload_cost).is_eq());
        prop_assert!(lazy.storage.get().total_cmp(&naive.storage).is_eq());
    }

    #[test]
    fn lazy_greedy_never_evaluates_more_than_naive(
        matrix in arb_matrix(),
        budget_frac in 0.05f64..2.0,
    ) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let (_, lazy) = select_greedy_with_stats(&matrix, budget);
        let naive = naive_greedy(&matrix, budget);
        prop_assert!(
            lazy.gain_evaluations <= naive.gain_evaluations,
            "lazy {} > naive {}",
            lazy.gain_evaluations,
            naive.gain_evaluations
        );
    }

    #[test]
    fn greedy_stays_within_budget_and_improves_monotonically(
        matrix in arb_matrix(),
        budget_frac in 0.1f64..2.0,
    ) {
        let budget = matrix.storage.iter().copied().sum::<Bytes>() * budget_frac;
        let sel = select_greedy(&matrix, budget);
        prop_assert!(sel.storage <= budget + Bytes::new(1e-9));
        // Each chosen prefix must cost no more than the previous one.
        let mut prev = f64::INFINITY;
        for k in 1..=sel.chosen.len() {
            let cost = matrix.workload_cost(&sel.chosen[..k]);
            prop_assert!(cost <= prev + 1e-9);
            prev = cost;
        }
    }
}

/// The lazy greedy's whole point: on a realistic-sized instance it does
/// a fraction of the naive loop's gain evaluations while picking the
/// exact same replicas. The ISSUE acceptance bound is < 50% on a
/// 200-query × 64-candidate matrix; CELF typically lands far below.
#[test]
fn lazy_greedy_halves_evaluations_on_200x64() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0xCE1F);
    let (n, m) = (200usize, 64usize);
    let matrix = CostMatrix {
        costs: (0..n)
            .map(|_| (0..m).map(|_| rng.gen_range(1.0..500.0)).collect())
            .collect(),
        weights: (0..n).map(|_| rng.gen_range(0.5..4.0)).collect(),
        storage: (0..m)
            .map(|_| Bytes::new(rng.gen_range(1.0..30.0)))
            .collect(),
    };
    let budget = matrix.storage.iter().copied().sum::<Bytes>() * 0.4;
    let (lazy_sel, lazy) = select_greedy_with_stats(&matrix, budget);
    let naive = naive_greedy(&matrix, budget);
    assert_eq!(lazy_sel.chosen, naive.chosen);
    assert!(
        !lazy_sel.chosen.is_empty(),
        "instance must actually select something"
    );
    assert!(
        2 * lazy.gain_evaluations < naive.gain_evaluations,
        "lazy did {} evaluations, naive {} — expected < 50%",
        lazy.gain_evaluations,
        naive.gain_evaluations
    );
}
