//! The replica selection problem (§III): exact MIP, greedy, and
//! input-size reduction.
//!
//! Given the estimated cost of every workload query on every candidate
//! replica and each candidate's storage size, find `R* ⊆ R_C` with
//! `Storage(R*) ≤ b` minimising
//! `Cost(W, R) = Σᵢ wᵢ · min_{r ∈ R} Cost(qᵢ, r)` — proven at least
//! NP-complete by reduction from set covering (Theorem 1).

// Dense cost-matrix/clustering loops index within dimensions fixed at
// construction.
#![allow(clippy::indexing_slicing)]

use blot_geo::QuerySize;
use blot_index::PartitioningScheme;
use blot_mip::{MipSolver, Problem, Relation, SolveStats};
use blot_model::RecordBatch;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::cost::CostModel;
use crate::query::Workload;
use crate::replica::ReplicaConfig;
use crate::units::{Bytes, PartitionCount};
use crate::CoreError;

/// The input of the selection problem: `Cost(qᵢ, rⱼ)` for every workload
/// query and candidate replica, plus per-candidate storage sizes.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// `costs[i][j]` — estimated cost (simulated ms) of query `i` on
    /// candidate `j`.
    pub costs: Vec<Vec<f64>>,
    /// Query weights `wᵢ`.
    pub weights: Vec<f64>,
    /// `Storage(rⱼ)`.
    pub storage: Vec<Bytes>,
}

impl CostMatrix {
    /// Builds the matrix from a calibrated cost model, with the dataset
    /// size taken from the sample itself.
    #[must_use]
    pub fn estimate(
        model: &CostModel,
        workload: &Workload,
        candidates: &[ReplicaConfig],
        sample: &RecordBatch,
        universe: blot_geo::Cuboid,
    ) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let records = sample.len() as f64;
        Self::estimate_scaled(model, workload, candidates, sample, universe, records)
    }

    /// Builds the matrix for a dataset of `dataset_records` records
    /// whose distribution matches `sample` — the analytic scaling the
    /// paper uses for the Figure 6 data-size sweep ("we only need a
    /// small portion of the data to build the cost model and select
    /// diverse replicas for the whole dataset").
    #[must_use]
    pub fn estimate_scaled(
        model: &CostModel,
        workload: &Workload,
        candidates: &[ReplicaConfig],
        sample: &RecordBatch,
        universe: blot_geo::Cuboid,
        dataset_records: f64,
    ) -> Self {
        // Partitioning schemes and expected involvement depend only on
        // the spec, not the encoding: build and evaluate each spec once.
        let mut schemes: HashMap<blot_index::SchemeSpec, PartitioningScheme> = HashMap::new();
        for c in candidates {
            schemes
                .entry(c.spec)
                .or_insert_with(|| PartitioningScheme::build(sample, universe, c.spec));
        }
        let mut np: HashMap<(usize, blot_index::SchemeSpec), PartitionCount> = HashMap::new();
        for (i, (q, _)) in workload.entries().iter().enumerate() {
            for (&spec, scheme) in &schemes {
                np.insert((i, spec), CostModel::expected_involved(scheme, q.size));
            }
        }
        let costs = workload
            .entries()
            .iter()
            .enumerate()
            .map(|(i, _)| {
                candidates
                    .iter()
                    .map(|c| {
                        model
                            .cost_with_np(
                                np[&(i, c.spec)],
                                schemes[&c.spec].len(),
                                c.encoding,
                                dataset_records,
                            )
                            .get()
                    })
                    .collect()
            })
            .collect();
        let storage = candidates
            .iter()
            .map(|c| model.replica_storage_bytes(c.encoding, dataset_records))
            .collect();
        let weights = workload.entries().iter().map(|&(_, w)| w).collect();
        Self {
            costs,
            weights,
            storage,
        }
    }

    /// Number of workload queries `n`.
    #[must_use]
    pub fn n_queries(&self) -> usize {
        self.costs.len()
    }

    /// Number of candidate replicas `m`.
    #[must_use]
    pub fn n_candidates(&self) -> usize {
        self.storage.len()
    }

    /// `Cost(W, R)` for a chosen index set (Definition 7). The empty set
    /// costs `+∞`.
    #[must_use]
    pub fn workload_cost(&self, chosen: &[usize]) -> f64 {
        if chosen.is_empty() {
            return f64::INFINITY;
        }
        self.costs
            .iter()
            .zip(&self.weights)
            .map(|(row, w)| w * chosen.iter().map(|&j| row[j]).fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// Total storage of a chosen index set.
    #[must_use]
    pub fn storage_of(&self, chosen: &[usize]) -> Bytes {
        chosen.iter().map(|&j| self.storage[j]).sum()
    }

    /// The single replica with the lowest workload cost, ignoring any
    /// budget — the paper's "Single" baseline configuration.
    ///
    /// An empty matrix yields `(0, f64::INFINITY)`.
    #[must_use]
    pub fn optimal_single(&self) -> (usize, f64) {
        (0..self.n_candidates())
            .map(|j| (j, self.workload_cost(&[j])))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, f64::INFINITY))
    }

    /// Smallest single-candidate storage (useful for sizing budgets in
    /// examples). An empty matrix yields `+∞` bytes.
    #[must_use]
    pub fn cheapest_storage(&self) -> Bytes {
        self.storage
            .iter()
            .copied()
            .fold(Bytes::new(f64::INFINITY), Bytes::min)
    }
}

/// A selection outcome.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Indices of chosen candidates.
    pub chosen: Vec<usize>,
    /// `Cost(W, R)` of the chosen set.
    pub workload_cost: f64,
    /// `Storage(R)` of the chosen set.
    pub storage: Bytes,
    /// Whether this set is provably optimal for its matrix and budget
    /// (`true` only on the exact path with a closed search tree).
    pub proven_optimal: bool,
    /// Solver statistics when the MIP path produced this selection.
    pub stats: Option<SolveStats>,
}

/// `Cost(W, R_C)` with every candidate available — the unbeatable
/// "Ideal" line of Figures 4 and 6 (equivalent to an unlimited budget).
#[must_use]
pub fn ideal_cost(matrix: &CostMatrix) -> f64 {
    let all: Vec<usize> = (0..matrix.n_candidates()).collect();
    matrix.workload_cost(&all)
}

/// The paper's "Single" baseline: the best single replica that fits the
/// budget (the remaining budget is assumed to be spent on exact copies
/// for fault tolerance, which do not change query cost).
#[must_use]
pub fn select_single(matrix: &CostMatrix, budget: Bytes) -> Selection {
    let best = (0..matrix.n_candidates())
        .filter(|&j| matrix.storage[j] <= budget)
        .map(|j| (j, matrix.workload_cost(&[j])))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    match best {
        Some((j, cost)) => Selection {
            chosen: vec![j],
            workload_cost: cost,
            storage: matrix.storage[j],
            proven_optimal: false,
            stats: None,
        },
        None => Selection {
            chosen: Vec::new(),
            workload_cost: f64::INFINITY,
            storage: Bytes::ZERO,
            proven_optimal: false,
            stats: None,
        },
    }
}

/// Work counters for a greedy run, used to demonstrate (and test) the
/// lazy evaluation's advantage over a naive full-rescan loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyStats {
    /// Times the full `Σᵢ wᵢ·(best − cost)⁺` marginal gain was computed
    /// for some candidate.
    pub gain_evaluations: usize,
}

/// The marginal gain of adding candidate `j` given the per-query best
/// costs so far.
fn gain_of(matrix: &CostMatrix, best_cost: &[f64], j: usize) -> f64 {
    best_cost
        .iter()
        .enumerate()
        .map(|(i, &bc)| matrix.weights[i] * (bc - matrix.costs[i][j]).max(0.0))
        .sum()
}

/// The finite empty-set convention: `best_cost[i]` seeded with the worst
/// candidate per query, so the first pick maximises improvement per byte
/// exactly like later picks (the paper leaves `Cost(W, ∅)` implicit).
fn seed_best_cost(matrix: &CostMatrix) -> Vec<f64> {
    (0..matrix.n_queries())
        .map(|i| {
            matrix.costs[i]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// Wraps up a finished greedy run.
fn finish_greedy(matrix: &CostMatrix, budget: Bytes, chosen: Vec<usize>, used: Bytes) -> Selection {
    if chosen.is_empty() {
        // The finite empty-set convention yields zero gain when every
        // candidate is equally good (e.g. a single candidate): fall back
        // to the best affordable single replica, which is what Algorithm
        // 1 with Cost(W, ∅) = +∞ would have picked first.
        return select_single(matrix, budget);
    }
    let workload_cost = matrix.workload_cost(&chosen);
    Selection {
        chosen,
        workload_cost,
        storage: used,
        proven_optimal: false,
        stats: None,
    }
}

/// A lazy-greedy heap entry: a candidate with the score it had when it
/// was last evaluated (`round` identifies that evaluation). Ordered so
/// the max-heap pops the highest score first and, among equal scores,
/// the lowest candidate index — matching the naive loop's first-maximum
/// tie-break.
#[derive(Debug)]
struct CelfEntry {
    score: f64,
    round: usize,
    j: usize,
}

impl PartialEq for CelfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for CelfEntry {}
impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.j.cmp(&self.j))
    }
}

/// Algorithm 1: greedily add the replica maximising
/// `(Cost(W, R) − Cost(W, R ∪ {r})) / Storage(r)` until the budget is
/// exhausted or no candidate improves the cost.
///
/// Implemented as **lazy greedy** (CELF — Leskovec et al., KDD 2007):
/// the workload-cost improvement is monotone non-increasing in the
/// chosen set (adding replicas only lowers `best_cost`), so a
/// candidate's score from an earlier round is a valid *upper bound* on
/// its current score. Candidates sit in a max-heap keyed by these stale
/// bounds; a popped entry is re-evaluated only if stale, and a stale
/// entry that still tops the heap after re-evaluation is the true
/// argmax. Selections are bit-for-bit identical to the naive
/// full-rescan loop (the oracle in `tests/select_properties.rs`), with
/// far fewer gain evaluations.
#[must_use]
pub fn select_greedy(matrix: &CostMatrix, budget: Bytes) -> Selection {
    select_greedy_with_stats(matrix, budget).0
}

/// [`select_greedy`] with its work counters.
#[must_use]
pub fn select_greedy_with_stats(matrix: &CostMatrix, budget: Bytes) -> (Selection, GreedyStats) {
    let mut stats = GreedyStats::default();
    let mut best_cost = seed_best_cost(matrix);
    let mut chosen: Vec<usize> = Vec::new();
    let mut used = Bytes::ZERO;
    let mut heap: std::collections::BinaryHeap<CelfEntry> = std::collections::BinaryHeap::new();

    if used < budget {
        for j in 0..matrix.n_candidates() {
            if used + matrix.storage[j] > budget {
                continue; // the budget only shrinks: never affordable
            }
            stats.gain_evaluations += 1;
            let gain = gain_of(matrix, &best_cost, j);
            if gain <= 0.0 {
                continue; // gains only shrink: never selectable
            }
            heap.push(CelfEntry {
                score: gain / matrix.storage[j].get(),
                round: 0,
                j,
            });
        }
    }

    let mut round = 0usize;
    while used < budget {
        let Some(entry) = heap.pop() else {
            break;
        };
        if used + matrix.storage[entry.j] > budget {
            continue; // permanently discard: `used` never decreases
        }
        if entry.round != round {
            // Stale upper bound: refresh and re-insert. If it still
            // surfaces first, it is the true maximum.
            stats.gain_evaluations += 1;
            let gain = gain_of(matrix, &best_cost, entry.j);
            if gain <= 0.0 {
                continue; // monotone: this candidate is dead for good
            }
            heap.push(CelfEntry {
                score: gain / matrix.storage[entry.j].get(),
                round,
                j: entry.j,
            });
            continue;
        }
        // Fresh entry on top: every other candidate's true score is
        // bounded by its (stale or fresh) key ≤ this score — select it.
        for (i, bc) in best_cost.iter_mut().enumerate() {
            *bc = bc.min(matrix.costs[i][entry.j]);
        }
        used += matrix.storage[entry.j];
        chosen.push(entry.j);
        round += 1;
    }
    (finish_greedy(matrix, budget, chosen, used), stats)
}

/// Builds the 0-1 MIP of Equations 1–5 for a selection instance.
///
/// Variable layout: `x_j = j` for `j < m`, then `y_ij = m + i·m + j`.
/// Costs are normalised by their maximum and storage by the budget for
/// simplex conditioning; the optimal *set* is unaffected.
#[must_use]
pub fn build_selection_problem(matrix: &CostMatrix, budget: Bytes) -> Problem {
    let n = matrix.n_queries();
    let m = matrix.n_candidates();
    let num_vars = m + n * m;
    let mut p = Problem::new(num_vars);

    let max_cost = matrix
        .costs
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut objective = vec![0.0; num_vars];
    for i in 0..n {
        for j in 0..m {
            objective[m + i * m + j] = matrix.weights[i] * matrix.costs[i][j] / max_cost;
        }
    }
    p.set_objective(&objective);

    // Eq. 1: storage budget (normalised to dimensionless ratios).
    let budget_scale = if budget > Bytes::ZERO {
        budget
    } else {
        Bytes::new(1.0)
    };
    let storage_row: Vec<(usize, f64)> = (0..m)
        .map(|j| (j, matrix.storage[j] / budget_scale))
        .collect();
    p.add_constraint(&storage_row, Relation::Le, budget / budget_scale);

    // Eq. 2: each query processed on exactly one replica.
    for i in 0..n {
        let row: Vec<(usize, f64)> = (0..m).map(|j| (m + i * m + j, 1.0)).collect();
        p.add_constraint(&row, Relation::Eq, 1.0);
    }

    // Eq. 4: Σ_i y_ij ≤ n · x_j (the paper's m-row relaxation of Eq. 3).
    #[allow(clippy::cast_precision_loss)]
    for j in 0..m {
        let mut row: Vec<(usize, f64)> = (0..n).map(|i| (m + i * m + j, 1.0)).collect();
        row.push((j, -(n as f64)));
        p.add_constraint(&row, Relation::Le, 0.0);
    }

    for j in 0..m {
        p.mark_binary(j);
    }
    p
}

/// The exact solution (§III-B): the 0-1 MIP of Equations 1–5 solved by
/// branch & bound.
///
/// Variables: `x_j` (replica chosen, binary) and `y_ij` (query `i`
/// answered on replica `j`, continuous — integral at any optimum).
/// Constraints: `Σ storage_j x_j ≤ b` (Eq. 1), `Σ_j y_ij = 1` (Eq. 2),
/// and the aggregated linking rows `Σ_i y_ij ≤ n·x_j` (Eq. 4, the
/// paper's m-row relaxation of the n×m rows of Eq. 3).
///
/// # Errors
///
/// [`CoreError::Mip`] when no candidate subset fits the budget or the
/// node budget of `solver` is exhausted.
pub fn select_mip(
    matrix: &CostMatrix,
    budget: Bytes,
    solver: &MipSolver,
) -> Result<Selection, CoreError> {
    let n = matrix.n_queries();
    let m = matrix.n_candidates();
    let p = build_selection_problem(matrix, budget);
    let num_vars = p.num_vars();

    // Warm-start from the greedy solution: a feasible incumbent lets
    // branch & bound prune aggressively from the first node.
    let greedy = select_greedy(matrix, budget);
    let seed = if greedy.chosen.is_empty() {
        None
    } else {
        let mut values = vec![0.0; num_vars];
        for &j in &greedy.chosen {
            values[j] = 1.0;
        }
        for i in 0..n {
            // `chosen` is non-empty on this branch, so the minimum
            // exists; a missing entry would only weaken the warm start.
            let Some(best) = greedy
                .chosen
                .iter()
                .copied()
                .min_by(|&a, &b| matrix.costs[i][a].total_cmp(&matrix.costs[i][b]))
            else {
                continue;
            };
            values[m + i * m + best] = 1.0;
        }
        Some(values)
    };

    let sol = solver.solve_seeded(&p, seed.as_deref())?;
    let chosen: Vec<usize> = (0..m).filter(|&j| sol.values[j] > 0.5).collect();
    // Report the true (unnormalised) workload cost of the chosen set.
    let workload_cost = matrix.workload_cost(&chosen);
    Ok(Selection {
        storage: matrix.storage_of(&chosen),
        chosen,
        workload_cost,
        proven_optimal: sol.proven_optimal,
        stats: Some(sol.stats),
    })
}

/// Dominance pruning (§III-C2): returns the indices that survive.
///
/// A candidate is pruned when a single cheaper-or-equal candidate is at
/// least as good on every query (single dominance), or when a *pair* of
/// candidates with combined storage within `storage(r)` beats it
/// everywhere (the paper's replica-set dominance, applied to sets of
/// size ≤ 2 — finding a minimum dominant set is itself NP-complete, so
/// this is the "rough yet effective heuristic").
#[must_use]
pub fn prune_dominated(matrix: &CostMatrix) -> Vec<usize> {
    let m = matrix.n_candidates();
    let n = matrix.n_queries();
    let dominates_single = |a: usize, b: usize| {
        matrix.storage[a] <= matrix.storage[b]
            && (0..n).all(|i| matrix.costs[i][a] <= matrix.costs[i][b])
            && (matrix.storage[a] < matrix.storage[b]
                || (0..n).any(|i| matrix.costs[i][a] < matrix.costs[i][b]))
    };
    let mut alive: Vec<bool> = vec![true; m];
    // Single dominance.
    for b in 0..m {
        for a in 0..m {
            if a != b && alive[a] && dominates_single(a, b) {
                alive[b] = false;
                break;
            }
        }
    }
    // Pair dominance among survivors.
    let survivors: Vec<usize> = (0..m).filter(|&j| alive[j]).collect();
    for &b in &survivors {
        'outer: for (ai, &a1) in survivors.iter().enumerate() {
            if a1 == b || !alive[a1] || !alive[b] {
                continue;
            }
            for &a2 in survivors.iter().skip(ai + 1) {
                if a2 == b || !alive[a2] {
                    continue;
                }
                if matrix.storage[a1] + matrix.storage[a2] <= matrix.storage[b]
                    && (0..n)
                        .all(|i| matrix.costs[i][a1].min(matrix.costs[i][a2]) <= matrix.costs[i][b])
                {
                    alive[b] = false;
                    break 'outer;
                }
            }
        }
    }
    (0..m).filter(|&j| alive[j]).collect()
}

/// Workload-size reduction by k-means over range sizes (§III-C1): "if
/// the number of different range sizes is still large, we can use
/// clustering algorithms such as K-means to cluster the range sizes and
/// only use the cluster centers".
///
/// Axes are rescaled by their spread so heterogeneous units (degrees vs
/// seconds) contribute comparably. Returns `k` grouped queries weighted
/// by their member counts (fewer if there are fewer distinct sizes).
#[must_use]
pub fn kmeans_group(sizes: &[QuerySize], k: usize, seed: u64) -> Workload {
    use crate::query::GroupedQuery;
    if sizes.is_empty() || k == 0 {
        return Workload::new(Vec::new());
    }
    let k = k.min(sizes.len());
    // Axis scales: inverse of spread (fall back to 1 for constant axes).
    let mut scale = [1.0f64; 3];
    for (axis, sc) in scale.iter_mut().enumerate() {
        let lo = sizes
            .iter()
            .map(|s| s.axis(axis))
            .fold(f64::INFINITY, f64::min);
        let hi = sizes
            .iter()
            .map(|s| s.axis(axis))
            .fold(f64::NEG_INFINITY, f64::max);
        if hi > lo {
            *sc = 1.0 / (hi - lo);
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // k-means++-light seeding: first centre random, then farthest-point.
    let mut centres: Vec<QuerySize> = vec![sizes[rng.gen_range(0..sizes.len())]];
    while centres.len() < k {
        // `sizes` is non-empty (guarded above), so a farthest point
        // always exists.
        let Some(far) = sizes.iter().max_by(|a, b| {
            let da = centres
                .iter()
                .map(|c| a.distance(c, scale))
                .fold(f64::INFINITY, f64::min);
            let db = centres
                .iter()
                .map(|c| b.distance(c, scale))
                .fold(f64::INFINITY, f64::min);
            da.total_cmp(&db)
        }) else {
            break;
        };
        centres.push(*far);
    }
    let mut assignment = vec![0usize; sizes.len()];
    for _ in 0..32 {
        let mut changed = false;
        for (i, s) in sizes.iter().enumerate() {
            let Some(best) = (0..centres.len()).min_by(|&a, &b| {
                s.distance(&centres[a], scale)
                    .total_cmp(&s.distance(&centres[b], scale))
            }) else {
                continue;
            };
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centres as member means.
        for (c, centre) in centres.iter_mut().enumerate() {
            let members: Vec<&QuerySize> = sizes
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == c)
                .map(|(s, _)| s)
                .collect();
            if members.is_empty() {
                continue;
            }
            let nf = members.len() as f64;
            *centre = QuerySize::new(
                members.iter().map(|s| s.w).sum::<f64>() / nf,
                members.iter().map(|s| s.h).sum::<f64>() / nf,
                members.iter().map(|s| s.t).sum::<f64>() / nf,
            );
        }
        if !changed {
            break;
        }
    }
    let entries = centres
        .into_iter()
        .enumerate()
        .filter_map(|(c, centre)| {
            let count = assignment.iter().filter(|&&a| a == c).count();
            (count > 0).then_some((GroupedQuery::new(centre), count as f64))
        })
        .collect();
    Workload::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built matrix where the right answers are obvious:
    /// candidate 0 is great for query 0, candidate 1 for query 1,
    /// candidate 2 mediocre at both but cheap, candidate 3 dominated.
    fn toy_matrix() -> CostMatrix {
        CostMatrix {
            costs: vec![vec![1.0, 100.0, 30.0, 40.0], vec![100.0, 1.0, 30.0, 40.0]],
            weights: vec![1.0, 1.0],
            storage: vec![Bytes::new(10.0); 4],
        }
    }

    #[test]
    fn workload_cost_takes_min_per_query() {
        let m = toy_matrix();
        assert_eq!(m.workload_cost(&[0]), 101.0);
        assert_eq!(m.workload_cost(&[0, 1]), 2.0);
        assert_eq!(m.workload_cost(&[2]), 60.0);
        assert_eq!(m.workload_cost(&[]), f64::INFINITY);
    }

    #[test]
    fn single_picks_the_best_affordable() {
        let m = toy_matrix();
        let s = select_single(&m, Bytes::new(10.0));
        assert_eq!(s.chosen, vec![2]);
        assert_eq!(s.workload_cost, 60.0);
        let none = select_single(&m, Bytes::new(5.0));
        assert!(none.chosen.is_empty());
        assert!(none.workload_cost.is_infinite());
    }

    #[test]
    fn greedy_is_greedy_and_mip_beats_it_on_the_toy() {
        // Classic greedy trap: the balanced candidate 2 has the largest
        // first-step gain (140 vs 99), so greedy spends half the budget
        // on it and ends at {2, 0} with cost 31 — while the exact
        // optimum is the complementary pair {0, 1} with cost 2. This is
        // exactly the approximation gap Figures 4/6 measure.
        let m = toy_matrix();
        let greedy = select_greedy(&m, Bytes::new(20.0));
        let mut chosen = greedy.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 2]);
        assert_eq!(greedy.workload_cost, 31.0);
        assert_eq!(greedy.storage, Bytes::new(20.0));
        let mip = select_mip(&m, Bytes::new(20.0), &MipSolver::default()).unwrap();
        assert!(mip.workload_cost < greedy.workload_cost);
    }

    #[test]
    fn greedy_finds_the_pair_given_room() {
        // With budget for three replicas greedy recovers: after the
        // generalist it still adds both specialists.
        let m = toy_matrix();
        let s = select_greedy(&m, Bytes::new(30.0));
        assert_eq!(s.workload_cost, 2.0);
        assert!(s.chosen.contains(&0) && s.chosen.contains(&1));
    }

    #[test]
    fn greedy_respects_budget() {
        let m = toy_matrix();
        let s = select_greedy(&m, Bytes::new(10.0));
        assert_eq!(s.chosen.len(), 1);
        assert!(s.storage <= Bytes::new(10.0));
        // With one slot, the balanced candidate wins.
        assert_eq!(s.chosen, vec![2]);
    }

    #[test]
    fn mip_matches_brute_force_on_toy() {
        let m = toy_matrix();
        let sel = select_mip(&m, Bytes::new(20.0), &MipSolver::default()).unwrap();
        assert_eq!(sel.workload_cost, 2.0);
        let mut chosen = sel.chosen.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1]);
        assert!(sel.stats.is_some());
    }

    #[test]
    fn mip_is_never_worse_than_greedy() {
        // Random matrices: exactness means mip ≤ greedy everywhere.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(2..5);
            let m = rng.gen_range(2..7);
            let matrix = CostMatrix {
                costs: (0..n)
                    .map(|_| (0..m).map(|_| rng.gen_range(1.0..100.0)).collect())
                    .collect(),
                weights: (0..n).map(|_| rng.gen_range(0.5..2.0)).collect(),
                storage: (0..m)
                    .map(|_| Bytes::new(rng.gen_range(1.0..20.0)))
                    .collect(),
            };
            let budget = matrix.storage.iter().copied().sum::<Bytes>() * 0.5;
            let greedy = select_greedy(&matrix, budget);
            let mip = select_mip(&matrix, budget, &MipSolver::default()).unwrap();
            assert!(
                mip.workload_cost <= greedy.workload_cost + 1e-6,
                "mip {} > greedy {}",
                mip.workload_cost,
                greedy.workload_cost
            );
            assert!(mip.storage <= budget + Bytes::new(1e-6));
        }
    }

    #[test]
    fn ideal_is_a_lower_bound() {
        let m = toy_matrix();
        let ideal = ideal_cost(&m);
        assert_eq!(ideal, 2.0);
        for budget in [10.0, 20.0, 40.0] {
            assert!(select_greedy(&m, Bytes::new(budget)).workload_cost >= ideal - 1e-12);
        }
    }

    #[test]
    fn pruning_drops_dominated_candidates_only() {
        let m = toy_matrix();
        let kept = prune_dominated(&m);
        // Candidate 3 is singly dominated by candidate 2.
        assert!(!kept.contains(&3));
        assert!(kept.contains(&0) && kept.contains(&1));
        // Pruning never changes the optimum.
        let budget = Bytes::new(20.0);
        let full = select_mip(&m, budget, &MipSolver::default()).unwrap();
        let sub = CostMatrix {
            costs: m
                .costs
                .iter()
                .map(|row| kept.iter().map(|&j| row[j]).collect())
                .collect(),
            weights: m.weights.clone(),
            storage: kept.iter().map(|&j| m.storage[j]).collect(),
        };
        let pruned = select_mip(&sub, budget, &MipSolver::default()).unwrap();
        assert!((full.workload_cost - pruned.workload_cost).abs() < 1e-9);
    }

    #[test]
    fn pair_dominance_prunes_expensive_generalists() {
        // Candidate 2 is strictly worse than {0, 1} and costs as much.
        let m = CostMatrix {
            costs: vec![vec![1.0, 50.0, 5.0], vec![50.0, 1.0, 5.0]],
            weights: vec![1.0, 1.0],
            storage: vec![Bytes::new(5.0), Bytes::new(5.0), Bytes::new(10.0)],
        };
        let kept = prune_dominated(&m);
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn kmeans_groups_repeated_sizes() {
        let mut sizes = Vec::new();
        for _ in 0..30 {
            sizes.push(QuerySize::new(0.1, 0.1, 100.0));
        }
        for _ in 0..10 {
            sizes.push(QuerySize::new(1.5, 1.5, 5_000.0));
        }
        let w = kmeans_group(&sizes, 2, 42);
        assert_eq!(w.len(), 2);
        let mut weights: Vec<f64> = w.entries().iter().map(|&(_, wt)| wt).collect();
        weights.sort_by(f64::total_cmp);
        assert_eq!(weights, vec![10.0, 30.0]);
        // Centres sit on the two original sizes.
        let mut ws: Vec<f64> = w.entries().iter().map(|(q, _)| q.size.w).collect();
        ws.sort_by(f64::total_cmp);
        assert!((ws[0] - 0.1).abs() < 1e-9 && (ws[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn kmeans_handles_degenerate_inputs() {
        assert!(kmeans_group(&[], 3, 1).is_empty());
        let one = vec![QuerySize::new(1.0, 1.0, 1.0)];
        let w = kmeans_group(&one, 5, 1);
        assert_eq!(w.len(), 1);
        assert_eq!(w.entries()[0].1, 1.0);
    }
}
