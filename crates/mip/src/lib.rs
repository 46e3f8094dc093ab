//! 0-1 Mixed Integer Programming for the BLOT replica selection problem.
//!
//! §III-B of the paper solves replica selection exactly by handing a 0-1
//! MIP to a solver. No solver crate is available offline, so this crate
//! implements the whole stack from scratch:
//!
//! * `lp` — a dense two-phase primal simplex for linear relaxations
//!   (exposed as [`solve_lp`]);
//! * `branch_bound` — best-first branch & bound over the binary
//!   variables (exposed as [`MipSolver`]), using LP bounds, fractional
//!   branching and incumbent pruning;
//! * [`Problem`] — a small modelling API (minimise, `≤`/`≥`/`=` rows,
//!   binary markers).
//!
//! The solver is exact: on every instance where brute force is feasible,
//! branch & bound provably returns the same optimum (see the property
//! tests). Solve time grows exponentially with the number of binaries,
//! which is precisely the behaviour Figure 3 of the paper measures.
//!
//! # Example
//!
//! ```
//! use blot_mip::{Problem, Relation, MipSolver};
//!
//! // Knapsack: maximise 3a + 4b (= minimise -3a - 4b) with a + 2b ≤ 2.
//! let mut p = Problem::new(2);
//! p.set_objective(&[-3.0, -4.0]);
//! p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 2.0);
//! p.mark_binary(0);
//! p.mark_binary(1);
//! let sol = MipSolver::default().solve(&p).unwrap();
//! assert_eq!(sol.objective, -4.0); // take b
//! assert_eq!(sol.values, vec![0.0, 1.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

mod branch_bound;
mod lp;
mod problem;

pub use branch_bound::{MipSolution, MipSolver, SolveStats};
pub use lp::{solve_lp, LpResult, LpStatus};
pub use problem::{Constraint, MipError, Problem, Relation};

/// Exhaustive 0-1 search, exponential in the number of binaries.
///
/// Exists to cross-check the branch & bound solver in tests and to make
/// small instances debuggable; refuses instances with more than 24
/// binaries.
///
/// Returns the optimal solution, or `None` when no assignment is
/// feasible.
///
/// # Panics
///
/// Panics if the problem has more than 24 binary variables.
#[must_use]
pub fn solve_brute_force(problem: &Problem) -> Option<MipSolution> {
    let binaries: Vec<usize> = (0..problem.num_vars())
        .filter(|&j| problem.is_binary(j))
        .collect();
    assert!(binaries.len() <= 24, "brute force limited to 24 binaries");
    assert!(
        binaries.len() == problem.num_vars(),
        "brute force requires a pure 0-1 problem"
    );
    let mut best: Option<MipSolution> = None;
    for mask in 0u64..(1 << binaries.len()) {
        let values: Vec<f64> = (0..binaries.len())
            .map(|j| f64::from(u8::from(mask >> j & 1 == 1)))
            .collect();
        if !problem.is_feasible(&values, 1e-9) {
            continue;
        }
        let obj = problem.objective_value(&values);
        if best.as_ref().is_none_or(|b| obj < b.objective) {
            best = Some(MipSolution {
                objective: obj,
                values: values.clone(),
                proven_optimal: true,
                stats: SolveStats::default(),
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_knapsack() {
        let mut p = Problem::new(3);
        p.set_objective(&[-5.0, -4.0, -3.0]);
        p.add_constraint(&[(0, 2.0), (1, 3.0), (2, 1.0)], Relation::Le, 4.0);
        for j in 0..3 {
            p.mark_binary(j);
        }
        let sol = solve_brute_force(&p).unwrap();
        // Best is items 0 and 2: weight 3 ≤ 4, value 8.
        assert_eq!(sol.objective, -8.0);
        assert_eq!(sol.values, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn brute_force_detects_infeasible() {
        let mut p = Problem::new(1);
        p.set_objective(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        p.mark_binary(0);
        assert!(solve_brute_force(&p).is_none());
    }
}
