//! Dense two-phase primal simplex over a full tableau.
//!
//! Sized for replica-selection relaxations (a few hundred rows, a few
//! thousand columns): no sparse factorisation, just a carefully
//! tolerant tableau with Dantzig pricing that falls back to Bland's rule
//! to guarantee termination under degeneracy.

// Dense simplex tableau — every row/column index is bounded by
// dimensions fixed when the tableau is built.
#![allow(clippy::indexing_slicing)]

use crate::{Problem, Relation};

/// Feasibility / optimality tolerance.
const EPS: f64 = 1e-9;
/// Minimum magnitude of an acceptable pivot element.
const PIVOT_TOL: f64 = 1e-7;

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve status; `objective`/`values` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal values of the structural variables.
    pub values: Vec<f64>,
    /// Simplex pivots performed (both phases).
    pub iterations: u64,
}

struct Tableau {
    /// `rows × cols` coefficient matrix, `rhs` kept separately.
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// Objective row (reduced costs) and its current value.
    z: Vec<f64>,
    z_value: f64,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    cols: usize,
    iterations: u64,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > PIVOT_TOL);
        let inv = 1.0 / piv;
        for v in &mut self.a[row] {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        self.a[row][col] = 1.0; // crush roundoff
        for r in 0..self.a.len() {
            if r == row {
                continue;
            }
            let factor = self.a[r][col];
            if factor.abs() <= EPS {
                self.a[r][col] = 0.0;
                continue;
            }
            for c in 0..self.cols {
                self.a[r][c] -= factor * self.a[row][c];
            }
            self.a[r][col] = 0.0;
            self.rhs[r] -= factor * self.rhs[row];
        }
        let zf = self.z[col];
        if zf.abs() > EPS {
            for c in 0..self.cols {
                self.z[c] -= zf * self.a[row][c];
            }
            self.z[col] = 0.0;
            self.z_value -= zf * self.rhs[row];
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Runs simplex iterations until optimal or unbounded.
    /// `allowed` masks the columns eligible to enter the basis.
    fn optimize(&mut self, allowed: &[bool]) -> LpStatus {
        let bland_after = 4 * (self.a.len() + self.cols) as u64;
        let start = self.iterations;
        loop {
            let use_bland = self.iterations - start > bland_after;
            // Pricing: most negative reduced cost (Dantzig), or first
            // negative (Bland) once degeneracy is suspected.
            let mut entering = None;
            let mut best = -EPS;
            for (c, &ok) in allowed.iter().enumerate() {
                if !ok {
                    continue;
                }
                if self.z[c] < best {
                    entering = Some(c);
                    if use_bland {
                        break;
                    }
                    best = self.z[c];
                }
            }
            let Some(col) = entering else {
                return LpStatus::Optimal;
            };
            // Ratio test (Bland tie-break: smallest basis index).
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let a = self.a[r][col];
                if a > PIVOT_TOL {
                    let ratio = self.rhs[r] / a;
                    let better = match leaving {
                        None => true,
                        Some((lr, lratio)) => {
                            ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leaving = Some((r, ratio));
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return LpStatus::Unbounded;
            };
            self.pivot(row, col);
        }
    }
}

/// Solves the linear relaxation of `problem` (integrality ignored;
/// binary variables keep their `[0, 1]` box via internal rows).
///
/// `extra_upper` optionally adds per-variable upper bounds on structural
/// variables (used by branch & bound to fix binaries); entries of
/// `f64::INFINITY` mean unbounded, and a negative lower-`fix` is not
/// supported — fixings are expressed as `[lo, hi]` boxes.
#[must_use]
pub fn solve_lp(problem: &Problem, bounds: Option<&[(f64, f64)]>) -> LpResult {
    let n = problem.num_vars();
    // Collect rows: user constraints plus binary boxes / branching boxes.
    // Each row: (coeffs, relation, rhs).
    type Row = (Vec<(usize, f64)>, Relation, f64);
    let mut rows: Vec<Row> = problem
        .constraints()
        .iter()
        .map(|c| (c.coeffs.clone(), c.relation, c.rhs))
        .collect();
    for j in 0..n {
        let (lo, hi) = bounds.map_or((0.0, f64::INFINITY), |b| b[j]);
        let hi = if problem.is_binary(j) {
            hi.min(1.0)
        } else {
            hi
        };
        if lo > 0.0 {
            rows.push((vec![(j, 1.0)], Relation::Ge, lo));
        }
        if hi.is_finite() {
            rows.push((vec![(j, 1.0)], Relation::Le, hi));
        }
    }
    let m = rows.len();

    // Column plan: structural | slack/surplus (one per row except Eq) |
    // artificials (rows needing them).
    let mut slack_col = vec![usize::MAX; m];
    let mut art_col = vec![usize::MAX; m];
    let mut next = n;
    for (i, row) in rows.iter().enumerate() {
        let positive_rhs = row.2 >= 0.0;
        let rel = row.1;
        // After normalising rhs ≥ 0, a Le row keeps a basic slack; Ge
        // rows get surplus + artificial; Eq rows get artificial only.
        let effective = match (rel, positive_rhs) {
            (Relation::Le, true) | (Relation::Ge, false) => Relation::Le,
            (Relation::Ge, true) | (Relation::Le, false) => Relation::Ge,
            (Relation::Eq, _) => Relation::Eq,
        };
        match effective {
            Relation::Le => {
                slack_col[i] = next;
                next += 1;
            }
            Relation::Ge => {
                slack_col[i] = next;
                next += 1;
                art_col[i] = next;
                next += 1;
            }
            Relation::Eq => {
                art_col[i] = next;
                next += 1;
            }
        }
    }
    let cols = next;

    let mut t = Tableau {
        a: vec![vec![0.0; cols]; m],
        rhs: vec![0.0; m],
        z: vec![0.0; cols],
        z_value: 0.0,
        basis: vec![usize::MAX; m],
        cols,
        iterations: 0,
    };
    for (i, (coeffs, rel, rhs)) in rows.iter().enumerate() {
        let flip = if *rhs < 0.0 { -1.0 } else { 1.0 };
        for &(j, c) in coeffs {
            t.a[i][j] += flip * c;
        }
        t.rhs[i] = flip * rhs;
        let effective = match (rel, flip > 0.0) {
            (Relation::Le, true) | (Relation::Ge, false) => Relation::Le,
            (Relation::Ge, true) | (Relation::Le, false) => Relation::Ge,
            (Relation::Eq, _) => Relation::Eq,
        };
        match effective {
            Relation::Le => {
                t.a[i][slack_col[i]] = 1.0;
                t.basis[i] = slack_col[i];
            }
            Relation::Ge => {
                t.a[i][slack_col[i]] = -1.0;
                t.a[i][art_col[i]] = 1.0;
                t.basis[i] = art_col[i];
            }
            Relation::Eq => {
                t.a[i][art_col[i]] = 1.0;
                t.basis[i] = art_col[i];
            }
        }
    }

    let has_artificials = art_col.iter().any(|&c| c != usize::MAX);
    let allowed_all = vec![true; cols];
    if has_artificials {
        // Phase 1: minimise the sum of artificials. Reduced costs start
        // as c - c_B B⁻¹ A with c = 1 on artificials, and the basis rows
        // containing artificials contribute -row each.
        for c in art_col.iter().filter(|&&c| c != usize::MAX) {
            t.z[*c] = 1.0;
        }
        for (i, &ac) in art_col.iter().enumerate() {
            if ac != usize::MAX && t.basis[i] == ac {
                for c in 0..cols {
                    t.z[c] -= t.a[i][c];
                }
                t.z_value -= t.rhs[i];
            }
        }
        let status = t.optimize(&allowed_all);
        debug_assert_ne!(status, LpStatus::Unbounded, "phase 1 is bounded below by 0");
        if -t.z_value > 1e-7 {
            // Σ artificials > 0 at optimum ⇒ no feasible point.
            return LpResult {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: vec![0.0; n],
                iterations: t.iterations,
            };
        }
        // Drive any zero-level artificial out of the basis if possible.
        for (i, &ac) in art_col.iter().enumerate() {
            if ac != usize::MAX && t.basis[i] == ac {
                if let Some(c) = (0..n).find(|&c| t.a[i][c].abs() > PIVOT_TOL) {
                    t.pivot(i, c);
                }
            }
        }
    }

    // Phase 2: real objective. Forbid artificial columns from re-entering.
    let mut allowed = vec![true; cols];
    for &c in &art_col {
        if c != usize::MAX {
            allowed[c] = false;
        }
    }
    t.z = vec![0.0; cols];
    t.z_value = 0.0;
    for (j, &c) in problem.objective().iter().enumerate() {
        t.z[j] = c;
    }
    for i in 0..m {
        let b = t.basis[i];
        let cb = if b < n { problem.objective()[b] } else { 0.0 };
        if cb != 0.0 {
            for c in 0..cols {
                t.z[c] -= cb * t.a[i][c];
            }
            t.z_value -= cb * t.rhs[i];
        }
    }
    let status = t.optimize(&allowed);
    if status == LpStatus::Unbounded {
        return LpResult {
            status,
            objective: f64::NEG_INFINITY,
            values: vec![0.0; n],
            iterations: t.iterations,
        };
    }

    let mut values = vec![0.0; n];
    for i in 0..m {
        if t.basis[i] < n {
            values[t.basis[i]] = t.rhs[i].max(0.0);
        }
    }
    let objective = problem.objective_value(&values);
    LpResult {
        status: LpStatus::Optimal,
        objective,
        values,
        iterations: t.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization_via_negation() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 (classic Dantzig).
        let mut p = Problem::new(2);
        p.set_objective(&[-3.0, -5.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -36.0);
        assert_close(r.values[0], 2.0);
        assert_close(r.values[1], 6.0);
    }

    #[test]
    fn ge_and_eq_constraints_need_phase_one() {
        // min 2x + 3y s.t. x + y = 10, x ≥ 3  → x=10? no: minimise picks
        // x as large as possible since 2 < 3: x = 10, y = 0? but x ≥ 3
        // already satisfied. Optimal: x = 10, y = 0, obj = 20.
        let mut p = Problem::new(2);
        p.set_objective(&[2.0, 3.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 20.0);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut p = Problem::new(1);
        p.set_objective(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_is_detected() {
        let mut p = Problem::new(1);
        p.set_objective(&[-1.0]);
        // x ≥ 0 only: minimising -x is unbounded.
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn binary_box_binds_the_relaxation() {
        let mut p = Problem::new(1);
        p.set_objective(&[-1.0]);
        p.mark_binary(0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -1.0);
        assert_close(r.values[0], 1.0);
    }

    #[test]
    fn branch_bounds_fix_variables() {
        let mut p = Problem::new(2);
        p.set_objective(&[-1.0, -1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 1.5);
        p.mark_binary(0);
        p.mark_binary(1);
        let r = solve_lp(&p, Some(&[(1.0, 1.0), (0.0, 0.0)]));
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.values[0], 1.0);
        assert_close(r.values[1], 0.0);
        // Contradictory fixing is infeasible.
        let r = solve_lp(&p, Some(&[(1.0, 1.0), (1.0, 1.0)]));
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // -x ≤ -3  ⇔  x ≥ 3.
        let mut p = Problem::new(1);
        p.set_objective(&[1.0]);
        p.add_constraint(&[(0, -1.0)], Relation::Le, -3.0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 3.0);
    }

    #[test]
    fn degenerate_problems_terminate() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::new(3);
        p.set_objective(&[-1.0, -2.0, -3.0]);
        for k in 1..=6 {
            let k = f64::from(k);
            p.add_constraint(&[(0, k), (1, k), (2, k)], Relation::Le, k * 10.0);
        }
        p.add_constraint(&[(0, 1.0)], Relation::Le, 10.0);
        p.add_constraint(&[(1, 1.0)], Relation::Le, 10.0);
        p.add_constraint(&[(2, 1.0)], Relation::Le, 10.0);
        let r = solve_lp(&p, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -30.0); // all budget on x2
    }
}
