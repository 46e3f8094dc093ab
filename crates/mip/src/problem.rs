//! Modelling API: minimisation problems over non-negative variables.

use std::fmt;

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One linear constraint in sparse form.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; unmentioned variables have
    /// coefficient 0.
    pub coeffs: Vec<(usize, f64)>,
    /// Row relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimisation problem over non-negative variables, some of which may
/// be marked binary (0-1).
///
/// Continuous variables are bounded below by 0 and above only by the
/// constraints; binary variables additionally get an implicit `x ≤ 1`
/// bound and an integrality requirement enforced by branch & bound.
#[derive(Debug, Clone)]
pub struct Problem {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    binary: Vec<bool>,
}

/// Error from the MIP solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MipError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The LP relaxation is unbounded below.
    Unbounded,
    /// The node budget was exhausted before the tree was closed.
    NodeLimit {
        /// Nodes explored before giving up.
        explored: u64,
    },
}

impl fmt::Display for MipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "problem is infeasible"),
            Self::Unbounded => write!(f, "LP relaxation is unbounded"),
            Self::NodeLimit { explored } => {
                write!(f, "node limit reached after exploring {explored} nodes")
            }
        }
    }
}

impl std::error::Error for MipError {}

impl Problem {
    /// Creates a problem with `num_vars` continuous non-negative
    /// variables and a zero objective.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
            binary: vec![false; num_vars],
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constraint rows.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective coefficient vector.
    #[must_use]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Sets the minimisation objective.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars` or any coefficient is not
    /// finite.
    pub fn set_objective(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.num_vars, "objective length mismatch");
        assert!(
            coeffs.iter().all(|c| c.is_finite()),
            "objective must be finite"
        );
        self.objective.copy_from_slice(coeffs);
    }

    /// Adds the constraint `Σ coeffs ⋆ relation ⋆ rhs`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range variable indices or non-finite numbers.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        for &(j, c) in coeffs {
            assert!(j < self.num_vars, "variable index {j} out of range");
            assert!(c.is_finite(), "coefficient must be finite");
        }
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
    }

    /// Marks variable `j` as binary (0-1, integral).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn mark_binary(&mut self, j: usize) {
        assert!(j < self.num_vars, "variable index {j} out of range");
        if let Some(b) = self.binary.get_mut(j) {
            *b = true;
        }
    }

    /// Whether variable `j` is binary.
    #[must_use]
    pub fn is_binary(&self, j: usize) -> bool {
        self.binary.get(j).copied().unwrap_or(false)
    }

    /// Indices of the binary variables.
    #[must_use]
    pub fn binary_vars(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&j| self.is_binary(j)).collect()
    }

    /// Objective value of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars`.
    #[must_use]
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.num_vars);
        self.objective.iter().zip(values).map(|(c, v)| c * v).sum()
    }

    /// Whether an assignment satisfies every constraint (and the [0, 1]
    /// box of binary variables) within `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars`.
    #[must_use]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        assert_eq!(values.len(), self.num_vars);
        for (j, &v) in values.iter().enumerate() {
            if v < -tol {
                return false;
            }
            if self.is_binary(j) && v > 1.0 + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c
                .coeffs
                .iter()
                .map(|&(j, a)| a * values.get(j).copied().unwrap_or(0.0))
                .sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

// Compile-time guarantee that the error type is usable across threads
// and in `Box<dyn Error>` chains; `cargo xtask lint` (rule
// `error-traits`) checks that this assertion exists.
const _: () = {
    const fn require_error_traits<E: std::error::Error + Send + Sync>() {}
    require_error_traits::<MipError>()
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_checks_all_relations() {
        let mut p = Problem::new(2);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 3.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(1, 2.0)], Relation::Eq, 2.0);
        assert!(p.is_feasible(&[2.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 1.0], 1e-9)); // violates Ge
        assert!(!p.is_feasible(&[2.0, 1.5], 1e-9)); // violates Eq and Le
        assert!(!p.is_feasible(&[-0.1, 1.0], 1e-9)); // negative
    }

    #[test]
    fn binary_box_is_enforced() {
        let mut p = Problem::new(1);
        p.mark_binary(0);
        assert!(p.is_feasible(&[1.0], 1e-9));
        assert!(!p.is_feasible(&[1.5], 1e-9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut p = Problem::new(1);
        p.add_constraint(&[(3, 1.0)], Relation::Le, 0.0);
    }

    #[test]
    fn objective_value_is_dot_product() {
        let mut p = Problem::new(3);
        p.set_objective(&[1.0, -2.0, 0.5]);
        assert_eq!(p.objective_value(&[1.0, 1.0, 2.0]), 0.0);
    }
}
