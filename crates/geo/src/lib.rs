//! Spatio-temporal geometry kernel for BLOT systems.
//!
//! BLOT ("Big LOcation Tracking") systems, as described in *Exploring the
//! Use of Diverse Replicas for Big Location Tracking Data* (Ding et al.,
//! ICDCS 2014), organise location tracking records inside a three
//! dimensional universe: two spatial axes (`x`, `y`) and one temporal axis
//! (`t`). Every partition and every range query is an axis-aligned cuboid
//! in this space.
//!
//! This crate provides the small, dependency-free geometric vocabulary
//! shared by all the other `blot-*` crates:
//!
//! * [`Point`] — a point in (x, y, t) space,
//! * [`Cuboid`] — an axis-aligned box, used for partitions, queries and
//!   the dataset universe,
//! * [`QuerySize`] — the ⟨W, H, T⟩ extent of a *grouped query* (a query
//!   whose position is unknown but whose size is fixed, Definition 6 of
//!   the paper as adjusted in §III-C1),
//! * the *centroid-range* algebra of §IV-B used by the query cost model
//!   (Equations 8–12): [`Cuboid::centroid_range`],
//!   [`Cuboid::centroid_range_for`], and
//!   [`intersection_probability`].
//!
//! # Example
//!
//! ```
//! use blot_geo::{Cuboid, Point, QuerySize, intersection_probability};
//!
//! // A universe: 2° × 2° of Shanghai for one month of seconds.
//! let universe = Cuboid::new(Point::new(120.0, 30.0, 0.0),
//!                            Point::new(122.0, 32.0, 2.6e6));
//! // A partition covering the south-west spatial quadrant, first half in time.
//! let part = Cuboid::new(Point::new(120.0, 30.0, 0.0),
//!                        Point::new(121.0, 31.0, 1.3e6));
//! // Grouped queries of size 0.2° × 0.2° × 1 day.
//! let qs = QuerySize::new(0.2, 0.2, 86_400.0);
//! let p = intersection_probability(&universe, qs, &part);
//! assert!(p > 0.0 && p <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cuboid;
mod json;
mod point;
mod query_size;

pub use cuboid::Cuboid;
pub use point::Point;
pub use query_size::QuerySize;

/// Probability that a random query of size `qs`, with centroid uniformly
/// distributed over the feasible centroid range of `universe`, intersects
/// the fixed `partition` (Equation 12 of the paper).
///
/// The probability is computed independently per axis and multiplied:
/// the centroid is uniform on a cuboid, so the axis coordinates are
/// independent uniform variables.
///
/// Degenerate axes — a query at least as large as the universe on an axis
/// — always intersect every partition on that axis, contributing a factor
/// of `1`.
///
/// Partitions are assumed to lie inside `universe`; parts of a partition
/// outside the universe cannot attract any query centroid and are
/// effectively clipped.
#[must_use]
pub fn intersection_probability(universe: &Cuboid, qs: QuerySize, partition: &Cuboid) -> f64 {
    let mut p = 1.0;
    for axis in 0..3 {
        let u_lo = universe.min().axis(axis);
        let u_hi = universe.max().axis(axis);
        let u_len = u_hi - u_lo;
        let q_len = qs.axis(axis);
        // Feasible centroid interval: [u_lo + q/2, u_hi - q/2], or the
        // universe midpoint when the query spans the whole axis.
        let (c_lo, c_hi) = if q_len >= u_len {
            let mid = (u_lo + u_hi) / 2.0;
            (mid, mid)
        } else {
            (u_lo + q_len / 2.0, u_hi - q_len / 2.0)
        };
        // Centroids whose query touches the partition on this axis.
        let lo = (partition.min().axis(axis) - q_len / 2.0).max(c_lo);
        let hi = (partition.max().axis(axis) + q_len / 2.0).min(c_hi);
        if hi < lo || (hi == lo && c_hi > c_lo) {
            return 0.0;
        }
        if c_hi > c_lo {
            p *= (hi - lo) / (c_hi - c_lo);
        }
        // Degenerate interval (single possible centroid position):
        // probability on this axis is 1 if that centroid reaches the
        // partition, which the bounds check above already decided.
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Cuboid {
        Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(10.0, 10.0, 10.0))
    }

    #[test]
    fn probability_of_full_cover_partition_is_one() {
        let u = universe();
        let p = intersection_probability(&u, QuerySize::new(1.0, 1.0, 1.0), &u);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_scales_with_partition_extent() {
        let u = universe();
        let half = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(5.0, 10.0, 10.0));
        let quarter = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(2.5, 10.0, 10.0));
        let qs = QuerySize::new(1.0, 1.0, 1.0);
        let p_half = intersection_probability(&u, qs, &half);
        let p_quarter = intersection_probability(&u, qs, &quarter);
        assert!(p_half > p_quarter);
        // Expanded by half a query on each side, over a 9-long feasible range.
        assert!((p_half - (5.0 + 0.5 - 0.5) / 9.0).abs() < 1e-12);
    }

    #[test]
    fn probability_one_when_query_spans_universe() {
        let u = universe();
        let tiny = Cuboid::new(Point::new(4.0, 4.0, 4.0), Point::new(4.1, 4.1, 4.1));
        let qs = QuerySize::new(10.0, 10.0, 10.0);
        let p = intersection_probability(&u, qs, &tiny);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_on_one_axis_yields_zero_probability_only_if_unreachable() {
        // A partition glued to the west border with queries so small they
        // can sit entirely in the east: probability strictly between 0 and 1.
        let u = universe();
        let west = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 10.0, 10.0));
        let p = intersection_probability(&u, QuerySize::new(0.5, 0.5, 0.5), &west);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn monte_carlo_agreement() {
        use rand::{Rng, SeedableRng};
        let u = universe();
        let part = Cuboid::new(Point::new(2.0, 3.0, 1.0), Point::new(4.5, 6.0, 7.0));
        let qs = QuerySize::new(1.5, 2.0, 3.0);
        let analytic = intersection_probability(&u, qs, &part);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let mut hits = 0u32;
        let n = 200_000;
        for _ in 0..n {
            let cx = rng.gen_range(0.75..=9.25);
            let cy = rng.gen_range(1.0..=9.0);
            let ct = rng.gen_range(1.5..=8.5);
            let q = Cuboid::from_centroid(Point::new(cx, cy, ct), qs);
            if q.intersects(&part) {
                hits += 1;
            }
        }
        let empirical = f64::from(hits) / f64::from(n);
        assert!(
            (analytic - empirical).abs() < 0.01,
            "analytic={analytic} empirical={empirical}"
        );
    }
}
