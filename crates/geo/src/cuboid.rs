use crate::{Point, QuerySize};

/// An axis-aligned cuboid in (x, y, t) space.
///
/// Cuboids represent the dataset universe `U`, space partitions `p_i`
/// (Definition 1/2 of the paper) and the ranges of concrete queries
/// (Definition 6). A cuboid is half-open conceptually — records on shared
/// partition boundaries are assigned to exactly one partition by the
/// partitioner — but intersection tests here are closed, matching the
/// paper's `Range(p) ∩ Range(q) ≠ ∅` involvement test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cuboid {
    min: Point,
    max: Point,
}

impl Cuboid {
    /// Creates a cuboid from its minimum and maximum corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` exceeds `max` on any axis or any coordinate is NaN.
    #[must_use]
    pub fn new(min: Point, max: Point) -> Self {
        for axis in 0..3 {
            let (lo, hi) = (min.axis(axis), max.axis(axis));
            assert!(
                lo <= hi,
                "cuboid min must not exceed max on axis {axis}: {lo} > {hi}"
            );
        }
        Self { min, max }
    }

    /// Creates the query cuboid of extent `size` centred at `centroid`
    /// (the paper's `⟨W, H, T, x, y, t⟩` form of Definition 6).
    #[must_use]
    pub fn from_centroid(centroid: Point, size: QuerySize) -> Self {
        let (hw, hh, ht) = (size.w / 2.0, size.h / 2.0, size.t / 2.0);
        let min = Point::new(centroid.x - hw, centroid.y - hh, centroid.t - ht);
        let max = Point::new(centroid.x + hw, centroid.y + hh, centroid.t + ht);
        Self::new(min, max)
    }

    /// Minimum corner.
    #[must_use]
    pub const fn min(&self) -> Point {
        self.min
    }

    /// Maximum corner.
    #[must_use]
    pub const fn max(&self) -> Point {
        self.max
    }

    /// Centroid of the cuboid.
    #[must_use]
    pub fn centroid(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
            (self.min.t + self.max.t) / 2.0,
        )
    }

    /// The extent ⟨W, H, T⟩ of this cuboid.
    #[must_use]
    pub fn size(&self) -> QuerySize {
        QuerySize::new(
            self.max.x - self.min.x,
            self.max.y - self.min.y,
            self.max.t - self.min.t,
        )
    }

    /// Extent along `axis` (wrapping modulo 3, like [`Point::axis`]).
    #[must_use]
    pub fn extent(&self, axis: usize) -> f64 {
        self.max.axis(axis) - self.min.axis(axis)
    }

    /// Volume W·H·T. Zero for degenerate cuboids.
    #[must_use]
    pub fn volume(&self) -> f64 {
        self.extent(0) * self.extent(1) * self.extent(2)
    }

    /// Whether the point lies inside the cuboid (closed on all faces).
    #[must_use]
    pub fn contains_point(&self, p: &Point) -> bool {
        (0..3).all(|a| self.min.axis(a) <= p.axis(a) && p.axis(a) <= self.max.axis(a))
    }

    /// Whether `other` lies entirely within this cuboid.
    #[must_use]
    pub fn contains_cuboid(&self, other: &Self) -> bool {
        (0..3)
            .all(|a| self.min.axis(a) <= other.min.axis(a) && other.max.axis(a) <= self.max.axis(a))
    }

    /// Whether the two cuboids intersect (closed-boundary test, the
    /// paper's partition-involvement predicate).
    #[must_use]
    pub fn intersects(&self, other: &Self) -> bool {
        (0..3)
            .all(|a| self.min.axis(a) <= other.max.axis(a) && other.min.axis(a) <= self.max.axis(a))
    }

    /// The intersection of the two cuboids, or `None` if disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        Some(Self::new(
            self.min.max_with(&other.min),
            self.max.min_with(&other.max),
        ))
    }

    /// The smallest cuboid containing both inputs.
    #[must_use]
    pub fn union_bounds(&self, other: &Self) -> Self {
        Self::new(self.min.min_with(&other.min), self.max.max_with(&other.max))
    }

    /// Splits the cuboid at `value` along `axis` into (low, high) halves.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the cuboid's extent on that axis.
    #[must_use]
    pub fn split_at(&self, axis: usize, value: f64) -> (Self, Self) {
        assert!(
            self.min.axis(axis) <= value && value <= self.max.axis(axis),
            "split value {value} outside cuboid on axis {axis}"
        );
        let low = Self::new(self.min, self.max.with_axis(axis, value));
        let high = Self::new(self.min.with_axis(axis, value), self.max);
        (low, high)
    }

    /// The feasible *centroid range* `CR(Q_G)` for queries of size `qs`
    /// inside this universe (§IV-B): the set of centroids for which the
    /// query box stays within the universe. Axes where the query is larger
    /// than the universe collapse to the universe centroid.
    #[must_use]
    pub fn centroid_range(&self, qs: QuerySize) -> Self {
        let c = self.centroid();
        let mut min = c;
        let mut max = c;
        for axis in 0..3 {
            let q = qs.axis(axis);
            if q < self.extent(axis) {
                min = min.with_axis(axis, self.min.axis(axis) + q / 2.0);
                max = max.with_axis(axis, self.max.axis(axis) - q / 2.0);
            }
        }
        Self::new(min, max)
    }

    /// The centroid range `CR(Q_G, p)` of Equation 12: centroids within
    /// `CR(Q_G)` whose query of size `qs` intersects `partition`. Returns
    /// `None` when no feasible centroid reaches the partition.
    #[must_use]
    pub fn centroid_range_for(&self, qs: QuerySize, partition: &Self) -> Option<Self> {
        let cr = self.centroid_range(qs);
        let mut min = cr.min;
        let mut max = cr.max;
        for axis in 0..3 {
            let half = qs.axis(axis) / 2.0;
            let lo = (partition.min.axis(axis) - half).max(cr.min.axis(axis));
            let hi = (partition.max.axis(axis) + half).min(cr.max.axis(axis));
            if hi < lo {
                return None;
            }
            min = min.with_axis(axis, lo);
            max = max.with_axis(axis, hi);
        }
        Some(Self::new(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Cuboid {
        Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn construction_and_accessors() {
        let c = Cuboid::new(Point::new(0.0, 1.0, 2.0), Point::new(3.0, 5.0, 9.0));
        assert_eq!(c.extent(0), 3.0);
        assert_eq!(c.extent(1), 4.0);
        assert_eq!(c.extent(2), 7.0);
        assert_eq!(c.volume(), 84.0);
        assert_eq!(c.centroid(), Point::new(1.5, 3.0, 5.5));
        assert_eq!(c.size().w, 3.0);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn inverted_corners_panic() {
        let _ = Cuboid::new(Point::new(1.0, 0.0, 0.0), Point::new(0.0, 1.0, 1.0));
    }

    #[test]
    fn from_centroid_roundtrip() {
        let qs = QuerySize::new(2.0, 4.0, 6.0);
        let c = Cuboid::from_centroid(Point::new(10.0, 10.0, 10.0), qs);
        assert_eq!(c.min(), Point::new(9.0, 8.0, 7.0));
        assert_eq!(c.max(), Point::new(11.0, 12.0, 13.0));
        assert_eq!(c.centroid(), Point::new(10.0, 10.0, 10.0));
    }

    #[test]
    fn intersection_cases() {
        let a = unit();
        let b = Cuboid::new(Point::new(0.5, 0.5, 0.5), Point::new(2.0, 2.0, 2.0));
        let c = Cuboid::new(Point::new(2.0, 2.0, 2.0), Point::new(3.0, 3.0, 3.0));
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.min(), Point::new(0.5, 0.5, 0.5));
        assert_eq!(i.max(), Point::new(1.0, 1.0, 1.0));
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        // Touching faces count as intersecting (closed test).
        let d = Cuboid::new(Point::new(1.0, 0.0, 0.0), Point::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn containment() {
        let a = unit();
        let inner = Cuboid::new(Point::new(0.25, 0.25, 0.25), Point::new(0.75, 0.75, 0.75));
        assert!(a.contains_cuboid(&inner));
        assert!(!inner.contains_cuboid(&a));
        assert!(a.contains_point(&Point::new(1.0, 1.0, 1.0)));
        assert!(!a.contains_point(&Point::new(1.0001, 1.0, 1.0)));
    }

    #[test]
    fn split_produces_disjoint_cover() {
        let c = unit();
        let (lo, hi) = c.split_at(2, 0.25);
        assert_eq!(lo.volume() + hi.volume(), c.volume());
        assert_eq!(lo.union_bounds(&hi), c);
    }

    #[test]
    fn centroid_range_shrinks_by_query_size() {
        let u = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(10.0, 10.0, 10.0));
        let cr = u.centroid_range(QuerySize::new(2.0, 4.0, 20.0));
        assert_eq!(cr.min(), Point::new(1.0, 2.0, 5.0));
        assert_eq!(cr.max(), Point::new(9.0, 8.0, 5.0));
    }

    #[test]
    fn centroid_range_for_matches_equation_12_shape() {
        let u = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(10.0, 10.0, 10.0));
        let p = Cuboid::new(Point::new(4.0, 4.0, 4.0), Point::new(6.0, 6.0, 6.0));
        let qs = QuerySize::new(2.0, 2.0, 2.0);
        let cr = u.centroid_range_for(qs, &p).unwrap();
        // west = max(W/2, west(p) - W/2) = max(1, 3) = 3; east = min(9, 7) = 7.
        assert_eq!(cr.min(), Point::new(3.0, 3.0, 3.0));
        assert_eq!(cr.max(), Point::new(7.0, 7.0, 7.0));
        // A corner partition clamps against the feasible range.
        let corner = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0));
        let cr2 = u.centroid_range_for(qs, &corner).unwrap();
        assert_eq!(cr2.min(), Point::new(1.0, 1.0, 1.0));
        assert_eq!(cr2.max(), Point::new(2.0, 2.0, 2.0));
    }
}
