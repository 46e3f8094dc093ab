//! Dimension-tagged quantities for the cost model.
//!
//! The paper's cost model freely mixes physical dimensions — seconds
//! (`ScanRate`, `ExtraTime`, Eq. 6–7), bytes (`Storage(R)`, the budget
//! `b`), and partition counts (Eq. 11). A unit-confusion bug silently
//! corrupts every figure the repro emits, so the quantities that cross
//! module boundaries are newtypes: [`Millis`] / [`Seconds`] for
//! simulated time, [`Bytes`] for storage, [`PartitionCount`] for
//! (possibly fractional, Eq. 11) involved-partition counts.
//!
//! Arithmetic is dimensional: same-unit addition/subtraction, scalar
//! scaling, and same-unit division yielding a dimensionless ratio.
//! Cross-unit `+`, `-` and comparison simply do not compile — the type
//! checker is the unit gate, and these are its known-bad inputs:
//!
//! ```compile_fail
//! use blot_core::units::{Bytes, Millis};
//! let _ = Millis::new(2.0) + Bytes::new(4096.0); // milliseconds + bytes
//! ```
//!
//! ```compile_fail
//! use blot_core::units::{Millis, PartitionCount};
//! let _ = Millis::new(50.0) - PartitionCount::of(3); // milliseconds - partitions
//! ```
//!
//! ```compile_fail
//! use blot_core::units::{Bytes, Millis};
//! let _ = Bytes::new(1.0) < Millis::new(1.0); // bytes compared with milliseconds
//! ```
//!
//! Nothing infers units for a raw `f64`, so the convention at the
//! boundary is: keep a quantity in its newtype across function
//! boundaries, and pass a raw `f64` extracted with `.get()` only
//! straight into a sink that documents its unit. `blot-geo` and
//! `blot-mip` sit *below* this crate in the dependency order and cannot
//! use these newtypes; their `f64`s are coordinates, extents and
//! objective coefficients, documented where they are defined.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw magnitude.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw magnitude (unit documented by the type).
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Larger of the two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Smaller of the two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Whether the magnitude is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        /// Scalar scaling preserves the unit.
        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        /// Scalar scaling preserves the unit (commuted form).
        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        /// Scalar division preserves the unit.
        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Same-unit division yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)?;
                f.write_str($suffix)
            }
        }
    };
}

unit_newtype!(
    /// Simulated milliseconds — the native unit of [`crate::cost`]
    /// (`1/ScanRate` slopes, `ExtraTime` intercepts, query costs).
    Millis,
    "ms"
);

unit_newtype!(
    /// Seconds, for presentation and for workload parameters expressed
    /// in the paper's own unit (e.g. grouped-query durations).
    Seconds,
    "s"
);

unit_newtype!(
    /// Bytes of replica storage (`Storage(R)`, Definition 5, and the
    /// budget `b` of Eq. 1).
    Bytes,
    "B"
);

unit_newtype!(
    /// A count of involved partitions. Fractional values are meaningful:
    /// Eq. 11 computes the *expected* number of involved partitions of a
    /// grouped query as a sum of probabilities.
    PartitionCount,
    " partitions"
);

impl From<Seconds> for Millis {
    fn from(s: Seconds) -> Self {
        Self::new(s.get() * 1e3)
    }
}

impl From<Millis> for Seconds {
    fn from(ms: Millis) -> Self {
        Self::new(ms.get() * 1e-3)
    }
}

impl PartitionCount {
    /// An exact count from a partitioning-index lookup.
    #[must_use]
    pub fn of(n: usize) -> Self {
        // Partition counts are far below 2^53; the conversion is exact.
        #[allow(clippy::cast_precision_loss)]
        Self::new(n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_unit_arithmetic() {
        let a = Millis::new(2.0);
        let b = Millis::new(3.0);
        assert_eq!((a + b).get(), 5.0);
        assert_eq!((b - a).get(), 1.0);
        assert_eq!((a * 4.0).get(), 8.0);
        assert_eq!((4.0 * a).get(), 8.0);
        assert_eq!((b / 2.0).get(), 1.5);
        assert!((b / a - 1.5).abs() < 1e-12);
        assert!(b > a);
        let mut acc = Millis::ZERO;
        acc += b;
        assert_eq!(acc, b);
        let total: Millis = [a, b].into_iter().sum();
        assert_eq!(total.get(), 5.0);
    }

    #[test]
    fn seconds_millis_conversions_roundtrip() {
        let s = Seconds::new(1.5);
        let ms: Millis = s.into();
        assert_eq!(ms.get(), 1500.0);
        let back: Seconds = ms.into();
        assert_eq!(back.get(), 1.5);
    }

    #[test]
    fn partition_count_of_is_exact() {
        assert_eq!(PartitionCount::of(17).get(), 17.0);
        assert_eq!(PartitionCount::of(0), PartitionCount::ZERO);
    }

    #[test]
    fn min_max_and_display() {
        let a = Bytes::new(10.0);
        let b = Bytes::new(20.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a.is_finite());
        assert_eq!(format!("{}", Bytes::new(3.0)), "3B");
        assert_eq!(format!("{}", Millis::new(2.5)), "2.5ms");
    }
}
