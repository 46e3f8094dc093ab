//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace
//! vendors a miniature property-testing harness with the same surface
//! the BLOT test suites use: the [`Strategy`] trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`collection::vec`],
//! [`any`], [`Just`], `prop_oneof!`, `prop_assert!` / `prop_assert_eq!`
//! and the `proptest!` macro with `#![proptest_config(..)]`.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   per-test seed; re-running the test deterministically replays it.
//! * **Deterministic seeds.** Each test function derives its RNG seed
//!   from its own name, so runs are reproducible in CI without a
//!   regressions file.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies (subset: [`vec`]).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Size specification for [`vec`]: an exact length or a length range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property-test file needs, mirroring
    //! `proptest::prelude`.

    pub use crate as prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}
