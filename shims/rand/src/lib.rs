//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `rand 0.8` API it actually uses:
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`], [`Rng::gen_range`],
//! [`Rng::gen_bool`] and [`rngs::SmallRng`]. The generator behind
//! `SmallRng` is xoshiro256++ seeded through SplitMix64 — the same
//! family the real crate uses on 64-bit targets — so statistical
//! quality is comparable, though the exact streams differ.

use std::ops::{Range, RangeInclusive};

/// Core entropy source: everything else is derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (subset: only `seed_from_u64` is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, expanded via SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling interface, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a uniformly random value of a primitive type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// Mirrors `rand`'s contract: the range must be non-empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
}

/// Types samplable uniformly over their whole domain (`Rng::gen`).
pub trait Standard {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
                // Truncation/wrapping is the point: take the low bits.
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u32, u64, i64);

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

/// Scalars that know how to sample themselves from range endpoints.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(
                    if inclusive { lo <= hi } else { lo < hi },
                    "gen_range called with an empty range"
                );
                // Width of the range as the unsigned twin type; wrapping
                // subtraction is exact for two's-complement endpoints.
                let span = (hi as $u).wrapping_sub(lo as $u) as u128 + u128::from(inclusive);
                if span == 0 {
                    // Inclusive full-domain range: every value is fair.
                    return rng.next_u64() as $t;
                }
                // Multiply-shift bounded sampling (Lemire); the bias for
                // spans below 2^64 is at most 2^-64 per draw.
                let wide = u128::from(rng.next_u64()).wrapping_mul(span);
                let offset = (wide >> 64) as $u;
                (lo as $u).wrapping_add(offset) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8 => u8, u32 => u32, u64 => u64, usize => usize, i32 => u32, i64 => u64);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self, _inclusive: bool) -> Self {
                assert!(lo <= hi, "gen_range called with an empty range");
                let unit = unit_f64(rng.next_u64()) as $t;
                let v = lo + (hi - lo) * unit;
                // Guard against rounding past the upper endpoint.
                if v > hi { hi } else { v }
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

impl<T: SampleUniform> SampleRange for Range<T> {
    type Output = T;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange for RangeInclusive<T> {
    type Output = T;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

pub mod rngs {
    //! Concrete generators (subset: [`SmallRng`] only).

    use super::{RngCore, SeedableRng};

    /// Small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    /// SplitMix64 — the canonical seed expander for xoshiro.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            // xoshiro requires a non-zero state; SplitMix64 cannot emit
            // four zeros from any seed, but keep the guard explicit.
            if s == [0; 4] {
                return Self { s: [1, 2, 3, 4] };
            }
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0..3.5f64);
            assert!((-2.0..3.5).contains(&f));
            let i = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((25_000..35_000).contains(&hits), "got {hits}");
    }
}
