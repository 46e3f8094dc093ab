//! The [`Strategy`] trait and the combinators BLOT's suites use.

use crate::test_runner::TestRng;
use rand::Rng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy is just a deterministic function of the test RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, builds a second strategy from
    /// it, and draws from that.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the strategy's concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Result of [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Type-erased strategy, as produced by [`Strategy::boxed`] and
/// `prop_oneof!`.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy(..)")
    }
}

/// Object-safe twin of [`Strategy`] used behind the box.
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Uniform choice between equally weighted alternatives
/// (the engine behind `prop_oneof!`).
#[derive(Debug)]
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; `options` must be non-empty.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    #[allow(clippy::unreachable)] // test-support shim; the message states the invariant
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.rng.gen_range(0..self.options.len());
        let opt = self
            .options
            .get(i)
            .unwrap_or_else(|| unreachable!("Union::new asserts options is non-empty"));
        opt.generate(rng)
    }
}

/// Strategy for a full primitive domain; see [`any`].
#[derive(Debug, Clone, Default)]
pub struct AnyStrategy<T>(PhantomData<T>);

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws a uniformly distributed value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Generates any value of `T` (mirrors `proptest::prelude::any`).
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.rng.gen()
            }
        }
    )*};
}
impl_arbitrary_via_standard!(u8, u32, u64, i64, bool);

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u32, u64, usize, i32, i64, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);

/// Uniform choice among equally weighted strategies with a common value
/// type. All arms are boxed; mirrors `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}
