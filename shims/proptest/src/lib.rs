//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of proptest it uses: the [`Strategy`] trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`Just`](strategy::Just),
//! [`collection::vec`], `any::<T>()`, the `proptest!` test macro and the
//! `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its inputs via the panic
//!   message (every generated binding is `Debug`-printed by the harness).
//! * **Deterministic.** Case `i` of test `t` derives its RNG stream from
//!   `(t, i)` only, so failures always reproduce.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Test-runner configuration (only the case count is honoured).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each `proptest!` test executes.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// The deterministic generator driving value generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for one case of one named test: a pure function of both.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

pub mod strategy {
    use super::TestRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value: std::fmt::Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: std::fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates an intermediate value, then generates from the strategy
        /// `f` builds out of it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values satisfying `f`, retrying a bounded number of
        /// times.
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, f, whence }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O: std::fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone, Debug)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
        pub(crate) whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 consecutive values: {}", self.whence)
        }
    }

    /// A strategy that always yields a clone of its value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + std::fmt::Debug>(pub T);

    impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
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
}

use strategy::Strategy;

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = end.wrapping_sub(start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, i64, i32, u16, i16, u8, i8);

/// Marker for types with a full-range "any value" strategy.
pub trait ArbitraryPrim: Sized + fmt::Debug {
    fn any_value(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryPrim for $t {
            fn any_value(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(usize, u64, u32, i64, i32, u16, i16, u8, i8);

impl ArbitraryPrim for bool {
    fn any_value(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryPrim for f64 {
    fn any_value(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The `any::<T>()` strategy: uniform over `T`'s whole domain.
#[derive(Clone, Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryPrim> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::any_value(rng)
    }
}

/// Uniform values over the whole domain of `T`.
pub fn any<T: ArbitraryPrim>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Element-count bounds for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        pub(crate) min: usize,
        pub(crate) max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange { min: r.start, max_exclusive: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_exclusive: n + 1 }
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min).max(1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// The proptest entry macro: declares `#[test]` functions whose arguments
/// are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                let strat = ( $($strat,)+ );
                for case in 0..cfg.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    let ( $($arg,)+ ) =
                        $crate::strategy::Strategy::generate(&strat, &mut rng);
                    $body
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 3usize..17, b in -2i64..=2) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-2..=2).contains(&b));
        }

        #[test]
        fn flat_map_dependent_values((n, k) in (1usize..10).prop_flat_map(|n| (Just(n), 0..n))) {
            prop_assert!(k < n);
        }

        #[test]
        fn vec_lengths(v in collection::vec(0u32..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn deterministic_per_test_and_case() {
        use crate::strategy::Strategy;
        let s = 0usize..1000;
        let mut a = crate::TestRng::for_case("x", 3);
        let mut b = crate::TestRng::for_case("x", 3);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
