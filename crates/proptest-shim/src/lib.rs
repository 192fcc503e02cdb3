//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This workspace must build with **no network access**, so the real
//! proptest cannot be vendored. This shim implements exactly the API
//! surface the workspace's tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`,
//! * [`arbitrary::any`] for the primitive types used in tests,
//! * integer / float range strategies (`0u64..4096`, `1u32..=64`,
//!   `-0.4..0.4f64`, …),
//! * [`collection::vec`] with exact or ranged lengths,
//! * combinators: [`Strategy::prop_map`](strategy::Strategy::prop_map),
//!   tuple strategies (up to arity 8), and the unweighted
//!   [`prop_oneof!`] macro.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   the message; reproduce by re-running (generation is deterministic
//!   per test, seeded from the test's module path and name).
//! * **Default case count is 64** (not 256) to keep offline CI fast;
//!   tests that need a specific count set it via `with_cases`.

#![warn(missing_docs)]

/// Test-runner configuration and error types.
pub mod test_runner {
    /// Per-test configuration; only the case count is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Why a generated case did not complete successfully.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` failed; the case is discarded, not failed.
        Reject(&'static str),
        /// A `prop_assert*!` failed with this message.
        Fail(String),
    }

    /// The deterministic generator behind the shim's strategies
    /// (splitmix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test's fully qualified name, so
        /// every test draws a stable, independent stream.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant at test-generation quality.
            self.next_u64() % bound
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and range implementations.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. Real proptest separates strategies from value
    /// trees (for shrinking); the shim only ever samples.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (no shrinking to invert,
        /// so any closure works).
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between boxed alternatives — the engine behind
    /// [`crate::prop_oneof!`]. Unweighted (real proptest's `n => strat`
    /// weights are not supported).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// An empty choice; sampling panics until an `or` arm is added.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Self {
                options: Vec::new(),
            }
        }

        /// Adds one equally likely alternative.
        pub fn or(mut self, strat: impl Strategy<Value = T> + 'static) -> Self {
            self.options.push(Box::new(strat));
            self
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(
                !self.options.is_empty(),
                "prop_oneof! needs at least one arm"
            );
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(width) as $t)
                }
            }

            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if width == 0 {
                        // Full 64-bit domain.
                        rng.next_u64() as $t
                    } else {
                        lo.wrapping_add(rng.below(width) as $t)
                    }
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            // The closed upper endpoint is measure-zero; sample as [lo, hi).
            lo + rng.next_f64() * (hi - lo)
        }
    }
}

/// `any::<T>()` for the primitive types used in this workspace.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws a uniform value from the type's whole domain.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (only `vec` is provided).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An exact or ranged element count for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length comes from `size` (an exact `usize` or a range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob-import surface: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Uniform choice between strategy expressions of one value type.
/// Unweighted: real proptest's `weight => strategy` arms are not
/// supported by the shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new()$(.or($strat))+
    };
}

/// Defines deterministic property tests. Supports the subset of real
/// proptest syntax used in this workspace: an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn` items whose
/// arguments are drawn from strategies via `name in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut __accepted: u32 = 0;
                let mut __rejected: u32 = 0;
                while __accepted < __cfg.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                    )*
                    let __case = format!(
                        concat!($(stringify!($arg), " = {:?}; ",)*),
                        $(&$arg),*
                    );
                    let __outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => __accepted += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(__why)) => {
                            __rejected += 1;
                            assert!(
                                __rejected < 1 << 16,
                                "prop_assume! rejected {} cases ({})",
                                __rejected,
                                __why
                            );
                        }
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                            panic!(
                                "property failed after {} cases: {}\n  inputs: {}",
                                __accepted, __msg, __case
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&($left), &($right)) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, "{:?} != {:?}", __l, __r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&($left), &($right)) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "{:?} != {:?}: {}",
                    __l,
                    __r,
                    format!($($fmt)+)
                );
            }
        }
    };
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&($left), &($right)) {
            (__l, __r) => {
                $crate::prop_assert!(*__l != *__r, "{:?} == {:?}", __l, __r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&($left), &($right)) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "{:?} == {:?}: {}",
                    __l,
                    __r,
                    format!($($fmt)+)
                );
            }
        }
    };
}

/// Discards the current case (without failing) when the precondition does
/// not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let v = (10u32..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let w = (5u64..=5).sample(&mut rng);
            assert_eq!(w, 5);
            let f = (-1.5..2.5f64).sample(&mut rng);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_size() {
        let mut rng = TestRng::from_name("vec_lengths_respect_size");
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 3).sample(&mut rng);
            assert_eq!(v.len(), 3);
            let w = crate::collection::vec(any::<bool>(), 1..4).sample(&mut rng);
            assert!((1..4).contains(&w.len()));
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::from_name("combinators_compose");
        let doubled = (0u32..50).prop_map(|v| v * 2);
        let pair = (0u8..4, any::<bool>());
        let choice = prop_oneof![Just(0u64), (1u64..10).prop_map(|v| v * 100),];
        for _ in 0..200 {
            let d = doubled.sample(&mut rng);
            assert!(d < 100 && d % 2 == 0);
            let (a, _b) = pair.sample(&mut rng);
            assert!(a < 4);
            let c = choice.sample(&mut rng);
            assert!(c == 0 || (100..1000).contains(&c));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: bindings, assume, asserts.
        #[test]
        fn macro_roundtrip(a in 0u32..100, b in any::<u8>(),
                           v in crate::collection::vec(any::<bool>(), 2..5)) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            prop_assert_eq!(u32::from(b), u32::from(b));
            prop_assert_ne!(v.len(), 0, "len {}", v.len());
        }
    }
}
