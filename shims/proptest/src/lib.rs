//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of proptest its test suites use:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`, `prop_recursive`, `boxed`;
//! * strategies for integer ranges, tuples, `&str` regex-lite patterns
//!   (character classes and `{m,n}` repetition), and
//!   [`collection::vec`];
//! * the [`proptest!`], [`prop_oneof!`] and `prop_assert*` macros;
//! * [`test_runner::Config`] (`ProptestConfig::with_cases`).
//!
//! Unlike the real crate there is **no shrinking**: a failing case panics
//! with its case number, and the generator is deterministic per test (a
//! fixed seed), so failures reproduce exactly under `cargo test`.

pub mod test_runner {
    pub use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    /// Runner configuration; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each `proptest!` test executes.
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// The fixed per-test generator; deterministic so failures reproduce.
    pub fn deterministic_rng() -> TestRng {
        TestRng::seed_from_u64(0x70_72_6f_70_74_65_73_74) // "proptest"
    }

    /// Failure type helper functions may return (via `?`) inside a
    /// `proptest!` body. With no shrinking, it simply carries a message.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The property does not hold.
        Fail(String),
        /// The input should be discarded (treated as failure here).
        Reject(String),
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "property failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A value generator. The required method is [`generate`]; everything
    /// else is provided combinators.
    ///
    /// [`generate`]: Strategy::generate
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type (reference-counted, clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen: Rc::new(move |rng| self.generate(rng)),
            }
        }

        /// Recursive structures: `self` generates leaves, `recurse` builds
        /// one more level from the strategy for the level below. `depth`
        /// bounds nesting; the size hints of the real API are ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Clone + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = self.clone().boxed();
            for _ in 0..depth {
                let deeper = recurse(current).boxed();
                let leaf = self.clone().boxed();
                current = BoxedStrategy {
                    gen: Rc::new(move |rng: &mut TestRng| {
                        if rng.gen_range(0u32..2) == 0 {
                            leaf.generate(rng)
                        } else {
                            deeper.generate(rng)
                        }
                    }),
                };
            }
            current
        }
    }

    /// A type-erased, clonable strategy.
    pub struct BoxedStrategy<T> {
        gen: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                gen: Rc::clone(&self.gen),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Always the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among strategies (the `prop_oneof!` backend).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

    // ---- regex-lite string strategies -------------------------------

    /// One element of a regex-lite pattern: a set of candidate characters
    /// and a repetition count range (inclusive).
    struct PatElem {
        chars: Vec<char>,
        min: usize,
        max: usize,
    }

    /// Parse the subset of regex syntax the test suites use: literal
    /// characters, `[a-z09_]` classes, and `{m}` / `{m,n}` / `?` / `*` /
    /// `+` repetition (star/plus capped at 8).
    fn parse_pattern(pattern: &str) -> Vec<PatElem> {
        let mut elems = Vec::new();
        let mut it = pattern.chars().peekable();
        while let Some(c) = it.next() {
            let chars: Vec<char> = match c {
                '[' => {
                    let mut set = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = it.next().unwrap_or_else(|| {
                            panic!("unterminated character class in {pattern:?}")
                        });
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && it.peek() != Some(&']') => {
                                let lo = prev.take().expect("range start");
                                let hi = it.next().expect("range end");
                                set.extend((lo..=hi).filter(|c| c.is_ascii()));
                            }
                            c => {
                                if let Some(p) = prev.replace(c) {
                                    set.push(p);
                                }
                            }
                        }
                    }
                    if let Some(p) = prev {
                        set.push(p);
                    }
                    set
                }
                '\\' => vec![it.next().expect("dangling escape")],
                c => vec![c],
            };
            let (min, max) = match it.peek() {
                Some('{') => {
                    it.next();
                    let mut spec = String::new();
                    for c in it.by_ref() {
                        if c == '}' {
                            break;
                        }
                        spec.push(c);
                    }
                    match spec.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("repetition lower bound"),
                            hi.trim().parse().expect("repetition upper bound"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("repetition count");
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    it.next();
                    (0, 1)
                }
                Some('*') => {
                    it.next();
                    (0, 8)
                }
                Some('+') => {
                    it.next();
                    (1, 8)
                }
                _ => (1, 1),
            };
            assert!(!chars.is_empty(), "empty character class in {pattern:?}");
            elems.push(PatElem { chars, min, max });
        }
        elems
    }

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for elem in parse_pattern(self) {
                let n = rng.gen_range(elem.min..elem.max + 1);
                for _ in 0..n {
                    out.push(elem.chars[rng.gen_range(0..elem.chars.len())]);
                }
            }
            out
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// `Vec` strategy: a length drawn from `size`, then that many
    /// elements.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` for `cases` generated inputs
/// (default 64, override with `#![proptest_config(...)]`).
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                let mut __rng = $crate::test_runner::deterministic_rng();
                for __case in 0..__config.cases {
                    let __run = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                        $body
                        Ok(())
                    };
                    match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)) {
                        Ok(Ok(())) => {}
                        // A rejected input (prop_assume!) is skipped, not failed.
                        Ok(Err($crate::test_runner::TestCaseError::Reject(_))) => {}
                        Ok(Err(e)) => panic!(
                            "proptest case {}/{} of `{}` failed: {} (deterministic seed; rerun reproduces)",
                            __case + 1,
                            __config.cases,
                            stringify!($name),
                            e,
                        ),
                        Err(panic) => {
                            eprintln!(
                                "proptest case {}/{} of `{}` failed (deterministic seed; rerun reproduces)",
                                __case + 1,
                                __config.cases,
                                stringify!($name),
                            );
                            ::std::panic::resume_unwind(panic);
                        }
                    }
                }
            }
        )*
    };
}

/// Discard the current case unless `cond` holds. Works inside any body or
/// helper returning `Result<_, TestCaseError>`; the runner skips the case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Assert within a property body (no shrinking; panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_shapes() {
        let mut rng = crate::test_runner::deterministic_rng();
        for _ in 0..200 {
            let s = "[a-z][a-z0-9]{0,5}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 6, "bad sample {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let mut rng = crate::test_runner::deterministic_rng();
        let s = prop_oneof![0u8..1, 10u8..11];
        let samples: Vec<u8> = (0..50).map(|_| s.generate(&mut rng)).collect();
        assert!(samples.contains(&0) && samples.contains(&10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0u8..5, 5u8..10), v in prop::collection::vec(0u32..3, 1..4)) {
            prop_assert!(a < 5 && (5..10).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&x| x < 3));
        }

        #[test]
        fn recursive_strategies_nest(expr in super::tests::term_like()) {
            prop_assert!(!expr.is_empty());
            prop_assert_eq!(
                expr.chars().filter(|&c| c == '(').count(),
                expr.chars().filter(|&c| c == ')').count()
            );
        }
    }

    pub(crate) fn term_like() -> impl Strategy<Value = String> {
        let leaf = "[a-z]{1,3}".prop_map(|s| s);
        leaf.prop_recursive(3, 16, 3, |inner| {
            (
                "[a-z]{1,2}".prop_map(|s| s),
                crate::collection::vec(inner, 1..3),
            )
                .prop_map(|(f, args)| format!("{f}({})", args.join(", ")))
        })
    }
}
