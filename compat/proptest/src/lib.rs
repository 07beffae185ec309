//! In-tree stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no registry access, so this crate provides
//! the subset of proptest's API that the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, range and
//! tuple strategies, `prop::collection::vec`, `prop::array::uniform4`,
//! `any::<T>()`, simple `"[a-z]{m,n}"` string patterns, `prop_map`, and
//! [`ProptestConfig::with_cases`](test_runner::ProptestConfig::with_cases).
//!
//! Semantics differ from real proptest in two deliberate ways:
//!
//! * **Sampling is deterministic.** Each test function derives its RNG
//!   seed from its module path and the case index, so failures reproduce
//!   exactly across runs and machines with no persistence files.
//! * **No shrinking.** A failing case panics with the sampled values in
//!   scope; there is no minimization pass.

pub mod strategy;
pub mod test_runner;

/// `prop::collection::vec(...)` etc. live here, mirroring proptest's
/// module layout.
pub mod collection {
    pub use crate::strategy::vec;
}

pub mod array {
    pub use crate::strategy::uniform4;
}

pub mod arbitrary {
    pub use crate::strategy::{any, Arbitrary};
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirrors proptest's `prelude::prop` re-export module.
    pub mod prop {
        pub use crate::{array, collection};
    }
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples the strategies `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let __path = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::SampleRng::for_case(__path, __case);
                    $(let $arg = $crate::strategy::Strategy::sample(&$strat, &mut __rng);)*
                    $body
                }
            }
        )*
    };
}
