//! Associative combine operators for scan operations.
//!
//! A scan takes an associative operator `⊕` and a vector, and returns the
//! running combines (paper Section 3.2). The paper binds `⊕` to addition in
//! its worked examples (Fig. 8), and additionally uses `min`, `max`
//! (endpoint bounding boxes, Sec. 4.5; sweep split extents, Sec. 4.7) and
//! `copy` (segment broadcast, Sec. 4.7).
//!
//! Operators here are zero-sized marker types implementing [`CombineOp`],
//! so scans monomorphize to tight loops with no virtual dispatch.

/// Marker bound for values that can flow through the vector machine.
pub trait Element: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Element for T {}

/// An associative binary operator with identity, usable in scans.
///
/// `combine` must be associative: `combine(combine(a, b), c) ==
/// combine(a, combine(b, c))` — this is what makes the blocked parallel
/// scan in [`crate::blocked`] exact. It need *not* be commutative (the
/// [`First`] operator, used for broadcasts, is not).
///
/// `identity` must satisfy `combine(identity(), x) == x` for every `x`
/// that can appear in a scan; it seeds exclusive scans at segment heads.
pub trait CombineOp<T>: Copy + Send + Sync {
    /// The identity element of the operator.
    fn identity(&self) -> T;
    /// Combines two values. Must be associative.
    fn combine(&self, a: T, b: T) -> T;
}

/// Addition (`⊕ = +`), the operator of the paper's Fig. 8 examples and of
/// every counting scan (node capacity checks, clone offsets, unshuffle
/// ranks, duplicate-deletion shifts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum;

/// Minimum, used for bounding-box lower extents (paper Secs. 4.5, 4.7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

/// Maximum, used for bounding-box upper extents (paper Secs. 4.5, 4.7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

/// Logical OR over `bool` lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Or;

/// Logical AND over `bool` lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct And;

/// The *copy* operator of the paper (Sec. 4.7): `a ⊕ b = a`, a left
/// projection. An inclusive upward copy-scan broadcasts the first lane of
/// each segment to the whole segment; an inclusive downward copy-scan
/// broadcasts the last lane. Left projection is associative
/// (`(a⊕b)⊕c = a = a⊕(b⊕c)`) but not commutative.
///
/// The identity is `T::default()`; it only ever surfaces in exclusive
/// copy-scans, where the head lane of each segment has no predecessor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct First;

/// The right-projection operator: `a ⊕ b = b`. An inclusive *downward*
/// scan with `Last` broadcasts the last lane of each segment to the whole
/// segment (the mirror of [`First`] under upward scans). Right projection
/// is associative: `(a⊕b)⊕c = c = a⊕(b⊕c)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Last;

impl<T: Element + Default> CombineOp<T> for Last {
    #[inline]
    fn identity(&self) -> T {
        T::default()
    }
    #[inline]
    fn combine(&self, _a: T, b: T) -> T {
        b
    }
}

macro_rules! impl_arith_ops {
    ($($t:ty),*) => {$(
        impl CombineOp<$t> for Sum {
            #[inline]
            fn identity(&self) -> $t { 0 as $t }
            #[inline]
            fn combine(&self, a: $t, b: $t) -> $t { a + b }
        }
        impl CombineOp<$t> for Min {
            #[inline]
            fn identity(&self) -> $t { <$t>::MAX }
            #[inline]
            fn combine(&self, a: $t, b: $t) -> $t { if b < a { b } else { a } }
        }
        impl CombineOp<$t> for Max {
            #[inline]
            fn identity(&self) -> $t { <$t>::MIN }
            #[inline]
            fn combine(&self, a: $t, b: $t) -> $t { if b > a { b } else { a } }
        }
    )*};
}

impl_arith_ops!(i32, i64, u32, u64, usize, i8, u8, i16, u16);

impl CombineOp<f64> for Sum {
    #[inline]
    fn identity(&self) -> f64 {
        0.0
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

impl CombineOp<f64> for Min {
    #[inline]
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

impl CombineOp<f64> for Max {
    #[inline]
    fn identity(&self) -> f64 {
        f64::NEG_INFINITY
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }
}

impl CombineOp<bool> for Or {
    #[inline]
    fn identity(&self) -> bool {
        false
    }
    #[inline]
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

impl CombineOp<bool> for And {
    #[inline]
    fn identity(&self) -> bool {
        true
    }
    #[inline]
    fn combine(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

impl<T: Element + Default> CombineOp<T> for First {
    #[inline]
    fn identity(&self) -> T {
        T::default()
    }
    #[inline]
    fn combine(&self, a: T, _b: T) -> T {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identity<T: PartialEq + std::fmt::Debug + Copy, O: CombineOp<T>>(
        op: O,
        samples: &[T],
    ) {
        for &x in samples {
            assert_eq!(op.combine(op.identity(), x), x);
        }
    }

    fn check_associative<T: PartialEq + std::fmt::Debug + Copy, O: CombineOp<T>>(
        op: O,
        samples: &[T],
    ) {
        for &a in samples {
            for &b in samples {
                for &c in samples {
                    assert_eq!(
                        op.combine(op.combine(a, b), c),
                        op.combine(a, op.combine(b, c))
                    );
                }
            }
        }
    }

    #[test]
    fn sum_laws_i64() {
        let xs = [-3i64, 0, 1, 7, 100];
        check_identity(Sum, &xs);
        check_associative(Sum, &xs);
    }

    #[test]
    fn min_max_laws_i64() {
        let xs = [-3i64, 0, 1, 7, 100, i64::MAX, i64::MIN];
        check_identity(Min, &xs);
        check_associative(Min, &xs);
        check_identity(Max, &xs);
        check_associative(Max, &xs);
    }

    #[test]
    fn min_max_laws_f64() {
        let xs = [-3.5f64, 0.0, 1.25, 7.0, 1e300];
        check_identity(Min, &xs);
        check_associative(Min, &xs);
        check_identity(Max, &xs);
        check_associative(Max, &xs);
    }

    #[test]
    fn bool_laws() {
        let xs = [true, false];
        check_identity(Or, &xs);
        check_associative(Or, &xs);
        check_identity(And, &xs);
        check_associative(And, &xs);
    }

    #[test]
    fn first_is_left_projection_and_associative() {
        let xs = [1u64, 2, 3];
        check_associative(First, &xs);
        assert_eq!(First.combine(5u64, 9), 5);
    }
}
