//! Dynamic operators for fused multi-lane segmented scans.
//!
//! The paper's build rounds issue several independent segmented scans over
//! the *same* segment descriptor (PM₁ needs Min/Max over ε plus four MBB
//! extents plus a count — seven scans per round, Sec. 4.5). Each scan is
//! O(n) work but also O(n) memory traffic over the flags/data lanes; when
//! the lanes share a descriptor, one pass can carry K accumulators and
//! amortize the traffic and (on the parallel backend) the dispatch.
//!
//! The walk itself is the one kernel of [`crate::blocked`], generic over
//! its lane operators; this module supplies the dynamic operator a fused
//! lane names itself by. Ops are dynamic ([`FusedOp`]) rather than
//! type-level so heterogeneous lane sets (Min next to Max next to Sum) fit
//! in one slice, and a `[FusedOp; K]` stack array is the kernel's operator
//! set for a K-lane chunk (chunks of up to [`MAX_FUSED_WIDTH`], so the
//! per-lane accumulators live in stack arrays and the per-element loop
//! unrolls — a fused pass must beat K separate tight passes). Each lane's
//! combine delegates to the static [`CombineOp`] impls, so a fused lane is
//! bit-identical to the single-operator scan of the same data, `f64` sums
//! included. Property tests assert this.

use crate::blocked::LaneOps;
use crate::ops::{CombineOp, Max, Min, Sum};

/// Combine operator selector for a fused scan lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedOp {
    /// Addition (counting lanes).
    Sum,
    /// Minimum (lower bounding-box extents).
    Min,
    /// Maximum (upper bounding-box extents).
    Max,
}

/// Element types that can flow through a fused scan: every numeric type
/// with `Sum`/`Min`/`Max` [`CombineOp`] impls. Delegates to those impls so
/// fused results are bit-identical to unfused ones by construction.
pub trait FusedElement: crate::ops::Element {
    /// The identity of `op` for this type.
    fn fused_identity(op: FusedOp) -> Self;
    /// Combines two values under `op`.
    fn fused_combine(op: FusedOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_fused_element {
    ($($t:ty),*) => {$(
        impl FusedElement for $t {
            #[inline]
            fn fused_identity(op: FusedOp) -> $t {
                match op {
                    FusedOp::Sum => CombineOp::<$t>::identity(&Sum),
                    FusedOp::Min => CombineOp::<$t>::identity(&Min),
                    FusedOp::Max => CombineOp::<$t>::identity(&Max),
                }
            }
            #[inline]
            fn fused_combine(op: FusedOp, a: $t, b: $t) -> $t {
                match op {
                    FusedOp::Sum => Sum.combine(a, b),
                    FusedOp::Min => Min.combine(a, b),
                    FusedOp::Max => Max.combine(a, b),
                }
            }
        }
    )*};
}

impl_fused_element!(i32, i64, u32, u64, usize, i8, u8, i16, u16, f64);

/// Widest lane set a single monomorphized kernel carries. Wider calls are
/// processed in chunks of this width; lanes are mutually independent, so
/// chunking cannot change any lane's output (it only forfeits some pass
/// sharing beyond the eighth lane).
pub const MAX_FUSED_WIDTH: usize = 8;

impl<T: FusedElement, const K: usize> LaneOps<T, K> for [FusedOp; K] {
    #[inline(always)]
    fn identity(&self, lane: usize) -> T {
        T::fused_identity(self[lane])
    }
    #[inline(always)]
    fn combine(&self, lane: usize, a: T, b: T) -> T {
        T::fused_combine(self[lane], a, b)
    }
}
