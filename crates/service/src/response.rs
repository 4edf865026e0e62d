//! The response type: one variant per request family plus the typed
//! rejection, and the `try_*` accessors callers unwrap them with.

use dp_spatial::{SegId, SpatialError};
use std::sync::Arc;

/// One response, aligned with the request at the same batch position.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Sorted, deduplicated ids of segments intersecting the window.
    /// The payload is shared (`Arc`) so a hot-window cache hit hands the
    /// cached answer out without copying the id vector; equality still
    /// compares the ids themselves.
    Window(Arc<Vec<SegId>>),
    /// Sorted, deduplicated ids of segments passing through the point
    /// (shared like [`Response::Window`]).
    PointInWindow(Arc<Vec<SegId>>),
    /// Up to `k` `(id, distance)` pairs, nearest first, ties broken by
    /// ascending id. Shorter than `k` only when the collection itself
    /// holds fewer segments.
    KNearest(Vec<(SegId, f64)>),
    /// Sorted, deduplicated `(base_id, overlay_id)` pairs intersecting
    /// inside the request window. Empty when the service was built
    /// without an overlay layer.
    Join(Vec<(SegId, SegId)>),
    /// The segment was added; the payload is its *logical* id — its
    /// position in the serving collection right after the insert, the id
    /// subsequent query responses report it under (until later deletes
    /// shift it, exactly as in an eagerly-updated `Vec`).
    Inserted(SegId),
    /// The segment with this logical id was removed.
    Deleted(SegId),
    /// Sorted ascending logical ids of the *skyline* segments of the
    /// window: among the midpoints of the segments intersecting the
    /// request window, the points dominated by no other candidate under
    /// closed max-dominance (see [`dp_spatial::dominance`]). Shared like
    /// [`Response::Window`] so cache hits hand out one allocation.
    Skyline(Arc<Vec<SegId>>),
    /// Dominated-set aggregate of a query point: over every live segment
    /// whose midpoint lies in the closed lower-left quadrant of the
    /// query (and intersects that quadrant's world clip), the count, the
    /// sum and the max of the quantized-length weights
    /// ([`dp_spatial::dominance::dominance_weight`]). `max` is 0 when
    /// the dominated set is empty.
    DominanceAgg {
        /// Number of dominated segments.
        count: u64,
        /// Sum of their weights.
        sum: u64,
        /// Maximum weight (0 for an empty set).
        max: u64,
    },
    /// The request was unanswerable (non-finite geometry, `k = 0`,
    /// unknown delete id) and was rejected by per-slot validation
    /// without touching any shard.
    Rejected(SpatialError),
}

impl Response {
    /// The window hits, or the typed error: the rejection that produced
    /// a [`Response::Rejected`], or
    /// [`SpatialError::ResponseKindMismatch`] when the slot holds a
    /// different response kind. `index` is the slot position, echoed
    /// into the mismatch error.
    pub fn try_window(&self, index: usize) -> Result<&[SegId], SpatialError> {
        match self {
            Response::Window(ids) => Ok(ids),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The point-probe hits (see [`Response::try_window`] for the error
    /// contract).
    pub fn try_point_in_window(&self, index: usize) -> Result<&[SegId], SpatialError> {
        match self {
            Response::PointInWindow(ids) => Ok(ids),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The k-nearest answer (see [`Response::try_window`] for the error
    /// contract).
    pub fn try_knearest(&self, index: usize) -> Result<&[(SegId, f64)], SpatialError> {
        match self {
            Response::KNearest(found) => Ok(found),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The join pairs (see [`Response::try_window`] for the error
    /// contract).
    pub fn try_join(&self, index: usize) -> Result<&[(SegId, SegId)], SpatialError> {
        match self {
            Response::Join(pairs) => Ok(pairs),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The inserted segment's logical id (see [`Response::try_window`]
    /// for the error contract).
    pub fn try_inserted(&self, index: usize) -> Result<SegId, SpatialError> {
        match self {
            Response::Inserted(id) => Ok(*id),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The skyline ids (see [`Response::try_window`] for the error
    /// contract).
    pub fn try_skyline(&self, index: usize) -> Result<&[SegId], SpatialError> {
        match self {
            Response::Skyline(ids) => Ok(ids),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The dominance aggregate as `(count, sum, max)` (see
    /// [`Response::try_window`] for the error contract).
    pub fn try_dominance_agg(&self, index: usize) -> Result<(u64, u64, u64), SpatialError> {
        match self {
            Response::DominanceAgg { count, sum, max } => Ok((*count, *sum, *max)),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }

    /// The deleted segment's logical id (see [`Response::try_window`]
    /// for the error contract).
    pub fn try_deleted(&self, index: usize) -> Result<SegId, SpatialError> {
        match self {
            Response::Deleted(id) => Ok(*id),
            Response::Rejected(e) => Err(*e),
            _ => Err(SpatialError::ResponseKindMismatch { index }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_spatial::MalformedKind;

    #[test]
    fn response_accessors_type_the_mismatch() {
        let resp = Response::Window(Arc::new(vec![1, 2]));
        assert_eq!(
            resp.try_knearest(4),
            Err(SpatialError::ResponseKindMismatch { index: 4 })
        );
        let rejected = Response::Rejected(SpatialError::MalformedRequest {
            index: 0,
            kind: MalformedKind::ZeroK,
        });
        assert_eq!(
            rejected.try_window(0),
            Err(SpatialError::MalformedRequest {
                index: 0,
                kind: MalformedKind::ZeroK,
            })
        );
    }
}
