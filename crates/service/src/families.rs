//! The request-family table: all the service knows about a request
//! *kind*, one `match` per question — [`plan`] (validate + what to ask of
//! the executor), [`route`] (which lane), [`QueryService::reduce`]
//! (candidates → payload), [`wrap`] (payload → [`Response`]).
//!
//! Every read family is the lockstep window descent plus a reduction
//! (k-NN runs it for rounds, `Join` reads a per-shard artefact), so the
//! executor, the ladder, the cache protocol and the stats never look at
//! a `Request`: a new probe family is one arm per `match` here. A table,
//! not a trait: `Request` is a closed enum owned by `dp-workloads`, and
//! an impl per family would have to see through to the same executor.

use crate::state::ServingState;
use crate::{CacheKind, QueryService, Response};
use dp_geom::{LineSeg, Point, Rect};
use dp_spatial::dominance::{dominance_agg, dominance_weight, skyline, DomPoint};
use dp_spatial::shard::ShardGrid;
use dp_spatial::{MalformedKind, SegId, SpatialError};
use dp_workloads::Request;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What one validated request asks of the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Plan {
    /// One routed window probe; `kind` selects reduce, wrap and cache slot.
    Probe {
        kind: CacheKind,
        rect: Rect,
    },
    /// Expanding-window probe rounds until the `k`-th best is final.
    Knn {
        p: Point,
        k: usize,
    },
    /// The cached per-shard base×overlay joins, filtered by the window.
    Join(Rect),
    Insert(LineSeg),
    /// By logical id, checked against the state the write applies to.
    Delete(SegId),
    /// Answered with the typed error, touching no shard. A refused
    /// `write` still ends its read run where an accepted one would.
    Rejected {
        error: SpatialError,
        write: bool,
    },
}

impl Plan {
    /// Writes execute one at a time between the read runs they separate.
    pub(crate) fn is_write(&self) -> bool {
        matches!(
            self,
            Plan::Insert(_) | Plan::Delete(_) | Plan::Rejected { write: true, .. }
        )
    }
}

fn finite(p: Point) -> bool {
    p.x.is_finite() && p.y.is_finite()
}

/// Per-slot validation and classification (`index`: the slot's batch
/// position, echoed into typed errors). Windows reaching outside the
/// world are *not* rejected — the service clips them naturally via
/// routing plus exact filters.
pub(crate) fn plan(world: &Rect, index: usize, r: &Request) -> Plan {
    let malformed = |kind, write| Plan::Rejected {
        error: SpatialError::MalformedRequest { index, kind },
        write,
    };
    // The canonical empty rect (`Rect::empty()`) is deliberately built
    // from infinities and is a well-defined request that matches nothing;
    // NaN corners fail `is_empty`'s comparisons, so poisoned rects are
    // still caught.
    let well_formed = |q: &Rect| (finite(q.min) && finite(q.max)) || q.is_empty();
    let probe = |kind, rect| Plan::Probe { kind, rect };
    match *r {
        Request::Window(q) | Request::Join(q) | Request::Skyline(q) if !well_formed(&q) => {
            malformed(MalformedKind::NonFiniteWindow, false)
        }
        Request::KNearest { k: 0, .. } => malformed(MalformedKind::ZeroK, false),
        Request::PointInWindow(p) | Request::DominanceAgg(p) | Request::KNearest { p, .. }
            if !finite(p) =>
        {
            malformed(MalformedKind::NonFinitePoint, false)
        }
        Request::Insert(seg) if !(finite(seg.a) && finite(seg.b)) => {
            malformed(MalformedKind::NonFiniteSegment, true)
        }
        Request::Insert(seg)
            if !(world.contains_half_open(seg.a) && world.contains_half_open(seg.b)) =>
        {
            Plan::Rejected {
                error: SpatialError::SegmentOutsideWorld { index },
                write: true,
            }
        }
        Request::Window(q) => probe(CacheKind::Window, q),
        Request::PointInWindow(p) => probe(CacheKind::PointInWindow, Rect::point(p)),
        Request::Skyline(q) => probe(CacheKind::Skyline, q),
        // The dominated rectangle — world min corner to the query point
        // (clamped so it stays well-formed when the point lies below the
        // world). No segment outside it can contribute, its bit pattern
        // is the cache key, and its max corner hands `reduce` the point.
        Request::DominanceAgg(p) => probe(
            CacheKind::DominanceAgg,
            Rect::from_coords(world.min.x.min(p.x), world.min.y.min(p.y), p.x, p.y),
        ),
        Request::KNearest { p, k } => Plan::Knn { p, k },
        Request::Join(q) => Plan::Join(q),
        Request::Insert(seg) => Plan::Insert(seg),
        Request::Delete(id) => Plan::Delete(id),
    }
}

/// The shard a request queues behind on the admission path: the first
/// its geometry overlaps, so a coalesced batch stays shard-local (deletes
/// address logical ids, not geometry, and spread by id). What [`plan`]
/// will refuse routes to shard 0.
pub(crate) fn route(grid: &ShardGrid, r: &Request) -> usize {
    let at = |p: Point| {
        // `Rect::point` asserts on NaN.
        finite(p)
            .then(|| grid.first_shard_overlapping(&Rect::point(p)))
            .flatten()
    };
    match r {
        Request::Window(q) | Request::Join(q) | Request::Skyline(q) => {
            grid.first_shard_overlapping(q)
        }
        Request::PointInWindow(p) | Request::KNearest { p, .. } | Request::DominanceAgg(p) => {
            at(*p)
        }
        Request::Insert(seg) => at(seg.a),
        Request::Delete(id) => Some(*id as usize),
    }
    .unwrap_or(0)
}

/// A payload as its family's response — cache hits and computed answers
/// alike, sharing the payload's allocation.
pub(crate) fn wrap(kind: CacheKind, payload: Arc<Vec<SegId>>) -> Response {
    match kind {
        CacheKind::Window => Response::Window(payload),
        CacheKind::PointInWindow => Response::PointInWindow(payload),
        CacheKind::Skyline => Response::Skyline(payload),
        CacheKind::DominanceAgg => {
            let (count, sum, max) = decode_agg(&payload);
            Response::DominanceAgg { count, sum, max }
        }
    }
}

/// Packs a dominance aggregate triple into six `u32` words (hi/lo per
/// value) so the answer can ride the cache's `Arc<Vec<SegId>>` payload
/// unchanged.
fn encode_agg((count, sum, max): (u64, u64, u64)) -> Vec<SegId> {
    let mut out = Vec::with_capacity(6);
    for v in [count, sum, max] {
        out.push((v >> 32) as SegId);
        out.push(v as SegId);
    }
    out
}

/// Inverse of [`encode_agg`]; a malformed payload decodes to the empty
/// aggregate rather than panicking on the serving path.
fn decode_agg(words: &[SegId]) -> (u64, u64, u64) {
    if words.len() != 6 {
        return (0, 0, 0);
    }
    let v = |i: usize| ((words[i] as u64) << 32) | words[i + 1] as u64;
    (v(0), v(2), v(4))
}

/// Brute closed max-dominance skyline over dominance points — the
/// degraded rung when the aggregation machine crashes mid-pipeline. O(n²)
/// but exact; restates the `seq_spatial` oracle locally because that
/// crate is a dev-dependency only.
fn brute_skyline(points: &[DomPoint]) -> Vec<SegId> {
    let dominates =
        |a: &DomPoint, b: &DomPoint| a.x >= b.x && a.y >= b.y && (a.x > b.x || a.y > b.y);
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .map(|p| p.id)
        .collect()
}

/// Midpoint of a logical segment lifted to a dominance point with its
/// quantized-length weight.
fn dom_point(st: &ServingState, id: SegId) -> DomPoint {
    let seg = st.logical_seg(id);
    let mid = seg.midpoint();
    DomPoint {
        id,
        x: mid.x,
        y: mid.y,
        w: dominance_weight(&seg),
    }
}

impl QueryService {
    /// A probe's candidates (sorted logical ids intersecting `rect`) as
    /// the family's finished payload, shared by cache entry and response.
    pub(crate) fn reduce(
        &self,
        st: &ServingState,
        kind: CacheKind,
        rect: &Rect,
        cands: Vec<SegId>,
    ) -> Vec<SegId> {
        match kind {
            CacheKind::Window | CacheKind::PointInWindow => cands,
            CacheKind::Skyline => self.compute_skyline(st, &cands),
            CacheKind::DominanceAgg => {
                encode_agg(self.compute_dominance_agg(st, &cands, &rect.max))
            }
        }
    }

    /// Skyline of the candidates' midpoints via the data-parallel
    /// sort + segmented-scan pipeline on the aggregation machine, with a
    /// brute closed-dominance fallback when the machine crashes
    /// (injected [`scan_model::FaultSite::SkylineAbort`] or genuine) —
    /// ids come back sorted ascending either way.
    fn compute_skyline(&self, st: &ServingState, cands: &[SegId]) -> Vec<SegId> {
        let points: Vec<DomPoint> = cands.iter().map(|&id| dom_point(st, id)).collect();
        let run = catch_unwind(AssertUnwindSafe(|| skyline(&self.agg_machine, &points)));
        let mut ids = run.unwrap_or_else(|_| brute_skyline(&points));
        ids.sort_unstable();
        ids
    }

    /// `(count, sum, max)` over the candidates whose midpoint lies in
    /// the closed lower-left quadrant of `p`. The dominated set is
    /// resolved by the filter; the scan-model [`dominance_agg`] pipeline
    /// then aggregates it (every retained point is dominated by `p`, so
    /// the single-query aggregate covers the whole set), with a direct
    /// fold as the crash fallback.
    fn compute_dominance_agg(
        &self,
        st: &ServingState,
        cands: &[SegId],
        p: &Point,
    ) -> (u64, u64, u64) {
        let points: Vec<DomPoint> = cands
            .iter()
            .map(|&id| dom_point(st, id))
            .filter(|d| d.x <= p.x && d.y <= p.y)
            .collect();
        if points.is_empty() {
            return (0, 0, 0);
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            dominance_agg(&self.agg_machine, &points, &[(p.x, p.y)])
        }));
        match run {
            Ok(aggs) => (aggs[0].count, aggs[0].sum, aggs[0].max),
            Err(_) => points
                .iter()
                .fold((0, 0, 0), |(c, s, m), d| (c + 1, s + d.w, m.max(d.w))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryServiceConfig;
    use dp_geom::clip_segment_closed;
    use dp_workloads::uniform_segments;

    fn brute_window(segs: &[LineSeg], q: &Rect) -> Vec<SegId> {
        (0..segs.len() as SegId)
            .filter(|&id| clip_segment_closed(&segs[id as usize], q).is_some())
            .collect()
    }

    #[test]
    fn malformed_requests_are_rejected_per_slot() {
        let data = uniform_segments(80, 64, 8, 2);
        let svc = QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        );
        let nan_rect = Rect {
            min: Point::new(f64::NAN, f64::NAN),
            max: Point::new(f64::NAN, f64::NAN),
        };
        let good = Rect::from_coords(0.0, 0.0, 32.0, 32.0);
        let out = svc.execute_batch(&[
            Request::Window(good),
            Request::Window(nan_rect),
            Request::KNearest {
                p: Point::new(3.0, 3.0),
                k: 0,
            },
            Request::PointInWindow(Point::new(f64::INFINITY, 1.0)),
            Request::Window(good),
        ]);
        // Rejections are typed and slot-aligned...
        assert_eq!(
            out[1],
            Response::Rejected(SpatialError::MalformedRequest {
                index: 1,
                kind: MalformedKind::NonFiniteWindow,
            })
        );
        assert_eq!(
            out[2],
            Response::Rejected(SpatialError::MalformedRequest {
                index: 2,
                kind: MalformedKind::ZeroK,
            })
        );
        assert_eq!(
            out[3],
            Response::Rejected(SpatialError::MalformedRequest {
                index: 3,
                kind: MalformedKind::NonFinitePoint,
            })
        );
        // ...and do not disturb their neighbours.
        let expected = brute_window(&data.segs, &good);
        assert_eq!(out[0].try_window(0), Ok(expected.as_slice()));
        assert_eq!(out[4].try_window(4), Ok(expected.as_slice()));
    }

    #[test]
    fn every_request_kind_routes_without_panicking_on_poison() {
        // Regression: routing built `Rect::point(p)` from unvalidated
        // points, and `Rect::new` asserts on NaN — a poisoned point
        // request panicked the submitter before validation could refuse
        // it.
        let grid = ShardGrid::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0), 2);
        let nan = Point::new(f64::INFINITY, f64::NAN);
        assert_eq!(route(&grid, &Request::PointInWindow(nan)), 0);
        assert_eq!(route(&grid, &Request::KNearest { p: nan, k: 1 }), 0);
        assert_eq!(route(&grid, &Request::DominanceAgg(nan)), 0);
        assert_eq!(
            route(&grid, &Request::Insert(LineSeg { a: nan, b: nan })),
            0
        );
        // Healthy geometry routes to the shard it first overlaps.
        let p = Point::new(40.0, 40.0);
        assert_eq!(route(&grid, &Request::PointInWindow(p)), 3);
        assert_eq!(route(&grid, &Request::DominanceAgg(p)), 3);
        assert_eq!(route(&grid, &Request::Window(Rect::point(p))), 3);
        assert_eq!(route(&grid, &Request::Delete(7)), 7);
    }

    #[test]
    fn the_dominated_rect_hands_the_query_point_back() {
        let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        for p in [Point::new(10.0, 20.0), Point::new(-3.0, 70.0)] {
            match plan(&world, 0, &Request::DominanceAgg(p)) {
                Plan::Probe { kind, rect } => {
                    assert_eq!(kind, CacheKind::DominanceAgg);
                    assert_eq!(rect.max, p);
                }
                other => panic!("expected a probe plan, got {other:?}"),
            }
        }
    }
}
