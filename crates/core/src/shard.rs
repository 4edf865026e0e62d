//! Spatial partitioning of a segment collection into index shards.
//!
//! The service layer (crate `dp-service`) splits the world into a
//! `g × g` grid of tiles and builds one quadtree per tile over the
//! segments that touch it. This module holds the partitioning logic the
//! service and its tests share:
//!
//! * [`ShardGrid`] — the tile geometry plus query routing (which shards a
//!   window overlaps, which shard owns a point);
//! * [`ShardGrid::assign_segments`] — the build-time partition: a segment
//!   belongs to every tile it (closed-)intersects, mirroring the q-edge
//!   rule of the paper's quadtrees where a line belongs to every block it
//!   passes through (Sec. 2.1);
//! * [`ShardIndex`] / [`build_shard`] — one shard's bucket PMR quadtree
//!   (paper Sec. 5.2) over its assigned subset.
//!
//! Shard trees keep the **original** segment geometry and span the full
//! world rectangle: the tree only subdivides where its subset has lines,
//! so an off-tile region costs a handful of empty blocks, and the build's
//! half-open containment precondition holds without rewriting endpoints.
//! Correctness of routing window queries: any intersection point of a
//! segment `s` with a window `q` lies in some tile `T`; `q` overlaps `T`,
//! so the request is routed there, and `s` touches `T`, so `T`'s shard
//! indexes `s`. Segments spanning several tiles are simply reported by
//! several shards; the merge step deduplicates.

use crate::bucket_pmr::build_bucket_pmr;
use crate::quadtree::DpQuadtree;
use crate::SegId;
use dp_geom::{clip_segment_closed, LineSeg, Rect};
use scan_model::Machine;

/// A `g × g` grid of tiles partitioning a world rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardGrid {
    world: Rect,
    grid: u32,
}

impl ShardGrid {
    /// A grid of `grid × grid` tiles over `world`.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` is a positive power of two (tile edges then
    /// coincide with quadtree split coordinates and stay exact in `f64`
    /// for the dyadic worlds the workloads use).
    pub fn new(world: Rect, grid: u32) -> Self {
        assert!(
            grid.is_power_of_two(),
            "shard grid {grid} must be a power of two"
        );
        ShardGrid { world, grid }
    }

    /// The world rectangle.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Tiles per side.
    pub fn grid(&self) -> u32 {
        self.grid
    }

    /// Total number of shards (`grid²`).
    pub fn num_shards(&self) -> usize {
        (self.grid * self.grid) as usize
    }

    fn tile_size(&self) -> (f64, f64) {
        (
            (self.world.max.x - self.world.min.x) / self.grid as f64,
            (self.world.max.y - self.world.min.y) / self.grid as f64,
        )
    }

    /// The tile at column `ix`, row `iy` (both in `0..grid`, rows from
    /// `world.min.y` upward).
    pub fn tile(&self, ix: u32, iy: u32) -> Rect {
        assert!(ix < self.grid && iy < self.grid);
        let (tw, th) = self.tile_size();
        Rect::from_coords(
            self.world.min.x + ix as f64 * tw,
            self.world.min.y + iy as f64 * th,
            self.world.min.x + (ix + 1) as f64 * tw,
            self.world.min.y + (iy + 1) as f64 * th,
        )
    }

    /// The tile of shard `index` (row-major: `index = iy * grid + ix`).
    pub fn tile_of(&self, index: usize) -> Rect {
        let g = self.grid as usize;
        assert!(index < self.num_shards());
        self.tile((index % g) as u32, (index / g) as u32)
    }

    /// Candidate index range along one axis, widened by one tile on each
    /// side; the caller filters the candidates with the exact closed
    /// rectangle test so boundary-touching windows route to every shard
    /// [`Rect::intersects`] says they touch.
    fn axis_candidates(&self, lo: f64, hi: f64, wmin: f64, tile: f64) -> Option<(u32, u32)> {
        if hi < lo {
            return None; // empty rectangle
        }
        let g = self.grid;
        let wmax = wmin + g as f64 * tile;
        if hi < wmin || lo > wmax {
            return None;
        }
        let raw_lo = ((lo - wmin) / tile).floor();
        let raw_hi = ((hi - wmin) / tile).floor();
        let a = if raw_lo <= 1.0 {
            0
        } else {
            (raw_lo as u32 - 1).min(g - 1)
        };
        let b = if raw_hi < 0.0 {
            0
        } else {
            (raw_hi as u32).saturating_add(1).min(g - 1)
        };
        Some((a, b))
    }

    /// Indices of every shard whose tile (closed-)intersects `query`, in
    /// ascending row-major order. Empty for an empty or out-of-world
    /// rectangle. Shared boundaries count: a window edge lying exactly on
    /// a tile boundary routes to the tiles on both sides, matching
    /// [`Rect::intersects`].
    pub fn shards_overlapping(&self, query: &Rect) -> Vec<usize> {
        let (tw, th) = self.tile_size();
        let Some((x0, x1)) = self.axis_candidates(query.min.x, query.max.x, self.world.min.x, tw)
        else {
            return Vec::new();
        };
        let Some((y0, y1)) = self.axis_candidates(query.min.y, query.max.y, self.world.min.y, th)
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                if self.tile(ix, iy).intersects(query) {
                    out.push((iy * self.grid + ix) as usize);
                }
            }
        }
        out
    }

    /// The lowest-index shard whose tile (closed-)intersects `query` —
    /// `shards_overlapping(query).first()` without the allocation. The
    /// admission router calls this once per arriving request, so the
    /// `Vec` the full enumeration builds would be pure routing overhead.
    pub fn first_shard_overlapping(&self, query: &Rect) -> Option<usize> {
        let (tw, th) = self.tile_size();
        let (x0, x1) = self.axis_candidates(query.min.x, query.max.x, self.world.min.x, tw)?;
        let (y0, y1) = self.axis_candidates(query.min.y, query.max.y, self.world.min.y, th)?;
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                if self.tile(ix, iy).intersects(query) {
                    return Some((iy * self.grid + ix) as usize);
                }
            }
        }
        None
    }

    /// Partitions `segs` over the tiles: shard `i` receives the ids of
    /// every segment that (closed-)intersects tile `i`. A segment
    /// crossing tile boundaries appears in every tile it touches.
    pub fn assign_segments(&self, segs: &[LineSeg]) -> Vec<Vec<SegId>> {
        let mut assignment = vec![Vec::new(); self.num_shards()];
        for (id, s) in segs.iter().enumerate() {
            let bbox = Rect::from_coords(
                s.a.x.min(s.b.x),
                s.a.y.min(s.b.y),
                s.a.x.max(s.b.x),
                s.a.y.max(s.b.y),
            );
            for shard in self.shards_overlapping(&bbox) {
                if clip_segment_closed(s, &self.tile_of(shard)).is_some() {
                    assignment[shard].push(id as SegId);
                }
            }
        }
        assignment
    }
}

/// One shard: its tile, its bucket PMR quadtree over the assigned subset,
/// and the local→global id map.
#[derive(Debug, Clone)]
pub struct ShardIndex {
    /// The tile this shard is responsible for.
    pub tile: Rect,
    /// Bucket PMR quadtree over [`ShardIndex::segs`] (local ids). The tree
    /// spans the full world, not the tile — see the module docs.
    pub tree: DpQuadtree,
    /// Original geometry of the assigned segments, indexed by local id.
    pub segs: Vec<LineSeg>,
    /// `global_ids[local]` is the id of the segment in the service's full
    /// collection.
    pub global_ids: Vec<SegId>,
}

/// Builds one shard's index: the bucket PMR quadtree (paper Sec. 5.2)
/// over the segments `ids` assigned to `tile`, keeping original geometry.
pub fn build_shard(
    machine: &Machine,
    world: Rect,
    tile: Rect,
    all_segs: &[LineSeg],
    ids: &[SegId],
    capacity: usize,
    max_depth: usize,
) -> ShardIndex {
    let segs: Vec<LineSeg> = ids.iter().map(|&id| all_segs[id as usize]).collect();
    let tree = build_bucket_pmr(machine, world, &segs, capacity, max_depth);
    ShardIndex {
        tile,
        tree,
        segs,
        global_ids: ids.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_geom::Point;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 64.0, 64.0)
    }

    /// Reference routing: test every tile.
    fn brute_overlap(grid: &ShardGrid, q: &Rect) -> Vec<usize> {
        (0..grid.num_shards())
            .filter(|&i| grid.tile_of(i).intersects(q))
            .collect()
    }

    #[test]
    fn tiles_partition_the_world() {
        let g = ShardGrid::new(world(), 4);
        assert_eq!(g.num_shards(), 16);
        let mut area = 0.0;
        for i in 0..g.num_shards() {
            let t = g.tile_of(i);
            area += (t.max.x - t.min.x) * (t.max.y - t.min.y);
        }
        assert_eq!(area, 64.0 * 64.0);
        // Every in-world point is owned by exactly one shard.
        for &(x, y) in &[
            (0.0, 0.0),
            (15.9, 16.0),
            (16.0, 16.0),
            (63.9, 63.9),
            (32.0, 0.0),
        ] {
            let p = Point::new(x, y);
            let owners = (0..g.num_shards())
                .filter(|&i| g.tile_of(i).contains_half_open(p))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn routing_matches_brute_force() {
        for grid in [1u32, 2, 4, 8] {
            let g = ShardGrid::new(world(), grid);
            let queries = [
                Rect::from_coords(0.0, 0.0, 64.0, 64.0),
                Rect::from_coords(1.0, 1.0, 2.0, 2.0),
                Rect::from_coords(16.0, 16.0, 16.0, 16.0), // degenerate on boundary
                Rect::point(Point::new(31.5, 33.0)),
                Rect::from_coords(16.0, 0.0, 48.0, 64.0),
                Rect::from_coords(-10.0, -10.0, 200.0, 200.0),
                Rect::from_coords(70.0, 70.0, 80.0, 80.0), // out of world
                Rect::from_coords(0.0, 32.0, 64.0, 32.0),  // boundary-aligned line
                Rect::empty(),
            ];
            for q in &queries {
                assert_eq!(
                    g.shards_overlapping(q),
                    brute_overlap(&g, q),
                    "grid {grid} query {q}"
                );
                assert_eq!(
                    g.first_shard_overlapping(q),
                    g.shards_overlapping(q).first().copied(),
                    "grid {grid} query {q}"
                );
            }
        }
    }

    #[test]
    fn boundary_window_routes_to_both_sides() {
        let g = ShardGrid::new(world(), 2);
        // A degenerate window on the centre split line touches all four.
        let q = Rect::point(Point::new(32.0, 32.0));
        assert_eq!(g.shards_overlapping(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn assignment_covers_every_segment() {
        let g = ShardGrid::new(world(), 4);
        let segs = vec![
            LineSeg::from_coords(1.0, 1.0, 2.0, 2.0),    // inside tile 0
            LineSeg::from_coords(1.0, 1.0, 60.0, 60.0),  // diagonal across many
            LineSeg::from_coords(0.0, 16.0, 63.0, 16.0), // along a tile boundary
        ];
        let assignment = g.assign_segments(&segs);
        let mut seen = vec![0usize; segs.len()];
        for (shard, ids) in assignment.iter().enumerate() {
            for &id in ids {
                seen[id as usize] += 1;
                assert!(
                    clip_segment_closed(&segs[id as usize], &g.tile_of(shard)).is_some(),
                    "segment {id} assigned to non-touching shard {shard}"
                );
            }
        }
        assert!(seen.iter().all(|&c| c >= 1), "unassigned segment: {seen:?}");
        // The boundary-following segment belongs to the tiles on both sides.
        assert!(
            seen[2] >= 8,
            "boundary segment rides both rows: {}",
            seen[2]
        );
    }

    #[test]
    fn shard_query_union_matches_global_query() {
        let m = Machine::sequential();
        let segs: Vec<LineSeg> = (0..40)
            .map(|k| {
                let x = ((k * 13) % 60) as f64;
                let y = ((k * 29) % 60) as f64;
                LineSeg::from_coords(x, y, (x + 5.0).min(63.0), (y + 3.0).min(63.0))
            })
            .collect();
        let g = ShardGrid::new(world(), 2);
        let assignment = g.assign_segments(&segs);
        let shards: Vec<ShardIndex> = (0..g.num_shards())
            .map(|i| build_shard(&m, world(), g.tile_of(i), &segs, &assignment[i], 4, 8))
            .collect();
        let global = build_bucket_pmr(&m, world(), &segs, 4, 8);
        for q in [
            Rect::from_coords(0.0, 0.0, 64.0, 64.0),
            Rect::from_coords(10.0, 10.0, 40.0, 30.0),
            Rect::from_coords(31.0, 31.0, 33.0, 33.0),
        ] {
            let mut merged: Vec<SegId> = Vec::new();
            for s in g.shards_overlapping(&q) {
                let sh = &shards[s];
                for local in sh.tree.window_query(&q, &sh.segs) {
                    merged.push(sh.global_ids[local as usize]);
                }
            }
            merged.sort_unstable();
            merged.dedup();
            assert_eq!(merged, global.window_query(&q, &segs), "query {q}");
        }
    }
}
