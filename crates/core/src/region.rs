//! Data-parallel **linear region quadtree** construction over binary
//! rasters — the structure the bulk of prior parallel-quadtree research
//! targeted (paper Sec. 1: "\[t\]he quadtree research has primarily
//! focussed on area (or raster) data and region quadtrees", citing
//! \[Dehn91\], \[Ibar93\], \[Best92\]). Included so the workspace covers the
//! research line the paper builds on.
//!
//! A linear region quadtree represents a binary image as the sorted list
//! of its maximal *black* blocks, each identified by a locational code.
//! The classic data-parallel bottom-up build:
//!
//! 1. one lane per black pixel, keyed by its Morton (Z-order) code — one
//!    elementwise op plus one sort through the machine;
//! 2. repeatedly merge complete sibling quadruples: four adjacent lanes
//!    whose codes are `4p, 4p+1, 4p+2, 4p+3` at the same level collapse
//!    into their parent block — an elementwise neighbour comparison, a
//!    *deletion* (Sec. 4.3 mechanics) of the three trailing siblings, and
//!    an elementwise code update, repeated `log₂ size` times.
//!
//! Set-theoretic operations (the "set theoretic spatial queries" of
//! \[Bhas88\]/\[Best92\]) run as linear merges of two block lists.

use crate::SegId;
use dp_geom::z_order;
use scan_model::{Machine, Segments};

/// A maximal black block: Morton code of its lower-left pixel plus its
/// level (0 = single pixel, `k` = `2^k × 2^k` block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Block {
    /// Morton code of the block's first (lowest-code) pixel.
    pub code: u64,
    /// Block side = `2^level` pixels.
    pub level: u8,
}

impl Block {
    /// Number of pixels covered.
    pub fn pixels(&self) -> u64 {
        1u64 << (2 * self.level)
    }

    /// The (exclusive) end of this block's pixel-code range.
    pub fn code_end(&self) -> u64 {
        self.code + self.pixels()
    }

    /// `true` when `pixel_code` falls inside this block.
    pub fn contains_code(&self, pixel_code: u64) -> bool {
        pixel_code >= self.code && pixel_code < self.code_end()
    }
}

/// A linear region quadtree over a `2^order × 2^order` binary image:
/// the sorted, disjoint, maximal black blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionQuadtree {
    order: u32,
    blocks: Vec<Block>,
}

/// Builds the linear region quadtree of the black pixels `(x, y)` in a
/// `2^order × 2^order` image, all pixels inserted simultaneously.
///
/// # Panics
///
/// Panics if `order > 31`, a pixel lies outside the image, or a pixel is
/// duplicated.
pub fn build_region_quadtree(
    machine: &Machine,
    order: u32,
    black_pixels: &[(u32, u32)],
) -> RegionQuadtree {
    assert!(order <= 31, "image order {order} too large");

    // Lane per pixel: Morton code (one elementwise op), then sort.
    let mut codes: Vec<u64> = machine.map(black_pixels, |(x, y)| {
        assert!(
            (x as u64) < (1u64 << order) && (y as u64) < (1u64 << order),
            "pixel ({x}, {y}) outside 2^{order} image"
        );
        z_order(x, y)
    });
    if !codes.is_empty() {
        let seg = Segments::single(codes.len());
        let order_perm = machine.segmented_sort_perm(&seg, &codes, |a, b| a.cmp(b));
        codes = machine.gather(&codes, &order_perm);
        for w in codes.windows(2) {
            assert!(w[0] != w[1], "duplicate black pixel (code {})", w[0]);
        }
    }
    let mut levels: Vec<u8> = vec![0; codes.len()];

    // Bottom-up sibling merging, one level per round.
    for round in 0..order {
        if codes.len() < 4 {
            break;
        }
        machine.bump_rounds();
        let level = round as u8;
        // A lane starts a mergeable quadruple when it and its next three
        // lanes are the four siblings of one parent at `level`
        // (elementwise over shifted views — a constant number of vector
        // ops).
        machine.note_elementwise();
        let n = codes.len();
        let block_pixels = 1u64 << (2 * level);
        let mut merge_head = vec![false; n];
        for i in 0..n.saturating_sub(3) {
            if levels[i] != level {
                continue;
            }
            let parent_pixels = block_pixels * 4;
            let aligned = codes[i] % parent_pixels == 0;
            let ok = aligned
                && (1..4).all(|k| {
                    levels[i + k] == level && codes[i + k] == codes[i] + k as u64 * block_pixels
                });
            merge_head[i] = ok;
        }
        if !merge_head.iter().any(|&b| b) {
            continue;
        }
        // Promote heads to the parent level; delete the trailing three
        // siblings with the deletion primitive.
        machine.note_elementwise();
        let mut delete = vec![false; n];
        for i in 0..n {
            if merge_head[i] {
                levels[i] = level + 1;
                delete[i + 1] = true;
                delete[i + 2] = true;
                delete[i + 3] = true;
            }
        }
        let seg = Segments::single(n);
        let layout = machine.delete_layout(&seg, &delete);
        codes = machine.apply(&codes, &layout);
        levels = machine.apply(&levels, &layout);
    }

    let blocks = codes
        .into_iter()
        .zip(levels)
        .map(|(code, level)| Block { code, level })
        .collect();
    RegionQuadtree { order, blocks }
}

impl RegionQuadtree {
    /// Constructs directly from sorted disjoint blocks (used by the set
    /// operations; validated in debug builds).
    fn from_blocks(order: u32, blocks: Vec<Block>) -> Self {
        debug_assert!(blocks.windows(2).all(|w| w[0].code_end() <= w[1].code));
        RegionQuadtree { order, blocks }
    }

    /// Image order (side = `2^order` pixels).
    pub fn order(&self) -> u32 {
        self.order
    }

    /// The sorted maximal black blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of black pixels (a region property, computed by one scan in
    /// the model; plain fold here).
    pub fn black_area(&self) -> u64 {
        self.blocks.iter().map(|b| b.pixels()).sum()
    }

    /// Is pixel `(x, y)` black? Binary search over the block list.
    ///
    /// # Panics
    ///
    /// Panics if the pixel lies outside the image.
    pub fn contains_pixel(&self, x: u32, y: u32) -> bool {
        assert!(
            (x as u64) < (1u64 << self.order) && (y as u64) < (1u64 << self.order),
            "pixel ({x}, {y}) outside 2^{} image",
            self.order
        );
        let code = z_order(x, y);
        match self.blocks.binary_search_by(|b| b.code.cmp(&code)) {
            Ok(_) => true,
            Err(ins) => ins > 0 && self.blocks[ins - 1].contains_code(code),
        }
    }

    /// Union of two region quadtrees over the same image (merging the
    /// block lists and re-normalizing to maximal blocks).
    ///
    /// # Panics
    ///
    /// Panics if the image orders differ.
    pub fn union(&self, other: &RegionQuadtree) -> RegionQuadtree {
        assert_eq!(self.order, other.order, "image orders differ");
        // Merge the two sorted lists, keeping the larger block when one
        // contains the other.
        let mut merged: Vec<Block> = Vec::with_capacity(self.blocks.len() + other.blocks.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.blocks.len() || j < other.blocks.len() {
            let next = match (self.blocks.get(i), other.blocks.get(j)) {
                (Some(a), Some(b)) => {
                    if a.code <= b.code {
                        i += 1;
                        *a
                    } else {
                        j += 1;
                        *b
                    }
                }
                (Some(a), None) => {
                    i += 1;
                    *a
                }
                (None, Some(b)) => {
                    j += 1;
                    *b
                }
                (None, None) => unreachable!(),
            };
            match merged.last() {
                Some(last) if last.code_end() > next.code => {
                    // Overlap: keep whichever covers more (blocks are
                    // quadtree-aligned, so one contains the other).
                    if next.code_end() > last.code_end() {
                        merged.pop();
                        merged.push(next);
                    }
                }
                _ => merged.push(next),
            }
        }
        RegionQuadtree::from_blocks(self.order, merged).normalized()
    }

    /// Intersection of two region quadtrees over the same image.
    ///
    /// # Panics
    ///
    /// Panics if the image orders differ.
    pub fn intersection(&self, other: &RegionQuadtree) -> RegionQuadtree {
        assert_eq!(self.order, other.order, "image orders differ");
        let mut out: Vec<Block> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (self.blocks[i], other.blocks[j]);
            // Intersection of two aligned blocks is empty or the smaller.
            let lo = a.code.max(b.code);
            let hi = a.code_end().min(b.code_end());
            if lo < hi {
                out.push(if a.pixels() <= b.pixels() { a } else { b });
            }
            if a.code_end() <= b.code_end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        RegionQuadtree::from_blocks(self.order, out).normalized()
    }

    /// Re-merges complete sibling quadruples so every block is maximal
    /// (set operations can create four mergeable siblings).
    fn normalized(mut self) -> RegionQuadtree {
        loop {
            let mut merged_any = false;
            let mut out: Vec<Block> = Vec::with_capacity(self.blocks.len());
            let mut i = 0usize;
            while i < self.blocks.len() {
                let b = self.blocks[i];
                let parent_pixels = b.pixels() * 4;
                let mergeable = b.code % parent_pixels == 0
                    && i + 3 < self.blocks.len()
                    && (1..4).all(|k| {
                        let s = self.blocks[i + k];
                        s.level == b.level && s.code == b.code + k as u64 * b.pixels()
                    });
                if mergeable {
                    out.push(Block {
                        code: b.code,
                        level: b.level + 1,
                    });
                    i += 4;
                    merged_any = true;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            self.blocks = out;
            if !merged_any {
                return self;
            }
        }
    }

    /// All black pixels, decoded (for testing and rasterization).
    pub fn to_pixels(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.black_area() as usize);
        for b in &self.blocks {
            for code in b.code..b.code_end() {
                out.push(decode_code(code));
            }
        }
        out
    }

    /// Total boundary length between black and white (image-border edges
    /// of black pixels included) — a classic region property extracted
    /// from linear quadtrees (\[Bhas88\]'s "extracting region properties").
    /// Walks each block's exposed sides, probing the neighbouring pixels.
    pub fn perimeter(&self) -> u64 {
        let n = 1u64 << self.order;
        let mut total = 0u64;
        for b in &self.blocks {
            let (bx, by) = decode_code(b.code);
            let side = 1u32 << b.level;
            for k in 0..side {
                // West and east columns.
                if bx == 0 || !self.contains_pixel(bx - 1, by + k) {
                    total += 1;
                }
                if (bx + side) as u64 >= n || !self.contains_pixel(bx + side, by + k) {
                    total += 1;
                }
                // South and north rows.
                if by == 0 || !self.contains_pixel(bx + k, by - 1) {
                    total += 1;
                }
                if (by + side) as u64 >= n || !self.contains_pixel(bx + k, by + side) {
                    total += 1;
                }
            }
        }
        total
    }

    /// Number of blocks (the storage metric of the region-quadtree
    /// literature).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Decodes a Morton code back to pixel coordinates.
fn decode_code(code: u64) -> (u32, u32) {
    fn compact(mut v: u64) -> u32 {
        v &= 0x5555_5555_5555_5555;
        v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
        v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
        v as u32
    }
    (compact(code >> 1), compact(code))
}

/// Reference sequential check: the number of ids used for parity with the
/// segment structures' id type.
pub type PixelId = SegId;

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::Backend;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn full_image(order: u32) -> Vec<(u32, u32)> {
        let n = 1u32 << order;
        (0..n).flat_map(|x| (0..n).map(move |y| (x, y))).collect()
    }

    #[test]
    fn full_image_collapses_to_one_block() {
        for m in machines() {
            let t = build_region_quadtree(&m, 3, &full_image(3));
            assert_eq!(t.num_blocks(), 1);
            assert_eq!(t.blocks()[0], Block { code: 0, level: 3 });
            assert_eq!(t.black_area(), 64);
        }
    }

    #[test]
    fn empty_image() {
        for m in machines() {
            let t = build_region_quadtree(&m, 4, &[]);
            assert_eq!(t.num_blocks(), 0);
            assert_eq!(t.black_area(), 0);
            assert!(!t.contains_pixel(3, 3));
        }
    }

    #[test]
    fn single_pixel_and_quadrant() {
        for m in machines() {
            let t = build_region_quadtree(&m, 2, &[(1, 1)]);
            assert_eq!(t.num_blocks(), 1);
            assert_eq!(t.blocks()[0].level, 0);
            assert!(t.contains_pixel(1, 1));
            assert!(!t.contains_pixel(1, 2));

            // One full 2x2 quadrant merges to a level-1 block.
            let quad = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
            let t = build_region_quadtree(&m, 2, &quad);
            assert_eq!(t.num_blocks(), 1);
            assert_eq!(t.blocks()[0].level, 1);
        }
    }

    #[test]
    fn membership_matches_input_exactly() {
        for m in machines() {
            // A deterministic pseudo-random blob.
            let order = 5u32;
            let n = 1u32 << order;
            let black: Vec<(u32, u32)> = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| (x * x + 3 * y + x * y) % 7 < 3)
                .collect();
            let t = build_region_quadtree(&m, order, &black);
            assert_eq!(t.black_area() as usize, black.len());
            for x in 0..n {
                for y in 0..n {
                    let want = (x * x + 3 * y + x * y) % 7 < 3;
                    assert_eq!(t.contains_pixel(x, y), want, "pixel ({x},{y})");
                }
            }
            // Maximality: fewer blocks than pixels for blobby data.
            assert!(t.num_blocks() < black.len());
            // Round-trip through decoding.
            let mut pixels = t.to_pixels();
            pixels.sort_unstable();
            let mut want = black.clone();
            want.sort_unstable();
            assert_eq!(pixels, want);
        }
    }

    #[test]
    fn blocks_are_maximal() {
        for m in machines() {
            let order = 4u32;
            let black = full_image(order);
            // Remove one pixel: the tree must decompose around the hole.
            let holey: Vec<(u32, u32)> = black
                .into_iter()
                .filter(|&(x, y)| !(x == 5 && y == 9))
                .collect();
            let t = build_region_quadtree(&m, order, &holey);
            assert_eq!(t.black_area() as usize, holey.len());
            // No four siblings left unmerged.
            for w in t.blocks().windows(4) {
                let b = w[0];
                let all_siblings = b.code % (b.pixels() * 4) == 0
                    && (1..4).all(|k| {
                        w[k].level == b.level && w[k].code == b.code + k as u64 * b.pixels()
                    });
                assert!(!all_siblings, "unmerged quadruple at code {}", b.code);
            }
        }
    }

    #[test]
    fn union_and_intersection_match_pixel_sets() {
        for m in machines() {
            let order = 4u32;
            let n = 1u32 << order;
            let a_px: Vec<(u32, u32)> = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| x < 8 && y < 12)
                .collect();
            let b_px: Vec<(u32, u32)> = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| x >= 4 && y >= 2)
                .collect();
            let a = build_region_quadtree(&m, order, &a_px);
            let b = build_region_quadtree(&m, order, &b_px);
            let u = a.union(&b);
            let i = a.intersection(&b);
            for x in 0..n {
                for y in 0..n {
                    let in_a = x < 8 && y < 12;
                    let in_b = x >= 4 && y >= 2;
                    assert_eq!(u.contains_pixel(x, y), in_a || in_b, "union ({x},{y})");
                    assert_eq!(
                        i.contains_pixel(x, y),
                        in_a && in_b,
                        "intersection ({x},{y})"
                    );
                }
            }
            // Areas agree with the set sizes.
            let inter_count = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| x < 8 && y < 12 && x >= 4 && y >= 2)
                .count();
            assert_eq!(i.black_area() as usize, inter_count);
            assert_eq!(
                u.black_area() as usize,
                a_px.len() + b_px.len() - inter_count
            );
            // Results are normalized (maximal blocks): union of the two
            // overlapping rectangles has far fewer blocks than pixels.
            assert!(u.num_blocks() < u.black_area() as usize / 2);
        }
    }

    #[test]
    fn union_with_containment() {
        for m in machines() {
            let order = 3u32;
            let big = build_region_quadtree(&m, order, &full_image(order));
            let small = build_region_quadtree(&m, order, &[(2, 2), (5, 1)]);
            let u = small.union(&big);
            assert_eq!(u, big.clone().normalized());
            let i = small.intersection(&big);
            assert_eq!(i.black_area(), 2);
        }
    }

    #[test]
    fn perimeter_matches_pixel_count() {
        for m in machines() {
            // Full image: perimeter = 4 * side.
            let t = build_region_quadtree(&m, 3, &full_image(3));
            assert_eq!(t.perimeter(), 4 * 8);
            // Single pixel.
            let t = build_region_quadtree(&m, 3, &[(3, 4)]);
            assert_eq!(t.perimeter(), 4);
            // Two horizontally adjacent pixels share one edge: 6.
            let t = build_region_quadtree(&m, 3, &[(3, 4), (4, 4)]);
            assert_eq!(t.perimeter(), 6);
            // Random blob: brute-force per-pixel comparison.
            let order = 4u32;
            let n = 1u32 << order;
            let black: Vec<(u32, u32)> = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| (3 * x + 5 * y + x * y) % 6 < 3)
                .collect();
            let t = build_region_quadtree(&m, order, &black);
            let is_black = |x: i64, y: i64| {
                x >= 0
                    && y >= 0
                    && x < n as i64
                    && y < n as i64
                    && black.contains(&(x as u32, y as u32))
            };
            let mut want = 0u64;
            for &(x, y) in &black {
                for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    if !is_black(x as i64 + dx, y as i64 + dy) {
                        want += 1;
                    }
                }
            }
            assert_eq!(t.perimeter(), want);
        }
    }

    #[test]
    fn backends_agree() {
        let order = 5u32;
        let n = 1u32 << order;
        let black: Vec<(u32, u32)> = (0..n)
            .flat_map(|x| (0..n).map(move |y| (x, y)))
            .filter(|&(x, y)| (x + 2 * y) % 5 != 0)
            .collect();
        let a = build_region_quadtree(&Machine::sequential(), order, &black);
        let b = build_region_quadtree(
            &Machine::new(Backend::Parallel).with_par_threshold(1),
            order,
            &black,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate black pixel")]
    fn duplicate_pixels_rejected() {
        build_region_quadtree(&Machine::sequential(), 3, &[(1, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "orders differ")]
    fn mismatched_orders_rejected() {
        let m = Machine::sequential();
        let a = build_region_quadtree(&m, 3, &[]);
        let b = build_region_quadtree(&m, 4, &[]);
        let _ = a.union(&b);
    }
}
