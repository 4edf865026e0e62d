//! The lockstep batch window query against the pointer descent on a
//! serve-shaped tree, and its allocation budget.
//!
//! `batch_window_query` classifies a lane's children once, sends copies
//! straight to their slots and deduplicates by mark-and-pack
//! (`dp_spatial::batch`); `DpQuadtree::window_query` still walks pointers,
//! sorts, dedups and clips every survivor. The two share no step after
//! the tree itself, which is what makes the second the oracle of the
//! first:
//!
//! * **(a) answers.** On the tree `dpbench`'s `serve_*` workloads probe —
//!   20,000 uniform segments, one tile of a 2 × 2 grid, bucket capacity 8
//!   — and `dp_workloads::request_stream`'s own windows (world-spanning,
//!   degenerate and tile-boundary ones included), every batch size from
//!   a lone probe to a full flush, on three machines.
//! * **(b) allocations.** A warm probe at batch 1 asks the allocator for
//!   the result vectors, the ids that land in them, and one `usize` per
//!   level — nothing that grows with the frontier.
//!
//! The fault-matrix CI legs run this file too: the descent's pool
//! checkpoints and `update`'s round-abort site sit where they sat before
//! the level step changed.

use dp_geom::{LineSeg, Rect};
use dp_spatial::batch::batch_window_query;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::shard::{build_shard, ShardGrid, ShardIndex};
use dp_workloads::{request_stream, uniform_segments, Request, RequestMix};
use scan_model::{Backend, Machine};

mod support;
use support::allocations_by;

fn machines() -> Vec<Machine> {
    vec![
        Machine::sequential(),
        Machine::new(Backend::Parallel).with_par_threshold(1),
        // Tiny blocks: every level crosses many block boundaries.
        Machine::new(Backend::Parallel)
            .with_par_threshold(1)
            .with_block_bytes(4 * std::mem::size_of::<u64>()),
    ]
}

/// Shard 0 of `dpbench serve_uniform`'s service, built as the service
/// builds it.
fn serve_shard(machine: &Machine) -> (ShardGrid, ShardIndex) {
    let data = uniform_segments(20_000, 1024, 16, 1995);
    let grid = ShardGrid::new(data.world, 2);
    let assigned = grid.assign_segments(&data.segs);
    let tile = grid.tile_of(0);
    let shard = build_shard(machine, data.world, tile, &data.segs, &assigned[0], 8, 16);
    (grid, shard)
}

#[test]
fn batch_query_matches_pointer_descent_on_a_serve_shaped_tree() {
    let (grid, shard) = serve_shard(&Machine::sequential());
    let world = grid.world();
    let tile = shard.tile;
    let mut windows: Vec<Rect> = request_stream(world, 1_200, RequestMix::DEFAULT, 424_242)
        .into_iter()
        .filter_map(|r| match r {
            Request::Window(w) => Some(w),
            Request::PointInWindow(p) => Some(Rect::point(p)),
            _ => None,
        })
        .collect();
    // What the stream draws only now and then, every time: the world, the
    // tile and its edges as windows, a corner point, a window that only
    // touches the tile from outside, one off the grid, the empty one.
    windows.extend([
        world,
        tile,
        Rect::from_coords(tile.max.x, tile.min.y, tile.max.x, tile.max.y),
        Rect::from_coords(tile.min.x, tile.max.y, tile.max.x, tile.max.y),
        Rect::point(tile.max),
        Rect::from_coords(tile.max.x, tile.max.y, tile.max.x + 64.0, tile.max.y + 64.0),
        Rect::from_coords(100.3, 200.7, 180.1, 233.9),
        Rect::empty(),
    ]);
    assert!(windows.len() > 512, "need more than one full batch");
    let want: Vec<Vec<u32>> = windows
        .iter()
        .map(|w| shard.tree.window_query(w, &shard.segs))
        .collect();
    assert!(want.iter().any(|ids| ids.len() == shard.segs.len()));
    assert!(want.iter().any(Vec::is_empty));

    for m in machines() {
        for batch in [1usize, 2, 7, 512] {
            let mut got = Vec::with_capacity(windows.len());
            for chunk in windows.chunks(batch) {
                got.extend(batch_window_query(&m, &shard.tree, chunk, &shard.segs));
            }
            assert_eq!(got, want, "batch {batch} on {:?}", m.backend());
        }
    }
}

/// The levels a probe of `window` descends: one round per level that
/// fans out.
fn levels_of(machine: &Machine, shard: &ShardIndex, window: &Rect) -> usize {
    let before = machine.stats();
    batch_window_query(machine, &shard.tree, &[*window], &shard.segs);
    machine.stats().since(&before).rounds as usize
}

#[test]
fn warm_probe_at_batch_one_allocates_a_constant_per_level() {
    const OUTER: usize = std::mem::size_of::<Vec<u32>>();
    const PER_LEVEL: usize = std::mem::size_of::<usize>();
    let machine = Machine::parallel();

    // A frontier one lane wide that lands on nothing: nine segments
    // inside one unit cell force the subdivision down to it, and the
    // window sits in the empty sibling cell beside it.
    let world = Rect::from_coords(0.0, 0.0, 1024.0, 1024.0);
    let segs: Vec<LineSeg> = (1..10)
        .map(|k| LineSeg::from_coords(8.1, 8.0 + k as f64 / 12.0, 8.9, 8.9 - k as f64 / 12.0))
        .collect();
    let tree = build_bucket_pmr(&machine, world, &segs, 8, 16);
    let beside = Rect::from_coords(9.25, 8.25, 9.75, 8.75);
    let deep = ShardIndex {
        tile: world,
        tree,
        global_ids: (0..segs.len() as u32).collect(),
        segs,
    };
    let levels = levels_of(&machine, &deep, &beside);
    assert!(
        levels >= 10,
        "descent too shallow to show anything: {levels}"
    );
    let probe = || batch_window_query(&machine, &deep.tree, &[beside], &deep.segs);
    for _ in 0..4 {
        probe();
    }
    let (hits, mut sizes) = allocations_by(probe);
    assert_eq!(hits, vec![Vec::<u32>::new()]);
    sizes.sort_unstable();
    let mut want = vec![PER_LEVEL; levels];
    want.push(OUTER);
    assert_eq!(sizes, want, "the result vector and one usize per level");

    // A frontier thousands of lanes wide: the whole serve-shaped tree.
    // Beyond the same constant, every block asked for is the one result
    // list growing — each request larger than the last, the final one its
    // capacity — so nothing else scales with the frontier.
    let (grid, shard) = serve_shard(&machine);
    let everything = grid.world();
    let levels = levels_of(&machine, &shard, &everything);
    let probe = || batch_window_query(&machine, &shard.tree, &[everything], &shard.segs);
    for _ in 0..4 {
        probe();
    }
    let (hits, sizes) = allocations_by(probe);
    assert_eq!(hits[0].len(), shard.segs.len());
    let growth: Vec<usize> = sizes
        .iter()
        .copied()
        .filter(|&size| size != PER_LEVEL && size != OUTER)
        .collect();
    assert_eq!(sizes.len() - growth.len(), levels + 1, "{sizes:?}");
    assert!(growth.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    let id_bytes = std::mem::size_of::<u32>();
    assert_eq!(growth.last(), Some(&(hits[0].capacity() * id_bytes)));
}
