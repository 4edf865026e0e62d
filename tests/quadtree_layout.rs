//! Layout tests for the built quadtree (`dp_spatial::quadtree`).
//!
//! A [`DpQuadtree`] is two flat vectors filled by a [`QuadtreeAssembler`]
//! that resumes each placement from the deepest node the previous one
//! also passed. Node numbering reaches the snapshot format, so the
//! assembler is held to the code it replaced:
//!
//! * **(a) numbering.** The parent commit's `place_leaf` — every record
//!   walked down from the root into a `Vec` of nodes that own their id
//!   lists — is kept here as the oracle, on public types only. The
//!   records are the non-empty leaves of built trees (PM₁ / PM₂ / PM₃ /
//!   bucket PMR × three machines × four inputs, and the same trees after
//!   a `batch_update`), replayed in round-then-block order (what a build
//!   emits), reversed, and shuffled: the resumed descent must not need
//!   any order. Every node's kind, children and lines must agree. The
//!   real emission order of a build stays pinned by the snapshot digests
//!   of `tests/scanmodel_kernels.rs` and the golden fixture.
//! * **(b) codec.** `quadtree_payload` of every such tree is byte for byte
//!   what the parent's encoder wrote from the oracle's nodes; a decoded
//!   tree equals the encoded one and re-encodes to the same bytes although
//!   it stores its ids in node order; hand-built hostile payloads come
//!   back as typed errors without the decoder allocating more than it was
//!   given.
//! * **(c) overlap.** Overlapping records are refused with the parent's
//!   three messages when the offending record shares its whole prefix
//!   with the one before it — the case the resumed descent short-cuts.

use dp_geom::{LineSeg, NodePath, Quadrant, Rect};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::lineproc::LineProcSet;
use dp_spatial::pm1::{build_pm1, pm1_decision};
use dp_spatial::pm_family::{build_pm2, build_pm3, pm2_decision, pm3_decision};
use dp_spatial::quadtree::{DpQuadtree, QtNode, QuadtreeAssembler};
use dp_spatial::snapshot::{quadtree_from_payload, quadtree_payload};
use dp_spatial::update::{batch_update, batch_update_bucket_pmr, UpdateBatch};
use dp_spatial::{SegId, SpatialError};
use scan_model::{Backend, Machine};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod support;
use support::requested_by;

// ---------------------------------------------------------------------
// The oracle: the parent commit's tree, root walk and encoder
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum OracleNode {
    Internal { children: [usize; 4] },
    Leaf { lines: Vec<SegId> },
}

fn oracle_new() -> Vec<OracleNode> {
    vec![OracleNode::Leaf { lines: Vec::new() }]
}

/// `DpQuadtree::place_leaf` as the parent commit had it.
fn oracle_place(nodes: &mut Vec<OracleNode>, path: NodePath, lines: &[SegId]) {
    let mut at = 0usize;
    for q in path.quadrants() {
        let children = match &nodes[at] {
            OracleNode::Internal { children } => *children,
            OracleNode::Leaf { lines } => {
                assert!(
                    lines.is_empty(),
                    "leaf record descends through an occupied leaf (overlapping records)"
                );
                let base = nodes.len();
                for _ in 0..4 {
                    nodes.push(OracleNode::Leaf { lines: Vec::new() });
                }
                let children = [base, base + 1, base + 2, base + 3];
                nodes[at] = OracleNode::Internal { children };
                children
            }
        };
        at = children[q.index()];
    }
    match &mut nodes[at] {
        OracleNode::Leaf { lines: slot } => {
            assert!(slot.is_empty(), "two leaf records target the same block");
            *slot = lines.to_vec();
        }
        OracleNode::Internal { .. } => {
            panic!("leaf record targets an internal node (overlapping records)")
        }
    }
}

/// `snapshot::quadtree_payload` as the parent commit had it.
fn oracle_payload(world: &Rect, rounds: usize, truncated: usize, nodes: &[OracleNode]) -> Vec<u8> {
    let mut buf = Vec::new();
    for v in [world.min.x, world.min.y, world.max.x, world.max.y] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in [rounds, truncated, nodes.len()] {
        buf.extend_from_slice(&(v as u64).to_le_bytes());
    }
    for node in nodes {
        match node {
            OracleNode::Internal { children } => {
                buf.push(0);
                for &c in children {
                    buf.extend_from_slice(&(c as u32).to_le_bytes());
                }
            }
            OracleNode::Leaf { lines } => {
                buf.push(1);
                buf.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for &id in lines {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
    }
    buf
}

fn assert_same_nodes(tree: &DpQuadtree, oracle: &[OracleNode], context: &str) {
    assert_eq!(tree.num_nodes(), oracle.len(), "{context}: node count");
    for (i, want) in oracle.iter().enumerate() {
        match (tree.node(i), want) {
            (QtNode::Internal { children }, OracleNode::Internal { children: want }) => {
                assert_eq!(&children, want, "{context}: children of node {i}")
            }
            (QtNode::Leaf { lines }, OracleNode::Leaf { lines: want }) => {
                assert_eq!(lines, want, "{context}: lines of node {i}")
            }
            (got, want) => panic!("{context}: node {i} is {got:?}, the root walk made {want:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Trees to take records from
// ---------------------------------------------------------------------

fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("sequential", Machine::sequential()),
        (
            "parallel",
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ),
        (
            "parallel/512B",
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(512),
        ),
    ]
}

const CAPACITY: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Family {
    Pm1,
    Pm2,
    Pm3,
    Bucket,
}

const FAMILIES: [Family; 4] = [Family::Pm1, Family::Pm2, Family::Pm3, Family::Bucket];

impl Family {
    fn build(self, m: &Machine, world: Rect, segs: &[LineSeg], depth: usize) -> DpQuadtree {
        match self {
            Family::Pm1 => build_pm1(m, world, segs, depth),
            Family::Pm2 => build_pm2(m, world, segs, depth),
            Family::Pm3 => build_pm3(m, world, segs, depth),
            Family::Bucket => build_bucket_pmr(m, world, segs, CAPACITY, depth),
        }
    }

    fn update(
        self,
        m: &Machine,
        tree: &mut DpQuadtree,
        segs: &mut Vec<LineSeg>,
        batch: &UpdateBatch,
        depth: usize,
    ) {
        type Decision = fn(&Machine, &LineProcSet, &[LineSeg]) -> Vec<bool>;
        let decision: Decision = match self {
            Family::Pm1 => pm1_decision,
            Family::Pm2 => pm2_decision,
            Family::Pm3 => pm3_decision,
            Family::Bucket => {
                batch_update_bucket_pmr(m, tree, segs, batch, CAPACITY, depth);
                return;
            }
        };
        let mut decide = |mm: &Machine, st: &LineProcSet, ss: &[LineSeg]| decision(mm, st, ss);
        batch_update(m, tree, segs, batch, depth, &mut decide);
    }
}

struct Input {
    label: &'static str,
    world: Rect,
    segs: Vec<LineSeg>,
    depth: usize,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn inputs() -> Vec<Input> {
    let world64 = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
    vec![
        Input {
            label: "paper data set",
            world: dp_workloads::paper_world(),
            segs: dp_workloads::paper_dataset(),
            depth: 3,
        },
        {
            let data = dp_workloads::uniform_segments(2000, 256, 12, 1801);
            Input {
                label: "2k random",
                world: data.world,
                segs: data.segs,
                depth: 6,
            }
        },
        Input {
            label: "more than capacity identical",
            world: world64,
            segs: vec![LineSeg::from_coords(3.0, 5.0, 41.0, 23.0); 2 * CAPACITY + 1],
            depth: 5,
        },
        Input {
            label: "all collinear on a cut line",
            world: world64,
            segs: (0..10)
                .map(|k| {
                    let x = f64::from(k) * 6.0;
                    LineSeg::from_coords(x, 32.0, x + 9.0, 32.0)
                })
                .collect(),
            depth: 5,
        },
    ]
}

/// Every fifth segment deleted, a tenth as many (at least two) inserted:
/// copies of existing segments mirrored in the world's diagonal.
fn batch_for(input: &Input) -> UpdateBatch {
    let n = input.segs.len();
    UpdateBatch {
        deletes: (0..n as SegId).step_by(5).collect(),
        inserts: input
            .segs
            .iter()
            .skip(1)
            .step_by((n / (n / 10).max(2)).max(1))
            .map(|s| LineSeg::from_coords(s.a.y, s.a.x, s.b.y, s.b.x))
            .collect(),
    }
}

/// One leaf to place: where the block sits and the lines through it.
type Record = (NodePath, Vec<SegId>);

/// The non-empty leaves of `tree` in block order (NW, NE, SW, SE at every
/// level), each with its path recovered by the walk.
fn records(tree: &DpQuadtree) -> Vec<Record> {
    let mut out = Vec::new();
    let mut stack = vec![(0usize, NodePath::ROOT)];
    while let Some((idx, path)) = stack.pop() {
        match tree.node(idx) {
            QtNode::Leaf { lines } => {
                if !lines.is_empty() {
                    out.push((path, lines.to_vec()));
                }
            }
            QtNode::Internal { children } => {
                for q in (0..4).rev() {
                    stack.push((children[q], path.child(Quadrant::from_index(q))));
                }
            }
        }
    }
    out
}

/// Visits every tree under test with a label and whether it is a fresh
/// build (as opposed to an updated tree).
fn for_each_tree(mut f: impl FnMut(&str, &DpQuadtree, bool)) {
    for input in inputs() {
        for (mname, m) in machines() {
            for family in FAMILIES {
                let what = format!("{} / {family:?} / {mname}", input.label);
                let mut tree = family.build(&m, input.world, &input.segs, input.depth);
                f(&what, &tree, true);
                let mut segs = input.segs.clone();
                family.update(&m, &mut tree, &mut segs, &batch_for(&input), input.depth);
                f(&format!("{what} / updated"), &tree, false);
            }
        }
    }
}

/// The three replay orders of one tree's records, emission order first.
fn orders(tree: &DpQuadtree, seed: u64) -> [(&'static str, Vec<Record>); 3] {
    let mut emitted = records(tree);
    // A build retires depth-d blocks in round d, in block order.
    emitted.sort_by_key(|(path, _)| path.depth());
    let mut reversed = emitted.clone();
    reversed.reverse();
    let mut shuffled = emitted.clone();
    let mut state = seed;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, lcg(&mut state) as usize % (i + 1));
    }
    [
        ("round-then-block", emitted),
        ("reversed", reversed),
        ("shuffled", shuffled),
    ]
}

fn assemble(tree: &DpQuadtree, recs: &[Record]) -> (DpQuadtree, Vec<OracleNode>) {
    let mut out = QuadtreeAssembler::new(tree.world());
    let mut oracle = oracle_new();
    for (path, lines) in recs {
        out.place(*path, lines);
        oracle_place(&mut oracle, *path, lines);
    }
    (out.finish(tree.rounds(), tree.truncated()), oracle)
}

// ---------------------------------------------------------------------
// (a) numbering, (b) codec round trip
// ---------------------------------------------------------------------

#[test]
fn assembler_numbers_nodes_as_the_root_walk_did_and_encodes_the_same_bytes() {
    let mut trees = 0usize;
    let mut replayed_leaves = 0usize;
    for_each_tree(|what, tree, fresh| {
        trees += 1;
        for (k, (order, recs)) in orders(tree, trees as u64).into_iter().enumerate() {
            let context = format!("{what} / {order}");
            let (flat, oracle) = assemble(tree, &recs);
            assert_same_nodes(&flat, &oracle, &context);
            replayed_leaves += recs.len();

            // The same leaves whatever the order, so the same answers.
            assert_eq!(flat.stats(), tree.stats(), "{context}: stats");
            if fresh && k == 0 {
                // A fresh build emits exactly this sequence.
                assert_eq!(&flat, tree, "{context}: replay of the build's own order");
            }

            let bytes = quadtree_payload(&flat);
            assert_eq!(
                bytes,
                oracle_payload(&flat.world(), flat.rounds(), flat.truncated(), &oracle),
                "{context}: payload bytes"
            );
            let decoded = quadtree_from_payload(&bytes).expect("own payload decodes");
            assert_eq!(decoded, flat, "{context}: decode(encode(t)) == t");
            assert_eq!(quadtree_payload(&decoded), bytes, "{context}: re-encode");
            assert_ids_in_node_order(&decoded, &context);
        }
    });
    assert_eq!(trees, 4 * 3 * 4 * 2);
    assert!(
        replayed_leaves > 100_000,
        "only {replayed_leaves} placements"
    );
}

/// A decoded tree keeps one id vector laid out in node order: every
/// non-empty leaf's slice starts where the previous one's ended.
fn assert_ids_in_node_order(tree: &DpQuadtree, context: &str) {
    let mut next: Option<*const SegId> = None;
    for i in 0..tree.num_nodes() {
        if let QtNode::Leaf { lines } = tree.node(i) {
            if lines.is_empty() {
                continue;
            }
            let range = lines.as_ptr_range();
            if let Some(expected) = next {
                assert_eq!(range.start, expected, "{context}: ids of node {i}");
            }
            next = Some(range.end);
        }
    }
}

#[test]
fn decoded_and_assembled_trees_compare_equal_across_id_layouts() {
    // Two leaves placed SE first: the assembled tree stores SE's ids
    // first, the decoded one NW's. They are the same tree.
    let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
    let mut out = QuadtreeAssembler::new(world);
    out.place(NodePath::ROOT.child(Quadrant::SE), &[7, 8, 9]);
    out.place(NodePath::ROOT.child(Quadrant::NW), &[1, 2]);
    let assembled = out.finish(1, 0);
    let (QtNode::Leaf { lines: nw }, QtNode::Leaf { lines: se }) =
        (assembled.node(1), assembled.node(4))
    else {
        panic!("NW and SE are leaves");
    };
    assert!(se.as_ptr() < nw.as_ptr(), "placement order, not node order");
    let decoded = quadtree_from_payload(&quadtree_payload(&assembled)).unwrap();
    assert_ids_in_node_order(&decoded, "decoded");
    assert_eq!(decoded, assembled);

    // Equality is not blind: one id, one block, one counter.
    let two_leaves = |block: Quadrant, ids: &[SegId], rounds, truncated| {
        let mut out = QuadtreeAssembler::new(world);
        out.place(NodePath::ROOT.child(block), ids);
        out.place(NodePath::ROOT.child(Quadrant::NW), &[1, 2]);
        out.finish(rounds, truncated)
    };
    assert_eq!(two_leaves(Quadrant::SE, &[7, 8, 9], 1, 0), assembled);
    assert_ne!(two_leaves(Quadrant::SE, &[7, 8, 10], 1, 0), assembled);
    assert_ne!(two_leaves(Quadrant::SW, &[7, 8, 9], 1, 0), assembled);
    assert_ne!(two_leaves(Quadrant::SE, &[7, 8, 9], 2, 0), assembled);
    assert_ne!(two_leaves(Quadrant::SE, &[7, 8, 9], 1, 1), assembled);
}

// ---------------------------------------------------------------------
// (b) hostile payloads
// ---------------------------------------------------------------------

/// A payload header: world, rounds, truncated and the claimed node count.
fn header(claimed_nodes: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    for v in [0.0f64, 0.0, 8.0, 8.0] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in [3u64, 0, claimed_nodes] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

fn internal(buf: &mut Vec<u8>, children: [u32; 4]) {
    buf.push(0);
    for c in children {
        buf.extend_from_slice(&c.to_le_bytes());
    }
}

fn leaf(buf: &mut Vec<u8>, claimed_len: u32, ids: &[SegId]) {
    buf.push(1);
    buf.extend_from_slice(&claimed_len.to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

/// Five claimed nodes keep the arithmetic honest: the decoder reserves 16
/// bytes per claimed node and 4 per id the remaining bytes could hold, so
/// it stays inside the payload's own size (header included) up to five
/// nodes; the general bound is the next test's.
#[test]
fn hostile_payloads_are_typed_errors_and_allocate_no_more_than_they_hold() {
    let five_nodes = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = header(5);
        edit(&mut buf);
        buf
    };
    let well_formed = five_nodes(&|buf| {
        internal(buf, [1, 2, 3, 4]);
        leaf(buf, 2, &[10, 11]);
        leaf(buf, 0, &[]);
        leaf(buf, 1, &[12]);
        leaf(buf, 0, &[]);
    });
    let (tree, requested) = requested_by(|| quadtree_from_payload(&well_formed));
    let tree = tree.expect("the well-formed control decodes");
    assert_eq!(tree.stats().entries, 3);
    assert!(requested <= well_formed.len(), "{requested} bytes");

    let hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "child index == n",
            five_nodes(&|buf| {
                internal(buf, [1, 2, 3, 5]);
                for _ in 0..4 {
                    leaf(buf, 0, &[]);
                }
            }),
        ),
        (
            "child index u32::MAX (the leaf tag's value)",
            five_nodes(&|buf| {
                internal(buf, [u32::MAX, 2, 3, 4]);
                for _ in 0..4 {
                    leaf(buf, 0, &[]);
                }
            }),
        ),
        (
            "leaf len past the payload",
            five_nodes(&|buf| {
                internal(buf, [1, 2, 3, 4]);
                leaf(buf, 3, &[10, 11]);
                for _ in 0..3 {
                    leaf(buf, 0, &[]);
                }
            }),
        ),
        (
            "leaf len near u32::MAX",
            five_nodes(&|buf| {
                internal(buf, [1, 2, 3, 4]);
                leaf(buf, u32::MAX - 1, &[10, 11]);
                for _ in 0..3 {
                    leaf(buf, 0, &[]);
                }
            }),
        ),
        ("zero nodes", header(0)),
        (
            "trailing bytes",
            five_nodes(&|buf| {
                internal(buf, [1, 2, 3, 4]);
                for _ in 0..4 {
                    leaf(buf, 0, &[]);
                }
                buf.push(0);
            }),
        ),
        (
            "fewer nodes than claimed",
            five_nodes(&|buf| {
                internal(buf, [1, 2, 3, 4]);
                for _ in 0..3 {
                    leaf(buf, 0, &[]);
                }
                // 17 + 15 bytes hold five minimal nodes, so the count
                // passes; the fifth node's tag is what is missing.
            }),
        ),
        ("unknown node tag", {
            let mut buf = header(1);
            buf.extend_from_slice(&[2, 0, 0, 0, 0]);
            buf
        }),
        ("node count past the bytes left", {
            let mut buf = header(3);
            leaf(&mut buf, 0, &[]);
            leaf(&mut buf, 0, &[]);
            buf
        }),
        ("node count 2^32", {
            let mut buf = header(1 << 32);
            leaf(&mut buf, 0, &[]);
            buf
        }),
        ("node count u64::MAX", {
            let mut buf = header(u64::MAX);
            leaf(&mut buf, 0, &[]);
            buf
        }),
        ("truncated header", header(1)[..40].to_vec()),
    ];
    for (what, payload) in hostile {
        let (result, requested) = requested_by(|| quadtree_from_payload(&payload));
        assert!(
            matches!(result, Err(SpatialError::SnapshotMalformed { .. })),
            "{what}: {result:?}"
        );
        assert!(
            requested <= payload.len(),
            "{what}: decoder requested {requested} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

#[test]
fn a_node_count_the_bytes_could_just_hold_reserves_a_bounded_multiple() {
    // The worst honest-looking lie: as many nodes as there are five-byte
    // units left, every one an internal node that runs out of bytes. A
    // stored node is 16 bytes against at least 5 on the wire, so the
    // reservation is bounded by 16/5 of the payload, not by the count.
    let body = 5 * 4096;
    let mut payload = header(4096);
    payload.resize(payload.len() + body, 0);
    let (result, requested) = requested_by(|| quadtree_from_payload(&payload));
    assert!(matches!(
        result,
        Err(SpatialError::SnapshotMalformed { .. })
    ));
    assert!(requested <= 16 * 4096, "{requested} bytes");
    assert!(requested * 5 <= payload.len() * 16);
}

// ---------------------------------------------------------------------
// (c) overlapping records, through the resumed descent
// ---------------------------------------------------------------------

fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("panic message is a string")
}

#[test]
fn overlapping_records_panic_as_the_root_walk_did() {
    let deep = NodePath::ROOT
        .child(Quadrant::NE)
        .child(Quadrant::SW)
        .child(Quadrant::SW);
    let deeper = deep.child(Quadrant::NW).child(Quadrant::SE);
    let elsewhere = NodePath::ROOT.child(Quadrant::SW);
    let scenarios: [(&str, Vec<NodePath>, &str); 6] = [
        (
            "descendant right after its ancestor",
            vec![deep, deeper],
            "leaf record descends through an occupied leaf (overlapping records)",
        ),
        (
            "ancestor right after its descendant",
            vec![deeper, deep],
            "leaf record targets an internal node (overlapping records)",
        ),
        (
            "the same path twice",
            vec![deeper, deeper],
            "two leaf records target the same block",
        ),
        // The same three with a record elsewhere in between: the descent
        // restarts at the root, as every one did at the parent commit.
        (
            "descendant after its ancestor, from the root",
            vec![deep, elsewhere, deeper],
            "leaf record descends through an occupied leaf (overlapping records)",
        ),
        (
            "ancestor after its descendant, from the root",
            vec![deeper, elsewhere, deep],
            "leaf record targets an internal node (overlapping records)",
        ),
        (
            "the same path again, from the root",
            vec![deeper, elsewhere, deeper],
            "two leaf records target the same block",
        ),
    ];
    let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
    for (what, paths, message) in scenarios {
        let flat = panic_message(|| {
            let mut out = QuadtreeAssembler::new(world);
            for (k, path) in paths.iter().enumerate() {
                out.place(*path, &[k as SegId]);
            }
        });
        let walked = panic_message(|| {
            let mut oracle = oracle_new();
            for (k, path) in paths.iter().enumerate() {
                oracle_place(&mut oracle, *path, &[k as SegId]);
            }
        });
        assert_eq!(flat, message, "{what}");
        assert_eq!(walked, message, "{what}: oracle");
    }
}

#[test]
fn an_empty_record_occupies_nothing() {
    // As at the parent commit: a record without lines leaves its block an
    // empty leaf, which a later record may descend through or replace.
    let nw = NodePath::ROOT.child(Quadrant::NW);
    let recs = [
        (nw, vec![]),
        (nw.child(Quadrant::SE), vec![4]),
        (NodePath::ROOT.child(Quadrant::SE), vec![]),
        (NodePath::ROOT.child(Quadrant::SE), vec![5, 6]),
    ];
    let mut out = QuadtreeAssembler::new(Rect::from_coords(0.0, 0.0, 8.0, 8.0));
    let mut oracle = oracle_new();
    for (path, lines) in &recs {
        out.place(*path, lines);
        oracle_place(&mut oracle, *path, lines);
    }
    assert_same_nodes(&out.finish(0, 0), &oracle, "empty records");
}
