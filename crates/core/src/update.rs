//! Data-parallel batch insert / delete for the quadtree family.
//!
//! The paper builds its structures by *simultaneous* insertion of every
//! line (Secs. 5.1–5.2); this module extends the same primitive
//! vocabulary to *incremental* batches, so a built tree absorbs a set of
//! insertions and deletions without a full rebuild. The invariant it
//! maintains is the one the bucket PMR quadtree was chosen for (paper
//! Sec. 5.2, Fig. 34): the split decision is a pure function of each
//! block's line set, so the updated tree must answer queries exactly like
//! a bulk build of the final segment collection. That equivalence — for
//! any interleaving of batches — is enforced by
//! `tests/update_differential.rs`.
//!
//! One [`batch_update`] is five phases, all expressed in the scan-model
//! kernels and driven by the instrumented [`RoundDriver`]. None allocates
//! per leaf: the old tree is read through its two flat vectors
//! ([`DpQuadtree::node`]), the leaves' lines are one flat vector in
//! *record order* (pre-order, quadrant 3 first), and what the phases
//! learn about a node is one word of a node-indexed vector.
//!
//! 1. **Collection compaction** — deleted segments are removed from the
//!    backing collection with the deletion-compaction kernel (Sec. 4.3);
//!    an exclusive `+`-scan over the keep flags yields the old→new id
//!    remap in one scan pass. Inserts append after the kept ids.
//! 2. **Leaf delete-compaction** — every leaf's ids are copied into one
//!    segmented lane vector; one [`Machine::delete_layout`] + apply
//!    compacts all leaves simultaneously and one elementwise pass remaps
//!    the survivors.
//! 3. **Insert routing** — the new segments descend the existing tree in
//!    lockstep, one level per round, on the crate's one descent step
//!    (`batch::descend_level`, the same flat-map the batch window query
//!    walks): a lane landing on a leaf retires as a `(leaf node, new id)`
//!    pair, a lane over an internal node fans out to exactly its crossing
//!    children (the generalized cloning of Sec. 4.1). Membership uses the
//!    same [`seg_in_block`] predicate as the bulk build's node split, so
//!    routed q-edges land exactly where a bulk build would place them.
//! 4. **Merge sweep** — underflowing regions collapse. The sweep is
//!    top-down over the *affected* internal nodes of the old tree (a block
//!    is affected iff some batch segment — deleted old geometry or insert —
//!    crosses it): starting at the root, each affected internal block
//!    evaluates the structure's split decision on the distinct union of
//!    its subtree's lines; a `false` verdict collapses the whole subtree
//!    into one leaf, a `true` verdict descends into the affected children
//!    only. Unaffected subtrees are untouched — by induction they already
//!    equal the bulk shape. Top-down matters: split decisions need not be
//!    monotone in the line set, so a bottom-up cascade can stall below a
//!    block whose bulk verdict is "leaf". The unions are built once,
//!    bottom-up, before the sweep (see `Unions`).
//! 5. **Split repair** — leaves whose line set changed re-enter the
//!    ordinary [`QuadSplitPolicy`] via its multi-node frontier
//!    constructor and subdivide until the split criterion is satisfied,
//!    exactly as in a bulk build.
//!
//! Phases 4 and 5 run as [`SplitPolicy`]s on the [`RoundDriver`], so
//! every step hits the `RoundAbort` fault site and records a
//! [`scan_model::RoundTrace`] — the crash-recovery sweeps in
//! `tests/fault_injection.rs` kill updates at every round the same way
//! they kill builds. The tree and collection are written only after the
//! last fault site, so an update killed anywhere leaves both as they were.
//!
//! The rebuilt tree's `rounds()` accumulates across the tree's lifetime
//! (bulk rounds + every update's merge and repair rounds); `truncated()`
//! likewise accumulates newly truncated leaves. Both are telemetry, not
//! part of the bulk-equivalence contract.

use crate::batch::{descend_level, Lane};
use crate::lineproc::{ActiveNode, LineProcSet, QuadSplitPolicy, SplitDecision};
use crate::quadtree::{DpQuadtree, QtNode, QuadtreeAssembler};
use crate::round_driver::{RoundAdvance, RoundDriver, SplitPolicy};
use crate::SegId;
use dp_geom::{seg_in_block, LineSeg, NodePath, Quadrant, Rect};
use scan_model::ops::Sum;
use scan_model::{FaultSite, Machine, ScanKind, Segments};
use std::ops::Range;

/// One batch of mutations. Deletes refer to ids in the *pre-batch*
/// collection; inserts are appended after the surviving segments, so the
/// post-batch collection is `kept ++ inserts` and the new id of insert
/// `j` is `(old_len - deletes) + j`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// Segments to add. Endpoints must lie inside the half-open world.
    pub inserts: Vec<LineSeg>,
    /// Pre-batch ids to remove (duplicates are tolerated and ignored).
    pub deletes: Vec<SegId>,
}

impl UpdateBatch {
    /// A batch of insertions only.
    pub fn inserting(inserts: Vec<LineSeg>) -> Self {
        UpdateBatch {
            inserts,
            deletes: Vec::new(),
        }
    }

    /// A batch of deletions only.
    pub fn deleting(deletes: Vec<SegId>) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            deletes,
        }
    }

    /// `true` when the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Accounting for one applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Segments removed (after dedup).
    pub deleted: usize,
    /// Segments added.
    pub inserted: usize,
    /// Rounds of the top-down merge sweep.
    pub merge_rounds: usize,
    /// Rounds of the split-repair pass.
    pub split_rounds: usize,
    /// Leaf records absorbed by merge collapses.
    pub collapsed: usize,
}

/// [`LeafLines::aux`] of a node with nothing to say, and of an internal
/// node the merge sweep collapsed.
const NONE: u32 = u32::MAX;
const COLLAPSED: u32 = u32::MAX - 1;

/// The old tree's leaves with the batch applied, held flat. A leaf's
/// lines are its survivors in `kept` followed by its routed inserts in
/// `landed`.
struct LeafLines {
    /// The survivors of every non-empty leaf, remapped, in record order.
    kept: Vec<SegId>,
    /// Per non-empty leaf, in record order: how many ids survived.
    counts: Vec<usize>,
    /// Routed inserts as `(leaf node, new id)`, sorted.
    landed: Vec<(u32, SegId)>,
    /// Per node of the old tree: a leaf's first pair in `landed`, an
    /// affected internal node's index in [`Unions::blocks`], [`COLLAPSED`]
    /// or [`NONE`].
    aux: Vec<u32>,
}

impl LeafLines {
    /// The survivors of a record-order walk's next leaf, which held `len`
    /// ids before the batch; `at` is the walk's position (leaves passed
    /// that held ids, survivors passed).
    fn survivors(&self, at: &mut (usize, usize), len: usize) -> Range<usize> {
        let start = at.1;
        if len > 0 {
            at.1 += self.counts[at.0];
            at.0 += 1;
        }
        start..at.1
    }

    /// The inserts routed to leaf `v`, in landing order.
    fn inserts(&self, v: usize) -> impl Iterator<Item = SegId> + '_ {
        let from = (self.aux[v] as usize).min(self.landed.len());
        let run = self.landed[from..]
            .iter()
            .take_while(move |p| p.0 as usize == v);
        run.map(|p| p.1)
    }
}

/// The merge sweep's input: the distinct line union of every affected
/// internal node, built in one post-order walk before the sweep starts.
///
/// A node's union is the first occurrences of the lines of the leaves
/// below it, in record order — what a walk over those leaves would
/// collect. Deduplication that keeps first occurrences is associative,
/// `dedup(A ++ B) = dedup(dedup(A) ++ dedup(B))`, and a subtree's leaves
/// are contiguous in record order, so the union is also the deduplicated
/// concatenation of the children's contributions, quadrant 3 first: an
/// affected internal child contributes its own union, a leaf its lines,
/// and an unaffected internal child — no insert reaches it — the
/// contiguous run of its leaves' survivors in [`LeafLines::kept`]. Every
/// union, and with it every collapsed leaf, therefore holds the ids a
/// leaf-by-leaf walk would, in the same order.
struct Unions<'f> {
    /// The batch footprint: deleted geometry, then inserts.
    footprint: &'f [LineSeg],
    /// Per affected internal node: its union's range in `ids` and the
    /// number of leaves below it.
    blocks: Vec<(Range<usize>, usize)>,
    ids: Vec<SegId>,
    /// The footprint entries crossing each node on the walk's path.
    foot: Vec<u32>,
    /// Stamped seen-table for the dedup: `seen[id] == stamp` iff `id` was
    /// already taken for the current node.
    seen: Vec<u32>,
    stamp: u32,
    at: (usize, usize),
}

impl Unions<'_> {
    /// Walks the subtree of `v` (block `rect`) in record order, building
    /// the union of every affected internal node in it; `foot` is the range
    /// of `self.foot` crossing `v`, `None` if `v` is unaffected. Returns the
    /// subtree's survivors in [`LeafLines::kept`] and its leaf count.
    fn visit(
        &mut self,
        tree: &DpQuadtree,
        lines: &mut LeafLines,
        (v, rect): (usize, Rect),
        foot: Option<Range<usize>>,
    ) -> (Range<usize>, usize) {
        let children = match tree.node(v) {
            QtNode::Leaf { lines: ids } => return (lines.survivors(&mut self.at, ids.len()), 1),
            QtNode::Internal { children } => children,
        };
        let quads = rect.quadrants();
        let mut spans: [Range<usize>; 4] = Default::default();
        let mut leaves = 0;
        for q in (0..4).rev() {
            // An internal child is affected iff a footprint entry crossing
            // `v` crosses it too.
            let mark = self.foot.len();
            if let (Some(f), QtNode::Internal { .. }) = (&foot, tree.node(children[q])) {
                for i in f.clone() {
                    let s = self.foot[i];
                    if seg_in_block(&self.footprint[s as usize], &quads[q]) {
                        self.foot.push(s);
                    }
                }
            }
            let child_foot = (self.foot.len() > mark).then_some(mark..self.foot.len());
            let (span, n) = self.visit(tree, lines, (children[q], quads[q]), child_foot);
            self.foot.truncate(mark);
            spans[q] = span;
            leaves += n;
        }
        let subtree = spans[3].start..spans[0].end;
        if foot.is_none() {
            return (subtree, leaves);
        }

        if self.stamp == u32::MAX {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let start = self.ids.len();
        for q in (0..4).rev() {
            let c = children[q];
            if matches!(tree.node(c), QtNode::Internal { .. }) && lines.aux[c] != NONE {
                for i in self.blocks[lines.aux[c] as usize].0.clone() {
                    self.take(self.ids[i]);
                }
            } else {
                // A leaf, or an unaffected internal node: no inserts.
                for &id in &lines.kept[spans[q].clone()] {
                    self.take(id);
                }
                lines.inserts(c).for_each(|id| self.take(id));
            }
        }
        lines.aux[v] = self.blocks.len() as u32;
        self.blocks.push((start..self.ids.len(), leaves));
        (subtree, leaves)
    }

    fn take(&mut self, id: SegId) {
        let s = &mut self.seen[id as usize];
        if *s != self.stamp {
            *s = self.stamp;
            self.ids.push(id);
        }
    }
}

/// The merge sweep as a [`SplitPolicy`] over the old tree's affected
/// internal nodes: `decide` evaluates the split criterion on each
/// candidate's union in one batched call, `emit` collapses the rejected
/// candidates, `partition` descends into the rest's affected children.
struct MergeSweepPolicy<'a, 'd, 'c> {
    tree: &'a DpQuadtree,
    aux: &'a mut [u32],
    unions: &'a Unions<'a>,
    segs: &'a [LineSeg],
    decide: &'d mut SplitDecision<'c>,
    /// Candidates: `(node, path, block)`.
    frontier: Vec<(usize, NodePath, Rect)>,
    /// Collapsed blocks in collapse order: `(path, index in blocks)`.
    collapses: Vec<(NodePath, usize)>,
    collapsed: usize,
}

impl MergeSweepPolicy<'_, '_, '_> {
    fn block(&self, c: usize) -> &(Range<usize>, usize) {
        &self.unions.blocks[self.aux[self.frontier[c].0] as usize]
    }

    fn union(&self, c: usize) -> &[SegId] {
        &self.unions.ids[self.block(c).0.clone()]
    }
}

impl SplitPolicy for MergeSweepPolicy<'_, '_, '_> {
    fn active_elements(&self) -> usize {
        (0..self.frontier.len()).map(|c| self.block(c).1).sum()
    }

    fn active_nodes(&self) -> usize {
        self.frontier.len()
    }

    fn decide(&mut self, machine: &Machine) -> Vec<bool> {
        // The unions' pass (a line crosses a block iff it appears in some
        // leaf below it — the q-edge rule), counted once a round.
        machine.note_elementwise();

        // One batched decision over the non-empty candidates; an emptied
        // subtree collapses unconditionally (a bulk build leaves an empty
        // block as a leaf).
        let occupied: Vec<usize> = (0..self.frontier.len())
            .filter(|&c| !self.union(c).is_empty())
            .collect();
        let mut want = vec![false; self.frontier.len()];
        if !occupied.is_empty() {
            let lengths: Vec<usize> = occupied.iter().map(|&c| self.union(c).len()).collect();
            let line: Vec<SegId> = occupied
                .iter()
                .flat_map(|&c| self.union(c).iter().copied())
                .collect();
            let nodes: Vec<ActiveNode> = occupied
                .iter()
                .map(|&c| {
                    let (_, path, rect) = self.frontier[c];
                    ActiveNode { path, rect }
                })
                .collect();
            let state = LineProcSet {
                line,
                seg: Segments::from_lengths(&lengths)
                    .expect("occupied candidates have non-empty unions"),
                nodes,
            };
            let verdict = (self.decide)(machine, &state, self.segs);
            assert_eq!(verdict.len(), occupied.len());
            for (&c, v) in occupied.iter().zip(verdict) {
                want[c] = v;
            }
        }
        want
    }

    fn emit(&mut self, _machine: &Machine, want: &[bool]) {
        for (c, keep) in want.iter().enumerate() {
            if !keep {
                // The collapsed block is decision-false by construction,
                // so it needs no split repair.
                let (v, path, _) = self.frontier[c];
                self.collapsed += self.block(c).1;
                self.collapses.push((path, self.aux[v] as usize));
                self.aux[v] = COLLAPSED;
            }
        }
    }

    fn partition(&mut self, _machine: &Machine, want: &[bool]) {
        let mut next = Vec::new();
        for (&(v, path, rect), _) in self.frontier.iter().zip(want).filter(|(_, &w)| w) {
            let QtNode::Internal { children } = self.tree.node(v) else {
                unreachable!("candidates are internal nodes");
            };
            let quads = rect.quadrants();
            for (q, &child) in children.iter().enumerate() {
                // A leaf child has nothing beneath it to merge; an
                // unaffected one is already bulk-shaped.
                if matches!(self.tree.node(child), QtNode::Internal { .. })
                    && self.aux[child] != NONE
                {
                    next.push((child, path.child(Quadrant::from_index(q)), quads[q]));
                }
            }
        }
        self.frontier = next;
    }

    fn advance(&mut self, _machine: &Machine, split_any: bool) -> RoundAdvance {
        RoundAdvance {
            round_completed: true,
            finished: !split_any || self.frontier.is_empty(),
        }
    }
}

/// Applies one batch of insertions and deletions to `tree` (and its
/// backing collection `segs`) so that the result answers queries exactly
/// like a bulk build of the final collection under the same `decide` /
/// `max_depth` parameters — for any split decision that is a pure
/// function of a block's line set.
///
/// Deletion remaps ids: surviving segments are compacted in order, then
/// inserts append. Callers holding external ids must apply the same
/// remap (`new = old - |{d in deletes : d < old}|`). A panic inside the
/// update — an injected fault included — leaves `tree` and `segs` as they
/// were.
///
/// # Panics
///
/// Panics when a delete id is out of range or an insert endpoint lies
/// outside the half-open world.
pub fn batch_update(
    machine: &Machine,
    tree: &mut DpQuadtree,
    segs: &mut Vec<LineSeg>,
    batch: &UpdateBatch,
    max_depth: usize,
    decide: &mut SplitDecision<'_>,
) -> UpdateOutcome {
    let world = tree.world();
    for (j, s) in batch.inserts.iter().enumerate() {
        assert!(
            world.contains_half_open(s.a) && world.contains_half_open(s.b),
            "insert {j} endpoint outside the half-open world"
        );
    }
    let n = segs.len();
    let mut deletes: Vec<SegId> = batch.deletes.clone();
    deletes.sort_unstable();
    deletes.dedup();
    if let Some(&d) = deletes.last() {
        assert!(
            (d as usize) < n,
            "delete id {d} out of range ({n} segments)"
        );
    }
    if deletes.is_empty() && batch.inserts.is_empty() {
        return UpdateOutcome::default();
    }

    // ---- Phase 1: collection compaction + id remap (Sec. 4.3). ----
    let mut delete_flag = vec![false; n];
    for &d in &deletes {
        delete_flag[d as usize] = true;
    }
    let kept = n - deletes.len();
    // Exclusive +-scan over the keep flags: each survivor's rank is its
    // post-compaction id (a deleted id is compacted away before the remap
    // would read its entry).
    let keep: Vec<u64> = machine.map(&delete_flag, |f| !f as u64);
    let ranks = machine.up_scan(&keep, Sum, ScanKind::Exclusive);
    machine.note_elementwise();
    let new_id: Vec<SegId> = ranks.iter().map(|&r| r as SegId).collect();
    // Built beside `segs`, which is written after the last fault site.
    let mut new_segs = if deletes.is_empty() {
        segs.clone()
    } else {
        let layout = machine.delete_layout(&Segments::single(n), &delete_flag);
        machine.apply(segs, &layout)
    };
    new_segs.reserve_exact(batch.inserts.len());
    new_segs.extend(batch.inserts.iter().copied());

    // The batch footprint: every region either verdict can change in is
    // crossed by one of these.
    let mut footprint: Vec<LineSeg> = deletes.iter().map(|&d| segs[d as usize]).collect();
    footprint.extend(batch.inserts.iter().copied());

    // ---- Phase 2: leaf delete-compaction, all leaves at once. ----
    let old: &DpQuadtree = tree;
    let mut lines = LeafLines {
        kept: Vec::new(),
        counts: Vec::new(),
        landed: Vec::new(),
        aux: vec![NONE; old.num_nodes()],
    };
    old.for_each_leaf(|_, _, ids| {
        if !ids.is_empty() {
            lines.counts.push(ids.len());
            lines.kept.extend_from_slice(ids);
        }
    });
    if !deletes.is_empty() && !lines.counts.is_empty() {
        let seg = Segments::from_lengths(&lines.counts).expect("occupied leaves are non-empty");
        let mut flags: Vec<bool> = machine.lease();
        machine.map_into(&lines.kept, |id| delete_flag[id as usize], &mut flags);
        let layout = machine.delete_layout(&seg, &flags);
        // Compact and remap the survivors in the flat buffer itself.
        machine.apply_in_place(&mut lines.kept, &layout);
        machine.map_in_place(&mut lines.kept, |id| new_id[id as usize]);
        machine.recycle(flags);
        lines.counts = layout.counts;
    }

    // ---- Phase 3: insert routing, the lockstep descent of `batch`. ----
    if !batch.inserts.is_empty() {
        let mut lanes: Vec<Lane> = (0..batch.inserts.len() as u32)
            .map(|j| (j, 0, world))
            .collect();
        loop {
            // Lockstep like the driver's rounds: the same abort site at
            // the top of every level, the terminating one included.
            machine.check_fault(FaultSite::RoundAbort);
            let descending = descend_level(
                machine,
                old,
                &mut lanes,
                |j, node, _| lines.landed.push((node as u32, kept as SegId + j)),
                |j, child| seg_in_block(&batch.inserts[j as usize], child),
            );
            if !descending {
                break;
            }
            machine.bump_rounds();
        }
        // A leaf's lanes land in ascending `j`, so sorting the pairs
        // keeps each leaf's inserts in landing order.
        lines.landed.sort_unstable();
        for (i, &(v, _)) in lines.landed.iter().enumerate().rev() {
            lines.aux[v as usize] = i as u32;
        }
    }

    // ---- Phase 4: top-down merge sweep over the affected subtree. ----
    let mut unions = Unions {
        footprint: &footprint,
        blocks: Vec::new(),
        ids: Vec::new(),
        foot: (0..footprint.len() as u32).collect(),
        seen: Vec::new(),
        stamp: 0,
        at: (0, 0),
    };
    let (merge_rounds, collapsed, collapses) = if let QtNode::Internal { .. } = old.node(0) {
        // The root is a candidate whatever the footprint.
        unions.seen = vec![0; new_segs.len()];
        let all = 0..unions.foot.len();
        unions.visit(old, &mut lines, (0, world), Some(all));
        let mut policy = MergeSweepPolicy {
            tree: old,
            aux: &mut lines.aux,
            unions: &unions,
            segs: &new_segs,
            decide,
            frontier: vec![(0, NodePath::ROOT, world)],
            collapses: Vec::new(),
            collapsed: 0,
        };
        let rounds = RoundDriver::run(machine, &mut policy);
        (rounds, policy.collapsed, policy.collapses)
    } else {
        (0, 0, Vec::new())
    };

    // ---- Reassemble: the unchanged leaves in record order, then the
    // collapsed blocks in collapse order; phase 5 retires the changed
    // leaves' blocks beside them. ----
    let mut out = QuadtreeAssembler::new(world);
    let (mut line, mut lengths, mut nodes) = (Vec::new(), Vec::new(), Vec::new());
    let mut at = (0, 0);
    let mut stack = vec![(0usize, NodePath::ROOT, world, false)];
    while let Some((v, path, rect, dead)) = stack.pop() {
        match old.node(v) {
            QtNode::Leaf { lines: ids } => {
                let survivors = &lines.kept[lines.survivors(&mut at, ids.len())];
                let mut inserts = lines.inserts(v).peekable();
                if dead {
                    continue;
                }
                if survivors.len() == ids.len() && inserts.peek().is_none() {
                    if !survivors.is_empty() {
                        out.place(path, survivors);
                    }
                } else if !survivors.is_empty() || inserts.peek().is_some() {
                    let before = line.len();
                    line.extend_from_slice(survivors);
                    line.extend(inserts);
                    lengths.push(line.len() - before);
                    nodes.push(ActiveNode { path, rect });
                }
            }
            QtNode::Internal { children } => {
                let dead = dead || lines.aux[v] == COLLAPSED;
                let quads = rect.quadrants();
                for q in 0..4 {
                    let child = path.child(Quadrant::from_index(q));
                    stack.push((children[q], child, quads[q], dead));
                }
            }
        }
    }
    for (path, b) in collapses {
        let union = &unions.ids[unions.blocks[b].0.clone()];
        if !union.is_empty() {
            out.place(path, union);
        }
    }

    // ---- Phase 5: split repair over the changed leaves. ----
    let mut split_rounds = 0;
    let mut new_truncated = 0;
    if !nodes.is_empty() {
        let state = LineProcSet {
            line,
            seg: Segments::from_lengths(&lengths).expect("repair leaves are non-empty"),
            nodes,
        };
        let mut policy = QuadSplitPolicy::from_frontier(state, &new_segs, max_depth, decide, out)
            .expect("repair frontier is non-empty");
        split_rounds = RoundDriver::run(machine, &mut policy);
        (out, new_truncated) = policy.into_parts();
    }
    *tree = out.finish(
        tree.rounds() + merge_rounds + split_rounds,
        tree.truncated() + new_truncated,
    );
    *segs = new_segs;

    UpdateOutcome {
        deleted: deletes.len(),
        inserted: batch.inserts.len(),
        merge_rounds,
        split_rounds,
        collapsed,
    }
}

/// [`batch_update`] specialized to the bucket PMR quadtree's capacity
/// decision (paper Sec. 5.2) — the service layer's index family.
pub fn batch_update_bucket_pmr(
    machine: &Machine,
    tree: &mut DpQuadtree,
    segs: &mut Vec<LineSeg>,
    batch: &UpdateBatch,
    capacity: usize,
    max_depth: usize,
) -> UpdateOutcome {
    assert!(capacity >= 1, "bucket capacity must be at least 1");
    let mut decide = |m: &Machine, st: &LineProcSet, _segs: &[LineSeg]| {
        crate::bucket_pmr::bucket_pmr_decision(m, st, capacity)
    };
    batch_update(machine, tree, segs, batch, max_depth, &mut decide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_pmr::build_bucket_pmr;
    use crate::pm1::pm1_decision;
    use crate::pm_family::{pm2_decision, pm3_decision};
    use dp_geom::Point;
    use scan_model::Backend;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn bundle() -> Vec<LineSeg> {
        vec![
            LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
            LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            LineSeg::from_coords(1.0, 2.0, 6.0, 2.0),
            LineSeg::from_coords(3.0, 1.0, 3.0, 6.0),
            LineSeg::from_coords(0.0, 7.0, 2.0, 7.0),
        ]
    }

    /// Structural signature: every non-empty leaf as (depth, block corner,
    /// sorted line ids).
    fn signature(t: &DpQuadtree) -> Vec<(usize, (u64, u64), Vec<SegId>)> {
        let mut sig = Vec::new();
        t.for_each_leaf(|rect, depth, ids| {
            if !ids.is_empty() {
                let mut ids = ids.to_vec();
                ids.sort_unstable();
                sig.push((depth, (rect.min.x.to_bits(), rect.min.y.to_bits()), ids));
            }
        });
        sig.sort();
        sig
    }

    fn assert_equals_bulk(m: &Machine, t: &DpQuadtree, segs: &[LineSeg], cap: usize, depth: usize) {
        let bulk = build_bucket_pmr(m, t.world(), segs, cap, depth);
        assert_eq!(signature(t), signature(&bulk));
        assert_eq!(
            t.window_query(&t.world(), segs),
            bulk.window_query(&bulk.world(), segs)
        );
    }

    #[test]
    fn empty_batch_is_identity() {
        for m in machines() {
            let mut segs = bundle();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let before = signature(&t);
            let out = batch_update_bucket_pmr(&m, &mut t, &mut segs, &UpdateBatch::default(), 2, 6);
            assert_eq!(out, UpdateOutcome::default());
            assert_eq!(signature(&t), before);
        }
    }

    #[test]
    fn insert_into_empty_tree_matches_bulk() {
        for m in machines() {
            let mut segs: Vec<LineSeg> = Vec::new();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let out = batch_update_bucket_pmr(
                &m,
                &mut t,
                &mut segs,
                &UpdateBatch::inserting(bundle()),
                2,
                6,
            );
            assert_eq!(out.inserted, 5);
            assert_eq!(segs, bundle());
            assert_equals_bulk(&m, &t, &segs, 2, 6);
        }
    }

    #[test]
    fn delete_everything_collapses_to_empty_root() {
        for m in machines() {
            let mut segs = bundle();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let out = batch_update_bucket_pmr(
                &m,
                &mut t,
                &mut segs,
                &UpdateBatch::deleting((0..5).collect()),
                2,
                6,
            );
            assert_eq!(out.deleted, 5);
            assert!(segs.is_empty());
            assert_eq!(t.stats().nodes, 1);
            assert_equals_bulk(&m, &t, &segs, 2, 6);
        }
    }

    #[test]
    fn mixed_batch_with_id_remap_matches_bulk() {
        for m in machines() {
            let mut segs = bundle();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let batch = UpdateBatch {
                inserts: vec![
                    LineSeg::from_coords(6.5, 6.5, 7.5, 7.5),
                    LineSeg::from_coords(0.5, 0.5, 0.5, 3.5),
                ],
                deletes: vec![1, 3, 3], // duplicate delete tolerated
            };
            let out = batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 6);
            assert_eq!(out.deleted, 2);
            assert_eq!(out.inserted, 2);
            let expect: Vec<LineSeg> = vec![
                bundle()[0],
                bundle()[2],
                bundle()[4],
                batch.inserts[0],
                batch.inserts[1],
            ];
            assert_eq!(segs, expect);
            assert_equals_bulk(&m, &t, &segs, 2, 6);
        }
    }

    #[test]
    fn interleaved_batches_match_one_bulk_build() {
        // Several rounds of inserts and deletes, checked after each batch
        // — including a batch that both inserts and deletes.
        for m in machines() {
            let mut segs: Vec<LineSeg> = Vec::new();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let b = bundle();
            let batches = vec![
                UpdateBatch::inserting(vec![b[0], b[1]]),
                UpdateBatch {
                    inserts: vec![b[2], b[3]],
                    deletes: vec![0],
                },
                UpdateBatch::default(),
                UpdateBatch {
                    inserts: vec![b[4], b[0]],
                    deletes: vec![1, 2],
                },
            ];
            for batch in &batches {
                batch_update_bucket_pmr(&m, &mut t, &mut segs, batch, 2, 6);
                assert_equals_bulk(&m, &t, &segs, 2, 6);
            }
            assert_eq!(segs.len(), 3);
        }
    }

    #[test]
    fn duplicate_geometry_inserts_match_bulk() {
        // Inserting a segment geometrically identical to an existing one
        // must behave like the bulk build of the multiset.
        for m in machines() {
            let mut segs = bundle();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let batch = UpdateBatch::inserting(vec![bundle()[0], bundle()[0]]);
            batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 6);
            assert_eq!(segs.len(), 7);
            assert_equals_bulk(&m, &t, &segs, 2, 6);
        }
    }

    #[test]
    fn deletion_merges_deep_structure_back() {
        // Three lines on a shared vertex force deep subdivision (paper
        // Fig. 4); deleting two of them must collapse the region.
        for m in machines() {
            let mut segs = vec![
                LineSeg::from_coords(1.0, 6.0, 0.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 3.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 6.0, 2.0),
            ];
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 5);
            assert!(t.stats().height >= 3);
            let out = batch_update_bucket_pmr(
                &m,
                &mut t,
                &mut segs,
                &UpdateBatch::deleting(vec![0, 1]),
                2,
                5,
            );
            assert!(out.collapsed > 0, "no records collapsed: {out:?}");
            assert_equals_bulk(&m, &t, &segs, 2, 5);
            assert_eq!(t.stats().height, 0, "single survivor fits the root");
        }
    }

    #[test]
    fn insertion_splits_overflowing_leaves() {
        for m in machines() {
            let mut segs = vec![LineSeg::from_coords(1.0, 1.0, 2.0, 1.0)];
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            assert_eq!(t.stats().height, 0);
            let batch = UpdateBatch::inserting(vec![
                LineSeg::from_coords(1.0, 1.5, 2.0, 1.5),
                LineSeg::from_coords(1.0, 2.0, 2.0, 2.0),
                LineSeg::from_coords(5.0, 5.0, 6.0, 5.0),
            ]);
            let out = batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 6);
            assert!(out.split_rounds > 0, "overflowing leaf must split");
            assert_equals_bulk(&m, &t, &segs, 2, 6);
        }
    }

    #[test]
    fn updates_preserve_query_surface() {
        // Point, nearest and window queries all agree with brute force
        // after a mixed batch.
        for m in machines() {
            let mut segs = bundle();
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            let batch = UpdateBatch {
                inserts: vec![LineSeg::from_coords(6.0, 1.0, 7.0, 1.0)],
                deletes: vec![2],
            };
            batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 6);
            let q = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
            let brute: Vec<SegId> = (0..segs.len() as SegId)
                .filter(|&id| dp_geom::clip_segment_closed(&segs[id as usize], &q).is_some())
                .collect();
            assert_eq!(t.window_query(&q, &segs), brute);
            let p = Point::new(6.5, 1.0);
            let (id, _) = t.nearest(p, &segs).unwrap();
            assert_eq!(id, 4, "the routed insert is nearest to {p:?}");
            let probe = t.point_query(Point::new(6.5, 1.0));
            assert!(probe.contains(&4), "{probe:?}");
        }
    }

    #[test]
    fn truncated_count_accumulates_at_depth_bound() {
        for m in machines() {
            let mut segs = vec![
                LineSeg::from_coords(1.0, 6.0, 0.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 3.0, 7.0),
            ];
            let mut t = build_bucket_pmr(&m, world(), &segs, 2, 3);
            assert_eq!(t.truncated(), 0);
            // A third line on the shared vertex overflows the max-depth
            // bucket, exactly like the bulk build of Fig. 38.
            let batch = UpdateBatch::inserting(vec![LineSeg::from_coords(1.0, 6.0, 6.0, 2.0)]);
            batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 3);
            assert!(t.truncated() >= 1);
            assert_equals_bulk(&m, &t, &segs, 2, 3);
        }
    }

    #[test]
    fn pm_families_update_to_bulk_shape() {
        // The engine is generic over the split decision: PM₁, PM₂ and PM₃
        // updates must equal their bulk builds too.
        type DecideFn = fn(&Machine, &LineProcSet, &[LineSeg]) -> Vec<bool>;
        let families: Vec<(&str, DecideFn)> = vec![
            ("pm1", pm1_decision),
            ("pm2", pm2_decision),
            ("pm3", pm3_decision),
        ];
        for m in machines() {
            for (name, decision) in &families {
                let mut segs = vec![bundle()[0], bundle()[1], bundle()[4]];
                let mut decide =
                    |mm: &Machine, st: &LineProcSet, ss: &[LineSeg]| decision(mm, st, ss);
                let mut t = crate::lineproc::run_quad_build(&m, world(), &segs, 6, &mut decide);
                let batch = UpdateBatch {
                    inserts: vec![bundle()[2], bundle()[3]],
                    deletes: vec![0],
                };
                batch_update(&m, &mut t, &mut segs, &batch, 6, &mut decide);
                let bulk = crate::lineproc::run_quad_build(&m, world(), &segs, 6, &mut decide);
                assert_eq!(signature(&t), signature(&bulk), "family {name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_delete_rejected() {
        let m = Machine::sequential();
        let mut segs = bundle();
        let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
        batch_update_bucket_pmr(
            &m,
            &mut t,
            &mut segs,
            &UpdateBatch::deleting(vec![99]),
            2,
            6,
        );
    }

    #[test]
    #[should_panic(expected = "outside the half-open world")]
    fn out_of_world_insert_rejected() {
        let m = Machine::sequential();
        let mut segs = bundle();
        let mut t = build_bucket_pmr(&m, world(), &segs, 2, 6);
        let batch = UpdateBatch::inserting(vec![LineSeg::from_coords(0.0, 0.0, 8.0, 8.0)]);
        batch_update_bucket_pmr(&m, &mut t, &mut segs, &batch, 2, 6);
    }
}
