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
//! kernels and driven by the instrumented [`RoundDriver`]:
//!
//! 1. **Collection compaction** — deleted segments are removed from the
//!    backing collection with the deletion-compaction kernel (Sec. 4.3);
//!    an exclusive `+`-scan over the keep flags yields the old→new id
//!    remap in one scan pass. Inserts append after the kept ids.
//! 2. **Leaf delete-compaction** — every leaf's line list is flattened
//!    into one segmented lane vector; one [`Machine::delete_layout`] +
//!    gather compacts all leaves simultaneously and one elementwise pass
//!    remaps the survivors.
//! 3. **Insert routing** — the new segments descend the existing tree in
//!    lockstep, one level per round, on the crate's one descent step
//!    (`batch::descend_level`, the same flat-map the batch window query
//!    walks): a lane landing on a leaf retires into that leaf's record, a
//!    lane over an internal node fans out to exactly its crossing
//!    children (the generalized cloning of Sec. 4.1). Membership uses the
//!    same [`seg_in_block`] predicate as the bulk build's node split, so
//!    routed q-edges land exactly where a bulk build would place them.
//! 4. **Merge sweep** — underflowing regions collapse. The sweep is
//!    top-down over the *affected* subtree (a block is affected iff some
//!    batch segment — deleted old geometry or insert — crosses it):
//!    starting at the root, each affected internal block evaluates the
//!    structure's split decision on the distinct union of its subtree's
//!    lines; a `false` verdict collapses the whole subtree into one leaf,
//!    a `true` verdict descends into the affected children only.
//!    Unaffected subtrees are untouched — by induction they already equal
//!    the bulk shape. Top-down matters: split decisions need not be
//!    monotone in the line set, so a bottom-up cascade can stall below a
//!    block whose bulk verdict is "leaf".
//! 5. **Split repair** — leaves whose line set changed re-enter the
//!    ordinary [`QuadSplitPolicy`] via its multi-node frontier
//!    constructor and subdivide until the split criterion is satisfied,
//!    exactly as in a bulk build.
//!
//! Phases 4 and 5 run as [`SplitPolicy`]s on the [`RoundDriver`], so
//! every step hits the `RoundAbort` fault site and records a
//! [`scan_model::RoundTrace`] — the crash-recovery sweeps in
//! `tests/fault_injection.rs` kill updates at every round the same way
//! they kill builds.
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
use std::collections::HashMap;

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

/// One leaf block of the tree being updated, tracked through the phases.
struct Rec {
    path: NodePath,
    rect: Rect,
    lines: Vec<SegId>,
    /// Line set changed (deletion or routed insert) — split repair input.
    changed: bool,
    /// Absorbed by a merge collapse; excluded from the final assembly.
    dead: bool,
}

/// A frontier node of the merge sweep: an internal block of the old
/// structure whose subtree may collapse.
struct MergeCandidate {
    path: NodePath,
    rect: Rect,
    /// Indices into the record table of every leaf under this block.
    members: Vec<usize>,
    /// Indices into the batch footprint of the segments crossing this
    /// block (narrowed as the sweep descends).
    foot: Vec<u32>,
}

/// The merge sweep as a [`SplitPolicy`]: `decide` evaluates the split
/// criterion on each candidate's distinct line union (one batched closure
/// call per round), `emit` collapses the rejected candidates, `partition`
/// descends into the affected children of the rest.
struct MergeSweepPolicy<'a, 'd, 'c, 's> {
    recs: &'a mut Vec<Rec>,
    segs: &'s [LineSeg],
    footprint: &'a [LineSeg],
    decide: &'d mut SplitDecision<'c>,
    frontier: Vec<MergeCandidate>,
    /// Per frontier candidate: the distinct union of its subtree's lines,
    /// computed by `decide` and consumed by `emit`. Unordered: leaf line
    /// order is never semantic (queries sort before use).
    unions: Vec<Vec<SegId>>,
    /// Stamped seen-table for the union dedup: `seen[id] == stamp` iff
    /// `id` was already taken for the current candidate. One O(lines)
    /// sweep per round instead of a sort per candidate.
    seen: Vec<u32>,
    stamp: u32,
    collapsed: usize,
}

impl MergeSweepPolicy<'_, '_, '_, '_> {
    fn collapse(&mut self, c: usize) {
        let cand = &self.frontier[c];
        for &ri in &cand.members {
            self.recs[ri].dead = true;
        }
        self.collapsed += cand.members.len();
        let lines = std::mem::take(&mut self.unions[c]);
        // The collapsed block is decision-false by construction, so it
        // needs no split repair.
        self.recs.push(Rec {
            path: cand.path,
            rect: cand.rect,
            lines,
            changed: false,
            dead: false,
        });
    }
}

impl SplitPolicy for MergeSweepPolicy<'_, '_, '_, '_> {
    fn active_elements(&self) -> usize {
        self.frontier.iter().map(|c| c.members.len()).sum()
    }

    fn active_nodes(&self) -> usize {
        self.frontier.len()
    }

    fn decide(&mut self, machine: &Machine) -> Vec<bool> {
        // Distinct union of each candidate subtree's lines (a line crosses
        // the candidate block iff it appears in some leaf below it — the
        // q-edge rule).
        machine.note_elementwise();
        if self.seen.len() < self.segs.len() {
            self.seen.resize(self.segs.len(), 0);
        }
        self.unions.clear();
        for cand in &self.frontier {
            if self.stamp == u32::MAX {
                self.seen.iter_mut().for_each(|s| *s = 0);
                self.stamp = 0;
            }
            self.stamp += 1;
            let stamp = self.stamp;
            let mut u: Vec<SegId> = Vec::new();
            for &ri in &cand.members {
                for &id in &self.recs[ri].lines {
                    let s = &mut self.seen[id as usize];
                    if *s != stamp {
                        *s = stamp;
                        u.push(id);
                    }
                }
            }
            self.unions.push(u);
        }

        // One batched decision over the non-empty candidates; an emptied
        // subtree collapses unconditionally (a bulk build leaves an empty
        // block as a leaf).
        let occupied: Vec<usize> = (0..self.frontier.len())
            .filter(|&c| !self.unions[c].is_empty())
            .collect();
        let mut want = vec![false; self.frontier.len()];
        if !occupied.is_empty() {
            let lengths: Vec<usize> = occupied.iter().map(|&c| self.unions[c].len()).collect();
            let line: Vec<SegId> = occupied
                .iter()
                .flat_map(|&c| self.unions[c].iter().copied())
                .collect();
            let nodes: Vec<ActiveNode> = occupied
                .iter()
                .map(|&c| ActiveNode {
                    path: self.frontier[c].path,
                    rect: self.frontier[c].rect,
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
                self.collapse(c);
            }
        }
    }

    fn partition(&mut self, _machine: &Machine, want: &[bool]) {
        let mut next = Vec::new();
        for (c, cand) in self.frontier.iter().enumerate() {
            if !want[c] {
                continue;
            }
            // Group the member leaves by their quadrant under this block.
            let depth = cand.path.depth() as usize;
            let quads = cand.rect.quadrants();
            let mut groups: [Vec<usize>; 4] = Default::default();
            for &ri in &cand.members {
                let q = self.recs[ri].path.quadrant_at(depth);
                groups[q.index()].push(ri);
            }
            for (qi, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let child_path = cand.path.child(Quadrant::from_index(qi));
                let child_rect = quads[qi];
                // A single record at the child block is already a leaf
                // there — nothing beneath it to merge.
                if group.len() == 1 && self.recs[group[0]].path == child_path {
                    continue;
                }
                // Unaffected children keep their structure: no batch
                // segment crosses the block, so its subtree is already
                // bulk-shaped.
                let foot: Vec<u32> = cand
                    .foot
                    .iter()
                    .copied()
                    .filter(|&f| seg_in_block(&self.footprint[f as usize], &child_rect))
                    .collect();
                if foot.is_empty() {
                    continue;
                }
                next.push(MergeCandidate {
                    path: child_path,
                    rect: child_rect,
                    members: group,
                    foot,
                });
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
/// remap (`new = old - |{d in deletes : d < old}|`).
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
    let deleted_geom: Vec<LineSeg> = deletes.iter().map(|&d| segs[d as usize]).collect();
    let kept = n - deletes.len();
    // Exclusive +-scan over the keep flags: each survivor's rank is its
    // post-compaction id.
    let keep: Vec<u64> = machine.map(&delete_flag, |f| !f as u64);
    let ranks = machine.up_scan(&keep, Sum, ScanKind::Exclusive);
    machine.note_elementwise();
    let new_id: Vec<SegId> = (0..n)
        .map(|i| {
            if delete_flag[i] {
                SegId::MAX
            } else {
                ranks[i] as SegId
            }
        })
        .collect();
    if !deletes.is_empty() {
        let layout = machine.delete_layout(&Segments::single(n), &delete_flag);
        *segs = machine.apply(segs, &layout);
    }
    segs.extend(batch.inserts.iter().copied());

    // The batch footprint: every region either verdict can change in is
    // crossed by one of these.
    let mut footprint = deleted_geom;
    footprint.extend(batch.inserts.iter().copied());

    // ---- Collect the current leaves (empty ones included, so every
    // block of the full 4-ary structure has a record beneath it). ----
    let mut recs: Vec<Rec> = Vec::new();
    let mut rec_of_node: HashMap<usize, usize> = HashMap::new();
    let mut stack = vec![(0usize, NodePath::ROOT, world)];
    while let Some((idx, path, rect)) = stack.pop() {
        match tree.node(idx) {
            QtNode::Leaf { lines } => {
                rec_of_node.insert(idx, recs.len());
                recs.push(Rec {
                    path,
                    rect,
                    lines: lines.to_vec(),
                    changed: false,
                    dead: false,
                });
            }
            QtNode::Internal { children } => {
                let quads = rect.quadrants();
                for qi in 0..4 {
                    stack.push((
                        children[qi],
                        path.child(Quadrant::from_index(qi)),
                        quads[qi],
                    ));
                }
            }
        }
    }

    // ---- Phase 2: leaf delete-compaction, all leaves at once. ----
    if !deletes.is_empty() {
        let occupied: Vec<usize> = (0..recs.len())
            .filter(|&ri| !recs[ri].lines.is_empty())
            .collect();
        if !occupied.is_empty() {
            let lengths: Vec<usize> = occupied.iter().map(|&ri| recs[ri].lines.len()).collect();
            let flat: Vec<SegId> = occupied
                .iter()
                .flat_map(|&ri| recs[ri].lines.iter().copied())
                .collect();
            let seg = Segments::from_lengths(&lengths).expect("occupied leaves are non-empty");
            let mut flags: Vec<bool> = machine.lease();
            machine.map_into(&flat, |id| delete_flag[id as usize], &mut flags);
            let layout = machine.delete_layout(&seg, &flags);
            // Compact and remap the survivors in the flat buffer itself.
            let mut remapped = flat;
            machine.apply_in_place(&mut remapped, &layout);
            machine.map_in_place(&mut remapped, |id| new_id[id as usize]);
            machine.recycle(flags);
            let mut off = 0;
            for (k, &ri) in occupied.iter().enumerate() {
                let klen = layout.counts[k];
                if klen != recs[ri].lines.len() {
                    recs[ri].changed = true;
                }
                recs[ri].lines = remapped[off..off + klen].to_vec();
                off += klen;
            }
            debug_assert_eq!(off, remapped.len());
        }
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
                tree,
                &mut lanes,
                |j, node, _| {
                    // Landed: retire the lane into the leaf's record.
                    let rec = &mut recs[rec_of_node[&node]];
                    rec.lines.push(kept as SegId + j);
                    rec.changed = true;
                },
                |j, child| seg_in_block(&batch.inserts[j as usize], child),
            );
            if !descending {
                break;
            }
            machine.bump_rounds();
        }
    }

    // ---- Phase 4: top-down merge sweep over the affected subtree. ----
    let mut merge_rounds = 0;
    let mut collapsed = 0;
    if recs.len() > 1 {
        let foot_all: Vec<u32> = (0..footprint.len() as u32).collect();
        let all_members: Vec<usize> = (0..recs.len()).collect();
        let mut policy = MergeSweepPolicy {
            recs: &mut recs,
            segs,
            footprint: &footprint,
            decide,
            frontier: vec![MergeCandidate {
                path: NodePath::ROOT,
                rect: world,
                members: all_members,
                foot: foot_all,
            }],
            unions: Vec::new(),
            seen: Vec::new(),
            stamp: 0,
            collapsed: 0,
        };
        merge_rounds = RoundDriver::run(machine, &mut policy);
        collapsed = policy.collapsed;
    }

    // ---- Reassemble: every surviving leaf that needs no repair goes into
    // the new tree first, then phase 5 retires its blocks beside them. ----
    let repair: Vec<usize> = (0..recs.len())
        .filter(|&ri| !recs[ri].dead && recs[ri].changed && !recs[ri].lines.is_empty())
        .collect();
    let mut out = QuadtreeAssembler::new(world);
    for r in &recs {
        if !r.dead && !r.changed && !r.lines.is_empty() {
            out.place(r.path, &r.lines);
        }
    }

    // ---- Phase 5: split repair over the changed leaves. ----
    let mut split_rounds = 0;
    let mut new_truncated = 0;
    if !repair.is_empty() {
        let lengths: Vec<usize> = repair.iter().map(|&ri| recs[ri].lines.len()).collect();
        let line: Vec<SegId> = repair
            .iter()
            .flat_map(|&ri| recs[ri].lines.iter().copied())
            .collect();
        let nodes: Vec<ActiveNode> = repair
            .iter()
            .map(|&ri| ActiveNode {
                path: recs[ri].path,
                rect: recs[ri].rect,
            })
            .collect();
        let state = LineProcSet {
            line,
            seg: Segments::from_lengths(&lengths).expect("repair records are non-empty"),
            nodes,
        };
        let mut policy = QuadSplitPolicy::from_frontier(state, segs, max_depth, decide, out)
            .expect("repair frontier is non-empty");
        split_rounds = RoundDriver::run(machine, &mut policy);
        (out, new_truncated) = policy.into_parts();
    }
    *tree = out.finish(
        tree.rounds() + merge_rounds + split_rounds,
        tree.truncated() + new_truncated,
    );

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
