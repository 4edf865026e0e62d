//! The one counts→layout kernel, the one apply, and the flat-map that
//! needs neither: cloning, deletion, duplicate deletion and fan-out as
//! arities of a single computation.
//!
//! The paper's reordering primitives — *cloning* (Sec. 4.1, Fig. 14) and
//! *duplicate deletion* (Sec. 4.3, Fig. 18) — are each "one scan, a
//! couple of elementwise ops, one permutation", and they are the same
//! computation: give every input lane an **arity** (how many copies of it
//! the output holds), take the exclusive `+`-scan of the arities to find
//! each lane's first output slot, and scatter. Cloning is arity
//! `1 + flag`, deletion is `1 − flag`, the frontier algorithms' ×k
//! fan-out is a counts lane, and a general flat-map mixes all three
//! (Sroka & Tyszkiewicz: sort + scan + zip + flat-map is the whole
//! vocabulary).
//!
//! It comes in two forms that share one frame (`Frame`: block-reduce →
//! carry → block-apply, the structure of the scan walk in
//! [`crate::blocked`]). Phase 1 reduces each input block to its arity
//! total — the block total of the room-making scan, carried like a scan
//! carry, so no widened or offset vector is ever materialized; phase 3
//! lets every block write its disjoint output span. On the sequential
//! backend the same bodies run as one block, inline.
//!
//! * **Push form** — [`Machine::flat_map_into`] and its coded entry
//!   [`Machine::flat_map_coded_into`]: Fig. 14 read literally, "scan the
//!   arities, then each element *goes* to its offset". The apply phase
//!   writes `f(value, code, rank)` for every copy straight into its
//!   block's output span, so a flat-map with **one output vector never
//!   materializes its layout** — no index per output lane is built, read
//!   back or freed (Gu, Obeya & Shun's pack without an index). The batch
//!   descent, the frontier join's fan-out and the skyline's compaction are
//!   this form.
//! * **Gather form** — [`Machine::clone_layout`],
//!   [`Machine::delete_layout`], [`Machine::fanout_layout`] and
//!   [`Machine::delete_duplicates`], thin named wrappers that supply the
//!   arity and produce one [`Layout`]. It is for **one layout applied to
//!   several vectors** — the split rounds reorder every lane vector of a
//!   frontier by the same layout — and for callers that read the expanded
//!   segment descriptor. Besides the arity total, its phase 1 carries the
//!   one other cross-block dependency, the *vanished-segment-head* flag: a
//!   segment head whose lane has arity 0 defers its boundary to the next
//!   surviving lane.
//!
//! Either form is charged the paper's count for a single cloning — one
//! scan, two elementwise ops, one permutation — for any arity, and the
//! push form adds what [`Machine::apply_map_into`] charges (one
//! permutation, one elementwise op), so a caller that moves from
//! `fanout_layout` + `apply_map_into` to `flat_map_into` changes no
//! counter.
//!
//! The layout is gather-form ([`Layout::src_lane`]), so applying it to the
//! several parallel vectors of a frontier costs one permutation per
//! vector, into one of three destinations: a fresh vector
//! ([`Machine::apply`]), a caller buffer ([`Machine::apply_into`]) or the
//! input itself ([`Machine::apply_in_place`]). The fused-map form
//! ([`Machine::apply_map_into`]) materializes `f(value, rank)` for every
//! copy in the same sweep as the gather. A monotone gather can be swept
//! in one direction without a second buffer (Gu, Obeya & Shun); which
//! direction is a property of the arities the layout was built from, so
//! the layout records it and the in-place apply reads it — it is never a
//! caller's choice.

use crate::blocked;
use crate::machine::{fit_exact, widest, Machine};
use crate::ops::Element;
use crate::scatter::SyncPtr;
use crate::vector::Segments;

/// Which way lanes move under a gather-form layout, observed from the
/// arities it was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Motion {
    /// Every arity ≤ 1: survivors only close ranks (`src_lane[j] >= j`),
    /// so a forward sweep never reads a slot it has overwritten.
    Leftward,
    /// Every arity ≥ 1: lanes only make room (`src_lane[j] <= j`), so a
    /// backward sweep reads every source before it is overwritten.
    Rightward,
    /// Zero and multi-copy arities both occur: no single-direction sweep
    /// exists.
    Mixed,
}

/// A gather-form reordering: the result of [`Machine::clone_layout`],
/// [`Machine::delete_layout`] and [`Machine::fanout_layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// For each output lane, the input lane it is a copy of. Copies of a
    /// lane are adjacent and in rank order (the original-then-clone
    /// adjacency of paper Fig. 14, for any arity).
    pub src_lane: Vec<usize>,
    /// For each output lane, its copy index within its source lane's run
    /// (`0..arity`). Under cloning, `rank == 1` marks the inserted clone.
    pub rank: Vec<u32>,
    /// The segment descriptor of the output: every copy joins its source
    /// lane's segment. Lanes with arity zero vanish; a segment whose
    /// lanes all vanish is dropped from the descriptor.
    pub seg: Segments,
    /// Per *input* segment, the number of output lanes it produced (zero
    /// for a segment that vanished) — under deletion, the survivors per
    /// segment.
    pub counts: Vec<usize>,
    input_len: usize,
    motion: Motion,
}

impl Layout {
    /// Number of output lanes.
    pub fn len(&self) -> usize {
        self.src_lane.len()
    }

    /// `true` when the layout covers zero output lanes.
    pub fn is_empty(&self) -> bool {
        self.src_lane.is_empty()
    }

    /// Number of input lanes the layout was computed for; every apply
    /// checks its data against it.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    fn check_input(&self, data_len: usize) {
        assert_eq!(
            data_len, self.input_len,
            "apply: data has {data_len} lanes but the layout was computed for {}",
            self.input_len
        );
    }
}

/// The block-reduce → carry → block-apply frame both flat-map forms run
/// in: which lanes make a block and whether the blocks go to the pool.
/// A form supplies its phase-1 summary, folds the (few) summaries into
/// per-block seeds itself — what is carried differs between the forms —
/// and supplies its phase-3 body. [`Machine::fanout_frame`] builds it.
struct Frame {
    pool: bool,
    n: usize,
    block: usize,
}

impl Frame {
    /// Phase 1 (block-reduce): `summarize(lo, hi)` of every block, in
    /// block order.
    fn reduce<S, R>(&self, summarize: R) -> Vec<S>
    where
        S: Send,
        R: Fn(usize, usize) -> S + Sync,
    {
        let nblocks = self.n.div_ceil(self.block);
        let mut sums: Vec<S> = Vec::with_capacity(nblocks);
        let base = SyncPtr(sums.as_mut_ptr());
        blocked::for_each_block(self.pool, self.n, self.block, |lo, hi| {
            // SAFETY: `lo / block` is a unique block index per call and
            // below `nblocks`, the capacity reserved above.
            unsafe { base.get().add(lo / self.block).write(summarize(lo, hi)) };
        });
        // SAFETY: the walk visited every block once, so slots
        // `0..nblocks` are initialized.
        unsafe { sums.set_len(nblocks) };
        sums
    }

    /// Phase 3 (block-apply): `write(b, lo, hi)` for every block `b`,
    /// which indexes what phase 2 carried into it.
    fn apply<W>(&self, write: W)
    where
        W: Fn(usize, usize, usize) + Sync,
    {
        blocked::for_each_block(self.pool, self.n, self.block, |lo, hi| {
            write(lo / self.block, lo, hi)
        });
    }
}

/// Per-block reduction of the layout kernel's phase 1.
#[derive(Clone, Copy, Default)]
struct BlockSummary {
    /// Output lanes the block emits: the block total of the room-making
    /// scan.
    emitted: usize,
    /// OR of the input segment flags after the block's last surviving
    /// lane (all of its flags when nothing survived).
    trailing_head: bool,
    any_zero: bool,
    any_multi: bool,
}

impl Machine {
    /// Cloning layout (paper Sec. 4.1, Figs. 13–14): every lane with
    /// `clone_flags[i]` set is replicated, the copy inserted immediately
    /// after the original; all other lanes shift right to make room.
    /// Arity `1 + flag`; `rank == 1` marks the clones.
    ///
    /// Mechanics (Fig. 14): an unsegmented upward **exclusive** `+`-scan
    /// of the clone flags yields each lane's rightward offset (`F1`); an
    /// elementwise add of the offset to the lane's position yields its
    /// new index (`F2`); the permutation repositions the lanes and each
    /// flagged lane copies itself one slot to the right.
    ///
    /// # Panics
    ///
    /// Panics if `clone_flags.len() != seg.len()`.
    pub fn clone_layout(&self, seg: &Segments, clone_flags: &[bool]) -> Layout {
        seg.expect_lane("clone", clone_flags.len());
        self.layout_with(seg, |i| 1 + u32::from(clone_flags[i]))
    }

    /// Deletion layout (paper Sec. 4.3, Figs. 17–18): lanes with
    /// `delete_flags[i]` set are removed and the survivors close ranks
    /// leftward. Arity `1 − flag`; [`Layout::counts`] holds the survivors
    /// per input segment.
    ///
    /// Mechanics (Fig. 18): an unsegmented upward **exclusive** `+`-scan
    /// over the delete flags counts the doomed lanes to each lane's left
    /// (`F1`); an elementwise subtract from the position index gives each
    /// survivor's new index, and a permutation compacts them.
    ///
    /// # Panics
    ///
    /// Panics if `delete_flags.len() != seg.len()`.
    pub fn delete_layout(&self, seg: &Segments, delete_flags: &[bool]) -> Layout {
        seg.expect_lane("delete", delete_flags.len());
        self.layout_with(seg, |i| u32::from(!delete_flags[i]))
    }

    /// Fan-out layout, the counts-lane form of cloning the frontier
    /// algorithms (batch query descent, spatial join, flat-map) use: lane
    /// `i` is replicated `copies[i]` times (zero deletes it), copies
    /// adjacent and stamped with their rank so a downstream elementwise
    /// step can address "the r-th child" directly. One cloning's cost for
    /// any fan-out width, where composing adjacent clonings would take
    /// `log₂(max fan-out)` of them. The counts lane is any lane that
    /// converts to a count — a `u32` lane, or a narrower code whose
    /// `Into<u32>` *is* its arity, which spares the caller a widened copy.
    ///
    /// # Panics
    ///
    /// Panics if `copies.len() != seg.len()`.
    pub fn fanout_layout<C>(&self, seg: &Segments, copies: &[C]) -> Layout
    where
        C: Copy + Into<u32> + Sync,
    {
        seg.expect_lane("fan-out", copies.len());
        self.layout_with(seg, |i| copies[i].into())
    }

    /// Deletes duplicates from a *sorted* vector of keys: every lane equal
    /// to its left neighbour within its segment is removed (the full
    /// duplicate-deletion primitive of paper Sec. 4.3: the flagging
    /// elementwise op, the deletion layout, one apply).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seg.len()`.
    pub fn delete_duplicates<T: Element + PartialEq>(
        &self,
        data: &[T],
        seg: &Segments,
    ) -> (Vec<T>, Layout) {
        seg.expect_lane("delete duplicates", data.len());
        self.count_elementwise();
        let heads = seg.flags();
        let layout = self.layout_with(seg, |i| {
            u32::from(i == 0 || heads[i] || data[i] != data[i - 1])
        });
        (self.apply(data, &layout), layout)
    }

    /// Charges one cloning (Fig. 14) over `n` input lanes, whatever the
    /// arities — the indicator elementwise op, the room-making scan, the
    /// position/rank elementwise op and the scatter, plus the bytes the
    /// two `u64` vectors of the composed form would have carried, the
    /// same on both backends — and fixes the frame the kernel runs in.
    fn fanout_frame(&self, n: usize) -> Frame {
        self.count_elementwise();
        self.count_scan();
        self.count_elementwise();
        self.count_permute();
        self.count_bytes_moved(2 * n * std::mem::size_of::<u64>());
        let pool = self.use_par(n);
        if pool {
            self.count_blocked_pass();
            rayon::fault_checkpoint();
        }
        let block = if pool {
            self.block_elems::<u64>()
        } else {
            n.max(1)
        };
        Frame { pool, n, block }
    }

    /// The one counts→layout kernel: lane `i` of the input is replicated
    /// `arity(i)` times. One cloning's cost ([`Machine::fanout_frame`]).
    fn layout_with<A>(&self, seg: &Segments, arity: A) -> Layout
    where
        A: Fn(usize) -> u32 + Sync,
    {
        let n = seg.len();
        let frame = self.fanout_frame(n);
        let heads = seg.flags();

        // Phase 1 (block-reduce): each block's arity total, pending-head
        // summary and arity range.
        let summaries = frame.reduce(|lo, hi| {
            let mut s = BlockSummary::default();
            for (i, &head) in (lo..).zip(&heads[lo..hi]) {
                let c = arity(i);
                s.trailing_head |= head;
                if c > 0 {
                    s.emitted += c as usize;
                    s.trailing_head = false;
                }
                s.any_zero |= c == 0;
                s.any_multi |= c > 1;
            }
            s
        });

        // Phase 2 (carry): exclusive fold over the (few) blocks — each
        // block's first output slot and carried-in pending flag.
        let mut seeds = Vec::with_capacity(summaries.len());
        let (mut out_len, mut pending) = (0usize, false);
        let (mut any_zero, mut any_multi) = (false, false);
        for s in &summaries {
            seeds.push((out_len, pending));
            out_len += s.emitted;
            pending = s.trailing_head || (s.emitted == 0 && pending);
            any_zero |= s.any_zero;
            any_multi |= s.any_multi;
        }

        // Phase 3 (block-apply): every block writes its own output span
        // `seeds[b].0 .. seeds[b + 1].0` and the first output slot of
        // each input segment whose head it owns. The buffers start
        // zeroed, so rank 0 and `false` flags are never stored.
        let mut src_lane = vec![0usize; out_len];
        let mut rank = vec![0u32; out_len];
        let mut flags_out = vec![false; out_len];
        let mut counts = vec![0usize; seg.num_segments()];
        let src_base = SyncPtr(src_lane.as_mut_ptr());
        let rank_base = SyncPtr(rank.as_mut_ptr());
        let flag_base = SyncPtr(flags_out.as_mut_ptr());
        let first_slot = SyncPtr(counts.as_mut_ptr());
        frame.apply(|b, lo, hi| {
            let (mut at, mut pending) = seeds[b];
            let mut s = seg.starts().partition_point(|&start| start < lo);
            for (i, &head) in (lo..).zip(&heads[lo..hi]) {
                if head {
                    pending = true;
                    // SAFETY: segment s has one head lane, owned by one
                    // block; s < num_segments.
                    unsafe { first_slot.get().add(s).write(at) };
                    s += 1;
                }
                let c = arity(i) as usize;
                if c == 0 {
                    continue;
                }
                // SAFETY: input blocks are disjoint and so are their
                // output spans (the seeds are a prefix sum of the block
                // totals), so each output slot is written by exactly one
                // worker; at + c <= out_len.
                unsafe {
                    if pending {
                        flag_base.get().add(at).write(true);
                        pending = false;
                    }
                    src_base.get().add(at).write(i);
                    for r in 1..c {
                        src_base.get().add(at + r).write(i);
                        rank_base.get().add(at + r).write(r as u32);
                    }
                }
                at += c;
            }
        });
        // First output slots → output counts per input segment.
        for s in 0..counts.len() {
            let end = counts.get(s + 1).copied().unwrap_or(out_len);
            counts[s] = end - counts[s];
        }
        Layout {
            src_lane,
            rank,
            seg: Segments::from_flags(flags_out)
                .expect("a non-empty output starts with the first surviving segment's head"),
            counts,
            input_len: n,
            motion: match (any_zero, any_multi) {
                (true, true) => Motion::Mixed,
                (_, true) => Motion::Rightward,
                _ => Motion::Leftward,
            },
        }
    }

    // ------------------------------------------------------------------
    // The one apply (gather by `src_lane`), three destinations
    // ------------------------------------------------------------------

    /// Applies a layout to one data vector, into a fresh vector. One
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the layout's input length.
    pub fn apply<T: Element>(&self, data: &[T], layout: &Layout) -> Vec<T> {
        let mut out = Vec::new();
        self.apply_into(data, layout, &mut out);
        out
    }

    /// Applies a layout into a caller-provided buffer (cleared first).
    /// One permutation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the layout's input length.
    pub fn apply_into<T: Element>(&self, data: &[T], layout: &Layout, out: &mut Vec<T>) {
        layout.check_input(data.len());
        self.gather_into(data, &layout.src_lane, out);
    }

    /// Applies a layout **in place**: `data` goes from the layout's input
    /// length to its output length with no second buffer when the gather
    /// is monotone — a forward sweep then a truncate when every arity
    /// was ≤ 1 (deletion), a backward sweep into reserved capacity when
    /// every arity was ≥ 1 (cloning, uniform fan-out). A layout with both
    /// vanishing and multiplying lanes admits no single-direction sweep;
    /// it lands in a slab leased from the machine's arena, which is
    /// swapped into `data` and the old storage recycled, bounding the
    /// footprint at one extra buffer for any number of vectors. One
    /// permutation plus one in-place reuse either way.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the layout's input length.
    pub fn apply_in_place<T: Element>(&self, data: &mut Vec<T>, layout: &Layout) {
        layout.check_input(data.len());
        let out_len = layout.len();
        self.count_inplace_reuse();
        if layout.motion == Motion::Mixed {
            let mut slab: Vec<T> = self.lease();
            self.gather_into(data, &layout.src_lane, &mut slab);
            std::mem::swap(data, &mut slab);
            self.recycle(slab);
            return;
        }
        if self.use_par(out_len) {
            rayon::fault_checkpoint();
        }
        self.count_permute();
        self.count_bytes_moved(out_len * std::mem::size_of::<T>());
        if layout.motion == Motion::Leftward {
            for (j, &src) in layout.src_lane.iter().enumerate() {
                debug_assert!(src >= j, "shrinking gather must be increasing");
                data[j] = data[src];
            }
            data.truncate(out_len);
        } else {
            // Grow into the spare capacity: the sweep writes every slot
            // of the longer vector once, so none is filled first.
            data.reserve(out_len - data.len());
            for j in (0..out_len).rev() {
                let src = layout.src_lane[j];
                debug_assert!(src <= j, "growing gather must be monotone");
                let value = data[src];
                // SAFETY: j < out_len, within the capacity reserved above;
                // `value` was read from the initialized prefix.
                unsafe { data.as_mut_ptr().add(j).write(value) };
            }
            // SAFETY: the sweep initialized slots `0..out_len`.
            unsafe { data.set_len(out_len) };
        }
    }

    /// Applies a layout with a per-copy function: output lane `j` is
    /// `f(data[src_lane[j]], rank[j])` — the gather and the downstream
    /// elementwise op fused into one sweep over the output (cleared
    /// first). One permutation plus one elementwise operation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the layout's input length.
    pub fn apply_map_into<T, U, F>(&self, data: &[T], layout: &Layout, f: F, out: &mut Vec<U>)
    where
        T: Element,
        U: Element,
        F: Fn(T, u32) -> U + Send + Sync,
    {
        layout.check_input(data.len());
        let n = layout.len();
        self.begin_map_apply(out, n);
        let (src, rank) = (&layout.src_lane, &layout.rank);
        let spare = &mut out.spare_capacity_mut()[..n];
        self.for_each_block_of(widest::<T, U>(), [spare], |lo, [block]| {
            for (k, slot) in block.iter_mut().enumerate() {
                slot.write(f(data[src[lo + k]], rank[lo + k]));
            }
        });
        // SAFETY: the walk above initialized lanes `0..n` of the spare
        // capacity `begin_map_apply` reserved.
        unsafe { out.set_len(n) };
    }

    /// What a fused-map apply of `n` output lanes is charged — one
    /// permutation, one elementwise op, the output's bytes, a blocked
    /// pass and fault checkpoint once `n` engages the pool — and the
    /// exact-fit reservation of `out` (cleared). Shared by the gather
    /// form's [`Machine::apply_map_into`] and the push form's apply phase,
    /// so the two charge alike.
    fn begin_map_apply<U>(&self, out: &mut Vec<U>, n: usize) {
        self.count_permute();
        self.count_elementwise();
        self.note_alloc_avoided(out.capacity(), n);
        self.count_bytes_moved(n * std::mem::size_of::<U>());
        fit_exact(out, n);
        if self.use_par(n) {
            self.count_blocked_pass();
            rayon::fault_checkpoint();
        }
    }

    /// Push-form flat-map over a **code lane**: lane `i` is replicated
    /// `codes[i].into()` times and output lane `j`, the `rank`-th copy of
    /// lane `i`, is `f(data[i], codes[i], rank)`, written into `out`
    /// (cleared first) — lease `out` from the machine's arena and the
    /// call allocates nothing proportional to its lanes. The code is
    /// whatever the caller's arity pass already computed (a `u32` count,
    /// or a narrower code whose `Into<u32>` *is* its arity, such as a
    /// bitmask of admitted children) and is handed to `f`, so `f` does
    /// not compute it a second time for every copy.
    ///
    /// No [`Layout`] is built: the apply phase of the frame writes each
    /// copy straight to its slot. Charged exactly as
    /// [`Machine::fanout_layout`] followed by [`Machine::apply_map_into`]
    /// (the latter only when the output is non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != data.len()`.
    pub fn flat_map_coded_into<T, C, U, F>(&self, data: &[T], codes: &[C], f: F, out: &mut Vec<U>)
    where
        T: Element,
        C: Element + Into<u32>,
        U: Element,
        F: Fn(T, C, u32) -> U + Send + Sync,
    {
        assert_eq!(
            codes.len(),
            data.len(),
            "flat-map: code lane has {} lanes but the data {}",
            codes.len(),
            data.len()
        );
        let frame = self.fanout_frame(data.len());

        // Phase 1 (block-reduce) and phase 2 (carry, in place): each
        // block's arity total becomes its first output slot.
        let mut seeds = frame.reduce(|lo, hi| {
            let arities = codes[lo..hi].iter().map(|&c| c.into() as usize);
            arities.sum::<usize>()
        });
        let mut out_len = 0usize;
        for seed in &mut seeds {
            out_len += std::mem::replace(seed, out_len);
        }
        if out_len == 0 {
            out.clear();
            return;
        }

        // Phase 3 (block-apply): every copy goes to its slot.
        self.begin_map_apply(out, out_len);
        let base = SyncPtr(out.as_mut_ptr());
        frame.apply(|b, lo, hi| {
            let end = seeds.get(b + 1).copied().unwrap_or(out_len);
            let mut at = seeds[b];
            for (&value, &code) in data[lo..hi].iter().zip(&codes[lo..hi]) {
                let copies: u32 = code.into();
                // Holds whenever `Into<u32>` is a function of the code; a
                // conversion that answers differently in phase 3 than in
                // phase 1 must not write outside its block's span.
                assert!(copies as usize <= end - at, "flat-map: arity changed");
                for rank in 0..copies {
                    // SAFETY: `at < end` by the assert above; input
                    // blocks are disjoint and so are their output spans
                    // `seeds[b]..end` (the seeds are a prefix sum of the
                    // block totals), so each slot is written by exactly
                    // one worker, within the `out_len` slots
                    // `begin_map_apply` reserved.
                    unsafe { base.get().add(at).write(f(value, code, rank)) };
                    at += 1;
                }
            }
            assert_eq!(at, end, "flat-map: arity changed");
        });
        // SAFETY: every block wrote its whole span `seeds[b]..end` (the
        // closing assert), and the spans tile `0..out_len`.
        unsafe { out.set_len(out_len) };
    }

    /// One-call flat-map over a counts lane: lane `i` of the segmented
    /// vector `data` is replicated `counts[i]` times and copy `rank` of it
    /// becomes `f(data[i], rank)` in `out` (cleared first). A thin wrapper
    /// over [`Machine::flat_map_coded_into`]; the descriptor is only
    /// checked against the lanes — copies join their source lane's
    /// segment, and a caller that needs the expanded descriptor takes the
    /// gather form ([`Machine::fanout_layout`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != seg.len()` or `data.len() != seg.len()`.
    pub fn flat_map_into<T, U, F>(
        &self,
        seg: &Segments,
        data: &[T],
        counts: &[u32],
        f: F,
        out: &mut Vec<U>,
    ) where
        T: Element,
        U: Element,
        F: Fn(T, u32) -> U + Send + Sync,
    {
        seg.expect_lane("flat-map", data.len());
        self.flat_map_coded_into(data, counts, |value, _, rank| f(value, rank), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Backend;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
            // Tiny blocks: every layout crosses many block boundaries.
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(4 * std::mem::size_of::<u64>()),
        ]
    }

    /// A little deterministic LCG so the sweeps need no external
    /// randomness.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_case(n: usize, seed: u64) -> (Segments, Vec<u32>) {
        if n == 0 {
            return (Segments::single(0), Vec::new());
        }
        let mut s = seed;
        let mut lengths = Vec::new();
        let mut total = 0usize;
        while total < n {
            let len = (lcg(&mut s) as usize % 13 + 1).min(n - total);
            lengths.push(len);
            total += len;
        }
        let seg = Segments::from_lengths(&lengths).unwrap();
        let counts = (0..n).map(|_| (lcg(&mut s) % 5) as u32).collect();
        (seg, counts)
    }

    /// Paper Figs. 13-14: clone elements a, d and g of [a..g].
    #[test]
    fn fig13_14_cloning() {
        for m in machines() {
            let data: Vec<char> = "abcdefg".chars().collect();
            let seg = Segments::single(7);
            let flags = vec![true, false, false, true, false, false, true];
            let layout = m.clone_layout(&seg, &flags);
            let out = m.apply(&data, &layout);
            assert_eq!(out, "aabcddefgg".chars().collect::<Vec<_>>());
            assert_eq!(layout.rank, vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 1]);
            assert_eq!(layout.seg.num_segments(), 1);
            assert_eq!(layout.seg.len(), 10);
            assert_eq!(layout.counts, vec![10]);
        }
    }

    #[test]
    fn cloning_respects_segments() {
        for m in machines() {
            let data = vec![1u32, 2, 3, 4];
            let seg = Segments::from_lengths(&[2, 2]).unwrap();
            // Clone the lane that starts the second segment.
            let flags = vec![false, false, true, false];
            let layout = m.clone_layout(&seg, &flags);
            let out = m.apply(&data, &layout);
            assert_eq!(out, vec![1, 2, 3, 3, 4]);
            assert_eq!(layout.seg.lengths(), vec![2, 3]);
            // The clone joins its original's segment, not a new one.
            assert_eq!(layout.seg.flags(), &[true, false, true, false, false]);
        }
    }

    #[test]
    fn cloning_nothing_is_identity() {
        for m in machines() {
            let data = vec![5i64, 6, 7];
            let seg = Segments::single(3);
            let layout = m.clone_layout(&seg, &[false, false, false]);
            assert_eq!(m.apply(&data, &layout), data);
            assert_eq!(layout.seg, seg);
        }
    }

    /// Paper Figs. 17-18: delete flagged duplicates from a sorted ordering.
    #[test]
    fn fig17_18_duplicate_deletion() {
        for m in machines() {
            // Sorted with duplicates: a a b c c c d e.
            let data: Vec<char> = "aabcccde".chars().collect();
            let seg = Segments::single(8);
            let (out, layout) = m.delete_duplicates(&data, &seg);
            assert_eq!(out, "abcde".chars().collect::<Vec<_>>());
            assert_eq!(layout.counts, vec![5]);
        }
    }

    #[test]
    fn delete_respects_segment_boundaries() {
        for m in machines() {
            // Equal keys across a segment boundary are NOT duplicates.
            let data = vec![1u32, 1, 1, 1];
            let seg = Segments::from_lengths(&[2, 2]).unwrap();
            let (out, layout) = m.delete_duplicates(&data, &seg);
            assert_eq!(out, vec![1, 1]);
            assert_eq!(layout.counts, vec![1, 1]);
        }
    }

    #[test]
    fn delete_layout_explicit_flags() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2, 3]).unwrap();
            let flags = vec![true, false, false, true, true];
            let layout = m.delete_layout(&seg, &flags);
            assert_eq!(layout.src_lane, vec![1, 2]);
            assert_eq!(layout.counts, vec![1, 1]);
            assert_eq!(layout.seg.lengths(), vec![1, 1]);
            let data = vec![10u32, 11, 12, 13, 14];
            assert_eq!(m.apply(&data, &layout), vec![11, 12]);
        }
    }

    #[test]
    fn uniform_fanout_four() {
        for m in machines() {
            let data = vec![10u32, 20, 30];
            let seg = Segments::single(3);
            let layout = m.fanout_layout(&seg, &[4u32, 4, 4]);
            assert_eq!(layout.len(), 12);
            let out = m.apply(&data, &layout);
            assert_eq!(out, vec![10, 10, 10, 10, 20, 20, 20, 20, 30, 30, 30, 30]);
            assert_eq!(layout.rank, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
            assert_eq!(layout.seg.num_segments(), 1);
        }
    }

    #[test]
    fn mixed_counts_including_zero() {
        for m in machines() {
            let data = vec!['a', 'b', 'c', 'd'];
            let seg = Segments::single(4);
            let layout = m.fanout_layout(&seg, &[2u32, 0, 1, 3]);
            let out = m.apply(&data, &layout);
            assert_eq!(out, vec!['a', 'a', 'c', 'd', 'd', 'd']);
            assert_eq!(layout.rank, vec![0, 1, 0, 0, 1, 2]);
        }
    }

    #[test]
    fn copies_join_source_segment() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2, 1]).unwrap();
            let layout = m.fanout_layout(&seg, &[1u32, 2, 2]);
            assert_eq!(layout.seg.lengths(), vec![3, 2]);
            assert_eq!(layout.src_lane, vec![0, 1, 1, 2, 2]);
            assert_eq!(layout.counts, vec![3, 2]);
        }
    }

    #[test]
    fn vanished_segment_is_dropped() {
        for m in machines() {
            let seg = Segments::from_lengths(&[1, 1, 1]).unwrap();
            let layout = m.fanout_layout(&seg, &[2u32, 0, 1]);
            assert_eq!(layout.seg.lengths(), vec![2, 1]);
            assert_eq!(layout.counts, vec![2, 0, 1]);
        }
    }

    #[test]
    fn zero_everything_is_empty() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2]).unwrap();
            let layout = m.fanout_layout(&seg, &[0u32, 0]);
            assert!(layout.is_empty());
            assert_eq!(layout.seg.len(), 0);
            let out = m.apply(&[1u8, 2], &layout);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn fanout_one_is_identity() {
        for m in machines() {
            let data = vec![7i64, 8, 9];
            let seg = Segments::from_lengths(&[1, 2]).unwrap();
            let layout = m.fanout_layout(&seg, &[1u32, 1, 1]);
            assert_eq!(m.apply(&data, &layout), data);
            assert_eq!(layout.seg, seg);
            assert_eq!(layout.rank, vec![0, 0, 0]);
        }
    }

    #[test]
    fn matches_two_adjacent_clonings() {
        // A uniform ×4 fan-out reorders lanes exactly like two successive
        // clone-everything passes.
        for m in machines() {
            let data: Vec<u32> = (0..9).collect();
            let seg = Segments::single(9);
            let fan = m.apply(&data, &m.fanout_layout(&seg, &[4u32; 9]));
            let all = vec![true; 9];
            let double = m.clone_layout(&seg, &all);
            let once = m.apply(&data, &double);
            let all2 = vec![true; once.len()];
            let quad = m.clone_layout(&double.seg, &all2);
            let twice = m.apply(&once, &quad);
            assert_eq!(fan, twice);
        }
    }

    /// The blocked parallel runs of the kernel are bit-identical to the
    /// one-block inline run, including at block-boundary sizes and with
    /// vanished segments spanning whole blocks.
    #[test]
    fn blocked_layout_matches_inline_at_block_boundaries() {
        let seq = Machine::sequential();
        for block_elems in [1usize, 8, 64] {
            let block_bytes = block_elems * std::mem::size_of::<u64>();
            let par = Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(block_bytes);
            for n in [
                block_elems.saturating_sub(1),
                block_elems,
                block_elems + 1,
                3 * block_elems,
                3 * block_elems + 1,
            ] {
                for seed in [1u64, 9, 77] {
                    let (seg, counts) = random_case(n, seed);
                    assert_eq!(
                        seq.fanout_layout(&seg, &counts),
                        par.fanout_layout(&seg, &counts),
                        "n={n} block={block_elems} seed={seed}"
                    );
                    let flags: Vec<bool> = counts.iter().map(|&c| c < 2).collect();
                    assert_eq!(
                        seq.clone_layout(&seg, &flags),
                        par.clone_layout(&seg, &flags),
                        "clone n={n} block={block_elems} seed={seed}"
                    );
                    assert_eq!(
                        seq.delete_layout(&seg, &flags),
                        par.delete_layout(&seg, &flags),
                        "delete n={n} block={block_elems} seed={seed}"
                    );
                }
            }
        }
    }

    /// Whole blocks of zero counts exercise the pending carry across
    /// invalid blocks (no survivor to absorb the flag).
    #[test]
    fn pending_flag_carries_across_empty_blocks() {
        let seq = Machine::sequential();
        let par = Machine::new(Backend::Parallel)
            .with_par_threshold(1)
            .with_block_bytes(4 * std::mem::size_of::<u64>());
        // Segments of length 3; lanes 4..=19 all vanish, so several
        // 4-lane blocks in the middle emit nothing and must forward
        // their segment-head flags.
        let n = 24;
        let seg = Segments::from_lengths(&[3; 8]).unwrap();
        let counts: Vec<u32> = (0..n).map(|i| u32::from(!(4..20).contains(&i))).collect();
        let a = seq.fanout_layout(&seg, &counts);
        let b = par.fanout_layout(&seg, &counts);
        assert_eq!(a, b);
        // All the vanished segments' boundaries collapse onto the next
        // survivor: lane 3 (head of segment 1) sits alone, lane 20
        // absorbs the five vanished heads in 4..20, and lane 21 starts
        // the last full segment.
        assert_eq!(a.seg.lengths(), vec![3, 1, 1, 3]);
        assert_eq!(a.counts, vec![3, 1, 0, 0, 0, 0, 1, 3]);
    }

    /// Every wrapper keeps the pinned paper-level operation counts of a
    /// single cloning — one scan, two elementwise ops, one permutation —
    /// and the same bytes on both backends; only the parallel backend
    /// counts a blocked pass.
    #[test]
    fn layout_op_counts_are_one_cloning() {
        let (seg, counts) = random_case(500, 3);
        let flags: Vec<bool> = counts.iter().map(|&c| c < 2).collect();
        type LayoutFn<'a> = Box<dyn Fn(&Machine) + 'a>;
        let cases: [(&str, LayoutFn); 3] = [
            ("clone", Box::new(|m| drop(m.clone_layout(&seg, &flags)))),
            ("delete", Box::new(|m| drop(m.delete_layout(&seg, &flags)))),
            ("fanout", Box::new(|m| drop(m.fanout_layout(&seg, &counts)))),
        ];
        for (name, run) in cases {
            let mut bytes = None;
            for m in machines() {
                let before = m.stats();
                run(&m);
                let d = m.stats().since(&before);
                assert_eq!(d.scans, 1, "{name}");
                assert_eq!(d.scan_passes, 1, "{name}");
                assert_eq!(d.elementwise, 2, "{name}");
                assert_eq!(d.permutes, 1, "{name}");
                assert_eq!(d.sorts, 0, "{name}");
                let blocked = u64::from(m.backend() == Backend::Parallel);
                assert_eq!(d.blocked_passes, blocked, "{name}: blocked passes");
                assert_eq!(*bytes.get_or_insert(d.bytes_moved), d.bytes_moved, "{name}");
            }
        }
    }

    #[test]
    fn apply_map_matches_gather_then_map() {
        for m in machines() {
            let (seg, counts) = random_case(300, 42);
            let data: Vec<u64> = (0..300u64).map(|i| i * 3 + 1).collect();
            let layout = m.fanout_layout(&seg, &counts);
            let gathered = m.apply(&data, &layout);
            let want: Vec<u64> = gathered
                .iter()
                .zip(layout.rank.iter())
                .map(|(&v, &r)| v * 10 + r as u64)
                .collect();
            let before = m.stats();
            let mut got = Vec::new();
            m.apply_map_into(&data, &layout, |v, r| v * 10 + r as u64, &mut got);
            let d = m.stats().since(&before);
            assert_eq!(got, want);
            // The fused apply is one permutation plus one elementwise op.
            assert_eq!(d.permutes, 1);
            assert_eq!(d.elementwise, 1);
            assert_eq!(d.scans, 0);
        }
    }

    /// The push form writes what the gather form gathers. (Counters and
    /// the edge sizes are `tests/properties.rs`'s.)
    #[test]
    fn flat_map_one_call_matches_composition() {
        for m in machines() {
            let (seg, counts) = random_case(100, 7);
            let data: Vec<u32> = (0..100u32).collect();
            let layout = m.fanout_layout(&seg, &counts);
            let mut want = Vec::new();
            m.apply_map_into(&data, &layout, |v, r| v + r, &mut want);
            let mut out = Vec::new();
            m.flat_map_into(&seg, &data, &counts, |v, r| v + r, &mut out);
            assert_eq!(out, want);
        }
    }

    /// The coded entry hands `f` each lane's code beside its rank.
    #[test]
    fn flat_map_coded_passes_the_code_to_every_copy() {
        for m in machines() {
            let data = vec!['a', 'b', 'c', 'd', 'e'];
            let codes = [2u8, 0, 1, 3, 0];
            let mut out = Vec::new();
            m.flat_map_coded_into(&data, &codes, |v, c, r| (v, c, r), &mut out);
            assert_eq!(
                out,
                vec![
                    ('a', 2, 0),
                    ('a', 2, 1),
                    ('c', 1, 0),
                    ('d', 3, 0),
                    ('d', 3, 1),
                    ('d', 3, 2)
                ]
            );
        }
    }

    #[test]
    fn flat_map_empty_output() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2]).unwrap();
            let mut out = vec![1u8];
            m.flat_map_into(&seg, &[5u8, 6], &[0, 0], |v, _| v, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "code lane has 2 lanes but the data 3")]
    fn flat_map_coded_rejects_a_short_code_lane() {
        let m = Machine::sequential();
        m.flat_map_coded_into(&[1u8, 2, 3], &[1u32, 1], |v, _, _| v, &mut Vec::new());
    }

    #[test]
    fn flat_map_into_reuses_warm_buffers() {
        let m = Machine::sequential();
        let (seg, counts) = random_case(64, 11);
        let data: Vec<u64> = (0..64).collect();
        let mut out: Vec<u64> = m.lease();
        m.flat_map_into(&seg, &data, &counts, |v, r| v + r as u64, &mut out);
        let cap = out.capacity();
        let before = m.stats();
        m.flat_map_into(&seg, &data, &counts, |v, r| v + r as u64, &mut out);
        let d = m.stats().since(&before);
        assert!(out.capacity() >= cap);
        assert!(d.allocs_avoided >= 1, "warm apply buffer was not reused");
        m.recycle(out);
    }

    /// In place equals fresh for a shrinking (forward sweep), a growing
    /// (backward sweep) and a mixed (arena ping-pong) layout, at one
    /// permutation plus one in-place reuse each.
    #[test]
    fn in_place_matches_fresh_for_every_motion() {
        for m in machines() {
            for n in [0usize, 1, 5, 100] {
                let (seg, counts) = random_case(n, 11 + n as u64);
                let flags: Vec<bool> = counts.iter().map(|&c| c < 2).collect();
                let grow: Vec<u32> = counts.iter().map(|&c| c + 1).collect();
                let layouts = [
                    (Motion::Leftward, m.delete_layout(&seg, &flags)),
                    (Motion::Rightward, m.clone_layout(&seg, &flags)),
                    (Motion::Rightward, m.fanout_layout(&seg, &grow)),
                    (Motion::Mixed, m.fanout_layout(&seg, &counts)),
                ];
                for (motion, layout) in layouts {
                    if n >= 100 {
                        assert_eq!(layout.motion, motion, "n={n}");
                    }
                    let data: Vec<i64> = (0..n as i64).map(|i| 3 * i - 7).collect();
                    let expect = m.apply(&data, &layout);
                    let before = m.stats();
                    let mut in_place = data.clone();
                    m.apply_in_place(&mut in_place, &layout);
                    let d = m.stats().since(&before);
                    assert_eq!(in_place, expect, "n={n} {motion:?}");
                    assert_eq!(d.permutes, 1);
                    assert_eq!(d.inplace_reuses, 1);
                    assert_eq!(d.bytes_moved, 8 * layout.len() as u64);
                }
            }
        }
    }

    /// The mixed-motion apply hands its displaced storage back to the
    /// arena: the next lease finds a warm slab instead of allocating.
    #[test]
    fn mixed_in_place_recycles_displaced_storage() {
        let m = Machine::sequential();
        let data: Vec<u64> = (0..20).collect();
        let copies: Vec<u32> = (0..20).map(|i| (i % 4) as u32).collect();
        let layout = m.fanout_layout(&Segments::single(20), &copies);
        let mut in_place = data.clone();
        m.apply_in_place(&mut in_place, &layout);
        assert_eq!(in_place, m.apply(&data, &layout));
        let leased: Vec<u64> = m.lease();
        assert!(
            leased.capacity() >= data.len(),
            "displaced storage was not recycled"
        );
        m.recycle(leased);
    }

    // A layout records the input length it was computed for, and every
    // destination refuses data of another length (the in-place applies
    // used to resize a short vector with a fill value, or truncate a long
    // one, and gather garbage).

    fn layout_for_five(m: &Machine) -> (Layout, Layout) {
        let seg = Segments::single(5);
        let flags = [true, false, true, false, false];
        (m.clone_layout(&seg, &flags), m.delete_layout(&seg, &flags))
    }

    #[test]
    #[should_panic(expected = "the layout was computed for 5")]
    fn apply_rejects_wrong_input_length() {
        let m = Machine::sequential();
        let _ = m.apply(&[1u8, 2, 3, 4, 5, 6], &layout_for_five(&m).1);
    }

    #[test]
    #[should_panic(expected = "the layout was computed for 5")]
    fn apply_into_rejects_wrong_input_length() {
        let m = Machine::sequential();
        m.apply_into(
            &[1u8, 2, 3, 4, 5, 6],
            &layout_for_five(&m).0,
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "the layout was computed for 5")]
    fn growing_in_place_rejects_short_data() {
        let m = Machine::sequential();
        m.apply_in_place(&mut vec![1u8, 2, 3], &layout_for_five(&m).0);
    }

    #[test]
    #[should_panic(expected = "the layout was computed for 5")]
    fn shrinking_in_place_rejects_long_data() {
        let m = Machine::sequential();
        m.apply_in_place(&mut vec![1u8, 2, 3, 4, 5, 6, 7], &layout_for_five(&m).1);
    }

    #[test]
    #[should_panic(expected = "the layout was computed for 5")]
    fn apply_map_rejects_wrong_input_length() {
        let m = Machine::sequential();
        m.apply_map_into(
            &[1u8, 2, 3, 4, 5, 6],
            &layout_for_five(&m).0,
            |v, _| v,
            &mut Vec::new(),
        );
    }
}
