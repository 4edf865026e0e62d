//! The vector machine: backend selection plus primitive-operation counters.
//!
//! [`Machine`] is the single entry point through which the spatial
//! algorithms issue primitive operations. It plays the role of the CM-5 in
//! the paper: the algorithms above it are written purely in terms of scans,
//! elementwise operations and permutations, and the machine decides how to
//! execute them (sequential reference backend, or rayon data-parallel
//! blocked execution) and counts them.
//!
//! The counters matter for the reproduction: the paper's complexity claims
//! are phrased in *numbers of primitive operations per construction stage*
//! ("a constant number of scans, clonings, and un-shuffles", Sec. 5.1), so
//! `EXPERIMENTS.md` verifies them by reading [`OpStats`] snapshots rather
//! than wall-clock time alone.

use crate::arena::ScratchArena;
use crate::blocked;
use crate::fault::{FaultPlan, FaultSite};
use crate::fused::{FusedElement, FusedOp};
use crate::ops::{CombineOp, Element};
use crate::permute::{permute_par_into, permute_seq_into};
use crate::scan::{Direction, ScanKind};
use crate::scatter::SyncPtr;
use crate::vector::Segments;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default minimum vector length before the parallel backend engages;
/// below this a primitive runs inline even on the parallel backend.
/// Lowered from 4096 once the rayon shim gained a persistent worker pool:
/// dispatch now costs a queue push instead of per-call thread spawns, so
/// smaller vectors amortize it.
pub const PAR_THRESHOLD: usize = 2048;

/// Fewest lanes a blocked elementwise walk deals to one worker: below
/// two of these a walk stays on the caller. Measured on the quadtree
/// builds, whose passes range from a byte copy to two clips per lane:
/// dealing a 3,000-segment PM₁ build's passes to two workers costs it
/// 12 %, keeping a 20,000-segment bucket-PMR build's on one costs 40 %.
pub const MIN_WORKER_SHARE: usize = 4 * PAR_THRESHOLD;

/// Execution backend for primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Every primitive executes on the calling thread — the same kernels
    /// as the parallel backend, run by one worker that never touches the
    /// pool.
    Sequential,
    /// Primitives over vectors longer than the machine's parallel threshold
    /// execute on the rayon thread pool. Results are bit-identical to the
    /// sequential backend.
    #[default]
    Parallel,
}

/// Monotonic counters of primitive operations issued through a [`Machine`].
#[derive(Debug, Default)]
pub struct OpStats {
    scans: AtomicU64,
    elementwise: AtomicU64,
    permutes: AtomicU64,
    sorts: AtomicU64,
    rounds: AtomicU64,
    scan_passes: AtomicU64,
    fused_lanes_saved: AtomicU64,
    allocs_avoided: AtomicU64,
    blocked_passes: AtomicU64,
    bytes_moved: AtomicU64,
    inplace_reuses: AtomicU64,
}

/// A point-in-time copy of [`OpStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Segmented or unsegmented scan operations (a fused K-lane scan counts
    /// as K — the paper-level operation count is unchanged by fusion).
    pub scans: u64,
    /// Elementwise (map / zip-map) operations.
    pub elementwise: u64,
    /// Permutation / gather operations.
    pub permutes: u64,
    /// Segmented sort operations (each counts once, regardless of length).
    pub sorts: u64,
    /// Algorithm-level iteration rounds recorded via [`Machine::bump_rounds`].
    pub rounds: u64,
    /// Physical passes over the segment structure: one per unfused scan,
    /// one per [`Machine::scan_lanes`] call regardless of lane count. This
    /// is the quantity fusion lowers (`scan_passes <= scans` always).
    pub scan_passes: u64,
    /// Extra passes avoided by fusion: a K-lane fused scan adds `K - 1`.
    /// Invariant: `scans == scan_passes + fused_lanes_saved`.
    pub fused_lanes_saved: u64,
    /// `_into`-variant calls served by a buffer whose capacity already
    /// covered the output (no heap allocation took place).
    pub allocs_avoided: u64,
    /// Kernel passes the parallel backend dealt to the pool in cache
    /// blocks ([`crate::blocked`]). Backend-dependent by construction:
    /// the sequential backend runs every kernel as one inline sweep, so
    /// this stays zero there.
    pub blocked_passes: u64,
    /// Output bytes the machine's primitives wrote (scans, maps,
    /// permutes, gathers, in-place applies) — the memory-traffic side of
    /// the op counts. Counted pre-dispatch from vector lengths, so
    /// sequential and parallel machines running the same algorithm
    /// report the same value.
    pub bytes_moved: u64,
    /// In-place / ping-pong primitive applications that reused the input
    /// buffer (or a single leased slab) instead of allocating a fresh
    /// output vector.
    pub inplace_reuses: u64,
}

impl StatsSnapshot {
    /// Total primitive operations (excluding `rounds`, which is a
    /// higher-level marker, not a machine primitive).
    pub fn total_primitives(&self) -> u64 {
        self.scans + self.elementwise + self.permutes + self.sorts
    }

    /// Lane-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            scans: self.scans - earlier.scans,
            elementwise: self.elementwise - earlier.elementwise,
            permutes: self.permutes - earlier.permutes,
            sorts: self.sorts - earlier.sorts,
            rounds: self.rounds - earlier.rounds,
            scan_passes: self.scan_passes - earlier.scan_passes,
            fused_lanes_saved: self.fused_lanes_saved - earlier.fused_lanes_saved,
            allocs_avoided: self.allocs_avoided - earlier.allocs_avoided,
            blocked_passes: self.blocked_passes - earlier.blocked_passes,
            bytes_moved: self.bytes_moved - earlier.bytes_moved,
            inplace_reuses: self.inplace_reuses - earlier.inplace_reuses,
        }
    }
}

/// Width in bytes of the wider of two lane types: what an elementwise
/// pass reading one and writing the other is blocked by.
pub(crate) fn widest<A, B>() -> usize {
    std::mem::size_of::<A>().max(std::mem::size_of::<B>())
}

/// Exact-fit reservation for a reused output buffer: clear it and, if its
/// capacity falls short of `n`, reserve to exactly `n` slots. The
/// `*_into` primitives call this before filling so a recycled arena
/// buffer is never grown by `Vec`'s amortized doubling — without it a
/// buffer serving `n` lanes can stay pinned at up to `2n` capacity,
/// which showed up as tens of megabytes of overhang on the bucket-PMR
/// build's arena peak.
pub(crate) fn fit_exact<T>(out: &mut Vec<T>, n: usize) {
    out.clear();
    if out.capacity() < n {
        out.reserve_exact(n);
    }
}

/// Structured telemetry for one step of a round-driven build loop.
///
/// Recorded by the `RoundDriver` in `dp-core` via
/// [`Machine::record_round_trace`]: each step captures the frontier shape
/// before the step, how many nodes split, the *delta* of the machine's
/// physical counters across the step, the arena high-water mark, and wall
/// time. Consumers (the service's per-shard build logs, `dpbench`'s
/// traced runs) drain the buffer with [`Machine::take_round_traces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// Driver step index within one build (for the quadtree builders one
    /// step is one subdivision round; for the R-tree one step is one
    /// height-level pass of the bottom-up overflow sweep).
    pub round: usize,
    /// Active (segment, node)-pair elements entering the step.
    pub active_elements: usize,
    /// Active frontier nodes entering the step.
    pub active_nodes: usize,
    /// Nodes the policy decided to split this step.
    pub nodes_split: usize,
    /// Paper-level scan operations issued during the step.
    pub scans: u64,
    /// Physical scan passes issued during the step (`<= scans` with
    /// fusion).
    pub scan_passes: u64,
    /// Elementwise operations issued during the step.
    pub elementwise: u64,
    /// Permutation / gather operations issued during the step.
    pub permutes: u64,
    /// Arena high-water mark (peak retained + leased bytes) after the
    /// step.
    pub arena_high_water_bytes: usize,
    /// Wall time of the step in nanoseconds.
    pub wall_nanos: u64,
    /// Cache-blocked scan passes issued during the step (zero on the
    /// sequential backend).
    pub blocked_passes: u64,
    /// Output bytes written by primitives during the step.
    pub bytes_moved: u64,
    /// In-place / ping-pong primitive applications during the step.
    pub inplace_reuses: u64,
    /// The machine's block byte budget (constant per machine; see
    /// [`crate::blocked::tuned_block_bytes`]), logged so a trace records
    /// which block size produced it.
    pub block_bytes: usize,
}

/// Upper bound on buffered [`RoundTrace`] records per machine; steps past
/// the cap are silently dropped (builds are O(log n) rounds, so the cap is
/// only a runaway backstop).
pub const MAX_ROUND_TRACES: usize = 4096;

/// The software vector machine. Cheap to share by reference; counter state
/// is interior-mutable atomics, the scratch arena and round-trace buffer
/// sit behind their own locks.
#[derive(Debug)]
pub struct Machine {
    backend: Backend,
    par_threshold: usize,
    /// Worker-pool width, read once at construction so the blocked
    /// kernels do not re-query it on every primitive.
    threads: usize,
    /// Block byte budget for the cache-blocked kernels: the process-wide
    /// tuned value ([`crate::blocked::tuned_block_bytes`]) unless
    /// overridden via [`Machine::with_block_bytes`].
    block_bytes: usize,
    stats: OpStats,
    scratch: Mutex<ScratchArena>,
    traces: Mutex<Vec<RoundTrace>>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(Backend::default())
    }
}

impl Machine {
    /// A machine with the given backend and the default parallel threshold.
    pub fn new(backend: Backend) -> Self {
        Machine {
            backend,
            par_threshold: PAR_THRESHOLD,
            threads: rayon::current_num_threads().max(1),
            block_bytes: blocked::tuned_block_bytes(),
            stats: OpStats::default(),
            scratch: Mutex::new(ScratchArena::new()),
            traces: Mutex::new(Vec::new()),
            fault_plan: None,
        }
    }

    /// A sequential reference machine.
    pub fn sequential() -> Self {
        Machine::new(Backend::Sequential)
    }

    /// A parallel machine using the global rayon pool.
    pub fn parallel() -> Self {
        Machine::new(Backend::Parallel)
    }

    /// Overrides the minimum vector length at which the parallel backend
    /// engages (useful to force parallel paths in tests).
    pub fn with_par_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = threshold;
        self
    }

    /// Overrides the cache-block byte budget (useful to force tiny
    /// blocks in tests). Defaults to the process-wide tuned value; see
    /// [`crate::blocked::tuned_block_bytes`] and the `DP_BLOCK` env var.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        self.block_bytes = block_bytes.max(1);
        self
    }

    /// The machine's cache-block byte budget.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Attaches a [`FaultPlan`] consulted at the machine's fault sites
    /// (arena pressure at round boundaries via [`Machine::bump_rounds`],
    /// plus any site checked through [`Machine::check_fault`]). Machines
    /// without a plan skip all checks.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub(crate) fn use_par(&self, n: usize) -> bool {
        self.backend == Backend::Parallel && n >= self.par_threshold
    }

    /// The pool width a blocked scan over `n` lanes may use, counting the
    /// blocked pass when the parallel backend engages; `0` keeps the walk
    /// inline and off the pool (see [`blocked::scan_blocked_into`]).
    fn scan_workers(&self, n: usize) -> usize {
        if self.use_par(n) {
            self.count_blocked_pass();
            self.threads
        } else {
            0
        }
    }

    /// The one blocked elementwise walk: cuts `K` equally long buffers into
    /// aligned blocks and hands `body` each block's first lane and its `K`
    /// sub-slices — disjoint cache blocks on the pool once the parallel
    /// backend engages, the whole buffers in one inline call otherwise.
    /// `lane_bytes` is the width of the widest lane `body` touches, read
    /// or written ([`widest`]): the written buffers alone undersize the
    /// blocks of a narrow output computed from wider inputs. And a block
    /// never exceeds an even share of the lanes per worker (down to
    /// [`MIN_WORKER_SHARE`]): an elementwise body revisits nothing, so
    /// the cache budget is only an upper bound, and a pass that fits one
    /// budget-sized block would otherwise run on one worker however much
    /// it computes per lane.
    /// (`T` may be `MaybeUninit<_>`: a fill writes a vector's spare
    /// capacity and sets its length afterwards.)
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub(crate) fn for_each_block_of<T, F, const K: usize>(
        &self,
        lane_bytes: usize,
        lanes: [&mut [T]; K],
        body: F,
    ) where
        T: Send,
        F: Fn(usize, [&mut [T]; K]) + Sync,
    {
        let n = lanes.first().map_or(0, |lane| lane.len());
        assert!(
            lanes.iter().all(|lane| lane.len() == n),
            "elementwise: output buffers differ in length"
        );
        let bases = lanes.map(|lane| SyncPtr(lane.as_mut_ptr()));
        let block = self.one_pass_block(n, lane_bytes);
        blocked::for_each_block(self.use_par(n), n, block, |lo, hi| {
            // SAFETY: blocks are disjoint, so every sub-slice is handed to
            // exactly one worker, and `lo..hi` lies within each buffer
            // (all `n` long, exclusively borrowed for this call).
            body(
                lo,
                std::array::from_fn(|l| unsafe {
                    std::slice::from_raw_parts_mut(bases[l].get().add(lo), hi - lo)
                }),
            );
        });
    }

    /// The block length of a pass over `n` lanes that revisits nothing
    /// (the elementwise walks, the segmented reduce): each worker's even
    /// share (down to [`MIN_WORKER_SHARE`]) cut evenly into blocks within
    /// the cache budget for `lane_bytes`-wide lanes. (Capping the share at
    /// the budget instead left a remainder block: 148k lanes in 64k-lane
    /// blocks went to two workers as 2 + 1 blocks.)
    fn one_pass_block(&self, n: usize, lane_bytes: usize) -> usize {
        let share = n.div_ceil(self.threads).max(MIN_WORKER_SHARE);
        let budget = blocked::block_elems_of(self.block_bytes, lane_bytes);
        share.div_ceil(share.div_ceil(budget))
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            scans: self.stats.scans.load(Ordering::Relaxed),
            elementwise: self.stats.elementwise.load(Ordering::Relaxed),
            permutes: self.stats.permutes.load(Ordering::Relaxed),
            sorts: self.stats.sorts.load(Ordering::Relaxed),
            rounds: self.stats.rounds.load(Ordering::Relaxed),
            scan_passes: self.stats.scan_passes.load(Ordering::Relaxed),
            fused_lanes_saved: self.stats.fused_lanes_saved.load(Ordering::Relaxed),
            allocs_avoided: self.stats.allocs_avoided.load(Ordering::Relaxed),
            blocked_passes: self.stats.blocked_passes.load(Ordering::Relaxed),
            bytes_moved: self.stats.bytes_moved.load(Ordering::Relaxed),
            inplace_reuses: self.stats.inplace_reuses.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero and clears the round-trace buffer.
    pub fn reset_stats(&self) {
        self.stats.scans.store(0, Ordering::Relaxed);
        self.stats.elementwise.store(0, Ordering::Relaxed);
        self.stats.permutes.store(0, Ordering::Relaxed);
        self.stats.sorts.store(0, Ordering::Relaxed);
        self.stats.rounds.store(0, Ordering::Relaxed);
        self.stats.scan_passes.store(0, Ordering::Relaxed);
        self.stats.fused_lanes_saved.store(0, Ordering::Relaxed);
        self.stats.allocs_avoided.store(0, Ordering::Relaxed);
        self.stats.blocked_passes.store(0, Ordering::Relaxed);
        self.stats.bytes_moved.store(0, Ordering::Relaxed);
        self.stats.inplace_reuses.store(0, Ordering::Relaxed);
        self.traces.lock().expect("machine traces poisoned").clear();
    }

    // ------------------------------------------------------------------
    // Round traces
    // ------------------------------------------------------------------

    /// The [`RoundTrace`] of a step that began at `started` with the
    /// counters at `before`: the counter delta since then, the wall time,
    /// and the machine's arena high-water mark and block budget as of
    /// now. The one place a trace row is assembled — the round driver and
    /// the dominance rounds both record through it.
    pub fn round_trace_since(
        &self,
        before: &StatsSnapshot,
        started: Instant,
        round: usize,
        active_elements: usize,
        active_nodes: usize,
        nodes_split: usize,
    ) -> RoundTrace {
        let delta = self.stats().since(before);
        RoundTrace {
            round,
            active_elements,
            active_nodes,
            nodes_split,
            scans: delta.scans,
            scan_passes: delta.scan_passes,
            elementwise: delta.elementwise,
            permutes: delta.permutes,
            arena_high_water_bytes: self.arena_high_water_bytes(),
            wall_nanos: started.elapsed().as_nanos() as u64,
            blocked_passes: delta.blocked_passes,
            bytes_moved: delta.bytes_moved,
            inplace_reuses: delta.inplace_reuses,
            block_bytes: self.block_bytes(),
        }
    }

    /// Appends one [`RoundTrace`] record (drops it silently once
    /// [`MAX_ROUND_TRACES`] records are buffered). Purely observational:
    /// no operation counter changes.
    pub fn record_round_trace(&self, trace: RoundTrace) {
        let mut traces = self.traces.lock().expect("machine traces poisoned");
        if traces.len() < MAX_ROUND_TRACES {
            traces.push(trace);
        }
    }

    /// Drains and returns the buffered round traces.
    pub fn take_round_traces(&self) -> Vec<RoundTrace> {
        std::mem::take(&mut *self.traces.lock().expect("machine traces poisoned"))
    }

    // ------------------------------------------------------------------
    // Scratch arena
    // ------------------------------------------------------------------

    /// Leases an empty scratch `Vec<T>` from the machine's arena, reusing
    /// pooled capacity when available. Pair with [`Machine::recycle`].
    pub fn lease<T: Send + 'static>(&self) -> Vec<T> {
        self.scratch.lock().expect("machine arena poisoned").take()
    }

    /// Returns a scratch buffer to the arena for later reuse.
    pub fn recycle<T: Send + 'static>(&self, buf: Vec<T>) {
        self.scratch
            .lock()
            .expect("machine arena poisoned")
            .put(buf);
    }

    /// `(takes, reuse hits)` of the machine's scratch arena.
    pub fn arena_stats(&self) -> (u64, u64) {
        self.scratch
            .lock()
            .expect("machine arena poisoned")
            .reuse_stats()
    }

    /// Lifetime peak of bytes retained by the machine's scratch arena.
    pub fn arena_high_water_bytes(&self) -> usize {
        self.scratch
            .lock()
            .expect("machine arena poisoned")
            .high_water_bytes()
    }

    /// Records that an `_into` primitive reused a warm buffer. Counted
    /// centrally from the output buffer's pre-call capacity, *before*
    /// backend dispatch, so sequential and parallel machines running the
    /// same algorithm report identical snapshots.
    pub(crate) fn note_alloc_avoided(&self, capacity: usize, needed: usize) {
        if needed > 0 && capacity >= needed {
            self.stats.allocs_avoided.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one algorithm-level round (a subdivision stage in the build
    /// algorithms of paper Section 5) and runs the scratch arena's
    /// end-of-round decay (see [`ScratchArena::decay`]), so a pathological
    /// round's peak buffers are released within a few subsequent rounds.
    pub fn bump_rounds(&self) {
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.scratch.lock().expect("machine arena poisoned");
        // The arena-overflow fault site lives at the round boundary: the
        // plan can clamp the arena to its minimum cap and evict everything,
        // simulating a pathological round's memory pressure. Recoverable by
        // construction — subsequent leases just re-allocate.
        if let Some(plan) = &self.fault_plan {
            if plan.should_fire(FaultSite::ArenaOverflow).is_some() {
                scratch.inject_pressure();
            }
        }
        scratch.decay();
    }

    /// Records one elementwise operation performed by composite-algorithm
    /// code outside the machine's own `map`/`zip_map` (e.g. a fused
    /// multi-input classification pass). Keeps the op accounting honest
    /// when an algorithm implements a paper-level elementwise step as a
    /// plain loop over more than two vectors.
    pub fn note_elementwise(&self) {
        self.count_elementwise();
    }

    /// Records one scan operation performed outside the machine (see
    /// [`Machine::note_elementwise`]).
    pub fn note_scan(&self) {
        self.count_scan();
    }

    /// Records one permutation performed outside the machine (see
    /// [`Machine::note_elementwise`]).
    pub fn note_permute(&self) {
        self.count_permute();
    }

    pub(crate) fn count_scan(&self) {
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        self.stats.scan_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// A K-lane fused scan is K paper-level scans in one physical pass.
    fn count_fused_scan(&self, lanes: u64) {
        self.stats.scans.fetch_add(lanes, Ordering::Relaxed);
        self.stats.scan_passes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .fused_lanes_saved
            .fetch_add(lanes.saturating_sub(1), Ordering::Relaxed);
    }

    pub(crate) fn count_elementwise(&self) {
        self.stats.elementwise.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_permute(&self) {
        self.stats.permutes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_sort(&self) {
        self.stats.sorts.fetch_add(1, Ordering::Relaxed);
    }

    /// One pass executed by a cache-blocked kernel.
    pub(crate) fn count_blocked_pass(&self) {
        self.stats.blocked_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Output bytes a primitive wrote, counted pre-dispatch so both
    /// backends report the same value for the same algorithm.
    pub(crate) fn count_bytes_moved(&self, bytes: usize) {
        self.stats
            .bytes_moved
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// One primitive application that wrote through its input buffer (or
    /// a single ping-pong slab) instead of a fresh output vector.
    pub(crate) fn count_inplace_reuse(&self) {
        self.stats.inplace_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// The block size, in elements of `T`, the blocked kernels use on
    /// this machine.
    pub(crate) fn block_elems<T>(&self) -> usize {
        blocked::block_elems::<T>(self.block_bytes)
    }

    // ------------------------------------------------------------------
    // Scan primitives (paper Sec. 3.2.1)
    // ------------------------------------------------------------------

    /// Segmented scan in either direction.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seg.len()`.
    pub fn scan<T, O>(
        &self,
        data: &[T],
        seg: &Segments,
        op: O,
        dir: Direction,
        kind: ScanKind,
    ) -> Vec<T>
    where
        T: Element,
        O: CombineOp<T>,
    {
        let mut out = Vec::new();
        self.scan_into(data, seg, op, dir, kind, &mut out);
        out
    }

    /// Segmented scan into a caller-provided buffer (cleared first). Lease
    /// the buffer from [`Machine::lease`] and the steady-state call is
    /// allocation-free; bit-identical to [`Machine::scan`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seg.len()`.
    pub fn scan_into<T, O>(
        &self,
        data: &[T],
        seg: &Segments,
        op: O,
        dir: Direction,
        kind: ScanKind,
        out: &mut Vec<T>,
    ) where
        T: Element,
        O: CombineOp<T>,
    {
        self.count_scan();
        self.note_alloc_avoided(out.capacity(), data.len());
        self.count_bytes_moved(std::mem::size_of_val(data));
        fit_exact(out, data.len());
        blocked::scan_blocked_into(
            data,
            seg,
            op,
            dir,
            kind,
            self.block_elems::<T>(),
            self.scan_workers(data.len()),
            out,
        );
    }

    /// Fused multi-lane segmented scan: runs every `(data, op)` lane — all
    /// sharing `seg`, `dir` and `kind` — in a **single pass** over the
    /// segment structure. Counts as `lanes.len()` paper-level scans but
    /// only one physical pass (see [`StatsSnapshot::fused_lanes_saved`]).
    /// Each returned vector is bit-identical to the corresponding
    /// [`Machine::scan`] call.
    ///
    /// # Panics
    ///
    /// Panics if any lane's length differs from `seg.len()`.
    pub fn scan_lanes<T: FusedElement>(
        &self,
        lanes: &[(&[T], FusedOp)],
        seg: &Segments,
        dir: Direction,
        kind: ScanKind,
    ) -> Vec<Vec<T>> {
        let mut outs: Vec<Vec<T>> = (0..lanes.len()).map(|_| Vec::new()).collect();
        self.scan_lanes_into(lanes, seg, dir, kind, &mut outs);
        outs
    }

    /// [`Machine::scan_lanes`] into caller-provided buffers (cleared
    /// first); `outs.len()` must equal `lanes.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() != outs.len()` or any lane's length differs
    /// from `seg.len()`.
    pub fn scan_lanes_into<T: FusedElement>(
        &self,
        lanes: &[(&[T], FusedOp)],
        seg: &Segments,
        dir: Direction,
        kind: ScanKind,
        outs: &mut [Vec<T>],
    ) {
        self.count_fused_scan(lanes.len() as u64);
        for out in outs.iter_mut() {
            self.note_alloc_avoided(out.capacity(), seg.len());
            fit_exact(out, seg.len());
        }
        self.count_bytes_moved(lanes.len() * seg.len() * std::mem::size_of::<T>());
        blocked::scan_lanes_blocked_into(
            lanes,
            seg,
            dir,
            kind,
            self.block_elems::<T>(),
            self.scan_workers(seg.len()),
            outs,
        );
    }

    /// Upward segmented scan (convenience over [`Machine::scan`]).
    pub fn up_scan_seg<T, O>(&self, data: &[T], seg: &Segments, op: O, kind: ScanKind) -> Vec<T>
    where
        T: Element,
        O: CombineOp<T>,
    {
        self.scan(data, seg, op, Direction::Up, kind)
    }

    /// Downward segmented scan (convenience over [`Machine::scan`]).
    pub fn down_scan_seg<T, O>(&self, data: &[T], seg: &Segments, op: O, kind: ScanKind) -> Vec<T>
    where
        T: Element,
        O: CombineOp<T>,
    {
        self.scan(data, seg, op, Direction::Down, kind)
    }

    /// Unsegmented upward scan over the whole vector.
    pub fn up_scan<T, O>(&self, data: &[T], op: O, kind: ScanKind) -> Vec<T>
    where
        T: Element,
        O: CombineOp<T>,
    {
        self.scan(data, &Segments::single(data.len()), op, Direction::Up, kind)
    }

    // ------------------------------------------------------------------
    // Elementwise primitives (paper Sec. 3.2.2)
    // ------------------------------------------------------------------

    /// Unary elementwise map.
    pub fn map<T, U, F>(&self, data: &[T], f: F) -> Vec<U>
    where
        T: Element,
        U: Element,
        F: Fn(T) -> U + Send + Sync,
    {
        let mut out = Vec::new();
        self.map_into(data, f, &mut out);
        out
    }

    /// Unary elementwise map into a caller-provided buffer (cleared first).
    pub fn map_into<T, U, F>(&self, data: &[T], f: F, out: &mut Vec<U>)
    where
        T: Element,
        U: Element,
        F: Fn(T) -> U + Send + Sync,
    {
        self.count_elementwise();
        self.note_alloc_avoided(out.capacity(), data.len());
        self.count_bytes_moved(data.len() * std::mem::size_of::<U>());
        fit_exact(out, data.len());
        if self.use_par(data.len()) {
            data.par_iter().map(|&x| f(x)).collect_into_vec(out);
        } else {
            out.clear();
            out.extend(data.iter().map(|&x| f(x)));
        }
    }

    /// Binary elementwise map (paper Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn zip_map<A, B, U, F>(&self, a: &[A], b: &[B], f: F) -> Vec<U>
    where
        A: Element,
        B: Element,
        U: Element,
        F: Fn(A, B) -> U + Send + Sync,
    {
        let mut out = Vec::new();
        self.zip_map_into(a, b, f, &mut out);
        out
    }

    /// Binary elementwise map into a caller-provided buffer (cleared
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn zip_map_into<A, B, U, F>(&self, a: &[A], b: &[B], f: F, out: &mut Vec<U>)
    where
        A: Element,
        B: Element,
        U: Element,
        F: Fn(A, B) -> U + Send + Sync,
    {
        self.count_elementwise();
        self.note_alloc_avoided(out.capacity(), a.len());
        self.count_bytes_moved(a.len() * std::mem::size_of::<U>());
        assert_eq!(
            a.len(),
            b.len(),
            "elementwise: vector lengths {} and {} differ",
            a.len(),
            b.len()
        );
        fit_exact(out, a.len());
        if self.use_par(a.len()) {
            a.par_iter()
                .zip(b.par_iter())
                .map(|(&x, &y)| f(x, y))
                .collect_into_vec(out);
        } else {
            out.clear();
            out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)));
        }
    }

    /// Unary elementwise map **in place**: every lane is overwritten with
    /// `f(lane)`, with no output buffer. On the parallel backend the sweep
    /// runs over disjoint cache-sized blocks. Counts as one elementwise
    /// op plus one in-place reuse.
    pub fn map_in_place<T, F>(&self, data: &mut [T], f: F)
    where
        T: Element,
        F: Fn(T) -> T + Send + Sync,
    {
        self.count_elementwise();
        self.count_bytes_moved(std::mem::size_of_val(data));
        self.count_inplace_reuse();
        self.for_each_block_of(std::mem::size_of::<T>(), [data], |_, [block]| {
            for x in block {
                *x = f(*x);
            }
        });
    }

    /// Binary elementwise map **in place**: lane `i` of `data` becomes
    /// `f(data[i], other[i])` — the in-place form of
    /// [`Machine::zip_map_into`] for steps that fold a second vector into
    /// an existing one. Counts as one elementwise op plus one in-place
    /// reuse.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn zip_map_in_place<T, B, F>(&self, data: &mut [T], other: &[B], f: F)
    where
        T: Element,
        B: Element,
        F: Fn(T, B) -> T + Send + Sync,
    {
        assert_eq!(
            data.len(),
            other.len(),
            "elementwise: vector lengths {} and {} differ",
            data.len(),
            other.len()
        );
        self.count_elementwise();
        self.count_bytes_moved(std::mem::size_of_val(data));
        self.count_inplace_reuse();
        self.for_each_block_of(widest::<T, B>(), [data], |lo, [block]| {
            for (x, &y) in block.iter_mut().zip(&other[lo..]) {
                *x = f(*x, y);
            }
        });
    }

    /// Fused multi-lane elementwise fill: evaluates `f(i)` once per index
    /// and writes its K results into K caller-provided buffers (cleared
    /// first) in a single pass — the elementwise analogue of
    /// [`Machine::scan_lanes_into`], for steps that derive several scan
    /// input lanes from one shared computation (e.g. the R-tree sweep's
    /// four bounding-box extents). Counts as one elementwise operation.
    pub fn fill_lanes_into<T, F, const K: usize>(&self, n: usize, f: F, outs: &mut [Vec<T>; K])
    where
        T: Element,
        F: Fn(usize) -> [T; K] + Sync,
    {
        self.fill_blocks(n, std::mem::size_of::<T>(), outs, |lo, mut blocks| {
            for k in 0..blocks[0].len() {
                for (block, v) in blocks.iter_mut().zip(f(lo + k)) {
                    block[k].write(v);
                }
            }
        });
    }

    /// Segment-aware fused elementwise map: lane `i` of the K outputs
    /// (cleared first) is `f(s, data[i])`, where `s` is the index of the
    /// segment lane `i` lies in — so a step whose per-lane computation
    /// depends on per-*segment* state (the quadtree builds' node block)
    /// reads that state from an `s`-indexed table instead of carrying a
    /// copy of it in every lane. The walk resolves its segment once per
    /// block ([`Segments::segment_of`]) and then advances along the
    /// segment starts, so the index costs no per-lane search and no
    /// materialized id vector. Counts as one elementwise operation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seg.len()`.
    pub fn seg_map_lanes_into<A, T, F, const K: usize>(
        &self,
        data: &[A],
        seg: &Segments,
        f: F,
        outs: &mut [Vec<T>; K],
    ) where
        A: Element,
        T: Element,
        F: Fn(usize, A) -> [T; K] + Sync,
    {
        seg.expect_lane("segment map", data.len());
        let starts = seg.starts();
        self.fill_blocks(data.len(), widest::<A, T>(), outs, |lo, mut blocks| {
            let hi = lo + blocks[0].len();
            let mut s = seg.segment_of(lo);
            let mut at = lo;
            while at < hi {
                let run_end = starts.get(s + 1).map_or(hi, |&next| next.min(hi));
                for i in at..run_end {
                    for (block, v) in blocks.iter_mut().zip(f(s, data[i])) {
                        block[i - lo].write(v);
                    }
                }
                at = run_end;
                s += 1;
            }
        });
    }

    /// Segmented reduce: `outs[l][s]` is lane `l` of `f(s, data[i])` folded
    /// under `ops[l]` over the lanes `i` of segment `s` — by definition what
    /// a downward inclusive [`Machine::scan_lanes_into`] of the mapped lanes
    /// leaves at the segment's head, the one value per node a node-level
    /// decision reads (Secs. 4.4–4.5). One pass maps and folds; each output
    /// holds `seg.num_segments()` values (cleared first) and no n-length
    /// lane exists. `f` gets the lane's segment index, as in
    /// [`Machine::seg_map_lanes_into`]. Counted as what it replaces: K scans
    /// in one scan pass, one elementwise op, `K × segments` values of bytes.
    ///
    /// Numerical contract: each segment folds in the downward scan's
    /// operand order (`d ⊕ state`, from its last lane to its head), so the
    /// inline sweep (the sequential backend, or a pass that fits one block)
    /// equals the scan's head value bit for bit for every operator. A
    /// pooled pass folds a segment that several blocks share piece by
    /// piece: bit-identical for operators associative under rounding
    /// (integers, `f64` Min/Max, integer-valued `f64` sums), the blocked
    /// scan's own contract ([`blocked`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seg.len()`.
    pub fn seg_reduce_lanes_into<A, T, F, const K: usize>(
        &self,
        data: &[A],
        seg: &Segments,
        f: F,
        ops: [FusedOp; K],
        outs: &mut [Vec<T>; K],
    ) where
        A: Element,
        T: FusedElement,
        F: Fn(usize, A) -> [T; K] + Sync,
    {
        seg.expect_lane("segment reduce", data.len());
        let (n, segments) = (data.len(), seg.num_segments());
        self.count_fused_scan(K as u64);
        self.count_elementwise();
        for out in outs.iter() {
            self.note_alloc_avoided(out.capacity(), segments);
        }
        self.count_bytes_moved(K * segments * std::mem::size_of::<T>());
        let pool = self.use_par(n);
        if pool {
            self.count_blocked_pass();
        }
        let block = self.one_pass_block(n, widest::<A, T>());
        blocked::seg_reduce_walk(seg, ops, |s, i| f(s, data[i]), block, pool, outs);
    }

    /// The frame the multi-lane fills share: one elementwise op and its
    /// bytes, exact-fit reservation of the K buffers, the blocked walk
    /// over their spare capacity (`body` must initialize every slot it is
    /// handed), then the lengths.
    fn fill_blocks<T, B, const K: usize>(
        &self,
        n: usize,
        lane_bytes: usize,
        outs: &mut [Vec<T>; K],
        body: B,
    ) where
        T: Element,
        B: Fn(usize, [&mut [std::mem::MaybeUninit<T>]; K]) + Sync,
    {
        self.count_elementwise();
        for out in outs.iter() {
            self.note_alloc_avoided(out.capacity(), n);
        }
        self.count_bytes_moved(K * n * std::mem::size_of::<T>());
        for out in outs.iter_mut() {
            fit_exact(out, n);
        }
        let mut each = outs.iter_mut();
        let spare =
            std::array::from_fn(|_| &mut each.next().expect("K buffers").spare_capacity_mut()[..n]);
        self.for_each_block_of::<_, _, K>(lane_bytes, spare, body);
        for out in outs.iter_mut() {
            // SAFETY: `body` initialized lanes `0..n` of every buffer's
            // spare capacity (its contract above).
            unsafe { out.set_len(n) };
        }
    }

    // ------------------------------------------------------------------
    // Permutation primitives (paper Sec. 3.2.3)
    // ------------------------------------------------------------------

    /// Scatter permutation: `out[index[i]] = data[i]` with `index` a
    /// bijection on `0..n` (paper Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `index` is not one-to-one.
    pub fn permute<T: Element>(&self, data: &[T], index: &[usize]) -> Vec<T> {
        let mut out = Vec::new();
        self.permute_into(data, index, &mut out);
        out
    }

    /// Scatter permutation into a caller-provided buffer (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `index` is not one-to-one.
    pub fn permute_into<T: Element>(&self, data: &[T], index: &[usize], out: &mut Vec<T>) {
        self.count_permute();
        self.note_alloc_avoided(out.capacity(), data.len());
        self.count_bytes_moved(std::mem::size_of_val(data));
        fit_exact(out, data.len());
        if self.use_par(data.len()) {
            permute_par_into(data, index, out);
        } else {
            permute_seq_into(data, index, out);
        }
    }

    /// Gather: `out[j] = data[order[j]]`. The inverse view of a
    /// permutation; counted as a permutation op.
    ///
    /// # Panics
    ///
    /// Panics if any order entry is out of bounds.
    pub fn gather<T: Element>(&self, data: &[T], order: &[usize]) -> Vec<T> {
        let mut out = Vec::new();
        self.gather_into(data, order, &mut out);
        out
    }

    /// Gather into a caller-provided buffer (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if any order entry is out of bounds.
    pub fn gather_into<T: Element>(&self, data: &[T], order: &[usize], out: &mut Vec<T>) {
        self.count_permute();
        self.note_alloc_avoided(out.capacity(), order.len());
        self.count_bytes_moved(order.len() * std::mem::size_of::<T>());
        fit_exact(out, order.len());
        if self.use_par(order.len()) {
            order.par_iter().map(|&i| data[i]).collect_into_vec(out);
        } else {
            out.clear();
            out.extend(order.iter().map(|&i| data[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Sum;

    #[test]
    fn stats_count_operations() {
        let m = Machine::sequential();
        let data = vec![1i64, 2, 3, 4];
        let seg = Segments::single(4);
        let _ = m.up_scan_seg(&data, &seg, Sum, ScanKind::Inclusive);
        let _ = m.map(&data, |x| x + 1);
        let _ = m.zip_map(&data, &data, |a, b| a + b);
        let _ = m.permute(&data, &[3, 2, 1, 0]);
        let _ = m.gather(&data, &[0, 0, 1]);
        m.bump_rounds();
        let s = m.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.elementwise, 2);
        assert_eq!(s.permutes, 2);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.total_primitives(), 5);
        m.reset_stats();
        assert_eq!(m.stats(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let m = Machine::sequential();
        let data = vec![1i64, 2];
        let _ = m.up_scan(&data, Sum, ScanKind::Inclusive);
        let before = m.stats();
        let _ = m.up_scan(&data, Sum, ScanKind::Inclusive);
        let _ = m.up_scan(&data, Sum, ScanKind::Inclusive);
        let delta = m.stats().since(&before);
        assert_eq!(delta.scans, 2);
    }

    #[test]
    fn backends_agree_below_and_above_threshold() {
        let seq = Machine::sequential();
        let par = Machine::parallel().with_par_threshold(1);
        let n = 10_000usize;
        let data: Vec<i64> = (0..n as i64).map(|i| i % 11 - 5).collect();
        let seg = Segments::from_lengths(&[n / 2, n / 2]).unwrap();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            for dir in [Direction::Up, Direction::Down] {
                assert_eq!(
                    seq.scan(&data, &seg, Sum, dir, kind),
                    par.scan(&data, &seg, Sum, dir, kind)
                );
            }
        }
        let idx: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        assert_eq!(seq.permute(&data, &idx), par.permute(&data, &idx));
        assert_eq!(
            seq.zip_map(&data, &data, |a, b| a * b),
            par.zip_map(&data, &data, |a, b| a * b)
        );
    }

    /// Paper Fig. 9: the elementwise add of two vectors.
    #[test]
    fn zip_map_matches_fig9() {
        for m in [
            Machine::sequential(),
            Machine::parallel().with_par_threshold(1),
        ] {
            let a = vec![0i64, 1, 2, 1, 4, 3, 6, 2, 9, 5];
            let b = vec![4i64, 7, 2, 0, 3, 6, 1, 5, 0, 4];
            let got = m.zip_map(&a, &b, |x, y| x + y);
            assert_eq!(got, vec![4, 8, 4, 1, 7, 9, 7, 7, 9, 9]);
        }
    }

    #[test]
    #[should_panic(expected = "lengths")]
    fn zip_map_length_mismatch_panics() {
        Machine::parallel()
            .with_par_threshold(1)
            .zip_map(&[1i64], &[1i64, 2], |x, y| x + y);
    }

    /// The segment-aware map hands every lane its segment's index on
    /// every backend and block size, blocks that start mid-segment and
    /// segments that span several blocks included, and is one elementwise
    /// op.
    #[test]
    fn seg_map_lanes_sees_each_lanes_segment() {
        let lengths = [1usize, 130, 1, 1, 70, 300, 2];
        let seg = Segments::from_lengths(&lengths).unwrap();
        let data: Vec<u32> = (0..seg.len() as u32).collect();
        let want: Vec<(usize, u32)> = seg.segment_ids().into_iter().zip(data.clone()).collect();
        for m in [
            Machine::sequential(),
            Machine::parallel().with_par_threshold(1),
            Machine::parallel()
                .with_par_threshold(1)
                .with_block_bytes(64 * 4),
        ] {
            let mut out: Vec<(usize, u32)> = Vec::new();
            m.seg_map_lanes_into(&data, &seg, |s, v| [(s, v)], std::array::from_mut(&mut out));
            assert_eq!(out, want);
            let ops = m.stats();
            assert_eq!((ops.elementwise, ops.total_primitives()), (1, 1));
            assert_eq!(
                ops.bytes_moved as usize,
                seg.len() * std::mem::size_of::<(usize, u32)>()
            );
        }
        let mut out: [Vec<u8>; 1] = [vec![7]];
        Machine::sequential().seg_map_lanes_into(
            &[] as &[u32],
            &Segments::single(0),
            |_, _| [0],
            &mut out,
        );
        assert!(out[0].is_empty());
    }

    /// A byte-wide output is blocked by the widest lane the pass touches
    /// and by the workers' even share, not by its own width: with
    /// `DP_BLOCK = 524288` a `u8` lane alone would make 200k lanes one
    /// block and leave the pass on one worker.
    #[test]
    fn byte_output_pass_is_dealt_to_more_than_one_block() {
        use std::sync::atomic::AtomicUsize;
        let m = Machine::parallel().with_block_bytes(524_288);
        let n = 200_000usize;
        let data: Vec<u32> = (0..n as u32).collect();
        let mut out = vec![0u8; n];
        let blocks = AtomicUsize::new(0);
        let widest_lane = widest::<u32, u8>();
        m.for_each_block_of(widest_lane, [&mut out[..]], |lo, [block]| {
            blocks.fetch_add(1, Ordering::Relaxed);
            for (k, slot) in block.iter_mut().enumerate() {
                *slot = data[lo + k] as u8;
            }
        });
        assert!(blocks.load(Ordering::Relaxed) >= 2);
        assert!(out.iter().zip(&data).all(|(&o, &d)| o == d as u8));
        // Sized by the output alone it would have been a single block.
        assert!(blocked::block_elems::<u8>(m.block_bytes()) >= n);
    }

    #[test]
    fn gather_basic() {
        let m = Machine::sequential();
        let data = vec![10u32, 20, 30];
        assert_eq!(m.gather(&data, &[2, 0, 2]), vec![30, 10, 30]);
    }
}
