//! # scan-model — a software vector machine for the scan model
//!
//! This crate is the substrate for the reproduction of *Hoel & Samet,
//! "Data-Parallel Primitives for Spatial Operations", ICPP 1995*. The paper
//! expresses all of its spatial algorithms in Blelloch's **scan model** of
//! parallel computation (Section 3.2 of the paper): a machine that operates
//! on arbitrarily long vectors with three families of primitives, each of
//! which produces result vectors of equal length:
//!
//! * **scan** operations — segmented / unsegmented, upward / downward,
//!   inclusive / exclusive prefix combines under an associative operator
//!   (paper Fig. 8);
//! * **elementwise** operations — lane-by-lane maps over one or two vectors
//!   (paper Fig. 9);
//! * **permutations** — one-to-one repositioning by an index vector
//!   (paper Fig. 10).
//!
//! The original work ran on a Thinking Machines CM-5; here the "machine" is
//! the [`Machine`] type, which executes the same primitives on a shared
//! memory multicore, inline on the calling thread or cache-blocked across
//! a worker pool (see [`Backend`]) — one kernel per primitive family,
//! whichever backend runs it. Both backends are exact and
//! deterministic, and every public operation routes through [`Machine`] so
//! that an [`OpStats`] counter can record how many primitive operations an
//! algorithm issued — this is how the complexity claims of the paper
//! (e.g. "O(log n) stages of O(1) scans each") are verified empirically.
//!
//! On top of the three raw primitive families, the crate provides the
//! higher-level spatial primitives of the paper's Section 4. Cloning,
//! duplicate deletion and the frontier algorithms' fan-out are one
//! computation — give every lane an *arity*, scan the arities, scatter —
//! so they are named wrappers over one layout kernel ([`flat_map`]), all
//! producing one gather-form [`Layout`] at the cost of a single cloning
//! (1 scan, 2 elementwise ops, 1 permutation):
//!
//! * [`Machine::clone_layout`] — *cloning* / *generalize* (Sec. 4.1),
//!   arity `1 + flag`;
//! * [`Machine::delete_layout`] / [`Machine::delete_duplicates`] —
//!   *duplicate deletion* / *concentrate* (Sec. 4.3), arity `1 − flag`;
//! * [`Machine::fanout_layout`] — a counts lane, for one layout applied
//!   to several vectors;
//! * [`Machine::flat_map_into`] / [`Machine::flat_map_coded_into`] — the
//!   same kernel in push form, for one output vector: every copy goes
//!   straight to its slot and no layout is built. The pair expansion of
//!   the batch query descent and the spatial join, and the variable-arity
//!   flat-map the dominance/skyline pipelines compact with;
//! * [`Machine::apply`], [`Machine::apply_into`],
//!   [`Machine::apply_in_place`], [`Machine::apply_map_into`] — the one
//!   apply, by destination; the in-place sweep direction is read off the
//!   layout.
//!
//! and, beside them:
//!
//! * [`Machine::unshuffle_layout`] — *unshuffling* / *packing* (Sec. 4.2),
//!   the one scatter-form layout (two scans, Fig. 16);
//! * [`Machine::segment_counts`] — the *node capacity check* scan (Sec. 4.4);
//! * [`Machine::broadcast_first`] — the copy-scan broadcast used
//!   throughout Section 4;
//! * [`Machine::segmented_sort_perm`] — the per-segment sort used by the
//!   R-tree sweep split (Sec. 4.7).
//!
//! ## Quick example
//!
//! ```
//! use scan_model::{Machine, Backend, ops::Sum, ScanKind, Segments};
//!
//! let m = Machine::new(Backend::Sequential);
//! // The worked example of the paper's Fig. 8: four segments of sizes
//! // 3, 4, 2 and 3.
//! let data: Vec<i64> = vec![3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3];
//! let seg = Segments::from_lengths(&[3, 4, 2, 3]).unwrap();
//! let up_in = m.up_scan_seg(&data, &seg, Sum, ScanKind::Inclusive);
//! assert_eq!(up_in, vec![3, 4, 6, 1, 1, 2, 4, 2, 3, 0, 3, 6]);
//! ```

pub mod arena;
pub mod blocked;
pub mod error;
pub mod fault;
pub mod flat_map;
pub mod fused;
pub mod machine;
pub mod ops;
pub mod permute;
pub mod primitives;
pub mod scan;
mod scatter;
pub mod soa;
pub mod vector;

pub use arena::ScratchArena;
pub use error::ScanModelError;
pub use fault::{FaultMode, FaultPlan, FaultSite, InjectedFault, WorkerFaultGuard};
pub use flat_map::Layout;
pub use fused::{FusedElement, FusedOp};
pub use machine::{Backend, Machine, OpStats, RoundTrace, StatsSnapshot, MAX_ROUND_TRACES};
pub use primitives::UnshuffleLayout;
pub use scan::{Direction, ScanKind};
pub use vector::Segments;
