//! The unified round-driver engine behind every bulk constructor.
//!
//! The paper's central structural claim is that PM₁ (Sec. 5.1), the bucket
//! PMR quadtree (Sec. 5.2) and the R-tree (Sec. 5.3) are all built by the
//! *same* O(log n)-round loop over the primitive vocabulary: test every
//! active node against the structure's split criterion, retire the nodes
//! that pass, and redistribute the elements of the nodes that fail via
//! clone / unshuffle. [`RoundDriver`] is that loop, written once; each
//! structure supplies only a [`SplitPolicy`] — the per-round *decisions*
//! and *data movement*, not the choreography.
//!
//! One driver **step** is one `decide → emit → partition → advance` cycle:
//!
//! 1. [`SplitPolicy::decide`] returns one flag per active node — split it
//!    or retire it;
//! 2. [`SplitPolicy::emit`] retires the non-splitting nodes (e.g. records
//!    quadtree leaves);
//! 3. [`SplitPolicy::partition`] redistributes the elements of the
//!    splitting nodes (skipped entirely when nothing split);
//! 4. [`SplitPolicy::advance`] rolls the policy's cursor forward and tells
//!    the driver whether an algorithm-level *round* just completed and
//!    whether the build is finished.
//!
//! For the quadtree family a step *is* a round. The R-tree's bottom-up
//! overflow sweep visits one height level per step and completes a round
//! only when a full sweep ends (see `rtree::RtreeSplitPolicy`), which is
//! why rounds are reported by `advance` rather than assumed by the driver.
//!
//! The driver is also the single instrumentation point: every step records
//! a [`scan_model::RoundTrace`] on the machine — frontier shape, nodes
//! split, the physical-counter delta across the step, the arena high-water
//! mark and wall time — with no effect on the operation counters
//! themselves (the differential tests assert exact counter values across
//! the refactor).
//! The loop is resumable: [`RoundDriver::step`] is public, so a caller can
//! interleave its own work between rounds; [`RoundDriver::run`] is the
//! plain run-to-completion wrapper the builders use.

use scan_model::Machine;
use std::time::Instant;

/// What a policy reports at the end of one driver step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAdvance {
    /// An algorithm-level round completed this step (the driver counts it
    /// and calls [`Machine::bump_rounds`], which also decays the arena).
    pub round_completed: bool,
    /// The build is finished; the driver loop must stop after this step.
    pub finished: bool,
}

/// Per-structure split logic plugged into the [`RoundDriver`].
///
/// Implementations: `lineproc::QuadSplitPolicy` (shared by PM₁, PM₂, PM₃
/// and the bucket PMR quadtree — the structures differ only in the decide
/// closure) and `rtree::RtreeSplitPolicy`.
pub trait SplitPolicy {
    /// Active vector elements entering the current step (telemetry).
    fn active_elements(&self) -> usize;

    /// Active frontier nodes entering the current step (telemetry).
    fn active_nodes(&self) -> usize;

    /// One flag per active node: `true` to split it this step.
    fn decide(&mut self, machine: &Machine) -> Vec<bool>;

    /// Retires the nodes with `want[s] == false` (e.g. records them as
    /// leaves). Called every step, before any partitioning.
    fn emit(&mut self, machine: &Machine, want: &[bool]);

    /// Redistributes the elements of the splitting nodes and installs the
    /// next frontier. Only called when at least one node split.
    fn partition(&mut self, machine: &Machine, want: &[bool]);

    /// Advances the policy's cursor past this step and reports round /
    /// termination status. `split_any` is whether any node split this
    /// step.
    fn advance(&mut self, machine: &Machine, split_any: bool) -> RoundAdvance;
}

/// The instrumented build loop. See the module docs for the step anatomy.
#[derive(Debug, Default)]
pub struct RoundDriver {
    steps: usize,
    rounds: usize,
}

impl RoundDriver {
    /// A fresh driver with no steps taken.
    pub fn new() -> Self {
        RoundDriver::default()
    }

    /// Driver steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Algorithm-level rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Executes one `decide → emit → partition → advance` step and records
    /// its [`scan_model::RoundTrace`]. Callers must stop once the returned
    /// [`RoundAdvance::finished`] is `true`.
    pub fn step(&mut self, machine: &Machine, policy: &mut dyn SplitPolicy) -> RoundAdvance {
        // Fault site: a plan can abort the build at the top of any step,
        // before the policy runs or any lock is taken — the safe panic
        // point the crash-recovery tests kill builds at. The occurrence
        // index is the machine-global step number, so "kill at round k"
        // is `FaultPlan::once_at(FaultSite::RoundAbort, k)`.
        machine.check_fault(scan_model::FaultSite::RoundAbort);
        let before = machine.stats();
        let started = Instant::now();
        let active_elements = policy.active_elements();
        let active_nodes = policy.active_nodes();

        let want = policy.decide(machine);
        let nodes_split = want.iter().filter(|&&w| w).count();
        policy.emit(machine, &want);
        if nodes_split > 0 {
            policy.partition(machine, &want);
        }
        let advance = policy.advance(machine, nodes_split > 0);
        if advance.round_completed {
            self.rounds += 1;
            machine.bump_rounds();
        }

        machine.record_round_trace(machine.round_trace_since(
            &before,
            started,
            self.steps,
            active_elements,
            active_nodes,
            nodes_split,
        ));
        self.steps += 1;
        advance
    }

    /// Runs a fresh driver to completion and returns the number of
    /// algorithm-level rounds.
    pub fn run(machine: &Machine, policy: &mut dyn SplitPolicy) -> usize {
        let mut driver = RoundDriver::new();
        while !driver.step(machine, policy).finished {}
        driver.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy policy: `levels` nodes, each step splits all nodes of one
    /// level into two, until no levels remain.
    struct Halving {
        remaining: usize,
        nodes: usize,
    }

    impl SplitPolicy for Halving {
        fn active_elements(&self) -> usize {
            self.nodes * 10
        }
        fn active_nodes(&self) -> usize {
            self.nodes
        }
        fn decide(&mut self, _machine: &Machine) -> Vec<bool> {
            vec![self.remaining > 0; self.nodes]
        }
        fn emit(&mut self, _machine: &Machine, _want: &[bool]) {}
        fn partition(&mut self, machine: &Machine, _want: &[bool]) {
            machine.note_elementwise();
            self.nodes *= 2;
            self.remaining -= 1;
        }
        fn advance(&mut self, _machine: &Machine, split_any: bool) -> RoundAdvance {
            RoundAdvance {
                round_completed: split_any,
                finished: !split_any,
            }
        }
    }

    #[test]
    fn run_counts_rounds_and_bumps_machine() {
        let machine = Machine::sequential();
        let mut policy = Halving {
            remaining: 3,
            nodes: 1,
        };
        let rounds = RoundDriver::run(&machine, &mut policy);
        assert_eq!(rounds, 3);
        assert_eq!(policy.nodes, 8);
        assert_eq!(machine.stats().rounds, 3);
    }

    #[test]
    fn traces_record_frontier_and_op_deltas() {
        let machine = Machine::sequential();
        let mut policy = Halving {
            remaining: 2,
            nodes: 1,
        };
        RoundDriver::run(&machine, &mut policy);
        let traces = machine.take_round_traces();
        // Two splitting steps plus the final all-retire step.
        assert_eq!(traces.len(), 3);
        assert_eq!(
            traces.iter().map(|t| t.round).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            traces.iter().map(|t| t.active_nodes).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(
            traces.iter().map(|t| t.nodes_split).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        // The per-step counter deltas sum to the machine totals (tracing
        // itself must not perturb the counters).
        let elementwise: u64 = traces.iter().map(|t| t.elementwise).sum();
        assert_eq!(elementwise, machine.stats().elementwise);
        assert_eq!(machine.stats().elementwise, 2);
    }

    #[test]
    fn step_is_resumable_mid_build() {
        let machine = Machine::sequential();
        let mut policy = Halving {
            remaining: 2,
            nodes: 1,
        };
        let mut driver = RoundDriver::new();
        let first = driver.step(&machine, &mut policy);
        assert!(!first.finished);
        assert_eq!(driver.steps(), 1);
        assert_eq!(driver.rounds(), 1);
        // ...caller-side work can happen here...
        while !driver.step(&machine, &mut policy).finished {}
        assert_eq!(driver.rounds(), 2);
        assert_eq!(driver.steps(), 3);
    }
}
