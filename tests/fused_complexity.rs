//! Fusion complexity accounting: the fused PM₁ decision must build the
//! exact same tree as the unfused seven-scan composition while issuing
//! strictly fewer scan *passes* per round, and the arena-backed `_into`
//! plumbing must actually avoid allocations. This is the acceptance test
//! for the fused-kernel layer: bit-identity plus a strictly better
//! pass-count profile.

use dp_geom::{LineSeg, Rect};
use dp_spatial::baseline::{build_pm1_unfused, pm1_verdicts_unfused};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::lineproc::{run_quad_build, LineProcSet};
use dp_spatial::pm1::{build_pm1, pm1_verdicts, Pm1Verdict};
use scan_model::{Backend, Machine};

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, 64.0, 64.0)
}

fn dataset(n: usize) -> Vec<LineSeg> {
    (0..n)
        .map(|k| {
            let x = ((k * 13) % 60) as f64 + ((k % 7) as f64) / 8.0;
            let y = ((k * 29) % 60) as f64 + ((k % 5) as f64) / 8.0;
            LineSeg::from_coords(x, y, (x + 2.5).min(63.5), (y + 1.5).min(63.5))
        })
        .collect()
}

fn machines() -> Vec<Machine> {
    vec![
        Machine::sequential(),
        Machine::new(Backend::Parallel).with_par_threshold(1),
    ]
}

#[test]
fn fused_pm1_matches_unfused_with_fewer_scan_passes() {
    let segs = dataset(120);
    for m in machines() {
        m.reset_stats();
        let fused = build_pm1(&m, world(), &segs, 8);
        let fused_ops = m.stats();

        m.reset_stats();
        let unfused = build_pm1_unfused(&m, world(), &segs, 8);
        let unfused_ops = m.stats();

        // Bit-identical trees: same shape, same leaf contents, same
        // query answers.
        assert_eq!(fused.stats(), unfused.stats());
        assert_eq!(
            fused.window_query(&world(), &segs),
            unfused.window_query(&world(), &segs)
        );
        let mut sig_fused = Vec::new();
        fused.for_each_leaf(|rect, depth, ids| {
            sig_fused.push((
                depth,
                ids.to_vec(),
                rect.min.x.to_bits(),
                rect.min.y.to_bits(),
            ));
        });
        let mut sig_unfused = Vec::new();
        unfused.for_each_leaf(|rect, depth, ids| {
            sig_unfused.push((
                depth,
                ids.to_vec(),
                rect.min.x.to_bits(),
                rect.min.y.to_bits(),
            ));
        });
        assert_eq!(sig_fused, sig_unfused);

        // Same number of logical scans and rounds…
        assert_eq!(fused.rounds(), unfused.rounds());
        assert_eq!(fused_ops.rounds, unfused_ops.rounds);

        // …but the fused build walks the segment structure strictly fewer
        // times: all seven PM₁ decision scans collapse into one pass per
        // round.
        assert!(
            fused_ops.scan_passes < unfused_ops.scan_passes,
            "fused passes {} not below unfused {}",
            fused_ops.scan_passes,
            unfused_ops.scan_passes
        );
        assert!(fused_ops.fused_lanes_saved > 0);
        assert_eq!(
            fused_ops.scans,
            fused_ops.scan_passes + fused_ops.fused_lanes_saved,
            "fused-pass invariant: {fused_ops:?}"
        );
        // The unfused path never fuses.
        assert_eq!(unfused_ops.fused_lanes_saved, 0);
        assert_eq!(unfused_ops.scans, unfused_ops.scan_passes);

        // The decision's per-round profile: 7 scans in 1 fused pass plus
        // the split stages' unfused scans. Per round the fused build saves
        // exactly 6 passes.
        let rounds = fused_ops.rounds;
        assert_eq!(fused_ops.fused_lanes_saved, 6 * (rounds + 1));

        // Arena plumbing is live: `_into` primitives found usable leased
        // capacity.
        assert!(fused_ops.allocs_avoided > 0, "{fused_ops:?}");
    }
}

/// Both decision paths funnel into `Pm1Verdict::classify`, so they cannot
/// drift structurally — but the fused path also carries its quantities as
/// `f64` lanes. This test runs a real build through the round driver with
/// a decide hook that recomputes the verdicts both ways on every live
/// frontier state and demands exact equality, round by round.
#[test]
fn fused_and_unfused_verdicts_agree_on_every_round() {
    let segs = dataset(140);
    for m in machines() {
        let mut checked = 0usize;
        let mut decide = |machine: &Machine, state: &LineProcSet, segs: &[LineSeg]| {
            let fused = pm1_verdicts(machine, state, segs);
            let unfused = pm1_verdicts_unfused(machine, state, segs);
            assert_eq!(fused, unfused, "verdict drift on a live frontier");
            checked += fused.len();
            fused.into_iter().map(Pm1Verdict::must_split).collect()
        };
        let out = run_quad_build(&m, world(), &segs, 8, &mut decide);
        assert!(
            out.rounds() >= 2,
            "need a multi-round build, got {}",
            out.rounds()
        );
        assert!(
            checked > segs.len(),
            "only {checked} verdicts checked across the whole build"
        );
    }
}

#[test]
fn bucket_pmr_build_reuses_arena_capacity() {
    let segs = dataset(150);
    for m in machines() {
        m.reset_stats();
        let tree = build_bucket_pmr(&m, world(), &segs, 3, 8);
        assert!(tree.rounds() >= 2, "need multi-round build");
        let ops = m.stats();
        // Round 2 onward leases recycled round-1 buffers.
        assert!(ops.allocs_avoided > 0, "{ops:?}");
        let (takes, hits) = m.arena_stats();
        assert!(takes > 0 && hits > 0, "takes {takes} hits {hits}");
    }
}
