//! Segment descriptors for segmented vector operations.
//!
//! In the scan model (paper Section 3.2.1), a *segmented* vector is an
//! ordinary vector accompanied by a vector of *segment flags*: a flag value
//! of `true` marks the first lane of a segment. A segmented scan behaves as
//! multiple independent scans, one per contiguous segment (paper Fig. 8).
//!
//! [`Segments`] stores both the flag representation (which the primitive
//! operations consume directly, exactly as on the CM-5) and a derived list
//! of segment start offsets (which the parallel backend and per-segment
//! iteration use).

use crate::error::ScanModelError;
use std::ops::Range;

/// A validated segment descriptor over a vector of length `len`.
///
/// Invariants (enforced by all constructors):
/// * if `len > 0`, lane 0 is a segment start;
/// * every segment is non-empty (this follows from the flag representation:
///   a segment extends to the lane before the next flag);
/// * `starts` is strictly increasing and `starts[0] == 0`.
///
/// An empty descriptor (`len == 0`) has zero segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    flags: Vec<bool>,
    starts: Vec<usize>,
}

impl Segments {
    /// Builds a descriptor from a segment-flag vector (paper Fig. 8 `sf`).
    ///
    /// # Errors
    ///
    /// Returns [`ScanModelError::InvalidSegments`] if the vector is
    /// non-empty but its first flag is not set (the first lane must begin a
    /// segment).
    pub fn from_flags(flags: Vec<bool>) -> Result<Self, ScanModelError> {
        if !flags.is_empty() && !flags[0] {
            return Err(ScanModelError::InvalidSegments {
                reason: "first lane of a non-empty vector must start a segment".into(),
            });
        }
        let starts = flags
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect();
        Ok(Segments { flags, starts })
    }

    /// Builds a descriptor from per-segment lengths.
    ///
    /// # Errors
    ///
    /// Returns [`ScanModelError::InvalidSegments`] if any length is zero;
    /// the flag representation cannot express empty segments.
    pub fn from_lengths(lengths: &[usize]) -> Result<Self, ScanModelError> {
        if let Some(pos) = lengths.iter().position(|&l| l == 0) {
            return Err(ScanModelError::InvalidSegments {
                reason: format!("segment {pos} has zero length"),
            });
        }
        let total: usize = lengths.iter().sum();
        let mut flags = vec![false; total];
        let mut starts = Vec::with_capacity(lengths.len());
        let mut at = 0usize;
        for &l in lengths {
            flags[at] = true;
            starts.push(at);
            at += l;
        }
        Ok(Segments { flags, starts })
    }

    /// A descriptor with a single segment covering `len` lanes (or zero
    /// segments when `len == 0`).
    pub fn single(len: usize) -> Self {
        if len == 0 {
            return Segments {
                flags: Vec::new(),
                starts: Vec::new(),
            };
        }
        let mut flags = vec![false; len];
        flags[0] = true;
        Segments {
            flags,
            starts: vec![0],
        }
    }

    /// Total number of lanes covered by the descriptor.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// `true` when the descriptor covers zero lanes.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The length check every segmented primitive makes on a lane it is
    /// handed alongside this descriptor; `what` names the primitive.
    ///
    /// # Panics
    ///
    /// Panics if `lane_len != self.len()`.
    pub(crate) fn expect_lane(&self, what: &str, lane_len: usize) {
        assert_eq!(
            lane_len,
            self.len(),
            "{what}: lane length {lane_len} does not match segment descriptor length {}",
            self.len()
        );
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.starts.len()
    }

    /// The raw segment-flag vector (`sf` in paper Fig. 8).
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Segment start offsets, strictly increasing, first element 0.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Lane range of segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.num_segments()`.
    pub fn range(&self, s: usize) -> Range<usize> {
        let start = self.starts[s];
        let end = self.starts.get(s + 1).copied().unwrap_or(self.flags.len());
        start..end
    }

    /// Iterator over the lane ranges of all segments, in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_segments()).map(|s| self.range(s))
    }

    /// Per-segment lengths, in order.
    pub fn lengths(&self) -> Vec<usize> {
        self.ranges().map(|r| r.len()).collect()
    }

    /// Index of the segment containing lane `i` (binary search over starts).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn segment_of(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "lane {i} out of bounds (len {})",
            self.len()
        );
        match self.starts.binary_search(&i) {
            Ok(s) => s,
            Err(ins) => ins - 1,
        }
    }

    /// Per-lane segment ids, i.e. `segment_of` materialized for all lanes.
    pub fn segment_ids(&self) -> Vec<usize> {
        let mut ids = vec![0usize; self.len()];
        for (s, r) in self.ranges().enumerate() {
            for id in &mut ids[r] {
                *id = s;
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flags_matches_paper_fig8() {
        // Fig. 8: segment flags 1 0 0 | 1 0 0 0 | 1 0 | 1 0 0.
        let flags = vec![
            true, false, false, true, false, false, false, true, false, true, false, false,
        ];
        let seg = Segments::from_flags(flags).unwrap();
        assert_eq!(seg.num_segments(), 4);
        assert_eq!(seg.lengths(), vec![3, 4, 2, 3]);
        assert_eq!(seg.starts(), &[0, 3, 7, 9]);
    }

    #[test]
    fn from_lengths_roundtrips_flags() {
        let seg = Segments::from_lengths(&[3, 4, 2, 3]).unwrap();
        let via_flags = Segments::from_flags(seg.flags().to_vec()).unwrap();
        assert_eq!(seg, via_flags);
    }

    #[test]
    fn from_flags_rejects_headless_vector() {
        let err = Segments::from_flags(vec![false, true]).unwrap_err();
        assert!(matches!(err, ScanModelError::InvalidSegments { .. }));
    }

    #[test]
    fn from_lengths_rejects_empty_segment() {
        let err = Segments::from_lengths(&[2, 0, 1]).unwrap_err();
        assert!(matches!(err, ScanModelError::InvalidSegments { .. }));
    }

    #[test]
    fn empty_descriptor() {
        let seg = Segments::from_flags(Vec::new()).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.num_segments(), 0);
        assert_eq!(seg.lengths(), Vec::<usize>::new());
        let single = Segments::single(0);
        assert_eq!(seg, single);
    }

    #[test]
    fn single_segment() {
        let seg = Segments::single(5);
        assert_eq!(seg.num_segments(), 1);
        assert_eq!(seg.range(0), 0..5);
    }

    #[test]
    fn segment_of_lookup() {
        let seg = Segments::from_lengths(&[3, 4, 2, 3]).unwrap();
        let expect = [0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3];
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(seg.segment_of(i), want, "lane {i}");
        }
        assert_eq!(seg.segment_ids(), expect.to_vec());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn segment_of_out_of_bounds_panics() {
        let seg = Segments::from_lengths(&[2]).unwrap();
        seg.segment_of(2);
    }
}
