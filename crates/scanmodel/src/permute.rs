//! The permutation primitive (paper Section 3.2.3, Fig. 10).
//!
//! A permutation takes a data vector and an index vector and repositions
//! each data element to the lane named by its index. The paper requires the
//! mapping to be one-to-one; [`validate_permutation`] enforces exactly
//! that, and also supports the *injective-into-larger-target* case needed
//! by cloning (Sec. 4.1), where `n` elements are permuted into a vector of
//! `n + k` lanes before the clones fill the gaps.

use crate::error::ScanModelError;
use crate::ops::Element;
use crate::scatter::SyncPtr;
use rayon::prelude::*;

/// Checks that `index` is an injective map into `0..target_len`.
///
/// # Errors
///
/// Returns [`ScanModelError::InvalidPermutation`] naming the first
/// offending lane on an out-of-range or duplicate target.
pub fn validate_permutation(index: &[usize], target_len: usize) -> Result<(), ScanModelError> {
    let mut seen = vec![false; target_len];
    for (lane, &t) in index.iter().enumerate() {
        if t >= target_len {
            return Err(ScanModelError::InvalidPermutation {
                lane,
                target: t,
                target_len,
                duplicate: false,
            });
        }
        if seen[t] {
            return Err(ScanModelError::InvalidPermutation {
                lane,
                target: t,
                target_len,
                duplicate: true,
            });
        }
        seen[t] = true;
    }
    Ok(())
}

/// Sequential permutation into a caller-provided buffer (cleared first):
/// `out[index[i]] = data[i]`, with `index` a bijection on `0..n`.
///
/// # Panics
///
/// Panics if lengths differ or the index vector is not a permutation
/// (the one-to-one requirement of paper Fig. 10).
pub fn permute_seq_into<T: Element>(data: &[T], index: &[usize], out: &mut Vec<T>) {
    assert_eq!(
        data.len(),
        index.len(),
        "permute: data length {} does not match index length {}",
        data.len(),
        index.len()
    );
    validate_permutation(index, data.len()).unwrap_or_else(|e| panic!("permute: {e}"));
    out.clear();
    out.extend_from_slice(data);
    for (i, &t) in index.iter().enumerate() {
        out[t] = data[i];
    }
}

/// Parallel permutation into a caller-provided buffer (cleared first),
/// with the same contract as [`permute_seq_into`].
///
/// Validation runs first (sequentially — it is a cheap O(n) pass), then
/// the scatter writes proceed in parallel into the buffer's spare
/// capacity through raw pointers, which is sound because validation has
/// proven the targets pairwise distinct and (since `data.len()` equals
/// the target length) complete.
///
/// # Panics
///
/// Panics if lengths differ or the index vector is not a permutation.
pub fn permute_par_into<T: Element>(data: &[T], index: &[usize], out: &mut Vec<T>) {
    assert_eq!(
        data.len(),
        index.len(),
        "permute: data length {} does not match index length {}",
        data.len(),
        index.len()
    );
    validate_permutation(index, data.len()).unwrap_or_else(|e| panic!("permute: {e}"));
    let n = data.len();
    out.clear();
    out.reserve(n);
    let base = SyncPtr(out.as_mut_ptr());
    data.par_iter().zip(index.par_iter()).for_each(|(&v, &t)| {
        // SAFETY: `index` is a validated bijection on 0..n, so each slot
        // t < n is written exactly once, within the reserved capacity.
        unsafe { base.get().add(t).write(v) };
    });
    // SAFETY: the bijection covered every slot in 0..n.
    unsafe { out.set_len(n) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permute_seq<T: Element>(data: &[T], index: &[usize]) -> Vec<T> {
        let mut out = Vec::new();
        permute_seq_into(data, index, &mut out);
        out
    }

    fn permute_par<T: Element>(data: &[T], index: &[usize]) -> Vec<T> {
        let mut out = Vec::new();
        permute_par_into(data, index, &mut out);
        out
    }

    /// The worked example of paper Fig. 10.
    #[test]
    fn fig10_permutation() {
        // data    a b c d e f g h
        // index   2 5 4 3 1 6 0 7
        // answer  g e a d c b f h
        let data: Vec<char> = "abcdefgh".chars().collect();
        let index = vec![2usize, 5, 4, 3, 1, 6, 0, 7];
        let expect: Vec<char> = "geadcbfh".chars().collect();
        assert_eq!(permute_seq(&data, &index), expect);
        assert_eq!(permute_par(&data, &index), expect);
    }

    #[test]
    fn identity_permutation() {
        let data = vec![10u64, 20, 30];
        let index = vec![0usize, 1, 2];
        assert_eq!(permute_seq(&data, &index), data);
        assert_eq!(permute_par(&data, &index), data);
    }

    #[test]
    fn empty_permutation() {
        let data: Vec<u64> = Vec::new();
        let index: Vec<usize> = Vec::new();
        assert!(permute_seq(&data, &index).is_empty());
        assert!(permute_par(&data, &index).is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let err = validate_permutation(&[0, 3], 2).unwrap_err();
        assert!(matches!(
            err,
            ScanModelError::InvalidPermutation {
                duplicate: false,
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let err = validate_permutation(&[0, 1, 0], 3).unwrap_err();
        assert!(matches!(
            err,
            ScanModelError::InvalidPermutation {
                duplicate: true,
                lane: 2,
                ..
            }
        ));
    }

    #[test]
    fn validate_accepts_injection_into_larger_target() {
        // Cloning permutes n lanes injectively into n + k lanes.
        assert!(validate_permutation(&[0, 2, 5], 6).is_ok());
    }

    #[test]
    #[should_panic(expected = "permute")]
    fn permute_panics_on_shared_target() {
        permute_seq(&[1u32, 2], &[0, 0]);
    }
}
