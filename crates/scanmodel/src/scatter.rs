//! Raw-pointer wrapper for disjoint parallel writes.
//!
//! The permutation, scan and layout kernels place each output lane at a
//! *precomputed, pairwise-distinct* index. Writes to distinct indices of
//! one buffer from many threads are race-free, but safe Rust cannot
//! express "these scattered `&mut` accesses are disjoint" through a
//! slice, so the kernels share a buffer's base pointer through
//! [`SyncPtr`] and state at each write why the slots are disjoint.

/// A `*mut T` that may cross thread boundaries; every user proves the
/// slots it writes pairwise disjoint.
pub(crate) struct SyncPtr<T>(pub(crate) *mut T);
// SAFETY: the wrapper only moves the address; each write site carries
// its own disjointness argument, and `T: Send` lets the values land on
// another thread.
unsafe impl<T: Send> Send for SyncPtr<T> {}
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor so closures capture the `Sync` wrapper, not the raw
    /// pointer field (which is not `Sync`).
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}
