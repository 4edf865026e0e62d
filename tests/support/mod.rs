//! A counting global allocator shared by the test binaries that assert
//! allocation budgets (`mod support;` installs it for the whole binary).
//! It counts per thread, so a test measures its own calls while other
//! tests run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and records, per thread, the bytes asked for
/// and the size of each of the last [`LOG_SLOTS`] requests.
struct CountingAlloc;

/// Requests whose sizes [`allocations_by`] can report for one call.
const LOG_SLOTS: usize = 256;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static SIZES: [Cell<usize>; LOG_SLOTS] = const {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Cell<usize> = Cell::new(0);
        [EMPTY; LOG_SLOTS]
    };
}

/// One request: `grown` more bytes asked for, by a block of `size` bytes.
fn note(grown: usize, size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + grown));
    let _ = CALLS.try_with(|calls| {
        let _ = SIZES.try_with(|sizes| sizes[calls.get() % LOG_SLOTS].set(size));
        calls.set(calls.get() + 1);
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s with no destructor, so touching them never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()), new_size);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `f` ran on this thread.
#[allow(dead_code)]
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Allocator calls (fresh blocks and regrowths) made while `f` ran on
/// this thread.
#[allow(dead_code)]
pub fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The size of every block `f` asked the allocator for on this thread, in
/// order — a fresh block's size, a regrown block's new size.
///
/// # Panics
///
/// Panics unless `f` made fewer than [`LOG_SLOTS`] requests.
#[allow(dead_code)]
pub fn allocations_by<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    assert!(after - before < LOG_SLOTS, "allocation log overflowed");
    let sizes = SIZES.with(|sizes| {
        let logged = (before..after).map(|call| sizes[call % LOG_SLOTS].get());
        logged.collect()
    });
    (out, sizes)
}
