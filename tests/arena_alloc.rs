//! The scratch arena's steady state asks the allocator for nothing.
//!
//! `ScratchArena` used to box every returned buffer, so each
//! `Machine::lease` / `recycle` pair was a malloc and a free under the
//! machine's lock while its module header promised the opposite. The
//! buffers now sit unboxed in one typed pool per element type; this holds
//! the promise with the counting allocator.

use scan_model::Machine;

mod support;
use support::requested_by;

#[test]
fn warm_lease_recycle_pairs_allocate_nothing() {
    let machine = Machine::sequential();
    // Warm: one buffer of each type pooled, each pool's stack grown once.
    let wide: Vec<u64> = Vec::with_capacity(512);
    let narrow: Vec<(u32, u8)> = Vec::with_capacity(64);
    machine.recycle(wide);
    machine.recycle(narrow);

    let ((), bytes) = requested_by(|| {
        for round in 0..1_000u64 {
            let mut wide: Vec<u64> = machine.lease();
            let mut narrow: Vec<(u32, u8)> = machine.lease();
            assert!(wide.capacity() >= 512 && narrow.capacity() >= 64);
            wide.push(round);
            narrow.push((round as u32, 1));
            machine.recycle(wide);
            machine.recycle(narrow);
        }
    });
    assert_eq!(bytes, 0, "a warm lease/recycle pair went to the allocator");
    let (takes, hits) = machine.arena_stats();
    assert_eq!((takes, hits), (2_000, 2_000));
}
