//! Regression: the first `Machine`s of a process may be created on pool
//! workers with `DP_BLOCK` unset.
//!
//! `QueryService::build` as a process's first library call does that: it
//! builds its shards, one `Machine` each, on the worker pool. The first
//! `Machine::new` resolves the process-wide block size by calibration,
//! which itself submits scans to that pool and, while it waits, helps
//! drain the queue. When the calibration ran inside the `OnceLock`
//! initialiser, the helping thread picked up the next machine-building job
//! and re-entered the initialiser it was still inside, with every other
//! worker already blocked on the same cell: the process hung.
//!
//! The test forces that interleaving rather than hoping for it: more
//! machine-building jobs than the pool has threads, so whichever thread
//! calibrates finds one of them at the head of the queue when it starts
//! helping. It is a test binary of its own because the block size is
//! resolved once per process: no machine may exist before these.

use scan_model::Machine;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn first_machines_on_pool_workers_do_not_deadlock() {
    // The only test of this binary, so no other thread reads the
    // environment while it changes.
    std::env::remove_var("DP_BLOCK");
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        rayon::pool::run_indexed(64, &|_| {
            std::hint::black_box(Machine::parallel().block_bytes());
        });
        done.send(()).ok();
    });
    watchdog
        .recv_timeout(Duration::from_secs(60))
        .expect("machines built on pool workers hung: block-size calibration deadlocked");
}
