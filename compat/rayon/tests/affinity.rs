//! The default width follows the calling thread's CPU affinity even
//! after it has been cached: a program that generates its inputs on
//! every CPU and then pins itself to one runs every later region inline.
//!
//! A separate test binary (one process, one test) because it pins its
//! thread and removes `RAYON_NUM_THREADS` before the first region (the
//! variable's width is taken as given, never clamped). On a 1-CPU host
//! the first region already runs inline, so only the half after the pin
//! shows anything there.

#![cfg(target_os = "linux")]

use rayon::prelude::*;
use std::thread::{self, ThreadId};

/// `cpu_set_t` of the C library: a bit mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread to the lowest CPU it may run on.
fn pin_to_lowest_cpu() {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    assert_eq!(
        rc,
        0,
        "sched_getaffinity: {}",
        std::io::Error::last_os_error()
    );
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .expect("empty affinity mask");
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    assert_eq!(
        rc,
        0,
        "sched_setaffinity: {}",
        std::io::Error::last_os_error()
    );
}

/// The thread each item of an `n`-item `par_iter().map()` ran on.
fn threads_of(n: usize) -> Vec<ThreadId> {
    let items: Vec<usize> = (0..n).collect();
    items.par_iter().map(|_| thread::current().id()).collect()
}

#[test]
fn pinning_after_the_first_region_narrows_later_regions_to_one() {
    std::env::remove_var("RAYON_NUM_THREADS");
    let caller = thread::current().id();
    // Caches the process width; on a multi-CPU host a crew runs.
    let before = rayon::current_num_threads();
    let first = threads_of(2);
    if before > 1 {
        assert!(
            first.iter().all(|&id| id != caller),
            "2 items on {before} CPUs recruit a crew"
        );
    }

    pin_to_lowest_cpu();
    assert_eq!(
        rayon::current_num_threads(),
        1,
        "width {before} cached before the pin must narrow to the one CPU"
    );
    assert_eq!(
        threads_of(4),
        vec![caller; 4],
        "a 4-item region runs on the caller"
    );
}
