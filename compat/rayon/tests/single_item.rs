//! One-item parallel regions run inline on the caller, whatever width
//! the crew would have; two or more items still recruit a crew.
//!
//! A separate test binary (one process, one test) because it sets
//! `RAYON_NUM_THREADS`, which the runtime reads once per process, at the
//! first region that needs a default width. Every region before the
//! `set_var` has at most one item or runs under `install(4)`, so none
//! of them resolves the default and the variable still takes effect.

use rayon::prelude::*;
use std::thread::{self, ThreadId};

/// The thread each item of an `n`-item `par_iter().map()` ran on.
fn threads_of(n: usize) -> Vec<ThreadId> {
    let items: Vec<usize> = (0..n).collect();
    items.par_iter().map(|_| thread::current().id()).collect()
}

#[test]
fn one_item_runs_on_caller_and_two_recruit_a_crew() {
    let caller = thread::current().id();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let check = |how: &str| {
        assert_eq!(
            threads_of(1),
            vec![caller],
            "{how}: one item must run on the caller"
        );
        assert!(threads_of(0).is_empty());
        for n in [2usize, 5] {
            let ids = threads_of(n);
            assert_eq!(ids.len(), n);
            assert!(
                ids.iter().all(|&id| id != caller),
                "{how}: {n} items must run on crew threads"
            );
        }
    };

    pool.install(|| check("install(4)"));
    std::env::set_var("RAYON_NUM_THREADS", "4");
    check("RAYON_NUM_THREADS=4");
    std::env::remove_var("RAYON_NUM_THREADS");
}
