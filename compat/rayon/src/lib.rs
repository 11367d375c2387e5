//! Genuinely parallel stand-in for the `rayon` crate.
//!
//! The build environment for this repository has no network access to
//! crates.io, so the workspace vendors the *subset* of rayon's API it
//! actually uses. As of PR 2 this stand-in is **no longer sequential**:
//! it is a real work-distributing thread runtime built on `std::thread`
//! — chunked work queues with dynamic load balancing, deterministic
//! in-order result collection (parallel output is byte-identical to
//! sequential), panic propagation out of worker crews, nested-region
//! degradation to sequential, and a `RAYON_NUM_THREADS` /
//! [`ThreadPool::install`] thread-count override chain. The default
//! width (`RAYON_NUM_THREADS`, else available parallelism) is resolved
//! once per process; each region clamps the available-parallelism
//! width by the calling thread's current CPU affinity. See
//! [`runtime`] for the execution model. Swapping the real rayon back in
//! requires only a manifest change; no source edits.
//!
//! What is intentionally *not* here: work stealing between distinct
//! parallel regions, `join`/`spawn` primitives, and the full adaptor
//! zoo — none of which this workspace uses.

mod iter;
pub mod runtime;

pub use iter::{
    FromParallelIterator, IntoParallelIterator, ParIter, ParMap, ParallelSlice, ParallelSliceMut,
};
pub use runtime::current_num_threads;

/// The traits user code imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// Error from [`ThreadPoolBuilder::build`]. Never actually produced by
/// this stand-in; exists so `.unwrap()` call sites compile.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirrors `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a thread count for regions run under the built pool's
    /// [`install`](ThreadPool::install); 0 (the default) defers to
    /// `RAYON_NUM_THREADS` / available parallelism.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Mirrors `rayon::ThreadPool`: a thread-count scope for parallel
/// regions. Worker crews are recruited per region (see [`runtime`]), so
/// the pool is a configuration handle, not a set of live threads.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing every parallel
    /// region `op` enters (on this thread). With `num_threads(1)` the
    /// regions run on the calling thread, sequentially.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        runtime::with_installed(self.current_num_threads(), op)
    }

    /// The thread count regions under this pool resolve to.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            runtime::current_num_threads()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn par_adaptors_behave_like_sequential() {
        let doubled: Vec<i32> = (0..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10).map(|x| x * 2).collect::<Vec<_>>());

        let v = [1, 2, 3, 4];
        let sum: i32 = v.par_iter().sum();
        assert_eq!(sum, 10);

        let mut buf = [0u32; 6];
        buf.par_chunks_mut(2).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i as u32;
            }
        });
        assert_eq!(buf, [0, 0, 1, 1, 2, 2]);

        let mut buf = [0u32; 6];
        let failed = buf.par_chunks_mut(2).enumerate().try_for_each(|(i, c)| {
            c.fill(1);
            match i {
                0 => Ok(()),
                _ => Err(i),
            }
        });
        assert_eq!(failed, Err(1), "the lowest-index failure wins");
        assert_eq!(buf, [1; 6], "every item ran");
    }

    #[test]
    fn pool_installs_on_current_thread() {
        let pool = pool(4);
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.current_num_threads(), 4);
    }

    #[test]
    fn results_are_in_input_order_at_any_thread_count() {
        // Items finish out of order (reverse-skewed work), results must
        // not.
        let expected: Vec<u64> = (0..257).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 16] {
            let got: Vec<u64> = pool(threads).install(|| {
                (0..257u64)
                    .into_par_iter()
                    .map(|i| {
                        if i < 8 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * i
                    })
                    .collect()
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool(4).install(|| {
                (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 13 {
                            panic!("boom at 13");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                    .collect::<Vec<_>>()
            })
        }));
        let payload = result.expect_err("panic must cross the crew boundary");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at 13"), "payload preserved, got {msg:?}");
        // The crew drained the queue around the panic instead of wedging.
        assert!(survivors.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn nested_par_iter_degrades_to_sequential() {
        // Inside a worker, the resolved thread count is 1 and inner
        // regions run inline on that worker: no crew-of-crews.
        let inner_counts: Vec<(usize, bool)> = pool(4).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    let outer_id = std::thread::current().id();
                    let inner_on_same_thread = (0..4usize)
                        .into_par_iter()
                        .map(|_| std::thread::current().id() == outer_id)
                        .collect::<Vec<_>>()
                        .into_iter()
                        .all(|same| same);
                    (crate::current_num_threads(), inner_on_same_thread)
                })
                .collect()
        });
        for (count, inner_inline) in inner_counts {
            assert_eq!(count, 1, "worker must see a thread count of 1");
            assert!(inner_inline, "nested region must stay on its worker");
        }
    }

    #[test]
    fn one_thread_runs_inline_like_the_old_stub() {
        // num_threads(1) must not spawn: every closure runs on the
        // calling thread, in order.
        let caller = std::thread::current().id();
        let order: Vec<(usize, bool)> = pool(1).install(|| {
            (0..32usize)
                .into_par_iter()
                .map(|i| (i, std::thread::current().id() == caller))
                .collect()
        });
        assert_eq!(order.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..32).collect::<Vec<_>>());
        assert!(order.iter().all(|&(_, inline)| inline));
    }

    #[test]
    fn install_override_nests_and_restores() {
        let outer = pool(3);
        let inner = pool(5);
        outer.install(|| {
            assert_eq!(crate::current_num_threads(), 3);
            inner.install(|| assert_eq!(crate::current_num_threads(), 5));
            assert_eq!(crate::current_num_threads(), 3);
        });
    }

    #[test]
    fn zip_truncates_and_collect_result_short_circuits_deterministically() {
        let a = [1u32, 2, 3, 4];
        let b = [10u32, 20, 30];
        let sums: Vec<u32> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(sums, vec![11, 22, 33]);

        // Lowest-index error wins regardless of scheduling.
        let r: Result<Vec<u32>, usize> = pool(8).install(|| {
            (0..100usize)
                .into_par_iter()
                .map(|i| if i % 30 == 29 { Err(i) } else { Ok(i as u32) })
                .collect()
        });
        assert_eq!(r.unwrap_err(), 29);
    }

    #[test]
    fn par_iter_mut_mutates_every_element() {
        let mut v: Vec<u64> = (0..100).collect();
        pool(4).install(|| v.par_iter_mut().for_each(|x| *x *= 3));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }
}
