//! The execution core: a dependency-free, work-distributing thread
//! runtime built on `std::thread::scope`.
//!
//! # Design
//!
//! Each parallel region recruits a *crew* of worker threads that pull
//! chunked spans of the item index space from a shared atomic cursor
//! (dynamic load balancing — blocks of wildly different compression cost
//! don't serialize behind a static split). Results are written into
//! per-index slots, so the collected output order is always the input
//! order, byte-for-byte independent of scheduling — the property the
//! PaSTRI determinism suite pins down.
//!
//! Scoped crews (rather than one persistent global pool) keep the whole
//! runtime free of lifetime-erased job pointers: `std::thread::scope`
//! lets workers borrow the caller's closure and data directly. A crew
//! of 2 threads costs 49–56 µs to spawn on a 2-vCPU VM, about one
//! 64-block `(dd|dd)` container decode in six; the block-granular work
//! this workspace feeds it amortizes that. A persistent crew woken per
//! region would save it, but it needs `unsafe` job passing, and the
//! seeded `perf` benchmark pins itself to one CPU, so none of its
//! regions ever spawns a crew to measure the gain on.
//!
//! # Thread-count resolution
//!
//! In priority order:
//! 1. inside a crew worker → 1 (nested parallel regions run sequentially
//!    instead of oversubscribing);
//! 2. an enclosing [`ThreadPool::install`](crate::ThreadPool::install) →
//!    that pool's configured count;
//! 3. the `RAYON_NUM_THREADS` environment variable (≥ 1);
//! 4. `std::thread::available_parallelism()`, clamped by the calling
//!    thread's current CPU affinity.
//!
//! Steps 3 and 4 are resolved once per process, at the first region
//! that needs them, as real rayon sizes its global pool once:
//! `available_parallelism` is a syscall plus cgroup file reads (22–24 µs
//! a call on a 2-vCPU VM), about 7% of a 64-block decode. Setting or
//! removing `RAYON_NUM_THREADS` after that has no effect. The affinity
//! can still change later — a program may generate its inputs on every
//! CPU and then pin itself to one — so when the width comes from
//! `available_parallelism`, each region clamps it by the calling
//! thread's affinity count: one `sched_getaffinity` call (~0.3 µs) on
//! Linux, none elsewhere. The clamp only narrows: a thread whose
//! affinity widens after the first resolution keeps the cached width.
//!
//! A resolved count of 1 skips thread machinery entirely and runs the
//! region inline on the caller, in item order. A region of zero or one
//! item resolves to 1 without consulting the chain at all.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while this thread is a crew worker: nested regions degrade to
    /// sequential execution rather than recruiting sub-crews.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`crate::ThreadPool::install`]
    /// (0 = none).
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// Is the current thread a crew worker?
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs `op` with the install-override set to `n`, restoring the prior
/// override afterwards (supports nested `install`s).
pub(crate) fn with_installed<R>(n: usize, op: impl FnOnce() -> R) -> R {
    let prev = INSTALLED.with(|c| c.replace(n));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    op()
}

/// The thread count a parallel region started on this thread would use.
#[must_use]
pub fn current_num_threads() -> usize {
    if in_worker() {
        return 1;
    }
    let installed = INSTALLED.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    match *PROCESS_WIDTH.get_or_init(ProcessWidth::resolve) {
        ProcessWidth::Env(n) => n,
        ProcessWidth::Machine(n) => affinity_cpus().map_or(n, |cpus| n.min(cpus)),
    }
}

/// The process-wide default width, resolved at the first region that
/// needs it.
static PROCESS_WIDTH: OnceLock<ProcessWidth> = OnceLock::new();

enum ProcessWidth {
    /// `RAYON_NUM_THREADS`, taken as given.
    Env(usize),
    /// `available_parallelism`, clamped per region by the affinity.
    Machine(usize),
}

impl ProcessWidth {
    fn resolve() -> Self {
        match env_num_threads() {
            Some(n) => Self::Env(n),
            None => Self::Machine(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            ),
        }
    }
}

/// `RAYON_NUM_THREADS` when set to a positive integer.
fn env_num_threads() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// How many CPUs the calling thread may run on now, or `None` when the
/// platform has no cheap way to ask.
#[cfg(target_os = "linux")]
fn affinity_cpus() -> Option<usize> {
    /// `cpu_set_t` of the C library: a bit mask of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    }
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpus: u32 = mask.iter().map(|w| w.count_ones()).sum();
    (cpus > 0).then_some(cpus as usize)
}

#[cfg(not(target_os = "linux"))]
fn affinity_cpus() -> Option<usize> {
    None
}

/// Applies `f` to every item, returning results in input order.
///
/// The parallel workhorse behind every adaptor in this crate. Work is
/// distributed in chunks of contiguous indices claimed from an atomic
/// cursor; each result lands in its input index's slot. A panic in any
/// worker is re-raised on the caller (lowest worker index first) after
/// every worker has drained out — never a deadlock, never a lost panic.
pub(crate) fn run_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // A region of at most one item resolves to one thread whatever the
    // crew width, so skip even the affinity lookup.
    let threads = if n <= 1 {
        1
    } else {
        current_num_threads().min(n)
    };
    if threads <= 1 {
        // Sequential path: no queues, no slots, no spawns.
        return items.into_iter().map(f).collect();
    }

    // Item and result slots. A `Mutex<Option<_>>` per slot keeps the
    // claiming protocol entirely safe; the per-item cost (two uncontended
    // lock round-trips) is noise against block-granular work.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Chunked claiming: big enough to keep cursor contention low, small
    // enough that an expensive tail block doesn't idle the crew.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);

    let panic_payload = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|c| c.set(true));
                    // Catch so a panicking worker still lets the rest of
                    // the crew drain the queue; re-raised below.
                    catch_unwind(AssertUnwindSafe(|| loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            let item = work[i]
                                .lock()
                                .expect("work slot poisoned")
                                .take()
                                .expect("work item claimed twice");
                            let out = f(item);
                            *results[i].lock().expect("result slot poisoned") = Some(out);
                        }
                    }))
                })
            })
            .collect();
        let mut payload = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                // First (lowest-index) worker's panic wins, deterministically.
                Ok(Err(p)) | Err(p) => {
                    payload.get_or_insert(p);
                }
            }
        }
        payload
    });
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped an item")
        })
        .collect()
}
