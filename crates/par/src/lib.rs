//! # fluidicl-par — a minimal, deterministic fan-out pool
//!
//! The experiment sweep and the `fluidicl-check` fault sweep both consist of
//! *independent* units of work: each benchmark run owns its own `Memory`
//! and runtime, so units can execute on any thread in any order as long as
//! the *results* are assembled in input order. This crate provides exactly
//! that and nothing more:
//!
//! * [`par_map`] — map a function over a `Vec` on up to [`jobs`] scoped
//!   `std::thread`s, returning results **in input order** (each worker
//!   writes into a pre-indexed slot, so output never depends on completion
//!   order);
//! * a process-global worker count resolved from `FLUIDICL_JOBS`, then
//!   `RAYON_NUM_THREADS` (for drop-in compatibility with rayon-based
//!   tooling), then the machine's available parallelism — overridable by
//!   the `repro` binary's `--jobs` flag via [`configure_jobs`];
//! * a nesting guard: a `par_map` issued *from inside* a pool worker runs
//!   sequentially, so two fan-out layers (experiments × benchmarks) never
//!   multiply thread counts.
//!
//! The pool is intentionally built on `std::thread::scope` rather than an
//! external dependency: the workspace is dependency-free and the work units
//! are coarse (milliseconds to seconds), so scoped threads with an atomic
//! work index lose nothing to a work-stealing runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker count; 0 means "not resolved yet".
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Resolves the default worker count: `FLUIDICL_JOBS`, then
/// `RAYON_NUM_THREADS`, then [`std::thread::available_parallelism`].
///
/// Invalid or zero values in the environment are ignored.
fn default_jobs() -> usize {
    for var in ["FLUIDICL_JOBS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the global worker count (backs the binaries' `--jobs N` flag).
/// Values below 1 are clamped to 1.
pub fn configure_jobs(jobs: usize) {
    JOBS.store(jobs.max(1), Ordering::SeqCst);
}

/// Current global worker count, resolved on first use from
/// `FLUIDICL_JOBS`, then `RAYON_NUM_THREADS`, then
/// [`std::thread::available_parallelism`].
pub fn jobs() -> usize {
    let j = JOBS.load(Ordering::SeqCst);
    if j != 0 {
        return j;
    }
    let resolved = default_jobs();
    // A concurrent configure_jobs wins; otherwise install the default.
    let _ = JOBS.compare_exchange(0, resolved, Ordering::SeqCst, Ordering::SeqCst);
    JOBS.load(Ordering::SeqCst)
}

/// Whether the calling thread is a pool worker. Nested [`par_map`] calls
/// detect this and run sequentially instead of spawning a second layer of
/// threads.
fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Maps `f` over `items` on up to [`jobs`] scoped threads, returning
/// results **in input order**.
///
/// Workers claim items through an atomic cursor and write each result into
/// the slot matching its input index, so the output is byte-identical to
/// `items.into_iter().map(f).collect()` regardless of scheduling. With one
/// worker, a single item, or when called from inside a pool worker, the
/// map runs sequentially on the calling thread with no pool overhead.
///
/// # Panics
///
/// Panics if any worker's `f` panicked (scoped threads re-raise on join,
/// with the original panic printed by the worker thread).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_jobs(items, jobs(), f)
}

/// [`par_map`] on up to `jobs` threads.
fn par_map_jobs<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 || in_pool() {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|c| c.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot lock poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let result = f(item);
                    *slots[i].lock().expect("result slot lock poisoned") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock poisoned")
                .expect("worker exited without storing its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_jobs(items.clone(), 8, |i| {
            // Skew the completion order: early items finish last.
            std::thread::sleep(std::time::Duration::from_micros(((64 - i) % 7) as u64 * 50));
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = par_map_jobs(vec![(); 4], 1, |()| std::thread::current().id());
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn nested_par_map_runs_sequentially() {
        let nested_in_pool = par_map_jobs(vec![(); 2], 2, |()| {
            assert!(in_pool());
            // The inner map must not spawn: its closure stays on this
            // worker thread.
            let outer = std::thread::current().id();
            par_map_jobs(vec![(); 4], 4, |()| std::thread::current().id())
                .into_iter()
                .all(|id| id == outer)
        });
        assert!(nested_in_pool.into_iter().all(|same| same));
        assert!(!in_pool(), "the guard is scoped to pool workers");
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_jobs(empty, 4, |x: u32| x).is_empty());
        assert_eq!(par_map_jobs(vec![7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_jobs(vec![0, 1, 2, 3], 2, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
