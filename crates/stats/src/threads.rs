//! The shared worker-thread knob used by every parallel layer in GemStone.
//!
//! All fan-out sites — the validation, resilient and power
//! characterisation sweeps, the correlation sweeps, the stepwise candidate
//! scan and the concurrent pipeline stages — consult one resolver so a
//! single setting controls parallelism everywhere:
//!
//! 1. a programmatic override installed with [`set_worker_threads`];
//! 2. the `GEMSTONE_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`] (fallback: 4).
//!
//! Thread count never changes results: [`parallel_map`] writes each item's
//! result into a pre-assigned slot, so output is identical for any worker
//! count (including 1).
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::threads::{parallel_map, worker_threads};
//!
//! assert!(worker_threads() >= 1);
//! let squares = parallel_map(&[1, 2, 3], |_, v| v * v);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `GEMSTONE_THREADS` parse (the environment is read once). A
/// malformed or non-positive value produces a one-time stderr warning via
/// the shared parser and falls back to available parallelism.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        gemstone_obs::env::parse_checked::<usize>(
            "GEMSTONE_THREADS",
            "a positive integer",
            "available parallelism",
            |&n| n > 0,
        )
    })
}

/// Resolves the worker-thread count: override > `GEMSTONE_THREADS` > number
/// of available cores (4 when that cannot be determined). Always ≥ 1.
pub fn worker_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Installs (or, with `n = 0`, clears) a process-wide thread-count override
/// that takes precedence over `GEMSTONE_THREADS`.
pub fn set_worker_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Applies `f(index, item)` to every item on [`worker_threads`] workers;
/// see [`parallel_map_with`].
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with(worker_threads(), items, f)
}

/// Applies `f(index, item)` to every item on `threads` scoped workers
/// (at most one per item; `threads <= 1` runs serially on the calling
/// thread). Workers claim items one at a time from a shared atomic
/// cursor, so uneven per-item costs balance, and each result lands in its
/// item's pre-assigned output slot, so the result order (and every value
/// in it) is independent of the worker count and of scheduling.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The cursor only hands out indices; results
                        // travel back through the join, which orders them.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, u) in done {
                out[i] = Some(u);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("parallel_map: worker left a slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The override is process-global, so every assertion that touches it
    // lives in this single test to avoid races with the parallel test
    // runner.
    #[test]
    fn override_and_resolution() {
        assert!(worker_threads() >= 1);
        set_worker_threads(3);
        assert_eq!(worker_threads(), 3);
        set_worker_threads(0);
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn parallel_map_matches_serial_in_order() {
        // Uneven per-item cost (item 0 is by far the heaviest, then a
        // spread) makes workers finish out of index order.
        let f = |i: usize, v: &u64| -> u64 {
            let rounds = if i == 0 { 200_000 } else { (v % 13) * 1_000 };
            (0..rounds).fold(*v, |h, r| h.rotate_left(5) ^ r.wrapping_mul(0x9E37))
        };
        for len in [0u64, 1, 7, 101] {
            let items: Vec<u64> = (0..len).map(|v| v * 31 + 7).collect();
            let serial: Vec<u64> = items.iter().enumerate().map(|(i, v)| f(i, v)).collect();
            assert_eq!(parallel_map(&items, f), serial, "len {len}");
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    parallel_map_with(threads, &items, f),
                    serial,
                    "len {len}, {threads} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, |_, v| *v).is_empty());
        assert_eq!(parallel_map(&[5], |i, v| i as i32 + v), vec![5]);
    }
}
