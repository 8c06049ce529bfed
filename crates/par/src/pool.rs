//! The ordered-join scoped worker pool.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV: &str = "MPSS_THREADS";

/// A fixed-width worker pool for scoped, deterministic fan-out.
///
/// The pool is a *policy* object: it owns no long-lived threads. Each
/// [`scope_map`](ThreadPool::scope_map) call spawns up to `threads` scoped
/// workers (`std::thread::scope`), which pull items off a shared atomic
/// cursor and write results into per-item slots; the scope join guarantees
/// every worker finished before results are read back, and the slots
/// guarantee the output order equals the submission order regardless of
/// completion order. A panic inside the mapped closure propagates out of
/// the scope, exactly like the sequential loop it replaces.
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool that runs `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The workspace-default pool: `MPSS_THREADS` if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> ThreadPool {
        ThreadPool::with_threads(None)
    }

    /// [`from_env`](ThreadPool::from_env) with an explicit override on top
    /// (the CLI's `--threads N` beats the environment, which beats the
    /// hardware default).
    pub fn with_threads(explicit: Option<usize>) -> ThreadPool {
        let threads = explicit
            .filter(|&t| t > 0)
            .or_else(|| {
                std::env::var(THREADS_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&t| t > 0)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(4)
            });
        ThreadPool::new(threads)
    }

    /// The number of workers this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on scoped workers, returning results in
    /// submission order. Sequential (and allocation-free beyond the output
    /// `Vec`) when the pool has one thread or there is at most one item.
    pub fn scope_map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Items and results live in per-index slots so workers can claim
        // work through one atomic cursor and deposit results wherever they
        // belong; the slot mutexes are uncontended (each index is touched
        // by exactly one worker).
        let input: Vec<Mutex<Option<I>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let output: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let item = input[idx]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("each item is claimed exactly once");
                    let out = f(item);
                    *output[idx].lock().expect("output slot poisoned") = Some(out);
                });
            }
        });
        output
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("output slot poisoned")
                    .expect("scope join implies every slot was filled")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> ThreadPool {
        ThreadPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_preserves_submission_order() {
        let pool = ThreadPool::new(8);
        // Reverse sleep-free "work skew": later items finish first on real
        // pools; order must still come back 0..n.
        let out = pool.scope_map((0..200).collect::<Vec<_>>(), |x| x * 3);
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_is_sequential() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.scope_map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = ThreadPool::new(8);
        assert!(pool.scope_map(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(pool.scope_map(vec![9], |x| x * 2), vec![18]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn explicit_override_beats_everything() {
        assert_eq!(ThreadPool::with_threads(Some(3)).threads(), 3);
        // `Some(0)` is treated as "no override".
        assert!(ThreadPool::with_threads(Some(0)).threads() >= 1);
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let items: Vec<u64> = (0..97).collect();
        let seq = ThreadPool::new(1).scope_map(items.clone(), |x| x.wrapping_mul(2654435761));
        let par = ThreadPool::new(7).scope_map(items, |x| x.wrapping_mul(2654435761));
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_panic_propagates() {
        // `std::thread::scope` re-panics ("a scoped thread panicked") when a
        // worker dies, so a failed map can never be mistaken for success.
        let pool = ThreadPool::new(4);
        let r = std::panic::catch_unwind(|| {
            pool.scope_map(vec![0, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("mapped closure panicked");
                }
                x
            })
        });
        assert!(r.is_err());
    }
}
