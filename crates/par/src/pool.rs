//! The ordered-join scoped worker pool.

use mpss_obs::{Collector, TrackedCollector};
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
        self.scope_map_indexed(items, |_, item| f(item))
    }

    /// [`scope_map`](ThreadPool::scope_map) where the closure also receives
    /// the item's submission index (for seeding or labelling work without
    /// packing the index into every item).
    pub fn scope_map_indexed<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(idx, item)| f(idx, item))
                .collect();
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
                    let out = f(idx, item);
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

    /// [`scope_map_indexed`](ThreadPool::scope_map_indexed) with per-worker
    /// observability tracks: each worker records onto its own collector
    /// (forked from `obs` as `worker-0`, `worker-1`, …), and the tracks are
    /// adopted back **in worker-index order** after the join — so the merged
    /// report/trace is deterministic even though items race across workers.
    ///
    /// With a sequential pool everything records onto a single `worker-0`
    /// track, keeping `MPSS_THREADS=1` runs structurally comparable to
    /// parallel ones.
    pub fn scope_map_tracked<I, O, F, C>(&self, items: Vec<I>, obs: &mut C, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        C: TrackedCollector,
        F: Fn(usize, I, &mut C::Track) -> O + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut track = obs.fork("worker-0");
            let out = items
                .into_iter()
                .enumerate()
                .map(|(idx, item)| {
                    track.count("par.worker.items", 1);
                    f(idx, item, &mut track)
                })
                .collect();
            obs.adopt(track);
            return out;
        }
        let input: Vec<Mutex<Option<I>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let output: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Tracks ride back through per-worker slots, like results do through
        // per-item slots; worker w deposits into slot w, so adoption order
        // is worker order, not completion order.
        let returned: Vec<Mutex<Option<C::Track>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        let tracks: Vec<C::Track> = (0..workers)
            .map(|w| obs.fork(&format!("worker-{w}")))
            .collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for (w, mut track) in tracks.into_iter().enumerate() {
                let f = &f;
                let cursor = &cursor;
                let input = &input;
                let output = &output;
                let returned = &returned;
                scope.spawn(move || {
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = input[idx]
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("each item is claimed exactly once");
                        track.count("par.worker.items", 1);
                        let out = f(idx, item, &mut track);
                        *output[idx].lock().expect("output slot poisoned") = Some(out);
                    }
                    *returned[w].lock().expect("track slot poisoned") = Some(track);
                });
            }
        });
        for slot in returned {
            let track = slot
                .into_inner()
                .expect("track slot poisoned")
                .expect("scope join implies every worker returned its track");
            obs.adopt(track);
        }
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
    fn scope_map_indexed_sees_submission_indices() {
        let pool = ThreadPool::new(4);
        let out = pool.scope_map_indexed(vec!["a", "b", "c"], |idx, s| format!("{idx}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
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
    fn tracked_map_merges_worker_counts_deterministically() {
        use mpss_obs::{Collector, RecordingCollector};
        let pool = ThreadPool::new(4);
        let mut rec = RecordingCollector::new();
        let out = pool.scope_map_tracked((0..40u64).collect(), &mut rec, |_, x, track| {
            track.count("work.items", 1);
            x * 2
        });
        assert_eq!(out, (0..40u64).map(|x| x * 2).collect::<Vec<_>>());
        // Every item counted exactly once, whichever worker took it — both
        // by the closure and by the pool's own per-worker claim counter.
        assert_eq!(rec.counter("work.items"), 40);
        assert_eq!(rec.counter("par.worker.items"), 40);
    }

    #[test]
    fn worker_item_claims_cover_sequential_runs_too() {
        use mpss_obs::RecordingCollector;
        let mut rec = RecordingCollector::new();
        ThreadPool::new(1).scope_map_tracked((0..7).collect::<Vec<i32>>(), &mut rec, |_, x, _| x);
        assert_eq!(rec.counter("par.worker.items"), 7);
    }

    #[test]
    fn tracked_map_names_one_track_per_worker() {
        use mpss_obs::{Collector, TraceCollector};
        let pool = ThreadPool::new(3);
        let mut trace = TraceCollector::new("main");
        pool.scope_map_tracked((0..9).collect::<Vec<i32>>(), &mut trace, |_, x, track| {
            track.instant("tick");
            x
        });
        assert_eq!(
            trace.track_names(),
            ["main", "worker-0", "worker-1", "worker-2"]
        );
        // All nine instants landed on worker tracks (none on main).
        let on_workers = trace
            .events()
            .iter()
            .filter(|e| e.track >= 1 && matches!(e.kind, mpss_obs::TraceEventKind::Instant(_)))
            .count();
        assert_eq!(on_workers, 9);

        // The sequential pool still forks a single worker track.
        let mut solo = TraceCollector::new("main");
        ThreadPool::new(1).scope_map_tracked(vec![1], &mut solo, |_, x: i32, track| {
            track.instant("tick");
            x
        });
        assert_eq!(solo.track_names(), ["main", "worker-0"]);
    }

    #[test]
    fn tracked_map_with_noop_collector_matches_scope_map() {
        use mpss_obs::NoopCollector;
        let pool = ThreadPool::new(4);
        let plain = pool.scope_map((0..50).collect::<Vec<i32>>(), |x| x + 1);
        let tracked = pool.scope_map_tracked(
            (0..50).collect::<Vec<i32>>(),
            &mut NoopCollector,
            |_, x, _| x + 1,
        );
        assert_eq!(plain, tracked);
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
