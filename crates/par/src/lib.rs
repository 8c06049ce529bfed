//! Deterministic scoped-thread parallelism for the `mpss` workspace.
//!
//! Two paths in the workspace fan out over independent items — the
//! *instances* of a batched solve and the *tenants* of the daemon's
//! broadcast advance — yet neither may change a single output byte when
//! parallelised. This crate provides the primitive both share, built on
//! `std` only (like `mpss-numeric` and `mpss-obs`, it depends on nothing
//! outside the standard library):
//! [`ThreadPool`] with [`ThreadPool::scope_map`] fans a `Vec` of items over
//! scoped worker threads and joins **in submission order**, whatever order
//! the workers finish in. With one thread (or one item) it degrades to the
//! plain sequential iterator, so `MPSS_THREADS=1` is a bit-exact oracle for
//! any parallel run.
//!
//! Thread-count policy lives here too: [`ThreadPool::from_env`] reads the
//! `MPSS_THREADS` environment variable and falls back to
//! [`std::thread::available_parallelism`], and every consumer (CLI
//! `--threads`, batch API, daemon, experiment harness) routes through it so
//! one knob controls the whole workspace.
//!
//! ```
//! use mpss_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.scope_map((0..8).collect::<Vec<_>>(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]); // submission order
//! ```

mod pool;

pub use pool::ThreadPool;
