//! `mpss-serve`: a multi-tenant scheduling daemon for the online
//! speed-scaling algorithms of Albers, Antoniadis & Greiner.
//!
//! One daemon process hosts many independent tenants, each a live
//! [`OaSession`](mpss_online::OaSession) (Online Algorithm, the
//! flow-replanning optimal-prefix scheduler) or
//! [`AvrSession`](mpss_online::AvrSession) (Average Rate). Clients speak a
//! newline-delimited JSON protocol — one request object per line, one
//! response object per line — over stdin/stdout or a plain TCP socket; the
//! wire format is specified in `PROTOCOL.md` at the repository root, and
//! every example in that document is parse-tested verbatim.
//!
//! The three design points, in order of importance:
//!
//! 1. **Exact checkpoint/restore.** `checkpoint` freezes every tenant to a
//!    versioned JSON file; `restore` brings a fresh daemon back
//!    *bit-identically* — replaying the remaining request stream produces
//!    the same schedules, speeds, and counters the uninterrupted daemon
//!    would have produced. This leans on the workspace's shortest-repr
//!    `f64` JSON ([`mpss_obs::json`]) and on serializing the *active plan*
//!    rather than recomputing it.
//! 2. **Bounded memory.** With a compaction window configured, executed
//!    history older than `now - window` is folded into conserved-work
//!    tallies behind a monotone watermark, so arbitrarily long arrival
//!    streams run in bounded space — and the watermark rides along in
//!    checkpoints so both properties compose.
//! 3. **Observability.** Every tenant publishes `{algo, tenant}`-labeled
//!    session metrics into one shared [`MetricsHub`](mpss_obs::MetricsHub),
//!    plus daemon-level request/error/latency families, scrapeable live
//!    via `mpss_obs::MetricsServer`. On top of that sits an always-on
//!    black box — per-tenant flight recorders, whose leveled events are
//!    also the daemon's NDJSON stderr log, and atomic
//!    [postmortem bundles](postmortem) on errors, panics, and slow
//!    replans — cheap enough to leave on in production (<1% of soak wall
//!    time, gated in CI).
//!
//! # Example
//!
//! The daemon core is plain `BufRead` → `Write`, so it can be driven
//! entirely in memory:
//!
//! ```
//! use mpss_serve::{Daemon, DaemonConfig};
//!
//! let mut daemon = Daemon::new(DaemonConfig::default());
//! let requests = concat!(
//!     r#"{"op":"open","tenant":"cell-a","algo":"oa","m":2}"#, "\n",
//!     r#"{"op":"arrive","tenant":"cell-a","deadline":4,"volume":3}"#, "\n",
//!     r#"{"op":"advance","to":1}"#, "\n",
//!     r#"{"op":"query-plan","tenant":"cell-a"}"#, "\n",
//! );
//! let mut responses = Vec::new();
//! let shutdown = daemon.serve_io(requests.as_bytes(), &mut responses).unwrap();
//! assert!(!shutdown); // EOF, not a shutdown request
//! let text = String::from_utf8(responses).unwrap();
//! assert_eq!(text.lines().count(), 4);
//! assert!(text.lines().all(|line| line.contains(r#""ok":true"#)));
//! ```
//!
//! For TCP serving see [`serve_tcp`]; for the command-line entry point see
//! `mpss-cli serve`.

pub mod daemon;
pub mod net;
pub mod postmortem;
pub mod protocol;

pub use daemon::{
    validate_tenant_id, Daemon, DaemonConfig, CHECKPOINT_FILE_VERSION, CHECKPOINT_FORMAT,
    MAX_AUTO_BUNDLES, MAX_PROCESSORS,
};
pub use net::{serve_tcp, Client};
pub use postmortem::{
    find_bundles, read_manifest, write_bundle, BundleContents, BundleReason, BUNDLE_FORMAT,
    BUNDLE_VERSION,
};
pub use protocol::{Algo, ErrorKind, Request, Response};
