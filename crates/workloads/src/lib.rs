//! Seeded workload generators for the `mpss` experiment harness.
//!
//! The paper has no empirical section, so the workload families here are
//! chosen to (a) exercise every structural regime of the algorithms —
//! under-loaded, over-loaded, nested, agreeable, bursty — and (b) include
//! the adversarial patterns known from the speed-scaling literature to
//! stress AVR and OA. All generators are deterministic in their seed and
//! emit integer coordinates by default, so every instance is exactly
//! representable in the exact-rational pipeline.

//!
//! ```
//! use mpss_workloads::{Family, WorkloadSpec};
//!
//! let spec = WorkloadSpec { family: Family::Bursty, n: 12, m: 3, horizon: 32, seed: 7 };
//! let a = spec.generate();
//! let b = spec.generate();
//! assert_eq!(a, b);                 // deterministic in the spec
//! assert_eq!(a.n(), 12);
//! assert_eq!(a.m, 3);
//! assert!(Family::ALL.len() >= 9);  // nine families to sweep over
//! ```

// `!(a < b)` on our FlowNum types deliberately reads as "b ≤ a, treating
// incomparable (impossible for validated inputs) as false"; rewriting via
// partial_cmp would obscure the tolerance-free intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod families;
pub mod perturb;
pub mod stats;
pub mod trace;

pub use families::{Family, WorkloadSpec};
pub use perturb::{scale_slack, split_jobs};
pub use stats::{instance_stats, InstanceStats};
pub use trace::{read_trace, write_trace};
