//! Offline algorithms for multi-processor speed scaling with migration.
//!
//! The centerpiece is [`optimal_schedule`], a from-scratch implementation of
//! the combinatorial polynomial-time algorithm of Albers–Antoniadis–Greiner
//! (SPAA 2011, Fig. 2): it partitions the jobs into speed-level sets
//! `J_1, …, J_p` (speeds `s_1 > … > s_p`) phase by phase, certifying each
//! candidate set with a maximum-flow computation on the job × interval
//! network of the paper's Fig. 1 and removing one provably-wrong job per
//! failed round (Lemma 4). The schedule it produces is optimal for **every**
//! convex non-decreasing power function simultaneously; no power function is
//! consumed by the algorithm.
//!
//! Around it:
//! * [`yds`] — the Yao–Demers–Shenker single-processor optimum, implemented
//!   independently (critical-interval peeling + EDF) and used to cross-check
//!   the `m = 1` case;
//! * [`lp_baseline`] — the Bingham–Greenstreet-style linear-programming
//!   comparator built on `mpss-lp`'s simplex;
//! * [`non_migratory`] — a greedy assignment + per-processor YDS heuristic
//!   quantifying the value of migration;
//! * [`lower_bounds`] — instance lower bounds used by the experiment
//!   harness and the test-suite.

//!
//! ```
//! use mpss_core::job::job;
//! use mpss_core::energy::schedule_energy;
//! use mpss_core::power::Polynomial;
//! use mpss_core::validate::assert_feasible;
//! use mpss_core::Instance;
//! use mpss_offline::{optimal_schedule, yds_schedule};
//!
//! // Three identical tight jobs on two processors: migration lets them
//! // share a uniform speed of 3/2 (paper §1's motivating effect).
//! let instance = Instance::new(2, vec![job(0.0, 3.0, 3.0); 3]).unwrap();
//! let res = optimal_schedule(&instance).unwrap();
//! assert_feasible(&instance, &res.schedule, 1e-9);
//! assert_eq!(res.phases.len(), 1);
//! assert!((res.phases[0].speed - 1.5).abs() < 1e-12);
//!
//! // Energy under P(s) = s²: (3/2)² · 6 processor-time units.
//! let e = schedule_energy(&res.schedule, &Polynomial::new(2.0));
//! assert!((e - 13.5).abs() < 1e-9);
//!
//! // At m = 1 the flow algorithm collapses to the YDS optimum.
//! let single = Instance::new(1, instance.jobs.clone()).unwrap();
//! let a = schedule_energy(&optimal_schedule(&single).unwrap().schedule, &Polynomial::new(2.0));
//! let b = schedule_energy(&yds_schedule(&single).schedule, &Polynomial::new(2.0));
//! assert!((a - b).abs() < 1e-9);
//! ```

// `!(a < b)` on our FlowNum types deliberately reads as "b ≤ a, treating
// incomparable (impossible for validated inputs) as false"; rewriting via
// partial_cmp would obscure the tolerance-free intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod canonical;
pub mod certificate;
pub mod flow_model;
pub mod incremental;
pub mod lower_bounds;
pub mod lp_baseline;
pub mod non_migratory;
pub mod optimal;
pub mod speed_bound;
pub mod yds;

pub use incremental::{IncrementalPlanner, IncrementalStats, PreparedInstance};
pub use optimal::{
    optimal_schedule, optimal_schedule_observed, optimal_schedule_prepared, optimal_schedule_with,
    FlowEngine, OfflineOptions, OptimalResult, PhaseInfo, SeedPlan,
};
pub use yds::yds_schedule;

#[cfg(test)]
mod tests_cross;
