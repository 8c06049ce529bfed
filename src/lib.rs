//! # mpss — Multi-Processor Speed Scaling with migration
//!
//! A from-scratch Rust implementation of
//! *"On multi-processor speed scaling with migration"* by Susanne Albers,
//! Antonios Antoniadis and Gero Greiner (SPAA 2011; JCSS 2015):
//!
//! * the **combinatorial optimal offline algorithm** (max-flow based,
//!   polynomial time, optimal for every convex non-decreasing power
//!   function) — [`offline::optimal_schedule`];
//! * the online algorithms **OA(m)** (`α^α`-competitive) and **AVR(m)**
//!   (`(2α)^α/2 + 1`-competitive) — [`online::oa_schedule`],
//!   [`online::avr_schedule`];
//! * every substrate they rest on, built in-workspace: max-flow engines,
//!   a simplex LP solver (for the Bingham–Greenstreet baseline), exact
//!   rational arithmetic, YDS, workload generators, and an independent
//!   schedule validator.
//!
//! ## Quickstart
//!
//! ```
//! use mpss::prelude::*;
//!
//! // Three jobs on two processors: (release, deadline, volume).
//! let instance = Instance::new(2, vec![
//!     job(0.0, 2.0, 3.0),
//!     job(0.0, 4.0, 2.0),
//!     job(1.0, 3.0, 2.0),
//! ]).unwrap();
//!
//! // Optimal offline schedule (optimal for EVERY convex power function).
//! let opt = optimal_schedule(&instance).unwrap();
//! assert_feasible(&instance, &opt.schedule, 1e-9);
//!
//! // Energy under the cube-root rule P(s) = s³.
//! let energy = schedule_energy(&opt.schedule, &Polynomial::cube());
//! assert!(energy > 0.0);
//!
//! // Online algorithms never beat OPT and respect their theorems' bounds.
//! let oa = oa_schedule(&instance).unwrap();
//! let e_oa = schedule_energy(&oa.schedule, &Polynomial::cube());
//! assert!(e_oa >= energy - 1e-9);
//! assert!(e_oa <= Polynomial::cube().oa_bound() * energy + 1e-9);
//! ```

pub use mpss_core as model;
pub use mpss_lp as lp;
pub use mpss_maxflow as maxflow;
pub use mpss_numeric as numeric;
pub use mpss_obs as obs;
pub use mpss_offline as offline;
pub use mpss_online as online;
pub use mpss_par as par;
pub use mpss_serve as serve;
pub use mpss_sim as sim;
pub use mpss_workloads as workloads;

pub mod batch;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use mpss_core::energy::{schedule_energy, schedule_energy_exact};
    pub use mpss_core::job::job;
    pub use mpss_core::power::{AffinePolynomial, Exponential, PiecewiseLinear, Polynomial};
    pub use mpss_core::validate::{assert_feasible, validate_schedule};
    pub use mpss_core::{Instance, Intervals, Job, JobId, PowerFunction, Schedule, Segment};
    pub use mpss_numeric::{FlowNum, Rational};
    pub use mpss_obs::{
        diff_bench_trajectory, diff_reports, http_get, parse_exposition, validate_chrome_trace,
        BenchGate, Collector, DiffOptions, MetricsHub, MetricsServer, NoopCollector,
        RecordingCollector, TraceCollector,
    };
    pub use mpss_offline::canonical::canonicalize;
    pub use mpss_offline::certificate::verify_certificate;
    pub use mpss_offline::lower_bounds::{best_lower_bound, per_job_lower_bound};
    pub use mpss_offline::lp_baseline::lp_baseline;
    pub use mpss_offline::non_migratory::{non_migratory_schedule, AssignPolicy};
    pub use mpss_offline::speed_bound::{feasible_at_cap, minimum_peak_speed};
    pub use mpss_offline::{
        optimal_schedule, optimal_schedule_observed, optimal_schedule_with, yds_schedule,
        FlowEngine, OfflineOptions, SeedPlan,
    };
    pub use mpss_online::{
        audit_oa_potential, avr_proof_terms, avr_schedule, avr_schedule_observed, bkp_schedule,
        competitive_report, competitive_report_observed, oa_schedule, oa_schedule_observed,
        record_energy_trajectory, AvrCheckpoint, AvrSession, OaCheckpoint, OaSession, SessionError,
        SessionMetrics,
    };
    pub use mpss_par::ThreadPool;
    pub use mpss_serve::{serve_tcp, Daemon, DaemonConfig};
    pub use mpss_workloads::{instance_stats, Family, WorkloadSpec};

    pub use crate::batch::{solve_many, solve_many_observed, BatchOutput};
}
