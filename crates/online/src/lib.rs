//! Online algorithms for multi-processor speed scaling with migration
//! (Section 3 of Albers–Antoniadis–Greiner, SPAA 2011).
//!
//! * [`oa::oa_schedule`] — **OA(m)**, *Optimal Available*: on every job
//!   arrival, recompute an optimal schedule of the remaining work with the
//!   offline flow algorithm and follow it until the next arrival.
//!   Theorem 2: `α^α`-competitive for `P(s) = s^α`.
//! * [`avr::avr_schedule`] — **AVR(m)**, *Average Rate*: in each interval,
//!   peel off jobs whose density exceeds the average load onto dedicated
//!   processors, then schedule the rest at the uniform average speed with
//!   McNaughton wrap-around (the paper's Fig. 3). Theorem 3:
//!   `(2α)^α/2 + 1`-competitive.
//! * [`bkp::bkp_schedule`] — the single-processor **BKP** algorithm of
//!   Bansal–Kimbrel–Pruhs, implemented as the extension the paper's
//!   conclusion poses as an open problem for `m > 1`.
//! * [`driver`] — shared online-simulation machinery and competitive-ratio
//!   reporting.
//!
//! Online semantics are enforced by construction: every decision at time
//! `t` reads only jobs with `release ≤ t` (plus, for each released job, its
//! own deadline and volume, which the model reveals at arrival).

//!
//! ```
//! use mpss_core::job::job;
//! use mpss_core::power::Polynomial;
//! use mpss_core::Instance;
//! use mpss_online::{avr_schedule, competitive_report, oa_schedule, OaSession};
//!
//! let instance = Instance::new(1, vec![
//!     job(0.0, 2.0, 1.0),   // relaxed... until
//!     job(1.0, 2.0, 2.0),   // ...a surprise arrival forces a sprint
//! ]).unwrap();
//!
//! let p = Polynomial::new(2.0);
//! let oa = oa_schedule(&instance).unwrap();
//! let report = competitive_report(&instance, &oa.schedule, &p, p.oa_bound()).unwrap();
//! assert!(report.ratio.unwrap() > 1.0); // OA pays for not knowing the future
//! assert!(report.within_bound());       // but never more than α^α (Theorem 2)
//!
//! let avr = avr_schedule(&instance);
//! let avr_report = competitive_report(&instance, &avr, &p, p.avr_bound()).unwrap();
//! assert!(avr_report.within_bound());   // Theorem 3
//!
//! // The same algorithm as a live session:
//! let mut session = OaSession::new(1, 0.0);
//! session.arrive(2.0, 1.0).unwrap();
//! session.advance_to(1.0).unwrap();
//! session.arrive(2.0, 2.0).unwrap();
//! let schedule = session.finish().unwrap();
//! assert!(mpss_core::validate::validate_schedule(&instance, &schedule, 1e-6).is_ok());
//! ```

// `!(a < b)` on our FlowNum types deliberately reads as "b ≤ a, treating
// incomparable (impossible for validated inputs) as false"; rewriting via
// partial_cmp would obscure the tolerance-free intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod avr;
pub mod avr_analysis;
pub mod avr_session;
pub mod bkp;
pub mod checkpoint;
pub mod driver;
pub mod eps;
pub mod oa;
pub mod potential;
pub mod session;
pub mod session_core;
pub mod session_metrics;

pub use avr::{avr_schedule, avr_schedule_observed, avr_schedule_unit};
pub use avr_analysis::{avr_proof_terms, AvrProofTerms};
pub use avr_session::AvrSession;
pub use bkp::bkp_schedule;
pub use checkpoint::{
    AvrCheckpoint, CheckpointError, CoreCheckpoint, OaCheckpoint, PlanSnapshot, CHECKPOINT_VERSION,
};
pub use driver::{
    competitive_report, competitive_report_observed, record_energy_trajectory, RatioReport,
};
pub use eps::job_is_live;
pub use oa::{oa_schedule, oa_schedule_observed, oa_schedule_with_plans};
pub use potential::{audit_oa_potential, PotentialAudit};
pub use session::{OaSession, ReplanSummary};
pub use session_core::{SessionCore, SessionError};
pub use session_metrics::SessionMetrics;
