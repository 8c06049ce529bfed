//! OA(m) — *Optimal Available* on `m` processors (paper §3.1, Theorem 2).
//!
//! Whenever a new job arrives, OA(m) computes an optimal schedule for the
//! currently available unfinished work using the offline algorithm of
//! Section 2 (release times collapse to "now", so only deadlines matter),
//! then follows that plan until the next arrival. The paper proves this is
//! `α^α`-competitive — the same ratio as on a single processor — via a
//! potential-function argument resting on three structural facts that this
//! module's test-suite checks empirically:
//!
//! * **Lemma 7:** on arrival, the planned speed of every old job can only
//!   increase;
//! * **Lemma 8:** the per-time minimum processor speed can only increase;
//! * **Lemma 10:** growing the new job's volume never decreases any speed.
//!
//! Every function here replays an instance through an [`OaSession`], the
//! replan loop the `mpss-serve` daemon runs for each OA tenant, so these
//! checks test the code that serves.

use crate::session::OaSession;
use crate::session_core::SessionError;
use mpss_core::{Instance, JobId, ModelError, Schedule};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, NoopCollector};
use mpss_offline::optimal::{FlowEngine, OptimalResult};

/// Outcome of an OA(m) run.
#[derive(Clone, Debug)]
pub struct OaOutcome<T: FlowNum> {
    /// The complete executed schedule, in original job ids.
    pub schedule: Schedule<T>,
    /// Number of replanning events (distinct release times).
    pub replans: usize,
    /// Total max-flow computations across all replans.
    pub flow_computations: usize,
}

/// One recorded replanning event, for lemma-level inspection.
#[derive(Clone, Debug)]
pub struct PlanRecord<T: FlowNum = f64> {
    /// Time of the replan (a release event).
    pub time: T,
    /// Original job ids of the sub-instance, aligned with the plan's jobs.
    pub job_map: Vec<JobId>,
    /// The sub-instance the plan solves: the released, unfinished work
    /// with availability from `time`, in arrival order.
    pub instance: Instance<T>,
    /// The optimal plan computed for the remaining work at `time`.
    pub plan: OptimalResult<T>,
}

/// Runs OA(m) over `instance`, revealing jobs strictly by release time.
/// Works in either numeric mode — in exact rationals the whole online run,
/// including every replanned optimal schedule, is bit-exact.
pub fn oa_schedule<T: FlowNum>(instance: &Instance<T>) -> Result<OaOutcome<T>, ModelError> {
    replay(instance, FlowEngine::default(), &mut NoopCollector, None)
}

/// [`oa_schedule`] with an instrumentation [`Collector`].
///
/// Every arrival that triggers a recomputation is wrapped in a span
/// `oa.replan` — a recording collector therefore aggregates the per-arrival
/// replanning latency into the histogram `span.oa.replan.ms`. The nested
/// offline run and the session's incremental planner report through the
/// same collector (the solve's spans appear as children of `oa.replan`).
/// Counters: `oa.replans`, `oa.maxflow.invocations` and
/// `offline.incremental.*`, as every observed session arrival emits them.
pub fn oa_schedule_observed<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    obs: &mut C,
) -> Result<OaOutcome<T>, ModelError> {
    replay(instance, FlowEngine::default(), obs, None)
}

/// Like [`oa_schedule`], additionally returning every intermediate plan —
/// used by the tests that verify Lemmas 7, 8 and 10, by the potential-
/// function auditor, and by the experiment harness.
pub fn oa_schedule_with_plans<T: FlowNum>(
    instance: &Instance<T>,
) -> Result<(OaOutcome<T>, Vec<PlanRecord<T>>), ModelError> {
    let mut plans = Vec::new();
    let outcome = replay(
        instance,
        FlowEngine::default(),
        &mut NoopCollector,
        Some(&mut plans),
    )?;
    Ok((outcome, plans))
}

/// The OA(m) driver: opens an [`OaSession`] at the first release time,
/// advances it to each distinct release time and announces the jobs
/// released there, in index order, as one batch (one replan per release
/// time). Session job `s` is instance job `order[s]`; the schedule and any
/// recorded plans are mapped back to instance ids.
pub(crate) fn replay<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    engine: FlowEngine,
    obs: &mut C,
    mut plans: Option<&mut Vec<PlanRecord<T>>>,
) -> Result<OaOutcome<T>, ModelError> {
    let jobs = &instance.jobs;
    let mut order: Vec<JobId> = (0..jobs.len()).collect();
    // Stable: jobs released together keep their index order.
    order.sort_by(|&a, &b| {
        jobs[a]
            .release
            .partial_cmp(&jobs[b].release)
            .expect("comparable times")
    });
    let start = order.first().map_or_else(T::zero, |&k| jobs[k].release);
    let mut session = OaSession::with_engine(instance.m, start, engine);
    let mut batch = Vec::new();
    for released in order.chunk_by(|&a, &b| jobs[a].release == jobs[b].release) {
        session
            .advance_to(jobs[released[0]].release)
            .map_err(model_error)?;
        batch.clear();
        batch.extend(released.iter().map(|&k| (jobs[k].deadline, jobs[k].volume)));
        session
            .arrive_all(&batch, obs, plans.as_deref_mut())
            .map_err(model_error)?;
    }
    let (replans, flow_computations) = (session.replans(), session.flow_computations());
    let mut schedule = session.finish().map_err(model_error)?;
    for seg in &mut schedule.segments {
        seg.job = order[seg.job];
    }
    for id in plans.into_iter().flatten().flat_map(|p| &mut p.job_map) {
        *id = order[*id];
    }
    Ok(OaOutcome {
        schedule,
        replans,
        flow_computations,
    })
}

/// A replay announces validated jobs in release order, so its session can
/// only fail the way the instance or the solver does.
fn model_error(e: SessionError) -> ModelError {
    match e {
        SessionError::BadJob(e) | SessionError::Planning(e) => e,
        other => unreachable!("OA replay drove its session out of order: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::schedule_energy;
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_core::validate::assert_feasible;
    use mpss_numeric::rng::Rng;
    use mpss_offline::optimal_schedule;

    fn random_instance(n: usize, m: usize, horizon: u32, seed: u64) -> Instance<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let jobs = (0..n)
            .map(|_| {
                let r = rng.gen_range(0..horizon - 1) as f64;
                let span = rng.gen_range(1..=horizon - r as u32) as f64;
                job(r, r + span, rng.gen_range(1..=8) as f64)
            })
            .collect();
        Instance::new(m, jobs).unwrap()
    }

    #[test]
    fn oa_equals_opt_when_everything_is_released_at_once() {
        // No future information is missing ⇒ OA is exactly OPT.
        let ins = Instance::new(
            2,
            vec![job(0.0, 2.0, 3.0), job(0.0, 4.0, 2.0), job(0.0, 1.0, 1.0)],
        )
        .unwrap();
        let oa = oa_schedule(&ins).unwrap();
        assert_feasible(&ins, &oa.schedule, 1e-9);
        assert_eq!(oa.replans, 1);
        let p = Polynomial::new(2.0);
        let e_oa = schedule_energy(&oa.schedule, &p);
        let e_opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        assert!((e_oa - e_opt).abs() <= 1e-9 * e_opt);
    }

    #[test]
    fn oa_is_feasible_on_random_instances() {
        for seed in 0..30u64 {
            let ins = random_instance(3 + (seed as usize % 7), 1 + (seed as usize % 3), 12, seed);
            let oa = oa_schedule(&ins).unwrap();
            assert_feasible(&ins, &oa.schedule, 1e-6);
        }
    }

    #[test]
    fn oa_respects_the_alpha_alpha_bound_empirically() {
        for seed in 50..80u64 {
            let ins = random_instance(4 + (seed as usize % 6), 1 + (seed as usize % 4), 10, seed);
            for alpha in [1.5, 2.0, 3.0] {
                let p = Polynomial::new(alpha);
                let e_oa = schedule_energy(&oa_schedule(&ins).unwrap().schedule, &p);
                let e_opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
                let ratio = e_oa / e_opt;
                assert!(
                    ratio <= p.oa_bound() + 1e-6,
                    "seed {seed} α {alpha}: ratio {ratio} exceeds α^α = {}",
                    p.oa_bound()
                );
                assert!(ratio >= 1.0 - 1e-6, "OA beat OPT?! ratio {ratio}");
            }
        }
    }

    #[test]
    fn lemma7_job_speeds_never_decrease_across_replans() {
        for seed in 100..120u64 {
            let ins = random_instance(6, 2, 10, seed);
            let (_, plans) = oa_schedule_with_plans(&ins).unwrap();
            for w in plans.windows(2) {
                let (old, new) = (&w[0], &w[1]);
                for (sub_id, &orig) in old.job_map.iter().enumerate() {
                    let Some(old_speed) = old.plan.speed_of(sub_id) else {
                        continue;
                    };
                    // Find the job in the new plan (it may be finished).
                    let Some(new_sub) = new.job_map.iter().position(|&o| o == orig) else {
                        continue;
                    };
                    let Some(new_speed) = new.plan.speed_of(new_sub) else {
                        continue;
                    };
                    assert!(
                        new_speed >= old_speed - 1e-6 * old_speed.max(1.0),
                        "seed {seed}: job {orig} slowed down {old_speed} -> {new_speed}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma8_min_processor_speed_never_decreases_across_replans() {
        for seed in 150..165u64 {
            let ins = random_instance(5, 2, 10, seed);
            let (_, plans) = oa_schedule_with_plans(&ins).unwrap();
            for w in plans.windows(2) {
                let (old, new) = (&w[0], &w[1]);
                // Sample times in the overlap of both plans' horizons.
                let t0 = new.time;
                let t_end = old
                    .plan
                    .schedule
                    .segments
                    .iter()
                    .map(|s| s.end)
                    .fold(t0, f64::max);
                let steps = 16;
                for i in 0..steps {
                    let t = t0 + (t_end - t0) * (i as f64 + 0.5) / steps as f64;
                    let min_old = (0..ins.m)
                        .map(|p| old.plan.schedule.speed_at(p, t))
                        .fold(f64::INFINITY, f64::min);
                    let min_new = (0..ins.m)
                        .map(|p| new.plan.schedule.speed_at(p, t))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        min_new >= min_old - 1e-6 * min_old.max(1.0),
                        "seed {seed} t {t}: min speed dropped {min_old} -> {min_new}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma10_growing_a_volume_never_slows_any_job() {
        // Offline view of Lemma 10: raise one job's volume, all planned
        // speeds are monotone non-decreasing.
        for seed in 200..215u64 {
            let mut ins = random_instance(5, 2, 10, seed);
            for j in &mut ins.jobs {
                j.release = 0.0;
            }
            let base = optimal_schedule(&ins).unwrap();
            let mut grown = ins.clone();
            grown.jobs[0].volume += 1.0;
            let after = optimal_schedule(&grown).unwrap();
            for k in 0..ins.n() {
                let s0 = base.speed_of(k).unwrap();
                let s1 = after.speed_of(k).unwrap();
                assert!(
                    s1 >= s0 - 1e-6 * s0.max(1.0),
                    "seed {seed}: job {k} slowed {s0} -> {s1} after volume growth"
                );
            }
        }
    }

    #[test]
    fn late_surprise_job_forces_oa_above_opt() {
        // A classic OA-hurting pattern: a relaxed job gets planned slowly,
        // then an urgent job arrives and the leftovers must rush.
        let ins = Instance::new(1, vec![job(0.0, 2.0, 1.0), job(1.0, 2.0, 2.0)]).unwrap();
        let p = Polynomial::new(2.0);
        let e_oa = schedule_energy(&oa_schedule(&ins).unwrap().schedule, &p);
        let e_opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        assert!(e_oa > e_opt + 1e-9, "OA {e_oa} should exceed OPT {e_opt}");
        assert!(e_oa / e_opt <= p.oa_bound() + 1e-9);
    }

    #[test]
    fn empty_instance() {
        let ins: Instance<f64> = Instance::new(3, vec![]).unwrap();
        let oa = oa_schedule(&ins).unwrap();
        assert!(oa.schedule.is_empty());
        assert_eq!(oa.replans, 0);
    }

    #[test]
    fn replans_are_configuration_invariant_and_every_run_is_competitive() {
        use mpss_obs::RecordingCollector;
        use mpss_offline::{optimal_schedule_with, OfflineOptions};
        // A plan's phases (speeds, job sets, reservations) are unique, so
        // re-solving any replan's sub-instance under another engine or
        // warmth reproduces them bit for bit. Its packing is not unique,
        // and OA executes each plan only up to the next arrival, so whole
        // runs on different engines may leave different remaining volumes
        // and end at different energies; each is still a feasible OA(m)
        // schedule within α^α of the optimum.
        let configs = [
            (FlowEngine::Dinic, true),
            (FlowEngine::Dinic, false),
            (FlowEngine::PushRelabel, false),
            (FlowEngine::PushRelabel, true),
        ]
        .map(|(engine, warm_start)| OfflineOptions {
            engine,
            warm_start,
            ..Default::default()
        });
        let p = Polynomial::new(2.0);
        for seed in 300..312u64 {
            let ins = random_instance(6, 2, 10, seed);
            let (_, plans) = oa_schedule_with_plans(&ins).unwrap();
            let e_opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            for opts in &configs {
                for record in &plans {
                    let again = optimal_schedule_with(&record.instance, opts).unwrap();
                    let ctx = format!("seed {seed} t {} {opts:?}", record.time);
                    assert_eq!(
                        again.flow_computations, record.plan.flow_computations,
                        "{ctx}"
                    );
                    assert_eq!(again.phases.len(), record.plan.phases.len(), "{ctx}");
                    for (a, b) in again.phases.iter().zip(&record.plan.phases) {
                        assert_eq!(a.speed.to_bits(), b.speed.to_bits(), "{ctx}: speed");
                        assert_eq!((&a.jobs, &a.procs, a.rounds), (&b.jobs, &b.procs, b.rounds));
                    }
                }
            }
            for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
                let out = replay(&ins, engine, &mut NoopCollector, None).unwrap();
                assert_feasible(&ins, &out.schedule, 1e-6);
                let e = schedule_energy(&out.schedule, &p);
                assert!(
                    e >= e_opt * (1.0 - 1e-9) && e <= p.oa_bound() * e_opt * (1.0 + 1e-9),
                    "seed {seed} {engine:?}: energy {e} outside [OPT, α^α·OPT], OPT {e_opt}"
                );
            }
        }
        // Multi-arrival instance: batch OA solves on the warm-start path.
        // The greedy seed alone pushes flow, so this counter cannot tell a
        // span-seeded replan from an unseeded one; the session test
        // `replans_are_seeded_from_the_previous_plan` checks the seeding.
        let ins = Instance::new(
            1,
            vec![job(0.0, 4.0, 2.0), job(1.0, 4.0, 1.0), job(2.0, 4.0, 1.0)],
        )
        .unwrap();
        let mut rec = RecordingCollector::new();
        oa_schedule_observed(&ins, &mut rec).unwrap();
        assert!(rec.counter("maxflow.warm.reused_flow") >= 1);
    }

    #[test]
    fn observed_run_reports_replans_and_latency_histogram() {
        use mpss_obs::RecordingCollector;
        let ins = Instance::new(
            1,
            vec![job(0.0, 2.0, 1.0), job(1.0, 3.0, 2.0), job(2.5, 4.0, 1.0)],
        )
        .unwrap();
        let mut rec = RecordingCollector::new();
        let oa = oa_schedule_observed(&ins, &mut rec).unwrap();
        // Three distinct release times, all with live work ⇒ 3 recomputations.
        assert_eq!(rec.counter("oa.replans"), oa.replans as u64);
        assert_eq!(
            rec.counter("oa.maxflow.invocations"),
            oa.flow_computations as u64
        );
        // One root span per arrival, each wrapping a nested offline run.
        assert_eq!(rec.spans().len(), oa.replans);
        assert!(rec.spans().iter().all(|s| s.name == "oa.replan"
            && s.children
                .iter()
                .any(|c| c.name == "offline.optimal_schedule")));
        // The per-arrival latency histogram has one sample per replan.
        let lat = rec.histogram("span.oa.replan.ms").unwrap();
        assert_eq!(lat.count(), oa.replans as u64);
        // Observed and unobserved runs produce the same schedule.
        let plain = oa_schedule(&ins).unwrap();
        assert_eq!(plain.schedule.segments, oa.schedule.segments);
    }
}
