//! Incremental online scheduling session.
//!
//! [`OaSession`] runs OA(m) as a *driveable* session for systems that
//! discover jobs as they arrive: push arrivals with [`OaSession::arrive`],
//! advance the clock with [`OaSession::advance_to`], and query the current
//! plan at any moment. The executed history is append-only (audited by
//! `mpss-sim`'s commit-monotonicity check in the tests).
//!
//! The session is the only OA(m) replan loop in the workspace: the batch
//! [`oa_schedule`](crate::oa_schedule) opens a session, advances it to each
//! distinct release time and announces the jobs released there in one
//! batch, so a batch run is the session driven with its instance's arrival
//! sequence — in `f64` or in exact [`Rational`](mpss_numeric::Rational)
//! arithmetic. Checkpoints, metrics and history compaction serve the
//! `mpss-serve` daemon and exist for `OaSession<f64>` only.

use crate::checkpoint::{OaCheckpoint, PlanSnapshot};
use crate::eps::job_is_live;
use crate::oa::PlanRecord;
use crate::session_core::{SessionCore, SessionError};
use crate::session_metrics::SessionMetrics;
use mpss_core::{Instance, Job, JobId, Schedule};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, NoopCollector};
use mpss_offline::optimal::{optimal_schedule_prepared, FlowEngine, OfflineOptions, SeedPlan};
use mpss_offline::{IncrementalPlanner, IncrementalStats};
use std::ops::Range;

/// What one replan cost: the flight-recorder's view of a single planning
/// event, as opposed to the session-lifetime aggregates
/// ([`OaSession::replan_work`], [`OaSession::flow_computations`]). Not part
/// of checkpoints — like metrics handles, it describes the process, not the
/// schedule state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplanSummary {
    /// Wall-clock latency of the replan, seconds.
    pub latency_s: f64,
    /// Machine-independent derivation work this replan charged
    /// ([`work_ops`](mpss_offline::OptimalResult::work_ops)).
    pub work_ops: u64,
    /// Network arcs patched incrementally by this replan (0 for scratch
    /// solves).
    pub patched_arcs: u64,
    /// Max-flow computations this replan ran.
    pub flow_computations: u64,
    /// Jobs with remaining work when the replan ran.
    pub live_jobs: usize,
}

/// A live OA(m) scheduling session, in `f64` (the default) or in exact
/// [`Rational`](mpss_numeric::Rational) arithmetic.
///
/// ```
/// use mpss_online::OaSession;
///
/// let mut session = OaSession::new(2, 0.0);
/// session.arrive(4.0, 3.0).unwrap();   // (deadline, volume), released now
/// session.advance_to(1.0).unwrap();    // execute the plan over [0, 1)
/// session.arrive(3.0, 2.0).unwrap();   // a surprise arrival replans
/// assert_eq!(session.replans(), 2);
/// let schedule = session.finish().unwrap();
/// assert!(schedule.total_work() > 4.9);
/// ```
pub struct OaSession<T: FlowNum = f64> {
    /// Clock, job table, executed history, compaction tally and metrics.
    core: SessionCore<T>,
    /// Remaining volume per job, parallel to the core's job table.
    remaining: Vec<T>,
    /// The plan currently being followed (over session job ids).
    plan: Option<PlanSnapshot<T>>,
    /// The max-flow engine replans solve with (fixed per session: a
    /// checkpointed session must resume on the same engine to stay
    /// bit-identical).
    engine: FlowEngine,
    replans: usize,
    /// Max-flow computations across all replans (the session-level view of
    /// the `offline.maxflow.invocations` / `oa.maxflow.invocations` work
    /// counters).
    flow_computations: usize,
    /// Incremental derivation planner (lazily primed). Deliberately *not*
    /// checkpointed: `sync` is a pure function of the live set, so a
    /// restored session's first replan rebuilds it and every later replan
    /// is bit-identical to the uninterrupted session's.
    planner: Option<IncrementalPlanner<T>>,
    /// Whether replans maintain the partition incrementally (default) or
    /// re-derive it from scratch (the original pipeline, kept as an oracle
    /// for the differential tests and benchmarks).
    incremental: bool,
    /// Cumulative per-sync accounting of the incremental planner.
    incremental_stats: IncrementalStats,
    /// Machine-independent derivation work across all replans
    /// ([`OptimalResult::work_ops`](mpss_offline::OptimalResult::work_ops)
    /// summed) — the currency the incremental-vs-scratch benchmarks compare.
    replan_work: u64,
    /// The most recent replan's cost summary (see [`ReplanSummary`]).
    last_replan: Option<ReplanSummary>,
}

impl<T: FlowNum> OaSession<T> {
    /// Opens a session on `m` processors with the clock at `start`,
    /// replanning on the default max-flow engine (Dinic).
    pub fn new(m: usize, start: T) -> OaSession<T> {
        OaSession::with_engine(m, start, FlowEngine::default())
    }

    /// Opens a session replanning on a specific max-flow engine. The engine
    /// is fixed for the session's lifetime and recorded in checkpoints:
    /// bit-identical restore requires resuming on the same engine.
    pub fn with_engine(m: usize, start: T, engine: FlowEngine) -> OaSession<T> {
        OaSession {
            core: SessionCore::new(m, start),
            remaining: Vec::new(),
            plan: None,
            engine,
            replans: 0,
            flow_computations: 0,
            planner: None,
            incremental: true,
            incremental_stats: IncrementalStats::default(),
            replan_work: 0,
            last_replan: None,
        }
    }

    fn publish_metrics(&self) {
        if let Some(metrics) = &self.core.metrics {
            let mut active = 0usize;
            let mut queued = T::zero();
            for (k, job) in self.core.jobs().iter().enumerate() {
                if job_is_live(self.remaining[k], job.volume) {
                    active += 1;
                    queued += self.remaining[k];
                }
            }
            let speeds: Vec<f64> = self.current_speeds().into_iter().map(T::to_f64).collect();
            metrics.publish(self.core.now().to_f64(), active, queued.to_f64(), &speeds);
        }
    }

    /// The clock, job table, executed history and compaction tally.
    pub fn core(&self) -> &SessionCore<T> {
        &self.core
    }

    /// Mutable access to the core, e.g. to
    /// [`compact_history`](SessionCore::compact_history).
    pub fn core_mut(&mut self) -> &mut SessionCore<T> {
        &mut self.core
    }

    /// Number of replans so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Total max-flow computations performed by the session's replans.
    pub fn flow_computations(&self) -> usize {
        self.flow_computations
    }

    /// The max-flow engine this session replans with.
    pub fn engine(&self) -> FlowEngine {
        self.engine
    }

    /// Switches incremental partition maintenance on or off (on by
    /// default). Purely a work knob: either way the replans are
    /// bit-identical — scratch mode exists as the oracle the differential
    /// tests and the `exp_incremental_replan` benchmark compare against.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            self.planner = None;
        }
    }

    /// Whether replans maintain the partition incrementally.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Cumulative incremental-planner accounting across all replans
    /// (all-zero while [`incremental`](OaSession::incremental) is off).
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.incremental_stats
    }

    /// Machine-independent derivation work spent by all replans so far
    /// (summed [`work_ops`](mpss_offline::OptimalResult::work_ops)).
    pub fn replan_work(&self) -> u64 {
        self.replan_work
    }

    /// Announces a job arriving *now* (its release must equal or precede
    /// the current clock by at most a rounding hair) and replans. Returns
    /// the session id assigned to the job.
    ///
    /// Error paths are metrics-neutral: a rejected arrival (bad job,
    /// planning failure) leaves the session — job list, replan counter,
    /// and every attached metric — exactly as it was.
    pub fn arrive(&mut self, deadline: T, volume: T) -> Result<JobId, SessionError> {
        self.arrive_observed(deadline, volume, &mut NoopCollector)
    }

    /// [`arrive`](OaSession::arrive) with the replan's solver events
    /// streamed into `obs` — e.g. a
    /// [`TraceCollector`](mpss_obs::TraceCollector) armed per-replan for
    /// slow-replan exemplar capture. The whole replan runs inside an
    /// `oa.replan` span; the collector changes nothing about the schedule
    /// (observed and unobserved arrivals are bit-identical).
    pub fn arrive_observed<C: Collector>(
        &mut self,
        deadline: T,
        volume: T,
        obs: &mut C,
    ) -> Result<JobId, SessionError> {
        self.arrive_all(&[(deadline, volume)], obs, None)
            .map(|ids| ids.start)
    }

    /// Announces every `(deadline, volume)` of `batch` as released now and
    /// replans once; returns the session ids assigned, in batch order.
    /// [`arrive`](OaSession::arrive) is its one-job case. All or nothing: a
    /// malformed job or a failed replan leaves the session and its metrics
    /// exactly as they were.
    ///
    /// With `plans`, the replan's sub-instance and full offline result are
    /// appended to it (over session ids) — only
    /// [`oa_schedule_with_plans`](crate::oa_schedule_with_plans) asks;
    /// without, nothing beyond the followed plan is kept.
    pub(crate) fn arrive_all<C: Collector>(
        &mut self,
        batch: &[(T, T)],
        obs: &mut C,
        plans: Option<&mut Vec<PlanRecord<T>>>,
    ) -> Result<Range<JobId>, SessionError> {
        let ids = self.core.announce(batch)?;
        for &(_, volume) in batch {
            self.remaining.push(volume);
            obs.instant("oa.arrival");
        }
        obs.span_start("oa.replan");
        let replanned = self.replan(obs, plans);
        obs.span_end("oa.replan");
        if let Err(e) = replanned {
            // Unwind so the failed arrivals leave no trace (the replan
            // itself touched no state or metrics on its error path).
            self.core.retract(ids.start);
            self.remaining.truncate(ids.start);
            return Err(e);
        }
        if let Some(metrics) = &self.core.metrics {
            for _ in ids.clone() {
                metrics.on_arrival();
            }
        }
        Ok(ids)
    }

    /// The most recent replan's cost summary (`None` before the first
    /// replan). Like metrics, this is process-level state: checkpoints do
    /// not carry it.
    pub fn last_replan(&self) -> Option<ReplanSummary> {
        self.last_replan
    }

    /// Takes the most recent replan's summary, leaving `None` — the daemon
    /// drains this into the flight recorder exactly once per replan.
    pub fn take_last_replan(&mut self) -> Option<ReplanSummary> {
        self.last_replan.take()
    }

    /// Advances the clock to `t`, executing the current plan over
    /// `[now, t)` and committing it to history.
    pub fn advance_to(&mut self, t: T) -> Result<(), SessionError> {
        self.core.check_clock(t)?;
        let window = match &self.plan {
            Some(plan) => {
                let mut window = plan.schedule.restrict(self.core.now(), t).segments;
                for seg in &mut window {
                    seg.job = plan.job_map[seg.job];
                    self.remaining[seg.job] -= seg.work();
                }
                window
            }
            None => Vec::new(),
        };
        self.core.commit(window, t);
        self.publish_metrics();
        Ok(())
    }

    /// The speed each processor is running at right now (0 = idle).
    pub fn current_speeds(&self) -> Vec<T> {
        let (m, now) = (self.core.m(), self.core.now());
        match &self.plan {
            Some(plan) => (0..m).map(|p| plan.schedule.speed_at(p, now)).collect(),
            None => vec![T::zero(); m],
        }
    }

    /// The planned speed of a session job (None once finished or unknown).
    pub fn planned_speed(&self, job: JobId) -> Option<T> {
        let plan = self.plan.as_ref()?;
        let sub = plan.job_map.iter().position(|&o| o == job)?;
        plan.speeds.get(sub).copied().flatten()
    }

    /// Remaining volume of a session job.
    pub fn remaining_volume(&self, job: JobId) -> Option<T> {
        self.remaining.get(job).copied()
    }

    /// Runs the session to completion (the latest deadline) and returns the
    /// full executed schedule (from the compaction watermark on, if
    /// [`compact_history`](SessionCore::compact_history) has run).
    pub fn finish(mut self) -> Result<Schedule<T>, SessionError> {
        self.advance_to(self.core.horizon())?;
        debug_assert!(
            self.core
                .jobs()
                .iter()
                .zip(&self.remaining)
                .all(|(job, &left)| T::close(left, T::zero(), job.volume, 1e-6)),
            "OA left unfinished work: {:?}",
            self.remaining
        );
        Ok(self.core.into_schedule())
    }

    /// Surviving jobs' future execution spans under the current plan,
    /// re-indexed to the new sub-instance's job ids. A warm-start hint
    /// only: a seeded solve has the same phases as a cold one (the seed is
    /// clipped to capacities and re-augmented to maximality), but its
    /// packing, and so the history the session executes, may differ.
    fn span_seed(&self, job_map: &[JobId]) -> Option<SeedPlan<T>> {
        let plan = self.plan.as_ref()?;
        // One pass over the old plan's segments: map each segment's job back
        // to its position in the *new* sub-instance (if still live) instead
        // of rescanning the segment list per job.
        let mut new_pos = vec![usize::MAX; self.core.job_count()];
        for (i, &orig) in job_map.iter().enumerate() {
            new_pos[orig] = i;
        }
        let mut spans: Vec<Vec<(T, T)>> = vec![Vec::new(); job_map.len()];
        let mut any = false;
        let now = self.core.now();
        for seg in &plan.schedule.segments {
            let i = new_pos[plan.job_map[seg.job]];
            if i != usize::MAX && seg.end > now {
                spans[i].push((seg.start.max2(now), seg.end));
                any = true;
            }
        }
        any.then_some(SeedPlan { spans })
    }

    fn replan<C: Collector>(
        &mut self,
        obs: &mut C,
        plans: Option<&mut Vec<PlanRecord<T>>>,
    ) -> Result<(), SessionError> {
        // Always timed: the flight recorder wants every replan's latency,
        // and one monotonic-clock read is noise next to a solve.
        let started = std::time::Instant::now();
        let now = self.core.now();
        let mut job_map = Vec::new();
        let mut sub_jobs = Vec::new();
        for (k, job) in self.core.jobs().iter().enumerate() {
            if job_is_live(self.remaining[k], job.volume) {
                job_map.push(k);
                sub_jobs.push(Job::new(now, job.deadline, self.remaining[k]));
            }
        }
        let live_jobs = job_map.len();
        let mut summary = ReplanSummary {
            live_jobs,
            ..ReplanSummary::default()
        };
        // Counters move only after the solve succeeds, so an error leaves
        // the session (and its metrics) untouched.
        let new_plan = if sub_jobs.is_empty() {
            None
        } else {
            // Validate before the planner sync so a rejected sub-instance
            // leaves the incremental state untouched.
            let sub = Instance::new(self.core.m(), sub_jobs).map_err(SessionError::Planning)?;
            let options = OfflineOptions {
                engine: self.engine,
                ..OfflineOptions::default()
            };
            let seed = self.span_seed(&job_map);
            // `job_map` ascends, so (session id, deadline) is a valid
            // planner live set; sub-instance job `i` is `job_map[i]`.
            let sync = if self.incremental {
                let jobs = self.core.jobs();
                let live: Vec<(usize, T)> =
                    job_map.iter().map(|&k| (k, jobs[k].deadline)).collect();
                let planner = self.planner.get_or_insert_with(IncrementalPlanner::new);
                Some(planner.sync_observed(now, &live, obs))
            } else {
                None
            };
            let result = optimal_schedule_prepared(
                &sub,
                &options,
                seed.as_ref(),
                sync.as_ref().map(|(prepared, _)| prepared),
                obs,
            )
            .map_err(SessionError::Planning)?;
            self.flow_computations += result.flow_computations;
            self.replan_work += result.work_ops as u64;
            summary.work_ops = result.work_ops as u64;
            summary.flow_computations = result.flow_computations as u64;
            if let Some((_, stats)) = sync {
                summary.patched_arcs = stats.patched_arcs;
                self.incremental_stats.absorb(stats);
            }
            let speeds = (0..job_map.len()).map(|k| result.speed_of(k)).collect();
            if let Some(plans) = plans {
                plans.push(PlanRecord {
                    time: now,
                    job_map: job_map.clone(),
                    instance: sub,
                    plan: result.clone(),
                });
            }
            Some(PlanSnapshot {
                job_map,
                schedule: result.schedule,
                speeds,
            })
        };
        self.plan = new_plan;
        self.replans += 1;
        obs.count("oa.replans", 1);
        obs.count("oa.maxflow.invocations", summary.flow_computations);
        summary.latency_s = started.elapsed().as_secs_f64();
        self.last_replan = Some(summary);
        if let Some(metrics) = &self.core.metrics {
            metrics.on_replan(summary.latency_s);
        }
        self.publish_metrics();
        Ok(())
    }
}

impl OaSession {
    /// Attaches a live metrics bundle (see [`SessionMetrics::register`]).
    /// From now on arrivals, replans (with wall-clock latency), and every
    /// clock movement publish to the bundle's gauges; an unattached session
    /// touches no metrics at all.
    pub fn attach_metrics(&mut self, metrics: SessionMetrics) {
        self.core.metrics = Some(metrics);
        self.publish_metrics();
    }

    /// Freezes the full session state into a serializable, versioned
    /// [`OaCheckpoint`]. See [`crate::checkpoint`] for the format rules and
    /// the bit-identity contract; metrics handles are *not* part of the
    /// state — re-attach with
    /// [`attach_metrics`](OaSession::attach_metrics) after
    /// [`restore`](OaSession::restore).
    pub fn checkpoint(&self) -> OaCheckpoint {
        OaCheckpoint {
            core: self.core.checkpoint(),
            engine: self.engine.name().to_string(),
            remaining: self.remaining.clone(),
            plan: self.plan.clone(),
            replans: self.replans,
            flow_computations: self.flow_computations,
        }
    }

    /// Resumes a session from a checkpoint, bit-identically: driving the
    /// restored session replays exactly what the original would have
    /// executed, and its counters ([`replans`](OaSession::replans),
    /// [`flow_computations`](OaSession::flow_computations)) continue from
    /// the checkpointed values.
    pub fn restore(checkpoint: OaCheckpoint) -> Result<OaSession, SessionError> {
        let engine = checkpoint.validate().map_err(SessionError::Checkpoint)?;
        Ok(OaSession {
            core: SessionCore::restore(checkpoint.core),
            remaining: checkpoint.remaining,
            plan: checkpoint.plan,
            engine,
            replans: checkpoint.replans,
            flow_computations: checkpoint.flow_computations,
            planner: None,
            incremental: true,
            incremental_stats: IncrementalStats::default(),
            replan_work: 0,
            last_replan: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oa::oa_schedule;
    use mpss_core::job::job;
    use mpss_core::validate::assert_feasible;

    #[test]
    fn session_replays_batch_oa_exactly() {
        // Jobs listed out of release order: the batch run announces jobs 1
        // and 2 together at t = 0 and job 0 at t = 1, so session ids
        // 0, 1, 2 are instance jobs 1, 2, 0.
        let ins = Instance::new(
            2,
            vec![job(1.0, 3.0, 2.0), job(0.0, 4.0, 3.0), job(0.0, 2.0, 2.0)],
        )
        .unwrap();
        let batch = oa_schedule(&ins).unwrap();

        let mut session = OaSession::new(2, 0.0);
        let ids = session
            .arrive_all(&[(4.0, 3.0), (2.0, 2.0)], &mut NoopCollector, None)
            .unwrap();
        assert_eq!(ids, 0..2);
        session.advance_to(1.0).unwrap();
        assert_eq!(session.arrive(3.0, 2.0).unwrap(), 2);
        assert_eq!(session.replans(), batch.replans);
        assert_eq!(session.flow_computations(), batch.flow_computations);
        let mut sched = session.finish().unwrap();
        let instance_id = [1, 2, 0];
        for seg in &mut sched.segments {
            seg.job = instance_id[seg.job];
        }
        assert_feasible(&ins, &sched, 1e-6);
        assert_eq!(sched.segments, batch.schedule.segments);
    }

    #[test]
    fn replans_are_seeded_from_the_previous_plan() {
        use mpss_obs::RecordingCollector;
        let mut session = OaSession::new(1, 0.0);
        session
            .arrive_all(&[(4.0, 2.0), (3.0, 1.0)], &mut NoopCollector, None)
            .unwrap();
        session.advance_to(1.0).unwrap();
        // Both jobs still have planned time after t = 1, clipped to now.
        let mut seed = session.span_seed(&[0, 1]).expect("survivors' spans");
        assert!(seed
            .spans
            .iter()
            .all(|spans| !spans.is_empty() && spans.iter().all(|&(a, b)| 1.0 <= a && a < b)));
        // The arriving job has no past plan.
        seed.spans.push(Vec::new());
        let mut rec = RecordingCollector::new();
        let mut plans = Vec::new();
        session
            .arrive_all(&[(2.0, 1.0)], &mut rec, Some(&mut plans))
            .unwrap();
        assert_eq!(plans[0].job_map, [0, 1, 2]);
        // The replan did the seeded solve's Dinic work, which on this
        // instance differs from an unseeded solve's.
        let augmenting_paths = |seed: Option<&SeedPlan<f64>>| {
            let mut solve = RecordingCollector::new();
            let opts = OfflineOptions::default();
            optimal_schedule_prepared(&plans[0].instance, &opts, seed, None, &mut solve).unwrap();
            solve.counter("maxflow.dinic.augmenting_paths")
        };
        assert_eq!(
            rec.counter("maxflow.dinic.augmenting_paths"),
            augmenting_paths(Some(&seed))
        );
        assert_ne!(augmenting_paths(Some(&seed)), augmenting_paths(None));
    }

    #[test]
    fn executed_history_is_append_only() {
        let mut session = OaSession::new(1, 0.0);
        session.arrive(4.0, 2.0).unwrap();
        session.advance_to(1.0).unwrap();
        let snap1 = (1.0, session.core().executed().clone());
        session.arrive(2.0, 1.5).unwrap();
        session.advance_to(2.0).unwrap();
        let snap2 = (2.0, session.core().executed().clone());
        session.advance_to(4.0).unwrap();
        let snap3 = (4.0, session.core().executed().clone());
        mpss_sim::audit_commit_monotonicity(&[snap1, snap2, snap3])
            .expect("history must be append-only");
    }

    #[test]
    fn speeds_rise_on_arrivals_never_fall() {
        let mut session = OaSession::new(1, 0.0);
        let j0 = session.arrive(4.0, 2.0).unwrap();
        let s_before = session.planned_speed(j0).unwrap();
        session.advance_to(1.0).unwrap();
        session.arrive(2.0, 3.0).unwrap(); // urgent surprise
        let s_after = session.planned_speed(j0).unwrap();
        assert!(
            s_after >= s_before - 1e-9,
            "Lemma 7 in the session API: {s_before} -> {s_after}"
        );
        assert!(s_after > s_before, "the surprise should actually raise it");
    }

    #[test]
    fn clock_and_arrival_errors() {
        let mut session = OaSession::new(1, 5.0);
        assert!(matches!(
            session.advance_to(4.0),
            Err(SessionError::TimeWentBackwards { .. })
        ));
        assert!(matches!(
            session.arrive(5.0, 1.0), // deadline == now: empty window
            Err(SessionError::BadJob(_))
        ));
        assert!(matches!(
            session.arrive(6.0, -1.0),
            Err(SessionError::BadJob(_))
        ));
    }

    #[test]
    fn idle_session_reports_zero_speeds() {
        let session = OaSession::new(3, 0.0);
        assert_eq!(session.current_speeds(), vec![0.0, 0.0, 0.0]);
        assert_eq!(session.replans(), 0);
    }

    #[test]
    fn attached_metrics_track_arrivals_replans_and_the_clock() {
        use mpss_obs::{MetricsHub, SnapshotValue};
        let hub = MetricsHub::new();
        let mut session = OaSession::new(2, 0.0);
        session.attach_metrics(crate::SessionMetrics::register(&hub, "oa", 2));
        session.arrive(4.0, 3.0).unwrap();
        session.arrive(2.0, 2.0).unwrap();
        session.advance_to(1.0).unwrap();

        let value = |name: &str| {
            hub.snapshot()
                .into_iter()
                .find(|row| row.name == name)
                .unwrap_or_else(|| panic!("{name} not registered"))
                .value
        };
        match value("mpss_session_arrivals_total") {
            SnapshotValue::Counter(n) => assert_eq!(n, 2),
            other => panic!("arrivals: {other:?}"),
        }
        match value("mpss_session_replans_total") {
            SnapshotValue::Counter(n) => assert_eq!(n, session.replans() as u64),
            other => panic!("replans: {other:?}"),
        }
        match value("mpss_session_clock") {
            SnapshotValue::Gauge(t) => assert_eq!(t, 1.0),
            other => panic!("clock: {other:?}"),
        }
        match value("mpss_session_active_jobs") {
            SnapshotValue::Gauge(n) => assert_eq!(n, 2.0),
            other => panic!("active: {other:?}"),
        }
        match value("mpss_session_replan_seconds") {
            SnapshotValue::Histogram { count, .. } => {
                assert_eq!(count, session.replans() as u64)
            }
            other => panic!("latency: {other:?}"),
        }
    }

    #[test]
    fn metered_and_unmetered_sessions_schedule_identically() {
        let drive = |metered: bool| {
            let mut session = OaSession::new(2, 0.0);
            if metered {
                let hub = mpss_obs::MetricsHub::new();
                session.attach_metrics(crate::SessionMetrics::register(&hub, "oa", 2));
            }
            session.arrive(4.0, 3.0).unwrap();
            session.advance_to(1.0).unwrap();
            session.arrive(3.0, 2.0).unwrap();
            session.finish().unwrap()
        };
        assert_eq!(drive(false).segments, drive(true).segments);
    }

    #[test]
    fn failed_arrivals_are_metrics_neutral() {
        use mpss_obs::{MetricsHub, SnapshotValue};
        let hub = MetricsHub::new();
        let mut session = OaSession::new(1, 0.0);
        session.attach_metrics(crate::SessionMetrics::register(&hub, "oa", 1));
        session.arrive(4.0, 2.0).unwrap();
        session.advance_to(1.0).unwrap();
        let replans_before = session.replans();
        let flows_before = session.flow_computations();

        // deadline == now: empty window, rejected before any state moves.
        assert!(matches!(
            session.arrive(1.0, 1.0),
            Err(SessionError::BadJob(_))
        ));
        assert!(matches!(
            session.arrive(5.0, -3.0),
            Err(SessionError::BadJob(_))
        ));
        // One bad job sinks its whole batch, the good job included.
        assert!(matches!(
            session.arrive_all(&[(3.0, 1.0), (1.0, 1.0)], &mut NoopCollector, None),
            Err(SessionError::BadJob(_))
        ));

        assert_eq!(session.core().job_count(), 1);
        assert_eq!(session.replans(), replans_before);
        assert_eq!(session.flow_computations(), flows_before);
        let value = |name: &str| {
            hub.snapshot()
                .into_iter()
                .find(|row| row.name == name)
                .unwrap_or_else(|| panic!("{name} not registered"))
                .value
        };
        match value("mpss_session_arrivals_total") {
            SnapshotValue::Counter(n) => assert_eq!(n, 1, "failed arrivals must not count"),
            other => panic!("arrivals: {other:?}"),
        }
        match value("mpss_session_replans_total") {
            SnapshotValue::Counter(n) => assert_eq!(n, replans_before as u64),
            other => panic!("replans: {other:?}"),
        }
        // The session still schedules correctly afterwards.
        session.arrive(3.0, 1.0).unwrap();
        assert_eq!(session.replans(), replans_before + 1);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let drive_prefix = |session: &mut OaSession| {
            session.arrive(4.0, 3.0).unwrap();
            session.arrive(2.0, 2.0).unwrap();
            session.advance_to(1.0).unwrap();
        };
        let drive_suffix = |mut session: OaSession| {
            session.arrive(3.0, 2.0).unwrap();
            session.advance_to(2.5).unwrap();
            (
                session.replans(),
                session.flow_computations(),
                session.finish().unwrap(),
            )
        };

        let mut uninterrupted = OaSession::new(2, 0.0);
        drive_prefix(&mut uninterrupted);
        let expected = drive_suffix(uninterrupted);

        let mut killed = OaSession::new(2, 0.0);
        drive_prefix(&mut killed);
        let frozen = killed.checkpoint().to_json().render();
        drop(killed);
        let thawed =
            OaCheckpoint::from_json(&mpss_obs::json::Json::parse(&frozen).unwrap()).unwrap();
        let restored = OaSession::restore(thawed).unwrap();
        let actual = drive_suffix(restored);

        assert_eq!(expected.0, actual.0, "replan counters diverged");
        assert_eq!(expected.1, actual.1, "flow-computation counters diverged");
        assert_eq!(
            expected.2.segments, actual.2.segments,
            "executed schedules diverged"
        );
    }

    #[test]
    fn restore_rejects_corrupt_checkpoints() {
        let mut session = OaSession::new(1, 0.0);
        session.arrive(2.0, 1.0).unwrap();
        let mut cp = session.checkpoint();
        cp.core.version += 1;
        assert!(matches!(
            OaSession::restore(cp),
            Err(SessionError::Checkpoint(_))
        ));
        let mut cp = session.checkpoint();
        cp.engine = "abacus".into();
        assert!(OaSession::restore(cp).is_err());
    }

    #[test]
    fn engine_choice_survives_checkpoints() {
        use mpss_offline::FlowEngine;
        let mut session = OaSession::with_engine(1, 0.0, FlowEngine::PushRelabel);
        session.arrive(2.0, 1.0).unwrap();
        let restored = OaSession::restore(session.checkpoint()).unwrap();
        assert_eq!(restored.engine(), FlowEngine::PushRelabel);
    }

    #[test]
    fn incremental_replans_match_scratch_bit_for_bit() {
        // A long arrival stream with a growing live set: the incremental
        // session must execute the exact same schedule as the scratch
        // oracle, for strictly less derivation work.
        let drive = |incremental: bool| {
            let mut s = OaSession::new(2, 0.0);
            s.set_incremental(incremental);
            for k in 0..16u32 {
                s.advance_to(k as f64).unwrap();
                s.arrive(40.0 + k as f64, 2.0).unwrap();
            }
            // Drain a few completions into the mix.
            s.advance_to(30.0).unwrap();
            s.arrive(45.0, 1.0).unwrap();
            (
                s.replans(),
                s.flow_computations(),
                s.replan_work(),
                s.incremental_stats(),
                s.finish().unwrap(),
            )
        };
        let (inc_replans, inc_flows, inc_work, inc_stats, inc_sched) = drive(true);
        let (scr_replans, scr_flows, scr_work, scr_stats, scr_sched) = drive(false);
        assert_eq!(inc_sched.segments, scr_sched.segments, "plans diverged");
        assert_eq!(inc_replans, scr_replans);
        assert_eq!(inc_flows, scr_flows);
        assert_eq!(scr_stats, mpss_offline::IncrementalStats::default());
        assert_eq!(inc_stats.rebuilt, 1, "only the first sync rebuilds");
        assert!(inc_stats.patched_arcs > 0);
        assert!(inc_stats.reused_intervals > 0);
        assert!(
            inc_work < scr_work,
            "incremental derivation {inc_work} ops must undercut scratch {scr_work}"
        );
    }

    #[test]
    fn failed_arrival_leaves_the_planner_consistent() {
        // An arrival rejected by validation must not desync the planner:
        // the next good arrival still plans identically to scratch.
        let mut inc = OaSession::new(1, 0.0);
        inc.arrive(4.0, 2.0).unwrap();
        inc.advance_to(1.0).unwrap();
        assert!(inc.arrive(1.0, 1.0).is_err()); // deadline == now
        inc.arrive(3.0, 1.0).unwrap();

        let mut scratch = OaSession::new(1, 0.0);
        scratch.set_incremental(false);
        scratch.arrive(4.0, 2.0).unwrap();
        scratch.advance_to(1.0).unwrap();
        scratch.arrive(3.0, 1.0).unwrap();

        assert_eq!(
            inc.finish().unwrap().segments,
            scratch.finish().unwrap().segments
        );
    }

    #[test]
    fn current_speeds_reflect_the_plan() {
        let mut session = OaSession::new(2, 0.0);
        session.arrive(2.0, 4.0).unwrap();
        session.arrive(2.0, 4.0).unwrap();
        let speeds = session.current_speeds();
        // Two jobs, two processors: both run at density 2.
        assert_eq!(speeds.len(), 2);
        for s in speeds {
            assert!((s - 2.0).abs() < 1e-9, "speed {s}");
        }
    }
}
