//! The combinatorial optimal offline algorithm (paper Fig. 2, Theorem 1).
//!
//! The algorithm constructs an optimal schedule in *phases*. Phase `i`
//! identifies the set `J_i` of jobs that an optimal schedule runs at the
//! `i`-th highest speed `s_i`:
//!
//! 1. start with the estimate `J` = all jobs not yet placed in earlier
//!    phases (invariant of Lemma 4: `J_i ⊆ J` always);
//! 2. reserve `m_j = min{n_j, m − Σ_{l<i} m_lj}` processors in every
//!    interval `I_j` (Lemma 3), where `n_j` counts jobs of `J` active in
//!    `I_j`;
//! 3. conjecture the uniform speed `s = W/P` with `W = Σ_{J} w_k` and
//!    `P = Σ_j m_j |I_j|`;
//! 4. build the Fig. 1 network `G(J, m⃗, s)` and compute a maximum flow. If
//!    it saturates the target `F_G = P`, the estimate is correct: `J_i = J`,
//!    and the flow *is* a feasible assignment of per-interval execution
//!    times. Otherwise some interval vertex is deficient; a job edge into it
//!    carrying less than `|I_j|` flow identifies a job that provably does
//!    not belong to `J_i` (Lemma 4) — remove it and repeat.
//!
//! Within each interval the per-job times are packed onto the reserved
//! processors with McNaughton's wrap-around rule, which is feasible because
//! every `t_kj ≤ |I_j|` (Lemma 2's normal form).
//!
//! The schedule produced is optimal for **every** convex non-decreasing
//! power function simultaneously; `P(s)` never enters the computation.

use crate::flow_model::FlowModel;
use crate::incremental::{scratch_partition_ops, PreparedInstance};
use mpss_core::{Instance, Intervals, JobId, ModelError, Schedule, Segment};
use mpss_maxflow::{residual_reachable_tol, Dinic, MaxFlow, PushRelabel, WarmStartable};
use mpss_numeric::FlowNum;
use mpss_obs::{Collector, NoopCollector};

/// Which max-flow engine the offline algorithm runs internally.
///
/// Dinic is the production default (the scheduling networks are shallow
/// and unit-like, where blocking flows shine); push–relabel is provided for
/// the end-to-end engine ablation (`exp_maxflow_ablation`) and as a
/// correctness cross-check — both must produce schedules of identical
/// energy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FlowEngine {
    /// Dinic's blocking-flow algorithm (default).
    #[default]
    Dinic,
    /// Highest-label push–relabel with the gap heuristic.
    PushRelabel,
}

impl FlowEngine {
    /// The engine's spelling in checkpoints and on the wire: `"dinic"` or
    /// `"push-relabel"`. A restored session must replan with the engine the
    /// checkpointed one used — the schedules agree in energy but not bit
    /// for bit.
    pub fn name(self) -> &'static str {
        match self {
            FlowEngine::Dinic => "dinic",
            FlowEngine::PushRelabel => "push-relabel",
        }
    }

    /// The engine [`name`](FlowEngine::name) spells, if any.
    pub fn parse(name: &str) -> Option<FlowEngine> {
        match name {
            "dinic" => Some(FlowEngine::Dinic),
            "push-relabel" => Some(FlowEngine::PushRelabel),
            _ => None,
        }
    }
}

/// Relative tolerance of the `f64` path (ignored by exact arithmetic):
/// when a flow saturates its target, which job Lemma 4 removes, and how
/// intervals pack.
const EPS: f64 = 1e-9;

/// Tuning knobs for [`optimal_schedule_with`].
#[derive(Clone, Debug)]
pub struct OfflineOptions {
    /// Record a per-round trace (used by the Fig. 2 experiment binary).
    pub record_trace: bool,
    /// The max-flow engine to run internally.
    pub engine: FlowEngine,
    /// Reuse the residual network across repair rounds of a phase instead of
    /// rebuilding it cold each round (default `true`). The warm path produces
    /// bit-identical phases — the removal rule below reads only the
    /// flow-invariant min-cut certificate, and all capacities are recomputed
    /// with expression-identical arithmetic — so this is purely a work
    /// optimisation. Set to `false` to get the cold solver as a differential
    /// oracle (`--cold-flow` in the CLI).
    pub warm_start: bool,
}

impl Default for OfflineOptions {
    fn default() -> Self {
        OfflineOptions {
            record_trace: false,
            engine: FlowEngine::Dinic,
            warm_start: true,
        }
    }
}

/// Per-job execution spans carried from a previous plan, used to seed the
/// first max-flow of each phase when replanning a closely related instance
/// (the OA(m) driver re-solves after every arrival; surviving jobs keep most
/// of their flow).
///
/// `spans[k]` lists half-open wall-clock spans `(start, end)` during which
/// job `k` (an id of the instance being solved) was executing in the previous
/// plan. Spans may be unsorted and may overlap interval boundaries; they are
/// clipped against each interval when converted to seed flow. The seed is a
/// hint only: seeded flow never exceeds edge capacities, and the subsequent
/// re-augmentation restores maximality, so an arbitrarily wrong seed cannot
/// change the result — only the amount of residual work.
#[derive(Clone, Debug, Default)]
pub struct SeedPlan<T> {
    /// Per-job spans, indexed by the job ids of the instance being solved.
    pub spans: Vec<Vec<(T, T)>>,
}

/// One phase of the algorithm: the job set `J_i`, its uniform speed `s_i`,
/// and the processors it occupies per interval (`m_ij` of Lemma 3).
#[derive(Clone, Debug)]
pub struct PhaseInfo<T> {
    /// Uniform speed `s_i` of this phase.
    pub speed: T,
    /// Jobs executed at `s_i` (original instance ids).
    pub jobs: Vec<JobId>,
    /// `m_ij`: processors reserved in each interval.
    pub procs: Vec<usize>,
    /// Number of max-flow rounds this phase needed.
    pub rounds: usize,
}

/// One round of one phase, for the Fig. 2 execution trace.
#[derive(Clone, Debug)]
pub struct RoundTrace {
    /// Phase index (1-based, as in the paper).
    pub phase: usize,
    /// Size of the candidate set `J` at the start of the round.
    pub candidate_size: usize,
    /// Conjectured uniform speed `s = W/P`.
    pub speed: f64,
    /// Computed max-flow value `F`.
    pub flow: f64,
    /// Saturation target `F_G`.
    pub target: f64,
    /// Job removed at the end of the round (`None` when the round accepted).
    pub removed: Option<JobId>,
}

/// Result of the offline algorithm.
#[derive(Clone, Debug)]
pub struct OptimalResult<T: FlowNum> {
    /// The optimal schedule.
    pub schedule: Schedule<T>,
    /// The speed-level partition `J_1, …, J_p` with `s_1 > … > s_p`.
    pub phases: Vec<PhaseInfo<T>>,
    /// The interval partition used.
    pub intervals: Intervals<T>,
    /// Total number of max-flow computations performed.
    pub flow_computations: usize,
    /// Machine-independent count of *instance-derivation* operations this
    /// solve performed: event-partition construction, per-(job, interval)
    /// activity probes in the Lemma 3 reservation loop, and network-build
    /// scans. Engine-side work (augmentations, pushes) is accounted
    /// separately by [`EngineStats`](mpss_maxflow::EngineStats). This is
    /// the cost the prepared/incremental path attacks: with a
    /// [`PreparedInstance`] it grows as O(rounds · (n + |𝓘|)) instead of
    /// O(rounds · n · |𝓘|).
    pub work_ops: usize,
    /// Per-round trace (empty unless requested).
    pub trace: Vec<RoundTrace>,
}

impl<T: FlowNum> OptimalResult<T> {
    /// The speed assigned to `job`, if it was scheduled.
    pub fn speed_of(&self, job: JobId) -> Option<T> {
        self.phases
            .iter()
            .find(|p| p.jobs.contains(&job))
            .map(|p| p.speed)
    }
}

/// Computes an optimal schedule with default options.
///
/// ```
/// use mpss_core::{job::job, Instance};
/// use mpss_offline::optimal_schedule;
///
/// let ins = Instance::new(1, vec![job(0.0, 1.0, 3.0), job(0.0, 2.0, 1.0)]).unwrap();
/// let res = optimal_schedule(&ins).unwrap();
/// // Two speed levels: the tight job at 3, the relaxed one at 1.
/// let speeds: Vec<f64> = res.phases.iter().map(|p| p.speed).collect();
/// assert_eq!(speeds, vec![3.0, 1.0]);
/// ```
pub fn optimal_schedule<T: FlowNum>(
    instance: &Instance<T>,
) -> Result<OptimalResult<T>, ModelError> {
    optimal_schedule_with(instance, &OfflineOptions::default())
}

/// Computes an optimal schedule (paper Fig. 2). See the module docs for the
/// algorithm; returns [`ModelError::NoReservableTime`] only on inputs that
/// violate the instance invariants (defensive, unreachable for instances
/// built via [`Instance::new`]).
pub fn optimal_schedule_with<T: FlowNum>(
    instance: &Instance<T>,
    opts: &OfflineOptions,
) -> Result<OptimalResult<T>, ModelError> {
    optimal_schedule_observed(instance, opts, &mut NoopCollector)
}

/// [`optimal_schedule_with`] with an instrumentation [`Collector`].
///
/// Emits, per run:
///
/// * span `offline.optimal_schedule` wrapping the whole computation, with a
///   child span `offline.phase` per accepted phase (so a recording collector
///   aggregates the per-phase latency into `span.offline.phase.ms`);
/// * counters `offline.phases`, `offline.repair_rounds` (max-flow rounds,
///   accepted and deficient), `offline.jobs_removed` (Lemma 4 removals),
///   `offline.maxflow.invocations`, and the engine work counters
///   (`maxflow.dinic.*` / `maxflow.pr.*` from
///   [`EngineStats`](mpss_maxflow::EngineStats));
/// * histograms `offline.flow_vs_target` (computed flow over the saturation
///   target `F_G`, one observation per round — 1.0 means the conjectured
///   speed was accepted) and `offline.jobs_removed_per_phase`.
///
/// Passing [`NoopCollector`] makes this identical to
/// [`optimal_schedule_with`]: every instrumentation point inlines to nothing.
pub fn optimal_schedule_observed<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    opts: &OfflineOptions,
    obs: &mut C,
) -> Result<OptimalResult<T>, ModelError> {
    optimal_schedule_prepared(instance, opts, None, None, obs)
}

/// [`optimal_schedule_observed`] with an optional [`SeedPlan`] from a
/// previous, related solve and an optional [`PreparedInstance`] maintained
/// incrementally across replans (see [`crate::incremental`]).
///
/// When `opts.warm_start` is on, each phase's first network is primed from
/// the seed's clipped spans (then greedily topped up) before the engine runs,
/// and deficient repair rounds reuse the residual network: the removed job is
/// drained in place, capacities are retuned, and the engine re-augments from
/// the retained feasible flow instead of starting from zero. Extra
/// instrumentation: counters `maxflow.warm.reused_flow` (rounds that started
/// from non-zero retained or seeded flow), `maxflow.warm.drained` (drain
/// events — job removals plus retarget cancellations), and
/// `offline.cold_rounds_avoided` (repair rounds served by a retained network
/// instead of a cold rebuild).
///
/// With `prepared = None` this *is* the legacy scratch pipeline — the
/// partition is re-sorted and every (job, interval) activity pair probed —
/// preserved as the differential test oracle. With `prepared = Some(p)`
/// (whose `intervals`/`ranges` must be exactly what
/// [`PreparedInstance::derive`] returns for `instance` — the planner
/// guarantees this, and debug builds assert it) the solve consumes the
/// maintained partition and contiguous active ranges instead: the Lemma 3
/// reservation loop counts actives by difference array in O(n + |𝓘|) per
/// round, and cold networks are built by `FlowModel::build_from_ranges`
/// with zero inactive probes. Both paths produce element-identical networks
/// and therefore bit-identical results; they differ only in
/// [`OptimalResult::work_ops`]. The solve emits no `offline.incremental.*`
/// counter: the planner's
/// [`sync_observed`](crate::IncrementalPlanner::sync_observed) does.
pub fn optimal_schedule_prepared<T: FlowNum, C: Collector>(
    instance: &Instance<T>,
    opts: &OfflineOptions,
    seed: Option<&SeedPlan<T>>,
    prepared: Option<&PreparedInstance<T>>,
    obs: &mut C,
) -> Result<OptimalResult<T>, ModelError> {
    obs.span_start("offline.optimal_schedule");
    let (intervals, mut work_ops) = match prepared {
        Some(p) => {
            debug_assert_eq!(
                p.intervals,
                Intervals::from_instance(instance),
                "prepared partition diverged from the instance"
            );
            debug_assert!(
                instance
                    .jobs
                    .iter()
                    .enumerate()
                    .all(|(k, j)| p.ranges[k] == p.intervals.range_of(j)),
                "prepared ranges diverged from the instance"
            );
            (p.intervals.clone(), p.derivation_ops)
        }
        None => (
            Intervals::from_instance(instance),
            scratch_partition_ops(instance.n()),
        ),
    };
    let nj = intervals.len();
    let mut used = vec![0usize; nj];
    let mut remaining: Vec<JobId> = (0..instance.n()).collect();
    let mut schedule = Schedule::new(instance.m);
    let mut phases: Vec<PhaseInfo<T>> = Vec::new();
    let mut trace = Vec::new();
    let mut flow_computations = 0usize;
    let mut dinic = Dinic::new();
    let mut push_relabel = PushRelabel::new();
    // Every probe runs on the one engine the options name: the removal rule
    // reads only the flow value and the canonical min cut, which every
    // maximum flow shares.
    let engine: &mut dyn WarmStartable<T> = match opts.engine {
        FlowEngine::Dinic => &mut dinic,
        FlowEngine::PushRelabel => &mut push_relabel,
    };

    while !remaining.is_empty() {
        let phase_index = phases.len() + 1;
        let mut cur = remaining.clone();
        let mut rounds = 0usize;
        obs.span_start("offline.phase");
        // Warm path: the network retained from the previous (deficient)
        // round of this phase, with the removed job already drained.
        let mut warm_fm: Option<FlowModel<T>> = None;

        let (m_j, speed, fm) = loop {
            rounds += 1;
            obs.count("offline.repair_rounds", 1);
            // Lemma 3 reservation.
            let mut m_j = vec![0usize; nj];
            if let Some(p) = prepared {
                // Count actives per interval with a difference array over
                // the candidates' contiguous ranges: O(|cur| + |𝓘|) and
                // integer-exact, so `m_j` matches the probe sweep below.
                let mut diff = vec![0isize; nj + 1];
                for &k in &cur {
                    let (lo, hi) = p.ranges[k];
                    diff[lo] += 1;
                    diff[hi] -= 1;
                }
                let mut n_active = 0isize;
                for (j, mj) in m_j.iter_mut().enumerate() {
                    n_active += diff[j];
                    let avail = instance.m - used[j];
                    if avail > 0 {
                        *mj = (n_active as usize).min(avail);
                    }
                }
                work_ops += cur.len() + nj;
            } else {
                for (j, mj) in m_j.iter_mut().enumerate() {
                    let avail = instance.m - used[j];
                    if avail == 0 {
                        continue;
                    }
                    let n_active = cur
                        .iter()
                        .filter(|&&k| intervals.job_active(&instance.jobs[k], j))
                        .count();
                    *mj = n_active.min(avail);
                    work_ops += cur.len();
                }
            }
            // Conjectured uniform speed s = W / P.
            let mut w_total = T::zero();
            for &k in &cur {
                w_total += instance.jobs[k].volume;
            }
            let mut p_total = T::zero();
            for (j, &mj) in m_j.iter().enumerate() {
                if mj > 0 {
                    p_total += T::from_usize(mj) * intervals.length(j);
                }
            }
            if !p_total.is_strictly_positive() {
                obs.span_end("offline.phase");
                flush_engine_stats::<T, C>(obs, &dinic, &push_relabel);
                obs.span_end("offline.optimal_schedule");
                return Err(ModelError::NoReservableTime);
            }
            let speed = w_total / p_total;

            let (mut fm, flow);
            if let Some(mut prev) = warm_fm.take() {
                // Reuse the residual network: the removed job was drained
                // when it was dropped; retune every capacity to the new
                // conjectured speed and re-augment from the retained flow.
                let drained = prev.retarget(instance, &intervals, &m_j, speed);
                if drained.is_strictly_positive() {
                    obs.count("maxflow.warm.drained", 1);
                }
                if prev.net.net_out_flow(prev.source).is_strictly_positive() {
                    obs.count("maxflow.warm.reused_flow", 1);
                }
                obs.count("offline.cold_rounds_avoided", 1);
                flow = engine.re_max_flow(&mut prev.net, prev.source, prev.sink);
                fm = prev;
            } else {
                if let Some(p) = prepared {
                    fm = FlowModel::build_from_ranges(
                        instance, &intervals, &cur, &m_j, speed, &p.ranges,
                    );
                    // Derivation cost: the arcs that exist, not the probes.
                    work_ops += cur
                        .iter()
                        .map(|&k| p.ranges[k].1 - p.ranges[k].0)
                        .sum::<usize>()
                        + nj;
                } else {
                    fm = FlowModel::build(instance, &intervals, &cur, &m_j, speed);
                    // The scratch build probed every (candidate, used
                    // interval) pair for activity.
                    work_ops += cur.len() * fm.intervals_used.len();
                }
                if opts.warm_start {
                    let mut seeded = T::zero();
                    if let Some(sp) = seed {
                        // Map instance-job spans to candidate order.
                        let per_candidate: Vec<Vec<(T, T)>> = fm
                            .jobs
                            .iter()
                            .map(|&id| sp.spans.get(id).cloned().unwrap_or_default())
                            .collect();
                        seeded += fm.seed_from_spans(&intervals, &per_candidate);
                    }
                    seeded += fm.seed_greedy();
                    if seeded.is_strictly_positive() {
                        obs.count("maxflow.warm.reused_flow", 1);
                    }
                    flow = engine.re_max_flow(&mut fm.net, fm.source, fm.sink);
                } else {
                    flow = engine.max_flow(&mut fm.net, fm.source, fm.sink);
                }
            }
            flow_computations += 1;
            obs.count("offline.maxflow.invocations", 1);
            if obs.enabled() {
                let target = fm.target.to_f64();
                if target > 0.0 {
                    obs.observe("offline.flow_vs_target", flow.to_f64() / target);
                }
            }

            if T::close(flow, fm.target, fm.target, EPS) {
                if opts.record_trace {
                    trace.push(RoundTrace {
                        phase: phase_index,
                        candidate_size: cur.len(),
                        speed: speed.to_f64(),
                        flow: flow.to_f64(),
                        target: fm.target.to_f64(),
                        removed: None,
                    });
                }
                break (m_j, speed, fm);
            }

            // Deficient round: drop the job of Lemma 4's removal rule.
            let removed = select_removal(&fm, EPS);
            obs.count("offline.jobs_removed", 1);
            obs.instant("offline.job_removed");
            if opts.record_trace {
                trace.push(RoundTrace {
                    phase: phase_index,
                    candidate_size: cur.len(),
                    speed: speed.to_f64(),
                    flow: flow.to_f64(),
                    target: fm.target.to_f64(),
                    removed: Some(removed),
                });
            }
            let pos = cur
                .iter()
                .position(|&k| k == removed)
                .expect("removal candidate must be in the current set");
            cur.remove(pos);
            debug_assert!(
                !cur.is_empty(),
                "candidate set exhausted without saturation"
            );
            if cur.is_empty() {
                obs.span_end("offline.phase");
                flush_engine_stats::<T, C>(obs, &dinic, &push_relabel);
                obs.span_end("offline.optimal_schedule");
                return Err(ModelError::NoReservableTime);
            }
            if opts.warm_start {
                // Drain the removed job in place and keep the network for
                // the next round instead of rebuilding it from scratch.
                let k = fm
                    .jobs
                    .iter()
                    .position(|&id| id == removed)
                    .expect("removed job is a candidate of this phase");
                fm.remove_job(k);
                obs.count("maxflow.warm.drained", 1);
                warm_fm = Some(fm);
            }
        };

        // Phase accepted: the flow is a feasible time assignment. Pack every
        // reserved interval with McNaughton's wrap-around rule.
        for &j in &fm.intervals_used {
            let mut assignments: Vec<(JobId, T)> = fm
                .interval_assignments(j)
                .into_iter()
                .map(|(k, t)| (fm.jobs[k], t))
                .collect();
            // Longest-first ordering (the paper's Lemma 2 normal form).
            assignments.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("comparable times")
                    .then(a.0.cmp(&b.0))
            });
            let (start, _) = intervals.bounds(j);
            pack_interval(
                &mut schedule,
                &assignments,
                used[j],
                m_j[j],
                start,
                intervals.length(j),
                speed,
                EPS,
            );
        }

        // Bookkeeping: processors consumed, jobs placed.
        for (j, &mj) in m_j.iter().enumerate() {
            used[j] += mj;
        }
        remaining.retain(|k| !cur.contains(k));

        if let Some(prev) = phases.last() {
            debug_assert!(
                T::leq(speed, prev.speed, prev.speed, EPS),
                "phase speeds must be non-increasing: {:?} then {:?}",
                prev.speed,
                speed
            );
        }
        phases.push(PhaseInfo {
            speed,
            jobs: cur,
            procs: m_j,
            rounds,
        });
        obs.count("offline.phases", 1);
        obs.observe("offline.jobs_removed_per_phase", (rounds - 1) as f64);
        obs.span_end("offline.phase");
    }

    flush_engine_stats::<T, C>(obs, &dinic, &push_relabel);
    obs.span_end("offline.optimal_schedule");
    schedule.normalize();
    Ok(OptimalResult {
        schedule,
        phases,
        intervals,
        flow_computations,
        work_ops,
        trace,
    })
}

/// Copies the engines' accumulated work counters
/// ([`EngineStats`](mpss_maxflow::EngineStats)) into the collector, so run
/// reports show algorithmic work — not just wall time. The engines are
/// created fresh per call, so their stats are exactly this run's work.
fn flush_engine_stats<T: FlowNum, C: Collector>(obs: &mut C, dinic: &Dinic, pr: &PushRelabel) {
    if !obs.enabled() {
        return;
    }
    let d = MaxFlow::<T>::stats(dinic);
    obs.count("maxflow.dinic.bfs_phases", d.bfs_phases);
    obs.count("maxflow.dinic.augmenting_paths", d.augmenting_paths);
    let p = MaxFlow::<T>::stats(pr);
    obs.count("maxflow.pr.pushes", p.pushes);
    obs.count("maxflow.pr.relabels", p.relabels);
    obs.count("maxflow.pr.gap_events", p.gap_events);
    obs.count("maxflow.pr.global_relabels", p.global_relabels);
    obs.count("maxflow.pr.current_arc_resets", p.current_arc_resets);
}

/// Lemma 4's removal rule, made engine- and history-invariant.
///
/// A rule that reads per-edge *flow values* (the previous implementation
/// took the least-loaded edge into the most deficient interval) depends on
/// which particular maximum flow the engine happened to find — max-flow
/// values are unique, flows are not — so Dinic and push–relabel, or a warm
/// and a cold run, could remove different (equally valid) jobs and then
/// walk different repair traces. Instead we read only the canonical min-cut
/// certificate: the set `S*` of vertices residual-reachable from the
/// source, which is identical for *every* maximum flow.
///
/// Rule: among candidate jobs whose vertex lies outside `S*` and that have
/// an edge into a reserved interval (`m_j > 0`) whose vertex also lies
/// outside `S*`, remove the smallest job id. Such a job's supply edge is
/// saturated in every maximum flow while the cut still separates it from a
/// deficient interval — exactly the Lemma 4 witness. When the flow is
/// deficient, some reserved interval's sink edge is unsaturated, putting
/// that interval outside `S*` (else an augmenting path would exist), and
/// every job active there is outside `S*` too, so a witness always exists;
/// the fallbacks below only guard tolerance degeneracies on the `f64` path
/// and stay deterministic and flow-invariant themselves.
fn select_removal<T: FlowNum>(fm: &FlowModel<T>, eps: f64) -> JobId {
    let reach = residual_reachable_tol(&fm.net, fm.source, eps);
    // Reserved intervals on the sink side of the cut.
    let cut_interval: Vec<bool> = fm
        .sink_edges
        .iter()
        .enumerate()
        .map(|(x, &e)| fm.net.capacity(e).is_strictly_positive() && !reach[fm.interval_vertex(x)])
        .collect();

    let mut best: Option<JobId> = None;
    for (k, edges) in fm.job_edges.iter().enumerate() {
        if !fm.alive[k] || reach[1 + k] {
            continue;
        }
        let witnesses = edges
            .iter()
            .any(|&(j, _)| fm.interval_pos(j).is_some_and(|x| cut_interval[x]));
        if witnesses {
            let id = fm.jobs[k];
            if best.is_none_or(|b| id < b) {
                best = Some(id);
            }
        }
    }
    if let Some(id) = best {
        return id;
    }
    // Tolerance degeneracy: fall back to the smallest unreachable candidate,
    // then to the smallest candidate outright.
    let alive = || {
        fm.jobs
            .iter()
            .enumerate()
            .filter(|&(k, _)| fm.alive[k])
            .map(|(k, &id)| (k, id))
    };
    alive()
        .find(|&(k, _)| !reach[1 + k])
        .or_else(|| alive().next())
        .expect("candidate set is non-empty in a deficient round")
        .1
}

/// McNaughton wrap-around packing of `assignments` (job, time) onto
/// processors `base_proc .. base_proc + m_j` within the interval
/// `[start, start + len)` at uniform `speed`.
///
/// Legal because every per-job time is ≤ `len` (edge capacities), so a job
/// split across the processor boundary occupies the *end* of the interval
/// on one processor and the *start* on the next — disjoint in real time.
#[allow(clippy::too_many_arguments)]
fn pack_interval<T: FlowNum>(
    schedule: &mut Schedule<T>,
    assignments: &[(JobId, T)],
    base_proc: usize,
    m_j: usize,
    start: T,
    len: T,
    speed: T,
    eps: f64,
) {
    let mut proc = 0usize;
    let mut cap = len; // remaining capacity on the current processor
    for &(job, t) in assignments {
        // Clamp float dust above |I_j|.
        let mut rt = t.min2(len);
        while T::definitely_lt(T::zero(), rt, len, eps) {
            if proc >= m_j {
                // Tolerance overflow on the f64 path: the residue is below
                // eps·len per construction; drop it (validator slack covers it).
                break;
            }
            if !T::definitely_lt(T::zero(), cap, len, eps) {
                proc += 1;
                cap = len;
                continue;
            }
            let chunk = rt.min2(cap);
            let seg_start = start + (len - cap);
            schedule.push(Segment {
                job,
                proc: base_proc + proc,
                start: seg_start,
                end: seg_start + chunk,
                speed,
            });
            rt -= chunk;
            cap -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::{schedule_energy, schedule_energy_exact};
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_core::validate::assert_feasible;
    use mpss_core::PowerFunction;
    use mpss_numeric::rational::rat;
    use mpss_numeric::Rational;

    #[test]
    fn single_job_runs_at_density_over_full_window() {
        let ins = Instance::new(1, vec![job(0.0, 4.0, 2.0)]).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        assert_eq!(res.phases.len(), 1);
        assert!((res.phases[0].speed - 0.5).abs() < 1e-12);
        assert_eq!(res.schedule.len(), 1);
        let seg = res.schedule.segments[0];
        assert_eq!((seg.start, seg.end), (0.0, 4.0));
    }

    #[test]
    fn two_speed_levels_match_yds_structure() {
        // m = 1: job 0 is tight (speed 3 in [0,1)), job 1 relaxed (speed 1).
        let ins = Instance::new(1, vec![job(0.0, 1.0, 3.0), job(0.0, 2.0, 1.0)]).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        assert_eq!(res.phases.len(), 2);
        assert!((res.phases[0].speed - 3.0).abs() < 1e-12);
        assert!((res.phases[1].speed - 1.0).abs() < 1e-12);
        assert_eq!(res.phases[0].jobs, vec![0]);
        assert_eq!(res.phases[1].jobs, vec![1]);
        let e = schedule_energy(&res.schedule, &Polynomial::new(2.0));
        assert!((e - 10.0).abs() < 1e-9, "E = {e}"); // 9·1 + 1·1
    }

    #[test]
    fn plenty_of_processors_gives_every_job_its_density() {
        // m ≥ n ⇒ each job runs alone at density over its whole window;
        // energy equals the per-job lower bound.
        let ins = Instance::new(
            4,
            vec![job(0.0, 2.0, 3.0), job(1.0, 4.0, 6.0), job(0.0, 8.0, 2.0)],
        )
        .unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        let alpha = Polynomial::new(3.0);
        let e = schedule_energy(&res.schedule, &alpha);
        let lb: f64 = ins
            .jobs
            .iter()
            .map(|j| alpha.power(j.density()) * j.window())
            .sum();
        assert!((e - lb).abs() < 1e-9, "E = {e}, LB = {lb}");
    }

    #[test]
    fn parallel_jobs_share_uniform_speed() {
        // 3 identical unit jobs, m = 3: all at speed 1/2 over [0, 2).
        let jobs = vec![job(0.0, 2.0, 1.0); 3];
        let ins = Instance::new(3, jobs).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        assert_eq!(res.phases.len(), 1);
        assert!((res.phases[0].speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn migration_is_exploited_when_m_less_than_n() {
        // 3 identical jobs [0,3,w=3] on 2 processors: total work 9 over
        // 2 procs × 3 time = 6 proc-time ⇒ uniform speed 3/2, each job runs
        // 2 time units. Wrap-around forces at least one migration.
        let ins = Instance::new(2, vec![job(0.0, 3.0, 3.0); 3]).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        assert_eq!(res.phases.len(), 1);
        assert!((res.phases[0].speed - 1.5).abs() < 1e-12);
        assert!(res.schedule.migrations() >= 1);
        let e = schedule_energy(&res.schedule, &Polynomial::new(2.0));
        assert!((e - 13.5).abs() < 1e-9); // (3/2)² · 6
    }

    #[test]
    fn exact_rational_pipeline_is_bit_exact() {
        let ins: Instance<Rational> = Instance::new(
            2,
            vec![
                job(rat(0, 1), rat(3, 1), rat(3, 1)),
                job(rat(0, 1), rat(3, 1), rat(3, 1)),
                job(rat(0, 1), rat(3, 1), rat(3, 1)),
            ],
        )
        .unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 0.0);
        assert_eq!(res.phases[0].speed, rat(3, 2));
        assert_eq!(schedule_energy_exact(&res.schedule, 2), rat(27, 2));
    }

    #[test]
    fn speed_levels_are_strictly_decreasing() {
        let ins = Instance::new(
            2,
            vec![
                job(0.0, 1.0, 4.0),
                job(0.0, 1.0, 4.0),
                job(0.0, 4.0, 2.0),
                job(2.0, 6.0, 1.0),
            ],
        )
        .unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        for w in res.phases.windows(2) {
            assert!(
                w[0].speed > w[1].speed + 1e-12,
                "speeds not strictly decreasing: {:?}",
                res.phases.iter().map(|p| p.speed).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn trace_records_rounds() {
        let ins = Instance::new(1, vec![job(0.0, 1.0, 3.0), job(0.0, 2.0, 1.0)]).unwrap();
        let opts = OfflineOptions {
            record_trace: true,
            ..Default::default()
        };
        let res = optimal_schedule_with(&ins, &opts).unwrap();
        assert!(!res.trace.is_empty());
        // The last round of each phase accepts (removed = None).
        assert!(res.trace.iter().any(|r| r.removed.is_none()));
        // Some round must have removed the relaxed job from phase 1.
        assert!(res.trace.iter().any(|r| r.removed == Some(1)));
        assert_eq!(res.flow_computations, res.trace.len());
    }

    #[test]
    fn speed_of_reports_phase_speeds() {
        let ins = Instance::new(1, vec![job(0.0, 1.0, 3.0), job(0.0, 2.0, 1.0)]).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert!((res.speed_of(0).unwrap() - 3.0).abs() < 1e-12);
        assert!((res.speed_of(1).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(res.speed_of(99), None);
    }

    #[test]
    fn empty_instance_gives_empty_schedule() {
        let ins: Instance<f64> = Instance::new(2, vec![]).unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert!(res.schedule.is_empty());
        assert!(res.phases.is_empty());
        assert_eq!(res.flow_computations, 0);
    }

    #[test]
    fn observed_run_reports_phases_rounds_and_engine_work() {
        use mpss_obs::RecordingCollector;
        let ins = Instance::new(1, vec![job(0.0, 1.0, 3.0), job(0.0, 2.0, 1.0)]).unwrap();
        let mut rec = RecordingCollector::new();
        let res = optimal_schedule_observed(&ins, &OfflineOptions::default(), &mut rec).unwrap();

        assert_eq!(rec.counter("offline.phases"), res.phases.len() as u64);
        assert_eq!(
            rec.counter("offline.maxflow.invocations"),
            res.flow_computations as u64
        );
        assert_eq!(
            rec.counter("offline.repair_rounds"),
            res.flow_computations as u64
        );
        // Two phases here, and phase 1 removed the relaxed job once.
        assert_eq!(rec.counter("offline.jobs_removed"), 1);
        // Dinic (the default engine) did real work; push–relabel none. With
        // warm start on (the default) the greedy seed can satisfy a round
        // outright, so only the BFS certification is guaranteed.
        assert!(rec.counter("maxflow.dinic.bfs_phases") >= 1);
        assert_eq!(rec.counter("maxflow.pr.pushes"), 0);
        // The warm path reported seeded/retained flow, and the one repair
        // round of phase 1 was served warm instead of rebuilt cold.
        assert!(rec.counter("maxflow.warm.reused_flow") >= 1);
        assert_eq!(rec.counter("offline.cold_rounds_avoided"), 1);
        assert!(rec.counter("maxflow.warm.drained") >= 1);

        // The cold oracle does the same rounds but augments every unit.
        let mut cold = RecordingCollector::new();
        let cold_opts = OfflineOptions {
            warm_start: false,
            ..Default::default()
        };
        let cold_res = optimal_schedule_observed(&ins, &cold_opts, &mut cold).unwrap();
        assert_eq!(cold_res.flow_computations, res.flow_computations);
        assert!(cold.counter("maxflow.dinic.augmenting_paths") >= 1);
        assert_eq!(cold.counter("offline.cold_rounds_avoided"), 0);
        assert_eq!(cold.counter("maxflow.warm.reused_flow"), 0);
        // Span tree: one root per phase, plus the wrapping span.
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "offline.optimal_schedule");
        assert_eq!(rec.spans()[0].children.len(), res.phases.len());
        // Flow-vs-target ratio was observed once per round, each in (0, 1].
        let h = rec.histogram("offline.flow_vs_target").unwrap();
        assert_eq!(h.count(), res.flow_computations as u64);
        let s = h.summary();
        assert!(s.min > 0.0 && s.max <= 1.0 + 1e-9, "{s:?}");
    }

    #[test]
    fn observed_and_unobserved_runs_agree() {
        use mpss_obs::RecordingCollector;
        let ins = Instance::new(
            2,
            vec![job(0.0, 1.0, 4.0), job(0.0, 4.0, 2.0), job(2.0, 6.0, 1.0)],
        )
        .unwrap();
        let plain = optimal_schedule(&ins).unwrap();
        let mut rec = RecordingCollector::new();
        let observed =
            optimal_schedule_observed(&ins, &OfflineOptions::default(), &mut rec).unwrap();
        assert_eq!(plain.flow_computations, observed.flow_computations);
        assert_eq!(plain.phases.len(), observed.phases.len());
        assert_eq!(plain.schedule.segments, observed.schedule.segments);
    }

    #[test]
    fn staircase_instance_produces_expected_levels() {
        // Jobs with nested windows and decreasing urgency on m = 2.
        let ins = Instance::new(
            2,
            vec![
                job(0.0, 1.0, 5.0), // density 5, must run fast
                job(0.0, 2.0, 2.0),
                job(0.0, 4.0, 1.0),
                job(0.0, 8.0, 1.0),
            ],
        )
        .unwrap();
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        let speeds: Vec<f64> = res.phases.iter().map(|p| p.speed).collect();
        assert!(speeds[0] >= 5.0 - 1e-9);
        for w in speeds.windows(2) {
            assert!(w[0] > w[1]);
        }
    }
}
