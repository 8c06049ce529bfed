//! AVR(m) as a live session.
//!
//! AVR's decisions are *memoryless*: at any instant the processor speeds
//! depend only on the currently active jobs' densities (Fig. 3 is evaluated
//! interval by interval). That makes the session form particularly simple —
//! no replanning state, just the jobs in its [`SessionCore`] — and it makes
//! AVR attractive for controllers that cannot afford OA's optimal replans.

use crate::avr::avr_schedule;
use crate::checkpoint::AvrCheckpoint;
use crate::session_core::{SessionCore, SessionError};
use crate::session_metrics::SessionMetrics;
use mpss_core::{Instance, Job, JobId, Schedule};

/// A live AVR(m) scheduling session.
///
/// ```
/// use mpss_online::AvrSession;
///
/// let mut session = AvrSession::new(2, 0.0);
/// session.arrive(1.0, 4.0).unwrap();          // density 4: gets peeled
/// session.arrive(1.0, 1.0).unwrap();          // density 1
/// session.arrive(1.0, 1.0).unwrap();          // density 1
/// assert_eq!(session.current_speeds(), vec![4.0, 2.0]);
/// let schedule = session.finish().unwrap();
/// assert!((schedule.total_work() - 6.0).abs() < 1e-9);
/// ```
pub struct AvrSession {
    /// Clock, job table, executed history, compaction tally and metrics.
    core: SessionCore,
    /// Memoized batch plan — [`avr_schedule`] is a pure function of the
    /// job list, so the plan is recomputed only when an arrival invalidates
    /// it; pure clock advances (the `mpss-serve` broadcast-tick hot path)
    /// just slice it. Not checkpointed: restore recomputes on the next
    /// advance, bit-identically.
    plan: Option<Schedule<f64>>,
    plans_computed: usize,
}

impl AvrSession {
    /// Opens a session on `m` processors with the clock at `start`.
    pub fn new(m: usize, start: f64) -> AvrSession {
        AvrSession {
            core: SessionCore::new(m, start),
            plan: None,
            plans_computed: 0,
        }
    }

    /// The clock, job table, executed history and compaction tally.
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// Mutable access to the core, e.g. to
    /// [`compact_history`](SessionCore::compact_history).
    pub fn core_mut(&mut self) -> &mut SessionCore {
        &mut self.core
    }

    /// Attaches a live metrics bundle (see [`SessionMetrics::register`]).
    /// AVR is memoryless, so there is no replan latency to report; the
    /// bundle's replan counter still ticks once per arrival (each arrival
    /// changes the Fig. 3 decision) and the gauges track the active set.
    pub fn attach_metrics(&mut self, metrics: SessionMetrics) {
        self.core.metrics = Some(metrics);
        self.publish_metrics();
    }

    fn publish_metrics(&self) {
        if let Some(metrics) = &self.core.metrics {
            let now = self.core.now();
            let active: Vec<&Job<f64>> = self
                .core
                .jobs()
                .iter()
                .filter(|j| j.release <= now && now < j.deadline)
                .collect();
            // AVR does not track per-job progress; "queued" is the total
            // volume of jobs whose windows are still open.
            let queued = active.iter().map(|j| j.volume).sum();
            metrics.publish(now, active.len(), queued, &self.current_speeds());
        }
    }

    /// Announces a job arriving now. Returns its session id.
    pub fn arrive(&mut self, deadline: f64, volume: f64) -> Result<JobId, SessionError> {
        let id = self.core.announce(&[(deadline, volume)])?.start;
        // The arrival changes the Fig. 3 decision: drop the memoized plan.
        self.plan = None;
        if let Some(metrics) = &self.core.metrics {
            metrics.on_arrival();
            metrics.on_replan(0.0);
        }
        self.publish_metrics();
        Ok(id)
    }

    /// The speed AVR assigns each processor right now: peel over-dense
    /// actives, share the rest (the instantaneous Fig. 3 decision).
    pub fn current_speeds(&self) -> Vec<f64> {
        let (m, now) = (self.core.m(), self.core.now());
        let mut densities: Vec<f64> = self
            .core
            .jobs()
            .iter()
            .filter(|j| j.release <= now && now < j.deadline)
            .map(|j| j.density())
            .collect();
        densities.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut speeds = vec![0.0; m];
        let mut total: f64 = densities.iter().sum();
        let mut m_left = m;
        let mut idx = 0;
        while idx < densities.len() && m_left > 0 && densities[idx] > total / m_left as f64 {
            speeds[m - m_left] = densities[idx];
            total -= densities[idx];
            m_left -= 1;
            idx += 1;
        }
        if idx < densities.len() && m_left > 0 {
            let share = total / m_left as f64;
            for s in speeds.iter_mut().skip(m - m_left) {
                *s = share;
            }
        }
        speeds
    }

    /// Advances the clock to `t`, committing AVR's execution over
    /// `[now, t)`. Because AVR is memoryless, this simply evaluates the
    /// full AVR schedule of the jobs seen so far restricted to the window —
    /// identical to what instant-by-instant simulation would produce. The
    /// evaluation is memoized per job list: only the first advance after an
    /// arrival recomputes the plan
    /// (see [`plans_computed`](AvrSession::plans_computed)); further
    /// advances slice the cached schedule in O(committed segments).
    pub fn advance_to(&mut self, t: f64) -> Result<(), SessionError> {
        self.core.check_clock(t)?;
        if self.plan.is_none() && self.core.job_count() > 0 {
            let instance = Instance::new(self.core.m(), self.core.jobs().to_vec())
                .map_err(SessionError::Planning)?;
            self.plan = Some(avr_schedule(&instance));
            self.plans_computed += 1;
        }
        let window = match &self.plan {
            Some(plan) => plan.restrict(self.core.now(), t).segments,
            None => Vec::new(),
        };
        self.core.commit(window, t);
        self.publish_metrics();
        Ok(())
    }

    /// How many times the session actually evaluated the AVR plan — at most
    /// once per arrival, however many clock advances were driven. (A
    /// restored session recomputes once on its first advance.)
    pub fn plans_computed(&self) -> usize {
        self.plans_computed
    }

    /// Freezes the full session state into a serializable, versioned
    /// [`AvrCheckpoint`]. Metrics handles are not part of the state —
    /// re-attach after [`restore`](AvrSession::restore).
    pub fn checkpoint(&self) -> AvrCheckpoint {
        self.core.checkpoint()
    }

    /// Resumes a session from a checkpoint, bit-identically: AVR's
    /// decisions are a pure function of the job set and the clock, both of
    /// which the checkpoint carries in full.
    pub fn restore(checkpoint: AvrCheckpoint) -> Result<AvrSession, SessionError> {
        checkpoint.validate().map_err(SessionError::Checkpoint)?;
        Ok(AvrSession {
            core: SessionCore::restore(checkpoint),
            plan: None,
            plans_computed: 0,
        })
    }

    /// Runs to the last deadline and returns the full schedule.
    pub fn finish(mut self) -> Result<Schedule<f64>, SessionError> {
        self.advance_to(self.core.horizon())?;
        Ok(self.core.into_schedule())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::energy::schedule_energy;
    use mpss_core::job::job;
    use mpss_core::power::Polynomial;
    use mpss_core::validate::assert_feasible;

    #[test]
    fn session_replays_batch_avr() {
        let ins = Instance::new(
            2,
            vec![job(0.0, 4.0, 4.0), job(0.0, 2.0, 2.0), job(1.0, 3.0, 2.0)],
        )
        .unwrap();
        let batch = avr_schedule(&ins);

        let mut s = AvrSession::new(2, 0.0);
        s.arrive(4.0, 4.0).unwrap();
        s.arrive(2.0, 2.0).unwrap();
        s.advance_to(1.0).unwrap();
        s.arrive(3.0, 2.0).unwrap();
        let sched = s.finish().unwrap();

        assert_feasible(&ins, &sched, 1e-9);
        let p = Polynomial::new(2.0);
        let a = schedule_energy(&batch, &p);
        let b = schedule_energy(&sched, &p);
        assert!(
            (a - b).abs() <= 1e-9 * a.max(1.0),
            "batch {a} vs session {b}"
        );
    }

    #[test]
    fn current_speeds_follow_fig3_peeling() {
        let mut s = AvrSession::new(2, 0.0);
        s.arrive(1.0, 4.0).unwrap(); // density 4
        s.arrive(1.0, 1.0).unwrap(); // density 1
        s.arrive(1.0, 1.0).unwrap(); // density 1
        let speeds = s.current_speeds();
        // Peel the 4; the two 1s share speed 2 on the other processor.
        assert_eq!(speeds, vec![4.0, 2.0]);
    }

    #[test]
    fn memorylessness_past_jobs_do_not_affect_speeds() {
        let mut s = AvrSession::new(1, 0.0);
        s.arrive(1.0, 3.0).unwrap();
        s.advance_to(2.0).unwrap(); // job expired
        assert_eq!(s.current_speeds(), vec![0.0]);
        s.arrive(4.0, 2.0).unwrap();
        assert_eq!(s.current_speeds(), vec![1.0]);
    }

    #[test]
    fn attached_metrics_track_the_active_set() {
        use mpss_obs::{MetricsHub, SnapshotValue};
        let hub = MetricsHub::new();
        let mut s = AvrSession::new(2, 0.0);
        s.attach_metrics(crate::SessionMetrics::register(&hub, "avr", 2));
        s.arrive(1.0, 4.0).unwrap();
        s.arrive(1.0, 1.0).unwrap();
        s.advance_to(2.0).unwrap(); // both windows closed

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
        match value("mpss_session_active_jobs") {
            SnapshotValue::Gauge(n) => assert_eq!(n, 0.0),
            other => panic!("active: {other:?}"),
        }
        match value("mpss_session_queued_volume") {
            SnapshotValue::Gauge(v) => assert_eq!(v, 0.0),
            other => panic!("queued: {other:?}"),
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let drive_prefix = |s: &mut AvrSession| {
            s.arrive(4.0, 4.0).unwrap();
            s.arrive(2.0, 2.0).unwrap();
            s.advance_to(1.0).unwrap();
        };
        let drive_suffix = |mut s: AvrSession| {
            s.arrive(3.0, 2.0).unwrap();
            s.advance_to(2.5).unwrap();
            s.finish().unwrap()
        };

        let mut uninterrupted = AvrSession::new(2, 0.0);
        drive_prefix(&mut uninterrupted);
        let expected = drive_suffix(uninterrupted);

        let mut killed = AvrSession::new(2, 0.0);
        drive_prefix(&mut killed);
        let frozen = killed.checkpoint().to_json().render();
        drop(killed);
        let thawed =
            AvrCheckpoint::from_json(&mpss_obs::json::Json::parse(&frozen).unwrap()).unwrap();
        let restored = AvrSession::restore(thawed).unwrap();
        let actual = drive_suffix(restored);
        assert_eq!(expected.segments, actual.segments);
    }

    #[test]
    fn advances_between_arrivals_reuse_the_memoized_plan() {
        // Many fine-grained ticks (the serve broadcast pattern) between two
        // arrivals: the plan is evaluated once per arrival, and the
        // committed schedule equals the coarse-tick session's exactly.
        let mut fine = AvrSession::new(2, 0.0);
        fine.arrive(4.0, 4.0).unwrap();
        for k in 1..=10 {
            fine.advance_to(0.1 * k as f64).unwrap();
        }
        fine.arrive(3.0, 2.0).unwrap();
        for k in 11..=20 {
            fine.advance_to(0.1 * k as f64).unwrap();
        }
        assert_eq!(fine.plans_computed(), 2);

        let mut coarse = AvrSession::new(2, 0.0);
        coarse.arrive(4.0, 4.0).unwrap();
        coarse.advance_to(1.0).unwrap();
        coarse.arrive(3.0, 2.0).unwrap();
        let expected = coarse.finish().unwrap();
        assert_eq!(fine.finish().unwrap().segments, expected.segments);
    }

    #[test]
    fn clock_cannot_move_backwards() {
        let mut s = AvrSession::new(1, 0.0);
        s.arrive(4.0, 2.0).unwrap();
        s.advance_to(2.0).unwrap();
        let before = s.checkpoint();
        assert_eq!(
            s.advance_to(1.0),
            Err(SessionError::TimeWentBackwards {
                now: 2.0,
                requested: 1.0
            })
        );
        assert_eq!(
            s.checkpoint(),
            before,
            "a rejected advance moved the session"
        );
        assert_eq!(s.plans_computed(), 1);
    }

    #[test]
    fn empty_session_is_silent() {
        let s = AvrSession::new(2, 0.0);
        assert_eq!(s.current_speeds(), vec![0.0, 0.0]);
        let sched = s.finish().unwrap();
        assert!(sched.is_empty());
    }
}
