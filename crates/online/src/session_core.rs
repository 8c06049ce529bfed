//! What every online session shares: OA(m) and AVR(m) (§3) both learn jobs
//! at their release times on `m` processors, move the clock only forward
//! and never revise executed history. [`SessionCore`] holds that state and
//! its steps once; [`OaSession`](crate::OaSession) and
//! [`AvrSession`](crate::AvrSession) embed it and keep only how they plan.

use crate::checkpoint::{CheckpointError, CoreCheckpoint, CHECKPOINT_VERSION};
use crate::session_metrics::SessionMetrics;
use mpss_core::{Instance, Job, JobId, ModelError, Schedule, Segment};
use mpss_numeric::FlowNum;
use std::ops::Range;

/// Errors from driving a session. Times are reported as `f64` whatever
/// the session's number type.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Time may not move backwards.
    TimeWentBackwards { now: f64, requested: f64 },
    /// The arriving job is malformed (empty window / non-positive volume).
    BadJob(ModelError),
    /// Internal planning failure (defensive; unreachable for valid input).
    Planning(ModelError),
    /// A checkpoint could not be restored (wrong version, unknown engine,
    /// or structurally inconsistent state).
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::TimeWentBackwards { now, requested } => {
                write!(
                    f,
                    "cannot advance to {requested}: clock is already at {now}"
                )
            }
            SessionError::BadJob(e) => write!(f, "bad job: {e}"),
            SessionError::Planning(e) => write!(f, "planning failed: {e}"),
            SessionError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The state and steps OA and AVR sessions share, in `f64` (the default)
/// or in exact [`Rational`](mpss_numeric::Rational) arithmetic. History
/// compaction and checkpoints exist for `SessionCore<f64>` only.
pub struct SessionCore<T: FlowNum = f64> {
    now: T,
    /// Every job announced so far, in arrival order (the session's job ids).
    jobs: Vec<Job<T>>,
    /// Committed history up to `now` (from the compaction watermark on,
    /// once [`compact_history`](SessionCore::compact_history) has run). Its
    /// `m` is the session's processor count.
    executed: Schedule<T>,
    /// Everything executed strictly before this time was compacted away.
    compaction_watermark: Option<f64>,
    compacted_segments: usize,
    compacted_work: f64,
    /// The attached metrics bundle, which the sessions publish to.
    pub(crate) metrics: Option<SessionMetrics>,
}

impl<T: FlowNum> SessionCore<T> {
    pub(crate) fn new(m: usize, start: T) -> SessionCore<T> {
        assert!(m >= 1, "need at least one processor");
        SessionCore {
            now: start,
            jobs: Vec::new(),
            executed: Schedule::new(m),
            compaction_watermark: None,
            compacted_segments: 0,
            compacted_work: 0.0,
            metrics: None,
        }
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.executed.m
    }

    /// Current clock.
    pub fn now(&self) -> T {
        self.now
    }

    /// Every job announced so far; session job ids index this slice.
    pub(crate) fn jobs(&self) -> &[Job<T>] {
        &self.jobs
    }

    /// Number of jobs announced so far (session job ids are `0..job_count()`).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The committed (already executed) history: everything strictly before
    /// [`now`](SessionCore::now). Append-only across the session's lifetime,
    /// except that [`compact_history`](SessionCore::compact_history) may drop
    /// segments from the front (before the compaction watermark).
    pub fn executed(&self) -> &Schedule<T> {
        &self.executed
    }

    /// Rejects moving the clock to before `now`.
    pub(crate) fn check_clock(&self, t: T) -> Result<(), SessionError> {
        if t < self.now {
            return Err(SessionError::TimeWentBackwards {
                now: self.now.to_f64(),
                requested: t.to_f64(),
            });
        }
        Ok(())
    }

    /// Announces each `(deadline, volume)` of `batch` as a job released now;
    /// returns their ids. One malformed job rejects the whole batch.
    pub(crate) fn announce(&mut self, batch: &[(T, T)]) -> Result<Range<JobId>, SessionError> {
        let jobs = batch
            .iter()
            .map(|&(deadline, volume)| Job::new(self.now, deadline, volume))
            .collect();
        let arrived = Instance::new(self.m(), jobs).map_err(SessionError::BadJob)?;
        let ids = self.jobs.len()..self.jobs.len() + batch.len();
        self.jobs.extend(arrived.jobs);
        Ok(ids)
    }

    /// Forgets the jobs announced from id `first` on (unwinds an arrival
    /// whose replan failed).
    pub(crate) fn retract(&mut self, first: JobId) {
        self.jobs.truncate(first);
    }

    /// Commits `segments`, executed over `[now, t)`, and moves the clock to
    /// `t` (which [`check_clock`](SessionCore::check_clock) accepted).
    pub(crate) fn commit(&mut self, segments: Vec<Segment<T>>, t: T) {
        for seg in segments {
            self.executed.push(seg);
        }
        self.now = t;
    }

    /// Where `finish` runs the session to: the latest deadline, or `now`.
    pub(crate) fn horizon(&self) -> T {
        self.jobs.iter().map(|j| j.deadline).fold(self.now, T::max2)
    }

    /// The executed history, normalized: what `finish` returns.
    pub(crate) fn into_schedule(self) -> Schedule<T> {
        let mut schedule = self.executed;
        schedule.normalize();
        schedule
    }
}

impl SessionCore {
    /// Drops executed history strictly before `watermark` (clamped to
    /// `now`), bounding the history a long-running service keeps. Returns
    /// the number of segments dropped; their count and total work stay
    /// available through [`compacted_segments`](SessionCore::compacted_segments)
    /// / [`compacted_work`](SessionCore::compacted_work), and the effective
    /// watermark through
    /// [`compaction_watermark`](SessionCore::compaction_watermark) — all three
    /// are carried by checkpoints. The job table is not compacted: it keeps
    /// every job ever announced.
    ///
    /// Only segments ending at or before the watermark are dropped, so
    /// [`executed`](SessionCore::executed) always holds the exact history of
    /// `[watermark, now)` plus any straddling segments in full. Compaction
    /// never changes scheduling decisions — plans read jobs (and OA's
    /// remaining volumes), never the history.
    pub fn compact_history(&mut self, watermark: f64) -> usize {
        let effective = watermark
            .min(self.now)
            .max(self.compaction_watermark.unwrap_or(f64::MIN));
        let before = self.executed.segments.len();
        let mut dropped_work = 0.0;
        self.executed.segments.retain(|seg| {
            if seg.end <= effective {
                dropped_work += seg.work();
                false
            } else {
                true
            }
        });
        let dropped = before - self.executed.segments.len();
        self.compacted_segments += dropped;
        self.compacted_work += dropped_work;
        self.compaction_watermark = Some(effective);
        dropped
    }

    /// Everything executed strictly before this time has been compacted
    /// away (`None`: never compacted, the history is complete).
    pub fn compaction_watermark(&self) -> Option<f64> {
        self.compaction_watermark
    }

    /// Segments dropped by compaction over the session's lifetime.
    pub fn compacted_segments(&self) -> usize {
        self.compacted_segments
    }

    /// Work (volume units) carried by the compacted segments.
    pub fn compacted_work(&self) -> f64 {
        self.compacted_work
    }

    /// The checkpoint header: this core's state under the current format
    /// version.
    pub(crate) fn checkpoint(&self) -> CoreCheckpoint {
        CoreCheckpoint {
            version: CHECKPOINT_VERSION,
            m: self.m(),
            now: self.now,
            jobs: self.jobs.clone(),
            executed: self.executed.clone(),
            compaction_watermark: self.compaction_watermark,
            compacted_segments: self.compacted_segments,
            compacted_work: self.compacted_work,
        }
    }

    /// Rebuilds a core, unmetered, from a header that
    /// [`CoreCheckpoint::validate`] accepted.
    pub(crate) fn restore(checkpoint: CoreCheckpoint) -> SessionCore {
        SessionCore {
            now: checkpoint.now,
            jobs: checkpoint.jobs,
            executed: checkpoint.executed,
            compaction_watermark: checkpoint.compaction_watermark,
            compacted_segments: checkpoint.compacted_segments,
            compacted_work: checkpoint.compacted_work,
            metrics: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(job: JobId, start: f64, end: f64) -> Segment<f64> {
        Segment {
            job,
            proc: 0,
            start,
            end,
            speed: 1.0,
        }
    }

    #[test]
    fn compaction_drops_old_history_and_keeps_the_tally() {
        let mut core = SessionCore::new(1, 0.0);
        core.announce(&[(2.0, 2.0)]).unwrap();
        core.commit(vec![segment(0, 0.0, 1.0), segment(0, 1.0, 2.0)], 2.0);
        core.announce(&[(4.0, 1.0)]).unwrap();
        core.commit(vec![segment(1, 2.0, 3.0)], 3.0);
        let full_work = core.executed().total_work();
        let dropped = core.compact_history(2.0);
        assert_eq!(dropped, 2);
        assert_eq!(core.compaction_watermark(), Some(2.0));
        assert_eq!(core.compacted_segments(), dropped);
        assert!(
            (core.compacted_work() + core.executed().total_work() - full_work).abs() < 1e-9,
            "work must be conserved across compaction"
        );
        // The suffix history is untouched and the watermark never moves back.
        assert_eq!(core.executed().segments, [segment(1, 2.0, 3.0)]);
        core.compact_history(1.0);
        assert_eq!(core.compaction_watermark(), Some(2.0));
        // Checkpoints carry the compaction bookkeeping.
        let back = SessionCore::restore(core.checkpoint());
        assert_eq!(back.compaction_watermark(), Some(2.0));
        assert_eq!(back.compacted_segments(), dropped);
        assert_eq!(
            back.compacted_work().to_bits(),
            core.compacted_work().to_bits()
        );
        // A watermark past the clock is clamped to it.
        core.compact_history(10.0);
        assert_eq!(core.compaction_watermark(), Some(3.0));
        assert!(core.executed().is_empty());
    }
}
