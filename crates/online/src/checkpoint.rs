//! Versioned, serializable session state for checkpoint/restore.
//!
//! A long-running service (see the `mpss-serve` daemon) must survive being
//! killed: it periodically serializes every live session to disk and, on
//! restart, resumes each one **bit-identically** — the restored session
//! produces exactly the executed schedule and work counters the
//! uninterrupted session would have produced. That property is only
//! achievable if the checkpoint captures *all* decision-relevant state, so
//! the structs here mirror the sessions field by field, including the
//! currently-followed plan (recomputing the plan on restore would be
//! mathematically equivalent but not guaranteed bit-identical in floating
//! point) and the max-flow engine the session replans with.
//!
//! The format is versioned by [`CHECKPOINT_VERSION`]. Versioning rules
//! (also documented in `PROTOCOL.md` at the repo root):
//!
//! * a reader MUST reject a checkpoint whose `version` it does not know
//!   (restoring across formats silently would break bit-identity);
//! * unknown *fields* are ignored on read, so additive extensions bump the
//!   version only when old readers would misinterpret the state;
//! * every field that influences scheduling decisions — jobs, remaining
//!   volumes, the clock, the plan, the engine — is required; counters and
//!   compaction bookkeeping default to their empty values.
//!
//! Checkpoints serialize through [`mpss_obs::json::Json`], the workspace's
//! offline JSON codec. `f64` fields render in shortest-round-trip form
//! (`{}` on `f64`), so reading the text back yields bit-identical doubles —
//! which is what makes JSON an acceptable carrier for a bit-identity
//! guarantee.
//!
//! ```
//! use mpss_obs::json::Json;
//! use mpss_online::{OaCheckpoint, OaSession};
//!
//! let mut session = OaSession::new(2, 0.0);
//! session.arrive(4.0, 3.0).unwrap();
//! session.advance_to(1.0).unwrap();
//!
//! // Kill…
//! let frozen = session.checkpoint().to_json().render();
//! drop(session);
//!
//! // …and resume, bit-identically.
//! let thawed = OaCheckpoint::from_json(&Json::parse(&frozen).unwrap()).unwrap();
//! let mut session = OaSession::restore(thawed).unwrap();
//! assert_eq!(session.core().now(), 1.0);
//! session.advance_to(4.0).unwrap();
//! ```

use mpss_core::json::{any_num, arr, num, uint};
use mpss_core::{Job, JobId, Schedule};
use mpss_numeric::FlowNum;
use mpss_obs::json::Json;
use mpss_offline::FlowEngine;

/// The current checkpoint format version. Bump when a change would make an
/// old reader misinterpret the state; see the module docs for the rules.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A checkpoint that cannot be resumed (a restore reports it as
/// [`SessionError::Checkpoint`](crate::SessionError::Checkpoint)), or a
/// document that is not a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError(msg.into())
}

/// The plan an [`OaSession`](crate::OaSession) is currently following: the
/// sub-instance schedule, the mapping from plan-internal job indices back
/// to session job ids, and each plan job's assigned speed (in
/// plan-internal index order). The `f64` snapshot is what checkpoints
/// serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSnapshot<T: FlowNum = f64> {
    /// Maps plan-internal job indices to session job ids.
    pub job_map: Vec<JobId>,
    /// The plan schedule, over plan-internal job ids.
    pub schedule: Schedule<T>,
    /// Per plan-internal job: the speed the plan assigned it (`None` if it
    /// landed in no phase, which validated inputs never produce).
    pub speeds: Vec<Option<T>>,
}

// ---- field-level JSON codec helpers -----------------------------------

impl From<String> for CheckpointError {
    fn from(msg: String) -> CheckpointError {
        CheckpointError(msg)
    }
}

fn uint_or_zero(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).map_or(Ok(0), |_| uint(doc, key))
}

fn num_or_zero(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).map_or(Ok(0.0), |_| num(doc, key))
}

/// The state every session checkpoints: a
/// [`SessionCore`](crate::SessionCore) under a format version. It is the
/// whole of an [`AvrCheckpoint`] (AVR recomputes its memoized plan after
/// restore) and the header of an [`OaCheckpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct CoreCheckpoint {
    /// Format version; restore rejects versions it does not know.
    pub version: u64,
    /// Processor count.
    pub m: usize,
    /// The session clock.
    pub now: f64,
    /// Every job announced so far, in arrival order (session job ids).
    pub jobs: Vec<Job<f64>>,
    /// Committed history (everything at or after the compaction watermark).
    pub executed: Schedule<f64>,
    /// Everything executed up to this time has been compacted away from
    /// `executed` (see
    /// [`SessionCore::compact_history`](crate::SessionCore::compact_history)).
    pub compaction_watermark: Option<f64>,
    /// Segments dropped by compaction so far.
    pub compacted_segments: usize,
    /// Work (volume units) carried by the compacted segments.
    pub compacted_work: f64,
}

/// Full state of an [`AvrSession`](crate::AvrSession): its core's alone.
pub type AvrCheckpoint = CoreCheckpoint;

/// Full state of an [`OaSession`](crate::OaSession), ready to serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct OaCheckpoint {
    /// Clock, jobs, executed history and compaction tally.
    pub core: CoreCheckpoint,
    /// Max-flow engine the session replans with (`"dinic"` /
    /// `"push-relabel"`); bit-identity requires restoring with the same one.
    pub engine: String,
    /// Remaining volume per job, parallel to `core.jobs`.
    pub remaining: Vec<f64>,
    /// The plan being followed, if any.
    pub plan: Option<PlanSnapshot>,
    /// Replans performed so far.
    pub replans: usize,
    /// Max-flow computations performed across all replans.
    pub flow_computations: usize,
}

impl CoreCheckpoint {
    /// Renders the checkpoint as a JSON document.
    pub fn to_json(&self) -> Json {
        self.render(None)
    }

    /// The core's fields with an OA checkpoint's own fields, if given, in
    /// the places the OA format has always carried them: field order is
    /// part of the byte-identical re-checkpoint contract.
    fn render(&self, oa: Option<&OaCheckpoint>) -> Json {
        let mut doc = Json::object();
        doc.push("version", Json::UInt(self.version));
        if let Some(oa) = oa {
            doc.push("engine", Json::from(oa.engine.as_str()));
        }
        doc.push("m", Json::UInt(self.m as u64));
        doc.push("now", Json::Num(self.now));
        doc.push(
            "jobs",
            Json::Arr(self.jobs.iter().map(Job::to_json).collect()),
        );
        if let Some(oa) = oa {
            doc.push(
                "remaining",
                Json::Arr(oa.remaining.iter().map(|&w| Json::Num(w)).collect()),
            );
        }
        doc.push("executed", self.executed.to_json());
        if let Some(oa) = oa {
            doc.push("plan", oa.plan.as_ref().map_or(Json::Null, plan_to_json));
            doc.push("replans", Json::UInt(oa.replans as u64));
            doc.push("flow_computations", Json::UInt(oa.flow_computations as u64));
        }
        doc.push(
            "compaction_watermark",
            self.compaction_watermark.map_or(Json::Null, Json::Num),
        );
        doc.push(
            "compacted_segments",
            Json::UInt(self.compacted_segments as u64),
        );
        doc.push("compacted_work", Json::Num(self.compacted_work));
        doc
    }

    /// Reads a checkpoint back from a JSON document. Unknown fields are
    /// ignored; missing compaction bookkeeping defaults to empty;
    /// everything decision-relevant is required. Structural invariants are
    /// checked by [`validate`](CoreCheckpoint::validate), not here.
    pub fn from_json(doc: &Json) -> Result<CoreCheckpoint, CheckpointError> {
        Ok(CoreCheckpoint {
            version: uint(doc, "version")?,
            m: uint(doc, "m")? as usize,
            now: num(doc, "now")?,
            jobs: arr(doc, "jobs")?
                .iter()
                .map(Job::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            executed: Schedule::from_json(
                doc.get("executed")
                    .ok_or_else(|| bad("missing field `executed`"))?,
            )?,
            compaction_watermark: match doc.get("compaction_watermark") {
                None | Some(Json::Null) => None,
                Some(value) => Some(any_num(value, "`compaction_watermark`")?),
            },
            compacted_segments: uint_or_zero(doc, "compacted_segments")? as usize,
            compacted_work: num_or_zero(doc, "compacted_work")?,
        })
    }

    /// Validates the header: a known version, at least one processor, the
    /// executed history on the same processors, and a finite clock. Called
    /// by every restore.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {} (this build reads {})",
                self.version, CHECKPOINT_VERSION
            )));
        }
        if self.m == 0 {
            return Err(bad("zero processors"));
        }
        if self.executed.m != self.m {
            return Err(bad(format!(
                "{} processors but an executed history on {}",
                self.m, self.executed.m
            )));
        }
        if !self.now.is_finite() {
            return Err(bad("non-finite clock"));
        }
        Ok(())
    }
}

fn plan_to_json(plan: &PlanSnapshot) -> Json {
    let mut p = Json::object();
    p.push(
        "job_map",
        Json::Arr(
            plan.job_map
                .iter()
                .map(|&id| Json::UInt(id as u64))
                .collect(),
        ),
    );
    p.push("schedule", plan.schedule.to_json());
    p.push(
        "speeds",
        Json::Arr(
            plan.speeds
                .iter()
                .map(|s| match s {
                    Some(v) => Json::Num(*v),
                    None => Json::Null,
                })
                .collect(),
        ),
    );
    p
}

impl OaCheckpoint {
    /// Renders the checkpoint as a JSON document.
    pub fn to_json(&self) -> Json {
        self.core.render(Some(self))
    }

    /// Reads a checkpoint back from a JSON document; same field rules as
    /// [`CoreCheckpoint::from_json`], and missing counters default to zero.
    /// Structural invariants are checked by
    /// [`validate`](OaCheckpoint::validate) (which
    /// [`OaSession::restore`](crate::OaSession::restore) calls), not here.
    pub fn from_json(doc: &Json) -> Result<OaCheckpoint, CheckpointError> {
        let engine = match doc.get("engine") {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => return Err(bad(format!("`engine` is not a string: {other:?}"))),
            None => return Err(bad("missing field `engine`")),
        };
        let core = CoreCheckpoint::from_json(doc)?;
        let remaining = arr(doc, "remaining")?
            .iter()
            .map(|w| any_num(w, "`remaining` entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let plan = match doc.get("plan") {
            None | Some(Json::Null) => None,
            Some(plan) => {
                let job_map = arr(plan, "job_map")?
                    .iter()
                    .map(|id| match id {
                        Json::UInt(n) => Ok(*n as JobId),
                        other => Err(bad(format!("`job_map` entry is not an id: {other:?}"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let schedule = Schedule::from_json(
                    plan.get("schedule")
                        .ok_or_else(|| bad("missing field `plan.schedule`"))?,
                )?;
                let speeds = arr(plan, "speeds")?
                    .iter()
                    .map(|s| match s {
                        Json::Null => Ok(None),
                        value => any_num(value, "`speeds` entry").map(Some),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(PlanSnapshot {
                    job_map,
                    schedule,
                    speeds,
                })
            }
        };
        Ok(OaCheckpoint {
            core,
            engine,
            remaining,
            plan,
            replans: uint_or_zero(doc, "replans")? as usize,
            flow_computations: uint_or_zero(doc, "flow_computations")? as usize,
        })
    }

    /// Validates the header and OA's structural invariants, and decodes the
    /// engine name. Called by [`OaSession::restore`](crate::OaSession::restore).
    pub fn validate(&self) -> Result<FlowEngine, CheckpointError> {
        self.core.validate()?;
        if self.core.jobs.len() != self.remaining.len() {
            return Err(bad(format!(
                "{} jobs but {} remaining volumes",
                self.core.jobs.len(),
                self.remaining.len()
            )));
        }
        if let Some(plan) = &self.plan {
            if plan.speeds.len() != plan.job_map.len() {
                return Err(bad("plan speeds do not match its job map"));
            }
            if let Some(&bad_id) = plan.job_map.iter().find(|&&id| id >= self.core.jobs.len()) {
                return Err(bad(format!("plan references unknown session job {bad_id}")));
            }
        }
        FlowEngine::parse(&self.engine)
            .ok_or_else(|| bad(format!("unknown flow engine `{}`", self.engine)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_core::schedule::Segment;

    #[test]
    fn version_mismatch_is_rejected() {
        let cp = AvrCheckpoint {
            version: CHECKPOINT_VERSION + 1,
            m: 1,
            now: 0.0,
            jobs: vec![],
            executed: Schedule::new(1),
            compaction_watermark: None,
            compacted_segments: 0,
            compacted_work: 0.0,
        };
        let err = cp.validate().unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oa_validation_catches_structural_rot() {
        let mut cp = OaCheckpoint {
            core: CoreCheckpoint {
                version: CHECKPOINT_VERSION,
                m: 2,
                now: 1.0,
                jobs: vec![mpss_core::job::job(0.0, 2.0, 1.0)],
                executed: Schedule::new(2),
                compaction_watermark: None,
                compacted_segments: 0,
                compacted_work: 0.0,
            },
            engine: "dinic".into(),
            remaining: vec![1.0],
            plan: None,
            replans: 1,
            flow_computations: 1,
        };
        assert_eq!(cp.validate().unwrap(), FlowEngine::Dinic);
        cp.engine = "push-relabel".into();
        assert_eq!(cp.validate().unwrap(), FlowEngine::PushRelabel);
        cp.engine = "simplex".into();
        assert!(cp.validate().is_err());
        cp.engine = "dinic".into();
        cp.core.executed = Schedule::new(3);
        assert!(cp.validate().is_err(), "history on other processors");
        cp.core.executed = Schedule::new(2);
        cp.remaining.clear();
        assert!(cp.validate().is_err());
        cp.remaining = vec![1.0];
        cp.plan = Some(PlanSnapshot {
            job_map: vec![7],
            schedule: Schedule::new(2),
            speeds: vec![Some(1.0)],
        });
        assert!(cp.validate().is_err(), "dangling plan job id");
    }

    #[test]
    fn oa_checkpoints_round_trip_bit_for_bit() {
        let mut executed = Schedule::new(2);
        executed.push(Segment {
            job: 0,
            proc: 1,
            start: 0.0,
            end: 0.5,
            speed: 1.0 / 3.0,
        });
        let cp = OaCheckpoint {
            core: CoreCheckpoint {
                version: CHECKPOINT_VERSION,
                m: 2,
                now: 0.5,
                jobs: vec![mpss_core::job::job(0.0, 2.0, 0.1 + 0.2)],
                executed,
                compaction_watermark: Some(0.25),
                compacted_segments: 2,
                compacted_work: 1.0 / 7.0,
            },
            engine: "push-relabel".into(),
            remaining: vec![0.3 - 0.5 / 3.0],
            plan: Some(PlanSnapshot {
                job_map: vec![0],
                schedule: Schedule::new(2),
                speeds: vec![Some(1e-12), None],
            }),
            replans: 3,
            flow_computations: 7,
        };
        let text = cp.to_json().render();
        let back = OaCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cp);
        // Pretty rendering carries the same document.
        let pretty = cp.to_json().render_pretty();
        assert_eq!(
            OaCheckpoint::from_json(&Json::parse(&pretty).unwrap()).unwrap(),
            cp
        );
    }

    #[test]
    fn avr_checkpoints_round_trip_bit_for_bit() {
        let cp = AvrCheckpoint {
            version: CHECKPOINT_VERSION,
            m: 3,
            now: 1.0 / 3.0,
            jobs: vec![mpss_core::job::job(0.0, 1.0, 2.0)],
            executed: Schedule::new(3),
            compaction_watermark: None,
            compacted_segments: 0,
            compacted_work: 0.0,
        };
        let text = cp.to_json().render();
        let back = AvrCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn unknown_fields_are_ignored_but_missing_counters_default() {
        let text = r#"{
            "version": 1, "m": 1, "now": 0.5,
            "jobs": [], "executed": {"m": 1, "segments": []},
            "a_future_extension": true
        }"#;
        let cp = AvrCheckpoint::from_json(&Json::parse(text).unwrap()).unwrap();
        cp.validate().unwrap();
        assert_eq!(cp.compacted_segments, 0);
        assert_eq!(cp.compaction_watermark, None);
    }

    #[test]
    fn malformed_documents_are_rejected_with_field_names() {
        let missing = Json::parse(r#"{"version": 1, "m": 2}"#).unwrap();
        let err = AvrCheckpoint::from_json(&missing).unwrap_err();
        assert!(err.to_string().contains("now"), "{err}");
        let wrong_type = Json::parse(r#"{"version": "one"}"#).unwrap();
        let err = AvrCheckpoint::from_json(&wrong_type).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
