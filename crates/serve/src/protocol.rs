//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in order. Every request is
//! a JSON object whose `op` field selects the operation; every response is
//! an object with an `ok` boolean — `true` with the reply fields inlined,
//! or `false` with an `error` object carrying a stable machine-readable
//! `kind` and a human-readable `message`. The full schema, with examples
//! that are round-trip-tested verbatim, lives in `PROTOCOL.md` at the repo
//! root.
//!
//! Parsing is intentionally forgiving in exactly one way: unknown fields on
//! a known `op` are ignored, so newer clients can talk to older daemons as
//! long as the fields the old daemon reads keep their meaning. An unknown
//! `op` is an error — silently dropping a request the peer thinks happened
//! would be worse than failing loudly.

use mpss_core::json::{num, uint};
use mpss_obs::json::Json;
use mpss_offline::FlowEngine;

/// Which online algorithm a tenant runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// OA(m): replans an optimal schedule on every arrival.
    Oa,
    /// AVR(m): memoryless average-rate speeds.
    Avr,
}

impl Algo {
    /// The wire spelling (`"oa"` / `"avr"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Algo::Oa => "oa",
            Algo::Avr => "avr",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "oa" => Some(Algo::Oa),
            "avr" => Some(Algo::Avr),
            _ => None,
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens a tenant session.
    Open {
        /// Tenant id (`[A-Za-z0-9._-]`, at most 64 chars).
        tenant: String,
        /// The algorithm the tenant runs.
        algo: Algo,
        /// Processor count.
        m: usize,
        /// Initial clock (defaults to `0.0`).
        start: f64,
        /// Max-flow engine for OA replans (`None`: the engine default).
        engine: Option<FlowEngine>,
    },
    /// Announces a job arriving at the tenant's current clock.
    Arrive {
        /// Target tenant.
        tenant: String,
        /// The job's deadline.
        deadline: f64,
        /// The job's work volume.
        volume: f64,
    },
    /// Advances one tenant's clock — or, with `tenant` omitted, every
    /// tenant's (executed in parallel over the daemon's thread pool).
    Advance {
        /// Target tenant (`None`: broadcast to all).
        tenant: Option<String>,
        /// The time to advance to.
        to: f64,
    },
    /// Reports a tenant's current plan: per-processor speeds and per-job
    /// remaining volumes.
    QueryPlan {
        /// Target tenant.
        tenant: String,
    },
    /// Summarizes one tenant (or all of them): clock, job counts, counters,
    /// compaction state.
    Snapshot {
        /// Target tenant (`None`: all tenants).
        tenant: Option<String>,
    },
    /// Writes one versioned checkpoint file per tenant into `dir`.
    Checkpoint {
        /// Target tenant (`None`: all tenants).
        tenant: Option<String>,
        /// Directory to write `<tenant>.checkpoint.json` files into
        /// (created if missing).
        dir: String,
    },
    /// Re-opens tenants from the checkpoint files in `dir`.
    Restore {
        /// Target tenant (`None`: every checkpoint found in `dir`).
        tenant: Option<String>,
        /// Directory holding `<tenant>.checkpoint.json` files.
        dir: String,
    },
    /// Dumps a postmortem bundle (checkpoint + flight recorder + metrics
    /// snapshot) for one tenant, on operator demand rather than on failure.
    DebugDump {
        /// Target tenant.
        tenant: String,
        /// Directory to write the bundle into (`None`: the daemon's
        /// configured `--postmortem-dir`).
        dir: Option<String>,
    },
    /// Acknowledges and stops the daemon loop.
    Shutdown,
}

impl Request {
    /// The request's `op` string (also the metrics label).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Arrive { .. } => "arrive",
            Request::Advance { .. } => "advance",
            Request::QueryPlan { .. } => "query-plan",
            Request::Snapshot { .. } => "snapshot",
            Request::Checkpoint { .. } => "checkpoint",
            Request::Restore { .. } => "restore",
            Request::DebugDump { .. } => "debug-dump",
            Request::Shutdown => "shutdown",
        }
    }

    /// Every `op` the protocol defines, in documentation order. The
    /// PROTOCOL.md round-trip test uses this to prove the spec covers the
    /// whole surface.
    pub const OPS: &'static [&'static str] = &[
        "open",
        "arrive",
        "advance",
        "query-plan",
        "snapshot",
        "checkpoint",
        "restore",
        "debug-dump",
        "shutdown",
    ];

    /// Parses one request line. Errors become `bad-request` responses.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        Request::from_json(&doc)
    }

    /// Parses a request from an already-parsed JSON document.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        if !matches!(doc, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = req_str(doc, "op")?;
        match op.as_str() {
            "open" => {
                let engine = match doc.get("engine") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(name)) => Some(FlowEngine::parse(name).ok_or_else(|| {
                        format!("unknown engine `{name}` (want dinic|push-relabel)")
                    })?),
                    Some(other) => return Err(format!("`engine` is not a string: {other:?}")),
                };
                Ok(Request::Open {
                    tenant: req_str(doc, "tenant")?,
                    algo: {
                        let name = req_str(doc, "algo")?;
                        Algo::parse(&name)
                            .ok_or_else(|| format!("unknown algo `{name}` (want oa|avr)"))?
                    },
                    m: uint(doc, "m")? as usize,
                    start: opt_num(doc, "start")?.unwrap_or(0.0),
                    engine,
                })
            }
            "arrive" => Ok(Request::Arrive {
                tenant: req_str(doc, "tenant")?,
                deadline: num(doc, "deadline")?,
                volume: num(doc, "volume")?,
            }),
            "advance" => Ok(Request::Advance {
                tenant: opt_str(doc, "tenant")?,
                to: num(doc, "to")?,
            }),
            "query-plan" => Ok(Request::QueryPlan {
                tenant: req_str(doc, "tenant")?,
            }),
            "snapshot" => Ok(Request::Snapshot {
                tenant: opt_str(doc, "tenant")?,
            }),
            "checkpoint" => Ok(Request::Checkpoint {
                tenant: opt_str(doc, "tenant")?,
                dir: req_str(doc, "dir")?,
            }),
            "restore" => Ok(Request::Restore {
                tenant: opt_str(doc, "tenant")?,
                dir: req_str(doc, "dir")?,
            }),
            "debug-dump" => Ok(Request::DebugDump {
                tenant: req_str(doc, "tenant")?,
                dir: opt_str(doc, "dir")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Renders the request back to its wire document (what a client sends).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.push("op", Json::from(self.op()));
        match self {
            Request::Open {
                tenant,
                algo,
                m,
                start,
                engine,
            } => {
                doc.push("tenant", Json::from(tenant.as_str()));
                doc.push("algo", Json::from(algo.as_str()));
                doc.push("m", Json::UInt(*m as u64));
                doc.push("start", Json::Num(*start));
                if let Some(engine) = engine {
                    doc.push("engine", Json::from(engine.name()));
                }
            }
            Request::Arrive {
                tenant,
                deadline,
                volume,
            } => {
                doc.push("tenant", Json::from(tenant.as_str()));
                doc.push("deadline", Json::Num(*deadline));
                doc.push("volume", Json::Num(*volume));
            }
            Request::Advance { tenant, to } => {
                if let Some(tenant) = tenant {
                    doc.push("tenant", Json::from(tenant.as_str()));
                }
                doc.push("to", Json::Num(*to));
            }
            Request::QueryPlan { tenant } => {
                doc.push("tenant", Json::from(tenant.as_str()));
            }
            Request::Snapshot { tenant } => {
                if let Some(tenant) = tenant {
                    doc.push("tenant", Json::from(tenant.as_str()));
                }
            }
            Request::Checkpoint { tenant, dir } | Request::Restore { tenant, dir } => {
                if let Some(tenant) = tenant {
                    doc.push("tenant", Json::from(tenant.as_str()));
                }
                doc.push("dir", Json::from(dir.as_str()));
            }
            Request::DebugDump { tenant, dir } => {
                doc.push("tenant", Json::from(tenant.as_str()));
                if let Some(dir) = dir {
                    doc.push("dir", Json::from(dir.as_str()));
                }
            }
            Request::Shutdown => {}
        }
        doc
    }
}

/// Machine-readable error categories; the `error.kind` field of a failed
/// response carries [`as_str`](ErrorKind::as_str). Stable across versions —
/// clients branch on these, messages are for humans.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a well-formed request.
    BadRequest,
    /// The addressed tenant does not exist.
    UnknownTenant,
    /// `open`/`restore` of a tenant id that is already live.
    DuplicateTenant,
    /// `advance` to a time before a tenant's clock.
    TimeWentBackwards,
    /// The arriving job was rejected by model validation.
    BadJob,
    /// A replan failed (defensive; unreachable for validated jobs).
    Planning,
    /// A checkpoint file was missing, malformed, or version-incompatible.
    BadCheckpoint,
    /// The underlying filesystem said no.
    Io,
    /// The daemon itself failed — a request handler panicked and was caught
    /// by the scoped panic hook. The tenant's state may be inconsistent; a
    /// postmortem bundle is written when a bundle directory is configured.
    Internal,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownTenant => "unknown-tenant",
            ErrorKind::DuplicateTenant => "duplicate-tenant",
            ErrorKind::TimeWentBackwards => "time-went-backwards",
            ErrorKind::BadJob => "bad-job",
            ErrorKind::Planning => "planning",
            ErrorKind::BadCheckpoint => "bad-checkpoint",
            ErrorKind::Io => "io",
            ErrorKind::Internal => "internal",
        }
    }

    /// Every kind, in documentation order (PROTOCOL.md lists exactly these).
    pub const ALL: &'static [ErrorKind] = &[
        ErrorKind::BadRequest,
        ErrorKind::UnknownTenant,
        ErrorKind::DuplicateTenant,
        ErrorKind::TimeWentBackwards,
        ErrorKind::BadJob,
        ErrorKind::Planning,
        ErrorKind::BadCheckpoint,
        ErrorKind::Io,
        ErrorKind::Internal,
    ];
}

/// One response line: the `{"ok": …}` envelope around either inlined reply
/// fields or an `error` object.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    doc: Json,
}

impl Response {
    /// A success response; `body` must be a [`Json`] object, its fields are
    /// inlined after `"ok": true`.
    pub fn ok(body: Json) -> Response {
        let mut doc = Json::object();
        doc.push("ok", Json::Bool(true));
        if let Json::Obj(fields) = body {
            for (key, value) in fields {
                doc.push(&key, value);
            }
        }
        Response { doc }
    }

    /// A failure response with a stable `kind` and a human message.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        let mut err = Json::object();
        err.push("kind", Json::from(kind.as_str()));
        err.push("message", Json::from(message.into()));
        let mut doc = Json::object();
        doc.push("ok", Json::Bool(false));
        doc.push("error", err);
        Response { doc }
    }

    /// Validates the envelope of a received response document: `ok` must be
    /// a boolean, and a failure must carry `error.kind` / `error.message`
    /// strings.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        match doc.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                let err = doc.get("error").ok_or("failed response without `error`")?;
                if !matches!(err.get("kind"), Some(Json::Str(_))) {
                    return Err("error without a string `kind`".into());
                }
                if !matches!(err.get("message"), Some(Json::Str(_))) {
                    return Err("error without a string `message`".into());
                }
            }
            _ => return Err("response without a boolean `ok`".into()),
        }
        Ok(Response { doc: doc.clone() })
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self.doc.get("ok"), Some(Json::Bool(true)))
    }

    /// The error kind of a failed response.
    pub fn error_kind(&self) -> Option<&str> {
        match self.doc.get("error")?.get("kind") {
            Some(Json::Str(kind)) => Some(kind),
            _ => None,
        }
    }

    /// A reply field by name.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.doc.get(key)
    }

    /// The raw response document.
    pub fn to_json(&self) -> &Json {
        &self.doc
    }

    /// The response as one wire line (compact, no trailing newline).
    pub fn render_line(&self) -> String {
        self.doc.render()
    }
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("`{key}` is not a string: {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn opt_str(doc: &Json, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => req_str(doc, key).map(Some),
    }
}

fn opt_num(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => num(doc, key).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_wire_form() {
        let requests = vec![
            Request::Open {
                tenant: "t-1".into(),
                algo: Algo::Oa,
                m: 4,
                start: 0.5,
                engine: Some(FlowEngine::PushRelabel),
            },
            Request::Arrive {
                tenant: "t-1".into(),
                deadline: 4.0,
                volume: 1.0 / 3.0,
            },
            Request::Advance {
                tenant: None,
                to: 2.0,
            },
            Request::QueryPlan {
                tenant: "t-1".into(),
            },
            Request::Snapshot { tenant: None },
            Request::Checkpoint {
                tenant: Some("t-1".into()),
                dir: "/tmp/ckpt".into(),
            },
            Request::Restore {
                tenant: None,
                dir: "/tmp/ckpt".into(),
            },
            Request::DebugDump {
                tenant: "t-1".into(),
                dir: Some("/tmp/pm".into()),
            },
            Request::DebugDump {
                tenant: "t-1".into(),
                dir: None,
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_json().render();
            let back = Request::parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, request, "{line}");
        }
    }

    #[test]
    fn unknown_fields_are_ignored_unknown_ops_are_not() {
        let line = r#"{"op":"snapshot","tenant":"a","future_flag":true}"#;
        assert_eq!(
            Request::parse_line(line).unwrap(),
            Request::Snapshot {
                tenant: Some("a".into())
            }
        );
        assert!(Request::parse_line(r#"{"op":"explode"}"#).is_err());
        assert!(Request::parse_line("[1,2]").is_err());
        assert!(Request::parse_line("not json").is_err());
    }

    #[test]
    fn missing_fields_name_the_field() {
        let err = Request::parse_line(r#"{"op":"arrive","tenant":"a"}"#).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
    }

    #[test]
    fn response_envelope_validates() {
        let mut body = Json::object();
        body.push("job", Json::UInt(3));
        let ok = Response::ok(body);
        assert!(ok.is_ok());
        assert_eq!(ok.get("job"), Some(&Json::UInt(3)));
        let reparsed = Response::from_json(&Json::parse(&ok.render_line()).unwrap()).unwrap();
        assert_eq!(reparsed, ok);

        let err = Response::error(ErrorKind::UnknownTenant, "no tenant `x`");
        assert!(!err.is_ok());
        assert_eq!(err.error_kind(), Some("unknown-tenant"));
        Response::from_json(&Json::parse(&err.render_line()).unwrap()).unwrap();

        assert!(Response::from_json(&Json::parse(r#"{"ok":false}"#).unwrap()).is_err());
        assert!(Response::from_json(&Json::parse(r#"{"no":"ok"}"#).unwrap()).is_err());
    }

    #[test]
    fn ops_constant_matches_the_parser() {
        for &op in Request::OPS {
            // Each documented op is at least recognized (field errors are
            // fine, "unknown op" is not).
            let line = format!(r#"{{"op":"{op}"}}"#);
            match Request::parse_line(&line) {
                Ok(_) => {}
                Err(e) => assert!(!e.contains("unknown op"), "{op}: {e}"),
            }
        }
    }
}
