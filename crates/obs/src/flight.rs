//! A per-tenant flight recorder: the daemon's black box.
//!
//! Metrics aggregate and traces must be armed in advance; the flight
//! recorder is the third leg — an always-on, fixed-capacity ring of the
//! *recent past*: protocol requests (each failure with its error kind and
//! message), replan summaries (latency, work, patched arcs, winning
//! engine), and postmortem-bundle writes. When a tenant misbehaves, the
//! postmortem bundle dumps the ring and an incident can be reconstructed
//! after the fact. The daemon also mirrors the events that carry a
//! [`Level`] to stderr, so an operator's log and the rings tell one story.
//!
//! The bound is part of the contract and is itself observable:
//!
//! * the ring never holds more than `capacity` events;
//! * `recorded_total == len() + dropped_total` at all times — every event
//!   ever recorded is either still in the ring or was evicted by a record
//!   into a full ring, and counted as dropped;
//! * events carry a strictly increasing sequence number and a monotonic
//!   timestamp, so a dumped ring is always in order.
//!
//! ```
//! use mpss_obs::flight::{Failure, FlightEventKind, FlightRecorder};
//!
//! let mut flight = FlightRecorder::new(2);
//! flight.record(FlightEventKind::request("open", None));
//! flight.record(FlightEventKind::request(
//!     "arrive",
//!     Some(Failure::new("bad-job", "volume must be positive")),
//! ));
//! flight.record(FlightEventKind::request("arrive", None));
//! assert_eq!(flight.len(), 2); // the open was evicted…
//! assert_eq!(flight.dropped_total(), 1); // …and accounted for
//! assert_eq!(flight.recorded_total(), 3);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use crate::json::Json;

/// Severity, ordered: `Trace < Debug < Info < Warn < Error`. The daemon
/// mirrors an event to stderr when its level is at least the configured
/// threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Fine-grained flow tracing.
    Trace,
    /// Diagnostic detail useful when chasing a specific bug.
    Debug,
    /// Normal operational events (tenant opened or restored).
    Info,
    /// Something surprising that the daemon recovered from.
    Warn,
    /// A request or subsystem failed.
    Error,
}

impl Level {
    /// All levels, ascending.
    pub const ALL: [Level; 5] = [
        Level::Trace,
        Level::Debug,
        Level::Info,
        Level::Warn,
        Level::Error,
    ];

    /// The wire/flag spelling: `"trace"`, `"debug"`, `"info"`, `"warn"`,
    /// `"error"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a flag spelling back into a level.
    pub fn parse(text: &str) -> Option<Level> {
        Level::ALL.into_iter().find(|l| l.as_str() == text)
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request failed: its stable wire error kind and its message.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The stable error kind, e.g. `"bad-job"`.
    pub kind: &'static str,
    /// Human-readable detail, as the client saw it.
    pub message: String,
}

impl Failure {
    /// A failure of `kind` saying `message`.
    pub fn new(kind: &'static str, message: impl Into<String>) -> Failure {
        Failure {
            kind,
            message: message.into(),
        }
    }
}

/// What happened: one of the three event classes the recorder keeps.
///
/// The op, engine, error-kind and bundle-reason vocabularies are closed
/// (protocol ops, solver engines, stable error kinds, bundle triggers), so
/// those fields are `&'static str` — recording a routine request or replan
/// event on the hot path allocates nothing. Only failures and bundles carry
/// dynamic text, boxed so a [`FlightEvent`] stays 64 bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEventKind {
    /// A protocol request was handled.
    Request {
        /// The wire op, e.g. `"arrive"`.
        op: &'static str,
        /// Why it failed; `None` when the response was `ok`.
        failure: Option<Box<Failure>>,
    },
    /// A replan ran to completion.
    Replan {
        /// Wall-clock latency of the replan, milliseconds.
        latency_ms: f64,
        /// Solver work operations charged to this replan.
        work_ops: u64,
        /// Network arcs patched incrementally (0 for from-scratch solves).
        patched_arcs: u64,
        /// The engine that produced the plan, `"dinic"` or `"push-relabel"`.
        engine: &'static str,
    },
    /// A postmortem bundle was written, or writing it failed.
    Bundle {
        /// The trigger, e.g. `"slow-replan"`.
        reason: &'static str,
        /// The bundle's path, or the error that stopped the write.
        outcome: Result<Box<str>, Box<str>>,
    },
}

impl FlightEventKind {
    /// A [`FlightEventKind::Request`] event.
    pub fn request(op: &'static str, failure: Option<Failure>) -> FlightEventKind {
        FlightEventKind::Request {
            op,
            failure: failure.map(Box::new),
        }
    }

    /// A [`FlightEventKind::Replan`] event.
    pub fn replan(
        latency_ms: f64,
        work_ops: u64,
        patched_arcs: u64,
        engine: &'static str,
    ) -> FlightEventKind {
        FlightEventKind::Replan {
            latency_ms,
            work_ops,
            patched_arcs,
            engine,
        }
    }

    /// A [`FlightEventKind::Bundle`] event: `Ok(path)` of the written
    /// bundle, or `Err(error)` when writing it failed.
    pub fn bundle(reason: &'static str, outcome: Result<String, String>) -> FlightEventKind {
        FlightEventKind::Bundle {
            reason,
            outcome: outcome
                .map(String::into_boxed_str)
                .map_err(String::into_boxed_str),
        }
    }

    /// The event class as a stable string: `"request"`, `"replan"`,
    /// `"bundle"`.
    pub fn class(&self) -> &'static str {
        match self {
            FlightEventKind::Request { .. } => "request",
            FlightEventKind::Replan { .. } => "replan",
            FlightEventKind::Bundle { .. } => "bundle",
        }
    }

    /// Appends `kind` and the class-specific fields to the JSON object
    /// `obj`.
    pub fn push_fields(&self, obj: &mut Json) {
        obj.push("kind", Json::from(self.class()));
        match self {
            FlightEventKind::Request { op, failure } => {
                obj.push("op", Json::from(*op));
                obj.push("ok", Json::Bool(failure.is_none()));
                if let Some(failure) = failure {
                    obj.push("error_kind", Json::from(failure.kind));
                    obj.push("message", Json::from(failure.message.as_str()));
                }
            }
            FlightEventKind::Replan {
                latency_ms,
                work_ops,
                patched_arcs,
                engine,
            } => {
                obj.push("latency_ms", Json::from(*latency_ms));
                obj.push("work_ops", Json::from(*work_ops));
                obj.push("patched_arcs", Json::from(*patched_arcs));
                obj.push("engine", Json::from(*engine));
            }
            FlightEventKind::Bundle { reason, outcome } => {
                obj.push("reason", Json::from(*reason));
                match outcome {
                    Ok(path) => obj.push("path", Json::from(&**path)),
                    Err(error) => obj.push("error", Json::from(&**error)),
                };
            }
        }
    }
}

/// One recorded event: when it happened and what it was.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Strictly increasing per recorder, never reused; survives evictions,
    /// so a dump names the absolute position of each retained event.
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch (monotonic).
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
}

impl FlightEvent {
    /// The event as a JSON object (`seq`, `ts_ns`, `kind`, then
    /// kind-specific fields).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("seq", Json::from(self.seq));
        obj.push("ts_ns", Json::from(self.ts_ns));
        self.kind.push_fields(&mut obj);
        obj
    }
}

/// The fixed-capacity ring. Not shared: the daemon owns one per tenant plus
/// one daemon-wide, all behind its own synchronization.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    epoch: Instant,
    ring: VecDeque<FlightEvent>,
    next_seq: u64,
    dropped_total: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            ring: VecDeque::new(),
            next_seq: 0,
            dropped_total: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full. Returns
    /// the event's sequence number.
    pub fn record(&mut self, kind: FlightEventKind) -> u64 {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped_total += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(FlightEvent {
            seq,
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            kind,
        });
        seq
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Retained event count (≤ capacity) — the occupancy gauge's value.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted by capacity, ever.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Events ever recorded; always `len() + dropped_total()`.
    pub fn recorded_total(&self) -> u64 {
        self.next_seq
    }

    /// The full recorder state as a JSON object, for postmortem bundles:
    /// `{capacity, recorded_total, dropped_total, events: [...]}`.
    pub fn dump_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("capacity", Json::from(self.capacity as u64));
        obj.push("recorded_total", Json::from(self.recorded_total()));
        obj.push("dropped_total", Json::from(self.dropped_total));
        obj.push(
            "events",
            Json::Arr(self.ring.iter().map(FlightEvent::to_json).collect()),
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_parse_and_render() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        for level in Level::ALL {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn an_event_is_64_bytes() {
        // A fleet daemon holds one ring per tenant: failure and bundle text
        // is boxed so the routine event stays this small.
        assert_eq!(std::mem::size_of::<FlightEvent>(), 64);
    }

    #[test]
    fn capacity_bounds_the_ring_and_accounts_drops() {
        let mut flight = FlightRecorder::new(3);
        for i in 0..10 {
            flight.record(FlightEventKind::request(
                if i % 2 == 0 { "arrive" } else { "advance" },
                None,
            ));
        }
        assert_eq!(flight.len(), 3);
        assert_eq!(flight.capacity(), 3);
        assert_eq!(flight.dropped_total(), 7);
        assert_eq!(flight.recorded_total(), 10);
        let seqs: Vec<u64> = flight.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn events_stay_in_monotonic_order() {
        let mut flight = FlightRecorder::new(4);
        for _ in 0..9 {
            flight.record(FlightEventKind::request(
                "arrive",
                Some(Failure::new("planning", "x")),
            ));
        }
        let events: Vec<&FlightEvent> = flight.events().collect();
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut flight = FlightRecorder::new(0);
        flight.record(FlightEventKind::request("open", None));
        assert_eq!(flight.capacity(), 1);
        assert_eq!(flight.len(), 1);
    }

    #[test]
    fn dump_json_carries_the_invariant_and_event_fields() {
        let mut flight = FlightRecorder::new(4);
        flight.record(FlightEventKind::replan(1.25, 42, 7, "dinic"));
        flight.record(FlightEventKind::request(
            "arrive",
            Some(Failure::new("bad-job", "volume must be positive")),
        ));
        flight.record(FlightEventKind::bundle(
            "debug-dump",
            Ok("pm/a-0000".into()),
        ));
        flight.record(FlightEventKind::bundle("panic", Err("disk full".into())));
        let dump = flight.dump_json();
        assert_eq!(dump.get("capacity"), Some(&Json::from(4u64)));
        assert_eq!(dump.get("recorded_total"), Some(&Json::from(4u64)));
        assert_eq!(dump.get("dropped_total"), Some(&Json::from(0u64)));
        let Some(Json::Arr(events)) = dump.get("events") else {
            panic!("events array missing");
        };
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("kind"), Some(&Json::from("replan")));
        assert_eq!(events[0].get("engine"), Some(&Json::from("dinic")));
        assert_eq!(events[0].get("work_ops"), Some(&Json::from(42u64)));
        assert_eq!(events[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(events[1].get("error_kind"), Some(&Json::from("bad-job")));
        assert_eq!(
            events[1].get("message"),
            Some(&Json::from("volume must be positive"))
        );
        assert_eq!(events[2].get("kind"), Some(&Json::from("bundle")));
        assert_eq!(events[2].get("path"), Some(&Json::from("pm/a-0000")));
        assert_eq!(events[3].get("error"), Some(&Json::from("disk full")));
        // The dump round-trips through the parser.
        assert_eq!(Json::parse(&dump.render()).unwrap(), dump);
    }
}
