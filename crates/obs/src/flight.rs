//! A per-tenant flight recorder: the daemon's black box.
//!
//! Metrics aggregate and traces must be armed in advance; the flight
//! recorder is the third leg — an always-on, fixed-capacity ring of the
//! *recent past*: protocol requests, replan summaries (latency, work,
//! patched arcs, winning engine), and error events. When a tenant
//! misbehaves, the postmortem bundle dumps the ring and an incident can be
//! reconstructed after the fact.
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
//! use mpss_obs::flight::{FlightEventKind, FlightRecorder};
//!
//! let mut flight = FlightRecorder::new(2);
//! flight.record(FlightEventKind::request("open", true, None));
//! flight.record(FlightEventKind::error("planning", "infeasible"));
//! flight.record(FlightEventKind::request("arrive", true, None));
//! assert_eq!(flight.len(), 2); // the open was evicted…
//! assert_eq!(flight.dropped_total(), 1); // …and accounted for
//! assert_eq!(flight.recorded_total(), 3);
//! ```

use std::collections::VecDeque;
use std::time::Instant;

use crate::json::Json;

/// What happened: one of the three event classes the recorder keeps.
///
/// The op, engine, and error-kind vocabularies are closed (protocol ops,
/// solver engines, stable error kinds), so those fields are `&'static str`
/// — recording a request or replan event on the hot path allocates nothing.
/// Only [`Error`](FlightEventKind::Error) messages are dynamic.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEventKind {
    /// A protocol request was handled.
    Request {
        /// The wire op, e.g. `"arrive"`.
        op: &'static str,
        /// Whether the response was `ok`.
        ok: bool,
        /// The error kind when `ok` is false.
        error_kind: Option<&'static str>,
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
    /// Something failed.
    Error {
        /// The stable error kind, e.g. `"planning"`.
        kind: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

impl FlightEventKind {
    /// A [`FlightEventKind::Request`] event.
    pub fn request(
        op: &'static str,
        ok: bool,
        error_kind: Option<&'static str>,
    ) -> FlightEventKind {
        FlightEventKind::Request { op, ok, error_kind }
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

    /// A [`FlightEventKind::Error`] event.
    pub fn error(kind: &'static str, message: &str) -> FlightEventKind {
        FlightEventKind::Error {
            kind,
            message: message.to_string(),
        }
    }

    /// The event class as a stable string: `"request"`, `"replan"`,
    /// `"error"`.
    pub fn class(&self) -> &'static str {
        match self {
            FlightEventKind::Request { .. } => "request",
            FlightEventKind::Replan { .. } => "replan",
            FlightEventKind::Error { .. } => "error",
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
        obj.push("kind", Json::from(self.kind.class()));
        match &self.kind {
            FlightEventKind::Request { op, ok, error_kind } => {
                obj.push("op", Json::from(*op));
                obj.push("ok", Json::Bool(*ok));
                if let Some(kind) = error_kind {
                    obj.push("error_kind", Json::from(*kind));
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
            FlightEventKind::Error { kind, message } => {
                obj.push("error_kind", Json::from(*kind));
                obj.push("message", Json::from(message.as_str()));
            }
        }
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
    fn capacity_bounds_the_ring_and_accounts_drops() {
        let mut flight = FlightRecorder::new(3);
        for i in 0..10 {
            flight.record(FlightEventKind::request(
                if i % 2 == 0 { "arrive" } else { "advance" },
                true,
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
            flight.record(FlightEventKind::error("planning", "x"));
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
        flight.record(FlightEventKind::request("open", true, None));
        assert_eq!(flight.capacity(), 1);
        assert_eq!(flight.len(), 1);
    }

    #[test]
    fn dump_json_carries_the_invariant_and_event_fields() {
        let mut flight = FlightRecorder::new(2);
        flight.record(FlightEventKind::replan(1.25, 42, 7, "dinic"));
        flight.record(FlightEventKind::request("arrive", false, Some("bad-job")));
        let dump = flight.dump_json();
        assert_eq!(dump.get("capacity"), Some(&Json::from(2u64)));
        assert_eq!(dump.get("recorded_total"), Some(&Json::from(2u64)));
        assert_eq!(dump.get("dropped_total"), Some(&Json::from(0u64)));
        let Some(Json::Arr(events)) = dump.get("events") else {
            panic!("events array missing");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind"), Some(&Json::from("replan")));
        assert_eq!(events[0].get("engine"), Some(&Json::from("dinic")));
        assert_eq!(events[0].get("work_ops"), Some(&Json::from(42u64)));
        assert_eq!(events[1].get("error_kind"), Some(&Json::from("bad-job")));
        // The dump round-trips through the parser.
        assert_eq!(Json::parse(&dump.render()).unwrap(), dump);
    }
}
