//! Observability substrate for the `mpss` workspace.
//!
//! The offline algorithm (paper Fig. 2) is a nested loop of phases × repair
//! rounds × max-flow computations, and the online drivers replan it on every
//! arrival. Optimizing any of that requires measuring it first, so this crate
//! makes the work itself — not just wall time — a first-class observable
//! quantity:
//!
//! * [`Collector`] — the event sink trait: hierarchical spans (monotonic-clock
//!   timers), named counters, and value histograms. Every method has an empty
//!   default body, so instrumentation points cost nothing unless a collector
//!   opts in.
//! * [`NoopCollector`] — the statically-dispatched default. All methods inline
//!   to nothing; code generic over `C: Collector` instantiated with it
//!   compiles to exactly the uninstrumented loop.
//! * [`TraceCollector`] — records the ordered event stream, one track per
//!   lane, for Chrome Trace Event and collapsed-stack export.
//! * [`RecordingCollector`] — the span tree, counters, and histograms of a
//!   run, serialized as a JSON run report. It records live, or folds a
//!   finished trace ([`RecordingCollector::from_trace`]): an observed CLI
//!   run records once, into a trace, and its report is that trace's fold.
//!
//! Like `mpss-numeric` hand-rolls Kahan summation, this crate hand-rolls its
//! own histogram and JSON emitter ([`json`]): the build environment is
//! offline, so it depends on nothing outside `std`.
//!
//! ```
//! use mpss_obs::{Collector, NoopCollector, RecordingCollector};
//!
//! // An instrumented function is generic over the collector…
//! fn solve<C: Collector>(rounds: usize, obs: &mut C) -> usize {
//!     obs.span_start("solve");
//!     for _ in 0..rounds {
//!         obs.count("solve.rounds", 1);
//!     }
//!     obs.span_end("solve");
//!     rounds
//! }
//!
//! // …a noop collector compiles the instrumentation away…
//! assert_eq!(solve(3, &mut NoopCollector), 3);
//!
//! // …and a recording collector turns the same run into a JSON report.
//! let mut rec = RecordingCollector::new();
//! solve(3, &mut rec);
//! assert_eq!(rec.counter("solve.rounds"), 3);
//! let report = rec.to_json().render_pretty();
//! assert!(report.contains("\"solve.rounds\": 3"));
//! ```

pub mod diff;
pub mod expo;
pub mod flight;
pub mod json;
pub mod log;
pub mod metrics;
pub mod names;
pub mod serve;

mod chrome;
mod hist;
mod record;
mod trace;

pub use chrome::{validate_chrome_trace, TraceCheck};
pub use diff::{diff_bench_trajectory, diff_reports, BenchGate, DiffOptions, ReportDiff};
pub use expo::{parse_exposition, ExpoFamily, ExpoSample, Exposition};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use hist::{Histogram, HistogramSummary};
pub use log::{Level, LogRecord, LogSink, Logger, RingSink, StderrSink};
pub use metrics::{
    Counter, Gauge, MetricKind, MetricsHub, RingSampler, SnapshotRow, SnapshotValue,
    WindowHistogram,
};
pub use record::{RecordingCollector, SpanNode, SPAN_MISMATCH_COUNTER, SPAN_UNCLOSED_COUNTER};
pub use serve::{http_get, MetricsServer};
pub use trace::{TraceCollector, TraceEvent, TraceEventKind};

/// A sink for instrumentation events.
///
/// Instrumented code calls these methods unconditionally; which collector the
/// caller passes decides whether anything happens. All methods have empty
/// `#[inline]` default bodies so the [`NoopCollector`] monomorphizes to
/// nothing on the hot path — the collector is always threaded by generic
/// parameter (`C: Collector`), never by trait object.
///
/// Span names and counter/histogram keys are `&'static str` by design: no
/// formatting or allocation may happen at an instrumentation point.
pub trait Collector {
    /// Opens a span named `name`. Spans nest: a span opened while another is
    /// open becomes its child.
    #[inline(always)]
    fn span_start(&mut self, _name: &'static str) {}

    /// Closes the innermost open span. `name` should match the corresponding
    /// [`span_start`](Collector::span_start); recording collectors count a
    /// mismatch under `obs.span_mismatch` and surface it as a report warning
    /// rather than aborting the run.
    #[inline(always)]
    fn span_end(&mut self, _name: &'static str) {}

    /// Adds `by` to the counter named `counter`.
    #[inline(always)]
    fn count(&mut self, _counter: &'static str, _by: u64) {}

    /// Records `value` into the histogram named `histogram`.
    #[inline(always)]
    fn observe(&mut self, _histogram: &'static str, _value: f64) {}

    /// Records an *instant* (zero-duration) event — a point on the timeline
    /// rather than a region. Aggregating collectors fold instants into the
    /// counter of the same name; streaming collectors keep the timestamp.
    #[inline(always)]
    fn instant(&mut self, _name: &'static str) {}

    /// `true` if this collector actually records anything. Lets callers skip
    /// *computing* an expensive observed value (the instrumentation calls
    /// themselves are already free when disabled).
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// The do-nothing collector: every method is an inlined empty body, so
/// instrumented code instantiated with it is byte-identical to the
/// uninstrumented loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopCollector;

impl Collector for NoopCollector {}

impl<C: Collector + ?Sized> Collector for &mut C {
    #[inline(always)]
    fn span_start(&mut self, name: &'static str) {
        (**self).span_start(name);
    }
    #[inline(always)]
    fn span_end(&mut self, name: &'static str) {
        (**self).span_end(name);
    }
    #[inline(always)]
    fn count(&mut self, counter: &'static str, by: u64) {
        (**self).count(counter, by);
    }
    #[inline(always)]
    fn observe(&mut self, histogram: &'static str, value: f64) {
        (**self).observe(histogram, value);
    }
    #[inline(always)]
    fn instant(&mut self, name: &'static str) {
        (**self).instant(name);
    }
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instrumented<C: Collector>(obs: &mut C) {
        obs.span_start("outer");
        obs.count("c", 2);
        obs.span_start("inner");
        obs.observe("h", 1.5);
        obs.span_end("inner");
        obs.span_end("outer");
    }

    #[test]
    fn noop_collector_accepts_everything() {
        let mut noop = NoopCollector;
        instrumented(&mut noop);
        assert!(!noop.enabled());
    }

    #[test]
    fn recording_collector_sees_the_same_events() {
        let mut rec = RecordingCollector::new();
        instrumented(&mut rec);
        assert!(rec.enabled());
        assert_eq!(rec.counter("c"), 2);
        assert_eq!(rec.histogram("h").unwrap().count(), 1);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "outer");
        assert_eq!(rec.spans()[0].children.len(), 1);
        assert_eq!(rec.spans()[0].children[0].name, "inner");
    }
}
