//! The recording collector and its JSON run report.

use crate::hist::Histogram;
use crate::json::Json;
use crate::trace::{TraceCollector, TraceEventKind};
use crate::Collector;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Counter recording instrumentation bugs: a [`Collector::span_end`] whose
/// name does not match the innermost open span, or one with no open span at
/// all. Recorded instead of asserting so a buggy instrumentation point
/// degrades the report (with a warning) rather than aborting the run.
pub const SPAN_MISMATCH_COUNTER: &str = "obs.span_mismatch";

/// Counter recording spans still open when the report was produced (an error
/// return unwound past their `span_end`); see
/// [`RecordingCollector::close_open_spans`].
pub const SPAN_UNCLOSED_COUNTER: &str = "obs.span_unclosed";

/// One completed span: a named, timed region with nested children.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name, as passed to [`Collector::span_start`].
    pub name: &'static str,
    /// Wall-clock duration, monotonic clock.
    pub duration_ns: u64,
    /// Spans opened and closed while this one was open, in order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Duration in milliseconds.
    pub fn millis(&self) -> f64 {
        self.duration_ns as f64 / 1e6
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("name", Json::from(self.name));
        obj.push("ms", Json::Num(self.millis()));
        if !self.children.is_empty() {
            obj.push(
                "children",
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            );
        }
        obj
    }
}

/// A [`Collector`] that records everything: the span tree (with
/// monotonic-clock durations), counters, and histograms. Every completed
/// span's duration is additionally folded into the histogram
/// `span.<name>.ms`, so repeated spans (one per phase, one per arrival)
/// aggregate into latency distributions for free.
///
/// It records either live, as the collector an instrumented run reports
/// to, or after the fact, as the fold of a finished [`TraceCollector`]
/// ([`from_trace`](RecordingCollector::from_trace)). Both apply each event
/// through one step, so a trace's fold and a live recording of the same
/// run agree on every counter, histogram name and count, and the span
/// tree.
#[derive(Debug)]
pub struct RecordingCollector {
    /// Span timestamps count nanoseconds from here.
    epoch: Instant,
    roots: Vec<SpanNode>,
    /// Open spans with the timestamp they opened at.
    open: Vec<(SpanNode, u64)>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Default for RecordingCollector {
    fn default() -> RecordingCollector {
        RecordingCollector::new()
    }
}

impl Collector for RecordingCollector {
    fn span_start(&mut self, name: &'static str) {
        self.apply(self.now_ns(), TraceEventKind::Begin(name));
    }

    fn span_end(&mut self, name: &'static str) {
        self.apply(self.now_ns(), TraceEventKind::End(name));
    }

    // Only span events read their timestamp, so point events skip the clock.
    fn count(&mut self, counter: &'static str, by: u64) {
        self.apply(0, TraceEventKind::Count(counter, by));
    }

    fn observe(&mut self, histogram: &'static str, value: f64) {
        self.apply(0, TraceEventKind::Value(histogram, value));
    }

    fn instant(&mut self, name: &'static str) {
        self.apply(0, TraceEventKind::Instant(name));
    }

    fn enabled(&self) -> bool {
        true
    }
}

impl RecordingCollector {
    /// Creates an empty recording collector whose clock starts now.
    pub fn new() -> RecordingCollector {
        RecordingCollector::with_epoch(Instant::now())
    }

    fn with_epoch(epoch: Instant) -> RecordingCollector {
        RecordingCollector {
            epoch,
            roots: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Folds a finished trace into the run report a live recording of the
    /// same run would have produced. The fold takes the trace's epoch, so
    /// [`close_open_spans`](RecordingCollector::close_open_spans) measures a
    /// span the trace left open up to now on the trace's own time axis.
    ///
    /// Events fold in stream order onto one span stack, whatever their
    /// track: fold a one-track trace, or one whose adopted tracks each
    /// closed their spans ([`TraceCollector::adopt`] appends a track's
    /// events as one block).
    pub fn from_trace(trace: &TraceCollector) -> RecordingCollector {
        let mut rec = RecordingCollector::with_epoch(trace.epoch());
        for event in trace.events() {
            rec.apply(event.ts_ns, event.kind);
        }
        rec
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Applies one event that happened `ts_ns` after the epoch: the step
    /// live recording and [`from_trace`](RecordingCollector::from_trace)
    /// share. Only span events read `ts_ns`.
    fn apply(&mut self, ts_ns: u64, kind: TraceEventKind) {
        match kind {
            TraceEventKind::Begin(name) => {
                let node = SpanNode {
                    name,
                    duration_ns: 0,
                    children: Vec::new(),
                };
                self.open.push((node, ts_ns));
            }
            TraceEventKind::End(name) => {
                let Some((mut node, started)) = self.open.pop() else {
                    // Instrumentation bug, not a data bug: record it and keep
                    // going so the rest of the run still produces a report.
                    self.count(SPAN_MISMATCH_COUNTER, 1);
                    return;
                };
                if node.name != name {
                    self.count(SPAN_MISMATCH_COUNTER, 1);
                }
                node.duration_ns = ts_ns.saturating_sub(started);
                self.histograms
                    .entry(format!("span.{}.ms", node.name))
                    .or_default()
                    .record(node.millis());
                match self.open.last_mut() {
                    Some((parent, _)) => parent.children.push(node),
                    None => self.roots.push(node),
                }
            }
            TraceEventKind::Count(counter, by) => {
                *self.counters.entry(counter).or_insert(0) += by;
            }
            // A report has no timeline; instants fold into the counter of
            // the same name so they still show up in it.
            TraceEventKind::Instant(name) => {
                *self.counters.entry(name).or_insert(0) += 1;
            }
            TraceEventKind::Value(histogram, value) => {
                self.histograms
                    .entry(histogram.to_string())
                    .or_default()
                    .record(value);
            }
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// A histogram by name, if any value was observed under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Completed top-level spans, in completion order.
    pub fn spans(&self) -> &[SpanNode] {
        &self.roots
    }

    /// Closes any spans left open (e.g. by an error return unwinding past
    /// their `span_end`), so a report can still be produced. Each forced
    /// close is recorded under [`SPAN_UNCLOSED_COUNTER`] and surfaces as a
    /// report warning.
    pub fn close_open_spans(&mut self) {
        while let Some((node, _)) = self.open.last() {
            let name = node.name;
            self.count(SPAN_UNCLOSED_COUNTER, 1);
            self.span_end(name);
        }
    }

    /// The run report as a JSON document:
    ///
    /// ```json
    /// {
    ///   "spans": [ { "name": "...", "ms": 1.5, "children": [...] } ],
    ///   "counters": { "offline.maxflow.invocations": 12 },
    ///   "histograms": { "span.oa.replan.ms": { "count": 3, "mean": ... } }
    /// }
    /// ```
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, value) in &self.counters {
            counters.push(name, Json::UInt(*value));
        }
        let mut histograms = Json::object();
        for (name, hist) in &self.histograms {
            let s = hist.summary();
            let mut h = Json::object();
            h.push("count", Json::UInt(s.count));
            h.push("sum", Json::Num(s.sum));
            h.push("mean", Json::Num(s.mean));
            h.push("min", Json::Num(s.min));
            h.push("max", Json::Num(s.max));
            h.push("p50", Json::Num(s.p50));
            h.push("p90", Json::Num(s.p90));
            h.push("p99", Json::Num(s.p99));
            histograms.push(name, h);
        }
        let mut report = Json::object();
        report.push(
            "spans",
            Json::Arr(self.roots.iter().map(SpanNode::to_json).collect()),
        );
        report.push("counters", counters);
        report.push("histograms", histograms);
        let warnings = self.warnings();
        if !warnings.is_empty() {
            report.push(
                "warnings",
                Json::Arr(warnings.into_iter().map(Json::Str).collect()),
            );
        }
        report
    }

    /// Instrumentation-health warnings for the report: span begin/end
    /// mismatches, spans force-closed at report time, and spans still open.
    fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mismatched = self.counter(SPAN_MISMATCH_COUNTER);
        if mismatched > 0 {
            out.push(format!(
                "{mismatched} span_end call(s) did not match the innermost open span"
            ));
        }
        let unclosed = self.counter(SPAN_UNCLOSED_COUNTER);
        if unclosed > 0 {
            out.push(format!(
                "{unclosed} span(s) were still open and force-closed at report time"
            ));
        }
        if !self.open.is_empty() {
            out.push(format!(
                "{} span(s) still open (report produced without close_open_spans)",
                self.open.len()
            ));
        }
        out
    }

    /// Writes the pretty-printed run report to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut rec = RecordingCollector::new();
        rec.count("a", 1);
        rec.count("a", 2);
        rec.count("b", 5);
        assert_eq!(rec.counter("a"), 3);
        assert_eq!(rec.counter("b"), 5);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(rec.counters().count(), 2);
    }

    #[test]
    fn spans_nest_and_feed_duration_histograms() {
        let mut rec = RecordingCollector::new();
        rec.span_start("outer");
        rec.span_start("phase");
        rec.span_end("phase");
        rec.span_start("phase");
        rec.span_end("phase");
        rec.span_end("outer");
        assert_eq!(rec.spans().len(), 1);
        let outer = &rec.spans()[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 2);
        assert!(outer.children.iter().all(|c| c.name == "phase"));
        // Two "phase" spans aggregated into one latency histogram.
        assert_eq!(rec.histogram("span.phase.ms").unwrap().count(), 2);
        assert_eq!(rec.histogram("span.outer.ms").unwrap().count(), 1);
        // Durations are monotonic-clock and non-negative.
        assert!(outer.millis() >= 0.0);
    }

    #[test]
    fn close_open_spans_recovers_from_early_exit() {
        let mut rec = RecordingCollector::new();
        rec.span_start("a");
        rec.span_start("b");
        // Simulated error return: nobody called span_end.
        rec.close_open_spans();
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "a");
        assert_eq!(rec.spans()[0].children[0].name, "b");
        // Both forced closes were recorded and warn in the report.
        assert_eq!(rec.counter(SPAN_UNCLOSED_COUNTER), 2);
        let report = rec.to_json().render();
        assert!(report.contains("force-closed"));
    }

    #[test]
    fn unmatched_span_end_is_recorded_not_fatal() {
        let mut rec = RecordingCollector::new();
        // Ending with no span open: counted, otherwise ignored.
        rec.span_end("ghost");
        assert_eq!(rec.counter(SPAN_MISMATCH_COUNTER), 1);
        assert!(rec.spans().is_empty());
        // Ending under the wrong name: counted, span still closes under the
        // name it was opened with.
        rec.span_start("real");
        rec.span_end("wrong");
        assert_eq!(rec.counter(SPAN_MISMATCH_COUNTER), 2);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "real");
        let report = rec.to_json();
        let warnings = report.get("warnings").unwrap();
        assert!(warnings.render().contains("did not match"));
    }

    #[test]
    fn clean_runs_report_no_warnings() {
        let mut rec = RecordingCollector::new();
        rec.span_start("a");
        rec.span_end("a");
        assert_eq!(rec.to_json().get("warnings"), None);
    }

    /// A well-formed run: nested spans, counters, an instant and values.
    fn clean_run(obs: &mut dyn Collector) {
        obs.span_start("solve");
        obs.count("rounds", 2);
        obs.span_start("phase");
        obs.instant("removed");
        obs.observe("ratio", 0.5);
        obs.span_end("phase");
        obs.observe("ratio", 1.0);
        obs.span_end("solve");
    }

    /// Ends a span with none open and one under the wrong name, then
    /// leaves two spans open.
    fn broken_run(obs: &mut dyn Collector) {
        obs.span_end("ghost");
        obs.span_start("real");
        obs.span_end("wrong");
        obs.span_start("left-open");
        obs.span_start("inner");
    }

    fn span_names(spans: &[SpanNode]) -> Vec<String> {
        spans
            .iter()
            .map(|s| format!("{}({})", s.name, span_names(&s.children).join(",")))
            .collect()
    }

    /// Records `run` live and into a trace, force-closes both, and checks
    /// that the fold reports the same counters, histogram counts and span
    /// tree as the live recording.
    fn assert_fold_matches_live(run: fn(&mut dyn Collector)) -> RecordingCollector {
        let mut live = RecordingCollector::new();
        run(&mut live);
        live.close_open_spans();
        let mut trace = TraceCollector::new("main");
        run(&mut trace);
        let mut fold = RecordingCollector::from_trace(&trace);
        fold.close_open_spans();
        assert_eq!(
            fold.counters().collect::<Vec<_>>(),
            live.counters().collect::<Vec<_>>()
        );
        let counts = |rec: &RecordingCollector| {
            rec.histograms()
                .map(|(k, h)| (k.to_string(), h.count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&fold), counts(&live));
        assert_eq!(span_names(fold.spans()), span_names(live.spans()));
        fold
    }

    #[test]
    fn trace_fold_equals_live_recording() {
        let fold = assert_fold_matches_live(clean_run);
        assert_eq!(span_names(fold.spans()), ["solve(phase())"]);
        assert_eq!(fold.counter("removed"), 1);
        assert_eq!(fold.histogram("ratio").unwrap().sum(), 1.5);
        assert_eq!(fold.to_json().get("warnings"), None);
    }

    #[test]
    fn broken_spans_fold_to_the_live_health_counters() {
        let fold = assert_fold_matches_live(broken_run);
        assert_eq!(fold.counter(SPAN_MISMATCH_COUNTER), 2);
        assert_eq!(fold.counter(SPAN_UNCLOSED_COUNTER), 2);
    }

    #[test]
    fn fold_measures_spans_on_the_trace_clock() {
        let mut trace = TraceCollector::new("main");
        trace.span_start("open");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut fold = RecordingCollector::from_trace(&trace);
        fold.close_open_spans();
        // The span opened on the trace's axis, so its forced close counts
        // the time since then, not since the fold began.
        assert!(fold.spans()[0].duration_ns >= 2_000_000);
    }

    #[test]
    fn report_json_contains_all_three_sections() {
        let mut rec = RecordingCollector::new();
        rec.span_start("run");
        rec.count("events", 7);
        rec.observe("latency", 1.0);
        rec.observe("latency", 3.0);
        rec.span_end("run");
        let json = rec.to_json();
        assert_eq!(
            json.get("counters").and_then(|c| c.get("events")),
            Some(&crate::json::Json::UInt(7))
        );
        let hist = json
            .get("histograms")
            .and_then(|h| h.get("latency"))
            .unwrap();
        assert_eq!(hist.get("count"), Some(&crate::json::Json::UInt(2)));
        assert_eq!(hist.get("sum"), Some(&crate::json::Json::Num(4.0)));
        let text = json.render_pretty();
        assert!(text.contains("\"spans\""));
        assert!(text.contains("\"name\": \"run\""));
    }

    #[test]
    fn write_json_produces_a_file() {
        let mut rec = RecordingCollector::new();
        rec.count("x", 1);
        let path = std::env::temp_dir().join("mpss-obs-report-test.json");
        rec.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 1"));
        let _ = std::fs::remove_file(&path);
    }
}
