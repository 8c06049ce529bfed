//! Chrome Trace Event export for [`TraceCollector`], plus a validator and a
//! collapsed-stack (flamegraph) text export.
//!
//! The JSON object format is the one Perfetto and `chrome://tracing` load:
//! `{"traceEvents": [...]}` where each event carries a phase (`"B"`/`"E"`
//! span pairs, `"i"` instants, `"C"` counter samples, `"M"` metadata),
//! `pid`/`tid` coordinates, and a timestamp in *microseconds*. Every trace
//! track maps to one `tid` under `pid` 1, named via `thread_name` metadata
//! events — so each instance of a batched solve renders as its own row on
//! the shared time axis.

use crate::json::{Json, ParseError};
use crate::trace::{TraceCollector, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;
use std::path::Path;

impl TraceCollector {
    /// The trace as a Chrome Trace Event JSON document.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        for (tid, name) in self.track_names().iter().enumerate() {
            let mut args = Json::object();
            args.push("name", Json::from(name.as_str()));
            let mut meta = Json::object();
            meta.push("ph", Json::from("M"));
            meta.push("pid", Json::UInt(1));
            meta.push("tid", Json::UInt(tid as u64));
            meta.push("name", Json::from("thread_name"));
            meta.push("args", args);
            events.push(meta);
        }
        // "C" events carry the counter's current value; the trace records
        // deltas, so accumulate per (track, counter) while exporting.
        let mut totals: BTreeMap<(u32, &str), u64> = BTreeMap::new();
        for event in self.events() {
            events.push(chrome_event(event, &mut totals));
        }
        let mut doc = Json::object();
        doc.push("traceEvents", Json::Arr(events));
        doc.push("displayTimeUnit", Json::from("ms"));
        doc
    }

    /// Writes the Chrome Trace Event JSON to `path` (compact — Perfetto does
    /// not care and traces are the largest artifact this crate writes).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace().render())
    }

    /// The trace as collapsed stacks (`inferno` / `flamegraph.pl` input):
    /// one line per distinct stack, `track;outer;inner <self_time_ns>`,
    /// sorted lexicographically. Self time is the span's duration minus its
    /// children's; unclosed spans are dropped.
    pub fn collapsed_stacks(&self) -> String {
        // Replay each track's B/E stream, attributing self time to stacks.
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        let mut stacks: BTreeMap<u32, Vec<(&str, u64, u64)>> = BTreeMap::new();
        for event in self.events() {
            let stack = stacks.entry(event.track).or_default();
            match event.kind {
                TraceEventKind::Begin(name) => stack.push((name, event.ts_ns, 0)),
                TraceEventKind::End(_) => {
                    let Some((name, began, child_ns)) = stack.pop() else {
                        continue;
                    };
                    let total = event.ts_ns.saturating_sub(began);
                    let this = total.saturating_sub(child_ns);
                    if let Some((_, _, parent_child)) = stack.last_mut() {
                        *parent_child += total;
                    }
                    let mut key = self.track_names()[event.track as usize].clone();
                    for (frame, _, _) in stack.iter() {
                        key.push(';');
                        key.push_str(frame);
                    }
                    key.push(';');
                    key.push_str(name);
                    *weights.entry(key).or_insert(0) += this;
                }
                _ => {}
            }
        }
        let mut out = String::new();
        for (stack, ns) in weights {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }
}

fn chrome_event(event: &TraceEvent, totals: &mut BTreeMap<(u32, &'static str), u64>) -> Json {
    let mut obj = Json::object();
    let (ph, name) = match event.kind {
        TraceEventKind::Begin(name) => ("B", name),
        TraceEventKind::End(name) => ("E", name),
        TraceEventKind::Instant(name) => ("i", name),
        TraceEventKind::Count(name, _) => ("C", name),
        TraceEventKind::Value(name, _) => ("C", name),
    };
    obj.push("ph", Json::from(ph));
    obj.push("pid", Json::UInt(1));
    obj.push("tid", Json::UInt(event.track as u64));
    // Trace Event timestamps are double microseconds; nanosecond precision
    // survives in the fraction.
    obj.push("ts", Json::Num(event.ts_ns as f64 / 1e3));
    obj.push("name", Json::from(name));
    match event.kind {
        TraceEventKind::Instant(_) => {
            // Thread-scoped instant: renders as a marker on its own track.
            obj.push("s", Json::from("t"));
        }
        TraceEventKind::Count(counter, by) => {
            let total = totals.entry((event.track, counter)).or_insert(0);
            *total += by;
            let mut args = Json::object();
            args.push("value", Json::UInt(*total));
            obj.push("args", args);
        }
        TraceEventKind::Value(_, value) => {
            let mut args = Json::object();
            args.push("value", Json::Num(value));
            obj.push("args", args);
        }
        _ => {}
    }
    obj
}

/// Summary of a validated Chrome trace, as produced by
/// [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Distinct `tid`s that carried at least one non-metadata event.
    pub tracks: usize,
    /// Non-metadata events.
    pub events: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// Deepest `"B"` nesting reached on any single track.
    pub max_depth: usize,
    /// Track names from `thread_name` metadata, in `tid` order.
    pub track_names: Vec<String>,
    /// Total `obs.span_mismatch` count carried by the trace (the last
    /// cumulative `"C"` sample per track, summed). Non-zero means some
    /// `span_end` closed the wrong span — `mpss-cli trace-check` fails on
    /// it.
    pub span_mismatches: u64,
}

/// Parses `text` as Chrome Trace Event JSON and checks the invariants the
/// exporter promises: every event has `ph`/`pid`/`tid`/`ts`/`name`,
/// timestamps are monotone non-decreasing *per track*, and every track's
/// `"B"`/`"E"` events pair up well-nested with matching names.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text).map_err(|e: ParseError| format!("not JSON: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut mismatches: BTreeMap<u64, u64> = BTreeMap::new();
    let mut check = TraceCheck::default();
    for (i, event) in events.iter().enumerate() {
        let ph = match event.get("ph") {
            Some(Json::Str(ph)) => ph.as_str(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        let tid = match event.get("tid") {
            Some(Json::UInt(tid)) => *tid,
            Some(Json::Num(tid)) if *tid >= 0.0 && tid.fract() == 0.0 => *tid as u64,
            _ => return Err(format!("event {i}: missing tid")),
        };
        let name = match event.get("name") {
            Some(Json::Str(name)) => name.clone(),
            _ => return Err(format!("event {i}: missing name")),
        };
        if ph == "M" {
            if name == "thread_name" {
                if let Some(Json::Str(track)) = event.get("args").and_then(|a| a.get("name")) {
                    names.insert(tid, track.clone());
                }
            }
            continue;
        }
        if event.get("pid").is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        let ts = match event.get("ts") {
            Some(Json::Num(ts)) => *ts,
            Some(Json::UInt(ts)) => *ts as f64,
            _ => return Err(format!("event {i}: missing ts")),
        };
        let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *last {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on tid {tid} (last {last})"
            ));
        }
        *last = ts;
        check.events += 1;
        match ph {
            "B" => {
                let stack = stacks.entry(tid).or_default();
                stack.push(name);
                check.max_depth = check.max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E \"{name}\" closes open span \"{open}\" on tid {tid}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E \"{name}\" with no open span on tid {tid}"
                        ))
                    }
                }
            }
            "i" => check.instants += 1,
            "C" => {
                let value = match event.get("args").and_then(|a| a.get("value")) {
                    Some(Json::UInt(v)) => *v as f64,
                    Some(Json::Num(v)) => *v,
                    _ => return Err(format!("event {i}: C without numeric args.value")),
                };
                if name == crate::record::SPAN_MISMATCH_COUNTER {
                    // "C" samples are cumulative per track; keep the latest.
                    mismatches.insert(tid, value.max(0.0) as u64);
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span \"{open}\" never closed"));
        }
    }
    check.tracks = last_ts.len();
    check.track_names = names.into_values().collect();
    check.span_mismatches = mismatches.values().sum();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    fn sample_trace() -> TraceCollector {
        let mut t = TraceCollector::new("main");
        t.span_start("solve");
        t.count("offline.phases", 2);
        let mut w = t.fork("worker-0");
        w.span_start("probe");
        w.instant("offline.job_removed");
        w.span_end("probe");
        t.adopt(w);
        t.observe("flow", 0.5);
        t.span_end("solve");
        t
    }

    #[test]
    fn export_validates_and_counts() {
        let trace = sample_trace();
        let text = trace.chrome_trace().render();
        let check = validate_chrome_trace(&text).expect("exporter output validates");
        assert_eq!(check.tracks, 2);
        assert_eq!(check.instants, 1);
        assert_eq!(check.max_depth, 1);
        assert_eq!(check.track_names, vec!["main", "worker-0"]);
        // 2 spans × (B+E) + 1 instant + 2 counter samples = 7 events.
        assert_eq!(check.events, 7);
    }

    #[test]
    fn counter_samples_accumulate_per_track() {
        let mut t = TraceCollector::new("main");
        t.count("c", 2);
        t.count("c", 3);
        let doc = t.chrome_trace();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let values: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::from("C")))
            .map(|e| match e.get("args").and_then(|a| a.get("value")) {
                Some(Json::UInt(v)) => *v,
                other => panic!("bad value {other:?}"),
            })
            .collect();
        assert_eq!(values, vec![2, 5]);
    }

    #[test]
    fn validator_rejects_broken_nesting() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"a"},
            {"ph":"E","pid":1,"tid":0,"ts":2.0,"name":"b"}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("closes open span"), "{err}");
    }

    #[test]
    fn validator_rejects_backwards_time_per_track() {
        let text = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"ts":5.0,"name":"x","s":"t"},
            {"ph":"i","pid":1,"tid":0,"ts":4.0,"name":"y","s":"t"}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("backwards"));
        // …but different tracks are independent axes.
        let ok = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"ts":5.0,"name":"x","s":"t"},
            {"ph":"i","pid":1,"tid":1,"ts":4.0,"name":"y","s":"t"}
        ]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn validator_rejects_unclosed_spans() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"a"}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("never closed"));
    }

    #[test]
    fn span_mismatch_counters_surface_in_the_check() {
        let clean = sample_trace().chrome_trace().render();
        assert_eq!(
            validate_chrome_trace(&clean).unwrap().span_mismatches,
            0,
            "clean traces carry no mismatches"
        );
        // Two tracks, each with cumulative samples: latest-per-track summed.
        let text = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":0,"ts":1.0,"name":"obs.span_mismatch","args":{"value":1}},
            {"ph":"C","pid":1,"tid":0,"ts":2.0,"name":"obs.span_mismatch","args":{"value":2}},
            {"ph":"C","pid":1,"tid":1,"ts":1.5,"name":"obs.span_mismatch","args":{"value":3}}
        ]}"#;
        let check = validate_chrome_trace(text).unwrap();
        assert_eq!(check.span_mismatches, 5);
    }

    #[test]
    fn collapsed_stacks_attribute_self_time() {
        let trace = sample_trace();
        let folded = trace.collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.starts_with("main;solve ")));
        assert!(lines.iter().any(|l| l.starts_with("worker-0;probe ")));
        for line in lines {
            let weight: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            let _ = weight; // parses as an integer nanosecond weight
        }
    }
}
