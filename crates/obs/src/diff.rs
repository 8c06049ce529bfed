//! Structured diffing of two JSON run reports — the `report-diff` gate.
//!
//! A run report (see [`RecordingCollector::to_json`](crate::RecordingCollector::to_json))
//! carries counters (deterministic work measures: phases, augmenting paths,
//! repair rounds), histograms (latency/energy distributions), and the span
//! tree (wall time). [`diff_reports`] compares two of them key by key and
//! classifies each counter increase against a regression threshold:
//! counters measure *work*, so "candidate did more work than baseline by
//! more than X%" is the gate CI trips on. A counter the baseline report
//! never carried is *new instrumentation*, reported but not gated (see
//! [`CounterDelta::in_baseline`]); a counter recorded as 0 that grew gates
//! at any threshold. Wall time and histogram quantiles shift with machine
//! load, so they are reported but gate only on request
//! ([`DiffOptions::gate_wall`]).

use crate::json::Json;
use std::collections::BTreeMap;

/// What to compare and what counts as a regression.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// Maximum tolerated counter increase, in percent (`0.0` = any increase
    /// regresses). `None` reports deltas without gating.
    pub max_regress_pct: Option<f64>,
    /// Only gate keys starting with this prefix (all keys are still
    /// *reported*). Lets CI gate `offline.*` work counters while ignoring
    /// machine-dependent ones such as `par.pool.threads`.
    pub only_prefix: Option<String>,
    /// Also gate the wall-time delta against `max_regress_pct`.
    pub gate_wall: bool,
}

/// One counter compared across the two reports.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterDelta {
    /// Counter key.
    pub name: String,
    /// Baseline value (0 if absent).
    pub a: u64,
    /// Candidate value (0 if absent).
    pub b: u64,
    /// Whether the baseline report carried the key at all. A counter the
    /// baseline *recorded as 0* that grew is an infinite regression; a
    /// counter the baseline *never knew about* (new instrumentation) has
    /// no baseline to regress from, so it is reported but never gated.
    pub in_baseline: bool,
}

impl CounterDelta {
    /// Relative change in percent; +∞ for a counter that appeared from 0.
    pub fn pct(&self) -> f64 {
        if self.a == 0 {
            if self.b == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.b as f64 - self.a as f64) / self.a as f64 * 100.0
        }
    }
}

/// One histogram statistic compared across the two reports.
#[derive(Clone, Debug, PartialEq)]
pub struct StatShift {
    /// Histogram key.
    pub name: String,
    /// Which statistic (`count`, `mean`, `p50`, `p90`, `p99`).
    pub stat: &'static str,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
}

/// The outcome of [`diff_reports`].
#[derive(Clone, Debug, Default)]
pub struct ReportDiff {
    /// Counters whose values differ, sorted by key.
    pub counters: Vec<CounterDelta>,
    /// Counters present (in either report) that did not change.
    pub counters_unchanged: usize,
    /// Histogram statistics that differ, sorted by key then statistic.
    pub histograms: Vec<StatShift>,
    /// Total root-span wall time of each report, if spans are present.
    pub wall_ms: Option<(f64, f64)>,
    /// Human-readable regression descriptions; non-empty fails the gate.
    pub regressions: Vec<String>,
}

impl ReportDiff {
    /// `true` if any gated delta exceeded the threshold.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// The diff as human-readable text, one finding per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let pct = c.pct();
            let pct = if !c.in_baseline {
                "new".to_string()
            } else if pct.is_finite() {
                format!("{pct:+.1}%")
            } else {
                "from 0".to_string()
            };
            out.push_str(&format!(
                "counter   {} : {} -> {} ({pct})\n",
                c.name, c.a, c.b
            ));
        }
        if self.counters_unchanged > 0 {
            out.push_str(&format!(
                "counters  {} unchanged\n",
                self.counters_unchanged
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram {}.{} : {:.4} -> {:.4}\n",
                h.name, h.stat, h.a, h.b
            ));
        }
        if let Some((a, b)) = self.wall_ms {
            out.push_str(&format!("wall_ms   {a:.3} -> {b:.3}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!("REGRESSION: {r}\n"));
        }
        if out.is_empty() {
            out.push_str("reports are identical\n");
        }
        out
    }
}

fn counters_of(report: &Json) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = report.get("counters") {
        for (key, value) in fields {
            let v = match value {
                Json::UInt(v) => *v,
                Json::Num(v) if *v >= 0.0 => *v as u64,
                _ => continue,
            };
            out.insert(key.clone(), v);
        }
    }
    out
}

fn num(value: Option<&Json>) -> Option<f64> {
    match value {
        Some(Json::Num(x)) => Some(*x),
        Some(Json::UInt(n)) => Some(*n as f64),
        _ => None,
    }
}

fn histograms_of(report: &Json) -> BTreeMap<String, Vec<(&'static str, f64)>> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = report.get("histograms") {
        for (key, summary) in fields {
            let stats: Vec<(&'static str, f64)> = ["count", "mean", "p50", "p90", "p99"]
                .into_iter()
                .filter_map(|stat| num(summary.get(stat)).map(|v| (stat, v)))
                .collect();
            out.insert(key.clone(), stats);
        }
    }
    out
}

fn wall_of(report: &Json) -> Option<f64> {
    // A run report carries its wall time as the root spans' durations; a
    // bench record carries an explicit "wall_ms" number.
    if let Some(wall) = num(report.get("wall_ms")) {
        return Some(wall);
    }
    match report.get("spans") {
        Some(Json::Arr(spans)) if !spans.is_empty() => {
            Some(spans.iter().filter_map(|s| num(s.get("ms"))).sum())
        }
        _ => None,
    }
}

/// Diffs candidate report `b` against baseline `a`. See [`DiffOptions`] for
/// gating; the returned [`ReportDiff`] always contains the full comparison.
pub fn diff_reports(a: &Json, b: &Json, opts: &DiffOptions) -> ReportDiff {
    let gated = |name: &str| match &opts.only_prefix {
        Some(prefix) => name.starts_with(prefix.as_str()),
        None => true,
    };
    let mut diff = ReportDiff::default();

    let ca = counters_of(a);
    let cb = counters_of(b);
    let keys: Vec<&String> = ca.keys().chain(cb.keys()).collect();
    let mut keys: Vec<&String> = keys;
    keys.sort();
    keys.dedup();
    for key in keys {
        let delta = CounterDelta {
            name: key.clone(),
            a: ca.get(key).copied().unwrap_or(0),
            b: cb.get(key).copied().unwrap_or(0),
            in_baseline: ca.contains_key(key.as_str()),
        };
        if delta.a == delta.b {
            diff.counters_unchanged += 1;
            continue;
        }
        if let Some(max) = opts.max_regress_pct {
            if delta.in_baseline && gated(key) && delta.b > delta.a && delta.pct() > max {
                diff.regressions.push(format!(
                    "counter {} grew {} -> {} (limit {max}%)",
                    delta.name, delta.a, delta.b
                ));
            }
        }
        diff.counters.push(delta);
    }

    let ha = histograms_of(a);
    let hb = histograms_of(b);
    let mut hkeys: Vec<&String> = ha.keys().chain(hb.keys()).collect();
    hkeys.sort();
    hkeys.dedup();
    let empty = Vec::new();
    for key in hkeys {
        let sa = ha.get(key).unwrap_or(&empty);
        let sb = hb.get(key).unwrap_or(&empty);
        for stat in ["count", "mean", "p50", "p90", "p99"] {
            let va = sa.iter().find(|(s, _)| *s == stat).map(|(_, v)| *v);
            let vb = sb.iter().find(|(s, _)| *s == stat).map(|(_, v)| *v);
            if let (Some(va), Some(vb)) = (va.or(Some(0.0)), vb.or(Some(0.0))) {
                if va != vb {
                    diff.histograms.push(StatShift {
                        name: key.clone(),
                        stat,
                        a: va,
                        b: vb,
                    });
                }
            }
        }
    }

    if let (Some(wa), Some(wb)) = (wall_of(a), wall_of(b)) {
        diff.wall_ms = Some((wa, wb));
        if let (Some(max), true) = (opts.max_regress_pct, opts.gate_wall) {
            if wa > 0.0 && (wb - wa) / wa * 100.0 > max {
                diff.regressions
                    .push(format!("wall_ms grew {wa:.3} -> {wb:.3} (limit {max}%)"));
            }
        }
    }

    diff
}

/// One snapshot name's newest-vs-previous comparison inside a bench
/// trajectory.
#[derive(Clone, Debug)]
pub struct BenchComparison {
    /// Snapshot name (e.g. `warmstart_ablation_smoke`).
    pub name: String,
    /// `git_rev` of the baseline (second-newest) entry.
    pub baseline_rev: String,
    /// `git_rev` of the candidate (newest) entry.
    pub candidate_rev: String,
    /// The counter/wall diff between them.
    pub diff: ReportDiff,
}

/// The outcome of [`diff_bench_trajectory`]: per-name comparisons plus the
/// names that had no baseline yet.
#[derive(Clone, Debug, Default)]
pub struct BenchGate {
    /// Newest-vs-previous diffs, one per snapshot name whose newest entry
    /// has an earlier entry of the same series.
    pub comparisons: Vec<BenchComparison>,
    /// Snapshot names whose newest entry is the first of its series —
    /// nothing to gate against yet.
    pub skipped: Vec<String>,
}

impl BenchGate {
    /// `true` if any comparison tripped its gate.
    pub fn is_regression(&self) -> bool {
        self.comparisons.iter().any(|c| c.diff.is_regression())
    }

    /// Human-readable gate outcome, one section per snapshot name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for c in &self.comparisons {
            out.push_str(&format!(
                "bench {} : {} -> {}\n",
                c.name, c.baseline_rev, c.candidate_rev
            ));
            for line in c.diff.render_text().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        for name in &self.skipped {
            out.push_str(&format!(
                "bench {name} : first entry of its series, no baseline yet\n"
            ));
        }
        if out.is_empty() {
            out.push_str("bench trajectory is empty\n");
        }
        out
    }
}

fn str_field(entry: &Json, key: &str) -> Option<String> {
    match entry.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Gates a cumulative bench trajectory (a JSON array of
/// `{name, git_rev, series, wall_ms, counters}` entries, chronological):
/// for each snapshot name — or just `name`, if given — diffs the newest
/// entry against the previous entry of the same `series` with
/// [`diff_reports`]. A series names the workload the counters were measured
/// on; entries that carry none form one series of their own. A name whose
/// newest entry is the first of its series is reported as skipped, not
/// failed: the first run of a new snapshot, or of a changed workload, has
/// no baseline.
pub fn diff_bench_trajectory(
    doc: &Json,
    name: Option<&str>,
    opts: &DiffOptions,
) -> Result<BenchGate, String> {
    let Json::Arr(entries) = doc else {
        return Err("bench trajectory must be a JSON array".to_string());
    };
    // Group by name, keeping file (chronological) order within each group.
    let mut groups: Vec<(String, Vec<&Json>)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let Some(entry_name) = str_field(entry, "name") else {
            return Err(format!("trajectory entry {i} has no \"name\""));
        };
        if name.is_some_and(|want| want != entry_name) {
            continue;
        }
        match groups.iter_mut().find(|(n, _)| *n == entry_name) {
            Some((_, group)) => group.push(entry),
            None => groups.push((entry_name, vec![entry])),
        }
    }
    if let Some(want) = name {
        if groups.is_empty() {
            return Err(format!("no trajectory entries named {want:?}"));
        }
    }
    let mut gate = BenchGate::default();
    for (group_name, group) in groups {
        let (&candidate, earlier) = group.split_last().expect("groups are non-empty");
        let Some(&baseline) = earlier
            .iter()
            .rev()
            .find(|e| e.get("series") == candidate.get("series"))
        else {
            gate.skipped.push(group_name);
            continue;
        };
        gate.comparisons.push(BenchComparison {
            name: group_name,
            baseline_rev: str_field(baseline, "git_rev").unwrap_or_else(|| "?".to_string()),
            candidate_rev: str_field(candidate, "git_rev").unwrap_or_else(|| "?".to_string()),
            diff: diff_reports(baseline, candidate, opts),
        });
    }
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counters: &[(&str, u64)], hist_mean: Option<f64>) -> Json {
        let mut c = Json::object();
        for (k, v) in counters {
            c.push(k, Json::UInt(*v));
        }
        let mut doc = Json::object();
        doc.push("counters", c);
        if let Some(mean) = hist_mean {
            let mut h = Json::object();
            let mut s = Json::object();
            s.push("count", Json::UInt(2));
            s.push("mean", Json::Num(mean));
            s.push("p50", Json::Num(mean));
            s.push("p90", Json::Num(mean));
            s.push("p99", Json::Num(mean));
            h.push("latency", s);
            doc.push("histograms", h);
        }
        doc
    }

    #[test]
    fn self_diff_is_clean() {
        let a = report(&[("offline.phases", 3)], Some(1.5));
        let diff = diff_reports(
            &a,
            &a,
            &DiffOptions {
                max_regress_pct: Some(0.0),
                ..DiffOptions::default()
            },
        );
        assert!(!diff.is_regression());
        assert!(diff.counters.is_empty());
        assert!(diff.histograms.is_empty());
        assert_eq!(diff.counters_unchanged, 1);
        assert!(diff.render_text().contains("1 unchanged"));
    }

    #[test]
    fn counter_growth_past_threshold_regresses() {
        let a = report(&[("offline.phases", 10)], None);
        let b = report(&[("offline.phases", 12)], None);
        let loose = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(25.0),
                ..DiffOptions::default()
            },
        );
        assert!(!loose.is_regression());
        assert_eq!(loose.counters.len(), 1);
        assert!((loose.counters[0].pct() - 20.0).abs() < 1e-9);
        let tight = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(10.0),
                ..DiffOptions::default()
            },
        );
        assert!(tight.is_regression());
        assert!(tight.render_text().contains("REGRESSION"));
    }

    #[test]
    fn improvements_never_regress() {
        let a = report(&[("offline.phases", 10)], None);
        let b = report(&[("offline.phases", 5)], None);
        let diff = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(0.0),
                ..DiffOptions::default()
            },
        );
        assert!(!diff.is_regression());
        assert_eq!(diff.counters.len(), 1);
    }

    #[test]
    fn prefix_filter_gates_but_still_reports() {
        let a = report(&[("offline.phases", 1), ("par.pool.threads", 1)], None);
        let b = report(&[("offline.phases", 1), ("par.pool.threads", 9)], None);
        let diff = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(0.0),
                only_prefix: Some("offline.".to_string()),
                ..DiffOptions::default()
            },
        );
        assert!(!diff.is_regression());
        // The ungated counter is still in the textual diff.
        assert_eq!(diff.counters.len(), 1);
        assert_eq!(diff.counters[0].name, "par.pool.threads");
    }

    #[test]
    fn counters_growing_from_explicit_zero_regress_at_any_threshold() {
        let a = report(&[("offline.phases", 0)], None);
        let b = report(&[("offline.phases", 1)], None);
        let diff = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(1000.0),
                ..DiffOptions::default()
            },
        );
        assert!(diff.is_regression());
        assert_eq!(diff.counters[0].pct(), f64::INFINITY);
        assert!(diff.counters[0].in_baseline);
    }

    #[test]
    fn counters_absent_from_the_baseline_report_but_never_gate() {
        // New instrumentation: the baseline predates the counter entirely,
        // so there is nothing to regress from. The delta is still reported.
        let a = report(&[], None);
        let b = report(&[("flight.events", 7)], None);
        let diff = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(0.0),
                ..DiffOptions::default()
            },
        );
        assert!(!diff.is_regression());
        assert_eq!(diff.counters.len(), 1);
        assert!(!diff.counters[0].in_baseline);
        assert!(diff.render_text().contains("(new)"));
    }

    #[test]
    fn histogram_shifts_are_reported_not_gated() {
        let a = report(&[], Some(1.0));
        let b = report(&[], Some(2.0));
        let diff = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(0.0),
                ..DiffOptions::default()
            },
        );
        assert!(!diff.is_regression());
        assert!(diff.histograms.iter().any(|h| h.stat == "mean"));
    }

    fn bench_entry(name: &str, rev: &str, wall: f64, phases: u64) -> Json {
        let mut counters = Json::object();
        counters.push("offline.phases", Json::UInt(phases));
        let mut entry = Json::object();
        entry.push("name", Json::from(name));
        entry.push("git_rev", Json::from(rev));
        entry.push("wall_ms", Json::Num(wall));
        entry.push("counters", counters);
        entry
    }

    #[test]
    fn bench_trajectory_gates_newest_against_previous() {
        let doc = Json::Arr(vec![
            bench_entry("smoke", "aaa", 10.0, 100),
            bench_entry("other", "aaa", 5.0, 7),
            bench_entry("smoke", "bbb", 11.0, 150),
        ]);
        let opts = DiffOptions {
            max_regress_pct: Some(25.0),
            ..DiffOptions::default()
        };
        let gate = diff_bench_trajectory(&doc, None, &opts).unwrap();
        assert_eq!(gate.comparisons.len(), 1);
        assert_eq!(gate.comparisons[0].name, "smoke");
        assert_eq!(gate.comparisons[0].baseline_rev, "aaa");
        assert_eq!(gate.comparisons[0].candidate_rev, "bbb");
        assert!(gate.is_regression(), "100 -> 150 is past 25%");
        assert_eq!(gate.skipped, vec!["other".to_string()]);
        assert!(gate.render_text().contains("no baseline yet"));

        // Name filter narrows the gate to one group.
        let only_other = diff_bench_trajectory(&doc, Some("other"), &opts).unwrap();
        assert!(only_other.comparisons.is_empty());
        assert!(!only_other.is_regression());
        assert!(diff_bench_trajectory(&doc, Some("nope"), &opts).is_err());
    }

    #[test]
    fn bench_trajectory_single_entry_passes() {
        let doc = Json::Arr(vec![bench_entry("smoke", "aaa", 10.0, 100)]);
        let gate = diff_bench_trajectory(&doc, Some("smoke"), &DiffOptions::default()).unwrap();
        assert!(!gate.is_regression());
        assert_eq!(gate.skipped, vec!["smoke".to_string()]);
    }

    #[test]
    fn bench_trajectory_gates_within_a_series() {
        let series_2 = |rev, phases| {
            let mut entry = bench_entry("smoke", rev, 10.0, phases);
            entry.push("series", Json::UInt(2));
            entry
        };
        let legacy = bench_entry("smoke", "old", 10.0, 90);
        let opts = DiffOptions {
            max_regress_pct: Some(0.0),
            ..DiffOptions::default()
        };
        // A series' first entry has no baseline, whatever came before it.
        let doc = Json::Arr(vec![legacy.clone(), series_2("aaa", 100)]);
        let gate = diff_bench_trajectory(&doc, None, &opts).unwrap();
        assert!(gate.comparisons.is_empty() && gate.skipped == ["smoke"]);
        // Later entries gate against the newest earlier entry of theirs.
        let doc = Json::Arr(vec![series_2("aaa", 100), legacy, series_2("bbb", 120)]);
        let gate = diff_bench_trajectory(&doc, None, &opts).unwrap();
        assert_eq!(gate.comparisons[0].baseline_rev, "aaa");
        assert!(gate.is_regression(), "100 -> 120 within series 2");
    }

    #[test]
    fn wall_gates_only_when_asked() {
        let mut a = report(&[], None);
        a.push("wall_ms", Json::Num(100.0));
        let mut b = report(&[], None);
        b.push("wall_ms", Json::Num(200.0));
        let silent = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(10.0),
                ..DiffOptions::default()
            },
        );
        assert!(!silent.is_regression());
        assert_eq!(silent.wall_ms, Some((100.0, 200.0)));
        let gated = diff_reports(
            &a,
            &b,
            &DiffOptions {
                max_regress_pct: Some(10.0),
                gate_wall: true,
                ..DiffOptions::default()
            },
        );
        assert!(gated.is_regression());
    }
}
