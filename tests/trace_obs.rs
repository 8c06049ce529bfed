//! Integration tests for the streaming trace layer: a run report is the
//! fold of the run's trace, solves on forked tracks produce multi-track
//! Chrome Trace Event JSON, batch runs get one track per instance, the
//! counter-name manifest covers everything the solvers emit, and the
//! `report-diff` / `trace-check` CLI gates behave.
//!
//! Everything here goes through `mpss_obs::json` — no serde — so the tests
//! run identically with or without the real serde stack.

use mpss::obs::{names, TraceEventKind};
use mpss::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpss-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpss-trace-obs-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A workload with several phases and repair rounds, so a solve goes
/// through many max-flow probes.
fn repair_instance() -> Instance<f64> {
    Instance::new(
        3,
        vec![
            job(0.0, 1.0, 4.0),
            job(0.0, 1.0, 4.0),
            job(0.0, 2.0, 1.0),
            job(0.5, 3.0, 2.0),
            job(1.0, 4.0, 3.0),
            job(2.0, 6.0, 1.5),
            job(2.5, 5.0, 2.5),
        ],
    )
    .unwrap()
}

/// Push–relabel options, for the second lane of a two-lane run.
fn push_relabel() -> OfflineOptions {
    OfflineOptions {
        engine: FlowEngine::PushRelabel,
        ..Default::default()
    }
}

/// [`repair_instance`] solved twice into one trace: with Dinic on the root
/// `main` track, and with push–relabel on a `push-relabel` track forked
/// off it and adopted back.
fn two_lane_trace() -> TraceCollector {
    let instance = repair_instance();
    let mut trace = TraceCollector::new("main");
    optimal_schedule_observed(&instance, &OfflineOptions::default(), &mut trace).unwrap();
    let mut lane = trace.fork("push-relabel");
    optimal_schedule_observed(&instance, &push_relabel(), &mut lane).unwrap();
    trace.adopt(lane);
    trace
}

/// What a run report says about a run, less its timings: every counter,
/// every histogram's name and sample count, and the span forest's names
/// and nesting.
type ReportShape = (Vec<(String, u64)>, Vec<(String, u64)>, Vec<String>);

fn shape(rec: &RecordingCollector) -> ReportShape {
    fn tree(span: &mpss::obs::SpanNode) -> String {
        let children: Vec<String> = span.children.iter().map(tree).collect();
        format!("{}({})", span.name, children.join(","))
    }
    (
        rec.counters().map(|(k, v)| (k.to_string(), v)).collect(),
        rec.histograms()
            .map(|(k, h)| (k.to_string(), h.count()))
            .collect(),
        rec.spans().iter().map(tree).collect(),
    )
}

#[test]
fn run_report_is_the_fold_of_the_trace() {
    let instance = repair_instance();
    let p = Polynomial::new(3.0);
    for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
        for warm_start in [true, false] {
            let opts = OfflineOptions {
                engine,
                warm_start,
                ..Default::default()
            };
            let mut live = RecordingCollector::new();
            optimal_schedule_observed(&instance, &opts, &mut live).unwrap();
            let mut trace = TraceCollector::new("main");
            optimal_schedule_observed(&instance, &opts, &mut trace).unwrap();
            assert_eq!(
                shape(&RecordingCollector::from_trace(&trace)),
                shape(&live),
                "{engine:?} warm={warm_start}"
            );
        }
    }
    // The `online --algo oa --report` path: an OA replay, its energy
    // trajectory and the competitive report's offline solve.
    fn online<C: Collector>(instance: &Instance<f64>, p: &Polynomial, obs: &mut C) {
        let oa = oa_schedule_observed(instance, obs).unwrap();
        record_energy_trajectory(&oa.schedule, p, obs);
        competitive_report_observed(instance, &oa.schedule, p, p.oa_bound(), obs).unwrap();
    }
    let mut live = RecordingCollector::new();
    online(&instance, &p, &mut live);
    let mut trace = TraceCollector::new("main");
    online(&instance, &p, &mut trace);
    let fold = RecordingCollector::from_trace(&trace);
    assert!(fold.counter("oa.replans") > 0);
    assert!(fold.histogram("driver.energy_trajectory").is_some());
    assert_eq!(shape(&fold), shape(&live));
}

#[test]
fn batch_trace_forks_one_track_per_instance() {
    let batch: Vec<Instance<f64>> = (0..4).map(|_| repair_instance()).collect();
    let mut trace = TraceCollector::new("main");
    let outputs = solve_many_observed(
        &batch,
        &OfflineOptions::default(),
        &ThreadPool::new(2),
        &mut trace,
    );
    for out in outputs {
        assert!(out.result.is_ok());
        trace.adopt(out.trace.expect("an observed batch traces every instance"));
    }
    assert_eq!(
        trace.track_names(),
        [
            "main",
            "instance-0",
            "instance-1",
            "instance-2",
            "instance-3"
        ]
    );
    // Each instance's solve sits on its own track, in input order; `main`
    // carries the pool counters and nothing else.
    let solves: Vec<u32> = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceEventKind::Begin("offline.optimal_schedule"))
        .map(|e| e.track)
        .collect();
    assert_eq!(solves, [1, 2, 3, 4]);
    let on_main: Vec<TraceEventKind> = trace
        .events()
        .iter()
        .filter(|e| e.track == 0)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        on_main,
        [
            TraceEventKind::Count("par.tasks", 4),
            TraceEventKind::Count("par.pool.threads", 2),
        ]
    );
    let check = mpss::obs::validate_chrome_trace(&trace.chrome_trace().render()).unwrap();
    assert_eq!(check.tracks, 5, "{check:?}");
    assert_eq!(check.track_names, trace.track_names());
}

#[test]
fn batch_collector_totals_equal_the_merged_per_instance_reports() {
    let batch: Vec<Instance<f64>> = (0..3).map(|_| repair_instance()).collect();
    let mut trace = TraceCollector::new("main");
    let outputs = solve_many_observed(
        &batch,
        &OfflineOptions::default(),
        &ThreadPool::new(2),
        &mut trace,
    );
    // Each instance's report is its own trace's fold; the batch trace then
    // adopts that trace.
    let reports: Vec<RecordingCollector> = outputs
        .into_iter()
        .map(|out| {
            let instance_trace = out.trace.unwrap();
            let report = RecordingCollector::from_trace(&instance_trace);
            trace.adopt(instance_trace);
            report
        })
        .collect();
    let batch_report = RecordingCollector::from_trace(&trace);
    for report in &reports {
        assert!(report.counter("offline.phases") > 0);
    }
    // The batch trace's fold adds up the per-instance reports exactly, on
    // top of the main track's pool counters.
    assert_eq!(batch_report.counter("par.tasks"), 3);
    let mut keys: Vec<&str> = reports
        .iter()
        .flat_map(|r| r.counters().map(|(k, _)| k))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let sum: u64 = reports.iter().map(|r| r.counter(key)).sum();
        assert_eq!(batch_report.counter(key), sum, "{key}");
    }
    // Histograms add the same way: per-key sample counts add up.
    let mut hist_keys: Vec<&str> = reports
        .iter()
        .flat_map(|r| r.histograms().map(|(k, _)| k))
        .collect();
    hist_keys.sort_unstable();
    hist_keys.dedup();
    for key in hist_keys {
        let sum: u64 = reports
            .iter()
            .filter_map(|r| r.histogram(key))
            .map(|h| h.count())
            .sum();
        assert_eq!(batch_report.histogram(key).unwrap().count(), sum, "{key}");
    }
    // One solve span per instance, in input order.
    assert_eq!(batch_report.spans().len(), batch.len());
}

#[test]
fn manifest_covers_everything_the_stack_emits() {
    let instance = repair_instance();
    let mut rec = RecordingCollector::new();

    // Offline: warm solves on both engines.
    let opts = OfflineOptions::default();
    optimal_schedule_observed(&instance, &opts, &mut rec).unwrap();
    optimal_schedule_observed(&instance, &push_relabel(), &mut rec).unwrap();
    // Offline: cold solve exercises the cold counters.
    let cold = OfflineOptions {
        warm_start: false,
        ..Default::default()
    };
    optimal_schedule_observed(&instance, &cold, &mut rec).unwrap();
    // Online: OA with trajectory + competitive report, AVR.
    let oa = oa_schedule_observed(&instance, &mut rec).unwrap();
    let p = Polynomial::new(3.0);
    record_energy_trajectory(&oa.schedule, &p, &mut rec);
    competitive_report_observed(&instance, &oa.schedule, &p, p.oa_bound(), &mut rec).unwrap();
    avr_schedule_observed(&instance, &mut rec);
    rec.close_open_spans();
    // Batch over the pool, folded from its trace.
    let batch = vec![instance.clone(), instance.clone()];
    let mut trace = TraceCollector::new("main");
    for out in solve_many_observed(&batch, &opts, &ThreadPool::new(2), &mut trace) {
        trace.adopt(out.trace.unwrap());
    }
    let batch_report = RecordingCollector::from_trace(&trace);

    for report in [&rec, &batch_report] {
        let unknown = names::unknown_keys(
            report.counters().map(|(k, _)| k),
            report.histograms().map(|(k, _)| k),
        );
        assert!(unknown.is_empty(), "manifest is missing: {unknown:?}");
    }
}

#[test]
fn design_md_embeds_the_manifest_table() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    let text = std::fs::read_to_string(&path).expect("DESIGN.md at the repo root");
    let table = names::markdown_table();
    assert!(
        text.contains(&table),
        "DESIGN.md's observability table is out of sync with \
         mpss_obs::names::markdown_table(); paste the generated table in"
    );
}

#[test]
fn report_diff_cli_gates_regressions_and_passes_self_diffs() {
    let a = tmp("diff-a.json");
    let b = tmp("diff-b.json");
    std::fs::write(
        &a,
        r#"{"counters":{"offline.phases":4,"offline.repair_rounds":6},"histograms":{},"spans":[]}"#,
    )
    .unwrap();
    std::fs::write(
        &b,
        r#"{"counters":{"offline.phases":4,"offline.repair_rounds":9},"histograms":{},"spans":[]}"#,
    )
    .unwrap();

    // Self-diff: identical reports, exit 0.
    let out = cli()
        .args(["report-diff", a.to_str().unwrap(), a.to_str().unwrap()])
        .args(["--max-regress", "0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("unchanged"));

    // A gated counter grew past the threshold: non-zero exit.
    let out = cli()
        .args(["report-diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .args(["--max-regress", "5", "--only", "offline."])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    // The same delta outside the gated prefix only reports, exit 0.
    let out = cli()
        .args(["report-diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .args(["--max-regress", "5", "--only", "par."])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn trace_check_cli_validates_an_exported_trace() {
    let path = tmp("two-lane.trace.json");
    two_lane_trace().write_chrome_trace(&path).unwrap();

    let out = cli()
        .args(["trace-check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid Chrome Trace Event JSON"));
    assert!(stdout.contains("push-relabel"));

    // Corrupt the nesting: trace-check must reject it.
    let bad = tmp("bad.trace.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&bad, text.replacen("\"ph\":\"E\"", "\"ph\":\"B\"", 1)).unwrap();
    let out = cli()
        .args(["trace-check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn collapsed_stacks_cover_every_track_with_positive_weights() {
    let trace = two_lane_trace();
    let folded = trace.collapsed_stacks();
    for prefix in ["main;", "push-relabel;"] {
        assert!(
            folded.lines().any(|l| l.starts_with(prefix)),
            "no stacks for {prefix}: {folded}"
        );
    }
    for line in folded.lines() {
        let (_, weight) = line.rsplit_once(' ').unwrap();
        assert!(weight.parse::<u64>().is_ok(), "bad weight in {line}");
    }
    // The Chrome export of the same trace passes the validator: both lanes,
    // well-nested begin/end (phase spans under the solve span) and
    // monotone timestamps per track.
    let check = mpss::obs::validate_chrome_trace(&trace.chrome_trace().render()).unwrap();
    assert_eq!(check.track_names, ["main", "push-relabel"]);
    assert!(
        check.max_depth >= 2,
        "phase spans nest under the solve span"
    );
}
