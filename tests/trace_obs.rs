//! Integration tests for the streaming trace layer: solves on forked tracks
//! produce multi-track Chrome Trace Event JSON, batch runs get one track per
//! worker, the counter-name manifest covers everything the solvers emit,
//! and the `report-diff` / `trace-check` CLI gates behave.
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

#[test]
fn batch_trace_forks_one_track_per_worker() {
    let batch: Vec<Instance<f64>> = (0..4).map(|_| repair_instance()).collect();
    let mut trace = TraceCollector::new("main");
    let outputs = solve_many_observed(
        &batch,
        &OfflineOptions::default(),
        &ThreadPool::new(2),
        &mut trace,
    );
    assert!(outputs.iter().all(|o| o.result.is_ok()));
    assert_eq!(trace.track_names(), ["main", "worker-0", "worker-1"]);
    // All four instances ran inside a batch.solve span on some worker track.
    let solves = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceEventKind::Begin("batch.solve"))
        .count();
    assert_eq!(solves, batch.len());
    let check = mpss::obs::validate_chrome_trace(&trace.chrome_trace().render()).unwrap();
    // All three tracks exist; a worker that never won the work-stealing race
    // (possible on a single-core machine) carries no events, and the
    // validator only counts populated tracks.
    assert!((2..=3).contains(&check.tracks), "{check:?}");
}

#[test]
fn batch_collector_totals_equal_the_merged_per_instance_reports() {
    let batch: Vec<Instance<f64>> = (0..3).map(|_| repair_instance()).collect();
    let mut obs = RecordingCollector::new();
    let outputs = solve_many_observed(
        &batch,
        &OfflineOptions::default(),
        &ThreadPool::new(2),
        &mut obs,
    );
    // Every counter a per-instance report recorded also reached the batch
    // collector through the worker tracks, and the totals line up exactly.
    for out in &outputs {
        assert!(out.report.counter("offline.phases") > 0);
    }
    let mut keys: Vec<&str> = outputs
        .iter()
        .flat_map(|o| o.report.counters().map(|(k, _)| k))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let sum: u64 = outputs.iter().map(|o| o.report.counter(key)).sum();
        assert_eq!(obs.counter(key), sum, "{key}");
    }
    // Histograms merge the same way: per-key sample counts add up.
    let mut hist_keys: Vec<&str> = outputs
        .iter()
        .flat_map(|o| o.report.histograms().map(|(k, _)| k))
        .collect();
    hist_keys.sort_unstable();
    hist_keys.dedup();
    for key in hist_keys {
        let sum: u64 = outputs
            .iter()
            .filter_map(|o| o.report.histogram(key))
            .map(|h| h.count())
            .sum();
        assert_eq!(obs.histogram(key).unwrap().count(), sum, "{key}");
    }
}

#[test]
fn manifest_covers_everything_the_stack_emits() {
    let instance = repair_instance();
    let mut rec = RecordingCollector::new();

    // Offline: warm solves on both engines, push-relabel's on a forked
    // track adopted back.
    let opts = OfflineOptions::default();
    optimal_schedule_observed(&instance, &opts, &mut rec).unwrap();
    let mut lane = rec.fork("push-relabel");
    optimal_schedule_observed(&instance, &push_relabel(), &mut lane).unwrap();
    rec.adopt(lane);
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
    // Batch over the pool.
    let batch = vec![instance.clone(), instance.clone()];
    solve_many_observed(&batch, &opts, &ThreadPool::new(2), &mut rec);
    rec.close_open_spans();

    let unknown = names::unknown_keys(
        rec.counters().map(|(k, _)| k),
        rec.histograms().map(|(k, _)| k),
    );
    assert!(unknown.is_empty(), "manifest is missing: {unknown:?}");
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
