//! End-to-end tests of the `mpss-cli` binary: generate → solve → online →
//! bounds → check, driving the real executable.

use mpss::model::json::arr;
use mpss::obs::json::Json;
use mpss::prelude::Schedule;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpss-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpss-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The count at `doc[k0][k1]…`.
fn count(doc: &Json, path: &[&str]) -> u64 {
    match path.iter().try_fold(doc, |node, key| node.get(key)) {
        Some(Json::UInt(n)) => *n,
        other => panic!("`{}` is not a count: {other:?}", path.join(".")),
    }
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn mpss-cli");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_solve_online_bounds_roundtrip() {
    let trace = tmp("roundtrip.json");
    let sched = tmp("roundtrip-schedule.json");

    let out = run_ok(cli().args([
        "generate",
        "--family",
        "uniform",
        "--n",
        "8",
        "--m",
        "2",
        "--horizon",
        "16",
        "--seed",
        "7",
        "-o",
        trace.to_str().unwrap(),
    ]));
    assert!(out.contains("8 jobs on 2 processors"));

    let out = run_ok(cli().args([
        "solve",
        trace.to_str().unwrap(),
        "--alpha",
        "2",
        "--gantt",
        "--save-schedule",
        sched.to_str().unwrap(),
    ]));
    assert!(out.contains("speed levels"));
    assert!(out.contains("energy (P = s^2)"));
    assert!(out.contains("P0")); // gantt rendered
    assert!(sched.exists());

    let out = run_ok(cli().args(["check", trace.to_str().unwrap(), sched.to_str().unwrap()]));
    assert!(out.contains("FEASIBLE"));

    for algo in ["oa", "avr"] {
        let out = run_ok(cli().args([
            "online",
            trace.to_str().unwrap(),
            "--algo",
            algo,
            "--alpha",
            "2",
        ]));
        assert!(out.contains("within bound  : yes"), "{algo}: {out}");
    }

    let out = run_ok(cli().args(["bounds", trace.to_str().unwrap(), "--alpha", "2"]));
    assert!(out.contains("minimum feasible peak speed"));
}

#[test]
fn solve_and_online_write_observability_reports() {
    let trace = tmp("report-trace.json");
    run_ok(cli().args([
        "generate",
        "--family",
        "uniform",
        "--n",
        "8",
        "--m",
        "2",
        "--horizon",
        "16",
        "--seed",
        "11",
        "-o",
        trace.to_str().unwrap(),
    ]));

    // solve --report: per-phase spans + max-flow work counters.
    let report = tmp("solve-report.json");
    let out = run_ok(cli().args([
        "solve",
        trace.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]));
    assert!(out.contains("run report saved"));
    let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    // The span tree wraps the whole computation with one child per phase.
    let root = &arr(&doc, "spans").unwrap()[0];
    assert_eq!(
        root.get("name"),
        Some(&Json::from("offline.optimal_schedule"))
    );
    let phase_spans = arr(root, "children").unwrap();
    assert!(!phase_spans.is_empty());
    assert!(phase_spans
        .iter()
        .all(|s| s.get("name") == Some(&Json::from("offline.phase"))));
    // Work counters: total max-flow invocations and Dinic augmenting paths.
    assert_eq!(
        count(&doc, &["counters", "offline.phases"]),
        phase_spans.len() as u64
    );
    assert!(count(&doc, &["counters", "offline.maxflow.invocations"]) >= 1);
    assert!(count(&doc, &["counters", "maxflow.dinic.augmenting_paths"]) >= 1);
    // Per-phase latency histogram, auto-folded from the phase spans.
    assert_eq!(
        count(&doc, &["histograms", "span.offline.phase.ms", "count"]),
        phase_spans.len() as u64
    );

    // online --algo oa --report: replan spans nesting offline runs.
    let oa_report = tmp("oa-report.json");
    run_ok(cli().args([
        "online",
        trace.to_str().unwrap(),
        "--algo",
        "oa",
        "--report",
        oa_report.to_str().unwrap(),
    ]));
    let doc = Json::parse(&std::fs::read_to_string(&oa_report).unwrap()).unwrap();
    let replans = count(&doc, &["counters", "oa.replans"]);
    assert!(replans >= 1);
    assert!(count(&doc, &["counters", "oa.maxflow.invocations"]) >= 1);
    assert!(count(&doc, &["counters", "driver.segments"]) >= 1);
    assert_eq!(
        count(&doc, &["histograms", "span.oa.replan.ms", "count"]),
        replans
    );
    assert!(count(&doc, &["histograms", "driver.energy_trajectory", "count"]) >= 1);
}

#[test]
fn bkp_requires_single_processor_traces() {
    let trace = tmp("bkp-m1.json");
    run_ok(cli().args([
        "generate",
        "--family",
        "bursty",
        "--n",
        "5",
        "--m",
        "1",
        "--horizon",
        "12",
        "--seed",
        "2",
        "-o",
        trace.to_str().unwrap(),
    ]));
    let out = run_ok(cli().args(["online", trace.to_str().unwrap(), "--algo", "bkp"]));
    assert!(out.contains("BKP"));

    // And an m = 2 trace is rejected with a clear error.
    let trace_m2 = tmp("bkp-m2.json");
    run_ok(cli().args([
        "generate",
        "--family",
        "bursty",
        "--n",
        "5",
        "--m",
        "2",
        "--horizon",
        "12",
        "--seed",
        "2",
        "-o",
        trace_m2.to_str().unwrap(),
    ]));
    let out = cli()
        .args(["online", trace_m2.to_str().unwrap(), "--algo", "bkp"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("single-processor"));
}

#[test]
fn corrupted_schedule_fails_check() {
    let trace = tmp("corrupt.json");
    let sched = tmp("corrupt-schedule.json");
    run_ok(cli().args([
        "generate",
        "--family",
        "uniform",
        "--n",
        "4",
        "--m",
        "1",
        "--horizon",
        "10",
        "--seed",
        "3",
        "-o",
        trace.to_str().unwrap(),
    ]));
    run_ok(cli().args([
        "solve",
        trace.to_str().unwrap(),
        "--save-schedule",
        sched.to_str().unwrap(),
    ]));
    // Corrupt it: drop the last segment, or add one that does no work.
    // `check` reads the file as written, so junk is reported, not dropped.
    let text = std::fs::read_to_string(&sched).unwrap();
    let complete = Schedule::from_json(&Json::parse(&text).unwrap()).unwrap();
    let mut truncated = complete.clone();
    truncated.segments.pop();
    let with_junk = |junk: &str| {
        let mut doc = complete.to_json().render();
        doc.insert_str(doc.len() - 2, &format!(",{junk}"));
        doc
    };
    for (text, violation) in [
        (truncated.to_json().render(), "INFEASIBLE"),
        (
            with_junk(r#"{"job":99,"proc":7,"start":3,"end":3,"speed":1}"#),
            "unknown job 99",
        ),
        (
            with_junk(r#"{"job":0,"proc":0,"start":3,"end":2,"speed":1}"#),
            "malformed",
        ),
    ] {
        std::fs::write(&sched, text).unwrap();
        let out = cli()
            .args(["check", trace.to_str().unwrap(), sched.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{stdout}");
        assert!(stdout.contains(violation), "{violation}: {stdout}");
    }
}

#[test]
fn usage_and_unknown_commands() {
    let out = run_ok(cli().arg("--help"));
    assert!(out.contains("USAGE"));
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn stats_and_svg_outputs() {
    let trace = tmp("stats.json");
    let svg = tmp("stats.svg");
    run_ok(cli().args([
        "generate",
        "--family",
        "poisson",
        "--n",
        "6",
        "--m",
        "2",
        "--horizon",
        "14",
        "--seed",
        "1",
        "-o",
        trace.to_str().unwrap(),
    ]));
    let out = run_ok(cli().args(["stats", trace.to_str().unwrap(), "--alpha", "2"]));
    assert!(out.contains("load factor"));
    assert!(out.contains("migrating jobs"));
    run_ok(cli().args([
        "solve",
        trace.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]));
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.starts_with("<svg"));
    assert!(content.contains("</svg>"));
}
