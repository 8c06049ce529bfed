//! End-to-end tests of the `mpss-cli` binary: generate → solve → online →
//! bounds → check, driving the real executable.

use mpss::model::json::arr;
use mpss::obs::json::Json;
use mpss::prelude::Schedule;
use std::path::{Path, PathBuf};
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

/// `mpss-cli generate` into `trace`: `n` jobs of `family` on `m`
/// processors over `horizon`, from `seed`. Returns its stdout.
fn generate(trace: &Path, family: &str, n: u32, m: u32, horizon: u32, seed: u32) -> String {
    let mut cmd = cli();
    cmd.args([
        "generate",
        "--family",
        family,
        "-o",
        trace.to_str().unwrap(),
    ]);
    for (flag, value) in [
        ("--n", n),
        ("--m", m),
        ("--horizon", horizon),
        ("--seed", seed),
    ] {
        cmd.args([flag, &value.to_string()]);
    }
    run_ok(&mut cmd)
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

    let out = generate(&trace, "uniform", 8, 2, 16, 7);
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
    generate(&trace, "uniform", 8, 2, 16, 11);

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
    // Batch OA drives the daemon's session, so its incremental planner
    // reports into the same collector.
    assert!(count(&doc, &["counters", "offline.incremental.patched_arcs"]) >= 1);
    // OA never touches the worker pool, so it reports no pool size.
    assert_eq!(doc.get("counters").unwrap().get("par.pool.threads"), None);
}

#[test]
fn unknown_options_are_rejected_by_name() {
    let trace = tmp("options-trace.json");
    generate(&trace, "uniform", 4, 2, 10, 5);
    let report = tmp("options-report.json");
    let _ = std::fs::remove_file(&report);
    let rejected = |args: &[&str], option: &str| {
        let out = cli().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
    };
    // A removed switch must not swallow the option after it.
    rejected(
        &[
            "solve",
            trace.to_str().unwrap(),
            "--race",
            "--report",
            report.to_str().unwrap(),
        ],
        "--race",
    );
    assert!(!report.exists(), "a rejected run wrote its report");
    rejected(
        &[
            "online",
            trace.to_str().unwrap(),
            "--algo",
            "oa",
            "--cold-flow",
        ],
        "--cold-flow",
    );
    rejected(
        &[
            "online",
            trace.to_str().unwrap(),
            "--algo",
            "avr",
            "--threads",
            "2",
        ],
        "--threads",
    );
    // A declared flag still needs its value.
    rejected(&["solve", trace.to_str().unwrap(), "--report"], "--report");
}

#[test]
fn bkp_requires_single_processor_traces() {
    let trace = tmp("bkp-m1.json");
    generate(&trace, "bursty", 5, 1, 12, 2);
    let out = run_ok(cli().args(["online", trace.to_str().unwrap(), "--algo", "bkp"]));
    assert!(out.contains("BKP"));

    // And an m = 2 trace is rejected with a clear error.
    let trace_m2 = tmp("bkp-m2.json");
    generate(&trace_m2, "bursty", 5, 2, 12, 2);
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
    generate(&trace, "uniform", 4, 1, 10, 3);
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
    generate(&trace, "poisson", 6, 2, 14, 1);
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
