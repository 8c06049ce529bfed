//! Integration tests for the live metrics layer: labeled session telemetry
//! round-trips through the hand-rolled `/metrics` endpoint and exposition
//! parser onto manifest-listed Prometheus families, and the
//! `report-diff --bench` / `trace-check` / `scrape` CLI gates behave.
//!
//! Like `tests/trace_obs.rs`, everything here goes through `mpss_obs` and
//! `std` only — no serde, no HTTP crate.

use mpss::obs::names;
use mpss::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpss-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpss-metrics-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn session_metrics_round_trip_through_the_metrics_endpoint() {
    // Drive a live OA session publishing into a hub…
    let hub = MetricsHub::new();
    let mut session = OaSession::new(2, 0.0);
    session.attach_metrics(SessionMetrics::register(&hub, "oa", 2));
    session.arrive(4.0, 3.0).unwrap();
    session.arrive(2.0, 2.0).unwrap();
    session.advance_to(1.0).unwrap();
    session.arrive(3.0, 2.0).unwrap();

    // …serve it over the hand-rolled TCP responder and scrape it back.
    let mut server = MetricsServer::bind("127.0.0.1:0", &hub).unwrap();
    let text = http_get(server.addr(), "/metrics").unwrap();
    server.shutdown();

    // The exposition parses cleanly and the session series carry the
    // session's actual state, labels intact.
    let expo = parse_exposition(&text).unwrap();
    let arrivals = expo
        .family("mpss_session_arrivals_total")
        .and_then(|f| f.sample("mpss_session_arrivals_total", &[("algo", "oa")]))
        .expect("arrivals series");
    assert_eq!(arrivals.value, 3.0);
    let clock = expo
        .family("mpss_session_clock")
        .and_then(|f| f.sample("mpss_session_clock", &[("algo", "oa")]))
        .expect("clock series");
    assert_eq!(clock.value, 1.0);
    for proc in ["0", "1"] {
        expo.family("mpss_session_speed")
            .and_then(|f| f.sample("mpss_session_speed", &[("algo", "oa"), ("proc", proc)]))
            .unwrap_or_else(|| panic!("speed series for proc {proc}"));
    }
    let replans = expo
        .family("mpss_session_replans_total")
        .and_then(|f| f.sample("mpss_session_replans_total", &[("algo", "oa")]))
        .expect("replans series");
    assert_eq!(replans.value, session.replans() as f64);
    // Histogram families round-trip with their bucket invariants (the
    // parser checks le-monotonicity, +Inf == _count, and _sum presence).
    let count = expo
        .family("mpss_session_replan_seconds")
        .and_then(|f| f.sample("mpss_session_replan_seconds_count", &[("algo", "oa")]))
        .expect("replan latency histogram");
    assert_eq!(count.value, session.replans() as f64);
    // Every family the stack serves is listed in the names manifest.
    for family in &expo.families {
        assert!(
            names::known_metric(&family.name),
            "{} missing from mpss_obs::names::METRICS",
            family.name
        );
    }
}

#[test]
fn avr_session_publishes_under_its_own_algo_label() {
    let hub = MetricsHub::new();
    let mut session = AvrSession::new(2, 0.0);
    session.attach_metrics(SessionMetrics::register(&hub, "avr", 2));
    session.arrive(1.0, 4.0).unwrap();
    session.arrive(1.0, 1.0).unwrap();
    let expo = parse_exposition(&hub.render()).unwrap();
    let active = expo
        .family("mpss_session_active_jobs")
        .and_then(|f| f.sample("mpss_session_active_jobs", &[("algo", "avr")]))
        .expect("active series");
    assert_eq!(active.value, 2.0);
    // Peel the density-4 job; proc 0 runs it flat out.
    let speed0 = expo
        .family("mpss_session_speed")
        .and_then(|f| f.sample("mpss_session_speed", &[("algo", "avr"), ("proc", "0")]))
        .expect("speed series");
    assert_eq!(speed0.value, 4.0);
}

#[test]
fn scrape_cli_validates_a_live_endpoint() {
    let hub = MetricsHub::new();
    let metrics = SessionMetrics::register(&hub, "oa", 1);
    metrics.on_arrival();
    metrics.on_replan(0.001);
    metrics.publish(2.0, 1, 0.5, &[1.25]);
    let mut server = MetricsServer::bind("127.0.0.1:0", &hub).unwrap();

    let saved = tmp("scraped.txt");
    let out = cli()
        .args([
            "scrape",
            &server.addr().to_string(),
            "--out",
            saved.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    server.shutdown();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parses cleanly"), "{stdout}");
    let text = std::fs::read_to_string(&saved).unwrap();
    assert!(text.contains("mpss_session_arrivals_total{algo=\"oa\"} 1"));
}

#[test]
fn watch_cli_runs_a_trace_and_writes_the_exposition() {
    let trace = tmp("watch-trace.json");
    let gen = cli()
        .args([
            "generate", "--family", "uniform", "--n", "6", "--m", "2", "--seed", "7", "-o",
        ])
        .arg(trace.to_str().unwrap())
        .output()
        .unwrap();
    assert!(gen.status.success(), "{gen:?}");

    let metrics_out = tmp("watch-metrics.txt");
    let out = cli()
        .args(["watch", trace.to_str().unwrap()])
        .args(["--algo", "oa", "--interval-ms", "0"])
        .args(["--metrics-out", metrics_out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("final metrics snapshot"), "{stdout}");
    assert!(stdout.contains("mpss_session_replans_total"), "{stdout}");

    let expo = parse_exposition(&std::fs::read_to_string(&metrics_out).unwrap()).unwrap();
    let arrivals = expo
        .family("mpss_session_arrivals_total")
        .and_then(|f| f.sample("mpss_session_arrivals_total", &[("algo", "oa")]))
        .expect("arrivals series");
    assert_eq!(arrivals.value, 6.0);
}

#[test]
fn report_diff_bench_gates_newest_trajectory_entry() {
    let path = tmp("trajectory.json");
    std::fs::write(
        &path,
        r#"[
            {"name":"smoke","git_rev":"aaa1111","wall_ms":10.0,
             "counters":{"offline.phases":4,"offline.repair_rounds":6}},
            {"name":"smoke","git_rev":"bbb2222","wall_ms":11.0,
             "counters":{"offline.phases":4,"offline.repair_rounds":9}},
            {"name":"lonely","git_rev":"bbb2222","wall_ms":5.0,
             "counters":{"offline.phases":2}}
        ]"#,
    )
    .unwrap();

    // Ungated (--max-regress absent): report only, exit 0.
    let out = cli()
        .args(["report-diff", "--bench", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bench smoke : aaa1111 -> bbb2222"),
        "{stdout}"
    );
    assert!(stdout.contains("lonely"), "{stdout}");
    assert!(stdout.contains("no baseline yet"), "{stdout}");

    // Gated: the repair-round growth trips the threshold.
    let out = cli()
        .args(["report-diff", "--bench", path.to_str().unwrap()])
        .args(["--max-regress", "5", "--only", "offline."])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");

    // Name-filtered to the single-entry snapshot: nothing to gate, exit 0.
    let out = cli()
        .args(["report-diff", "--bench", path.to_str().unwrap()])
        .args(["--name", "lonely", "--max-regress", "0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Unknown name: error.
    let out = cli()
        .args(["report-diff", "--bench", path.to_str().unwrap()])
        .args(["--name", "missing"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
}

#[test]
fn repo_trajectory_passes_its_own_bench_gate() {
    // The committed BENCH_TRAJECTORY.json must stay consumable by the gate.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_TRAJECTORY.json");
    let out = cli()
        .args(["report-diff", "--bench", path.to_str().unwrap()])
        .args(["--max-regress", "0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn trace_check_cli_fails_on_span_mismatches() {
    // A structurally valid trace whose run recorded one span mismatch: the
    // spans nest fine, but the obs.span_mismatch counter is non-zero.
    let path = tmp("mismatched.trace.json");
    std::fs::write(
        &path,
        r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"solve"},
            {"ph":"C","pid":1,"tid":0,"ts":2.0,"name":"obs.span_mismatch","args":{"value":1}},
            {"ph":"E","pid":1,"tid":0,"ts":3.0,"name":"solve"}
        ]}"#,
    )
    .unwrap();
    let out = cli()
        .args(["trace-check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "span mismatches must fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("span mismatch"), "{stderr}");
}
