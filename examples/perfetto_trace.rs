//! Streaming trace export: solve an instance while a [`TraceCollector`]
//! records every span, instant, and counter sample, then export the run as
//! Chrome Trace Event JSON (open it in <https://ui.perfetto.dev> or
//! `chrome://tracing`) and as collapsed stacks for flamegraph tooling.
//!
//! The exported trace has one named track per execution lane: the caller's
//! `main` track carries a Dinic solve, and a `push-relabel` track, forked
//! off it and adopted back, carries the same solve on the other max-flow
//! engine.
//!
//! Run with: `cargo run --example perfetto_trace`

use mpss::obs::validate_chrome_trace;
use mpss::prelude::*;

fn main() -> std::io::Result<()> {
    let instance = Instance::new(
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
    .expect("valid instance");

    let mut trace = TraceCollector::new("main");
    let result = optimal_schedule_observed(&instance, &OfflineOptions::default(), &mut trace)
        .expect("solvable");
    let mut lane = trace.fork("push-relabel");
    let opts = OfflineOptions {
        engine: FlowEngine::PushRelabel,
        ..Default::default()
    };
    optimal_schedule_observed(&instance, &opts, &mut lane).expect("solvable");
    trace.adopt(lane);
    println!(
        "solved: {} phases, {} max-flow computations",
        result.phases.len(),
        result.flow_computations
    );

    let dir = std::env::temp_dir().join("mpss-traces");
    std::fs::create_dir_all(&dir)?;
    let chrome = dir.join("solve.trace.json");
    trace.write_chrome_trace(&chrome)?;
    let folded = dir.join("solve.folded");
    std::fs::write(&folded, trace.collapsed_stacks())?;

    // The exporter promises Perfetto-loadable output; check it the same way
    // `mpss-cli trace-check` does.
    let text = std::fs::read_to_string(&chrome)?;
    let check = validate_chrome_trace(&text).expect("exporter emits valid traces");
    println!(
        "trace: {} events on {} tracks ({:?}), {} instants, max span depth {}",
        check.events, check.tracks, check.track_names, check.instants, check.max_depth
    );
    println!("chrome trace : {}", chrome.display());
    println!("collapsed    : {}", folded.display());
    Ok(())
}
