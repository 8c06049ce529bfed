//! Incremental-replan scaling: sublinear derivation work per arrival.
//!
//! Drives two [`OaSession`]s over the *same* deterministic arrival stream —
//! one with the incremental planner (the default), one forced onto the
//! from-scratch path — and compares the machine-independent derivation work
//! ([`OaSession::replan_work`], i.e. [`OptimalResult::work_ops`] summed over
//! replans) between them. The executed schedules must be bit-identical: the
//! incremental path is a pure work optimisation, so any divergence is a bug,
//! not noise.
//!
//! The stream is a burst of `n` arrivals whose deadlines cluster onto ~48
//! distinct values (the shape `mpss-serve` tenants produce: many jobs, few
//! deadline classes), followed by a tail of trickle arrivals interleaved
//! with advances past early deadlines so the planner also exercises its
//! removal splices at full live-set size. Scratch derivation per replan is
//! Θ(n log n) partition sorting plus Θ(n·|𝓘|) activity probes per round;
//! the prepared path pays Θ(Δ log n) maintenance plus Θ(n + |𝓘|) per round,
//! so the work ratio grows with the live-set size. The binary asserts the
//! ≥5x total-work reduction at n ≥ 1024 directly — a maintenance regression
//! fails the run, not just a table entry.
//!
//! Usage: `exp_incremental_replan [--smoke] [REPORT.json]`. `--smoke` runs
//! a reduced sweep and appends an `incremental_replan_smoke` entry to
//! `BENCH_TRAJECTORY.json`: the work counts `incr.patched_arcs` and
//! `incr.work_ops` gate in `report-diff --bench`; the wall-clock
//! `incr.replan_ms` is an ungated stat, as it moves with the machine.
//!
//! [`OptimalResult::work_ops`]: mpss_offline::OptimalResult::work_ops

use mpss_bench::{record_bench_snapshot, timed, write_experiment_report, Table};
use mpss_core::Schedule;
use mpss_offline::IncrementalStats;
use mpss_online::OaSession;
use std::path::Path;

/// Distinct deadline clusters in the burst (the staircase width, so the
/// interval partition stays ~this many events wide regardless of `n`).
const CLUSTERS: usize = 48;
/// Earliest cluster deadline; clusters sit at `BASE + 0 .. BASE + CLUSTERS`.
const BASE: f64 = 10.0;

struct Outcome {
    executed: Schedule<f64>,
    replans: usize,
    flows: usize,
    work: u64,
    stats: IncrementalStats,
    wall_ms: f64,
}

/// Runs the deterministic stream for live-set size `n` on `m` processors.
fn drive(n: usize, m: usize, incremental: bool) -> Outcome {
    let (session, wall_ms) = timed(|| {
        let mut s = OaSession::new(m, 0.0);
        s.set_incremental(incremental);
        // Burst: n jobs released together. Deadlines skew onto the earliest
        // clusters (7 of 8 jobs in the first six classes, the rest striped
        // across the remaining grid) — the shape serve tenants produce:
        // most work due soon, a thin tail of stragglers keeping the full
        // staircase wide.
        for k in 0..n {
            let bucket = if k % 8 != 0 {
                k % 6
            } else {
                6 + (k / 8) % (CLUSTERS - 6)
            };
            let deadline = BASE + bucket as f64;
            s.arrive(deadline, 1.0).expect("burst arrival");
        }
        // Tail: advance past the early clusters (draining completed jobs)
        // with trickle arrivals in between, so syncs splice removals out of
        // a ~n-job partition instead of rebuilding it.
        for step in 0..16 {
            let now = BASE + 0.5 + step as f64 * 0.5;
            s.advance_to(now).expect("tail advance");
            s.arrive((now + 20.0).ceil(), 1.0).expect("tail arrival");
        }
        s
    });
    Outcome {
        replans: session.replans(),
        flows: session.flow_computations(),
        work: session.replan_work(),
        stats: session.incremental_stats(),
        executed: session.finish().expect("finish"),
        wall_ms,
    }
}

/// Bit-level equality of two executed schedules.
fn assert_identical(a: &Schedule<f64>, b: &Schedule<f64>, ctx: &str) {
    assert_eq!(a.m, b.m, "{ctx}: processor count");
    assert_eq!(a.segments.len(), b.segments.len(), "{ctx}: segment count");
    for (sa, sb) in a.segments.iter().zip(&b.segments) {
        assert_eq!(sa.proc, sb.proc, "{ctx}: proc");
        assert_eq!(sa.job, sb.job, "{ctx}: job");
        assert_eq!(sa.start.to_bits(), sb.start.to_bits(), "{ctx}: start");
        assert_eq!(sa.end.to_bits(), sb.end.to_bits(), "{ctx}: end");
        assert_eq!(sa.speed.to_bits(), sb.speed.to_bits(), "{ctx}: speed");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().find(|a| !a.starts_with("--")).cloned();
    let started = std::time::Instant::now();

    let sweep: &[usize] = if smoke {
        &[128, 1024]
    } else {
        &[128, 512, 1024]
    };
    let m = 8;

    let mut table = Table::new(&[
        "n",
        "replans",
        "scratch work",
        "incr work",
        "ratio",
        "patched arcs",
        "arcs/replan",
        "reused ivals",
        "rebuilt",
        "scratch ms",
        "incr ms",
    ]);

    let mut total_patched = 0u64;
    let mut total_incr_work = 0u64;
    let mut total_incr_ms = 0.0f64;
    for &n in sweep {
        let scratch = drive(n, m, false);
        let incr = drive(n, m, true);

        // The incremental path must change the cost of replans, never their
        // outcome: identical executed schedules, replan and flow counts.
        assert_identical(&scratch.executed, &incr.executed, &format!("n={n}"));
        assert_eq!(scratch.replans, incr.replans, "n={n}: replans");
        assert_eq!(scratch.flows, incr.flows, "n={n}: flow computations");
        assert_eq!(
            scratch.stats,
            IncrementalStats::default(),
            "n={n}: scratch session must not touch the planner"
        );
        // Counters scale with the per-event delta: after the first sync
        // rebuilds, every burst/tail arrival patches instead.
        assert!(incr.stats.patched_arcs > 0, "n={n}: no arcs patched");
        assert!(
            incr.stats.reused_intervals > 0,
            "n={n}: no intervals reused"
        );
        assert!(
            (incr.stats.rebuilt as usize) * 10 < incr.replans,
            "n={n}: planner rebuilt {} of {} syncs — patching is not engaging",
            incr.stats.rebuilt,
            incr.replans
        );

        let ratio = scratch.work as f64 / incr.work.max(1) as f64;
        if n >= 1024 {
            assert!(
                ratio >= 5.0,
                "n={n}: derivation-work reduction {ratio:.2}x < the 5x floor \
                 (scratch {} vs incremental {})",
                scratch.work,
                incr.work
            );
        }

        total_patched += incr.stats.patched_arcs;
        total_incr_work += incr.work;
        total_incr_ms += incr.wall_ms;
        table.row(vec![
            n.to_string(),
            incr.replans.to_string(),
            scratch.work.to_string(),
            incr.work.to_string(),
            format!("{ratio:.1}x"),
            incr.stats.patched_arcs.to_string(),
            format!(
                "{:.1}",
                incr.stats.patched_arcs as f64 / incr.replans as f64
            ),
            incr.stats.reused_intervals.to_string(),
            incr.stats.rebuilt.to_string(),
            format!("{:.0}", scratch.wall_ms),
            format!("{:.0}", incr.wall_ms),
        ]);
    }

    table.print();
    println!(
        "\nexecuted schedules were bit-identical on every row; the ≥5x \
         derivation-work floor held at n=1024."
    );

    if let Some(path) = &out_path {
        write_experiment_report(
            Path::new(path),
            "incremental_replan",
            &[("scaling", &table)],
            None,
        )
        .expect("writing report");
        println!("report written to {path}");
    }

    if smoke {
        let bench = Path::new("BENCH_TRAJECTORY.json");
        record_bench_snapshot(
            bench,
            "incremental_replan_smoke",
            started.elapsed().as_secs_f64() * 1e3,
            &[
                ("incr.patched_arcs", total_patched),
                ("incr.work_ops", total_incr_work),
            ],
            &[("incr.replan_ms", total_incr_ms)],
        )
        .expect("writing bench snapshot");
        println!("bench snapshot recorded in {}", bench.display());
    }
}
