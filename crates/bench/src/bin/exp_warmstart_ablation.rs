//! `warmstart-ablation`: does warm-starting the max-flow engine across
//! repair rounds (and seeding OA(m) replans from the surviving flow)
//! actually avoid work, and does it ever change the answer?
//!
//! (a) For each workload the offline solver runs twice — cold (every round
//! rebuilds the network from scratch) and warm (rounds within a phase
//! retarget the retained residual network). Rows report wall time plus the
//! machine-independent work counters: Dinic augmenting paths / BFS phases,
//! rounds served warm (`offline.cold_rounds_avoided`), drains, and seeded
//! reuse. (b) One OA(m) run, whose session replans are warm and seeded,
//! against the same replans' sub-instances solved cold. The phase
//! structures are asserted bit-identical on every row — the ablation is
//! void if the optimisation is observable in the output.
//!
//! Run: `cargo run -p mpss-bench --release --bin exp_warmstart_ablation`
//! `--smoke` shrinks the sweep for CI and appends a snapshot (wall time +
//! augmentation counters, stamped with the git revision) to the cumulative
//! `BENCH_TRAJECTORY.json` in the working directory — gate it with
//! `mpss-cli report-diff --bench`; a path argument writes the tables as an
//! experiment JSON document.

use mpss_bench::{record_bench_snapshot, timed, write_experiment_report, Table};
use mpss_obs::{Collector, RecordingCollector};
use mpss_offline::{
    optimal_schedule_observed, optimal_schedule_with, OfflineOptions, OptimalResult,
};
use mpss_online::{oa_schedule_observed, oa_schedule_with_plans};
use mpss_workloads::{Family, WorkloadSpec};
use std::path::Path;

fn assert_same_phases(a: &OptimalResult<f64>, b: &OptimalResult<f64>, ctx: &str) {
    assert_eq!(a.phases.len(), b.phases.len(), "{ctx}: phase count");
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.speed.to_bits(), pb.speed.to_bits(), "{ctx}: speed");
        assert_eq!(pa.jobs, pb.jobs, "{ctx}: jobs");
        assert_eq!(pa.procs, pb.procs, "{ctx}: procs");
        assert_eq!(pa.rounds, pb.rounds, "{ctx}: rounds");
    }
    assert_eq!(a.flow_computations, b.flow_computations, "{ctx}: rounds");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args.iter().find(|a| !a.starts_with("--"));
    let started = std::time::Instant::now();
    let mut rec = RecordingCollector::new();

    println!("(a) offline solver: cold rebuild vs warm retained residual network\n");
    let mut t = Table::new(&[
        "family",
        "n",
        "cold (ms)",
        "cold aug",
        "warm (ms)",
        "warm aug",
        "aug saved",
        "rounds warm",
        "drains",
        "phases equal",
    ]);
    let mut total_cold_aug = 0u64;
    let mut total_warm_aug = 0u64;
    let families: &[Family] = if smoke {
        &[Family::Uniform, Family::Bursty]
    } else {
        &[Family::Uniform, Family::Bursty, Family::Laminar]
    };
    let offline_sizes: &[usize] = if smoke { &[40, 80] } else { &[40, 80, 160] };
    for &family in families {
        for &n in offline_sizes {
            let instance = WorkloadSpec {
                family,
                n,
                m: 4,
                horizon: 2 * n as u64,
                seed: 13,
            }
            .generate();
            let mut cold_rec = RecordingCollector::new();
            let cold_opts = OfflineOptions {
                warm_start: false,
                ..Default::default()
            };
            let (cold, cold_ms) =
                timed(|| optimal_schedule_observed(&instance, &cold_opts, &mut cold_rec).unwrap());
            let mut warm_rec = RecordingCollector::new();
            let warm_opts = OfflineOptions::default();
            let (warm, warm_ms) =
                timed(|| optimal_schedule_observed(&instance, &warm_opts, &mut warm_rec).unwrap());
            let ctx = format!("{}/{n}", family.name());
            assert_same_phases(&warm, &cold, &ctx);

            let cold_aug = cold_rec.counter("maxflow.dinic.augmenting_paths");
            let warm_aug = warm_rec.counter("maxflow.dinic.augmenting_paths");
            total_cold_aug += cold_aug;
            total_warm_aug += warm_aug;
            rec.count("exp.cold.augmenting_paths", cold_aug);
            rec.count("exp.warm.augmenting_paths", warm_aug);
            rec.count(
                "maxflow.warm.reused_flow",
                warm_rec.counter("maxflow.warm.reused_flow"),
            );
            rec.count(
                "maxflow.warm.drained",
                warm_rec.counter("maxflow.warm.drained"),
            );
            rec.count(
                "offline.cold_rounds_avoided",
                warm_rec.counter("offline.cold_rounds_avoided"),
            );
            t.row(vec![
                family.name().to_string(),
                n.to_string(),
                format!("{cold_ms:.3}"),
                cold_aug.to_string(),
                format!("{warm_ms:.3}"),
                warm_aug.to_string(),
                format!("{}", cold_aug as i64 - warm_aug as i64),
                warm_rec.counter("offline.cold_rounds_avoided").to_string(),
                warm_rec.counter("maxflow.warm.drained").to_string(),
                "✓".into(),
            ]);
        }
    }
    t.print();
    assert!(
        total_warm_aug < total_cold_aug,
        "warm start should reduce total augmenting paths: warm {total_warm_aug} vs cold {total_cold_aug}"
    );
    println!(
        "\ntotal Dinic augmenting paths: cold {total_cold_aug}, warm {total_warm_aug} \
         ({:.1}% saved)\n",
        100.0 * (total_cold_aug - total_warm_aug) as f64 / total_cold_aug.max(1) as f64
    );

    println!("(b) OA(m): seeded session replans vs the same replans re-solved cold\n");
    let mut t2 = Table::new(&[
        "n",
        "replans",
        "cold (ms)",
        "cold aug",
        "seeded (ms)",
        "seeded aug",
        "phases equal",
    ]);
    let oa_sizes: &[usize] = if smoke { &[25, 50] } else { &[25, 50, 100] };
    let cold_opts = OfflineOptions {
        warm_start: false,
        ..Default::default()
    };
    for &n in oa_sizes {
        let instance = WorkloadSpec {
            family: Family::Uniform,
            n,
            m: 4,
            horizon: 2 * n as u64,
            seed: 13,
        }
        .generate();
        // The seeded run: every replan is warm, prepared by the session's
        // incremental planner and seeded from the surviving jobs' spans.
        let ((run, plans), seeded_ms) = timed(|| oa_schedule_with_plans(&instance).unwrap());
        let mut seeded_rec = RecordingCollector::new();
        oa_schedule_observed(&instance, &mut seeded_rec).unwrap();
        // The cold column: each replan's sub-instance solved from scratch.
        let (cold, cold_ms) = timed(|| {
            plans
                .iter()
                .map(|record| optimal_schedule_with(&record.instance, &cold_opts).unwrap())
                .collect::<Vec<_>>()
        });
        for (record, cold) in plans.iter().zip(&cold) {
            assert_same_phases(&record.plan, cold, &format!("OA n={n} t={}", record.time));
        }
        let mut cold_rec = RecordingCollector::new();
        for record in &plans {
            optimal_schedule_observed(&record.instance, &cold_opts, &mut cold_rec).unwrap();
        }
        // Theorem 2 on the executed run: OPT ≤ E ≤ α^α·OPT.
        let p = mpss_core::power::Polynomial::new(2.0);
        let e_opt = mpss_core::energy::schedule_energy(
            &mpss_offline::optimal_schedule(&instance).unwrap().schedule,
            &p,
        );
        mpss_core::validate::validate_schedule(&instance, &run.schedule, 1e-6).unwrap();
        let e = mpss_core::energy::schedule_energy(&run.schedule, &p);
        assert!(
            e >= e_opt * (1.0 - 1e-9) && e <= p.oa_bound() * e_opt * (1.0 + 1e-9),
            "OA n={n}: energy {e} outside [OPT, α^α·OPT] with OPT {e_opt}"
        );
        t2.row(vec![
            n.to_string(),
            run.replans.to_string(),
            format!("{cold_ms:.3}"),
            cold_rec
                .counter("maxflow.dinic.augmenting_paths")
                .to_string(),
            format!("{seeded_ms:.3}"),
            seeded_rec
                .counter("maxflow.dinic.augmenting_paths")
                .to_string(),
            "✓".into(),
        ]);
    }
    t2.print();
    println!(
        "\nwarm start is a pure work optimisation: offline phase structures are\n\
         bit-identical on every row — including every seeded OA replan against\n\
         its cold re-solve — while the retained residual network absorbs the\n\
         repair rounds' augmentation work."
    );

    if let Some(out) = out {
        write_experiment_report(
            Path::new(out),
            "warmstart_ablation",
            &[("offline_warm_vs_cold", &t), ("oa_seeded_vs_cold", &t2)],
            Some(&rec),
        )
        .expect("writing experiment report");
        println!("\nexperiment JSON written to {out}");
    }
    if smoke {
        let bench = Path::new("BENCH_TRAJECTORY.json");
        record_bench_snapshot(
            bench,
            "warmstart_ablation_smoke",
            started.elapsed().as_secs_f64() * 1e3,
            &[
                ("exp.cold.augmenting_paths", total_cold_aug),
                ("exp.warm.augmenting_paths", total_warm_aug),
                (
                    "offline.cold_rounds_avoided",
                    rec.counter("offline.cold_rounds_avoided"),
                ),
                ("maxflow.warm.drained", rec.counter("maxflow.warm.drained")),
            ],
            &[],
        )
        .expect("writing bench snapshot");
        println!("bench snapshot recorded in {}", bench.display());
    }
}
