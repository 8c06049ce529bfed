//! `par-scaling`: how do batched solves scale with the worker pool, and do
//! they stay bit-identical to the one-thread run?
//!
//! `mpss::batch::solve_many` shards a directory-sized batch of independent
//! instances over the pool; every thread count must return the same
//! schedules, in submission order, as one thread does.
//!
//! Speedups are *per machine*: a single-core container runs everything at
//! ~1.0×, which is exactly what the table should say there — the
//! bit-identity assertion is the portable part of this experiment, wall
//! clock is not.
//!
//! Run: `cargo run -p mpss-bench --release --bin exp_par_scaling`
//! `--smoke` shrinks every size for CI and appends a snapshot (wall time +
//! key counters, stamped with the git revision) to the cumulative
//! `BENCH_TRAJECTORY.json` in the working directory — gate it with
//! `mpss-cli report-diff --bench`; a path argument writes the table as an
//! experiment JSON document.

use mpss::batch::solve_many;
use mpss_bench::{record_bench_snapshot, timed, write_experiment_report, Table};
use mpss_obs::{Collector, RecordingCollector};
use mpss_offline::OfflineOptions;
use mpss_par::ThreadPool;
use mpss_workloads::{Family, WorkloadSpec};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args.iter().find(|a| !a.starts_with("--"));
    let started = std::time::Instant::now();
    let mut rec = RecordingCollector::new();
    let threads_available = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    println!(
        "machine: {threads_available} hardware threads available \
         (speedup columns are machine-relative)\n"
    );

    println!("batched solves: independent instances sharded over the pool\n");
    let batch_size = if smoke { 4 } else { 16 };
    let batch_n = if smoke { 16 } else { 60 };
    let batch: Vec<_> = (0..batch_size)
        .map(|k| {
            WorkloadSpec {
                family: Family::ALL[k % Family::ALL.len()],
                n: batch_n,
                m: 4,
                horizon: 2 * batch_n as u64,
                seed: 100 + k as u64,
            }
            .generate()
        })
        .collect();
    let opts = OfflineOptions::default();
    let baseline = solve_many(&batch, &opts, &ThreadPool::new(1));
    let base_ms = {
        let (_, ms) = timed(|| solve_many(&batch, &opts, &ThreadPool::new(1)));
        ms
    };
    let mut t_batch = Table::new(&["threads", "ms", "speedup", "outputs equal"]);
    t_batch.row(vec![
        "1".into(),
        format!("{base_ms:.2}"),
        "1.00".into(),
        "—".into(),
    ]);
    for threads in [2usize, 4, 8] {
        let (outputs, ms) = timed(|| solve_many(&batch, &opts, &ThreadPool::new(threads)));
        for (a, b) in baseline.iter().zip(&outputs) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(
                ra.schedule.segments, rb.schedule.segments,
                "batched solve diverged at {threads} threads"
            );
        }
        rec.count("par.tasks", batch.len() as u64);
        t_batch.row(vec![
            threads.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", base_ms / ms.max(1e-9)),
            "✓".into(),
        ]);
    }
    t_batch.print();
    println!(
        "\nevery thread count reproduced the one-thread schedules exactly;\n\
         speedups above are for this machine's {threads_available} hardware thread(s)."
    );

    if let Some(out) = out {
        write_experiment_report(
            Path::new(out),
            "par_scaling",
            &[("batched_solves", &t_batch)],
            Some(&rec),
        )
        .expect("writing experiment report");
        println!("\nexperiment JSON written to {out}");
    }
    if smoke {
        let bench = Path::new("BENCH_TRAJECTORY.json");
        record_bench_snapshot(
            bench,
            "par_scaling_smoke",
            started.elapsed().as_secs_f64() * 1e3,
            &[("par.tasks", rec.counter("par.tasks"))],
            &[],
        )
        .expect("writing bench snapshot");
        println!("bench snapshot recorded in {}", bench.display());
    }
}
