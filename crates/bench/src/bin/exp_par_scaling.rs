//! `par-scaling`: how do the two parallel hot paths scale with the worker
//! pool, and do they stay bit-identical to their sequential oracles?
//!
//! Two sections, one per `mpss-par` integration:
//!
//! * **(a) parallel AVR(m)** — per-interval peel + McNaughton chunked over
//!   the pool vs the sequential loop; segments must be bit-identical at
//!   every thread count.
//! * **(b) batched solves** — `mpss::batch::solve_many` sharding a
//!   directory-sized batch of independent instances.
//!
//! Speedups are *per machine*: a single-core container runs everything at
//! ~1.0×, which is exactly what the table should say there — the
//! correctness assertions (bit-identity, phase equality) are the portable
//! part of this experiment, wall clock is not.
//!
//! Run: `cargo run -p mpss-bench --release --bin exp_par_scaling`
//! `--smoke` shrinks every size for CI and appends a snapshot (wall time +
//! key counters, stamped with the git revision) to the cumulative
//! `BENCH_TRAJECTORY.json` in the working directory — gate it with
//! `mpss-cli report-diff --bench`; a path argument writes the tables as an
//! experiment JSON document.

use mpss::batch::solve_many;
use mpss_bench::{record_bench_snapshot, timed, write_experiment_report, Table};
use mpss_obs::{Collector, RecordingCollector};
use mpss_offline::OfflineOptions;
use mpss_online::{avr_schedule, avr_schedule_parallel};
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
    let thread_counts = [1usize, 2, 4, 8];

    println!("(a) parallel AVR(m): per-interval work chunked over the pool\n");
    let avr_n = if smoke { 200 } else { 4000 };
    let instance = WorkloadSpec {
        family: Family::Uniform,
        n: avr_n,
        m: 8,
        horizon: 2 * avr_n as u64,
        seed: 11,
    }
    .generate();
    let (seq, seq_ms) = timed(|| avr_schedule(&instance));
    let mut t_avr = Table::new(&["threads", "ms", "speedup", "bit-identical"]);
    t_avr.row(vec![
        "seq".into(),
        format!("{seq_ms:.2}"),
        "1.00".into(),
        "—".into(),
    ]);
    for threads in thread_counts {
        let pool = ThreadPool::new(threads);
        let (par, ms) = timed(|| avr_schedule_parallel(&instance, &pool));
        assert_eq!(
            seq.segments, par.segments,
            "parallel AVR diverged at {threads} threads"
        );
        t_avr.row(vec![
            threads.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", seq_ms / ms.max(1e-9)),
            "✓".into(),
        ]);
    }
    t_avr.print();

    println!("\n(b) batched solves: independent instances sharded over the pool\n");
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
    for threads in thread_counts.iter().skip(1) {
        let (outputs, ms) = timed(|| solve_many(&batch, &opts, &ThreadPool::new(*threads)));
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
        "\nboth parallel paths reproduced their sequential oracles exactly;\n\
         speedups above are for this machine's {threads_available} hardware thread(s)."
    );

    if let Some(out) = out {
        write_experiment_report(
            Path::new(out),
            "par_scaling",
            &[("avr_parallel", &t_avr), ("batched_solves", &t_batch)],
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
