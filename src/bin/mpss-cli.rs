//! `mpss-cli` — command-line interface to the mpss library.
//!
//! ```text
//! mpss-cli generate --family uniform --n 20 --m 4 [--horizon 48] [--seed 1] -o trace.json
//! mpss-cli solve trace.json [--alpha 3] [--gantt] [--cold-flow] [--save-schedule out.json] [--report out.json]
//! mpss-cli solve-batch --dir traces/ [--alpha 3] [--threads N] [--report-dir reports/]
//! mpss-cli online trace.json --algo oa|avr|bkp [--alpha 3] [--report out.json]
//! mpss-cli bounds trace.json [--alpha 3]
//! mpss-cli check trace.json schedule.json
//! mpss-cli report-diff a.report.json b.report.json [--max-regress 5] [--only offline.] [--gate-wall]
//! mpss-cli report-diff --bench BENCH_TRAJECTORY.json [--name snapshot] [--max-regress 5]
//! mpss-cli trace-check run.trace.json
//! mpss-cli watch trace.json [--algo oa|avr] [--loops N] [--listen 127.0.0.1:9184] [--hold-ms MS]
//! mpss-cli serve [--listen 127.0.0.1:9200] [--metrics 127.0.0.1:9184] [--compact-window W] [--threads N]
//!                [--log-level info] [--flight-capacity N] [--postmortem-dir DIR] [--slow-replan-ms MS]
//! mpss-cli scrape 127.0.0.1:9184 [--out metrics.txt]
//! mpss-cli postmortem bundle-dir/ [--baseline metrics.prom]
//! ```
//!
//! An observed run records every span/instant/counter event once, into a
//! [`TraceCollector`], and writes what was asked for from that one trace:
//! `--report <path>` the JSON run report (per-phase spans, max-flow work
//! counters, latency histograms), which is the trace folded by
//! [`RecordingCollector::from_trace`]; `--trace <path>` the Chrome Trace
//! Event JSON — load it in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`; `--flame <path>` collapsed stacks
//! (`track;outer;inner weight_ns` lines) for flamegraph tooling. Without
//! any of them the solvers run with the no-op collector.
//! `--cold-flow` (`solve`, `solve-batch`) disables the
//! warm-start max-flow path, running every repair round from a freshly
//! built network — the differential oracle the warm path is validated
//! against. Each subcommand accepts only the options its usage line names:
//! an unknown `--option` is an error, never a silently swallowed value.
//!
//! `report-diff` compares two run reports counter by counter and exits
//! non-zero when any gated counter increased by more than `--max-regress`
//! percent — the CI drift gate; with `--bench` it instead reads a cumulative
//! `BENCH_TRAJECTORY.json` (written by the experiment binaries) and gates
//! each snapshot's newest entry against its predecessor. `trace-check`
//! validates a Chrome Trace Event file (well-nested spans and monotone
//! timestamps per track) and fails when the trace recorded any
//! `obs.span_mismatch` events.
//!
//! `watch` drives an online session ([`OaSession`] / [`AvrSession`]) over a
//! trace while publishing live labeled metrics to an in-process
//! [`MetricsHub`] — arrivals, replans, queued volume, per-processor speeds,
//! replan-latency quantiles. By default it prints a snapshot table; with
//! `--listen addr:port` it also serves Prometheus text exposition on
//! `GET /metrics` (hand-rolled, `std::net` only) so `curl` or `scrape` can
//! watch the run from outside. `scrape` fetches one exposition from such an
//! endpoint, validates it with the workspace parser, and checks every
//! `mpss_`-prefixed family against the `mpss_obs::names` manifest.
//!
//! `postmortem` opens a bundle directory written by the `serve` daemon's
//! black box (see [`mpss_serve::postmortem`]): it renders the incident
//! manifest and the tenant's flight-recorder timeline, optionally diffs the
//! bundled metrics snapshot against a `--baseline` exposition, and replays
//! the embedded checkpoint through a fresh session to prove the tenant's
//! plan is reproduced bit-identically.
//!
//! Parallelism: `--threads N` sizes the worker pool of `solve-batch` (one
//! instance per task) and `serve` (broadcast advances, one tenant per
//! task) explicitly; without it the `MPSS_THREADS` environment variable,
//! then the machine's available parallelism, decide. `solve` and `online`
//! run on one thread. `solve-batch` prints the pool's effective size. An
//! observed batch records each instance into its own trace: `--report-dir`
//! writes each one's fold, and `--trace`/`--flame` write them appended in
//! input order, one track per instance (`instance-0`, …), after a `main`
//! track carrying the `par.tasks` and `par.pool.threads` counters.

use mpss::prelude::*;
use mpss::sim::{fleet_stats, job_stats, render_gantt, render_svg, SvgOptions};
use mpss::workloads::instance_stats;
use mpss::workloads::{read_trace, write_trace};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("solve-batch") => cmd_solve_batch(&args[1..]),
        Some("online") => cmd_online(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("report-diff") => cmd_report_diff(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("scrape") => cmd_scrape(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "mpss-cli — multi-processor speed scaling with migration (SPAA 2011)\n\n\
         USAGE:\n\
         \u{20}  mpss-cli generate --family <name> --n <jobs> --m <procs> [--horizon H] [--seed S] -o <trace.json>\n\
         \u{20}  mpss-cli solve <trace.json> [--alpha A] [--gantt] [--cold-flow] [--save-schedule <out.json>] [--svg <out.svg>] [--report <out.json>] [--trace <out.trace.json>] [--flame <out.folded>]\n\
         \u{20}  mpss-cli solve-batch --dir <traces/> [--alpha A] [--threads N] [--cold-flow] [--report-dir <reports/>] [--trace <out.trace.json>] [--flame <out.folded>]\n\
         \u{20}  mpss-cli online <trace.json> --algo <oa|avr|bkp> [--alpha A] [--report <out.json>] [--trace <out.trace.json>] [--flame <out.folded>]\n\
         \u{20}  mpss-cli bounds <trace.json> [--alpha A]\n\
         \u{20}  mpss-cli stats <trace.json> [--alpha A]\n\
         \u{20}  mpss-cli check <trace.json> <schedule.json>\n\
         \u{20}  mpss-cli report-diff <a.report.json> <b.report.json> [--max-regress PCT] [--only PREFIX] [--gate-wall]\n\
         \u{20}  mpss-cli report-diff --bench <BENCH_TRAJECTORY.json> [--name SNAPSHOT] [--max-regress PCT] [--gate-wall]\n\
         \u{20}  mpss-cli trace-check <run.trace.json>\n\
         \u{20}  mpss-cli watch <trace.json> [--algo oa|avr] [--alpha A] [--loops N] [--pace-ms MS] [--interval-ms MS] [--listen HOST:PORT] [--hold-ms MS] [--metrics-out <file>]\n\
         \u{20}  mpss-cli serve [--listen HOST:PORT] [--metrics HOST:PORT] [--compact-window W] [--threads N] [--log-level L] [--flight-capacity N] [--postmortem-dir DIR] [--slow-replan-ms MS]\n\
         \u{20}  mpss-cli scrape <HOST:PORT> [--out <file>]\n\
         \u{20}  mpss-cli postmortem <bundle-dir> [--baseline <metrics.prom>]\n\n\
         families: uniform bursty laminar agreeable tight-load avr-adversarial poisson heavy-tail periodic"
    );
}

/// Tiny flag parser: `--key value` pairs, bare `--switch`es and positional
/// arguments.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

/// Parses a subcommand's arguments against the options it declares, as
/// space-separated names: `flag_names` take a value (`-o` is the `o`
/// flag), `switch_names` stand alone. Any other `--option`, or a flag with
/// no value, is an error.
fn parse<'a>(args: &'a [String], flag_names: &str, switch_names: &str) -> Result<Args<'a>, String> {
    let declared = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
    let mut out = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        switches: Vec::new(),
    };
    let mut rest = args.iter().map(String::as_str);
    while let Some(a) = rest.next() {
        let name = match a.strip_prefix("--") {
            Some(name) => name,
            None if a == "-o" && declared(flag_names, "o") => "o",
            None => {
                out.positional.push(a);
                continue;
            }
        };
        if declared(switch_names, name) {
            out.switches.push(name);
        } else if declared(flag_names, name) {
            let value = rest.next().ok_or_else(|| format!("`{a}` needs a value"))?;
            out.flags.push((name, value));
        } else {
            return Err(format!("unknown option `{a}` (try --help)"));
        }
    }
    Ok(out)
}

impl Args<'_> {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
    fn alpha(&self) -> Result<f64, String> {
        let a: f64 = self
            .flag("alpha")
            .unwrap_or("3")
            .parse()
            .map_err(|_| "alpha must be a number".to_string())?;
        if a <= 1.0 {
            return Err("alpha must be > 1".into());
        }
        Ok(a)
    }
    /// `--threads N` as an explicit pool-size override; `None` defers to the
    /// `MPSS_THREADS` environment variable / available parallelism.
    fn threads(&self) -> Result<Option<usize>, String> {
        self.flag("threads")
            .map(|v| v.parse().map_err(|_| "bad --threads".to_string()))
            .transpose()
    }
}

fn family_by_name(name: &str) -> Result<Family, String> {
    Family::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown family `{name}`"))
}

fn load(path: &str) -> Result<Instance<f64>, String> {
    read_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

/// `true` when the run must be recorded: a report, trace or flame output
/// was asked for.
fn observing(a: &Args<'_>) -> bool {
    ["report", "report-dir", "trace", "flame"]
        .iter()
        .any(|name| a.flag(name).is_some())
}

/// Writes the requested exports of an observed run's one trace: the
/// `--report` run report (the trace's fold), the `--trace` Chrome Trace
/// Event JSON and the `--flame` collapsed stacks.
fn write_observations(a: &Args<'_>, trace: &TraceCollector) -> Result<(), String> {
    if let Some(out) = a.flag("report") {
        write_report(trace, Path::new(out))?;
        println!("  run report saved to {out}");
    }
    if let Some(out) = a.flag("trace") {
        trace
            .write_chrome_trace(Path::new(out))
            .map_err(|e| e.to_string())?;
        println!("  trace saved to {out} (open in Perfetto / chrome://tracing)");
    }
    if let Some(out) = a.flag("flame") {
        std::fs::write(out, trace.collapsed_stacks()).map_err(|e| e.to_string())?;
        println!("  collapsed stacks saved to {out}");
    }
    Ok(())
}

/// Writes the run report of `trace`: its fold, with any span an error
/// return left open force-closed.
fn write_report(trace: &TraceCollector, path: &Path) -> Result<(), String> {
    let mut report = RecordingCollector::from_trace(trace);
    report.close_open_spans();
    report
        .write_json(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let a = parse(args, "family n m horizon seed o", "")?;
    let family = family_by_name(a.flag("family").ok_or("--family required")?)?;
    let n: usize = a
        .flag("n")
        .ok_or("--n required")?
        .parse()
        .map_err(|_| "bad --n")?;
    let m: usize = a
        .flag("m")
        .ok_or("--m required")?
        .parse()
        .map_err(|_| "bad --m")?;
    let horizon: u64 = a
        .flag("horizon")
        .unwrap_or("48")
        .parse()
        .map_err(|_| "bad --horizon")?;
    let seed: u64 = a
        .flag("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed")?;
    let out = a.flag("o").ok_or("-o <file> required")?;
    let instance = WorkloadSpec {
        family,
        n,
        m,
        horizon,
        seed,
    }
    .generate();
    write_trace(Path::new(out), &instance).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} jobs on {} processors, horizon {} ({})",
        instance.n(),
        instance.m,
        horizon,
        family.name()
    );
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let a = parse(
        args,
        "alpha save-schedule svg report trace flame",
        "gantt cold-flow",
    )?;
    let path = a.positional.first().ok_or("trace path required")?;
    let instance = load(path)?;
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    let opts = OfflineOptions {
        warm_start: !a.switches.contains(&"cold-flow"),
        ..Default::default()
    };
    let mut trace = TraceCollector::new("main");
    let res = if observing(&a) {
        optimal_schedule_observed(&instance, &opts, &mut trace)
    } else {
        mpss::offline::optimal_schedule_with(&instance, &opts)
    }
    .map_err(|e| e.to_string())?;
    validate_schedule(&instance, &res.schedule, 1e-9)
        .map_err(|v| format!("internal: infeasible optimum: {v:?}"))?;

    println!(
        "optimal schedule for {} jobs on {} processors",
        instance.n(),
        instance.m
    );
    println!("  speed levels ({} phases):", res.phases.len());
    for (i, phase) in res.phases.iter().enumerate() {
        println!(
            "    s_{} = {:.4}  ({} jobs)",
            i + 1,
            phase.speed,
            phase.jobs.len()
        );
    }
    println!(
        "  energy (P = s^{alpha}): {:.4}",
        schedule_energy(&res.schedule, &p)
    );
    println!(
        "  segments {}, migrations {}, preemptions {}, peak speed {:.4}",
        res.schedule.len(),
        res.schedule.migrations(),
        res.schedule.preemptions(),
        res.schedule.max_speed()
    );
    println!("  max-flow computations: {}", res.flow_computations);
    if a.switches.contains(&"gantt") {
        let t0 = instance.min_release().unwrap_or(0.0);
        let t1 = instance.max_deadline().unwrap_or(1.0);
        print!("{}", render_gantt(&res.schedule, t0, t1, 72));
    }
    if let Some(out) = a.flag("svg") {
        let t0 = instance.min_release().unwrap_or(0.0);
        let t1 = instance.max_deadline().unwrap_or(1.0);
        let svg = render_svg(&res.schedule, t0, t1, &SvgOptions::default());
        std::fs::write(out, svg).map_err(|e| e.to_string())?;
        println!("  SVG saved to {out}");
    }
    if let Some(out) = a.flag("save-schedule") {
        std::fs::write(out, res.schedule.to_json().render_pretty()).map_err(|e| e.to_string())?;
        println!("  schedule saved to {out}");
    }
    write_observations(&a, &trace)?;
    Ok(())
}

fn cmd_solve_batch(args: &[String]) -> Result<(), String> {
    let a = parse(
        args,
        "dir alpha threads report-dir trace flame",
        "cold-flow",
    )?;
    let dir = a
        .flag("dir")
        .or_else(|| a.positional.first().copied())
        .ok_or("--dir <traces/> required")?;
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .json traces in {dir}"));
    }
    let mut instances = Vec::with_capacity(paths.len());
    for path in &paths {
        instances.push(load(path.to_str().ok_or("non-UTF-8 trace path")?)?);
    }

    let opts = OfflineOptions {
        warm_start: !a.switches.contains(&"cold-flow"),
        ..Default::default()
    };
    let pool = ThreadPool::with_threads(a.threads()?);
    let mut trace = TraceCollector::new("main");
    let started = std::time::Instant::now();
    let outputs = if observing(&a) {
        solve_many_observed(&instances, &opts, &pool, &mut trace)
    } else {
        solve_many(&instances, &opts, &pool)
    };
    let elapsed = started.elapsed();

    println!(
        "solved {} instances on {} threads in {:.1} ms",
        outputs.len(),
        pool.threads(),
        elapsed.as_secs_f64() * 1e3
    );
    let report_dir = a.flag("report-dir");
    if let Some(rd) = report_dir {
        std::fs::create_dir_all(rd).map_err(|e| format!("creating {rd}: {e}"))?;
    }
    let mut failures = 0usize;
    for ((path, instance), out) in paths.iter().zip(&instances).zip(outputs) {
        let name = path
            .file_stem()
            .and_then(|stem| stem.to_str())
            .unwrap_or("<trace>");
        match &out.result {
            Ok(res) => {
                validate_schedule(instance, &res.schedule, 1e-9)
                    .map_err(|v| format!("{name}: infeasible optimum: {v:?}"))?;
                println!(
                    "  {name}: {} jobs / {} procs, {} phases, {} flows, energy {:.4}",
                    instance.n(),
                    instance.m,
                    res.phases.len(),
                    res.flow_computations,
                    schedule_energy(&res.schedule, &p)
                );
            }
            Err(e) => {
                failures += 1;
                println!("  {name}: FAILED ({e})");
            }
        }
        if let Some(instance_trace) = out.trace {
            if let Some(rd) = report_dir {
                write_report(
                    &instance_trace,
                    &Path::new(rd).join(format!("{name}.report.json")),
                )?;
            }
            trace.adopt(instance_trace);
        }
    }
    if let Some(rd) = report_dir {
        println!("  per-instance reports saved to {rd}/");
    }
    write_observations(&a, &trace)?;
    if failures > 0 {
        return Err(format!("{failures} instance(s) failed to solve"));
    }
    Ok(())
}

fn cmd_online(args: &[String]) -> Result<(), String> {
    let a = parse(args, "algo alpha report trace flame", "")?;
    let path = a.positional.first().ok_or("trace path required")?;
    let instance = load(path)?;
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    let algo = a.flag("algo").ok_or("--algo oa|avr|bkp required")?;
    let mut trace = TraceCollector::new("main");
    let observed = observing(&a);
    let (schedule, bound, name) = match algo {
        "oa" => {
            let oa = if observed {
                oa_schedule_observed(&instance, &mut trace)
            } else {
                oa_schedule(&instance)
            }
            .map_err(|e| e.to_string())?;
            (oa.schedule, p.oa_bound(), "OA(m)")
        }
        "avr" => {
            let avr = if observed {
                avr_schedule_observed(&instance, &mut trace)
            } else {
                avr_schedule(&instance)
            };
            (avr, p.avr_bound(), "AVR(m)")
        }
        "bkp" => {
            if instance.m != 1 {
                return Err("BKP is single-processor: regenerate the trace with --m 1".into());
            }
            let bound = 2.0 * (alpha / (alpha - 1.0)).powf(alpha) * std::f64::consts::E.powf(alpha);
            (bkp_schedule(&instance, 64).schedule, bound, "BKP")
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    validate_schedule(&instance, &schedule, 1e-6)
        .map_err(|v| format!("{name} produced an infeasible schedule: {v:?}"))?;
    let report = if observed {
        record_energy_trajectory(&schedule, &p, &mut trace);
        competitive_report_observed(&instance, &schedule, &p, bound, &mut trace)
    } else {
        competitive_report(&instance, &schedule, &p, bound)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "{name} on {} jobs / {} processors, α = {alpha}",
        instance.n(),
        instance.m
    );
    println!("  online energy : {:.4}", report.online_energy);
    println!("  OPT energy    : {:.4}", report.opt_energy);
    println!(
        "  ratio         : {:.4}  (bound {:.3})",
        report.ratio_or_inf(),
        report.bound
    );
    println!(
        "  within bound  : {}",
        if report.within_bound() { "yes" } else { "NO" }
    );
    write_observations(&a, &trace)?;
    Ok(())
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let a = parse(args, "alpha", "")?;
    let path = a.positional.first().ok_or("trace path required")?;
    let instance = load(path)?;
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    println!("instance bounds (α = {alpha}):");
    println!(
        "  per-job lower bound       : {:.4}",
        per_job_lower_bound(&instance, &p)
    );
    println!(
        "  best lower bound          : {:.4}",
        best_lower_bound(&instance, alpha)
    );
    println!(
        "  minimum feasible peak speed: {:.4}",
        mpss::offline::speed_bound::minimum_peak_speed(&instance)
    );
    let opt = schedule_energy(
        &optimal_schedule(&instance)
            .map_err(|e| e.to_string())?
            .schedule,
        &p,
    );
    println!("  OPT energy                : {opt:.4}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let a = parse(args, "alpha", "")?;
    let path = a.positional.first().ok_or("trace path required")?;
    let instance = load(path)?;
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    let st = instance_stats(&instance);
    println!("instance statistics:");
    println!(
        "  jobs {} on {} processors, horizon {:.2}",
        st.n, st.m, st.horizon
    );
    println!("  load factor          : {:.3}", st.load_factor);
    println!("  max job density      : {:.3}", st.max_density);
    println!("  peak total density Δ : {:.3}", st.peak_total_density);
    println!(
        "  mean/max active jobs : {:.1} / {}",
        st.mean_active, st.max_active
    );
    println!(
        "  crossing pairs       : {:.1}%",
        100.0 * st.crossing_fraction
    );
    let res = optimal_schedule(&instance).map_err(|e| e.to_string())?;
    let js = job_stats(&instance, &res.schedule, &p);
    let fleet = fleet_stats(&js);
    println!("under the optimal schedule (α = {alpha}):");
    println!("  total energy   : {:.4}", fleet.total_energy);
    println!("  mean flow time : {:.3}", fleet.mean_flow_time);
    println!("  max stretch    : {:.3}", fleet.max_stretch);
    println!("  migrating jobs : {}", fleet.migrating_jobs);
    Ok(())
}

fn cmd_report_diff(args: &[String]) -> Result<(), String> {
    let a = parse(args, "max-regress only name", "gate-wall bench")?;
    let opts = DiffOptions {
        max_regress_pct: a
            .flag("max-regress")
            .map(|v| v.parse().map_err(|_| "bad --max-regress".to_string()))
            .transpose()?,
        only_prefix: a.flag("only").map(str::to_string),
        gate_wall: a.switches.contains(&"gate-wall"),
    };
    let read = |path: &str| -> Result<mpss::obs::json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        mpss::obs::json::Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    if a.switches.contains(&"bench") {
        let path = a
            .positional
            .first()
            .ok_or("bench trajectory path required")?;
        let gate = diff_bench_trajectory(&read(path)?, a.flag("name"), &opts)?;
        print!("{}", gate.render_text());
        if gate.is_regression() {
            return Err("bench trajectory regression past the threshold".into());
        }
        return Ok(());
    }
    let path_a = a
        .positional
        .first()
        .ok_or("baseline report path required")?;
    let path_b = a
        .positional
        .get(1)
        .ok_or("candidate report path required")?;
    let diff = diff_reports(&read(path_a)?, &read(path_b)?, &opts);
    print!("{}", diff.render_text());
    if diff.is_regression() {
        return Err(format!(
            "{} regression(s) past the threshold",
            diff.regressions.len()
        ));
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let a = parse(args, "", "")?;
    let path = a.positional.first().ok_or("trace path required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let check = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid Chrome Trace Event JSON — {} events across {} tracks ({} instants, max span depth {})",
        check.events, check.tracks, check.instants, check.max_depth
    );
    println!("  tracks: {}", check.track_names.join(", "));
    if check.span_mismatches > 0 {
        return Err(format!(
            "{path}: trace records {} span mismatch(es) (obs.span_mismatch > 0) — \
             the run closed spans out of order",
            check.span_mismatches
        ));
    }
    Ok(())
}

/// Renders the hub's current snapshot as an aligned stdout table — the
/// no-network way to watch a run (the `--listen` endpoint serves the same
/// state as Prometheus text exposition).
fn print_metrics_table(hub: &mpss::obs::MetricsHub) {
    use mpss::obs::SnapshotValue;
    for row in hub.snapshot() {
        let labels = row
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let series = if labels.is_empty() {
            row.name.clone()
        } else {
            format!("{}{{{labels}}}", row.name)
        };
        match row.value {
            SnapshotValue::Counter(n) => println!("  {series:<52} {n}"),
            SnapshotValue::Gauge(v) => println!("  {series:<52} {v:.4}"),
            SnapshotValue::Histogram {
                count,
                sum,
                p50,
                p90,
                p99,
                window,
            } => println!(
                "  {series:<52} n={count} sum={sum:.6} p50={p50:.6} p90={p90:.6} p99={p99:.6} (window {window})"
            ),
        }
    }
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let a = parse(
        args,
        "algo alpha loops pace-ms interval-ms listen hold-ms metrics-out",
        "",
    )?;
    let path = a.positional.first().ok_or("trace path required")?;
    let instance = load(path)?;
    let algo = a.flag("algo").unwrap_or("oa");
    if algo != "oa" && algo != "avr" {
        return Err(format!(
            "unknown algorithm `{algo}` (watch supports oa|avr)"
        ));
    }
    let alpha = a.alpha()?;
    let p = Polynomial::new(alpha);
    let ms_flag = |name: &str, default: &str| -> Result<u64, String> {
        a.flag(name)
            .unwrap_or(default)
            .parse()
            .map_err(|_| format!("bad --{name}"))
    };
    let loops: usize = a
        .flag("loops")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --loops")?;
    let pace = ms_flag("pace-ms", "0")?;
    let interval = ms_flag("interval-ms", "1000")?;
    let hold = ms_flag("hold-ms", "0")?;

    let hub = MetricsHub::new();
    let _server = match a.flag("listen") {
        Some(addr) => {
            let server =
                MetricsServer::bind(addr, &hub).map_err(|e| format!("binding {addr}: {e}"))?;
            // Announce the endpoint immediately (and flushed) so wrapper
            // scripts polling stdout can start scraping before the run ends.
            println!("serving /metrics on http://{}/metrics", server.addr());
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            Some(server)
        }
        None => None,
    };

    let mut arrivals: Vec<Job<f64>> = instance.jobs.clone();
    arrivals.sort_by(|x, y| x.release.partial_cmp(&y.release).unwrap());
    let start = instance.min_release().unwrap_or(0.0);
    let horizon = instance.max_deadline().unwrap_or(start);
    let metrics = SessionMetrics::register(&hub, algo, instance.m);

    println!(
        "watching {algo} on {} jobs / {} processors ({loops} loop(s))",
        instance.n(),
        instance.m
    );
    let mut last_print = std::time::Instant::now();
    let mut pace_and_sample = |hub: &MetricsHub| {
        if pace > 0 {
            std::thread::sleep(std::time::Duration::from_millis(pace));
        }
        if interval > 0 && last_print.elapsed().as_millis() >= u128::from(interval) {
            print_metrics_table(hub);
            last_print = std::time::Instant::now();
        }
    };
    let mut total_energy = 0.0;
    for _ in 0..loops {
        let schedule = match algo {
            "oa" => {
                let mut session = OaSession::new(instance.m, start);
                session.attach_metrics(metrics.clone());
                for job in &arrivals {
                    session.advance_to(job.release).map_err(|e| e.to_string())?;
                    session
                        .arrive(job.deadline, job.volume)
                        .map_err(|e| e.to_string())?;
                    pace_and_sample(&hub);
                }
                session.advance_to(horizon).map_err(|e| e.to_string())?;
                session.finish().map_err(|e| e.to_string())?
            }
            _ => {
                let mut session = AvrSession::new(instance.m, start);
                session.attach_metrics(metrics.clone());
                for job in &arrivals {
                    session.advance_to(job.release).map_err(|e| e.to_string())?;
                    session
                        .arrive(job.deadline, job.volume)
                        .map_err(|e| e.to_string())?;
                    pace_and_sample(&hub);
                }
                session.advance_to(horizon).map_err(|e| e.to_string())?;
                session.finish().map_err(|e| e.to_string())?
            }
        };
        total_energy += schedule_energy(&schedule, &p);
    }
    println!("final metrics snapshot:");
    print_metrics_table(&hub);
    println!("  energy across {loops} loop(s) (P = s^{alpha}): {total_energy:.4}");
    if let Some(out) = a.flag("metrics-out") {
        std::fs::write(out, hub.render()).map_err(|e| e.to_string())?;
        println!("  exposition saved to {out}");
    }
    if hold > 0 {
        println!("holding the endpoint open for {hold} ms");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(hold));
    }
    Ok(())
}

/// `serve`: the multi-tenant scheduling daemon. Speaks the newline-delimited
/// JSON protocol of PROTOCOL.md on stdin/stdout by default, or on a TCP
/// socket with `--listen`; `--metrics` additionally exposes the shared hub
/// as Prometheus text exposition.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let a = parse(
        args,
        "listen metrics compact-window threads log-level flight-capacity postmortem-dir slow-replan-ms",
        "",
    )?;
    let compact_window = match a.flag("compact-window") {
        Some(w) => {
            let w: f64 = w.parse().map_err(|_| "bad --compact-window")?;
            if !(w.is_finite() && w >= 0.0) {
                return Err("--compact-window must be a finite non-negative number".into());
            }
            Some(w)
        }
        None => None,
    };
    let threads = match a.flag("threads") {
        Some(t) => Some(t.parse::<usize>().map_err(|_| "bad --threads")?),
        None => None,
    };
    let log_level = match a.flag("log-level") {
        Some(l) => mpss::obs::Level::parse(l)
            .ok_or_else(|| format!("bad --log-level `{l}` (trace|debug|info|warn|error)"))?,
        None => mpss::obs::Level::Info,
    };
    let flight_capacity = match a.flag("flight-capacity") {
        Some(n) => n.parse::<usize>().map_err(|_| "bad --flight-capacity")?,
        None => DaemonConfig::default().flight_capacity,
    };
    let slow_replan_ms = match a.flag("slow-replan-ms") {
        Some(ms) => {
            let ms: f64 = ms.parse().map_err(|_| "bad --slow-replan-ms")?;
            if !(ms.is_finite() && ms >= 0.0) {
                return Err("--slow-replan-ms must be a finite non-negative number".into());
            }
            Some(ms)
        }
        None => None,
    };
    let postmortem_dir = a.flag("postmortem-dir").map(std::path::PathBuf::from);
    if slow_replan_ms.is_some() && postmortem_dir.is_none() {
        return Err("--slow-replan-ms needs --postmortem-dir (nowhere to put the bundle)".into());
    }
    let mut daemon = Daemon::new(DaemonConfig {
        compact_window,
        threads,
        log_level,
        log_stderr: true,
        flight_capacity,
        postmortem_dir,
        slow_replan_ms,
        ..DaemonConfig::default()
    });
    let _metrics_server = match a.flag("metrics") {
        Some(addr) => {
            let server = MetricsServer::bind(addr, daemon.hub())
                .map_err(|e| format!("binding metrics on {addr}: {e}"))?;
            eprintln!("serving /metrics on http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };
    match a.flag("listen") {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("serving mpss protocol on {local} (newline-delimited JSON; see PROTOCOL.md)");
            serve_tcp(&listener, &mut daemon).map_err(|e| format!("serving: {e}"))?;
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            daemon
                .serve_io(stdin.lock(), stdout.lock())
                .map_err(|e| format!("serving stdio: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_scrape(args: &[String]) -> Result<(), String> {
    let a = parse(args, "out", "")?;
    let addr = a.positional.first().ok_or("endpoint HOST:PORT required")?;
    let text = http_get(addr, "/metrics")?;
    let expo =
        parse_exposition(&text).map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
    let samples: usize = expo.families.iter().map(|f| f.samples.len()).sum();
    let unknown: Vec<&str> = expo
        .families
        .iter()
        .filter(|f| f.name.starts_with("mpss_") && !mpss::obs::names::known_metric(&f.name))
        .map(|f| f.name.as_str())
        .collect();
    println!(
        "{addr}: exposition parses cleanly — {} families, {samples} samples",
        expo.families.len()
    );
    if let Some(out) = a.flag("out") {
        std::fs::write(out, &text).map_err(|e| e.to_string())?;
        println!("  exposition saved to {out}");
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown mpss_ metric families (not in the mpss_obs::names manifest): {}",
            unknown.join(", ")
        ));
    }
    Ok(())
}

/// Opens a postmortem bundle: incident summary, flight timeline, optional
/// counter diff against a baseline exposition, and a bit-identical replay
/// of the embedded checkpoint.
fn cmd_postmortem(args: &[String]) -> Result<(), String> {
    use mpss::obs::json::Json;
    use mpss::serve::protocol::Request;

    let a = parse(args, "baseline", "")?;
    let bundle = Path::new(a.positional.first().ok_or("bundle directory required")?);
    let manifest = mpss::serve::postmortem::read_manifest(bundle)?;
    let text = |key: &str| -> String {
        match manifest.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.render(),
            None => "-".into(),
        }
    };
    let tenant = match manifest.get("tenant") {
        Some(Json::Str(t)) => t.clone(),
        _ => unreachable!("read_manifest validated `tenant`"),
    };
    println!("postmortem bundle {}", bundle.display());
    println!("  tenant: {tenant}");
    println!("  reason: {}  (op: {})", text("reason"), text("op"));
    if let Some(Json::Obj(_)) = manifest.get("error") {
        let error = manifest.get("error").unwrap();
        let field = |k: &str| match error.get(k) {
            Some(Json::Str(s)) => s.clone(),
            _ => "-".into(),
        };
        println!("  error:  [{}] {}", field("kind"), field("message"));
    }
    if let Some(replan @ Json::Obj(_)) = manifest.get("replan") {
        println!("  replan: {}", replan.render());
    }

    // Flight-recorder timeline: the tenant's ring, then the daemon's.
    let flight_text = std::fs::read_to_string(bundle.join("flight.json"))
        .map_err(|e| format!("reading flight.json: {e}"))?;
    let flight = Json::parse(&flight_text).map_err(|e| format!("parsing flight.json: {e}"))?;
    for scope in ["tenant", "daemon"] {
        let Some(ring @ Json::Obj(_)) = flight.get(scope) else {
            continue;
        };
        let (dropped, recorded) = (
            ring.get("dropped_total").map_or("?".into(), Json::render),
            ring.get("recorded_total").map_or("?".into(), Json::render),
        );
        println!(
            "\n{scope} flight recorder ({recorded} recorded, {dropped} dropped before the window):"
        );
        let Some(Json::Arr(events)) = ring.get("events") else {
            continue;
        };
        for event in events {
            let seq = event.get("seq").map_or("?".into(), Json::render);
            let ms = match event.get("ts_ns") {
                Some(Json::UInt(ns)) => format!("{:10.3}ms", *ns as f64 / 1e6),
                _ => "         ?".into(),
            };
            let class = match event.get("kind") {
                Some(Json::Str(c)) => c.clone(),
                _ => "?".into(),
            };
            let detail = match class.as_str() {
                "request" => format!(
                    "op={} ok={}{}",
                    event.get("op").map_or("?".into(), Json::render),
                    event.get("ok").map_or("?".into(), Json::render),
                    match event.get("error_kind") {
                        Some(Json::Str(kind)) => format!(" error={kind}"),
                        _ => String::new(),
                    }
                ),
                "replan" => format!(
                    "latency_ms={} work_ops={} patched_arcs={} engine={}",
                    event.get("latency_ms").map_or("?".into(), Json::render),
                    event.get("work_ops").map_or("?".into(), Json::render),
                    event.get("patched_arcs").map_or("?".into(), Json::render),
                    event.get("engine").map_or("?".into(), Json::render),
                ),
                "error" => format!(
                    "kind={} message={}",
                    event.get("error_kind").map_or("?".into(), Json::render),
                    event.get("message").map_or("?".into(), Json::render),
                ),
                _ => event.render(),
            };
            println!("  #{seq:<5} {ms}  {class:<7} {detail}");
        }
    }

    // Counter diff against a baseline exposition, when given.
    if let Some(baseline_path) = a.flag("baseline") {
        let read_counters = |path: &Path| -> Result<Vec<(String, f64)>, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let expo = parse_exposition(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut totals: Vec<(String, f64)> = Vec::new();
            for family in &expo.families {
                if family.kind != "counter" {
                    continue;
                }
                for sample in &family.samples {
                    let labels = sample
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    let series = if labels.is_empty() {
                        family.name.clone()
                    } else {
                        format!("{}{{{labels}}}", family.name)
                    };
                    totals.push((series, sample.value));
                }
            }
            totals.sort_by(|x, y| x.0.cmp(&y.0));
            Ok(totals)
        };
        let bundled = read_counters(&bundle.join("metrics.prom"))?;
        let base = read_counters(Path::new(baseline_path))?;
        println!("\ncounter diff vs {baseline_path} (bundle - baseline):");
        let mut moved = 0;
        for (series, value) in &bundled {
            let before = base
                .iter()
                .find(|(name, _)| name == series)
                .map_or(0.0, |(_, v)| *v);
            if (value - before).abs() > 0.0 {
                println!("  {series:<56} {before:>12} -> {value}");
                moved += 1;
            }
        }
        if moved == 0 {
            println!("  (no counter moved)");
        }
    }

    // Replay: restore the bundled checkpoint through a fresh session and
    // reproduce the tenant's plan bit-identically.
    let expected = manifest
        .get("plan")
        .ok_or("manifest has no `plan` to replay against")?
        .render();
    let mut daemon = Daemon::new(DaemonConfig::default());
    let restore = daemon.handle(&Request::Restore {
        tenant: Some(tenant.clone()),
        dir: bundle.display().to_string(),
    });
    if !restore.is_ok() {
        return Err(format!(
            "replaying the bundled checkpoint failed: {}",
            restore.render_line()
        ));
    }
    let replayed = daemon.handle(&Request::QueryPlan {
        tenant: tenant.clone(),
    });
    let Json::Obj(pairs) = replayed.to_json().clone() else {
        return Err("query-plan reply was not an object".into());
    };
    let got = Json::Obj(pairs.into_iter().filter(|(k, _)| k != "ok").collect()).render();
    if got == expected {
        println!("\nreplay: restored `{tenant}` from the bundle — plan reproduced bit-identically");
        Ok(())
    } else {
        Err(format!(
            "replay mismatch for `{tenant}`:\n  expected {expected}\n  got      {got}"
        ))
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let a = parse(args, "", "")?;
    let trace = a.positional.first().ok_or("trace path required")?;
    let sched_path = a.positional.get(1).ok_or("schedule path required")?;
    let instance = load(trace)?;
    let text = std::fs::read_to_string(sched_path).map_err(|e| e.to_string())?;
    let doc = mpss::obs::json::Json::parse(&text).map_err(|e| e.to_string())?;
    let schedule = Schedule::from_json(&doc).map_err(|e| e.to_string())?;
    match validate_schedule(&instance, &schedule, 1e-9) {
        Ok(()) => {
            println!("schedule is FEASIBLE for {trace}");
            println!(
                "  energy (s³): {:.4}",
                schedule_energy(&schedule, &Polynomial::cube())
            );
            Ok(())
        }
        Err(violations) => {
            println!("schedule is INFEASIBLE ({} violations):", violations.len());
            for v in violations.iter().take(10) {
                println!("  - {v}");
            }
            Err("validation failed".into())
        }
    }
}
