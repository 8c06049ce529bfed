//! Fuzz-style property tests of the whole offline stack on *fractional*
//! (non-integer) random instances — the regime where float tolerance
//! actually gets exercised — plus validator failure-injection: random
//! corruptions of correct schedules must be caught.
//!
//! Failing instances are persisted as JSON fixtures under `tests/fixtures/`
//! (the workload-trace format of `mpss_workloads::trace`) and replayed by
//! [`replay_persisted_fixtures`]; interesting historical failures get
//! promoted to named `fixture_*` regression tests.

use mpss::model::validate::ScheduleViolation;
use mpss::numeric::rng::{check, Rng};
use mpss::offline::optimal::OptimalResult;
use mpss::prelude::*;
use mpss::workloads::{read_trace, write_trace};
use std::path::{Path, PathBuf};

/// The regression corpus: instance files in the trace format.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> Instance<f64> {
    read_trace(&fixture_dir().join(name)).expect("fixture is a valid instance")
}

/// The invariant bundle every fixture (and every fuzz case) must satisfy:
/// every engine × warmth configuration passes the optimality certificate
/// and agrees bit-for-bit with cold Dinic on the phase structure and the
/// repair trace, and the energy is sandwiched between the per-job lower
/// bound and the non-migratory upper bound.
fn check_offline_properties(ins: &Instance<f64>) {
    let runs: Vec<_> = [FlowEngine::Dinic, FlowEngine::PushRelabel]
        .into_iter()
        .flat_map(|engine| [false, true].map(|warm_start| (engine, warm_start)))
        .map(|(engine, warm_start)| {
            let opts = OfflineOptions {
                record_trace: true,
                warm_start,
                engine,
            };
            let res = mpss::offline::optimal_schedule_with(ins, &opts).unwrap();
            if let Err(e) = verify_certificate(ins, &res, 1e-9) {
                panic!("{engine:?} warm={warm_start}: {e}");
            }
            res
        })
        .collect();
    let cold = &runs[0];
    let trace = |r: &OptimalResult<f64>| -> Vec<_> {
        r.trace
            .iter()
            .map(|r| (r.phase, r.candidate_size, r.removed))
            .collect()
    };
    for run in &runs[1..] {
        assert_eq!(run.phases.len(), cold.phases.len(), "phase count");
        for (pa, pb) in run.phases.iter().zip(&cold.phases) {
            assert_eq!(pa.speed.to_bits(), pb.speed.to_bits(), "phase speed");
            assert_eq!(pa.jobs, pb.jobs, "phase jobs");
            assert_eq!(pa.procs, pb.procs, "phase reservations");
            assert_eq!(pa.rounds, pb.rounds, "phase rounds");
        }
        assert_eq!(trace(run), trace(cold), "repair traces");
    }
    let p = Polynomial::new(2.0);
    let opt = schedule_energy(&cold.schedule, &p);
    let lb = per_job_lower_bound(ins, &p);
    assert!(lb <= opt * (1.0 + 1e-6) + 1e-9, "LB {lb} > OPT {opt}");
    let nm = non_migratory_schedule(ins, 2.0, AssignPolicy::LeastLoaded);
    let ub = schedule_energy(&nm.schedule, &p);
    assert!(opt <= ub * (1.0 + 1e-6) + 1e-9, "OPT {opt} > UB {ub}");
}

/// Runs the invariant bundle; on failure persists the instance as a JSON
/// fixture (so the exact case replays forever via
/// [`replay_persisted_fixtures`]) before re-raising the panic.
fn check_with_persistence(tag: &str, ins: &Instance<f64>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_offline_properties(ins)
    }));
    if let Err(panic) = outcome {
        let path = fixture_dir().join(format!("{tag}.json"));
        write_trace(&path, ins).expect("write fixture");
        eprintln!(
            "fuzz case failed — instance persisted to {} (replayed by replay_persisted_fixtures)",
            path.display()
        );
        std::panic::resume_unwind(panic);
    }
}

/// Replays every fixture under `tests/fixtures/` — the committed regression
/// corpus plus anything a failing fuzz run persisted locally.
#[test]
fn replay_persisted_fixtures() {
    let mut names: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("tests/fixtures exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(
        !names.is_empty(),
        "the committed fixture corpus must not be empty"
    );
    for path in names {
        // A failing test shows its captured output: the last line names the
        // fixture that failed.
        eprintln!("replaying {}", path.display());
        check_offline_properties(&read_trace(&path).expect("fixture is a valid instance"));
    }
}

/// Historical repair-cascade shape: nested windows force phase 1 through
/// multiple Lemma 4 removals, exercising the warm drain/retarget path.
#[test]
fn fixture_repair_cascade() {
    let ins = read_fixture("repair_cascade.json");
    check_offline_properties(&ins);
    // The shape exists to drive repeated removals: the two dense jobs pin a
    // fast first phase and the wide jobs must be relaxed out one by one.
    let opts = OfflineOptions {
        record_trace: true,
        ..Default::default()
    };
    let res = mpss::offline::optimal_schedule_with(&ins, &opts).unwrap();
    let removals = res.trace.iter().filter(|r| r.removed.is_some()).count();
    assert!(removals >= 2, "expected a removal cascade, saw {removals}");
}

/// Fractional capacities with a tight window pair — the shape that first
/// exposed conservation dust in the warm cancellation walks.
#[test]
fn fixture_fractional_tight_pair() {
    let ins = read_fixture("fractional_tight_pair.json");
    check_offline_properties(&ins);
}

/// Solves `ins` with the push-relabel engine and returns the heuristic
/// counters `(global_relabels, current_arc_resets, gap_events)`.
fn pr_heuristic_counters(ins: &Instance<f64>) -> (u64, u64, u64) {
    let opts = OfflineOptions {
        engine: FlowEngine::PushRelabel,
        warm_start: false,
        ..Default::default()
    };
    let mut obs = mpss::obs::RecordingCollector::default();
    mpss::offline::optimal_schedule_observed(ins, &opts, &mut obs).unwrap();
    (
        obs.counter("maxflow.pr.global_relabels"),
        obs.counter("maxflow.pr.current_arc_resets"),
        obs.counter("maxflow.pr.gap_events"),
    )
}

/// 20 tightly overlapping fractional jobs on 2 processors: push-relabel's
/// current-arc pointers sweep each node's CSR slice to exhaustion thousands
/// of times, so every relabel-driven reset re-walks a wrapped pointer back
/// to `first_arc[u]`. Guards the pointer-reset bookkeeping (a stale pointer
/// after relabel is the classic current-arc soundness bug).
#[test]
fn fixture_csr_current_arc_wraparound() {
    let ins = read_fixture("csr_current_arc_wraparound.json");
    check_offline_properties(&ins);
    let (globals, resets, _) = pr_heuristic_counters(&ins);
    assert!(
        globals >= 10,
        "expected periodic global relabels, saw {globals}"
    );
    assert!(
        resets >= 500,
        "expected heavy current-arc resets, saw {resets}"
    );
}

/// Companion shape where the gap heuristic keeps firing *after* periodic
/// global relabels have rebuilt exact distance labels — the interleaving
/// that once risked lifting a node below its BFS height. Guards the
/// `max(old, bfs)` lift rule and the gap/global ordering.
#[test]
fn fixture_csr_gap_after_global_relabel() {
    let ins = read_fixture("csr_gap_after_global_relabel.json");
    check_offline_properties(&ins);
    let (globals, _, gaps) = pr_heuristic_counters(&ins);
    assert!(
        globals >= 10,
        "expected periodic global relabels, saw {globals}"
    );
    assert!(gaps >= 50, "expected gap-heuristic events, saw {gaps}");
}

/// Random instance with fractional coordinates (not exactly representable
/// on any grid).
fn fractional_instance(n: usize, m: usize, rng: &mut Rng) -> Instance<f64> {
    let jobs = (0..n)
        .map(|_| {
            let r: f64 = rng.gen_range(0.0..10.0);
            let span: f64 = rng.gen_range(0.3..7.0);
            let w: f64 = rng.gen_range(0.2..9.0);
            job(r, r + span, w)
        })
        .collect();
    Instance::new(m, jobs).unwrap()
}

/// The optimal schedule stays feasible and sandwiched on fractional
/// instances, with warm ≡ cold bit-identity. Failing cases are
/// persisted as JSON fixtures under `tests/fixtures/` and replayed
/// forever by `replay_persisted_fixtures`.
#[test]
fn fractional_instances_stay_feasible_and_sandwiched() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..100_000);
        let (n, m) = (rng.gen_range(2..10), rng.gen_range(1..4));
        let ins = fractional_instance(n, m, &mut Rng::seed_from_u64(seed));
        check_with_persistence(&format!("fuzz_sandwich_s{seed}_n{n}_m{m}"), &ins);
    });
}

/// Scaling all volumes by c scales optimal energy by c^α
/// (homogeneity of P(s) = s^α — a strong functional invariant).
#[test]
fn energy_is_alpha_homogeneous_in_volume() {
    check(48, |rng| {
        let (n, scale) = (rng.gen_range(2..7), rng.gen_range(1.5..4.0));
        let ins = fractional_instance(n, 2, rng);
        let mut scaled = ins.clone();
        for j in &mut scaled.jobs {
            j.volume *= scale;
        }
        let p = Polynomial::new(2.0);
        let e1 = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        let e2 = schedule_energy(&optimal_schedule(&scaled).unwrap().schedule, &p);
        assert!(
            (e2 - scale.powi(2) * e1).abs() <= 1e-6 * e2.max(1.0),
            "homogeneity broken: {e2} vs {}",
            scale.powi(2) * e1
        );
    });
}

/// Dilating time by c scales optimal energy by c^{1−α}.
#[test]
fn energy_scales_correctly_under_time_dilation() {
    check(48, |rng| {
        let (n, c) = (rng.gen_range(2..7), rng.gen_range(1.5..3.0));
        let ins = fractional_instance(n, 2, rng);
        let mut dilated = ins.clone();
        for j in &mut dilated.jobs {
            j.release *= c;
            j.deadline *= c;
        }
        let p = Polynomial::new(3.0);
        let e1 = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        let e2 = schedule_energy(&optimal_schedule(&dilated).unwrap().schedule, &p);
        assert!(
            (e2 - c.powi(-2) * e1).abs() <= 1e-6 * e1.max(1.0),
            "dilation scaling broken: {e2} vs {}",
            c.powi(-2) * e1
        );
    });
}

/// Failure injection: corrupting a correct schedule (drop / stretch /
/// de-speed / double-book a segment) must be caught by the validator.
#[test]
fn validator_catches_random_corruption() {
    check(48, |rng| {
        let (n, kind) = (rng.gen_range(3..8), rng.gen_range(0..4));
        let ins = fractional_instance(n, 2, rng);
        // At least three jobs of positive volume: never an empty schedule.
        let mut sched = optimal_schedule(&ins).unwrap().schedule;
        let idx = rng.gen_range(0..sched.segments.len());
        match kind {
            0 => {
                // Drop a segment: some job loses work.
                sched.segments.remove(idx);
            }
            1 => {
                // Halve a segment's speed: work goes missing.
                sched.segments[idx].speed *= 0.5;
            }
            2 => {
                // Shift a segment before every release.
                let dur = sched.segments[idx].duration();
                sched.segments[idx].start = -5.0;
                sched.segments[idx].end = -5.0 + dur;
            }
            _ => {
                // Duplicate a segment onto the same processor/time: overlap
                // AND over-completion.
                let dup = sched.segments[idx];
                sched.segments.push(dup);
            }
        }
        assert!(
            validate_schedule(&ins, &sched, 1e-7).is_err(),
            "corruption kind {kind} slipped through"
        );
    });
}

#[test]
fn validator_reports_specific_violation_kinds() {
    let ins = Instance::new(1, vec![job(0.0, 2.0, 2.0)]).unwrap();
    let mut sched = optimal_schedule(&ins).unwrap().schedule;
    sched.segments[0].speed *= 0.5;
    let errs = validate_schedule(&ins, &sched, 1e-9).unwrap_err();
    assert!(errs
        .iter()
        .any(|v| matches!(v, ScheduleViolation::WrongVolume { job: 0, .. })));
}

#[test]
fn degenerate_shapes_are_handled() {
    // One very long job among many short ones; equal jobs; micro-windows.
    let cases = vec![
        vec![
            job(0.0, 100.0, 1.0),
            job(49.9, 50.1, 5.0),
            job(50.0, 50.2, 5.0),
        ],
        vec![job(0.0, 1.0, 1.0); 12],
        vec![job(0.0, 1e-3, 1e-3), job(0.0, 1e3, 1e3)],
    ];
    for jobs in cases {
        for m in [1usize, 3] {
            let ins = Instance::new(m, jobs.clone()).unwrap();
            let res = optimal_schedule(&ins).unwrap();
            assert!(validate_schedule(&ins, &res.schedule, 1e-6).is_ok());
        }
    }
}

mod monotonicity {
    use super::*;
    use mpss::workloads::{scale_slack, split_jobs};

    /// Extending any single deadline never raises the optimum.
    #[test]
    fn deadline_extension_is_monotone() {
        check(32, |rng| {
            let (n, extra) = (rng.gen_range(2..7), rng.gen_range(0.5..5.0));
            let ins = fractional_instance(n, 2, rng);
            let p = Polynomial::new(2.0);
            let e0 = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            for k in 0..ins.n() {
                let mut relaxed = ins.clone();
                relaxed.jobs[k].deadline += extra;
                let e = schedule_energy(&optimal_schedule(&relaxed).unwrap().schedule, &p);
                assert!(
                    e <= e0 * (1.0 + 1e-6) + 1e-9,
                    "extending job {k}'s deadline raised OPT {e0} -> {e}"
                );
            }
        });
    }

    /// Shrinking any volume never raises the optimum.
    #[test]
    fn volume_reduction_is_monotone() {
        check(32, |rng| {
            let n = rng.gen_range(2..7);
            let ins = fractional_instance(n, 2, rng);
            let p = Polynomial::new(2.5);
            let e0 = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            let mut lighter = ins.clone();
            for j in &mut lighter.jobs {
                j.volume *= 0.7;
            }
            let e = schedule_energy(&optimal_schedule(&lighter).unwrap().schedule, &p);
            assert!(
                e <= e0 * (1.0 + 1e-6),
                "lighter load raised OPT {e0} -> {e}"
            );
        });
    }

    /// Splitting jobs and relaxing slack never raise the optimum
    /// (perturbation utilities agree with theory).
    #[test]
    fn perturbations_respect_monotonicity() {
        check(32, |rng| {
            let n = rng.gen_range(2..6);
            let ins = fractional_instance(n, 2, rng);
            let p = Polynomial::new(2.0);
            let e0 = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            let e_split = schedule_energy(
                &optimal_schedule(&split_jobs(&ins, 2)).unwrap().schedule,
                &p,
            );
            assert!(e_split <= e0 * (1.0 + 1e-6));
            let e_relax = schedule_energy(
                &optimal_schedule(&scale_slack(&ins, 1.25)).unwrap().schedule,
                &p,
            );
            assert!(e_relax <= e0 * (1.0 + 1e-6));
        });
    }
}
