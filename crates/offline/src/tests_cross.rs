//! Cross-validation of the offline stack: the flow algorithm against YDS,
//! exact arithmetic against floats, the LP baseline, the lower bounds, and
//! the structural lemmas of the paper.

use crate::lower_bounds::{best_lower_bound, per_job_lower_bound};
use crate::lp_baseline::lp_baseline;
use crate::non_migratory::{non_migratory_schedule, AssignPolicy};
use crate::optimal::optimal_schedule;
use crate::yds::yds_schedule;
use mpss_core::energy::{schedule_energy, schedule_energy_exact, schedule_energy_poly};
use mpss_core::job::job;
use mpss_core::power::Polynomial;
use mpss_core::validate::assert_feasible;
use mpss_core::{Instance, Intervals, PowerFunction};
use mpss_numeric::rng::{check, Rng};

/// Random integer-coordinate instance (exactly representable in both
/// numeric modes).
fn random_instance(n: usize, m: usize, horizon: u32, seed: u64) -> Instance<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let jobs = (0..n)
        .map(|_| {
            let r = rng.gen_range(0..horizon.saturating_sub(1)) as f64;
            let span = rng.gen_range(1..=horizon.saturating_sub(r as u32).max(1)) as f64;
            let w = rng.gen_range(1..=8) as f64;
            job(r, r + span, w)
        })
        .collect();
    Instance::new(m, jobs).expect("valid random instance")
}

#[test]
fn optimal_is_always_feasible_on_random_instances() {
    for seed in 0..40u64 {
        let n = 2 + (seed as usize % 10);
        let m = 1 + (seed as usize % 4);
        let ins = random_instance(n, m, 12, seed);
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
    }
}

#[test]
fn flow_algorithm_at_m1_matches_yds() {
    for seed in 100..130u64 {
        let n = 2 + (seed as usize % 8);
        let ins = random_instance(n, 1, 10, seed);
        let flow = optimal_schedule(&ins).unwrap();
        let yds = yds_schedule(&ins);
        assert_feasible(&ins, &flow.schedule, 1e-9);
        assert_feasible(&ins, &yds.schedule, 1e-9);
        for alpha in [2.0, 3.0] {
            let p = Polynomial::new(alpha);
            let ef = schedule_energy(&flow.schedule, &p);
            let ey = schedule_energy(&yds.schedule, &p);
            assert!(
                (ef - ey).abs() <= 1e-6 * ef.max(1.0),
                "seed {seed} α {alpha}: flow {ef} vs yds {ey}"
            );
        }
    }
}

#[test]
fn exact_and_float_pipelines_agree() {
    for seed in 200..220u64 {
        let n = 2 + (seed as usize % 6);
        let m = 1 + (seed as usize % 3);
        let ins = random_instance(n, m, 10, seed);
        let float_res = optimal_schedule(&ins).unwrap();
        let exact_res = optimal_schedule(&ins.to_rational()).unwrap();
        assert_feasible(&ins.to_rational(), &exact_res.schedule, 0.0);
        let ef = schedule_energy_poly(&float_res.schedule, 2);
        let er = schedule_energy_exact(&exact_res.schedule, 2).to_f64();
        assert!(
            (ef - er).abs() <= 1e-6 * ef.max(1.0),
            "seed {seed}: float {ef} vs exact {er}"
        );
        // Phase structure must match exactly (same speed ladder).
        assert_eq!(
            float_res.phases.len(),
            exact_res.phases.len(),
            "seed {seed}"
        );
        for (pf, pr) in float_res.phases.iter().zip(&exact_res.phases) {
            assert!(
                (pf.speed - pr.speed.to_f64()).abs() <= 1e-9 * pf.speed.max(1.0),
                "seed {seed}: phase speeds {} vs {:?}",
                pf.speed,
                pr.speed
            );
            assert_eq!(pf.jobs, pr.jobs, "seed {seed}");
        }
    }
}

#[test]
fn lp_baseline_upper_bounds_opt_and_converges() {
    for seed in 300..310u64 {
        let n = 2 + (seed as usize % 4);
        let m = 1 + (seed as usize % 2);
        let ins = random_instance(n, m, 8, seed);
        let p = Polynomial::new(2.0);
        let opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        let lp_fine = lp_baseline(&ins, &p, 24).unwrap().energy;
        assert!(
            lp_fine >= opt - 1e-6 * opt.max(1.0),
            "seed {seed}: LP {lp_fine} below OPT {opt}"
        );
        assert!(
            lp_fine <= opt * 1.05 + 1e-9,
            "seed {seed}: LP {lp_fine} too far above OPT {opt}"
        );
    }
}

#[test]
fn lower_bounds_never_exceed_opt() {
    for seed in 400..440u64 {
        let n = 2 + (seed as usize % 8);
        let m = 1 + (seed as usize % 4);
        let ins = random_instance(n, m, 12, seed);
        for alpha in [1.5, 2.0, 3.0] {
            let p = Polynomial::new(alpha);
            let opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            let lb = best_lower_bound(&ins, alpha);
            assert!(
                lb <= opt + 1e-6 * opt.max(1.0),
                "seed {seed} α {alpha}: LB {lb} > OPT {opt}"
            );
        }
    }
}

#[test]
fn non_migratory_never_beats_opt() {
    for seed in 500..520u64 {
        let n = 3 + (seed as usize % 6);
        let m = 2 + (seed as usize % 3);
        let ins = random_instance(n, m, 10, seed);
        let p = Polynomial::new(3.0);
        let opt = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
        for policy in [
            AssignPolicy::GreedyEnergy,
            AssignPolicy::LeastLoaded,
            AssignPolicy::RoundRobin,
        ] {
            let nm = non_migratory_schedule(&ins, 3.0, policy);
            assert_feasible(&ins, &nm.schedule, 1e-9);
            let e = schedule_energy(&nm.schedule, &p);
            assert!(
                e >= opt - 1e-6 * opt.max(1.0),
                "seed {seed} {policy:?}: non-migratory {e} < OPT {opt}"
            );
        }
    }
}

#[test]
fn adding_processors_never_increases_energy() {
    // OPT(m+1) ≤ OPT(m): more processors only help.
    for seed in 600..620u64 {
        let ins1 = random_instance(6, 1, 10, seed);
        let p = Polynomial::new(2.5);
        let mut prev = f64::INFINITY;
        for m in 1..=4usize {
            let ins = Instance::new(m, ins1.jobs.clone()).unwrap();
            let e = schedule_energy(&optimal_schedule(&ins).unwrap().schedule, &p);
            assert!(
                e <= prev + 1e-6 * prev.clamp(1.0, 1e12),
                "seed {seed}: OPT({m}) = {e} > OPT({}) = {prev}",
                m - 1
            );
            prev = e;
        }
    }
}

/// Lemma 6 structural property: when **all jobs share one release time**
/// (the OA replanning situation for which the paper states the lemma — with
/// distinct releases the property provably fails, e.g. a job released late
/// at a high speed level forces a processor's speed up mid-schedule), the
/// per-processor speed profile of an optimal schedule is non-increasing
/// over time. Our phase-stacked construction realizes this normal form by
/// construction.
#[test]
fn per_processor_speed_profiles_are_non_increasing() {
    for seed in 700..730u64 {
        let n = 3 + (seed as usize % 7);
        let m = 1 + (seed as usize % 4);
        let mut ins = random_instance(n, m, 10, seed);
        for j in &mut ins.jobs {
            j.release = 0.0; // Lemma 6 hypothesis: common availability time
        }
        let res = optimal_schedule(&ins).unwrap();
        let iv = Intervals::from_instance(&ins);
        for proc in 0..m {
            let mut prev = f64::INFINITY;
            for j in 0..iv.len() {
                let (s, e) = iv.bounds(j);
                let mid = 0.5 * (s + e);
                let speed = res.schedule.speed_at(proc, mid);
                assert!(
                    speed <= prev + 1e-9 * prev.clamp(1.0, 1e12),
                    "seed {seed} proc {proc}: speed increased {prev} -> {speed} at interval {j}"
                );
                prev = speed;
            }
        }
    }
}

/// Universal optimality: the schedule does not depend on P, so its energy
/// must beat the LP baseline under *different* convex power functions too.
#[test]
fn universally_optimal_across_power_functions() {
    let ins = random_instance(5, 2, 8, 4242);
    let res = optimal_schedule(&ins).unwrap();
    let powers: Vec<Box<dyn PowerFunction>> = vec![
        Box::new(Polynomial::new(2.0)),
        Box::new(Polynomial::new(3.0)),
        Box::new(mpss_core::power::AffinePolynomial::new(1.0, 2.0, 0.5, 0.0)),
    ];
    for p in &powers {
        let opt = schedule_energy(&res.schedule, p);
        let lp = lp_baseline(&ins, p, 24).unwrap().energy;
        assert!(
            opt <= lp + 1e-6 * lp.max(1.0),
            "power {}: OPT {opt} > LP {lp}",
            p.describe()
        );
    }
}

/// The full optimality sandwich on arbitrary random instances:
/// per-job LB ≤ OPT ≤ non-migratory heuristic.
#[test]
fn prop_optimality_sandwich() {
    check(32, |rng| {
        let (seed, n) = (rng.gen_range(0..50_000), rng.gen_range(2..9));
        let m = rng.gen_range(1..4);
        let ins = random_instance(n, m, 10, seed);
        let p = Polynomial::new(2.0);
        let res = optimal_schedule(&ins).unwrap();
        assert_feasible(&ins, &res.schedule, 1e-9);
        let opt = schedule_energy(&res.schedule, &p);
        let lb = per_job_lower_bound(&ins, &p);
        let ub = schedule_energy(
            &non_migratory_schedule(&ins, 2.0, AssignPolicy::LeastLoaded).schedule,
            &p,
        );
        assert!(lb <= opt + 1e-6 * opt.max(1.0), "LB {lb} > OPT {opt}");
        assert!(opt <= ub + 1e-6 * ub.max(1.0), "OPT {opt} > UB {ub}");
    });
}

/// Phase speeds are strictly decreasing and every job belongs to
/// exactly one phase.
#[test]
fn prop_phase_partition() {
    check(32, |rng| {
        let (seed, n) = (rng.gen_range(0..50_000), rng.gen_range(2..9));
        let m = rng.gen_range(1..5);
        let ins = random_instance(n, m, 10, seed);
        let res = optimal_schedule(&ins).unwrap();
        let mut seen = vec![false; n];
        for phase in &res.phases {
            for &k in &phase.jobs {
                assert!(!seen[k], "job {k} in two phases");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some job unscheduled");
        for w in res.phases.windows(2) {
            assert!(
                w[0].speed > w[1].speed - 1e-12,
                "phase speeds not decreasing: {} then {}",
                w[0].speed,
                w[1].speed
            );
        }
    });
}

/// End-to-end engine ablation: the offline algorithm must produce
/// equal-energy (indeed equal-phase) schedules under both internal max-flow
/// engines.
#[test]
fn both_flow_engines_yield_identical_optima() {
    use crate::optimal::{optimal_schedule_with, FlowEngine, OfflineOptions};
    for seed in 800..820u64 {
        let n = 3 + (seed as usize % 7);
        let m = 1 + (seed as usize % 4);
        let ins = random_instance(n, m, 10, seed);
        let dinic = optimal_schedule_with(&ins, &OfflineOptions::default()).unwrap();
        let pr = optimal_schedule_with(
            &ins,
            &OfflineOptions {
                engine: FlowEngine::PushRelabel,
                ..Default::default()
            },
        )
        .unwrap();
        assert_feasible(&ins, &pr.schedule, 1e-9);
        let p = Polynomial::new(2.0);
        let e_d = schedule_energy(&dinic.schedule, &p);
        let e_p = schedule_energy(&pr.schedule, &p);
        assert!(
            (e_d - e_p).abs() <= 1e-6 * e_d.max(1.0),
            "seed {seed}: dinic {e_d} vs push-relabel {e_p}"
        );
        assert_eq!(dinic.phases.len(), pr.phases.len(), "seed {seed}");
        for (a, b) in dinic.phases.iter().zip(&pr.phases) {
            assert!((a.speed - b.speed).abs() <= 1e-9 * a.speed.max(1.0));
            assert_eq!(a.jobs, b.jobs, "seed {seed}: different phase membership");
        }
    }
}

/// The Lemma 4 removal rule reads only the flow-invariant min-cut
/// certificate, so the *entire repair trace* — which job was removed in
/// which round, at which conjectured speed — must be identical across both
/// engines and across the warm/cold paths, not just the final phases.
#[test]
fn removal_traces_are_identical_across_engines_and_warm_modes() {
    use crate::optimal::{optimal_schedule_with, FlowEngine, OfflineOptions};
    for seed in 900..925u64 {
        let n = 3 + (seed as usize % 8);
        let m = 1 + (seed as usize % 4);
        let ins = random_instance(n, m, 10, seed);
        let configs = [
            (FlowEngine::Dinic, true),
            (FlowEngine::Dinic, false),
            (FlowEngine::PushRelabel, true),
            (FlowEngine::PushRelabel, false),
        ];
        let runs: Vec<_> = configs
            .iter()
            .map(|&(engine, warm_start)| {
                let opts = OfflineOptions {
                    record_trace: true,
                    engine,
                    warm_start,
                };
                optimal_schedule_with(&ins, &opts).unwrap()
            })
            .collect();
        let base = &runs[0];
        for (run, &(engine, warm)) in runs.iter().zip(&configs).skip(1) {
            assert_eq!(
                run.flow_computations, base.flow_computations,
                "seed {seed} {engine:?} warm {warm}: different round counts"
            );
            let key = |r: &crate::optimal::RoundTrace| (r.phase, r.candidate_size, r.removed);
            assert_eq!(
                run.trace.iter().map(key).collect::<Vec<_>>(),
                base.trace.iter().map(key).collect::<Vec<_>>(),
                "seed {seed} {engine:?} warm {warm}: repair traces diverged"
            );
            assert_eq!(run.phases.len(), base.phases.len(), "seed {seed}");
            for (a, b) in run.phases.iter().zip(&base.phases) {
                assert_eq!(
                    a.speed.to_bits(),
                    b.speed.to_bits(),
                    "seed {seed} {engine:?} warm {warm}: speeds not bit-identical"
                );
                assert_eq!(a.jobs, b.jobs, "seed {seed}: phase membership");
                assert_eq!(a.procs, b.procs, "seed {seed}: reservations");
                assert_eq!(a.rounds, b.rounds, "seed {seed}: rounds");
            }
        }
    }
}
