//! The paper's three theorems as executable checks.
//!
//! * Theorem 1: the combinatorial algorithm produces *optimal* schedules in
//!   polynomial time (checked against independent oracles and bounds).
//! * Theorem 2: OA(m) is `α^α`-competitive.
//! * Theorem 3: AVR(m) is `(2α)^α/2 + 1`-competitive, and the scaffolding
//!   inequalities of its proof hold.

use mpss::prelude::*;

const ALPHAS: [f64; 3] = [1.5, 2.0, 3.0];

fn sweep(n: usize, m: usize) -> Vec<Instance<f64>> {
    Family::ALL
        .iter()
        .flat_map(|&family| {
            (0..2u64).map(move |seed| {
                WorkloadSpec {
                    family,
                    n,
                    m,
                    horizon: 24,
                    seed,
                }
                .generate()
            })
        })
        .collect()
}

// ---------------------------------------------------------------- Theorem 1

#[test]
fn theorem1_flow_count_is_polynomially_bounded() {
    // The algorithm performs at most n rounds per phase and at most n
    // phases ⇒ ≤ n(n+1)/2 + n flow computations.
    for instance in sweep(12, 3) {
        let res = optimal_schedule(&instance).unwrap();
        let n = instance.n();
        assert!(
            res.flow_computations <= n * (n + 1) / 2 + n,
            "flow count {} exceeds the O(n²) budget for n = {n}",
            res.flow_computations
        );
    }
}

#[test]
fn theorem1_energy_is_minimal_against_all_oracles() {
    for instance in sweep(6, 2) {
        for alpha in ALPHAS {
            let p = Polynomial::new(alpha);
            let e = schedule_energy(&optimal_schedule(&instance).unwrap().schedule, &p);
            // Lower bounds.
            assert!(best_lower_bound(&instance, alpha) <= e * (1.0 + 1e-6));
            // LP upper bound converges onto it.
            let lp = lp_baseline(&instance, &p, 24).unwrap().energy;
            assert!(e <= lp * (1.0 + 1e-6), "OPT {e} above LP {lp}");
            assert!(
                lp <= e * 1.06,
                "LP {lp} should be within 6% of OPT {e} at K = 24"
            );
        }
    }
}

#[test]
fn theorem1_universal_optimality_power_function_free() {
    // One schedule, optimal under *every* convex non-decreasing P: compare
    // against fine LPs under qualitatively different power functions.
    let instance = WorkloadSpec::new(Family::Uniform, 5, 2, 77).generate();
    let schedule = optimal_schedule(&instance).unwrap().schedule;
    let powers: [&dyn PowerFunction; 3] = [
        &Polynomial { alpha: 2.0 },
        &AffinePolynomial {
            a: 2.0,
            alpha: 3.0,
            b: 1.0,
            c: 0.0,
        },
        &Exponential,
    ];
    for p in powers {
        let mine = schedule_energy(&schedule, &p);
        let lp = lp_baseline(&instance, &p, 32).unwrap().energy;
        assert!(
            mine <= lp * (1.0 + 1e-6),
            "{}: schedule energy {mine} above LP {lp}",
            p.describe()
        );
    }
}

#[test]
fn theorem1_energy_equals_the_lp_under_its_menu_interpolant() {
    // Fig. 2 is optimal for every convex non-decreasing P, so also for the
    // piecewise-linear interpolant of P through the LP's speed menu (0 and
    // s_max·q/k, topped by the YDS peak), whose optimum is exactly the LP's.
    // An equality between two solvers that share no machinery.
    mpss::numeric::rng::check(64, |rng| {
        let (n, m) = (rng.gen_range(2..=6usize), rng.gen_range(1..=3usize));
        let jobs = (0..n)
            .map(|_| {
                let r = rng.gen_range(0..10u32);
                let d = rng.gen_range(r + 1..=10);
                job(r as f64, d as f64, rng.gen_range(1..=6u32) as f64)
            })
            .collect();
        let instance = Instance::new(m, jobs).unwrap();
        let k = *rng.choose(&[6, 12, 24]);
        let p = Polynomial::new(*rng.choose(&[2.0, 3.0]));
        let s_max = yds_schedule(&instance).speeds[0];
        let opt = optimal_schedule(&instance).unwrap();
        let mine = schedule_energy(&opt.schedule, &PiecewiseLinear::sample(&p, s_max, k));
        let lp = lp_baseline(&instance, &p, k).unwrap().energy;
        assert!(
            (mine - lp).abs() <= 1e-9 * lp,
            "n = {n}, m = {m}, k = {k}: Fig. 2 {mine} vs LP {lp}"
        );
    });
}

// ---------------------------------------------------------------- Theorem 2

#[test]
fn theorem2_oa_is_alpha_alpha_competitive() {
    let mut worst: f64 = 0.0;
    for instance in sweep(8, 2) {
        for alpha in ALPHAS {
            let p = Polynomial::new(alpha);
            let oa = oa_schedule(&instance).unwrap();
            let report = competitive_report(&instance, &oa.schedule, &p, p.oa_bound()).unwrap();
            assert!(
                report.within_bound(),
                "α = {alpha}: measured {:.4} > bound {:.4}",
                report.ratio_or_inf(),
                report.bound
            );
            assert!(
                report.ratio_or_inf() >= 1.0 - 1e-6,
                "online beat offline optimum"
            );
            if alpha == 2.0 {
                worst = worst.max(report.ratio_or_inf());
            }
        }
    }
    // OA must actually be online-suboptimal somewhere in the sweep —
    // otherwise the test is vacuous.
    assert!(
        worst > 1.0 + 1e-6,
        "sweep never separated OA from OPT ({worst})"
    );
}

// ---------------------------------------------------------------- Theorem 3

#[test]
fn theorem3_avr_is_bounded_and_its_proof_inequalities_hold() {
    for instance in sweep(8, 2) {
        for alpha in ALPHAS {
            let p = Polynomial::new(alpha);
            let avr = avr_schedule(&instance);
            let report = competitive_report(&instance, &avr, &p, p.avr_bound()).unwrap();
            assert!(
                report.within_bound(),
                "α = {alpha}: AVR ratio {:.4} > bound {:.4}",
                report.ratio_or_inf(),
                report.bound
            );

            // Proof scaffolding: E_AVR(m) ≤ m^{1−α}·(2α)^α/2·E¹_OPT + E_OPT
            // (equation (9) combined with the single-processor AVR bound).
            let e_avr = report.online_energy;
            let e_opt = report.opt_energy;
            let e1_opt = schedule_energy(&yds_schedule(&instance).schedule, &p);
            let m = instance.m as f64;
            let rhs = m.powf(1.0 - alpha) * (2.0 * alpha).powf(alpha) / 2.0 * e1_opt + e_opt;
            assert!(
                e_avr <= rhs * (1.0 + 1e-6),
                "proof inequality broken: E_AVR {e_avr} > {rhs}"
            );

            // And the lower-bound step: E_OPT ≥ m^{1−α} E¹_OPT.
            assert!(
                e_opt >= m.powf(1.0 - alpha) * e1_opt * (1.0 - 1e-6),
                "E_OPT {e_opt} below m^(1-α)·E¹_OPT"
            );
        }
    }
}

#[test]
fn theorem3_adversarial_family_stresses_avr_hardest() {
    // The nested geometric family should produce a larger AVR ratio than
    // the uniform family at the same size.
    let alpha = 3.0;
    let p = Polynomial::new(alpha);
    let ratio_of = |family: Family| {
        let mut worst: f64 = 0.0;
        for seed in 0..4u64 {
            let ins = WorkloadSpec {
                family,
                n: 12,
                m: 1,
                horizon: 4096,
                seed,
            }
            .generate();
            let avr = avr_schedule(&ins);
            let r = competitive_report(&ins, &avr, &p, p.avr_bound()).unwrap();
            worst = worst.max(r.ratio_or_inf());
        }
        worst
    };
    let adversarial = ratio_of(Family::AvrAdversarial);
    let uniform = ratio_of(Family::Uniform);
    assert!(
        adversarial > uniform,
        "adversarial ratio {adversarial} should exceed uniform {uniform}"
    );
    assert!(
        adversarial > 1.3,
        "adversarial family too weak: {adversarial}"
    );
}
