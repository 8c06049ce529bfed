//! A guided tour of the paper, section by section, on one running instance.
//!
//! Run with: `cargo run --example paper_tour`

use mpss::model::Intervals;
use mpss::offline::certificate::verify_certificate;
use mpss::online::avr_proof_terms;
use mpss::prelude::*;
use mpss::sim::render_gantt;

fn main() {
    println!("== §1: the model ==============================================");
    let instance = Instance::new(
        2,
        vec![
            job(0.0, 1.0, 6.0), // J0: frantic
            job(0.0, 2.0, 3.0), // J1
            job(0.0, 2.0, 3.0), // J2
            job(0.0, 6.0, 2.0), // J3: relaxed
            job(2.0, 8.0, 2.0), // J4: arrives later
        ],
    )
    .unwrap();
    println!(
        "{} jobs on m = {} migratory variable-speed processors; energy = ∫P(s)dt.",
        instance.n(),
        instance.m
    );
    let iv = Intervals::from_instance(&instance);
    println!("event partition I_j: {:?}", iv.times);

    println!("\n== §2: the combinatorial offline algorithm (Fig. 1 + Fig. 2) ==");
    let opt = optimal_schedule(&instance).unwrap();
    println!(
        "{} max-flow computations over the job × interval network produced the ladder:",
        opt.flow_computations
    );
    for (i, phase) in opt.phases.iter().enumerate() {
        println!(
            "  J_{} = {:?} at s_{} = {:.4}  (m_ij = {:?})",
            i + 1,
            phase.jobs,
            i + 1,
            phase.speed,
            phase.procs
        );
    }
    assert_feasible(&instance, &opt.schedule, 1e-9);
    verify_certificate(&instance, &opt, 1e-9).expect("structural certificate");
    println!("certificate verified: feasible, Lemma 3 reservations, saturated phases ✓");
    print!("\n{}", render_gantt(&opt.schedule, 0.0, 8.0, 64));

    let p = Polynomial::cube();
    let e_opt = schedule_energy(&opt.schedule, &p);
    println!("\nTheorem 1: this is optimal for EVERY convex non-decreasing P.");
    println!("  E[s³](OPT) = {e_opt:.4}");

    println!("\n== §3.1: Optimal Available (Theorem 2) =========================");
    let oa = oa_schedule(&instance).unwrap();
    let e_oa = schedule_energy(&oa.schedule, &p);
    println!(
        "OA(m) replanned {} times; E[s³](OA) = {:.4}; ratio {:.4} ≤ α^α = {}",
        oa.replans,
        e_oa,
        e_oa / e_opt,
        p.oa_bound()
    );
    let audit = audit_oa_potential(&instance, 3.0, 96);
    println!(
        "potential-function audit: max drift {:.2e} (proof inequality holds: {})",
        audit.max_violation,
        audit.holds(1e-6)
    );

    println!("\n== §3.2: Average Rate (Theorem 3) ==============================");
    let avr = avr_schedule(&instance);
    let e_avr = schedule_energy(&avr, &p);
    println!(
        "AVR(m): E[s³] = {:.4}; ratio {:.4} ≤ (2α)^α/2 + 1 = {}",
        e_avr,
        e_avr / e_opt,
        p.avr_bound()
    );
    let terms = avr_proof_terms(&instance, 3.0);
    println!(
        "proof chain (9): E_AVR {:.3} ≤ flattened {:.3} + per-job {:.3} — holds: {}",
        terms.e_avr,
        terms.flattened_density_term,
        terms.per_job_term,
        terms.ineq_9()
    );

    println!("\n== bounded speed (cited in Previous Work) ======================");
    println!(
        "  min feasible peak speed  : {:.4} (= s₁)",
        mpss::offline::speed_bound::minimum_peak_speed(&instance)
    );
    println!("\ntour complete — every number above is covered by the test-suite.");
}
