//! Golden regression tests: fixed instances with *exact* expected outputs
//! (speed ladders, phase memberships, energies as rationals). Any change to
//! the offline algorithm, the max-flow engines, the packing, or the
//! arithmetic that alters observable results trips these immediately.

use mpss::model::energy::schedule_energy_exact;
use mpss::model::validate::assert_feasible;
use mpss::numeric::rational::rat;
use mpss::numeric::Rational;
use mpss::offline::optimal_schedule;
use mpss::online::{avr_schedule, oa_schedule};
use mpss::prelude::{job, FlowEngine, Instance, OfflineOptions};

/// The Fig. 2-trace instance: 5 jobs, 2 processors, 4 speed levels.
fn fig2_instance() -> Instance<Rational> {
    Instance::new(
        2,
        vec![
            job(rat(0, 1), rat(1, 1), rat(6, 1)),
            job(rat(0, 1), rat(2, 1), rat(3, 1)),
            job(rat(0, 1), rat(2, 1), rat(3, 1)),
            job(rat(0, 1), rat(6, 1), rat(2, 1)),
            job(rat(2, 1), rat(8, 1), rat(2, 1)),
        ],
    )
    .unwrap()
}

#[test]
fn golden_fig2_phase_structure() {
    let res = optimal_schedule(&fig2_instance()).unwrap();
    assert_feasible(&fig2_instance(), &res.schedule, 0.0);

    // Exact ladder: 6 > 2 > 1/2 > 1/3.
    let speeds: Vec<Rational> = res.phases.iter().map(|p| p.speed).collect();
    assert_eq!(speeds, vec![rat(6, 1), rat(2, 1), rat(1, 2), rat(1, 3)]);

    // Exact memberships.
    assert_eq!(res.phases[0].jobs, vec![0]);
    assert_eq!(res.phases[1].jobs, vec![1, 2]);
    assert_eq!(res.phases[2].jobs, vec![3]);
    assert_eq!(res.phases[3].jobs, vec![4]);

    // Exact energies: E[s²] = 36·1 + 4·3 + (1/4)·4 + (1/9)·6 = 149/3.
    assert_eq!(schedule_energy_exact(&res.schedule, 2), rat(149, 3));
    // E[s³] = 216·1 + 8·3 + (1/8)·4 + (1/27)·6 = 4333/18.
    assert_eq!(schedule_energy_exact(&res.schedule, 3), rat(4333, 18));
}

#[test]
fn golden_staircase_m2() {
    let ins: Instance<Rational> = Instance::new(
        2,
        vec![
            job(rat(0, 1), rat(1, 1), rat(5, 1)),
            job(rat(0, 1), rat(2, 1), rat(2, 1)),
            job(rat(0, 1), rat(4, 1), rat(1, 1)),
            job(rat(0, 1), rat(8, 1), rat(1, 1)),
        ],
    )
    .unwrap();
    let res = optimal_schedule(&ins).unwrap();
    assert_feasible(&ins, &res.schedule, 0.0);
    let speeds: Vec<Rational> = res.phases.iter().map(|p| p.speed).collect();
    // Phase 1: the density-5 job alone in [0,1). Phase 2: job 1 at speed 1
    // in [0,2). Phase 3: job 2 gets 1 processor in [1,2) and [2,4) — three
    // reserved time units for volume 1 ⇒ speed 1/3. Phase 4: job 3 gets
    // [2,4) and [4,8) — six units ⇒ 1/6.
    assert_eq!(speeds, vec![rat(5, 1), rat(1, 1), rat(1, 3), rat(1, 6)]);
    assert_eq!(res.phases[2].jobs, vec![2]);
    assert_eq!(res.phases[3].jobs, vec![3]);
    // Lemma 3 processor reservations, exactly.
    assert_eq!(res.phases[0].procs, vec![1, 0, 0, 0]);
    assert_eq!(res.phases[1].procs, vec![1, 1, 0, 0]);
    assert_eq!(res.phases[2].procs, vec![0, 1, 1, 0]);
    assert_eq!(res.phases[3].procs, vec![0, 0, 1, 1]);
}

#[test]
fn golden_online_runs() {
    let ins = fig2_instance();
    let oa = oa_schedule(&ins).unwrap();
    assert_feasible(&ins, &oa.schedule, 0.0);
    // Arrivals at t = 0 and t = 2 ⇒ exactly 2 replans.
    assert_eq!(oa.replans, 2);
    // OA's exact energy: the t=0 plan is followed on [0,2); job 4 arrives
    // at t = 2 and — because it can be planned without disturbing anything
    // already decided — OA lands exactly on the offline optimum here.
    let e_oa = schedule_energy_exact(&oa.schedule, 2);
    assert_eq!(e_oa, rat(149, 3));
    let e_opt = schedule_energy_exact(&optimal_schedule(&ins).unwrap().schedule, 2);
    assert_eq!(e_oa, e_opt, "on this instance OA achieves OPT exactly");

    let avr = avr_schedule(&ins);
    assert_feasible(&ins, &avr, 0.0);
    let e_avr = schedule_energy_exact(&avr, 2);
    assert!(e_avr >= e_opt);
    // Theorem bounds, exactly.
    assert!(e_oa <= rat(4, 1) * e_opt);
    assert!(e_avr <= rat(9, 1) * e_opt);
}

/// The warm-start smoke gate: on the whole golden corpus, in *exact*
/// rational arithmetic, the warm incremental solver must reproduce the cold
/// oracle's phases — same speeds (exact equality), memberships,
/// reservations, repair-round counts, and the same total number of flow
/// computations — under both engines. CI runs this as the warm-vs-cold
/// smoke check.
#[test]
fn golden_corpus_warm_equals_cold() {
    let staircase: Instance<Rational> = Instance::new(
        2,
        vec![
            job(rat(0, 1), rat(1, 1), rat(5, 1)),
            job(rat(0, 1), rat(2, 1), rat(2, 1)),
            job(rat(0, 1), rat(4, 1), rat(1, 1)),
            job(rat(0, 1), rat(8, 1), rat(1, 1)),
        ],
    )
    .unwrap();
    let three: Instance<Rational> =
        Instance::new(2, vec![job(rat(0, 1), rat(3, 1), rat(3, 1)); 3]).unwrap();
    for (name, ins) in [
        ("fig2", fig2_instance()),
        ("staircase", staircase),
        ("three-jobs", three),
    ] {
        let solve = |engine: FlowEngine, warm_start: bool| {
            let opts = OfflineOptions {
                record_trace: true,
                engine,
                warm_start,
            };
            mpss::offline::optimal_schedule_with(&ins, &opts).unwrap()
        };
        let cold = solve(FlowEngine::Dinic, false);
        for (tag, engine) in [
            ("dinic", FlowEngine::Dinic),
            ("pr", FlowEngine::PushRelabel),
        ] {
            for warm_start in [true, false] {
                let res = solve(engine, warm_start);
                assert_feasible(&ins, &res.schedule, 0.0);
                assert_eq!(
                    res.phases.len(),
                    cold.phases.len(),
                    "{name}/{tag} warm={warm_start}: phase count"
                );
                for (i, (pa, pb)) in res.phases.iter().zip(&cold.phases).enumerate() {
                    assert_eq!(
                        pa.speed, pb.speed,
                        "{name}/{tag} warm={warm_start}: phase {i} speed"
                    );
                    assert_eq!(pa.jobs, pb.jobs, "{name}/{tag} warm={warm_start}: jobs");
                    assert_eq!(pa.procs, pb.procs, "{name}/{tag} warm={warm_start}: procs");
                    assert_eq!(
                        pa.rounds, pb.rounds,
                        "{name}/{tag} warm={warm_start}: rounds"
                    );
                }
                assert_eq!(
                    res.flow_computations, cold.flow_computations,
                    "{name}/{tag} warm={warm_start}: flow computations"
                );
                assert_eq!(
                    res.trace
                        .iter()
                        .map(|r| (r.phase, r.candidate_size, r.removed))
                        .collect::<Vec<_>>(),
                    cold.trace
                        .iter()
                        .map(|r| (r.phase, r.candidate_size, r.removed))
                        .collect::<Vec<_>>(),
                    "{name}/{tag} warm={warm_start}: repair traces"
                );
                assert_eq!(
                    schedule_energy_exact(&res.schedule, 2),
                    schedule_energy_exact(&cold.schedule, 2),
                    "{name}/{tag} warm={warm_start}: exact energy"
                );
            }
        }
    }
}

#[test]
fn golden_three_jobs_two_procs() {
    // The running example of the README/docs: uniform speed 3/2.
    let ins: Instance<Rational> =
        Instance::new(2, vec![job(rat(0, 1), rat(3, 1), rat(3, 1)); 3]).unwrap();
    let res = optimal_schedule(&ins).unwrap();
    assert_eq!(res.phases.len(), 1);
    assert_eq!(res.phases[0].speed, rat(3, 2));
    assert_eq!(schedule_energy_exact(&res.schedule, 2), rat(27, 2));
    assert_eq!(schedule_energy_exact(&res.schedule, 3), rat(81, 4));
    // Exactly one job migrates under wrap-around packing.
    assert_eq!(res.schedule.migrations(), 1);
}
