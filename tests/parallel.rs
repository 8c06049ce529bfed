//! Determinism of batched solves over the `mpss-par` pool: sharding must be
//! a pure work optimisation, producing bit-identical output to solo solves
//! at any thread count — including in exact rational arithmetic on the
//! golden corpus, on either engine, warm or cold.

use mpss::numeric::rational::rat;
use mpss::numeric::rng::{check, Rng};
use mpss::numeric::Rational;
use mpss::prelude::*;

fn random_instance(n: usize, m: usize, seed: u64) -> Instance<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let jobs = (0..n)
        .map(|_| {
            let r: f64 = rng.gen_range(0.0..15.0);
            let span: f64 = rng.gen_range(0.3..7.0);
            let w: f64 = rng.gen_range(0.1..8.0);
            job(r, r + span, w)
        })
        .collect();
    Instance::new(m, jobs).unwrap()
}

/// Batched solves shard over the pool but return outputs in submission
/// order, each bit-identical to a solo solve of the same instance.
#[test]
fn batched_solves_match_solo_in_order() {
    check(128, |rng| {
        let (seed, k) = (rng.gen_range(0u64..1_000_000), rng.gen_range(2..6));
        let batch: Vec<Instance<f64>> = (0..k)
            .map(|i| random_instance(3 + i, 1 + i % 3, seed.wrapping_add(i as u64)))
            .collect();
        let opts = OfflineOptions::default();
        let outputs = solve_many(&batch, &opts, &ThreadPool::new(8));
        assert_eq!(outputs.len(), batch.len());
        for (ins, out) in batch.iter().zip(&outputs) {
            let solo = optimal_schedule_with(ins, &opts).unwrap();
            let res = out.result.as_ref().unwrap();
            assert_eq!(&solo.schedule.segments, &res.schedule.segments);
            assert_eq!(solo.flow_computations, res.flow_computations);
        }
    });
}

/// Engine × warmth on the golden corpus, in exact rational arithmetic and
/// through the pooled batch path: every solve, on Dinic or push–relabel,
/// warm or cold, must reproduce the solo cold-Dinic phases, repair traces
/// and exact energies. Every maximum flow shares its value and Lemma 4's
/// canonical min cut, so the engine choice is a pure work optimisation.
#[test]
fn golden_corpus_batched_engines_match_solo_cold_dinic() {
    let fig2: Instance<Rational> = Instance::new(
        2,
        vec![
            job(rat(0, 1), rat(1, 1), rat(6, 1)),
            job(rat(0, 1), rat(2, 1), rat(3, 1)),
            job(rat(0, 1), rat(2, 1), rat(3, 1)),
            job(rat(0, 1), rat(6, 1), rat(2, 1)),
            job(rat(2, 1), rat(8, 1), rat(2, 1)),
        ],
    )
    .unwrap();
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
    let names = ["fig2", "staircase", "three-jobs"];
    let corpus = vec![fig2, staircase, three];
    let options = |engine: FlowEngine, warm_start: bool| OfflineOptions {
        record_trace: true,
        engine,
        warm_start,
    };
    let cold: Vec<_> = corpus
        .iter()
        .map(|ins| optimal_schedule_with(ins, &options(FlowEngine::Dinic, false)).unwrap())
        .collect();
    // The fig2 ladder is the paper's: 6 > 2 > 1/2 > 1/3.
    let speeds: Vec<Rational> = cold[0].phases.iter().map(|p| p.speed).collect();
    assert_eq!(speeds, vec![rat(6, 1), rat(2, 1), rat(1, 2), rat(1, 3)]);
    let pool = ThreadPool::new(3);
    for (tag, engine) in [
        ("dinic", FlowEngine::Dinic),
        ("pr", FlowEngine::PushRelabel),
    ] {
        for warm_start in [true, false] {
            let outputs = solve_many(&corpus, &options(engine, warm_start), &pool);
            assert_eq!(outputs.len(), corpus.len());
            for (((name, ins), solo), out) in names.iter().zip(&corpus).zip(&cold).zip(&outputs) {
                let res = out.result.as_ref().unwrap();
                assert_feasible(ins, &res.schedule, 0.0);
                assert_eq!(
                    res.phases.len(),
                    solo.phases.len(),
                    "{name}/{tag} warm={warm_start}: phase count"
                );
                for (i, (pa, pb)) in res.phases.iter().zip(&solo.phases).enumerate() {
                    assert_eq!(
                        pa.speed, pb.speed,
                        "{name}/{tag} warm={warm_start}: phase {i} exact speed"
                    );
                    assert_eq!(
                        pa.jobs, pb.jobs,
                        "{name}/{tag} warm={warm_start}: phase {i} jobs"
                    );
                    assert_eq!(
                        pa.procs, pb.procs,
                        "{name}/{tag} warm={warm_start}: phase {i} procs"
                    );
                    assert_eq!(
                        pa.rounds, pb.rounds,
                        "{name}/{tag} warm={warm_start}: phase {i} rounds"
                    );
                }
                assert_eq!(
                    res.flow_computations, solo.flow_computations,
                    "{name}/{tag} warm={warm_start}: flow computations"
                );
                assert_eq!(
                    res.trace
                        .iter()
                        .map(|r| (r.phase, r.candidate_size, r.removed))
                        .collect::<Vec<_>>(),
                    solo.trace
                        .iter()
                        .map(|r| (r.phase, r.candidate_size, r.removed))
                        .collect::<Vec<_>>(),
                    "{name}/{tag} warm={warm_start}: repair traces"
                );
                assert_eq!(
                    schedule_energy_exact(&res.schedule, 2),
                    schedule_energy_exact(&solo.schedule, 2),
                    "{name}/{tag} warm={warm_start}: exact energy"
                );
            }
        }
    }
}

/// The pool honours explicit sizes, and the batch API reports the
/// effective pool width and the tasks it dispatched via obs counters.
#[test]
fn pool_width_is_observable() {
    let pool = ThreadPool::new(4);
    assert_eq!(pool.threads(), 4);
    let batch = vec![random_instance(4, 2, 1), random_instance(5, 2, 2)];
    let mut trace = TraceCollector::new("main");
    let outs = solve_many_observed(&batch, &OfflineOptions::default(), &pool, &mut trace);
    let rec = RecordingCollector::from_trace(&trace);
    assert_eq!(outs.len(), 2);
    assert_eq!(rec.counter("par.pool.threads"), 4);
    assert_eq!(rec.counter("par.tasks"), 2);
}
