//! Determinism of the `mpss-par` hot paths: every parallel entry point must
//! be a pure work optimisation, producing bit-identical output to its
//! sequential oracle at any thread count — including in exact rational
//! arithmetic on the golden corpus, on either engine, warm or cold.

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

/// Parallel AVR is bit-identical to the sequential loop at every thread
/// count: chunking per-interval work and splicing in order must not
/// change a single segment.
#[test]
fn parallel_avr_is_bit_identical() {
    check(128, |rng| {
        let (seed, n) = (rng.gen_range(0..1_000_000), rng.gen_range(2..40));
        let m = rng.gen_range(1..7);
        let ins = random_instance(n, m, seed);
        let seq = avr_schedule(&ins);
        for threads in [1usize, 2, 3, 8] {
            let par = avr_schedule_parallel(&ins, &ThreadPool::new(threads));
            assert_eq!(
                &seq.segments, &par.segments,
                "AVR diverged at {} threads",
                threads
            );
        }
    });
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
fn golden_corpus_racing_equals_single_engine() {
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
        ..Default::default()
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

/// The pool honours explicit sizes and `MPSS_THREADS`, and both the batch
/// API and parallel AVR report the effective pool width via obs counters.
#[test]
fn pool_width_is_observable() {
    let ins = random_instance(30, 4, 3);
    let pool = ThreadPool::new(4);
    assert_eq!(pool.threads(), 4);
    let mut rec = RecordingCollector::new();
    let _ = avr_schedule_parallel_observed(&ins, &pool, &mut rec);
    assert_eq!(rec.counter("par.pool.threads"), 4);
    assert!(rec.counter("par.tasks") >= 1);

    let batch = vec![random_instance(4, 2, 1), random_instance(5, 2, 2)];
    let mut rec = RecordingCollector::new();
    let outs = solve_many_observed(&batch, &OfflineOptions::default(), &pool, &mut rec);
    assert_eq!(outs.len(), 2);
    assert_eq!(rec.counter("par.tasks"), 2);
}
