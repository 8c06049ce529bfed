//! Differential testing of the warm-start incremental solver against the
//! cold oracle.
//!
//! The warm path (`OfflineOptions::warm_start`, the default) reuses the
//! residual network across repair rounds and speed probes instead of
//! rebuilding it; by construction it must be a pure work optimisation. The
//! properties here pin exactly that: on random instances the warm and cold
//! solvers — under *both* max-flow engines — produce bit-identical phase
//! partitions, speeds, reservations and repair traces, and the resulting
//! energy is sandwiched by the independent `lp_baseline` discretisation.

use mpss::numeric::rng::{check, Rng};
use mpss::prelude::*;

/// Random fractional instance in the ISSUE-mandated differential envelope
/// (`n ≤ 24`, `m ≤ 6`).
fn differential_instance(n: usize, m: usize, rng: &mut Rng) -> Instance<f64> {
    let jobs = (0..n)
        .map(|_| {
            let r: f64 = rng.gen_range(0.0..12.0);
            let span: f64 = rng.gen_range(0.4..8.0);
            let w: f64 = rng.gen_range(0.2..9.0);
            job(r, r + span, w)
        })
        .collect();
    Instance::new(m, jobs).unwrap()
}

fn solve(ins: &Instance<f64>, engine: FlowEngine, warm_start: bool) -> OptimalResult<f64> {
    let opts = OfflineOptions {
        record_trace: true,
        engine,
        warm_start,
    };
    mpss::offline::optimal_schedule_with(ins, &opts).unwrap()
}

use mpss::offline::optimal::OptimalResult;

/// Phases must agree bit-for-bit: same job partition, same `f64` speed
/// bits, same reservations, same number of repair rounds. Plain asserts —
/// the case loop reports the failing case's seed.
fn assert_phases_bit_identical(a: &OptimalResult<f64>, b: &OptimalResult<f64>, ctx: &str) {
    assert_eq!(a.phases.len(), b.phases.len(), "{ctx}: phase count");
    for (i, (pa, pb)) in a.phases.iter().zip(&b.phases).enumerate() {
        assert_eq!(
            pa.speed.to_bits(),
            pb.speed.to_bits(),
            "{ctx}: phase {i} speed {} vs {}",
            pa.speed,
            pb.speed
        );
        assert_eq!(pa.jobs, pb.jobs, "{ctx}: phase {i} jobs");
        assert_eq!(pa.procs, pb.procs, "{ctx}: phase {i} procs");
        assert_eq!(pa.rounds, pb.rounds, "{ctx}: phase {i} rounds");
    }
    assert_eq!(
        a.flow_computations, b.flow_computations,
        "{ctx}: flow computations"
    );
    let key: fn(&mpss::offline::optimal::RoundTrace) -> (usize, usize, Option<usize>) =
        |r| (r.phase, r.candidate_size, r.removed);
    assert_eq!(
        a.trace.iter().map(key).collect::<Vec<_>>(),
        b.trace.iter().map(key).collect::<Vec<_>>(),
        "{ctx}: repair traces"
    );
}

/// Warm ≡ cold, under both engines, on the full differential envelope.
#[test]
fn warm_and_cold_solvers_agree_bit_for_bit() {
    check(512, |rng| {
        let (n, m) = (rng.gen_range(2..25), rng.gen_range(1..7));
        let ins = differential_instance(n, m, rng);
        let cold = solve(&ins, FlowEngine::Dinic, false);
        assert!(validate_schedule(&ins, &cold.schedule, 1e-6).is_ok());
        let warm = solve(&ins, FlowEngine::Dinic, true);
        assert!(validate_schedule(&ins, &warm.schedule, 1e-6).is_ok());
        assert_phases_bit_identical(&warm, &cold, "dinic warm vs cold");
        let pr_warm = solve(&ins, FlowEngine::PushRelabel, true);
        assert_phases_bit_identical(&pr_warm, &cold, "push-relabel warm vs dinic cold");
        let pr_cold = solve(&ins, FlowEngine::PushRelabel, false);
        assert_phases_bit_identical(&pr_cold, &cold, "push-relabel cold vs dinic cold");
    });
}

/// On small instances both solvers' energy matches the independent LP
/// discretisation baseline within its convergence tolerance.
#[test]
fn both_solvers_match_the_lp_baseline() {
    check(512, |rng| {
        let (n, m) = (rng.gen_range(2..7), rng.gen_range(1..4));
        let ins = differential_instance(n, m, rng);
        let p = Polynomial::new(2.0);
        let lp = lp_baseline(&ins, &p, 24).unwrap().energy;
        for warm_start in [true, false] {
            let res = solve(&ins, FlowEngine::Dinic, warm_start);
            let opt = schedule_energy(&res.schedule, &p);
            // The LP restricts speeds to a finite grid, so it upper-bounds
            // OPT (up to discretisation), and OPT can undercut it only
            // slightly.
            assert!(
                opt <= lp * 1.05 + 1e-9,
                "warm {warm_start}: OPT {opt} far above LP {lp}"
            );
            assert!(
                lp >= opt - 1e-6 * opt,
                "warm {warm_start}: LP {lp} below OPT {opt}"
            );
        }
    });
}

/// A nonsense seed plan still reproduces the cold phases — seeding is
/// capacity-clamped, so it can never change the answer.
#[test]
fn arbitrary_seed_spans_cannot_change_the_result() {
    use mpss::obs::NoopCollector;
    for seed in 0..40u64 {
        let rng = &mut Rng::seed_from_u64(seed);
        let ins = differential_instance(3 + (seed as usize % 9), 1 + (seed as usize % 3), rng);
        let cold = solve(&ins, FlowEngine::Dinic, false);
        // Garbage spans: every job claims to have run over the whole horizon.
        let horizon = ins.max_deadline().unwrap_or(1.0);
        let garbage = SeedPlan {
            spans: vec![vec![(0.0, horizon)]; ins.n()],
        };
        let opts = OfflineOptions {
            record_trace: true,
            ..Default::default()
        };
        let seeded = mpss::offline::optimal_schedule_prepared(
            &ins,
            &opts,
            Some(&garbage),
            None,
            &mut NoopCollector,
        )
        .unwrap();
        assert_eq!(seeded.phases.len(), cold.phases.len(), "seed {seed}");
        for (pa, pb) in seeded.phases.iter().zip(&cold.phases) {
            assert_eq!(pa.speed.to_bits(), pb.speed.to_bits(), "seed {seed}");
            assert_eq!(pa.jobs, pb.jobs, "seed {seed}");
        }
        assert_eq!(seeded.flow_computations, cold.flow_computations);
        assert!(validate_schedule(&ins, &seeded.schedule, 1e-6).is_ok());
    }
}

// ---------------------------------------------------------------------------
// CSR-vs-legacy differential block.
//
// The flat-arc CSR engines replaced the `Vec<Edge>`-per-node legacy engines
// wholesale; `mpss_maxflow::reference` keeps the legacy implementations alive
// as an oracle. 512 random cases, each exercising {Dinic, push-relabel} ×
// {cold, warm}: Dinic must match the oracle bit-for-bit down to per-edge
// flows (its traversal order is part of the golden-corpus contract),
// push-relabel is value- and cut-equivalent (its heuristics legitimately
// pick a different maximum flow), and the warm paths must land on the cold
// oracle's value after a drain + retune.
// ---------------------------------------------------------------------------

use mpss_maxflow::reference::{self, RefNetwork};
use mpss_maxflow::{
    drain_node, set_capacity, Dinic, EdgeId, FlowNetwork, MaxFlow, PushRelabel, WarmStartable,
};

/// Random network over the maxflow differential envelope, returned alongside
/// its legacy mirror (same edges, same insertion order) and the edge-id /
/// endpoint ledger (edge ids are opaque outside the crate, so the generator
/// records them as it goes).
#[allow(clippy::type_complexity)]
fn csr_and_legacy(
    n: usize,
    density: f64,
    seed: u64,
    dag_only: bool,
) -> (
    FlowNetwork<f64>,
    RefNetwork<f64>,
    Vec<(usize, usize, EdgeId)>,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut net: FlowNetwork<f64> = FlowNetwork::new(n);
    let mut ledger = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && (!dag_only || u < v) && rng.gen_bool(density) {
                let id = net.add_edge(u, v, rng.gen_range(0..=20u32) as f64 / 2.0);
                ledger.push((u, v, id));
            }
        }
    }
    let legacy = RefNetwork::from_network(&net);
    (net, legacy, ledger)
}

/// One case = one network, all four engine × warmth combinations
/// checked against the legacy oracle.
#[test]
fn csr_engines_match_the_legacy_oracle() {
    check(512, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let (n, density) = (rng.gen_range(3..16), rng.gen_range(0.1..0.6));
        let (cold_net, legacy_net, ledger) = csr_and_legacy(n, density, seed, false);
        let (s, t) = (0usize, n - 1);

        // Cold Dinic: value AND per-edge flows bit-identical.
        let mut d_net = cold_net.clone();
        let mut dinic = Dinic::new();
        let f_dinic = dinic.max_flow(&mut d_net, s, t);
        let mut d_legacy = legacy_net.clone();
        let (f_ref, _) = reference::dinic(&mut d_legacy, s, t);
        assert_eq!(
            f_dinic.to_bits(),
            f_ref.to_bits(),
            "dinic value {} vs {}",
            f_dinic,
            f_ref
        );
        for ((_, _, id), f_ref_edge) in ledger.iter().zip(d_legacy.flows()) {
            assert_eq!(
                d_net.flow(*id).to_bits(),
                f_ref_edge.to_bits(),
                "dinic per-edge flow diverged on edge {:?}",
                id
            );
        }

        // Cold push-relabel: same value (up to float associativity — the
        // heuristics push in a different order) and the same canonical
        // min-cut certificate.
        let mut p_net = cold_net.clone();
        let mut pr = PushRelabel::new();
        let f_pr = pr.max_flow(&mut p_net, s, t);
        let mut p_legacy = legacy_net.clone();
        let (f_pref, _) = reference::push_relabel(&mut p_legacy, s, t);
        assert!(
            (f_pr - f_pref).abs() <= 1e-9 * f_pref.abs().max(1.0),
            "push-relabel value {} vs legacy {}",
            f_pr,
            f_pref
        );
        assert_eq!(
            p_net.residual_reachable(s),
            p_legacy.residual_reachable(s),
            "push-relabel min-cut certificates diverged"
        );

        // Warm restart, both engines: drain node 1's throughput, zero its
        // supply edges, re-augment — must land on the legacy cold value of
        // the modified network.
        if n > 2 {
            // Warm restart exercises drain_node's flow-cancellation walks,
            // which assume acyclic flow (the offline model's shape) — so this
            // leg re-rolls the same seed as a DAG instance.
            let (dag_net, dag_legacy, dag_ledger) = csr_and_legacy(n, density, seed, true);
            let victim = 1usize;
            let mut expect_legacy = dag_legacy.clone();
            for (e, &(from, to, _)) in dag_ledger.iter().enumerate() {
                if from == s && to == victim {
                    expect_legacy.zero_capacity(e as u32);
                }
            }
            let (f_expect, _) = reference::dinic(&mut expect_legacy, s, t);

            for engine_is_dinic in [true, false] {
                let mut warm = dag_net.clone();
                let f_warm = if engine_is_dinic {
                    let mut engine = Dinic::new();
                    engine.max_flow(&mut warm, s, t);
                    drain_node(&mut warm, victim, s, t);
                    for &(from, to, id) in &dag_ledger {
                        if from == s && to == victim {
                            set_capacity(&mut warm, id, 0.0, s, t);
                        }
                    }
                    engine.re_max_flow(&mut warm, s, t)
                } else {
                    let mut engine = PushRelabel::new();
                    engine.max_flow(&mut warm, s, t);
                    drain_node(&mut warm, victim, s, t);
                    for &(from, to, id) in &dag_ledger {
                        if from == s && to == victim {
                            set_capacity(&mut warm, id, 0.0, s, t);
                        }
                    }
                    engine.re_max_flow(&mut warm, s, t)
                };
                assert!(
                    (f_warm - f_expect).abs() <= 1e-9 * f_expect.abs().max(1.0),
                    "warm {} restart {} vs legacy cold {}",
                    if engine_is_dinic {
                        "dinic"
                    } else {
                        "push-relabel"
                    },
                    f_warm,
                    f_expect
                );
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Prepared-vs-scratch differential block.
//
// `optimal_schedule_prepared` with a `PreparedInstance` skips the scratch
// partition sort, the per-round activity probes, and the per-build activity
// scans in favour of precomputed contiguous event ranges. By construction it
// must be a pure work optimisation: on *exact rational* arithmetic — where
// "close" cannot hide a divergence — the prepared path must reproduce the
// scratch solver's phases, segments and energy exactly, under both engines,
// on general (non-staircase) instances.
// ---------------------------------------------------------------------------

use mpss::numeric::rational::rat;
use mpss::numeric::Rational;
use mpss::obs::NoopCollector;
use mpss::offline::{optimal_schedule_prepared, IncrementalPlanner, PreparedInstance};

/// Deterministic general rational instance: releases, deadlines and volumes
/// on a half-integer grid driven by a tiny LCG (exactness is the point, not
/// distribution quality).
fn rational_instance(seed: u64) -> Instance<Rational> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move |modulus: i64| -> i128 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(modulus) as i128
    };
    let n = 2 + (next(6) as usize);
    let m = 1 + (next(3) as usize);
    let jobs = (0..n)
        .map(|_| {
            let r = rat(next(12), 2);
            let d = r + rat(1 + next(10), 2);
            job(r, d, rat(1 + next(9), 3))
        })
        .collect();
    Instance::new(m, jobs).unwrap()
}

/// Prepared ≡ scratch on exact rationals, both engines: identical phases
/// (speeds, memberships, reservations, rounds), identical segments, and
/// identical exact energy.
#[test]
fn prepared_path_matches_scratch_exactly_on_rationals() {
    use mpss::model::energy::schedule_energy_exact;

    for seed in 0..48u64 {
        let ins = rational_instance(seed);
        let prepared = PreparedInstance::derive(&ins);
        for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
            let opts = OfflineOptions {
                engine,
                ..Default::default()
            };
            let scratch = mpss::offline::optimal_schedule_with(&ins, &opts).unwrap();
            let fast =
                optimal_schedule_prepared(&ins, &opts, None, Some(&prepared), &mut NoopCollector)
                    .unwrap();
            let ctx = format!("seed {seed} engine {engine:?}");
            assert_eq!(
                fast.phases.len(),
                scratch.phases.len(),
                "{ctx}: phase count"
            );
            for (i, (pa, pb)) in fast.phases.iter().zip(&scratch.phases).enumerate() {
                assert_eq!(pa.speed, pb.speed, "{ctx}: phase {i} speed");
                assert_eq!(pa.jobs, pb.jobs, "{ctx}: phase {i} jobs");
                assert_eq!(pa.procs, pb.procs, "{ctx}: phase {i} procs");
                assert_eq!(pa.rounds, pb.rounds, "{ctx}: phase {i} rounds");
            }
            assert_eq!(
                fast.flow_computations, scratch.flow_computations,
                "{ctx}: flow computations"
            );
            assert_eq!(
                fast.schedule.segments, scratch.schedule.segments,
                "{ctx}: segments"
            );
            assert_eq!(
                schedule_energy_exact(&fast.schedule, 2),
                schedule_energy_exact(&scratch.schedule, 2),
                "{ctx}: exact energy"
            );
        }
    }
}

/// The planner's spliced partitions feed the same prepared path: syncing a
/// live set must be indistinguishable from deriving the staircase instance
/// from scratch — on exact rationals, where a mispatched breakpoint cannot
/// round away.
#[test]
fn planner_sync_equals_scratch_derivation_on_rationals() {
    let mut planner: IncrementalPlanner<Rational> = IncrementalPlanner::new();
    // An evolving live set: arrivals and removals over a shared deadline grid.
    let steps: Vec<(i128, Vec<(usize, i128)>)> = vec![
        (0, vec![(0, 4), (1, 8)]),
        (1, vec![(0, 4), (1, 8), (2, 6)]),
        (2, vec![(1, 8), (2, 6), (3, 12)]),
        (4, vec![(1, 8), (3, 12)]),
        (5, vec![(1, 8), (3, 12), (4, 9), (5, 9)]),
    ];
    for (now, live) in steps {
        let now = rat(now, 1);
        let live: Vec<(usize, Rational)> = live.into_iter().map(|(k, d)| (k, rat(d, 1))).collect();
        let (synced, _) = planner.sync(now, &live);
        let jobs = live
            .iter()
            .map(|&(_, d)| job(now, d, rat(1, 1)))
            .collect::<Vec<_>>();
        let ins = Instance::new(2, jobs).unwrap();
        let scratch = PreparedInstance::derive(&ins);
        assert_eq!(synced.intervals, scratch.intervals, "now {now}: partition");
        assert_eq!(synced.ranges, scratch.ranges, "now {now}: ranges");
    }
}

// ---------------------------------------------------------------------------
// Incremental-vs-scratch session differential block.
//
// `OaSession` keeps its `IncrementalPlanner` across replans by default; the
// from-scratch path (`set_incremental(false)`) is the retained oracle. On
// random arrival/advance streams — under both engines — the two must agree
// on every observable: executed segments bit-for-bit, replan and max-flow
// counts, and the serialized checkpoint (the planner is deliberately not
// checkpointed, so the frozen states must be indistinguishable too).
// ---------------------------------------------------------------------------

use mpss::online::OaSession;

#[test]
fn incremental_and_scratch_sessions_agree_bit_for_bit() {
    check(192, |rng| {
        let (n_events, m) = (rng.gen_range(3..28), rng.gen_range(1..5));
        // One pre-rolled stream, replayed into every session.
        let mut now = 0.0f64;
        let mut stream: Vec<(f64, Option<(f64, f64)>)> = Vec::new();
        for _ in 0..n_events {
            if rng.gen_bool(0.35) {
                now += rng.gen_range(0.1..3.0);
            }
            let arrival = rng.gen_bool(0.75).then(|| {
                let span: f64 = rng.gen_range(0.3..9.0);
                let volume: f64 = rng.gen_range(0.2..6.0);
                (now + span, volume)
            });
            stream.push((now, arrival));
        }

        for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
            let run = |incremental: bool| {
                let mut s = OaSession::with_engine(m, 0.0, engine);
                s.set_incremental(incremental);
                for &(t, arrival) in &stream {
                    s.advance_to(t).unwrap();
                    if let Some((deadline, volume)) = arrival {
                        s.arrive(deadline, volume).unwrap();
                    }
                }
                s
            };
            let incr = run(true);
            let scratch = run(false);
            let ctx = format!("engine {engine:?}");

            assert_eq!(incr.replans(), scratch.replans(), "{}: replans", ctx);
            assert_eq!(
                incr.flow_computations(),
                scratch.flow_computations(),
                "{}: flow computations",
                ctx
            );
            assert_eq!(
                incr.checkpoint().to_json().render(),
                scratch.checkpoint().to_json().render(),
                "{}: checkpoints diverged",
                ctx
            );
            let a = incr.finish().unwrap();
            let b = scratch.finish().unwrap();
            assert_eq!(a.segments.len(), b.segments.len(), "{}: segment count", ctx);
            for (sa, sb) in a.segments.iter().zip(&b.segments) {
                assert_eq!(sa.proc, sb.proc, "{}: proc", ctx);
                assert_eq!(sa.job, sb.job, "{}: job", ctx);
                assert_eq!(sa.start.to_bits(), sb.start.to_bits(), "{}: start", ctx);
                assert_eq!(sa.end.to_bits(), sb.end.to_bits(), "{}: end", ctx);
                assert_eq!(sa.speed.to_bits(), sb.speed.to_bits(), "{}: speed", ctx);
            }
        }
    });
}

/// The `offline.*` counters are an engine- and warmth-invariant record
/// of solver structure: phases, repair rounds, removals and max-flow
/// invocations must not depend on which engine ran or whether the
/// residual network was reused. (`offline.cold_rounds_avoided` is the
/// deliberate exception — it *measures* warmth — and must be zero on
/// every cold run.)
#[test]
fn offline_counters_are_engine_and_warmth_invariant() {
    check(128, |rng| {
        use mpss::obs::RecordingCollector;

        let (n, m) = (rng.gen_range(2..15), rng.gen_range(1..5));
        let ins = differential_instance(n, m, rng);
        let mut runs = Vec::new();
        for engine in [FlowEngine::Dinic, FlowEngine::PushRelabel] {
            for warm_start in [false, true] {
                let opts = OfflineOptions {
                    engine,
                    warm_start,
                    ..Default::default()
                };
                let mut rec = RecordingCollector::new();
                mpss::offline::optimal_schedule_observed(&ins, &opts, &mut rec).unwrap();
                if !warm_start {
                    assert_eq!(
                        rec.counter("offline.cold_rounds_avoided"),
                        0,
                        "cold run claimed warm reuse"
                    );
                }
                let invariant: Vec<(String, u64)> = rec
                    .counters()
                    .filter(|(k, _)| {
                        k.starts_with("offline.") && *k != "offline.cold_rounds_avoided"
                    })
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                runs.push((format!("{engine:?} warm={warm_start}"), invariant));
            }
        }
        let (baseline_name, baseline) = &runs[0];
        for (name, counters) in &runs[1..] {
            assert_eq!(
                counters, baseline,
                "offline.* counters diverged: {} vs {}",
                name, baseline_name
            );
        }
    });
}
