//! Cross-engine tests: Dinic vs push–relabel on random networks, min-cut
//! certification, and exact-vs-float agreement.

use crate::validate::{cut_capacity, validate_flow};
use crate::{max_flow_dinic, max_flow_push_relabel, FlowNetwork};
use crate::{Dinic, EngineStats, MaxFlow, PushRelabel};
use mpss_numeric::rng::{check, Rng};
use mpss_numeric::{FlowNum, Rational};

const CASES: u32 = if cfg!(miri) { 4 } else { 64 };

/// Builds a random network on `n` nodes with integer capacities (as T) so
/// that the float and exact paths see identical inputs.
fn random_network<T: FlowNum>(n: usize, density: f64, seed: u64) -> FlowNetwork<T> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut net = FlowNetwork::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(density) {
                let cap = rng.gen_range(0..=20u32) as usize;
                net.add_edge(u, v, T::from_usize(cap));
            }
        }
    }
    net
}

#[test]
fn engines_agree_on_random_networks() {
    for seed in 0..30u64 {
        let n = 8 + (seed as usize % 8);
        let mut a: FlowNetwork<f64> = random_network(n, 0.3, seed);
        let mut b = a.clone();
        let fd = max_flow_dinic(&mut a, 0, n - 1);
        let fp = max_flow_push_relabel(&mut b, 0, n - 1);
        assert!(
            (fd - fp).abs() <= 1e-9 * fd.abs().max(1.0),
            "seed {seed}: dinic {fd} vs push-relabel {fp}"
        );
        validate_flow(&a, 0, n - 1, 1e-9).expect("dinic conservation");
        validate_flow(&b, 0, n - 1, 1e-9).expect("push-relabel conservation");
    }
}

#[test]
fn float_and_exact_agree_on_integer_instances() {
    for seed in 0..15u64 {
        let n = 10;
        let mut f: FlowNetwork<f64> = random_network(n, 0.25, 1000 + seed);
        let mut r: FlowNetwork<Rational> = random_network(n, 0.25, 1000 + seed);
        let ff = max_flow_dinic(&mut f, 0, n - 1);
        let fr = max_flow_dinic(&mut r, 0, n - 1);
        assert!(
            (ff - fr.to_f64()).abs() < 1e-9,
            "seed {seed}: float {ff} vs exact {fr:?}"
        );
        assert!(
            fr.is_integer(),
            "integer capacities must give integer max flow"
        );
    }
}

#[test]
fn min_cut_certificate_on_random_networks() {
    for seed in 0..20u64 {
        let n = 12;
        let mut net: FlowNetwork<f64> = random_network(n, 0.3, 2000 + seed);
        let f = max_flow_dinic(&mut net, 0, n - 1);
        let reach = net.residual_reachable(0);
        assert!(!reach[n - 1], "sink reachable after max flow (seed {seed})");
        let cut = cut_capacity(&net, &reach);
        assert!(
            (f - cut).abs() <= 1e-9 * f.abs().max(1.0),
            "seed {seed}: flow {f} ≠ cut {cut}"
        );
    }
}

#[test]
fn layered_scheduling_shape_fractional_caps() {
    // A miniature job×interval network with fractional capacities, checked
    // exactly: 3 jobs needing 3/2 each; 2 intervals of length 2 with 2 and 1
    // reserved processors. Total demand 9/2, supply 4·... = 2·2 + 1·2 = 6.
    // Per-job-per-interval cap 2 ⇒ all demand routable: max flow = 9/2.
    let mut net: FlowNetwork<Rational> = FlowNetwork::new(7);
    let (s, t) = (0usize, 6usize);
    let half3 = Rational::new(3, 2);
    let two = Rational::from_int(2);
    for j in 1..=3 {
        net.add_edge(s, j, half3);
    }
    for (iv, procs) in [(4usize, 2i64), (5usize, 1i64)] {
        net.add_edge(iv, t, Rational::from_int(procs) * two);
    }
    for j in 1..=3 {
        for iv in 4..=5 {
            net.add_edge(j, iv, two);
        }
    }
    let f = max_flow_dinic(&mut net, s, t);
    assert_eq!(f, Rational::new(9, 2));
    validate_flow(&net, s, t, 0.0).expect("exact conservation");
}

#[test]
fn dinic_stats_count_work_and_reset() {
    let mut net: FlowNetwork<f64> = random_network(10, 0.3, 42);
    let mut engine = Dinic::new();
    let f = engine.max_flow(&mut net, 0, 9);
    let stats = MaxFlow::<f64>::stats(&engine);
    // At least one BFS always runs (it discovers unreachability), and a
    // positive flow needs at least one augmenting path.
    assert!(stats.bfs_phases >= 1);
    if f > 0.0 {
        assert!(stats.augmenting_paths >= 1);
    }
    // Dinic never touches the push–relabel counters.
    assert_eq!(stats.pushes, 0);
    assert_eq!(stats.relabels, 0);
    assert_eq!(stats.gap_events, 0);
    assert_eq!(stats.total_ops(), stats.bfs_phases + stats.augmenting_paths);

    MaxFlow::<f64>::reset_stats(&mut engine);
    assert_eq!(MaxFlow::<f64>::stats(&engine), EngineStats::default());
}

#[test]
fn push_relabel_stats_count_work_and_reset() {
    let mut net: FlowNetwork<f64> = random_network(10, 0.3, 42);
    let mut engine = PushRelabel::new();
    let f = engine.max_flow(&mut net, 0, 9);
    let stats = MaxFlow::<f64>::stats(&engine);
    if f > 0.0 {
        assert!(stats.pushes >= 1, "positive flow requires pushes");
    }
    // Push–relabel never touches the Dinic counters.
    assert_eq!(stats.bfs_phases, 0);
    assert_eq!(stats.augmenting_paths, 0);

    MaxFlow::<f64>::reset_stats(&mut engine);
    assert_eq!(MaxFlow::<f64>::stats(&engine), EngineStats::default());
}

#[test]
fn stats_accumulate_across_runs_until_reset() {
    let mut net: FlowNetwork<f64> = random_network(8, 0.4, 7);
    let mut engine = Dinic::new();
    engine.max_flow(&mut net.clone(), 0, 7);
    let first = MaxFlow::<f64>::stats(&engine);
    engine.max_flow(&mut net, 0, 7);
    let second = MaxFlow::<f64>::stats(&engine);
    assert_eq!(second.bfs_phases, 2 * first.bfs_phases);
    assert_eq!(second.augmenting_paths, 2 * first.augmenting_paths);
}

/// Engines agree and both satisfy conservation on arbitrary small
/// random networks.
#[test]
fn prop_engines_agree() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let (n, density) = (rng.gen_range(4..12), rng.gen_range(0.1..0.6));
        let mut a: FlowNetwork<f64> = random_network(n, density, seed);
        let mut b = a.clone();
        let fd = max_flow_dinic(&mut a, 0, n - 1);
        let fp = max_flow_push_relabel(&mut b, 0, n - 1);
        assert!((fd - fp).abs() <= 1e-9 * fd.abs().max(1.0));
        assert!(validate_flow(&a, 0, n - 1, 1e-9).is_ok());
        assert!(validate_flow(&b, 0, n - 1, 1e-9).is_ok());
    });
}

/// Max-flow value is monotone in capacities: doubling every capacity at
/// least preserves (in fact doubles) the value.
#[test]
fn prop_flow_scales_linearly() {
    check(CASES, |rng| {
        let n = rng.gen_range(4usize..10);
        let mut net1: FlowNetwork<f64> = FlowNetwork::new(n);
        let mut net2: FlowNetwork<f64> = FlowNetwork::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(0.35) {
                    let c = rng.gen_range(0..=10u32) as f64;
                    net1.add_edge(u, v, c);
                    net2.add_edge(u, v, 2.0 * c);
                }
            }
        }
        let f1 = max_flow_dinic(&mut net1, 0, n - 1);
        let f2 = max_flow_dinic(&mut net2, 0, n - 1);
        assert!(
            (f2 - 2.0 * f1).abs() <= 1e-9 * f2.abs().max(1.0),
            "f1 {f1} f2 {f2}"
        );
    });
}

/// The CSR build round-trips the adjacency structure: `first_arc` is a
/// monotone prefix-sum frame, every arc id appears in exactly one
/// node's slice (grouped under its tail, in insertion order), and the
/// `xor 1` pairing keeps each forward/backward residual pair summing to
/// the edge capacity on an unaugmented network.
#[test]
fn prop_csr_round_trips_adjacency() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let (n, density) = (rng.gen_range(3..14), rng.gen_range(0.1..0.6));
        let mut net: FlowNetwork<f64> = random_network(n, density, seed);
        net.finish();
        let m2 = net.num_arcs();
        // first_arc is monotone and spans exactly the arc arena.
        assert_eq!(net.first_arc[0], 0);
        assert_eq!(net.first_arc[n] as usize, m2);
        for u in 0..n {
            assert!(net.first_arc[u] <= net.first_arc[u + 1]);
        }
        // Every arc id shows up exactly once, under its tail, and each
        // node's slice is in insertion (ascending arc-id) order.
        let mut seen = vec![false; m2];
        for u in 0..n {
            let slice = net.arcs(u);
            for w in slice.windows(2) {
                assert!(w[0] < w[1], "node {u}'s arcs out of insertion order");
            }
            for &aid in slice {
                let a = aid as usize;
                assert!(!seen[a], "arc {a} listed twice");
                seen[a] = true;
                assert_eq!(
                    net.head[a ^ 1] as usize,
                    u,
                    "arc {a} grouped under a non-tail"
                );
            }
        }
        assert!(seen.iter().all(|&x| x), "arc missing from the CSR");
        // xor-1 pairing: with zero flow, forward residual = capacity and
        // backward residual = 0, so each pair sums to the edge capacity.
        for e in 0..net.num_edges() {
            let a = 2 * e;
            assert_eq!(net.res[a] + net.res[a ^ 1], net.caps[e]);
        }
    });
}

/// A global relabel never raises a reachable node's label above `2n`:
/// BFS distances are < `n`, unreachable nodes go to `n + 1`, and the
/// engine's own relabels stop below `2n` (the stuck sentinel `2n + 1`
/// is the only exception, and only for excess the sink and source both
/// cannot take).
#[test]
fn prop_global_relabel_label_bound() {
    check(CASES, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let (n, density) = (rng.gen_range(4..12), rng.gen_range(0.2..0.6));
        let mut net: FlowNetwork<f64> = random_network(n, density, seed);
        let mut engine = PushRelabel::new();
        engine.max_flow(&mut net, 0, n - 1);
        let stats = MaxFlow::<f64>::stats(&engine);
        assert!(
            stats.global_relabels >= 1,
            "initial global relabel always fires"
        );
        for (v, &h) in engine.heights().iter().enumerate() {
            assert!(
                h as usize <= 2 * n || h as usize == 2 * n + 1,
                "node {v} at height {h} exceeds 2n = {} without being stuck",
                2 * n
            );
        }
    });
}

/// Random *layered* network (source → jobs → intervals → sink) — the shape
/// of every `G(J, m⃗, s)` instance and the shape the warm-start cancellation
/// walks require (flow-carrying edges form a DAG).
fn random_layered(seed: u64, a: usize, b: usize) -> FlowNetwork<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let (s, t) = (0usize, 1 + a + b);
    let mut net = FlowNetwork::new(2 + a + b);
    for j in 1..=a {
        net.add_edge(s, j, rng.gen_range(0..=10u32) as f64 / 2.0);
    }
    for iv in 0..b {
        net.add_edge(1 + a + iv, t, rng.gen_range(1..=12u32) as f64 / 2.0);
    }
    for j in 1..=a {
        for iv in 0..b {
            if rng.gen_bool(0.6) {
                net.add_edge(j, 1 + a + iv, rng.gen_range(0..=8u32) as f64 / 2.0);
            }
        }
    }
    net
}

/// Warm-start removal invariants: after draining a job vertex the
/// remaining flow conserves at every node and respects every capacity
/// (validate_flow checks both), the vertex carries no flow, and
/// re-augmenting reaches exactly the max-flow value of a cold solve on
/// the job-less network.
#[test]
fn prop_drain_node_keeps_flow_feasible() {
    check(CASES, |rng| {
        let (seed, a) = (rng.gen_range(0..10_000), rng.gen_range(2..7));
        let b = rng.gen_range(2..6);
        let victim = rng.gen_range(1..=a); // a job-layer vertex
        let (s, t) = (0usize, 1 + a + b);
        let mut warm = random_layered(seed, a, b);
        let mut dinic = Dinic::new();
        dinic.max_flow(&mut warm, s, t);

        let before = warm.flow(crate::EdgeId(2 * (victim - 1) as u32)); // s→victim
        let drained = crate::drain_node(&mut warm, victim, s, t);
        assert!(
            (drained - before).abs() <= 1e-9 * before.max(1.0),
            "drained {drained} vs throughput {before}"
        );
        assert!(warm.net_out_flow(victim).abs() <= 1e-9);
        assert!(validate_flow(&warm, s, t, 1e-9).is_ok());

        crate::set_capacity(&mut warm, crate::EdgeId(2 * (victim - 1) as u32), 0.0, s, t);
        assert!(validate_flow(&warm, s, t, 1e-9).is_ok());
        let f_warm = crate::WarmStartable::re_max_flow(&mut dinic, &mut warm, s, t);

        // Cold oracle: same network with the victim's supply zeroed
        // (set_capacity on a zero flow is a plain capacity rewrite).
        let mut cold = random_layered(seed, a, b);
        crate::set_capacity(&mut cold, crate::EdgeId(2 * (victim - 1) as u32), 0.0, s, t);
        let f_cold = max_flow_dinic(&mut cold, s, t);
        assert!(
            (f_warm - f_cold).abs() <= 1e-9 * f_cold.max(1.0),
            "warm {f_warm} vs cold {f_cold}"
        );
        assert!(validate_flow(&warm, s, t, 1e-9).is_ok());
    });
}

/// Tightening a capacity below the current flow drains exactly the
/// excess, stays feasible, and re-augments to the cold optimum of the
/// modified network.
#[test]
fn prop_set_capacity_tighten_matches_cold() {
    check(CASES, |rng| {
        let (seed, a) = (rng.gen_range(0..10_000), rng.gen_range(2..7));
        let b = rng.gen_range(2..6);
        let (s, t) = (0usize, 1 + a + b);
        let mut warm = random_layered(seed, a, b);
        let mut dinic = Dinic::new();
        dinic.max_flow(&mut warm, s, t);

        let e = crate::EdgeId(2 * rng.gen_range(0..warm.num_edges()) as u32);
        let new_cap = warm.capacity(e) / 2.0;
        let flow_before = warm.flow(e);
        let drained = crate::set_capacity(&mut warm, e, new_cap, s, t);
        let expected = (flow_before - new_cap).max(0.0);
        assert!(
            (drained - expected).abs() <= 1e-9 * expected.max(1.0),
            "drained {drained}, expected {expected}"
        );
        assert!(warm.flow(e) <= new_cap + 1e-9);
        assert!(validate_flow(&warm, s, t, 1e-9).is_ok());

        let f_warm = crate::WarmStartable::re_max_flow(&mut dinic, &mut warm, s, t);
        let mut cold = random_layered(seed, a, b);
        crate::set_capacity(&mut cold, e, new_cap, s, t);
        let f_cold = max_flow_dinic(&mut cold, s, t);
        assert!(
            (f_warm - f_cold).abs() <= 1e-9 * f_cold.max(1.0),
            "warm {f_warm} vs cold {f_cold}"
        );
    });
}
