//! Warm-start extensions: reuse a feasible flow across incremental edits.
//!
//! The offline algorithm (and OA(m)'s replans) solve long chains of max-flow
//! problems whose networks differ only slightly: a repair round removes one
//! job vertex, a speed probe rescales arc capacities. Rebuilding the network
//! and re-running from the zero flow throws away almost all of the previous
//! round's work. This module provides the incremental primitives instead:
//!
//! * [`WarmStartable::re_max_flow`] — run an engine on a network that
//!   already carries a feasible flow and get back the **total** flow value
//!   (retained + newly augmented). Both engines support this natively:
//!   Dinic augments whatever residual state it is given, and push–relabel
//!   only saturates the *residual* source arcs at initialization, so an
//!   existing feasible flow plus that saturation is a valid preflow.
//! * [`drain_node`] — cancel exactly the flow routed through one vertex
//!   (the `remove_job` operation: the removed job's vertex is drained, its
//!   supply arc zeroed, everything else keeps its flow).
//! * [`set_capacity`] — change a forward edge's capacity in place (the
//!   `retarget` operation for speed probes); when the new capacity is below
//!   the current flow, the excess is cancelled first so the flow stays
//!   feasible.
//! * [`residual_reachable_tol`] — tolerance-aware min-cut side, the
//!   flow-invariant certificate the solver's removal rule is built on.
//!
//! **Requirement:** the cancellation walks assume the *flow-carrying*
//! forward edges form a DAG (true for every `G(J, m⃗, s)` network: source →
//! jobs → intervals → sink is strictly layered). A flow cycle would make a
//! backward walk loop; the walks panic if they detect one.

use crate::network::{EdgeId, FlowNetwork, NodeId};
use crate::{Dinic, MaxFlow, PushRelabel};
use mpss_numeric::FlowNum;

/// A [`MaxFlow`] engine that can continue from a non-zero feasible flow.
pub trait WarmStartable<T: FlowNum>: MaxFlow<T> {
    /// Augments the existing feasible flow in `net` to a maximum flow and
    /// returns the **total** flow value (pre-existing + newly pushed).
    ///
    /// With a zero flow this is identical to [`MaxFlow::max_flow`]; after
    /// [`drain_node`] / [`set_capacity`] edits it re-uses everything that
    /// was not drained.
    fn re_max_flow(&mut self, net: &mut FlowNetwork<T>, source: NodeId, sink: NodeId) -> T {
        let retained = net.net_out_flow(source);
        retained + self.max_flow(net, source, sink)
    }
}

impl<T: FlowNum> WarmStartable<T> for Dinic {}
impl<T: FlowNum> WarmStartable<T> for PushRelabel {}

/// Relative tolerance below which an arc's flow counts as float dust: the
/// solver's default `OfflineOptions::eps`, at which it reads the
/// [`residual_reachable_tol`] certificate.
const DUST_EPS: f64 = 1e-9;

/// Cancels up to `want` units of the flow crossing forward edge `e`,
/// rerouting nothing: each cancelled unit is removed along a complete
/// source→sink path through `e`, so the remaining flow stays feasible
/// (conservation holds at every node, no arc exceeds its capacity).
///
/// Returns the amount actually cancelled (`min(want, flow(e))` up to float
/// dust: when conservation dust leaves `e` with flow that has no
/// flow-carrying source→sink continuation, the walk stops early and the
/// caller is expected to clamp). Panics if a flow cycle is encountered (see
/// module docs).
fn cancel_through_edge<T: FlowNum>(
    net: &mut FlowNetwork<T>,
    e: EdgeId,
    want: T,
    source: NodeId,
    sink: NodeId,
) -> T {
    net.ensure_csr();
    let mut cancelled = T::zero();
    // Each pass removes one path's worth; the bottleneck edge of each pass
    // is zeroed exactly, so the number of passes is bounded by the number
    // of flow-carrying edges (plus a few float-dust passes).
    let mut passes = 0usize;
    let pass_limit = 4 * net.num_edges() + 16;
    while cancelled < want && net.flow(e).is_strictly_positive() {
        passes += 1;
        assert!(
            passes <= pass_limit,
            "cancel_through_edge did not converge (flow cycle or NaN?)"
        );
        let delta = net.flow(e).min2(want - cancelled);
        // The first walk takes the first arc carrying any flow. It can
        // follow dust into a vertex whose onward arcs carry none and dead-end
        // although real flow continues elsewhere; the retry steps over dust.
        // Stepping over dust on every walk would also move the f64 flows of
        // walks that never dead-end (the `fleet` and `durability` benchmark
        // digests change), so it runs only after a dead end.
        let Some((path, delta)) = cancel_path(net, e, delta, source, sink, false)
            .or_else(|| cancel_path(net, e, delta, source, sink, true))
        else {
            break;
        };
        for &fid in &path {
            net.res[fid as usize] += delta;
            net.res[(fid ^ 1) as usize] -= delta;
        }
        cancelled += delta;
    }
    cancelled
}

/// One source→sink path through `e` of forward edges carrying flow, as arc
/// ids, with its bottleneck capped at `delta`; `None` when a walk dead-ends.
/// With `skip_dust`, flow that is not definitely positive at [`DUST_EPS`]
/// does not count.
fn cancel_path<T: FlowNum>(
    net: &FlowNetwork<T>,
    e: EdgeId,
    mut delta: T,
    source: NodeId,
    sink: NodeId,
    skip_dust: bool,
) -> Option<(Vec<u32>, T)> {
    let carries = |arc: u32, flow: T| {
        flow.is_strictly_positive()
            && (!skip_dust
                || T::definitely_lt(T::zero(), flow, net.caps[arc as usize / 2], DUST_EPS))
    };
    let (from, to) = net.endpoints(e);
    let mut path: Vec<u32> = vec![e.0];

    // Backward: follow flow-carrying forward edges from `from` up to the
    // source. A residual twin (odd id) stored at `cur` marks a forward edge
    // *entering* `cur`; its residual is that edge's flow. A missing
    // continuation means the remaining flow on `e` is conservation dust
    // (exact arithmetic always finds one).
    let mut cur = from;
    let mut hops = 0usize;
    while cur != source {
        hops += 1;
        assert!(hops <= net.num_nodes(), "flow cycle in backward walk");
        let twin = net
            .arcs(cur)
            .iter()
            .copied()
            .find(|&id| id % 2 == 1 && carries(id, net.res[id as usize]))?;
        delta = delta.min2(net.res[twin as usize]);
        path.push(twin ^ 1);
        cur = net.head[twin as usize] as NodeId;
    }

    // Forward: follow flow-carrying forward edges from `to` down to the
    // sink.
    let mut cur = to;
    let mut hops = 0usize;
    while cur != sink {
        hops += 1;
        assert!(hops <= net.num_nodes(), "flow cycle in forward walk");
        let fwd = net
            .arcs(cur)
            .iter()
            .copied()
            .find(|&id| id % 2 == 0 && carries(id, net.flow(EdgeId(id))))?;
        delta = delta.min2(net.flow(EdgeId(fwd)));
        path.push(fwd);
        cur = net.head[fwd as usize] as NodeId;
    }
    Some((path, delta))
}

/// Cancels **all** flow routed through `node`, returning the amount drained.
///
/// This is the `remove_job` primitive: draining the job vertex removes its
/// contribution along complete source→sink paths, so the rest of the flow
/// remains feasible and can be re-augmented with
/// [`WarmStartable::re_max_flow`]. The node and its edges stay in the
/// network; zero its supply capacity with [`set_capacity`] to keep it dead.
///
/// # Panics
/// Panics if `node` is the source or the sink.
pub fn drain_node<T: FlowNum>(
    net: &mut FlowNetwork<T>,
    node: NodeId,
    source: NodeId,
    sink: NodeId,
) -> T {
    assert!(
        node != source && node != sink,
        "cannot drain the source or the sink"
    );
    net.ensure_csr();
    let mut total = T::zero();
    let outgoing: Vec<u32> = net
        .arcs(node)
        .iter()
        .copied()
        .filter(|&id| id % 2 == 0)
        .collect();
    for eid in outgoing {
        let f = net.flow(EdgeId(eid));
        if f.is_strictly_positive() {
            // One call cancels the full amount (or all but conservation
            // dust, which the tolerance-aware consumers ignore).
            total += cancel_through_edge(net, EdgeId(eid), f, source, sink);
        }
    }
    total
}

/// Sets forward edge `e`'s capacity to `new_cap`, preserving feasibility.
///
/// This is the `retarget` primitive for speed probes: raising a capacity
/// only grows the residual; lowering it below the current flow first
/// cancels the excess through `cancel_through_edge`. Returns the amount
/// of flow drained (zero when the capacity grew or still covers the flow).
///
/// # Panics
/// Panics on a negative `new_cap`.
pub fn set_capacity<T: FlowNum>(
    net: &mut FlowNetwork<T>,
    e: EdgeId,
    new_cap: T,
    source: NodeId,
    sink: NodeId,
) -> T {
    assert!(!(new_cap < T::zero()), "negative capacity");
    let mut drained = T::zero();
    while new_cap < net.flow(e) {
        let want = net.flow(e) - new_cap;
        let got = cancel_through_edge(net, e, want, source, sink);
        if !got.is_strictly_positive() {
            break; // float dust below representable progress
        }
        drained += got;
    }
    debug_assert!(
        T::leq(net.flow(e), new_cap, new_cap, DUST_EPS),
        "set_capacity left flow {:?} above capacity {:?}",
        net.flow(e),
        new_cap
    );
    net.caps[(e.0 / 2) as usize] = new_cap;
    // Re-derive the forward residual from the (possibly dusty) flow; clamp
    // so traversals never see a negative residual.
    let resid = new_cap - net.flow(e);
    net.res[e.0 as usize] = resid.max2(T::zero());
    drained
}

/// Pushes up to `amount` of flow along the forward-edge `path` (which must
/// be a contiguous source→sink chain), bounded by every edge's residual.
/// Returns the amount actually pushed (possibly zero).
///
/// This is the seeding primitive: a caller that *knows* a good path (the
/// previous plan routed this job into that interval) can install the flow
/// directly, for the cost of one bounds check per edge, leaving the engine
/// only the corrective augmentation work.
///
/// # Panics
/// Panics (debug) if consecutive path edges are not head-to-tail.
pub fn push_path<T: FlowNum>(net: &mut FlowNetwork<T>, path: &[EdgeId], amount: T) -> T {
    if path.is_empty() || !amount.is_strictly_positive() {
        return T::zero();
    }
    let mut delta = amount;
    for w in path.windows(2) {
        debug_assert_eq!(
            net.endpoints(w[0]).1,
            net.endpoints(w[1]).0,
            "push_path edges must chain head-to-tail"
        );
    }
    for &e in path {
        delta = delta.min2(net.residual(e));
    }
    if !delta.is_strictly_positive() {
        return T::zero();
    }
    for &e in path {
        net.res[e.0 as usize] -= delta;
        net.res[(e.0 ^ 1) as usize] += delta;
    }
    delta
}

/// Nodes reachable from `from` through residual arcs whose capacity is
/// *definitely* positive: residual > eps·scale, where scale is the arc
/// pair's original capacity. Exact arithmetic ignores `eps`.
///
/// After a max-flow run from the source this is the source side `S*` of a
/// minimum cut — a set that is **identical for every maximum flow** of the
/// network, which makes it the right certificate to hang deterministic,
/// engine-independent decisions on (the solver's removal rule). The plain
/// [`FlowNetwork::residual_reachable`] uses strict positivity and can flip
/// membership on float dust left by warm-start edits.
pub fn residual_reachable_tol<T: FlowNum>(
    net: &FlowNetwork<T>,
    from: NodeId,
    eps: f64,
) -> Vec<bool> {
    let (first_arc, arc_order) = net.csr_view();
    let mut seen = vec![false; net.num_nodes()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(u) = stack.pop() {
        for &aid in &arc_order[first_arc[u] as usize..first_arc[u + 1] as usize] {
            let v = net.head[aid as usize] as NodeId;
            if seen[v] {
                continue;
            }
            let scale = net.caps[(aid / 2) as usize].max2(T::one());
            if T::definitely_lt(T::zero(), net.res[aid as usize], scale, eps) {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_flow_dinic;
    use crate::validate::validate_flow;
    use mpss_numeric::rational::rat;
    use mpss_numeric::Rational;

    /// source 0 → jobs {1,2} → intervals {3,4} → sink 5.
    fn layered() -> FlowNetwork<f64> {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(6);
        net.add_edge(0, 1, 3.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(1, 3, 2.0);
        net.add_edge(1, 4, 2.0);
        net.add_edge(2, 4, 2.0);
        net.add_edge(3, 5, 2.0);
        net.add_edge(4, 5, 3.0);
        net
    }

    #[test]
    fn drain_node_removes_exactly_its_throughput() {
        let mut net = layered();
        let f = max_flow_dinic(&mut net, 0, 5);
        assert!((f - 5.0).abs() < 1e-12);
        let through_2 = net.flow(EdgeId(2)); // edge 0→2 has id 2·1
        let drained = drain_node(&mut net, 2, 0, 5);
        assert!((drained - through_2).abs() < 1e-12);
        assert_eq!(net.net_out_flow(2), 0.0);
        assert!((net.net_out_flow(0) - (f - drained)).abs() < 1e-12);
        validate_flow(&net, 0, 5, 1e-9).expect("drained flow stays feasible");
    }

    #[test]
    fn re_max_flow_restores_the_maximum_after_drain() {
        let mut net = layered();
        let mut dinic = Dinic::new();
        let f = dinic.max_flow(&mut net, 0, 5);
        drain_node(&mut net, 1, 0, 5);
        set_capacity(&mut net, EdgeId(0), 0.0, 0, 5); // kill job 1's supply
        let f2 = dinic.re_max_flow(&mut net, 0, 5);
        // Without job 1 only 0→2→4→5 remains, bottleneck 2.
        assert!((f2 - 2.0).abs() < 1e-12, "total warm flow {f2}");
        assert!(f2 < f);
        validate_flow(&net, 0, 5, 1e-9).unwrap();
    }

    #[test]
    fn push_relabel_warm_start_matches_dinic() {
        let mut a = layered();
        let mut b = layered();
        let mut dinic = Dinic::new();
        let mut pr = PushRelabel::new();
        dinic.max_flow(&mut a, 0, 5);
        pr.max_flow(&mut b, 0, 5);
        for net in [&mut a, &mut b] {
            drain_node(net, 1, 0, 5);
            set_capacity(net, EdgeId(0), 1.0, 0, 5);
        }
        let fa = dinic.re_max_flow(&mut a, 0, 5);
        let fb = pr.re_max_flow(&mut b, 0, 5);
        assert!((fa - fb).abs() < 1e-9, "dinic {fa} vs push-relabel {fb}");
        assert!((fa - 3.0).abs() < 1e-12);
    }

    #[test]
    fn set_capacity_raise_only_grows_residual() {
        let mut net = layered();
        max_flow_dinic(&mut net, 0, 5);
        let flow_before = net.flow(EdgeId(0));
        let drained = set_capacity(&mut net, EdgeId(0), 10.0, 0, 5);
        assert_eq!(drained, 0.0);
        assert_eq!(net.capacity(EdgeId(0)), 10.0);
        assert_eq!(net.flow(EdgeId(0)), flow_before);
        validate_flow(&net, 0, 5, 1e-9).unwrap();
    }

    #[test]
    fn set_capacity_lower_drains_the_excess() {
        let mut net = layered();
        max_flow_dinic(&mut net, 0, 5);
        let drained = set_capacity(&mut net, EdgeId(0), 1.0, 0, 5);
        assert!((drained - 2.0).abs() < 1e-12);
        assert!((net.flow(EdgeId(0)) - 1.0).abs() < 1e-12);
        assert!(net.residual(EdgeId(0)).abs() < 1e-12);
        validate_flow(&net, 0, 5, 1e-9).unwrap();
    }

    #[test]
    fn set_capacity_steps_over_a_dust_arc_to_cancel_the_excess() {
        // source 0 → job 1 → intervals {2, 3} → sink 4. The job's first arc
        // carries only float dust into interval 2, whose sink arc carries
        // nothing; the job's real flow runs through interval 3.
        let mut net: FlowNetwork<f64> = FlowNetwork::new(5);
        let supply = net.add_edge(0, 1, 3.0);
        let dusty = net.add_edge(1, 2, 2.0);
        let real = net.add_edge(1, 3, 2.0);
        net.add_edge(2, 4, 2.0);
        let out = net.add_edge(3, 4, 2.0);
        assert_eq!(push_path(&mut net, &[supply, real, out], 2.0), 2.0);
        for e in [supply, dusty] {
            net.res[e.0 as usize] -= 4.4e-16;
            net.res[(e.0 ^ 1) as usize] += 4.4e-16;
        }
        let drained = set_capacity(&mut net, supply, 1.0, 0, 4);
        assert!((drained - 1.0).abs() < 1e-12, "drained {drained}");
        assert!(net.flow(supply) <= 1.0 + 1e-12, "flow {}", net.flow(supply));
        assert!((net.flow(real) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rational_drain_is_dust_free() {
        let mut net: FlowNetwork<Rational> = FlowNetwork::new(4);
        net.add_edge(0, 1, rat(7, 3));
        net.add_edge(1, 2, rat(5, 3));
        net.add_edge(2, 3, rat(11, 3));
        max_flow_dinic(&mut net, 0, 3);
        let drained = drain_node(&mut net, 1, 0, 3);
        assert_eq!(drained, rat(5, 3));
        assert_eq!(net.net_out_flow(0), Rational::ZERO);
        validate_flow(&net, 0, 3, 0.0).unwrap();
    }

    #[test]
    fn reachability_certificate_is_flow_invariant() {
        // Both engines leave different flows; the residual-reachable set
        // from the source must nonetheless be identical (min-cut side).
        let mut a = layered();
        let mut b = layered();
        Dinic::new().max_flow(&mut a, 0, 5);
        PushRelabel::new().max_flow(&mut b, 0, 5);
        assert_eq!(
            residual_reachable_tol(&a, 0, 1e-9),
            residual_reachable_tol(&b, 0, 1e-9)
        );
    }
}
