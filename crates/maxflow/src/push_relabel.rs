//! Highest-label push–relabel maximum flow with the gap and global-relabel
//! heuristics.
//!
//! This is an independent second engine: the offline scheduler runs Dinic in
//! production, and the test suite cross-validates both engines against each
//! other on random networks and on real job × interval networks. The
//! generic push–relabel bound (`O(V²E)` non-saturating pushes) does not
//! depend on capacity values, so the engine is equally safe for `f64` and
//! exact rationals.
//!
//! Heuristics on top of the basic highest-label engine:
//!
//! * **Current-arc pointers** (`cur_arc`, absolute positions into the CSR
//!   arc arena): between two relabels of `u` no arc the pointer has passed
//!   can become admissible — `u`'s height is fixed and other heights only
//!   grow — so each node scans its arc list at most once per relabel.
//! * **Gap heuristic**: when a height level `< n` empties, every node
//!   strictly above it (and `≤ n`) is cut off from the sink and lifted past
//!   `n` at once.
//! * **Global relabeling**: initially and after every `n` relabels, a
//!   backward BFS from the sink over the residual graph recomputes exact
//!   distance labels. Heights are only ever *raised* (`max(old, bfs)`), the
//!   pointwise max of two valid labelings is valid, and sink-unreachable
//!   nodes are lifted to `n + 1` — sound because a residual arc from a
//!   sink-unreachable node can only lead to another sink-unreachable node
//!   or to the source (at height `n`). See DESIGN.md for the full argument.
//!
//! The heuristics change which maximum flow the engine finds (never its
//! value); every consumer that needs engine-independence hangs its decisions
//! on the min-cut certificate
//! [`residual_reachable_tol`](crate::warm::residual_reachable_tol), which is
//! identical for all maximum flows.

use crate::network::{FlowNetwork, NodeId};
use crate::{EngineStats, MaxFlow};
use mpss_numeric::FlowNum;
use std::collections::VecDeque;

const UNSET: u32 = u32::MAX;

/// Highest-label push–relabel engine.
#[derive(Default)]
pub struct PushRelabel {
    height: Vec<u32>,
    /// Nodes with positive excess, bucketed by height (highest first).
    buckets: Vec<Vec<u32>>,
    /// Number of nodes at each height (for the gap heuristic).
    height_count: Vec<u32>,
    /// Per-node current-arc pointer (absolute positions into `arc_order`).
    cur_arc: Vec<u32>,
    in_bucket: Vec<bool>,
    /// Scratch for the global-relabel BFS.
    gr_dist: Vec<u32>,
    gr_queue: VecDeque<u32>,
    relabels_since_global: u64,
    stats: EngineStats,
}

impl PushRelabel {
    /// Creates a fresh engine.
    pub fn new() -> PushRelabel {
        PushRelabel::default()
    }

    /// Final height labels of the last run, for invariant tests only.
    #[cfg(test)]
    pub(crate) fn heights(&self) -> &[u32] {
        &self.height
    }

    fn enqueue<T: FlowNum>(&mut self, v: usize, excess: &[T], s: NodeId, t: NodeId) {
        if v != s && v != t && !self.in_bucket[v] && excess[v].is_strictly_positive() {
            self.in_bucket[v] = true;
            let h = self.height[v] as usize;
            if h < self.buckets.len() {
                self.buckets[h].push(v as u32);
            }
        }
    }

    /// Recomputes exact distance-to-sink labels by backward BFS on the
    /// residual graph, lifts every height to at least its BFS label
    /// (sink-unreachable nodes to at least `n + 1`), and rebuilds the
    /// gap census, the buckets, and all current-arc pointers.
    fn global_relabel<T: FlowNum>(
        &mut self,
        net: &FlowNetwork<T>,
        excess: &[T],
        s: NodeId,
        t: NodeId,
    ) {
        self.stats.global_relabels += 1;
        self.relabels_since_global = 0;
        let n = net.num_nodes();
        // Backward BFS from `t`: arc `a` in `u`'s CSR list runs u → head[a],
        // so its twin `a ^ 1` runs head[a] → u; a strictly positive twin
        // residual means head[a] can still push towards u. The source is
        // never expanded or relabeled — it keeps its height `n`.
        self.gr_dist.clear();
        self.gr_dist.resize(n, UNSET);
        self.gr_dist[t] = 0;
        self.gr_queue.clear();
        self.gr_queue.push_back(t as u32);
        while let Some(u) = self.gr_queue.pop_front() {
            let u = u as usize;
            let du = self.gr_dist[u];
            for &aid in net.arcs(u) {
                let a = aid as usize;
                let v = net.head[a] as usize;
                if v != s && self.gr_dist[v] == UNSET && net.res[a ^ 1].is_strictly_positive() {
                    self.gr_dist[v] = du + 1;
                    self.gr_queue.push_back(v as u32);
                }
            }
        }
        // Heights never decrease (the termination argument needs
        // monotonicity), and the pointwise max of two valid labelings is
        // itself valid.
        for v in 0..n {
            if v == s || v == t {
                continue;
            }
            let bfs_h = if self.gr_dist[v] == UNSET {
                (n + 1) as u32
            } else {
                self.gr_dist[v]
            };
            if bfs_h > self.height[v] {
                self.height[v] = bfs_h;
            }
        }
        // Rebuild the gap census and highest-label buckets from scratch.
        self.height_count.iter_mut().for_each(|c| *c = 0);
        for v in 0..n {
            let h = self.height[v] as usize;
            if h < self.height_count.len() {
                self.height_count[h] += 1;
            }
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.in_bucket.iter_mut().for_each(|b| *b = false);
        // Heights moved wholesale, so every current-arc pointer restarts.
        self.cur_arc.clear();
        self.cur_arc.extend_from_slice(&net.first_arc[..n]);
        for v in 0..n {
            self.enqueue(v, excess, s, t);
        }
    }

    /// The engine behind [`MaxFlow::max_flow`].
    fn run<T: FlowNum>(&mut self, net: &mut FlowNetwork<T>, s: NodeId, t: NodeId) -> T {
        assert!(s != t, "source and sink must differ");
        net.ensure_csr();
        let n = net.num_nodes();
        self.height.clear();
        self.height.resize(n, 0);
        self.height[s] = n as u32;
        self.cur_arc.clear();
        self.cur_arc.extend_from_slice(&net.first_arc[..n]);
        self.in_bucket.clear();
        self.in_bucket.resize(n, false);
        self.buckets.clear();
        self.buckets.resize(2 * n + 1, Vec::new());
        self.height_count.clear();
        self.height_count.resize(2 * n + 1, 0);
        self.height_count[0] = (n - 1) as u32;
        self.height_count[n] = 1;
        self.relabels_since_global = 0;

        let mut excess: Vec<T> = vec![T::zero(); n];

        // Saturate all source-adjacent edges.
        for pos in net.first_arc[s] as usize..net.first_arc[s + 1] as usize {
            let a = net.arc_order[pos] as usize;
            let cap = net.res[a];
            if cap.is_strictly_positive() {
                let v = net.head[a] as usize;
                net.res[a] -= cap;
                net.res[a ^ 1] += cap;
                excess[v] += cap;
                excess[s] -= cap;
                self.enqueue(v, &excess, s, t);
            }
        }
        // Exact initial distance labels (the saturation above just removed
        // every residual arc out of `s`, so the BFS labeling is valid).
        self.global_relabel(net, &excess, s, t);
        let global_period = (n as u64).max(1);

        // Highest-label selection.
        let mut hi = 2 * n;
        loop {
            while hi > 0 && self.buckets[hi].is_empty() {
                hi -= 1;
            }
            if hi == 0 && self.buckets[0].is_empty() {
                break;
            }
            let u = match self.buckets[hi].pop() {
                Some(u) => u as usize,
                None => break,
            };
            self.in_bucket[u] = false;
            if !excess[u].is_strictly_positive() {
                continue;
            }

            // Discharge u.
            let mut did_global = false;
            while excess[u].is_strictly_positive() {
                if self.cur_arc[u] >= net.first_arc[u + 1] {
                    // Relabel.
                    self.stats.relabels += 1;
                    self.relabels_since_global += 1;
                    let old_h = self.height[u] as usize;
                    let mut min_h = u32::MAX;
                    for &aid in net.arcs(u) {
                        let a = aid as usize;
                        if net.res[a].is_strictly_positive() {
                            min_h = min_h.min(self.height[net.head[a] as usize] + 1);
                        }
                    }
                    if min_h == u32::MAX || min_h as usize > 2 * n {
                        // No admissible arc will ever appear; excess is stuck
                        // (flows back implicitly via final heights > 2n).
                        self.height[u] = (2 * n) as u32 + 1;
                        break;
                    }
                    self.height_count[old_h] -= 1;
                    // Gap heuristic: nobody left at old_h ⇒ everything
                    // between old_h and n is unreachable from t.
                    if self.height_count[old_h] == 0 && old_h < n {
                        self.stats.gap_events += 1;
                        for v in 0..n {
                            let hv = self.height[v] as usize;
                            if hv > old_h && hv <= n && v != s {
                                self.height_count[hv] -= 1;
                                self.height[v] = (n + 1) as u32;
                                self.height_count[n + 1] += 1;
                            }
                        }
                    }
                    self.height[u] = min_h;
                    if (min_h as usize) <= 2 * n {
                        self.height_count[min_h as usize] += 1;
                    }
                    self.cur_arc[u] = net.first_arc[u];
                    self.stats.current_arc_resets += 1;
                    if self.relabels_since_global >= global_period {
                        self.global_relabel(net, &excess, s, t);
                        did_global = true;
                        break;
                    }
                    continue;
                }
                let a = net.arc_order[self.cur_arc[u] as usize] as usize;
                let v = net.head[a] as usize;
                let residual = net.res[a];
                if residual.is_strictly_positive() && self.height[u] == self.height[v] + 1 {
                    // Push.
                    self.stats.pushes += 1;
                    let delta = excess[u].min2(residual);
                    net.res[a] -= delta;
                    net.res[a ^ 1] += delta;
                    excess[u] -= delta;
                    excess[v] += delta;
                    self.enqueue(v, &excess, s, t);
                } else {
                    self.cur_arc[u] += 1;
                }
            }
            if did_global {
                // Buckets were rebuilt (u re-enqueued if it kept excess);
                // restart the highest-label scan from the top.
                hi = 2 * n;
                continue;
            }
            if excess[u].is_strictly_positive() {
                // Stuck node (height > 2n) — drop it; its excess drains back
                // towards the source conceptually and does not reach t.
                continue;
            }
            hi = 2 * n;
        }

        // With stuck nodes possible, the flow on edges into the sink is the
        // reliable max-flow value; but excess trapped at intermediate nodes
        // would violate conservation. Cancel trapped excess by returning it
        // to the source along reverse residual paths (standard second
        // phase).
        cancel_trapped_excess(net, &mut excess, s, t);

        excess[t]
    }
}

impl<T: FlowNum> MaxFlow<T> for PushRelabel {
    fn max_flow(&mut self, net: &mut FlowNetwork<T>, s: NodeId, t: NodeId) -> T {
        self.run(net, s, t)
    }

    fn name(&self) -> &'static str {
        "push-relabel"
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }
}

/// Second phase: route any excess trapped at intermediate nodes back to the
/// source so the final edge assignment satisfies flow conservation.
///
/// Follows incoming-flow edges backwards (decomposition style): repeatedly
/// pick a node with positive excess and walk flow-carrying edges back
/// towards the source, reducing flow along the walk by the trapped amount.
fn cancel_trapped_excess<T: FlowNum>(
    net: &mut FlowNetwork<T>,
    excess: &mut [T],
    s: NodeId,
    t: NodeId,
) {
    net.ensure_csr();
    let n = net.num_nodes();
    for u in 0..n {
        if u == s || u == t {
            continue;
        }
        while excess[u].is_strictly_positive() {
            // Find a cycle-free walk u → s along edges currently carrying
            // flow *into* each walk node, via DFS with visitation marks.
            let mut mark = vec![false; n];
            let mut path: Vec<usize> = Vec::new(); // arc ids (forward arcs carrying flow)
            let mut cur = u;
            mark[u] = true;
            let mut bottleneck = excess[u];
            'walk: loop {
                if cur == s {
                    break 'walk;
                }
                let mut advanced = false;
                for &aid in net.arcs(cur) {
                    // A residual twin at `cur` with positive residual means
                    // the forward edge (into `cur`) carries flow.
                    if aid % 2 == 1 {
                        let a = aid as usize;
                        let fwd = a ^ 1;
                        let from = net.head[a] as usize;
                        let carried = net.res[a];
                        if carried.is_strictly_positive() && !mark[from] {
                            bottleneck = bottleneck.min2(carried);
                            path.push(fwd);
                            mark[from] = true;
                            cur = from;
                            advanced = true;
                            break;
                        }
                    }
                }
                if !advanced {
                    // Trapped excess must be routable back to s by flow
                    // decomposition; walking into a dead end means the walk
                    // entered a flow cycle. Cancel the cycle by zeroing the
                    // last edge and retry.
                    let a = match path.pop() {
                        Some(a) => a,
                        None => return, // defensive: nothing to cancel
                    };
                    let carried = net.res[a ^ 1];
                    net.res[a] += carried;
                    net.res[a ^ 1] -= carried;
                    // Restart the walk from scratch.
                    path.clear();
                    mark.iter_mut().for_each(|m| *m = false);
                    mark[u] = true;
                    cur = u;
                    bottleneck = excess[u];
                    continue 'walk;
                }
            }
            // Reduce flow along the walk by the bottleneck.
            for &a in &path {
                net.res[a] += bottleneck;
                net.res[a ^ 1] -= bottleneck;
            }
            excess[u] -= bottleneck;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_flow;
    use mpss_numeric::rational::rat;
    use mpss_numeric::Rational;

    fn pr<T: FlowNum>(net: &mut FlowNetwork<T>, s: usize, t: usize) -> T {
        PushRelabel::new().max_flow(net, s, t)
    }

    #[test]
    fn single_edge() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(2);
        net.add_edge(0, 1, 3.5);
        assert_eq!(pr(&mut net, 0, 1), 3.5);
    }

    #[test]
    fn classic_clrs_network() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(6);
        net.add_edge(0, 1, 16.0);
        net.add_edge(0, 2, 13.0);
        net.add_edge(1, 2, 10.0);
        net.add_edge(2, 1, 4.0);
        net.add_edge(1, 3, 12.0);
        net.add_edge(3, 2, 9.0);
        net.add_edge(2, 4, 14.0);
        net.add_edge(4, 3, 7.0);
        net.add_edge(3, 5, 20.0);
        net.add_edge(4, 5, 4.0);
        assert_eq!(pr(&mut net, 0, 5), 23.0);
        validate_flow(&net, 0, 5, 1e-9).expect("conservation after PR");
    }

    #[test]
    fn bottleneck_forces_trapped_excess() {
        // Source saturates 0→1 with 10, but only 1 unit can continue; the
        // second phase must cancel the other 9 to keep conservation.
        let mut net: FlowNetwork<f64> = FlowNetwork::new(3);
        let e01 = net.add_edge(0, 1, 10.0);
        net.add_edge(1, 2, 1.0);
        assert_eq!(pr(&mut net, 0, 2), 1.0);
        validate_flow(&net, 0, 2, 1e-9).expect("conservation");
        assert_eq!(net.flow(e01), 1.0);
    }

    #[test]
    fn exact_rational() {
        let mut net: FlowNetwork<Rational> = FlowNetwork::new(4);
        net.add_edge(0, 1, rat(2, 3));
        net.add_edge(0, 2, rat(1, 3));
        net.add_edge(1, 3, rat(1, 2));
        net.add_edge(2, 3, rat(1, 2));
        let f = pr(&mut net, 0, 3);
        assert_eq!(f, rat(5, 6));
        validate_flow(&net, 0, 3, 0.0).expect("conservation");
    }

    #[test]
    fn disconnected_gives_zero() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 5.0);
        net.add_edge(2, 3, 5.0);
        assert_eq!(pr(&mut net, 0, 3), 0.0);
        validate_flow(&net, 0, 3, 1e-9).expect("conservation");
    }

    #[test]
    fn zigzag_network() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(0, 2, 1.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        assert_eq!(pr(&mut net, 0, 3), 2.0);
        validate_flow(&net, 0, 3, 1e-9).expect("conservation");
    }

    #[test]
    fn counts_the_heuristic_stats() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(6);
        net.add_edge(0, 1, 3.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(1, 3, 2.0);
        net.add_edge(1, 4, 2.0);
        net.add_edge(2, 4, 2.0);
        net.add_edge(3, 5, 2.0);
        net.add_edge(4, 5, 3.0);
        let mut engine = PushRelabel::new();
        let f: f64 = engine.max_flow(&mut net, 0, 5);
        assert_eq!(f, 5.0);
        let stats = <PushRelabel as MaxFlow<f64>>::stats(&engine);
        // The initial exact-labeling pass always fires.
        assert!(stats.global_relabels >= 1);
        // Every non-stuck relabel resets that node's current-arc pointer.
        assert!(stats.current_arc_resets <= stats.relabels);
        validate_flow(&net, 0, 5, 1e-9).expect("conservation");
    }

    #[test]
    fn deep_chain_triggers_periodic_global_relabel() {
        // A fat chain into a unit-capacity sink edge, with extra source arcs
        // dropping excess mid-chain: all but one unit must climb past n and
        // walk back to the source, so the relabel count exceeds the periodic
        // threshold (n) and a second global relabel fires beyond the
        // unconditional initial pass.
        let n = 16;
        let mut net: FlowNetwork<f64> = FlowNetwork::new(n);
        for v in 0..n - 2 {
            net.add_edge(v, v + 1, 8.0);
        }
        net.add_edge(n - 2, n - 1, 1.0);
        for k in 2..7 {
            net.add_edge(0, k, 5.0);
        }
        let mut engine = PushRelabel::new();
        let f: f64 = engine.max_flow(&mut net, 0, n - 1);
        assert_eq!(f, 1.0);
        validate_flow(&net, 0, n - 1, 1e-9).expect("conservation");
        assert!(
            <PushRelabel as MaxFlow<f64>>::stats(&engine).global_relabels >= 2,
            "expected a periodic global relabel, got stats {:?}",
            <PushRelabel as MaxFlow<f64>>::stats(&engine)
        );
    }

    #[test]
    fn labels_stay_bounded_after_global_relabels() {
        // Random-ish dense network exercised enough to fire several global
        // relabels; afterwards every height must be ≤ 2n + 1 (the stuck
        // sentinel) — the property tests assert the sharper ≤ 2n bound for
        // non-stuck nodes.
        let n = 12;
        let mut net: FlowNetwork<f64> = FlowNetwork::new(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for u in 0..n {
            for v in 0..n {
                if u != v && next() < 0.4 {
                    net.add_edge(u, v, 1.0 + next() * 4.0);
                }
            }
        }
        let mut engine = PushRelabel::new();
        let f: f64 = engine.max_flow(&mut net, 0, n - 1);
        assert!(f >= 0.0);
        for v in 0..n {
            assert!(
                engine.height[v] as usize <= 2 * n + 1,
                "height[{v}] = {} out of range",
                engine.height[v]
            );
        }
        validate_flow(&net, 0, n - 1, 1e-9).expect("conservation");
    }
}
