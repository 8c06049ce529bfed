//! Dinic's blocking-flow maximum-flow algorithm.
//!
//! Complexity `O(V²E)` in the number of *augmentations*, independent of
//! capacity values — which is what makes it safe for real-valued (and exact
//! rational) capacities: termination never relies on integrality.
//!
//! On the bipartite job × interval networks produced by the offline
//! scheduler (unit-style capacities, 3 levels), Dinic behaves like
//! Hopcroft–Karp and is effectively `O(E √V)`.
//!
//! The engine iterates the network's flat CSR arc arena directly: `it[u]`
//! is an absolute position into `arc_order`, initialised from `first_arc`
//! each phase, so the inner loops touch three contiguous `u32` arrays
//! instead of chasing per-node `Vec`s. Because the CSR lists each node's
//! arcs in insertion order, the traversal — and therefore every flow
//! assignment — is bit-identical to the legacy adjacency-list engine
//! (asserted by the differential tests against [`crate::reference`]).

use crate::network::{FlowNetwork, NodeId};
use crate::{EngineStats, MaxFlow};
use mpss_numeric::FlowNum;
use std::collections::VecDeque;

/// Dinic engine with reusable scratch buffers.
///
/// Reusing an engine across many flow computations (the offline algorithm
/// performs `O(n²)` of them) avoids re-allocating the level/iterator arrays
/// every round.
#[derive(Default)]
pub struct Dinic {
    level: Vec<u32>,
    /// Per-node cursor into `arc_order` (absolute CSR positions).
    it: Vec<u32>,
    queue: VecDeque<u32>,
    stats: EngineStats,
}

const UNREACHED: u32 = u32::MAX;

impl Dinic {
    /// Creates a fresh engine.
    pub fn new() -> Dinic {
        Dinic::default()
    }

    /// BFS from `s` on the residual graph, building the level graph.
    /// Returns `true` if `t` is reachable.
    fn bfs<T: FlowNum>(&mut self, net: &FlowNetwork<T>, s: NodeId, t: NodeId) -> bool {
        self.stats.bfs_phases += 1;
        self.level.clear();
        self.level.resize(net.num_nodes(), UNREACHED);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push_back(s as u32);
        while let Some(u) = self.queue.pop_front() {
            let u = u as usize;
            for &aid in net.arcs(u) {
                let a = aid as usize;
                let v = net.head[a] as usize;
                if self.level[v] == UNREACHED && net.res[a].is_strictly_positive() {
                    self.level[v] = self.level[u] + 1;
                    if v == t {
                        // Early exit is safe: we only need levels on
                        // shortest paths, and BFS guarantees any node at a
                        // level beyond t's is useless.
                        continue;
                    }
                    self.queue.push_back(v as u32);
                }
            }
        }
        self.level[t] != UNREACHED
    }

    /// DFS that pushes a blocking flow along the level graph.
    fn dfs<T: FlowNum>(
        &mut self,
        net: &mut FlowNetwork<T>,
        u: NodeId,
        t: NodeId,
        pushed: Option<T>,
    ) -> Option<T> {
        if u == t {
            return pushed;
        }
        while self.it[u] < net.first_arc[u + 1] {
            let a = net.arc_order[self.it[u] as usize] as usize;
            let v = net.head[a] as usize;
            let residual = net.res[a];
            if residual.is_strictly_positive() && self.level[v] == self.level[u] + 1 {
                let bottleneck = match pushed {
                    Some(p) => Some(p.min2(residual)),
                    None => Some(residual),
                };
                if let Some(got) = self.dfs(net, v, t, bottleneck) {
                    net.res[a] -= got;
                    net.res[a ^ 1] += got;
                    return Some(got);
                }
            }
            self.it[u] += 1;
        }
        // Dead end: prune this node for the rest of the phase.
        self.level[u] = UNREACHED;
        None
    }
}

impl<T: FlowNum> MaxFlow<T> for Dinic {
    fn max_flow(&mut self, net: &mut FlowNetwork<T>, s: NodeId, t: NodeId) -> T {
        assert!(s != t, "source and sink must differ");
        net.ensure_csr();
        let mut total = T::zero();
        while self.bfs(net, s, t) {
            self.it.clear();
            self.it.extend_from_slice(&net.first_arc[..net.num_nodes()]);
            while let Some(got) = self.dfs(net, s, t, None) {
                self.stats.augmenting_paths += 1;
                total += got;
            }
        }
        total
    }

    fn name(&self) -> &'static str {
        "dinic"
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpss_numeric::rational::rat;
    use mpss_numeric::Rational;

    #[test]
    fn single_edge() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(2);
        net.add_edge(0, 1, 3.5);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 1), 3.5);
    }

    #[test]
    fn series_takes_min() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(3);
        net.add_edge(0, 1, 5.0);
        net.add_edge(1, 2, 2.0);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 2), 2.0);
    }

    #[test]
    fn parallel_paths_add() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 3.0);
        net.add_edge(1, 3, 3.0);
        net.add_edge(0, 2, 4.0);
        net.add_edge(2, 3, 4.0);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 3), 7.0);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS Figure 26.6 network; max flow 23.
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
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 5), 23.0);
    }

    #[test]
    fn requires_augmenting_through_residual_edge() {
        // The classic "cross" network where a naive greedy path assignment
        // must be undone via the residual edge.
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(0, 2, 1.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 3), 2.0);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 5.0);
        net.add_edge(2, 3, 5.0);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 3), 0.0);
    }

    #[test]
    fn exact_rational_flow() {
        let mut net: FlowNetwork<Rational> = FlowNetwork::new(3);
        net.add_edge(0, 1, rat(1, 3));
        net.add_edge(0, 1, rat(1, 6));
        net.add_edge(1, 2, rat(5, 12));
        let f = crate::max_flow_dinic(&mut net, 0, 2);
        assert_eq!(f, rat(5, 12)); // min(1/3 + 1/6, 5/12) = 5/12 exactly
    }

    #[test]
    fn flow_value_matches_net_out_flow() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(1, 3, 1.5);
        net.add_edge(2, 3, 1.0);
        let f = crate::max_flow_dinic(&mut net, 0, 3);
        assert_eq!(f, 2.5);
        assert_eq!(net.net_out_flow(0), 2.5);
        assert_eq!(net.net_out_flow(3), -2.5);
    }

    #[test]
    fn bipartite_matching_shape() {
        // 3 jobs × 3 intervals, unit capacities: perfect matching = 3.
        let s = 0;
        let t = 7;
        let mut net: FlowNetwork<f64> = FlowNetwork::new(8);
        for j in 1..=3 {
            net.add_edge(s, j, 1.0);
        }
        for i in 4..=6 {
            net.add_edge(i, t, 1.0);
        }
        net.add_edge(1, 4, 1.0);
        net.add_edge(1, 5, 1.0);
        net.add_edge(2, 5, 1.0);
        net.add_edge(3, 5, 1.0);
        net.add_edge(3, 6, 1.0);
        assert_eq!(crate::max_flow_dinic(&mut net, s, t), 3.0);
    }

    #[test]
    fn rerun_after_reset_gives_same_value() {
        let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        let f1 = crate::max_flow_dinic(&mut net, 0, 3);
        net.reset_flows();
        let f2 = crate::max_flow_dinic(&mut net, 0, 3);
        assert_eq!(f1, f2);
        assert_eq!(f1, 2.0);
    }

    #[test]
    fn incremental_edge_between_runs_is_picked_up() {
        // The CSR must be rebuilt transparently when the topology changed
        // between two runs on the same network.
        let mut net: FlowNetwork<f64> = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0);
        net.add_edge(1, 2, 1.0);
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 2), 1.0);
        net.add_edge(0, 2, 2.0);
        // The second run augments on top of the retained flow of 1.
        assert_eq!(crate::max_flow_dinic(&mut net, 0, 2), 2.0);
        assert_eq!(net.net_out_flow(0), 3.0);
    }
}
