//! Maximum-flow substrate for the `mpss` workspace.
//!
//! The offline algorithm of Albers–Antoniadis–Greiner (SPAA 2011) reduces
//! each phase of the optimal multi-processor speed-scaling computation to a
//! maximum-flow problem on the bipartite job × interval network of the
//! paper's Fig. 1. This crate provides that substrate from scratch:
//!
//! * [`FlowNetwork`] — a residual-edge-paired network representation,
//!   generic over [`FlowNum`] so it runs in both
//!   guarded `f64` and exact rational arithmetic;
//! * [`dinic::Dinic`] — Dinic's blocking-flow algorithm (`O(V²E)`
//!   augmentations independent of capacity values, hence safe for real
//!   capacities);
//! * [`push_relabel::PushRelabel`] — highest-label push–relabel with the gap
//!   heuristic, as an independent second engine used to cross-validate;
//! * [`validate`] — an engine-agnostic checker for capacity constraints and
//!   flow conservation;
//! * [`warm`] — warm-start primitives (drain a vertex's flow, retune a
//!   capacity in place, re-augment from the retained feasible flow) so the
//!   incremental solvers reuse the previous round's flow;
//! * [`dot`] — Graphviz export used to regenerate the paper's Fig. 1.
//!
//! ```
//! use mpss_maxflow::{FlowNetwork, max_flow_dinic, max_flow_push_relabel};
//! use mpss_maxflow::validate::validate_flow;
//!
//! // A diamond network: 0 → {1, 2} → 3.
//! let mut net: FlowNetwork<f64> = FlowNetwork::new(4);
//! net.add_edge(0, 1, 3.0);
//! net.add_edge(1, 3, 2.0);
//! net.add_edge(0, 2, 1.0);
//! net.add_edge(2, 3, 4.0);
//!
//! let mut other = net.clone();
//! let f = max_flow_dinic(&mut net, 0, 3);
//! assert_eq!(f, 3.0);                                   // 2 over the top + 1 below
//! assert_eq!(max_flow_push_relabel(&mut other, 0, 3), f); // engines agree
//! validate_flow(&net, 0, 3, 1e-9).unwrap();             // conservation holds
//! ```

// `!(a < b)` on our FlowNum types deliberately reads as "b ≤ a, treating
// incomparable (impossible for validated inputs) as false"; rewriting via
// partial_cmp would obscure the tolerance-free intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod decompose;
pub mod dinic;
pub mod dot;
pub mod network;
pub mod push_relabel;
pub mod reference;
pub mod validate;
pub mod warm;

pub use decompose::{decompose_flow, FlowPath};
pub use dinic::Dinic;
pub use network::{EdgeId, FlowNetwork, NodeId};
pub use push_relabel::PushRelabel;
pub use warm::{drain_node, push_path, residual_reachable_tol, set_capacity, WarmStartable};

use mpss_numeric::FlowNum;

/// Work counters of a max-flow engine, accumulated across
/// [`MaxFlow::max_flow`] calls until [`MaxFlow::reset_stats`].
///
/// Wall time alone cannot separate "the algorithm did less work" from "the
/// machine was faster"; these counters are the engine-level work measures the
/// ablation experiments and run reports compare. Dinic fills the first two
/// fields, push–relabel the rest; a field an engine never touches stays
/// zero.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Dinic: level graphs built (BFS passes over the residual graph).
    pub bfs_phases: u64,
    /// Dinic: augmenting paths pushed inside blocking flows.
    pub augmenting_paths: u64,
    /// Push–relabel: push operations (saturating and not).
    pub pushes: u64,
    /// Push–relabel: relabel operations.
    pub relabels: u64,
    /// Push–relabel: gap-heuristic firings (a height level emptied and
    /// everything above it was lifted past `n`).
    pub gap_events: u64,
    /// Push–relabel: global-relabel passes (backward BFS from the sink
    /// recomputing exact distance labels; fired once at initialization and
    /// again after every `n` relabels).
    pub global_relabels: u64,
    /// Push–relabel: current-arc pointer resets driven by a (non-stuck)
    /// relabel of the node. Bulk resets done by a global relabel are
    /// accounted under `global_relabels`, not here.
    pub current_arc_resets: u64,
}

impl EngineStats {
    /// Total primitive operations — a single scalar "work done" figure for
    /// cross-engine tables. Pointer resets are bookkeeping, not graph work,
    /// so they are excluded; global relabels count once each (their BFS cost
    /// is amortized against the relabels they replace).
    pub fn total_ops(&self) -> u64 {
        self.bfs_phases
            + self.augmenting_paths
            + self.pushes
            + self.relabels
            + self.gap_events
            + self.global_relabels
    }
}

/// A maximum-flow engine over a [`FlowNetwork`].
///
/// Engines mutate the network's flow values in place and return the value of
/// the computed maximum flow (total net flow out of `source`).
pub trait MaxFlow<T: FlowNum> {
    /// Computes a maximum `source` → `sink` flow, leaving the per-edge flow
    /// assignment inside `net`.
    fn max_flow(&mut self, net: &mut FlowNetwork<T>, source: NodeId, sink: NodeId) -> T;

    /// Name for logs and bench labels.
    fn name(&self) -> &'static str;

    /// Work counters accumulated since construction or the last
    /// [`reset_stats`](MaxFlow::reset_stats). The counters cost one integer
    /// increment per primitive operation, so they are always on.
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Zeroes the work counters.
    fn reset_stats(&mut self) {}
}

/// Convenience: run Dinic's algorithm on `net`.
pub fn max_flow_dinic<T: FlowNum>(net: &mut FlowNetwork<T>, s: NodeId, t: NodeId) -> T {
    Dinic::default().max_flow(net, s, t)
}

/// Convenience: run push–relabel on `net`.
pub fn max_flow_push_relabel<T: FlowNum>(net: &mut FlowNetwork<T>, s: NodeId, t: NodeId) -> T {
    PushRelabel::default().max_flow(net, s, t)
}

#[cfg(test)]
mod tests;
