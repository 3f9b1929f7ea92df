//! Graph algorithms used throughout the mapper: topological sort, cycle
//! detection and reachability.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use crate::digraph::{DiGraph, NodeId};

/// Error returned by [`topological_sort`] when the graph contains a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node that participates in some cycle.
    pub node: NodeId,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph contains a cycle through {:?}", self.node)
    }
}

impl Error for CycleError {}

/// Computes a topological order of the nodes using Kahn's algorithm.
///
/// Ties are broken by node id so the order is deterministic.
///
/// # Errors
///
/// Returns [`CycleError`] if the graph is not acyclic.
///
/// # Example
///
/// ```
/// use himap_graph::{DiGraph, topological_sort};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, ());
/// assert_eq!(topological_sort(&g).unwrap(), vec![a, b]);
/// ```
pub fn topological_sort<N, E>(graph: &DiGraph<N, E>) -> Result<Vec<NodeId>, CycleError> {
    let mut in_deg: Vec<usize> = graph.node_ids().map(|n| graph.in_degree(n)).collect();
    // Min-heap on node index keeps the order deterministic.
    let mut ready: BinaryHeap<Reverse<usize>> =
        graph.node_ids().filter(|n| in_deg[n.index()] == 0).map(|n| Reverse(n.index())).collect();
    let mut order = Vec::with_capacity(graph.node_count());
    while let Some(Reverse(idx)) = ready.pop() {
        let node = NodeId::from_index(idx);
        order.push(node);
        for succ in graph.out_neighbors(node) {
            let d = &mut in_deg[succ.index()];
            *d -= 1;
            if *d == 0 {
                ready.push(Reverse(succ.index()));
            }
        }
    }
    // The sort is complete exactly when every node drained to in-degree 0;
    // otherwise any node with remaining in-degree witnesses a cycle.
    match graph.node_ids().find(|n| in_deg[n.index()] > 0) {
        None => Ok(order),
        Some(node) => Err(CycleError { node }),
    }
}

/// `true` if the graph contains at least one directed cycle.
pub fn has_cycle<N, E>(graph: &DiGraph<N, E>) -> bool {
    topological_sort(graph).is_err()
}

/// Returns a boolean mask of nodes reachable from `start` (including `start`).
pub fn reachable_from<N, E>(graph: &DiGraph<N, E>, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; graph.node_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(node) = stack.pop() {
        for succ in graph.out_neighbors(node) {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    seen
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toposort_diamond() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let order = topological_sort(&g).unwrap();
        assert_eq!(order, vec![a, b, c, d]);
    }

    #[test]
    fn toposort_detects_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topological_sort(&g).is_err());
        assert!(has_cycle(&g));
    }

    #[test]
    fn toposort_empty_and_isolated() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(topological_sort(&g).unwrap(), vec![]);
        let a = g.add_node(());
        let b = g.add_node(());
        assert_eq!(topological_sort(&g).unwrap(), vec![a, b]);
        assert!(!has_cycle(&g));
    }

    #[test]
    fn reachability() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(d, a, ());
        let r = reachable_from(&g, a);
        assert_eq!(r, vec![true, true, true, false]);
    }
}
