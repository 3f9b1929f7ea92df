//! Property-based tests for the graph substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use himap_graph::{has_cycle, topological_sort, DiGraph, NodeId};
use proptest::prelude::*;

/// A random DAG described by its node count and a set of forward edges
/// `(u, v)` with `u < v` (forward edges guarantee acyclicity).
fn arb_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n - 1, 0..n), 0..80).prop_map(move |pairs| {
            pairs
                .into_iter()
                .map(|(u, v)| {
                    let v = u + 1 + (v % (usize::max(1, n - u - 1)));
                    (u, v.min(n - 1).max(u + 1))
                })
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize)]) -> DiGraph<usize, ()> {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i)).collect();
    for &(u, v) in edges {
        g.add_edge(ids[u], ids[v], ());
    }
    g
}

proptest! {
    #[test]
    fn toposort_respects_all_edges((n, edges) in arb_dag()) {
        let g = build(n, &edges);
        let order = topological_sort(&g).expect("forward-edge graphs are DAGs");
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![0usize; g.node_count()];
        for (i, node) in order.iter().enumerate() {
            pos[node.index()] = i;
        }
        for e in g.edge_refs() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn forward_edge_graphs_are_acyclic((n, edges) in arb_dag()) {
        let g = build(n, &edges);
        prop_assert!(!has_cycle(&g));
    }

    #[test]
    fn adding_back_edge_on_path_creates_cycle((n, edges) in arb_dag()) {
        let mut g = build(n, &edges);
        let first = { g.edge_refs().next().map(|e| (e.src, e.dst)) };
        if let Some((src, dst)) = first {
            g.add_edge(dst, src, ());
            prop_assert!(has_cycle(&g));
        }
    }

    #[test]
    fn degrees_sum_to_edge_count((n, edges) in arb_dag()) {
        let g = build(n, &edges);
        let out_sum: usize = g.node_ids().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.node_ids().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }
}
