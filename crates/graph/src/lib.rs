//! Index-based directed graph substrate for the HiMap CGRA mapper.
//!
//! The mapper manipulates three families of graphs — data-flow graphs (DFG),
//! iteration-space dependency graphs (ISDG) and modulo routing-resource graphs
//! (MRRG) — all of which are *append-only* directed graphs with typed node and
//! edge weights. [`DiGraph`] is tuned for exactly that usage: `u32` indices,
//! intrusive adjacency lists, no node/edge removal, cache-friendly iteration.
//!
//! # Example
//!
//! ```
//! use himap_graph::DiGraph;
//!
//! let mut g: DiGraph<&str, u32> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! g.add_edge(a, b, 7);
//! assert_eq!(g.out_neighbors(a).collect::<Vec<_>>(), vec![b]);
//! ```

#![forbid(unsafe_code)]

mod algo;
mod digraph;
mod dot;

pub use algo::{has_cycle, reachable_from, topological_sort, CycleError};
pub use digraph::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use dot::Dot;
