//! The core append-only directed graph type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are dense: the `i`-th node added receives id `i`. They are only
/// meaningful for the graph that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// Identifier of an edge inside a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl NodeId {
    /// Returns the dense index of this node (the order it was added in).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Useful when node ids are stored in parallel arrays.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    // The panic is part of the documented contract.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }
}

impl EdgeId {
    /// Returns the dense index of this edge (the order it was added in).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    // The panic is part of the documented contract.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index overflows u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct NodeSlot<N> {
    weight: N,
    first_out: u32,
    first_in: u32,
    out_degree: u32,
    in_degree: u32,
}

#[derive(Clone, Debug)]
struct EdgeSlot<E> {
    weight: E,
    src: u32,
    dst: u32,
    next_out: u32,
    next_in: u32,
}

/// A borrowed view of one edge: its id, endpoints and weight.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef<'a, E> {
    /// Edge identifier.
    pub id: EdgeId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge weight.
    pub weight: &'a E,
}

/// An append-only directed multigraph with typed node and edge weights.
///
/// Parallel edges and self-loops are allowed (MRRGs use neither, DFGs may use
/// parallel edges for an operation consuming the same value twice).
///
/// # Example
///
/// ```
/// use himap_graph::DiGraph;
///
/// let mut g: DiGraph<char, ()> = DiGraph::new();
/// let a = g.add_node('a');
/// let b = g.add_node('b');
/// let e = g.add_edge(a, b, ());
/// assert_eq!(g.edge_endpoints(e), (a, b));
/// assert_eq!(g[a], 'a');
/// ```
#[derive(Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeSlot<N>>,
    edges: Vec<EdgeSlot<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: fmt::Debug, E: fmt::Debug> fmt::Debug for DiGraph<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph {{ {} nodes, {} edges", self.node_count(), self.edge_count())?;
        for id in self.node_ids() {
            writeln!(f, "  {:?}: {:?}", id, self[id])?;
        }
        for e in self.edge_refs() {
            writeln!(f, "  {:?}: {:?} -> {:?} ({:?})", e.id, e.src, e.dst, e.weight)?;
        }
        write!(f, "}}")
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph { nodes: Vec::new(), edges: Vec::new() }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph { nodes: Vec::with_capacity(nodes), edges: Vec::with_capacity(edges) }
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX` nodes.
    // The panic is part of the documented contract.
    #[allow(clippy::expect_used)]
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("node count overflows u32");
        self.nodes.push(NodeSlot {
            weight,
            first_out: NONE,
            first_in: NONE,
            out_degree: 0,
            in_degree: 0,
        });
        NodeId(id)
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph, or if the graph
    /// already holds `u32::MAX` edges.
    // The panic is part of the documented contract.
    #[allow(clippy::expect_used)]
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "edge source {src:?} out of bounds");
        assert!(dst.index() < self.nodes.len(), "edge destination {dst:?} out of bounds");
        let id = u32::try_from(self.edges.len()).expect("edge count overflows u32");
        let src_slot_first = self.nodes[src.index()].first_out;
        let dst_slot_first = self.nodes[dst.index()].first_in;
        self.edges.push(EdgeSlot {
            weight,
            src: src.0,
            dst: dst.0,
            next_out: src_slot_first,
            next_in: dst_slot_first,
        });
        let src_slot = &mut self.nodes[src.index()];
        src_slot.first_out = id;
        src_slot.out_degree += 1;
        let dst_slot = &mut self.nodes[dst.index()];
        dst_slot.first_in = id;
        dst_slot.in_degree += 1;
        EdgeId(id)
    }

    /// Returns the `(source, destination)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of this graph.
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let slot = &self.edges[edge.index()];
        (NodeId(slot.src), NodeId(slot.dst))
    }

    /// Returns the node weight, or `None` if `node` is out of bounds.
    pub fn node_weight(&self, node: NodeId) -> Option<&N> {
        self.nodes.get(node.index()).map(|s| &s.weight)
    }

    /// Returns the edge weight, or `None` if `edge` is out of bounds.
    pub fn edge_weight(&self, edge: EdgeId) -> Option<&E> {
        self.edges.get(edge.index()).map(|s| &s.weight)
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].out_degree as usize
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].in_degree as usize
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl DoubleEndedIterator<Item = EdgeId> + ExactSizeIterator {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over `(id, weight)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes.iter().enumerate().map(|(i, s)| (NodeId(i as u32), &s.weight))
    }

    /// Iterates over borrowed views of all edges.
    pub fn edge_refs(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().enumerate().map(|(i, s)| EdgeRef {
            id: EdgeId(i as u32),
            src: NodeId(s.src),
            dst: NodeId(s.dst),
            weight: &s.weight,
        })
    }

    /// Iterates over the outgoing edges of `node` (most recently added first).
    pub fn out_edges(&self, node: NodeId) -> OutEdges<'_, N, E> {
        OutEdges { graph: self, next: self.nodes[node.index()].first_out }
    }

    /// Iterates over the incoming edges of `node` (most recently added first).
    pub fn in_edges(&self, node: NodeId) -> InEdges<'_, N, E> {
        InEdges { graph: self, next: self.nodes[node.index()].first_in }
    }

    /// Iterates over the successors of `node` (with multiplicity for parallel edges).
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).map(|e| e.dst)
    }

    /// Iterates over the predecessors of `node` (with multiplicity for parallel edges).
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node).map(|e| e.src)
    }

    /// Returns the first edge `src -> dst` if one exists.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src).find(|e| e.dst == dst).map(|e| e.id)
    }

    /// `true` if an edge `src -> dst` exists.
    pub fn contains_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Maps node and edge weights into a new graph with identical topology.
    ///
    /// Node and edge ids are preserved.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, s)| NodeSlot {
                    weight: node_map(NodeId(i as u32), &s.weight),
                    first_out: s.first_out,
                    first_in: s.first_in,
                    out_degree: s.out_degree,
                    in_degree: s.in_degree,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, s)| EdgeSlot {
                    weight: edge_map(EdgeId(i as u32), &s.weight),
                    src: s.src,
                    dst: s.dst,
                    next_out: s.next_out,
                    next_in: s.next_in,
                })
                .collect(),
        }
    }
}

impl<N, E> Index<NodeId> for DiGraph<N, E> {
    type Output = N;

    fn index(&self, node: NodeId) -> &N {
        &self.nodes[node.index()].weight
    }
}

impl<N, E> IndexMut<NodeId> for DiGraph<N, E> {
    fn index_mut(&mut self, node: NodeId) -> &mut N {
        &mut self.nodes[node.index()].weight
    }
}

impl<N, E> Index<EdgeId> for DiGraph<N, E> {
    type Output = E;

    fn index(&self, edge: EdgeId) -> &E {
        &self.edges[edge.index()].weight
    }
}

impl<N, E> IndexMut<EdgeId> for DiGraph<N, E> {
    fn index_mut(&mut self, edge: EdgeId) -> &mut E {
        &mut self.edges[edge.index()].weight
    }
}

/// Iterator over the outgoing edges of a node. Created by [`DiGraph::out_edges`].
pub struct OutEdges<'a, N, E> {
    graph: &'a DiGraph<N, E>,
    next: u32,
}

impl<'a, N, E> Iterator for OutEdges<'a, N, E> {
    type Item = EdgeRef<'a, E>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NONE {
            return None;
        }
        let id = EdgeId(self.next);
        let slot = &self.graph.edges[id.index()];
        self.next = slot.next_out;
        Some(EdgeRef { id, src: NodeId(slot.src), dst: NodeId(slot.dst), weight: &slot.weight })
    }
}

/// Iterator over the incoming edges of a node. Created by [`DiGraph::in_edges`].
pub struct InEdges<'a, N, E> {
    graph: &'a DiGraph<N, E>,
    next: u32,
}

impl<'a, N, E> Iterator for InEdges<'a, N, E> {
    type Item = EdgeRef<'a, E>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NONE {
            return None;
        }
        let id = EdgeId(self.next);
        let slot = &self.graph.edges[id.index()];
        self.next = slot.next_in;
        Some(EdgeRef { id, src: NodeId(slot.src), dst: NodeId(slot.dst), weight: &slot.weight })
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(b), 1);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.in_degree(c), 1);
    }

    #[test]
    fn adjacency_iterators() {
        let (g, [a, b, c, d]) = diamond();
        let mut outs: Vec<_> = g.out_neighbors(a).collect();
        outs.sort();
        assert_eq!(outs, vec![b, c]);
        let mut ins: Vec<_> = g.in_neighbors(d).collect();
        ins.sort();
        assert_eq!(ins, vec![b, c]);
        assert!(g.out_neighbors(d).next().is_none());
        assert!(g.in_neighbors(a).next().is_none());
    }

    #[test]
    fn indexing_and_mutation() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(g[a], "a");
        g[a] = "z";
        assert_eq!(g[a], "z");
        let e = g.find_edge(a, NodeId::from_index(1)).expect("edge a->b");
        assert_eq!(g[e], 1);
        g[e] = 10;
        assert_eq!(g[e], 10);
    }

    #[test]
    fn endpoints_and_find() {
        let (g, [a, b, _, d]) = diamond();
        let e = g.find_edge(a, b).expect("a->b exists");
        assert_eq!(g.edge_endpoints(e), (a, b));
        assert!(g.contains_edge(b, d));
        assert!(!g.contains_edge(d, a));
        assert!(g.find_edge(b, a).is_none());
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(a, a, 3);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(b), 2);
        assert_eq!(g.in_degree(a), 1);
        let weights: Vec<u8> = g.out_edges(a).filter(|e| e.dst == b).map(|e| *e.weight).collect();
        assert_eq!(weights.len(), 2);
    }

    #[test]
    fn map_preserves_topology() {
        let (g, [a, _, _, d]) = diamond();
        let mapped = g.map(|_, w| w.len(), |_, w| *w as f64);
        assert_eq!(mapped.node_count(), g.node_count());
        assert_eq!(mapped.edge_count(), g.edge_count());
        assert_eq!(mapped[a], 1);
        let mut ins: Vec<_> = mapped.in_neighbors(d).collect();
        ins.sort();
        let mut orig: Vec<_> = g.in_neighbors(d).collect();
        orig.sort();
        assert_eq!(ins, orig);
    }

    #[test]
    fn node_weight_bounds() {
        let (g, _) = diamond();
        assert!(g.node_weight(NodeId::from_index(0)).is_some());
        assert!(g.node_weight(NodeId::from_index(99)).is_none());
        assert!(g.edge_weight(EdgeId::from_index(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_bad_endpoint_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_ids().count(), 0);
        assert_eq!(g.edge_ids().count(), 0);
    }

    #[test]
    fn edge_refs_enumerates_all() {
        let (g, _) = diamond();
        let weights: Vec<u32> = g.edge_refs().map(|e| *e.weight).collect();
        assert_eq!(weights, vec![1, 2, 3, 4]);
    }
}
