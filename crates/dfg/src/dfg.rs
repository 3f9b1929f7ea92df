//! The unrolled data-flow graph type and its node/edge weights.

use std::fmt;

use himap_graph::{DiGraph, NodeId};
use himap_kernels::{IterVec, Kernel, OpKind};

use crate::schema::StmtSchema;

/// Maximum supported loop-nest depth (TTM is 4-D).
pub const MAX_DIMS: usize = 4;

/// Compact iteration vector: the owning iteration of a DFG node, padded with
/// zeros beyond the kernel's dimensionality.
pub type Iter4 = [i16; MAX_DIMS];

/// Converts a dynamic iteration vector into the compact form.
///
/// # Panics
///
/// Panics if `iter` has more than [`MAX_DIMS`] components or a component
/// outside `i16` range.
// The panic is part of the documented contract.
#[allow(clippy::expect_used)]
pub fn to_iter4(iter: &[i64]) -> Iter4 {
    assert!(iter.len() <= MAX_DIMS, "at most {MAX_DIMS} loop levels supported");
    let mut out = [0i16; MAX_DIMS];
    for (o, &v) in out.iter_mut().zip(iter) {
        *o = i16::try_from(v).expect("iteration coordinate exceeds i16");
    }
    out
}

/// Converts the compact iteration vector back to a dynamic one of length
/// `dims`.
pub fn from_iter4(iter: Iter4, dims: usize) -> IterVec {
    iter[..dims].iter().map(|&v| v as i64).collect()
}

/// What a DFG node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A compute operation: op `op` (post-order) of statement `stmt`.
    Op {
        /// Statement index within the kernel body.
        stmt: u8,
        /// Post-order op index within the statement schema.
        op: u8,
        /// ALU operation.
        kind: OpKind,
    },
    /// A live-in value loaded from local data memory: read access `read` of
    /// statement `stmt` (the concrete element follows from the owning
    /// iteration via the access function).
    Input {
        /// Statement index.
        stmt: u8,
        /// Read-access index within the statement (evaluation order).
        read: u8,
    },
}

impl NodeKind {
    /// `true` for compute operations (the `V_F` nodes of the paper).
    pub fn is_op(self) -> bool {
        matches!(self, NodeKind::Op { .. })
    }

    /// `true` for live-in loads.
    pub fn is_input(self) -> bool {
        matches!(self, NodeKind::Input { .. })
    }
}

/// One DFG node: its kind plus the iteration cluster it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DfgNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Owning iteration.
    pub iter: Iter4,
}

impl fmt::Display for DfgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::Op { stmt, op, kind } => {
                write!(f, "{kind}(s{stmt}o{op})@{:?}", &self.iter)
            }
            NodeKind::Input { stmt, read } => write!(f, "in(s{stmt}r{read})@{:?}", &self.iter),
        }
    }
}

/// How a value travels along a DFG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// The destination consumes the *result* of the source node.
    Flow,
    /// The destination consumes the same signal the source received —
    /// operand forwarding along a systolic chain. `root` is the node that
    /// originally produced the signal.
    Forward {
        /// Original producer of the forwarded signal.
        root: NodeId,
    },
}

/// A DFG edge: the kind of transfer plus the operand slot it feeds at the
/// destination op (0 = lhs, 1 = rhs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DfgEdge {
    /// Transfer kind.
    pub kind: EdgeKind,
    /// Destination operand slot.
    pub slot: u8,
}

impl DfgEdge {
    /// The signal this edge carries: the edge's source for [`EdgeKind::Flow`]
    /// edges, the chain root for [`EdgeKind::Forward`] edges.
    pub fn signal(&self, src: NodeId) -> NodeId {
        match self.kind {
            EdgeKind::Flow => src,
            EdgeKind::Forward { root } => root,
        }
    }
}

impl fmt::Display for DfgEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EdgeKind::Flow => write!(f, "flow:{}", self.slot),
            EdgeKind::Forward { root } => write!(f, "fwd[{root:?}]:{}", self.slot),
        }
    }
}

/// The unrolled data-flow graph of one block of a kernel.
///
/// Build with [`Dfg::build`]; see the crate docs for the construction rules.
#[derive(Clone, Debug)]
pub struct Dfg {
    pub(crate) graph: DiGraph<DfgNode, DfgEdge>,
    pub(crate) kernel: Kernel,
    pub(crate) schemas: Vec<StmtSchema>,
    pub(crate) block: Vec<usize>,
    pub(crate) op_count: usize,
    /// Nodes grouped by linear iteration index (ops and inputs).
    pub(crate) cluster_nodes: Vec<Vec<NodeId>>,
    /// Store → load dependences of memory-routed reads
    /// (producer op node, consuming Input node).
    pub(crate) mem_deps: Vec<(NodeId, NodeId)>,
    /// Anti-dependences: a live-in Input read of an element that a later
    /// iteration overwrites (the write must not precede the load).
    pub(crate) anti_deps: Vec<(NodeId, NodeId)>,
}

impl Dfg {
    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph<DfgNode, DfgEdge> {
        &self.graph
    }

    /// The kernel this DFG was unrolled from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Statement schemas (op wiring per statement).
    pub fn schemas(&self) -> &[StmtSchema] {
        &self.schemas
    }

    /// The block size this DFG covers.
    pub fn block(&self) -> &[usize] {
        &self.block
    }

    /// Loop-nest depth.
    pub fn dims(&self) -> usize {
        self.block.len()
    }

    /// Number of compute-operation nodes (`|V_D|` in the paper's utilization
    /// metric — inputs are not ALU work).
    pub fn op_count(&self) -> usize {
        self.op_count
    }

    /// Number of iterations in the block.
    pub fn iteration_count(&self) -> usize {
        self.cluster_nodes.len()
    }

    /// Linear index of an iteration (row-major over the block).
    ///
    /// # Panics
    ///
    /// Panics if the iteration lies outside the block.
    pub fn linear_index(&self, iter: Iter4) -> usize {
        let mut idx = 0usize;
        for (lvl, &b) in self.block.iter().enumerate() {
            let v = iter[lvl];
            assert!(v >= 0 && (v as usize) < b, "iteration {iter:?} outside block");
            idx = idx * b + v as usize;
        }
        idx
    }

    /// The iteration at a linear index.
    pub fn iteration_at(&self, mut index: usize) -> Iter4 {
        let mut out = [0i16; MAX_DIMS];
        for lvl in (0..self.block.len()).rev() {
            let b = self.block[lvl];
            out[lvl] = (index % b) as i16;
            index /= b;
        }
        out
    }

    /// All nodes belonging to one iteration cluster.
    pub fn cluster(&self, iter: Iter4) -> &[NodeId] {
        &self.cluster_nodes[self.linear_index(iter)]
    }

    /// The `NodeId` of op `op` of statement `stmt` in a given iteration.
    ///
    /// # Panics
    ///
    /// Panics if the iteration is outside the block or the op does not exist.
    pub fn op_node(&self, iter: Iter4, stmt: u8, op: u8) -> NodeId {
        *self
            .cluster(iter)
            .iter()
            .find(|&&n| {
                matches!(self.graph[n].kind,
                    NodeKind::Op { stmt: s, op: o, .. } if s == stmt && o == op)
            })
            .unwrap_or_else(|| panic!("no op s{stmt}o{op} in iteration {iter:?}"))
    }

    /// The concrete array element loaded by an [`NodeKind::Input`] node, or
    /// `None` for other node kinds.
    pub fn input_element(&self, node: NodeId) -> Option<(himap_kernels::ArrayId, Vec<i64>)> {
        let w = &self.graph[node];
        let NodeKind::Input { stmt, read } = w.kind else {
            return None;
        };
        let stmt_ir = self.kernel.stmt(himap_kernels::StmtId::from_index(stmt as usize));
        let reads = stmt_ir.value.reads();
        let r = reads[read as usize];
        let iter = from_iter4(w.iter, self.dims());
        Some((r.array, r.element_at(&iter)))
    }

    /// An interior iteration of the block: the lexicographic centre, which
    /// participates in every dependence chain (receives and forwards each
    /// reused signal). Used as the representative IDFG for `MAP()`.
    pub fn interior_iteration(&self) -> Iter4 {
        let mut out = [0i16; MAX_DIMS];
        for (lvl, &b) in self.block.iter().enumerate() {
            out[lvl] = (b / 2) as i16;
        }
        out
    }

    /// Store → load dependences of memory-routed reads, as
    /// `(producer op node, consuming Input node)` pairs.
    ///
    /// These do not appear as graph edges (the value travels through data
    /// memory, not the mesh); the mapper must check that each producer's
    /// macro step precedes its consumer's.
    pub fn mem_deps(&self) -> &[(NodeId, NodeId)] {
        &self.mem_deps
    }

    /// Anti-dependences: `(live-in Input node, later writer op)` pairs. The
    /// mapper must keep every such load no later than one cycle after the
    /// writer executes (stores become visible two cycles after their op).
    pub fn anti_deps(&self) -> &[(NodeId, NodeId)] {
        &self.anti_deps
    }

    /// Distinct iteration distances of anti-dependences
    /// (`writer − reader`), sorted.
    pub fn anti_dep_distances(&self) -> Vec<Iter4> {
        let mut out: Vec<Iter4> = self
            .anti_deps
            .iter()
            .map(|&(r, w)| {
                let (a, b) = (self.graph[r].iter, self.graph[w].iter);
                let mut d = [0i16; MAX_DIMS];
                for (lvl, o) in d.iter_mut().enumerate() {
                    *o = b[lvl] - a[lvl];
                }
                d
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Distinct iteration distances of memory-routed dependences
    /// (`consumer − producer`), sorted.
    pub fn mem_dep_distances(&self) -> Vec<Iter4> {
        let mut out: Vec<Iter4> = self
            .mem_deps
            .iter()
            .map(|&(p, c)| {
                let (a, b) = (self.graph[p].iter, self.graph[c].iter);
                let mut d = [0i16; MAX_DIMS];
                for (lvl, o) in d.iter_mut().enumerate() {
                    *o = b[lvl] - a[lvl];
                }
                d
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The dependence distance of an edge: destination iteration minus
    /// source iteration (zero vector for intra-iteration edges).
    pub fn edge_distance(&self, edge: himap_graph::EdgeId) -> Iter4 {
        let (src, dst) = self.graph.edge_endpoints(edge);
        let (a, b) = (self.graph[src].iter, self.graph[dst].iter);
        let mut out = [0i16; MAX_DIMS];
        for (lvl, o) in out.iter_mut().enumerate() {
            *o = b[lvl] - a[lvl];
        }
        out
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter4_roundtrip() {
        let v = vec![1i64, 2, 3];
        let c = to_iter4(&v);
        assert_eq!(c, [1, 2, 3, 0]);
        assert_eq!(from_iter4(c, 3), v);
    }

    #[test]
    #[should_panic(expected = "loop levels")]
    fn iter4_rejects_deep_nests() {
        let _ = to_iter4(&[0, 0, 0, 0, 0]);
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Op { stmt: 0, op: 0, kind: OpKind::Add }.is_op());
        assert!(!NodeKind::Input { stmt: 0, read: 0 }.is_op());
        assert!(NodeKind::Input { stmt: 0, read: 0 }.is_input());
    }

    #[test]
    fn edge_signal_resolution() {
        let src = NodeId::from_index(3);
        let root = NodeId::from_index(1);
        let flow = DfgEdge { kind: EdgeKind::Flow, slot: 0 };
        let fwd = DfgEdge { kind: EdgeKind::Forward { root }, slot: 1 };
        assert_eq!(flow.signal(src), src);
        assert_eq!(fwd.signal(src), root);
    }
}
