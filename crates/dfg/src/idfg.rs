//! Intra-iteration data-flow graphs (IDFG, §IV Fig. 3c).
//!
//! An [`Idfg`] is the view of one iteration cluster: its compute and input
//! nodes, its internal edges, and its boundary edges to/from other
//! iterations (the paper's input/output nodes `V_I`).

use himap_graph::{EdgeId, NodeId};

use crate::dfg::{Dfg, Iter4, MAX_DIMS};

/// One edge crossing the boundary of an iteration cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryEdge {
    /// The DFG edge.
    pub edge: EdgeId,
    /// The endpoint inside this iteration.
    pub internal: NodeId,
    /// The endpoint in the other iteration.
    pub external: NodeId,
    /// Iteration offset of the external endpoint relative to this iteration
    /// (`external.iter − this.iter`).
    pub offset: Iter4,
}

/// The per-iteration data-flow graph of one cluster.
#[derive(Clone, Debug)]
pub struct Idfg {
    /// The iteration this IDFG describes.
    pub iter: Iter4,
    /// Compute nodes (`V_F`), in cluster order.
    pub ops: Vec<NodeId>,
    /// Live-in load nodes owned by this iteration.
    pub inputs: Vec<NodeId>,
    /// Edges with both endpoints inside the cluster.
    pub internal_edges: Vec<EdgeId>,
    /// Edges arriving from other iterations.
    pub incoming: Vec<BoundaryEdge>,
    /// Edges leaving to other iterations.
    pub outgoing: Vec<BoundaryEdge>,
}

impl Idfg {
    /// Number of compute nodes (`|V_F|`).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

impl Dfg {
    /// Extracts the IDFG of one iteration.
    ///
    /// # Panics
    ///
    /// Panics if `iter` lies outside the block.
    pub fn idfg(&self, iter: Iter4) -> Idfg {
        let mut idfg = Idfg {
            iter,
            ops: Vec::new(),
            inputs: Vec::new(),
            internal_edges: Vec::new(),
            incoming: Vec::new(),
            outgoing: Vec::new(),
        };
        for &node in self.cluster(iter) {
            match self.graph[node].kind {
                crate::dfg::NodeKind::Op { .. } => idfg.ops.push(node),
                crate::dfg::NodeKind::Input { .. } => idfg.inputs.push(node),
            }
            for e in self.graph.out_edges(node) {
                let dst_iter = self.graph[e.dst].iter;
                if dst_iter == iter {
                    // Internal edges collected once, from the source side.
                    idfg.internal_edges.push(e.id);
                } else {
                    idfg.outgoing.push(BoundaryEdge {
                        edge: e.id,
                        internal: node,
                        external: e.dst,
                        offset: offset_of(dst_iter, iter),
                    });
                }
            }
            for e in self.graph.in_edges(node) {
                let src_iter = self.graph[e.src].iter;
                if src_iter != iter {
                    idfg.incoming.push(BoundaryEdge {
                        edge: e.id,
                        internal: node,
                        external: e.src,
                        offset: offset_of(src_iter, iter),
                    });
                }
            }
        }
        idfg
    }
}

fn offset_of(other: Iter4, base: Iter4) -> Iter4 {
    let mut out = [0i16; MAX_DIMS];
    for (lvl, o) in out.iter_mut().enumerate() {
        *o = other[lvl] - base[lvl];
    }
    out
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    #[test]
    fn interior_bicg_idfg() {
        let dfg = Dfg::build(&suite::bicg(), &[4, 4]).unwrap();
        let idfg = dfg.idfg([2, 2, 0, 0]);
        // 4 compute ops; interior iterations load only the matrix elements
        // (2 per-access A loads), vectors arrive via chains.
        assert_eq!(idfg.op_count(), 4);
        assert_eq!(idfg.inputs.len(), 2);
        // Receives s (from north), q/p/r chains (west + north): 4 incoming.
        assert_eq!(idfg.incoming.len(), 4);
        assert_eq!(idfg.outgoing.len(), 4);
        for b in idfg.incoming.iter().chain(&idfg.outgoing) {
            let l1: i32 = b.offset.iter().map(|&x| x.abs() as i32).sum();
            assert_eq!(l1, 1, "BiCG boundary edges are unit hops: {:?}", b.offset);
        }
    }

    #[test]
    fn corner_iteration_has_inputs_no_incoming() {
        let dfg = Dfg::build(&suite::bicg(), &[4, 4]).unwrap();
        let idfg = dfg.idfg([0, 0, 0, 0]);
        assert!(idfg.incoming.is_empty());
        // Loads everything: A (x2 accesses), r, p, s, q.
        assert_eq!(idfg.inputs.len(), 6);
    }

    #[test]
    fn last_iteration_has_no_outgoing() {
        let dfg = Dfg::build(&suite::bicg(), &[3, 3]).unwrap();
        let idfg = dfg.idfg([2, 2, 0, 0]);
        assert!(idfg.outgoing.is_empty());
    }

    #[test]
    fn internal_edges_counted_once() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let idfg = dfg.idfg([1, 1, 1, 0]);
        // mul -> add is the only internal edge of a GEMM iteration.
        assert_eq!(idfg.internal_edges.len(), 1);
        assert_eq!(idfg.op_count(), 2);
    }

    #[test]
    fn incoming_outgoing_are_consistent() {
        // Every outgoing boundary edge of iteration A is an incoming edge of
        // its destination iteration with the opposite offset.
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        for idx in 0..dfg.iteration_count() {
            let iter = dfg.iteration_at(idx);
            let idfg = dfg.idfg(iter);
            for out in &idfg.outgoing {
                let dst_iter = dfg.graph()[out.external].iter;
                let other = dfg.idfg(dst_iter);
                let matched = other.incoming.iter().any(|inc| {
                    inc.edge == out.edge
                        && inc.offset.iter().zip(&out.offset).all(|(a, b)| *a == -*b)
                });
                assert!(matched, "unmatched boundary edge {:?}", out.edge);
            }
        }
    }
}
