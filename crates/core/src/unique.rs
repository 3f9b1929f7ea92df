//! Unique-iteration identification (Algorithm 1, lines 18-20).
//!
//! Two iterations are equivalent — one detailed routing serves both, shifted
//! in space-time — iff the relative placements of all their input and output
//! dependences agree: same internal node set, and for every boundary edge
//! the same space-time offset of the external endpoint, endpoint classes,
//! operand slot and transfer kind. Interior iterations all collapse into one
//! class; borders split by which chains start or end there, giving the
//! bounded per-kernel class counts of Table II.

use std::collections::HashMap;

use himap_dfg::{Dfg, EdgeKind, NodeKind};

use crate::layout::Layout;

/// Dense identifier of an equivalence class of iterations.
pub type ClassId = u32;

/// Iteration-independent class of a DFG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeClass {
    /// Compute op `(stmt, op)`.
    Op(u8, u8),
    /// Live-in load `(stmt, read)`.
    Input(u8, u8),
}

/// Which side of the iteration boundary an edge is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeDir {
    /// Both endpoints inside the iteration.
    Internal,
    /// Arrives from another iteration.
    In,
    /// Leaves to another iteration.
    Out,
}

/// The placement-relative description of one dependence edge, as seen from
/// one iteration. Equal descriptors ⇒ identical relative routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Descriptor {
    /// Space-time offset of the *other* endpoint's iteration
    /// (`Δτ, Δx, Δy`); zero for internal edges.
    pub delta: (i32, i32, i32),
    /// Source node class.
    pub src: NodeClass,
    /// Destination node class.
    pub dst: NodeClass,
    /// Operand slot fed at the destination.
    pub slot: u8,
    /// `true` for operand-forwarding edges.
    pub forward: bool,
}

/// The grouping of all iterations into equivalence classes, and of all
/// DFG edges into pattern keys.
///
/// A pattern key names one routed pattern: two edges share a key iff they
/// share the class of their destination iteration and their
/// destination-view [`Descriptor`]. Replication resolves each edge's
/// pattern through [`edge_key`](Self::edge_key) with one array read; no
/// descriptor is recomputed per round.
#[derive(Clone, Debug)]
pub struct Classes {
    /// Class of each iteration, by linear index.
    pub of: Vec<ClassId>,
    /// Linear index of each class's representative (its first member).
    pub reps: Vec<usize>,
    /// Pattern key of each DFG edge, by edge index.
    pub edge_key: Vec<u32>,
    /// Class of each pattern key, by key.
    pub key_class: Vec<ClassId>,
}

impl Classes {
    /// Number of distinct classes (the paper's "unique iterations").
    pub fn count(&self) -> usize {
        self.reps.len()
    }

    /// Number of distinct pattern keys (routed patterns per design).
    pub fn key_count(&self) -> usize {
        self.key_class.len()
    }
}

/// Tag of a signature entry that is not an in-edge of the iteration: a
/// node's self-descriptor or an out-edge to another iteration.
const NO_KEY: u32 = u32::MAX;

pub(crate) fn node_class(kind: NodeKind) -> NodeClass {
    match kind {
        NodeKind::Op { stmt, op, .. } => NodeClass::Op(stmt, op),
        NodeKind::Input { stmt, read } => NodeClass::Input(stmt, read),
    }
}

/// Computes the descriptor of edge `e` from the viewpoint of iteration
/// `self_iter` (one of its endpoints).
pub(crate) fn descriptor(
    dfg: &Dfg,
    layout: &Layout,
    e: himap_graph::EdgeId,
    self_iter: himap_dfg::Iter4,
) -> (EdgeDir, Descriptor) {
    let (src, dst) = dfg.graph().edge_endpoints(e);
    let (sw, dw) = (&dfg.graph()[src], &dfg.graph()[dst]);
    let weight = &dfg.graph()[e];
    let self_pos = layout.position(dfg, self_iter);
    let (dir, other_iter) = if sw.iter == self_iter && dw.iter == self_iter {
        (EdgeDir::Internal, self_iter)
    } else if dw.iter == self_iter {
        (EdgeDir::In, sw.iter)
    } else {
        (EdgeDir::Out, dw.iter)
    };
    let other_pos = layout.position(dfg, other_iter);
    let delta = (other_pos.t - self_pos.t, other_pos.x - self_pos.x, other_pos.y - self_pos.y);
    (
        dir,
        Descriptor {
            delta,
            src: node_class(sw.kind),
            dst: node_class(dw.kind),
            slot: weight.slot,
            forward: matches!(weight.kind, EdgeKind::Forward { .. }),
        },
    )
}

/// Groups all iterations of a laid-out DFG into equivalence classes and
/// assigns every edge its pattern key.
///
/// Keys come out of the same descriptor loop as the signatures. Members of
/// one class have equal sorted signatures, so the class's first member
/// fixes a key for each signature position once, and every later member
/// reads its in-edges' keys off those positions.
pub fn classify(dfg: &Dfg, layout: &Layout) -> Classes {
    let mut table: HashMap<Vec<(EdgeDir, Descriptor)>, ClassId> = HashMap::new();
    // Per class: the pattern key of each sorted signature entry (`NO_KEY`
    // for entries that are not in-edges).
    let mut entry_keys: Vec<Vec<u32>> = Vec::new();
    let mut of = Vec::with_capacity(dfg.iteration_count());
    let mut reps = Vec::new();
    let mut edge_key = vec![NO_KEY; dfg.graph().edge_count()];
    let mut key_class = Vec::new();
    // Reused per iteration: the signature entries tagged with the in-edge
    // each describes, and the untagged signature itself.
    let mut tagged: Vec<(EdgeDir, Descriptor, u32)> = Vec::new();
    let mut sig: Vec<(EdgeDir, Descriptor)> = Vec::new();
    for idx in 0..dfg.iteration_count() {
        let iter = dfg.iteration_at(idx);
        tagged.clear();
        for &node in dfg.cluster(iter) {
            // Node classes enter the signature via a self-descriptor so an
            // iteration with an extra load (a chain head) differs even if
            // its edges happen to match.
            tagged.push((
                EdgeDir::Internal,
                Descriptor {
                    delta: (0, 0, 0),
                    src: node_class(dfg.graph()[node].kind),
                    dst: node_class(dfg.graph()[node].kind),
                    slot: u8::MAX,
                    forward: false,
                },
                NO_KEY,
            ));
            for e in dfg.graph().out_edges(node) {
                let (dir, desc) = descriptor(dfg, layout, e.id, iter);
                // An internal edge is also one of this iteration's in-edges.
                let tag = if dir == EdgeDir::Internal { e.id.index() as u32 } else { NO_KEY };
                tagged.push((dir, desc, tag));
            }
            for e in dfg.graph().in_edges(node) {
                if dfg.graph()[e.src].iter != iter {
                    let (dir, desc) = descriptor(dfg, layout, e.id, iter);
                    tagged.push((dir, desc, e.id.index() as u32));
                }
            }
        }
        tagged.sort_unstable();
        sig.clear();
        sig.extend(tagged.iter().map(|&(dir, desc, _)| (dir, desc)));
        let class = match table.get(sig.as_slice()) {
            Some(&class) => class,
            None => {
                let class = table.len() as ClassId;
                table.insert(sig.clone(), class);
                reps.push(idx);
                // One key per distinct in-edge descriptor of the new class.
                let mut keys: HashMap<Descriptor, u32> = HashMap::new();
                let row = tagged
                    .iter()
                    .map(|&(_, desc, edge)| {
                        if edge == NO_KEY {
                            return NO_KEY;
                        }
                        *keys.entry(desc).or_insert_with(|| {
                            key_class.push(class);
                            (key_class.len() - 1) as u32
                        })
                    })
                    .collect();
                entry_keys.push(row);
                class
            }
        };
        for (&(_, _, edge), &key) in tagged.iter().zip(&entry_keys[class as usize]) {
            if edge != NO_KEY {
                edge_key[edge as usize] = key;
            }
        }
        of.push(class);
    }
    Classes { of, reps, edge_key, key_class }
}

/// Asserts the pattern-key invariant: two edges share a key iff they share
/// the class of their destination iteration and their destination-view
/// descriptor, and each key records that class.
#[cfg(test)]
pub(crate) fn assert_keys_follow_descriptors(dfg: &Dfg, layout: &Layout, classes: &Classes) {
    let mut key_of: HashMap<(ClassId, Descriptor), u32> = HashMap::new();
    let mut pair_of: HashMap<u32, (ClassId, Descriptor)> = HashMap::new();
    for e in dfg.graph().edge_ids() {
        let (_, dst) = dfg.graph().edge_endpoints(e);
        let dst_iter = dfg.graph()[dst].iter;
        let class = classes.of[dfg.linear_index(dst_iter)];
        let (_, desc) = descriptor(dfg, layout, e, dst_iter);
        let key = classes.edge_key[e.index()];
        assert_eq!(classes.key_class[key as usize], class, "key {key} of edge {e:?}");
        assert_eq!(*key_of.entry((class, desc)).or_insert(key), key, "edge {e:?} splits a pair");
        assert_eq!(*pair_of.entry(key).or_insert((class, desc)), (class, desc), "key {key} merges");
    }
    assert_eq!(pair_of.len(), classes.key_count(), "every key names some edge");
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::HiMapOptions;
    use crate::submap::map_idfg;
    use himap_cgra::{CgraSpec, Vsa};
    use himap_kernels::suite;
    use himap_systolic::{search, SearchConfig};

    /// The DFG of `kernel` on a `c`×`c` array and its layouts under the
    /// `take` top-ranked systolic maps.
    fn layouts_for(
        kernel: &himap_kernels::Kernel,
        c: usize,
        free: usize,
        take: usize,
    ) -> (Dfg, Vec<Layout>) {
        let spec = CgraSpec::square(c);
        let subs = map_idfg(kernel, &spec, &HiMapOptions::default());
        let sub = subs[0].clone();
        let vsa = Vsa::new(spec, sub.s1, sub.s2).unwrap();
        let block: Vec<usize> = (0..kernel.dims())
            .map(|dim| match dim {
                0 if vsa.rows() > 1 => vsa.rows(),
                1 if vsa.cols() > 1 => vsa.cols(),
                _ => free,
            })
            .collect();
        let dfg = Dfg::build(kernel, &block).unwrap();
        let isdg = dfg.isdg();
        let maps = search(&SearchConfig {
            dims: kernel.dims(),
            block,
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        });
        assert!(!maps.is_empty(), "{} needs a systolic map", kernel.name());
        let layouts = maps
            .iter()
            .take(take)
            .map(|m| Layout::new(&dfg, vsa.clone(), sub.clone(), m))
            .collect();
        (dfg, layouts)
    }

    fn classes_for(kernel: &himap_kernels::Kernel, c: usize, free: usize) -> Classes {
        let (dfg, layouts) = layouts_for(kernel, c, free, 1);
        classify(&dfg, &layouts[0])
    }

    #[test]
    fn gemm_class_count_is_bounded_by_table2() {
        // Table II: GEMM has at most 27 unique iterations.
        let classes = classes_for(&suite::gemm(), 4, 4);
        assert!(classes.count() <= 27, "GEMM classes = {}", classes.count());
        assert!(classes.count() >= 8, "border structure must exist");
    }

    #[test]
    fn gemm_class_count_constant_in_block_size() {
        // The scalability property behind Fig. 8: growing the block does not
        // grow the class count.
        let small = classes_for(&suite::gemm(), 4, 4);
        let big = classes_for(&suite::gemm(), 6, 6);
        assert_eq!(small.count(), big.count());
    }

    #[test]
    fn bicg_classes_bounded() {
        // Table II: BICG has at most 9 unique iterations.
        let classes = classes_for(&suite::bicg(), 4, 4);
        assert!(classes.count() <= 9, "BiCG classes = {}", classes.count());
    }

    #[test]
    fn adi_classes_bounded() {
        // Table II: ADI (one-dimensional dependences) has at most 3.
        let classes = classes_for(&suite::adi(), 4, 4);
        assert!(classes.count() <= 3, "ADI classes = {}", classes.count());
    }

    #[test]
    fn edges_share_a_key_iff_they_share_class_and_descriptor() {
        for kernel in [suite::gemm(), suite::bicg(), suite::floyd_warshall(), suite::ttm()] {
            let (dfg, layouts) = layouts_for(&kernel, 4, 4, 3);
            for layout in &layouts {
                assert_keys_follow_descriptors(&dfg, layout, &classify(&dfg, layout));
            }
        }
    }

    #[test]
    fn reps_are_first_members() {
        let classes = classes_for(&suite::gemm(), 4, 4);
        for (class, &rep) in classes.reps.iter().enumerate() {
            let first =
                classes.of.iter().position(|&c| c == class as ClassId).expect("class has members");
            assert_eq!(first, rep);
        }
    }

    #[test]
    fn every_iteration_classified() {
        let classes = classes_for(&suite::mvt(), 4, 4);
        // The winning MVT sub-CGRA shape determines the VSA and hence the
        // block size; whatever it is, every iteration gets a valid class.
        assert!(!classes.of.is_empty());
        for &c in &classes.of {
            assert!((c as usize) < classes.count());
        }
        assert!(classes.count() <= 9, "Table II bound for MVT");
    }
}
