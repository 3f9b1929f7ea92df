//! Differential tests pinning the dense CSR index to the implicit MRRG.
//!
//! `MrrgIndex` is only allowed to be a *compilation* of `Mrrg` — same node
//! set, same enumeration order, same adjacency in the same order, same
//! per-edge latencies. These properties drive random `(rows, cols, II)`
//! triples through both representations and require exact agreement, so any
//! drift between the on-the-fly enumeration and the CSR build fails here
//! before it can corrupt a routed mapping. A window index over a subset of
//! the PEs must in turn be the every-PE index cut down to that subset.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use himap_cgra::{CapabilityMap, CgraSpec, Mrrg, MrrgIndex, OpClass, PeId, RIdx, RNode};
use proptest::prelude::*;
use support::{arb_dims, arb_faulted};

/// A random fabric (pristine, faulted or heterogeneous) with an II and a
/// random PE subset, given as a bit mask over row-major PE numbers.
fn arb_window() -> impl Strategy<Value = (CgraSpec, usize, u64)> {
    (arb_faulted(), 0usize..3, any::<u64>()).prop_map(|((rows, cols, ii, faults), fabric, mask)| {
        let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
        let spec = match fabric {
            0 => spec,
            1 => spec.with_faults(faults),
            _ => {
                // Multipliers on the corners only, and one route-only PE.
                let mut caps = CapabilityMap::corner_multipliers(rows, cols);
                let pe = (mask % (rows * cols) as u64) as usize;
                caps.set_classes(PeId::new(pe / cols, pe % cols), &[OpClass::Route]);
                spec.with_faults(caps)
            }
        };
        (spec, ii, mask)
    })
}

/// `(node, latency)` of each edge in a CSR row.
fn row(index: &MrrgIndex, edges: impl Iterator<Item = (RIdx, u32)>) -> Vec<(RNode, u32)> {
    edges.map(|(j, lat)| (index.node(j), lat)).collect()
}

fn build(rows: usize, cols: usize, ii: usize) -> (Mrrg, MrrgIndex) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
    (Mrrg::new(spec.clone(), ii), MrrgIndex::new(spec, ii))
}

fn build_faulted(rows: usize, cols: usize, ii: usize, faults: &CapabilityMap) -> (Mrrg, MrrgIndex) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh").with_faults(faults.clone());
    (Mrrg::new(spec.clone(), ii), MrrgIndex::new(spec, ii))
}

proptest! {
    #[test]
    fn ids_are_dense_and_bijective((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        let legacy = mrrg.nodes();
        prop_assert_eq!(index.len(), legacy.len());
        prop_assert_eq!(index.nodes(), legacy.as_slice());
        for (i, &node) in legacy.iter().enumerate() {
            let ri = RIdx(i as u32);
            prop_assert_eq!(index.node(ri), node);
            prop_assert_eq!(index.index_of(node), Some(ri));
            prop_assert!(index.contains(node));
        }
    }

    #[test]
    fn csr_successors_match_legacy_enumeration((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let dense: Vec<RNode> =
                index.successors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            // Order-exact: the CSR row must be the legacy enumeration.
            prop_assert_eq!(dense, mrrg.successors(node), "successors of {:?}", node);
        }
    }

    #[test]
    fn csr_predecessors_match_legacy_enumeration((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let dense: Vec<RNode> =
                index.predecessors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(dense, mrrg.predecessors(node), "predecessors of {:?}", node);
        }
    }

    #[test]
    fn csr_latencies_match_legacy_edge_latency((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            for (j, lat) in index.successors(RIdx(i as u32)) {
                let succ = index.node(j);
                prop_assert_eq!(
                    mrrg.edge_latency(node, succ),
                    Some(lat),
                    "latency of {:?} -> {:?}",
                    node,
                    succ
                );
                prop_assert_eq!(index.edge_latency(node, succ), Some(lat));
            }
        }
    }

    #[test]
    fn faulted_ids_stay_dense_and_bijective((rows, cols, ii, faults) in arb_faulted()) {
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        let legacy = mrrg.nodes();
        prop_assert_eq!(index.len(), legacy.len());
        prop_assert_eq!(index.nodes(), legacy.as_slice());
        for (i, &node) in legacy.iter().enumerate() {
            let ri = RIdx(i as u32);
            prop_assert_eq!(index.node(ri), node);
            prop_assert_eq!(index.index_of(node), Some(ri));
        }
    }

    #[test]
    fn faulted_adjacency_matches_legacy_enumeration((rows, cols, ii, faults) in arb_faulted()) {
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let succ: Vec<RNode> =
                index.successors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(succ, mrrg.successors(node), "successors of {:?}", node);
            let pred: Vec<RNode> =
                index.predecessors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(pred, mrrg.predecessors(node), "predecessors of {:?}", node);
            // The mask-free latency lookup agrees on every live pair.
            for (j, lat) in index.successors(RIdx(i as u32)) {
                prop_assert_eq!(mrrg.live_edge_latency(node, index.node(j)), Some(lat));
            }
        }
    }

    #[test]
    fn faulted_builds_exclude_exactly_the_masked_nodes((rows, cols, ii, faults) in arb_faulted()) {
        let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
        let faulted_spec = spec.clone().with_faults(faults.clone());
        let pristine = MrrgIndex::new(spec.clone(), ii);
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        // No masked node survives in either representation...
        for node in mrrg.nodes() {
            prop_assert!(!faults.masks(&faulted_spec, node), "masked {:?} present", node);
            prop_assert!(index.contains(node));
        }
        // ...and nothing else is dropped: pristine minus masked == faulted.
        let kept =
            pristine.nodes().iter().filter(|&&n| !faults.masks(&faulted_spec, n)).count();
        prop_assert_eq!(kept, index.len());
    }

    #[test]
    fn forward_and_backward_csr_agree((rows, cols, ii) in arb_dims()) {
        let (_, index) = build(rows, cols, ii);
        // Every forward edge must appear exactly once in the target's
        // backward row with the same latency, and vice versa.
        let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..index.len() {
            for (j, lat) in index.successors(RIdx(i as u32)) {
                fwd.push((i as u32, j.0, lat));
            }
            for (j, lat) in index.predecessors(RIdx(i as u32)) {
                bwd.push((j.0, i as u32, lat));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn window_rows_are_the_full_rows_cut_to_the_window((spec, ii, mask) in arb_window()) {
        let full = MrrgIndex::new(spec.clone(), ii);
        let cols = spec.cols;
        let pes: Vec<PeId> =
            spec.pes().filter(|pe| mask >> (pe.x as usize * cols + pe.y as usize) & 1 == 1).collect();
        let window = MrrgIndex::window(spec.clone(), ii, pes.iter().copied());
        let inside = |node: &RNode| pes.contains(&node.pe);
        let kept: Vec<RNode> = full.nodes().iter().copied().filter(inside).collect();
        prop_assert_eq!(window.nodes(), kept.as_slice());
        prop_assert!(window.nodes().windows(2).all(|w| w[0] < w[1]), "ids ascend in RNode order");
        for (i, &node) in window.nodes().iter().enumerate() {
            let (wi, fi) = (RIdx(i as u32), full.index_of(node).expect("a full-index node"));
            prop_assert_eq!(window.index_of(node), Some(wi));
            prop_assert_eq!(window.capacity(wi), full.capacity(fi));
            let mut succ = row(&full, full.successors(fi));
            succ.retain(|(n, _)| inside(n));
            prop_assert_eq!(row(&window, window.successors(wi)), succ, "successors of {:?}", node);
            let mut pred = row(&full, full.predecessors(fi));
            pred.retain(|(n, _)| inside(n));
            prop_assert_eq!(row(&window, window.predecessors(wi)), pred, "predecessors of {:?}", node);
        }
        for node in full.nodes().iter().filter(|n| !inside(n)) {
            prop_assert_eq!(window.index_of(*node), None, "{:?} is outside the window", node);
        }
    }

    #[test]
    fn every_pe_window_is_the_full_index((spec, ii, _) in arb_window()) {
        let window = MrrgIndex::window(spec.clone(), ii, spec.pes());
        prop_assert!(window == MrrgIndex::new(spec, ii), "field-for-field equality");
    }
}
