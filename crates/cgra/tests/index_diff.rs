//! Differential tests pinning the dense CSR index to the implicit MRRG.
//!
//! `MrrgIndex` is only allowed to be a *compilation* of `Mrrg` — same node
//! set, same enumeration order, same adjacency in the same order, same
//! per-edge latencies. These properties drive random `(rows, cols, II)`
//! triples through both representations and require exact agreement, so any
//! drift between the on-the-fly enumeration and the CSR build fails here
//! before it can corrupt a routed mapping.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use himap_cgra::{CapabilityMap, CgraSpec, Mrrg, MrrgIndex, RIdx, RNode};
use proptest::prelude::*;
use support::{arb_dims, arb_faulted};

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
}
