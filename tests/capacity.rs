//! Property: a mapping that `replicate_and_verify` accepted never
//! oversubscribes any MRRG resource node.
//!
//! The pipeline's own verifier accumulates occupancy while replicating;
//! this test recounts from scratch using only the public `Mapping`
//! artifact — FU slots and routed steps — and cross-checks every resource
//! against `CgraSpec::capacity`. A bug that let the internal verifier and
//! the replication disagree would slip a conflicting mapping through to
//! here and fail.

use std::collections::{HashMap, HashSet};

use himap_repro::cgra::{CgraSpec, RKind, RNode};
use himap_repro::core::{HiMap, HiMapOptions, Mapping};
use himap_repro::dfg::NodeKind;
use himap_repro::graph::NodeId;
use himap_repro::kernels::{suite, AffineExpr, ArrayRef, Expr, Kernel, KernelBuilder, OpKind};
use proptest::prelude::*;

/// Recounts resource occupancy from the mapping artifact alone and returns
/// every resource holding more distinct signals than its capacity.
///
/// A resource is occupied by a *signal* — the DFG node that produced the
/// value. Fan-out of one signal through one resource is free; distinct
/// signals compete for the port capacity. FU endpoints of a route carry the
/// producing/consuming op itself and are accounted once via its slot.
fn oversubscribed(mapping: &Mapping) -> Vec<(RNode, usize, usize)> {
    let spec = mapping.spec();
    let mut occupancy: HashMap<RNode, HashSet<NodeId>> = HashMap::new();
    for (node, w) in mapping.dfg().graph().nodes() {
        if matches!(w.kind, NodeKind::Op { .. }) {
            let slot = mapping.op_slot(node).expect("every op is placed");
            let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
            occupancy.entry(fu).or_default().insert(node);
        }
    }
    for route in mapping.routes() {
        let (src, _) = mapping.dfg().graph().edge_endpoints(route.edge);
        let signal = mapping.dfg().graph()[route.edge].signal(src);
        let last = route.steps.len().saturating_sub(1);
        for (i, &(node, _abs)) in route.steps.iter().enumerate() {
            if (i == 0 || i == last) && node.kind == RKind::Fu {
                continue;
            }
            occupancy.entry(node).or_default().insert(signal);
        }
    }
    occupancy
        .into_iter()
        .filter(|(node, signals)| signals.len() > spec.capacity(node.kind))
        .map(|(node, signals)| (node, signals.len(), spec.capacity(node.kind)))
        .collect()
}

fn assert_no_oversubscription(kernel: &Kernel, cgra_size: usize) {
    let himap = HiMap::new(HiMapOptions::default());
    let Ok(mapping) = himap.map(kernel, &CgraSpec::square(cgra_size)) else {
        return; // unmappable combinations are vacuously safe
    };
    let conflicts = oversubscribed(&mapping);
    assert!(
        conflicts.is_empty(),
        "{} on {cgra_size}x{cgra_size}: verified mapping \
         oversubscribes {} resources, e.g. {:?}",
        kernel.name(),
        conflicts.len(),
        conflicts.first(),
    );
}

/// A small random 2-D streaming kernel (same family as tests/properties.rs):
/// an accumulation along a random dimension plus a random elementwise op.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (0usize..2, 0usize..4, 0usize..4).prop_map(|(acc_dim, op_a, op_b)| {
        let ops = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Max];
        let d = 2;
        let mut b = KernelBuilder::new("random", d);
        let acc = b.array("acc", 1);
        let m = b.array("m", 2);
        let v = b.array("v", 1);
        let (i, j) = (AffineExpr::var(0, d), AffineExpr::var(1, d));
        let (x, y) = if acc_dim == 0 { (j.clone(), i.clone()) } else { (i.clone(), j.clone()) };
        b.stmt(
            ArrayRef::new(acc, vec![x.clone()]),
            Expr::binary(
                ops[op_a],
                Expr::Read(ArrayRef::new(acc, vec![x])),
                Expr::binary(
                    ops[op_b],
                    Expr::Read(ArrayRef::new(m, vec![i, j])),
                    Expr::Read(ArrayRef::new(v, vec![y])),
                ),
            ),
        );
        b.build().expect("random kernel is well-formed")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_kernels_never_oversubscribe(
        kernel in arb_kernel(),
        cgra_size in 2usize..=5,
    ) {
        assert_no_oversubscription(&kernel, cgra_size);
    }
}

#[test]
fn suite_kernels_never_oversubscribe_on_4x4() {
    for kernel in suite::all() {
        assert_no_oversubscription(&kernel, 4);
    }
}
