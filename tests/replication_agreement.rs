//! Replication's capacity check and the independent verifier's exclusivity
//! check (V001, with register-file resources as V004) must agree on which
//! resources a replicated design oversubscribes.
//!
//! A converged design is perturbed by moving one interior step of one
//! pattern onto a resource that another step of the same class already
//! uses. `replicate_and_verify` reports how many resources end up
//! oversubscribed. The verifier re-derives the count from a `Mapping`
//! whose routes this file translates on its own, so the two capacity
//! checks share no code.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use himap_repro::cgra::{CgraSpec, MrrgIndex, Vsa};
use himap_repro::core::route::{
    replicate_and_verify, route_representatives_pooled, RouteError, RoutedDesign,
};
use himap_repro::core::unique::classify;
use himap_repro::core::{
    map_idfg, Classes, HiMap, HiMapOptions, Layout, Mapping, MappingParts, MappingStats,
    PipelineStats, RouteInstance,
};
use himap_repro::dfg::{Dfg, NodeKind};
use himap_repro::kernels::{suite, Kernel};
use himap_repro::mapper::{Router, RouterConfig};
use himap_repro::systolic::{search, SearchConfig};
use himap_repro::verify::{verify_mapping, Code};

/// Perturbations drawn per kernel.
const PERTURBATIONS: usize = 20;

/// A replicated design that passed: everything a perturbation needs.
struct Converged {
    spec: CgraSpec,
    dfg: Dfg,
    layout: Layout,
    classes: Classes,
    design: RoutedDesign,
}

/// Re-runs the route/replicate feedback loop on the winning candidate's
/// shape and block, returning the first layout whose replication passes.
fn converge(kernel: &Kernel, c: usize) -> Converged {
    let options = HiMapOptions::default();
    let spec = CgraSpec::square(c);
    let winner = HiMap::new(options.clone())
        .map(kernel, &spec)
        .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()));
    let shape = winner.stats().sub_shape;
    let block = winner.stats().block.clone();
    let sub = map_idfg(kernel, &spec, &options)
        .into_iter()
        .find(|s| (s.s1, s.s2, s.t) == shape)
        .expect("MAP() reproduces the winner's shape");
    let vsa = Vsa::new(spec.clone(), sub.s1, sub.s2).expect("the winner's VSA tiles");
    let dfg = Dfg::build(kernel, &block).expect("the winner's block unrolls");
    let ranked = search(&SearchConfig {
        dims: kernel.dims(),
        block: block.clone(),
        vsa_rows: vsa.rows(),
        vsa_cols: vsa.cols(),
        mesh_deps: dfg.isdg().distances().to_vec(),
        mem_deps: dfg.mem_dep_distances(),
        anti_deps: dfg.anti_dep_distances(),
    });
    for st in ranked.iter().take(options.max_systolic_candidates) {
        let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
        let classes = classify(&dfg, &layout);
        let index = MrrgIndex::shared(spec.clone(), layout.iib());
        let mut router = Router::with_index(index, RouterConfig::default());
        let mut seed = Vec::new();
        for _ in 0..options.replication_feedback_rounds {
            let (design, _) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &seed,
                &mut router,
                Duration::ZERO,
            );
            let Ok(design) = design else { break };
            match replicate_and_verify(&dfg, &layout, &classes, &design) {
                Ok(_) => return Converged { spec, dfg: dfg.clone(), layout, classes, design },
                Err(RouteError::ReplicaConflicts { rep_frame, .. }) => seed.extend(rep_frame),
                Err(_) => break,
            }
        }
    }
    panic!("{}: no layout of the winning candidate converges", kernel.name())
}

/// Oversubscribed resources `replicate_and_verify` reports for `design`.
fn replication_count(c: &Converged, design: &RoutedDesign) -> usize {
    match replicate_and_verify(&c.dfg, &c.layout, &c.classes, design) {
        Err(RouteError::ReplicaConflicts { count, .. }) => count,
        // The dependence checks run only after the capacity check passed.
        Ok(_) | Err(RouteError::AntiDependence | RouteError::MemCausality) => 0,
        Err(e) => panic!("a perturbation cannot cause {e}"),
    }
}

/// Distinct resources the verifier flags V001 or V004 on the mapping that
/// replicates `design` over every iteration.
fn verifier_count(c: &Converged, design: &RoutedDesign) -> usize {
    let (dfg, layout, classes) = (&c.dfg, &c.layout, &c.classes);
    let sub = layout.sub();
    let mut routes = Vec::with_capacity(dfg.graph().edge_count());
    for e in dfg.graph().edge_ids() {
        let (_, dst) = dfg.graph().edge_endpoints(e);
        let key = classes.edge_key[e.index()] as usize;
        let rep = classes.reps[classes.key_class[key] as usize];
        let pos = layout.position(dfg, dfg.graph()[dst].iter);
        let rep_pos = layout.position_at(rep);
        let dx = (pos.x - rep_pos.x) * sub.s1 as i32;
        let dy = (pos.y - rep_pos.y) * sub.s2 as i32;
        let pattern = design.patterns[key].as_ref().expect("every key is routed");
        let steps = pattern
            .iter()
            .map(|&(pe, kind, offset)| {
                let abs = pos.t as i64 * sub.t as i64 + offset;
                let pe = himap_repro::cgra::PeId::new(
                    (pe.x as i32 + dx) as usize,
                    (pe.y as i32 + dy) as usize,
                );
                let cycle = abs.rem_euclid(layout.iib() as i64) as u32;
                (himap_repro::cgra::RNode::new(pe, cycle, kind), abs)
            })
            .collect();
        routes.push(RouteInstance { edge: e, steps });
    }
    let mut op_slots = HashMap::new();
    for (node, w) in dfg.graph().nodes() {
        if let NodeKind::Op { stmt, op, .. } = w.kind {
            op_slots.insert(node, layout.op_slot(dfg, w.iter, stmt, op));
        }
    }
    let stats = MappingStats {
        sub_shape: (sub.s1, sub.s2, sub.t),
        unique_iterations: classes.count(),
        iterations_per_spe: layout.iterations_per_spe(),
        iib: layout.iib(),
        max_config_slots: 0,
        block: dfg.block().to_vec(),
        pipeline: PipelineStats::default(),
    };
    let mapping = Mapping::from_parts(MappingParts {
        spec: c.spec.clone(),
        dfg: dfg.clone(),
        op_slots,
        routes,
        stats,
    });
    let report = verify_mapping(&mapping);
    let flagged: HashSet<_> = report
        .diags()
        .iter()
        .filter(|d| matches!(d.code, Code::V001 | Code::V004))
        .map(|d| d.locus.resource.expect("exclusivity diagnostics name their resource"))
        .collect();
    flagged.len()
}

/// `design` with one interior step of one pattern moved onto another
/// resource of the same kind: the same PE in another cycle of the modulo
/// window, or the resource of another step of the same class. Every
/// member's copy of either target exists in the MRRG. `None` when the drawn
/// pattern has no interior step.
fn perturb(c: &Converged, rng: &mut StdRng) -> Option<RoutedDesign> {
    let iib = c.layout.iib() as i64;
    let key = rng.gen_range(0..c.classes.key_count());
    let pattern = c.design.patterns[key].as_ref()?;
    if pattern.len() < 3 {
        return None;
    }
    let i = rng.gen_range(1..pattern.len() - 1);
    let (pe, kind, offset) = pattern[i];
    let class = c.classes.key_class[key];
    let mut targets: Vec<_> = (1..iib).map(|d| (pe, kind, offset + d)).collect();
    targets.extend(
        (0..c.classes.key_count())
            .filter(|&k| c.classes.key_class[k] == class)
            .filter_map(|k| c.design.patterns[k].as_ref())
            .flatten()
            .filter(|&&(p, k, o)| {
                k == kind && (p, o.rem_euclid(iib)) != (pe, offset.rem_euclid(iib))
            }),
    );
    if targets.is_empty() {
        return None;
    }
    let mut design = c.design.clone();
    design.patterns[key].as_mut()?[i] = targets[rng.gen_range(0..targets.len())];
    Some(design)
}

#[test]
fn replication_and_verifier_count_the_same_conflicts() {
    let mut perturbed = 0usize;
    for (seed, kernel) in [suite::gemm(), suite::bicg(), suite::floyd_warshall()].iter().enumerate()
    {
        let c = converge(kernel, 8);
        assert_eq!(verifier_count(&c, &c.design), 0, "{}: the converged design", kernel.name());
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let (mut drawn, mut conflicting) = (0usize, 0usize);
        while drawn < PERTURBATIONS {
            let Some(design) = perturb(&c, &mut rng) else { continue };
            drawn += 1;
            let count = replication_count(&c, &design);
            assert_eq!(
                count,
                verifier_count(&c, &design),
                "{}: perturbation {drawn} oversubscribes a different resource set",
                kernel.name()
            );
            conflicting += usize::from(count > 0);
        }
        // A move onto a free resource, a step of the same signal or a
        // two-port resource oversubscribes nothing; some moves must.
        assert!(conflicting > 0, "{}: no perturbation conflicts", kernel.name());
        perturbed += drawn;
    }
    assert!(perturbed >= 50);
}
