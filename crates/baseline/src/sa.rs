//! CGRA-ME-style simulated-annealing placement with routing validation.

use std::collections::HashMap;
use std::time::Instant;

use himap_cgra::{CgraSpec, Mrrg, OpClass, PeId, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, NodeKind};
use himap_graph::{topological_sort, NodeId};
use himap_kernels::OpKind;
use himap_mapper::{CancelToken, Router, RouterConfig, SignalId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Algorithm, BaselineFailure, BaselineMapping, BaselineOptions};

/// The simulated-annealing mapper: anneal `(PE, cycle)` placements under a
/// wire-length/latency cost, then validate with detailed PathFinder routing.
#[derive(Clone, Debug)]
pub struct SaMapper;

impl SaMapper {
    /// Maps the whole DFG onto the CGRA.
    ///
    /// # Errors
    ///
    /// Fails with [`BaselineFailure`] when the DFG exceeds the node limit,
    /// the time budget runs out, or no II in range anneals into a routable
    /// placement.
    pub fn run(
        dfg: &Dfg,
        spec: &CgraSpec,
        options: &BaselineOptions,
    ) -> Result<BaselineMapping, BaselineFailure> {
        let nodes = dfg.graph().node_count();
        if nodes > options.max_dfg_nodes {
            return Err(BaselineFailure::TooManyNodes { nodes, limit: options.max_dfg_nodes });
        }
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mii = dfg.op_count().div_ceil(spec.pe_count()).max(1);
        for ii in mii..=mii + options.max_ii_slack {
            if started.elapsed() > options.timeout {
                return Err(BaselineFailure::Timeout);
            }
            if let Some(slots) = anneal(dfg, spec, ii, options, &mut rng, &started) {
                if crate::spr::anti_deps_ok(dfg, &slots)
                    && validate_routing(dfg, spec, ii, &slots, options, &started)
                {
                    return Ok(BaselineMapping {
                        ii,
                        utilization: dfg.op_count() as f64 / (spec.pe_count() * ii) as f64,
                        op_slots: slots,
                        algorithm: Algorithm::SimulatedAnnealing,
                    });
                }
            }
        }
        if started.elapsed() > options.timeout {
            Err(BaselineFailure::Timeout)
        } else {
            Err(BaselineFailure::NoValidMapping)
        }
    }
}

type OpSlots = HashMap<NodeId, (PeId, i64)>;

/// Anneals op placements; returns a violation-free placement or `None`.
fn anneal(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    options: &BaselineOptions,
    rng: &mut StdRng,
    started: &Instant,
) -> Option<OpSlots> {
    // `Dfg::build` only produces acyclic graphs; a cyclic one is unmappable.
    let order: Vec<NodeId> = match topological_sort(dfg.graph()) {
        Ok(order) => order.into_iter().filter(|&n| dfg.graph()[n].kind.is_op()).collect(),
        Err(_) => return None,
    };
    // Initial placement: ASAP levels round-robin over healthy PEs.
    // Capability-aware candidate pools, one per op-class: neither the
    // initial round-robin nor any annealing move may propose a PE that
    // cannot execute the op (heterogeneous fabrics).
    let mut slots: OpSlots = HashMap::new();
    let mut level: HashMap<NodeId, i64> = HashMap::new();
    let alu_pes: Vec<PeId> = spec
        .pes()
        .filter(|&pe| spec.healthy(pe) && spec.faults.supports(pe, OpClass::Alu))
        .collect();
    let mul_pes: Vec<PeId> = spec
        .pes()
        .filter(|&pe| spec.healthy(pe) && spec.faults.supports(pe, OpClass::Mul))
        .collect();
    let pool = |v: NodeId| -> &[PeId] {
        match dfg.graph()[v].kind {
            NodeKind::Op { kind: OpKind::Mul, .. } => &mul_pes,
            _ => &alu_pes,
        }
    };
    if order.iter().any(|&v| pool(v).is_empty()) {
        return None;
    }
    for (i, &v) in order.iter().enumerate() {
        let lvl = dfg
            .graph()
            .in_neighbors(v)
            .filter_map(|p| level.get(&p).copied())
            .max()
            .map_or(0, |l| l + 1);
        level.insert(v, lvl);
        let pes = pool(v);
        slots.insert(v, (pes[i % pes.len()], lvl));
    }
    let mut cost = total_cost(dfg, spec, ii, &slots);
    let mut temperature = 20.0f64;
    while temperature > 0.05 {
        for _ in 0..options.sa_steps {
            // Per-step poll: `total_cost` is O(E), so a whole `sa_steps`
            // sweep can dwarf a small budget; the coarse outer check alone
            // would overshoot it by orders of magnitude.
            if started.elapsed() > options.timeout {
                return None;
            }
            let v = order[rng.gen_range(0..order.len())];
            let old = slots[&v];
            let pes = pool(v);
            let new_pe = pes[rng.gen_range(0..pes.len())];
            let new_abs = (old.1 + rng.gen_range(-2i64..=2)).max(0);
            slots.insert(v, (new_pe, new_abs));
            let new_cost = total_cost(dfg, spec, ii, &slots);
            let delta = new_cost - cost;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                cost = new_cost;
            } else {
                slots.insert(v, old);
            }
        }
        temperature *= 0.8;
    }
    if has_violations(dfg, ii, &slots) {
        None
    } else {
        Some(slots)
    }
}

/// Wire-length/latency/overuse cost of a placement.
fn total_cost(dfg: &Dfg, spec: &CgraSpec, ii: usize, slots: &OpSlots) -> f64 {
    let mut cost = 0.0;
    // Memory causality: loads (the input's consumers) must come at least
    // STORE_LATENCY cycles after the producing op.
    for &(producer, input) in dfg.mem_deps() {
        let Some(&(_, pabs)) = slots.get(&producer) else { continue };
        for consumer in dfg.graph().out_neighbors(input) {
            if let Some(&(_, cabs)) = slots.get(&consumer) {
                if cabs < pabs + crate::spr::STORE_LATENCY {
                    cost += 1000.0;
                }
            }
        }
    }
    for e in dfg.graph().edge_ids() {
        let (src, dst) = dfg.graph().edge_endpoints(e);
        let (Some(&(spe, sabs)), Some(&(dpe, dabs))) = (slots.get(&src), slots.get(&dst)) else {
            continue;
        };
        let dist = spec.distance(spe, dpe) as i64;
        let lat = dabs - sabs;
        if lat < 1 {
            cost += 1000.0;
        } else {
            if dist > lat {
                cost += 200.0 * (dist - lat) as f64;
            }
            cost += dist as f64 + 0.1 * (lat - dist).max(0) as f64;
        }
    }
    // FU overuse.
    let mut fu_count: HashMap<(PeId, i64), usize> = HashMap::new();
    for &(pe, abs) in slots.values() {
        *fu_count.entry((pe, abs.rem_euclid(ii as i64))).or_insert(0) += 1;
    }
    for &count in fu_count.values() {
        if count > 1 {
            cost += 1000.0 * (count - 1) as f64;
        }
    }
    cost
}

fn has_violations(dfg: &Dfg, ii: usize, slots: &OpSlots) -> bool {
    for &(producer, input) in dfg.mem_deps() {
        let Some(&(_, pabs)) = slots.get(&producer) else { continue };
        for consumer in dfg.graph().out_neighbors(input) {
            if let Some(&(_, cabs)) = slots.get(&consumer) {
                if cabs < pabs + crate::spr::STORE_LATENCY {
                    return true;
                }
            }
        }
    }
    let mut fu_count: HashMap<(PeId, i64), usize> = HashMap::new();
    for &(pe, abs) in slots.values() {
        let c = fu_count.entry((pe, abs.rem_euclid(ii as i64))).or_insert(0);
        *c += 1;
        if *c > 1 {
            return true;
        }
    }
    for e in dfg.graph().edge_ids() {
        let (src, dst) = dfg.graph().edge_endpoints(e);
        if let (Some(&(_, a)), Some(&(_, b))) = (slots.get(&src), slots.get(&dst)) {
            if b <= a {
                return true;
            }
        }
    }
    false
}

/// Detailed-routes every dependence of an annealed placement.
fn validate_routing(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    slots: &OpSlots,
    options: &BaselineOptions,
    started: &Instant,
) -> bool {
    let mut router = Router::new(Mrrg::new(spec.clone(), ii), RouterConfig::default());
    // Arm the deadline on every Dijkstra search: route_all's inner searches
    // then respect the budget, not just the per-round check below.
    router.set_cancel_token(Some(CancelToken::until(*started + options.timeout)));
    for _round in 0..options.pathfinder_rounds {
        if started.elapsed() > options.timeout {
            return false;
        }
        router.clear_present();
        for (&v, &(pe, abs)) in slots {
            router.place(
                RNode::new(pe, abs.rem_euclid(ii as i64) as u32, RKind::Fu),
                SignalId(v.index() as u32),
            );
        }
        if route_all(dfg, spec, ii, slots, &mut router) && router.oversubscribed().is_empty() {
            return true;
        }
        router.bump_history();
    }
    false
}

fn route_all(dfg: &Dfg, spec: &CgraSpec, ii: usize, slots: &OpSlots, router: &mut Router) -> bool {
    let Ok(order) = topological_sort(dfg.graph()) else { return false };
    let mut deliveries: HashMap<(NodeId, NodeId), (RNode, i64)> = HashMap::new();
    let mut mem_producers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(producer, input) in dfg.mem_deps() {
        mem_producers.entry(input).or_default().push(producer);
    }
    let all_mem: Vec<RNode> = spec
        .pes()
        .filter(|&pe| spec.healthy(pe) && !spec.faults.mem_disabled(pe))
        .flat_map(|pe| (0..ii as u32).map(move |t| RNode::new(pe, t, RKind::Mem)))
        .collect();
    for &v in &order {
        if !dfg.graph()[v].kind.is_op() {
            continue;
        }
        let Some(&(pe, abs)) = slots.get(&v) else { return false };
        let target = RNode::new(pe, abs.rem_euclid(ii as i64) as u32, RKind::Fu);
        for e in dfg.graph().in_edges(v) {
            let weight = dfg.graph()[e.id];
            let root = weight.signal(e.src);
            let signal = SignalId(root.index() as u32);
            let path = match (weight.kind, dfg.graph()[e.src].kind) {
                (EdgeKind::Flow, NodeKind::Op { .. }) => {
                    let Some(&(ppe, pabs)) = slots.get(&e.src) else { return false };
                    let src = RNode::new(ppe, pabs.rem_euclid(ii as i64) as u32, RKind::Fu);
                    router.route_one(signal, src, target, Some((abs - pabs) as u32))
                }
                (EdgeKind::Forward { .. }, _) => {
                    let Some(&(node, pabs)) = deliveries.get(&(e.src, root)) else {
                        return false;
                    };
                    router.route_one(signal, node, target, Some((abs - pabs) as u32))
                }
                (EdgeKind::Flow, NodeKind::Input { .. }) => {
                    // Loads may not issue before their producing stores are
                    // visible.
                    let mem_lo = mem_producers.get(&e.src).map_or(0, |producers| {
                        producers
                            .iter()
                            .filter_map(|p| slots.get(p))
                            .map(|&(_, pabs)| pabs + crate::spr::STORE_LATENCY)
                            .max()
                            .unwrap_or(0)
                    });
                    router.route_constrained(
                        signal,
                        &all_mem,
                        target,
                        himap_mapper::Elapsed::AtMost(
                            ((abs - mem_lo).max(0) as u32).min(router.config().default_elapsed_cap),
                        ),
                        |_| true,
                    )
                }
                (EdgeKind::Flow, NodeKind::Route) => return false,
            };
            let Some(path) = path else { return false };
            let gap = if path.nodes.len() < 2 {
                0
            } else {
                let last = path.nodes[path.nodes.len() - 1];
                let prev = path.nodes[path.nodes.len() - 2];
                (last.t as i64 + ii as i64 - prev.t as i64) % ii as i64
            };
            deliveries.insert((v, root), (path.delivery(), abs - gap));
            router.commit(&path);
        }
    }
    true
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    #[test]
    fn maps_tiny_gemm() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let spec = CgraSpec::square(4);
        let m = SaMapper::run(&dfg, &spec, &BaselineOptions::default()).expect("maps");
        assert_eq!(m.algorithm, Algorithm::SimulatedAnnealing);
        assert_eq!(m.op_slots.len(), 16);
    }

    #[test]
    fn deterministic_given_seed() {
        let dfg = Dfg::build(&suite::bicg(), &[2, 2]).unwrap();
        let spec = CgraSpec::square(2);
        let a = SaMapper::run(&dfg, &spec, &BaselineOptions::default());
        let b = SaMapper::run(&dfg, &spec, &BaselineOptions::default());
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.ii, y.ii);
                assert_eq!(x.op_slots, y.op_slots);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            other => panic!("non-deterministic outcome: {other:?}"),
        }
    }

    #[test]
    fn timeout_granularity_is_fine() {
        // Same regression gate as SPR's: the per-step poll inside the
        // annealing sweep must keep a 5 ms budget from ballooning into a
        // full `sa_steps x temperature-levels` schedule.
        let dfg = Dfg::build(&suite::gemm(), &[3, 3, 3]).unwrap();
        let spec = CgraSpec::square(8);
        let options = BaselineOptions {
            timeout: std::time::Duration::from_millis(5),
            ..BaselineOptions::default()
        };
        let started = Instant::now();
        let result = SaMapper::run(&dfg, &spec, &options);
        let elapsed = started.elapsed();
        assert_eq!(result.unwrap_err(), BaselineFailure::Timeout);
        assert!(elapsed < std::time::Duration::from_millis(100), "overshot budget: {elapsed:?}");
    }

    #[test]
    fn anneals_around_dead_pes() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let mut faults = himap_cgra::CapabilityMap::default();
        faults.kill_pe(PeId::new(2, 2));
        let spec = CgraSpec::square(4).with_faults(faults);
        if let Ok(m) = SaMapper::run(&dfg, &spec, &BaselineOptions::default()) {
            for &(pe, _) in m.op_slots.values() {
                assert!(spec.healthy(pe), "op annealed onto dead PE {pe}");
            }
        }
    }

    #[test]
    fn anneals_within_capability_classes() {
        // Every annealing move draws from the op's capability pool, so any
        // produced mapping keeps multiplies on the corner PEs.
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let spec =
            CgraSpec::square(4).with_faults(himap_cgra::CapabilityMap::corner_multipliers(4, 4));
        if let Ok(m) = SaMapper::run(&dfg, &spec, &BaselineOptions::default()) {
            for (&v, &(pe, _)) in &m.op_slots {
                if let NodeKind::Op { kind, .. } = dfg.graph()[v].kind {
                    assert!(spec.faults.supports_op(pe, kind), "{kind:?} on incapable {pe}");
                }
            }
        }
    }

    #[test]
    fn node_limit_enforced() {
        let dfg = Dfg::build(&suite::ttm(), &[4, 4, 4, 4]).unwrap();
        let spec = CgraSpec::square(8);
        let err = SaMapper::run(&dfg, &spec, &BaselineOptions::default()).unwrap_err();
        assert!(matches!(err, BaselineFailure::TooManyNodes { .. }));
    }
}
