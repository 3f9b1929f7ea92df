//! CGRA-ME-style simulated-annealing placement, routed by the
//! fixed-placement router.

use std::collections::HashMap;
use std::time::Instant;

use himap_cgra::{CgraSpec, OpClass, PeId};
use himap_dfg::{Dfg, NodeKind};
use himap_graph::{topological_sort, NodeId};
use himap_kernels::OpKind;
use himap_mapper::CancelToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::route::route_pinned;
use crate::{
    Algorithm, BaselineFailure, BaselineMapping, BaselineOptions, OpSlots, MAX_DFG_NODES,
    MAX_II_SLACK, PATHFINDER_ROUNDS,
};

/// Simulated-annealing steps per temperature.
const SA_STEPS: usize = 400;

/// RNG seed (runs are deterministic given the seed).
const SEED: u64 = 0xC6_5A_17;

/// The simulated-annealing mapper: anneal `(PE, cycle)` placements under a
/// wire-length/latency cost, then route the placement in detail with
/// [`route_pinned`] and keep its routes.
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
        if nodes > MAX_DFG_NODES {
            return Err(BaselineFailure::TooManyNodes { nodes, limit: MAX_DFG_NODES });
        }
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(SEED);
        let mii = dfg.op_count().div_ceil(spec.pe_count()).max(1);
        // The deadline also arms every Dijkstra search of the routing pass.
        let cancel = CancelToken::until(started + options.timeout);
        for ii in mii..=mii + MAX_II_SLACK {
            if started.elapsed() > options.timeout {
                return Err(BaselineFailure::Timeout);
            }
            let Some(op_slots) = anneal(dfg, spec, ii, options, &mut rng, &started) else {
                continue;
            };
            if let Ok(routes) =
                route_pinned(dfg, spec, ii, &op_slots, PATHFINDER_ROUNDS, Some(&cancel))
            {
                return Ok(BaselineMapping {
                    ii,
                    utilization: dfg.op_count() as f64 / (spec.pe_count() * ii) as f64,
                    op_slots,
                    routes,
                    algorithm: Algorithm::SimulatedAnnealing,
                });
            }
        }
        if started.elapsed() > options.timeout {
            Err(BaselineFailure::Timeout)
        } else {
            Err(BaselineFailure::NoValidMapping)
        }
    }
}

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
        for _ in 0..SA_STEPS {
            // Per-step poll: `total_cost` is O(E), so a whole `SA_STEPS`
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
                assert_eq!(x.routes, y.routes);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            other => panic!("non-deterministic outcome: {other:?}"),
        }
    }

    #[test]
    fn timeout_granularity_is_fine() {
        // Same regression gate as SPR's: the per-step poll inside the
        // annealing sweep must keep a 5 ms budget from ballooning into a
        // full `SA_STEPS x temperature-levels` schedule.
        let dfg = Dfg::build(&suite::gemm(), &[3, 3, 3]).unwrap();
        let spec = CgraSpec::square(8);
        let options = BaselineOptions { timeout: std::time::Duration::from_millis(5) };
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
