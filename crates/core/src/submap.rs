//! `MAP()` — IDFG to sub-CGRA mapping (Algorithm 1, lines 30-46).
//!
//! Places the compute operations of one (interior) iteration onto candidate
//! sub-CGRAs of every rectangular shape `(s1, s2)` that tiles the target
//! CGRA, over a range of time depths `t`, with PathFinder-negotiated
//! congestion. The result is a list of *relative* mappings ranked by
//! sub-CGRA utilization `|V_F| / (s1·s2·t)` — HiMap's outer loop walks this
//! list best-first until detailed routing succeeds.

use std::collections::HashMap;
use std::sync::Arc;

use himap_cgra::{CgraSpec, MrrgIndex, PeId, RKind, RNode};
use himap_dfg::{Dfg, NodeKind};
use himap_graph::NodeId;
use himap_kernels::Kernel;
use himap_mapper::{CancelToken, Router, RouterConfig, RouterStats, SignalId};

use crate::options::HiMapOptions;

/// A relative mapping of one iteration onto an `s1 × s2 × t` sub-CGRA.
#[derive(Clone, Debug)]
pub struct SubMapping {
    /// Sub-CGRA rows.
    pub s1: usize,
    /// Sub-CGRA columns.
    pub s2: usize,
    /// Time depth (cycles per macro step).
    pub t: usize,
    /// Local slot of each compute op, keyed by `(stmt, op)`.
    pub ops: HashMap<(u8, u8), (PeId, u32)>,
    /// Local memory-port slot of each interior load, keyed by
    /// `(stmt, read)`.
    pub loads: HashMap<(u8, u8), (PeId, u32)>,
    /// `|V_F| / (s1·s2·t)`.
    pub utilization: f64,
}

/// Enumeration counters of one `MAP()` run (see [`map_idfg_counted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubMapStats {
    /// `(s1, s2, t)` shape/depth combinations attempted.
    pub shapes_tried: usize,
    /// Combinations that produced a relative mapping.
    pub mapped: usize,
    /// Router search effort summed across every attempted shape.
    pub router: RouterStats,
}

/// Runs `MAP()`: enumerates sub-CGRA shapes and time depths, returning all
/// successful relative mappings sorted by utilization (best first).
///
/// Only shapes that tile `cgra` evenly are considered. The IDFG is the
/// interior iteration of a small probe block of `kernel` — interior
/// iterations carry the full steady-state structure (all chains pass
/// through them).
pub fn map_idfg(kernel: &Kernel, cgra: &CgraSpec, options: &HiMapOptions) -> Vec<SubMapping> {
    map_idfg_counted(kernel, cgra, options, None).0
}

/// [`map_idfg`], additionally reporting how many shape/depth combinations
/// were attempted — the instrumentation feed for pipeline statistics.
///
/// `cancel` (deadline enforcement) is polled between shape probes and armed
/// on the probe router, so a passed deadline stops the enumeration within
/// one search's poll interval; the shapes probed so far are still returned.
pub fn map_idfg_counted(
    kernel: &Kernel,
    cgra: &CgraSpec,
    options: &HiMapOptions,
    cancel: Option<&CancelToken>,
) -> (Vec<SubMapping>, SubMapStats) {
    let mut stats = SubMapStats::default();
    let probe_block: Vec<usize> = vec![3; kernel.dims()];
    let probe = match Dfg::build(kernel, &probe_block) {
        Ok(d) => d,
        Err(_) => return (Vec::new(), stats),
    };
    let interior = probe.interior_iteration();
    let idfg = probe.idfg(interior);
    let ops = kernel.compute_ops_per_iteration();
    let mut out = Vec::new();
    'shapes: for s1 in 1..=cgra.rows.min(ops) {
        if !cgra.rows.is_multiple_of(s1) {
            continue;
        }
        for s2 in 1..=cgra.cols.min(ops) {
            if !cgra.cols.is_multiple_of(s2) {
                continue;
            }
            let t_min = ops.div_ceil(s1 * s2).max(1);
            for t in t_min..=t_min + options.max_time_slack {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    break 'shapes;
                }
                stats.shapes_tried += 1;
                if let Some(sub) =
                    try_shape(&probe, &idfg, cgra, s1, s2, t, options, cancel, &mut stats.router)
                {
                    out.push(sub);
                }
            }
        }
    }
    stats.mapped = out.len();
    out.sort_by(|a, b| {
        b.utilization
            .total_cmp(&a.utilization)
            .then(a.t.cmp(&b.t))
            .then((a.s1 * a.s2).cmp(&(b.s1 * b.s2)))
            .then(a.s1.cmp(&b.s1))
    });
    (out, stats)
}

#[allow(clippy::too_many_arguments)]
fn try_shape(
    probe: &Dfg,
    idfg: &himap_dfg::Idfg,
    cgra: &CgraSpec,
    s1: usize,
    s2: usize,
    t: usize,
    options: &HiMapOptions,
    cancel: Option<&CancelToken>,
    router_stats: &mut RouterStats,
) -> Option<SubMapping> {
    // Probing is position-agnostic: the relative mapping is replicated only
    // onto healthy tiles, so the sub-CGRA spec drops the physical fault map.
    let sub_spec = CgraSpec { rows: s1, cols: s2, ..cgra.fault_free() };
    // Probe indexes are sub-CGRA sized and cheap to build, so they bypass the
    // process-wide `MrrgIndex::shared` cache: a walk probes up to 36 shapes,
    // which would otherwise evict the full-fabric indexes that the walk, the
    // replication pass and the verifier reuse from run to run.
    let index = Arc::new(MrrgIndex::new(sub_spec.clone(), t));
    let mut router = Router::with_index(index, RouterConfig::default());
    router.set_cancel_token(cancel.cloned());
    // Topological order over the internal edges of the IDFG.
    let order = internal_topo_order(probe, idfg, options.depth_priority_scheduling);
    let mut result = None;
    for _round in 0..options.pathfinder_rounds {
        router.clear_present();
        if let Some(sub) = place_round(probe, idfg, &order, &sub_spec, t, &mut router) {
            if router.oversubscribed().is_empty() {
                let ops_count = idfg.op_count() as f64;
                result = Some(SubMapping {
                    s1,
                    s2,
                    t,
                    ops: sub.0,
                    loads: sub.1,
                    utilization: ops_count / (s1 * s2 * t) as f64,
                });
                break;
            }
            router.bump_history();
        } else {
            router.bump_history();
        }
    }
    router_stats.merge(&router.take_search_stats());
    result
}

type Slots = (HashMap<(u8, u8), (PeId, u32)>, HashMap<(u8, u8), (PeId, u32)>);

fn place_round(
    probe: &Dfg,
    idfg: &himap_dfg::Idfg,
    order: &[NodeId],
    sub_spec: &CgraSpec,
    t: usize,
    router: &mut Router,
) -> Option<Slots> {
    let mut op_slots: HashMap<NodeId, (PeId, u32)> = HashMap::new();
    let mut load_slots: HashMap<NodeId, RNode> = HashMap::new();
    // Delivery point of each already-routed value at each consumer.
    let mut committed: Vec<himap_mapper::RoutedPath> = Vec::new();
    for (order_idx, &v) in order.iter().enumerate() {
        let op_signal = SignalId(order_idx as u32);
        // Parents of v along internal edges.
        let mut op_parents: Vec<(NodeId, u8)> = Vec::new();
        let mut load_parents: Vec<NodeId> = Vec::new();
        for e in probe.graph().in_edges(v) {
            if probe.graph()[e.src].iter != idfg.iter {
                continue; // boundary edges are routed by ROUTE() later
            }
            match probe.graph()[e.src].kind {
                NodeKind::Op { .. } => op_parents.push((e.src, probe.graph()[e.id].slot)),
                NodeKind::Input { .. } => load_parents.push(e.src),
                NodeKind::Route => {}
            }
        }
        let min_t: u32 = op_parents
            .iter()
            .map(|&(p, _)| op_slots.get(&p).map_or(0, |&(_, pt)| pt + 1))
            .max()
            .unwrap_or(0);
        let mut best: Option<(f64, PeId, u32, Vec<himap_mapper::RoutedPath>)> = None;
        for tau in min_t..t as u32 {
            for pe in sub_spec.pes() {
                let target = RNode::new(pe, tau, RKind::Fu);
                // FU slots are exclusive: two ops can never share one, so a
                // conflicting candidate is useless no matter how cheap.
                if !router.occupants(target).is_empty() {
                    continue;
                }
                let mut cost = router.node_cost(target, op_signal);
                let mut paths = Vec::new();
                let mut feasible = true;
                for &(p, _slot) in &op_parents {
                    let (ppe, ptau) = op_slots[&p];
                    let src = RNode::new(ppe, ptau % t as u32, RKind::Fu);
                    // Parents are placed before their children, so each has
                    // a position in `order`; a missing one means the walk is
                    // inconsistent and this candidate cannot be costed.
                    let Some(sig) = order.iter().position(|&o| o == p) else {
                        feasible = false;
                        break;
                    };
                    let sig = SignalId(sig as u32);
                    match router.route_one(sig, src, target, Some(tau - ptau)) {
                        Some(path) => {
                            cost += path.cost;
                            paths.push(path);
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible {
                    for (li, &input) in load_parents.iter().enumerate() {
                        let sig = SignalId(10_000 + order_idx as u32 * 8 + li as u32);
                        let sources: Vec<RNode> = match load_slots.get(&input) {
                            Some(&placed) => vec![placed],
                            None => sub_spec
                                .pes()
                                .flat_map(|p| {
                                    (0..=tau).map(move |tm| RNode::new(p, tm, RKind::Mem))
                                })
                                .collect(),
                        };
                        match router.route(sig, &sources, target, None) {
                            Some(path) if path.elapsed <= tau => {
                                cost += path.cost;
                                paths.push(path);
                            }
                            _ => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                    best = Some((cost, pe, tau, paths));
                }
            }
        }
        let (_, pe, tau, paths) = best?;
        router.place(RNode::new(pe, tau, RKind::Fu), op_signal);
        op_slots.insert(v, (pe, tau));
        for (li, &input) in load_parents.iter().enumerate() {
            // The load path for this input is after the op-parent paths.
            let path = &paths[op_parents.len() + li];
            load_slots.entry(input).or_insert(path.nodes[0]);
        }
        for path in paths {
            router.commit(&path);
            committed.push(path);
        }
    }
    // Re-key results by schema coordinates.
    let mut ops = HashMap::new();
    for (&node, &(pe, tau)) in &op_slots {
        let NodeKind::Op { stmt, op, .. } = probe.graph()[node].kind else {
            unreachable!("only ops are placed")
        };
        ops.insert((stmt, op), (pe, tau));
    }
    let mut loads = HashMap::new();
    for (&node, &slot) in &load_slots {
        let NodeKind::Input { stmt, read } = probe.graph()[node].kind else {
            unreachable!("only inputs are load-placed")
        };
        loads.insert((stmt, read), (slot.pe, slot.t));
    }
    Some((ops, loads))
}

fn internal_topo_order(probe: &Dfg, idfg: &himap_dfg::Idfg, depth_priority: bool) -> Vec<NodeId> {
    // List schedule over the ops of the iteration, using only internal
    // op->op edges. Ready ops are taken deepest-first (longest path to a
    // sink), which interleaves producers next to their consumers and keeps
    // register pressure low — a naive producer-first order parks every
    // operand of a long reduction chain in the RF simultaneously.
    let ops = &idfg.ops;
    let index: HashMap<NodeId, usize> = ops.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut in_deg = vec![0usize; ops.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for &e in &idfg.internal_edges {
        let (src, dst) = probe.graph().edge_endpoints(e);
        if let (Some(&i), Some(&j)) = (index.get(&src), index.get(&dst)) {
            in_deg[j] += 1;
            succs[i].push(j);
        }
    }
    // Heights: longest path to a sink.
    let mut height = vec![0usize; ops.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..ops.len() {
            for &j in &succs[i] {
                if height[i] < height[j] + 1 {
                    height[i] = height[j] + 1;
                    changed = true;
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..ops.len()).filter(|&i| in_deg[i] == 0).collect();
    let mut order = Vec::with_capacity(ops.len());
    while !ready.is_empty() {
        // Deepest first; ties by index for determinism. Without depth
        // priority, take the largest ready index (the historical order that
        // reproduces the paper's utilization profile).
        let pos = if depth_priority {
            ready
                .iter()
                .enumerate()
                .max_by_key(|&(_, &i)| (height[i], std::cmp::Reverse(i)))
                .map(|(p, _)| p)
        } else {
            ready.iter().enumerate().max_by_key(|&(_, &i)| i).map(|(p, _)| p)
        };
        let Some(pos) = pos else { break };
        let i = ready.swap_remove(pos);
        order.push(ops[i]);
        for &j in &succs[i] {
            in_deg[j] -= 1;
            if in_deg[j] == 0 {
                ready.push(j);
            }
        }
    }
    debug_assert_eq!(order.len(), ops.len(), "IDFG internal edges form a DAG");
    order
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    fn best_for(kernel: &Kernel, c: usize) -> Vec<SubMapping> {
        map_idfg(kernel, &CgraSpec::square(c), &HiMapOptions::default())
    }

    #[test]
    fn gemm_best_submapping_is_full() {
        let subs = best_for(&suite::gemm(), 4);
        assert!(!subs.is_empty());
        let best = &subs[0];
        // 2 ops on a 1x1 sub-CGRA over 2 cycles: 100 %.
        assert_eq!((best.s1, best.s2, best.t), (1, 1, 2));
        assert!((best.utilization - 1.0).abs() < 1e-9);
        // mul at cycle 0, add at cycle 1.
        let mul = best.ops[&(0, 0)];
        let add = best.ops[&(0, 1)];
        assert!(add.1 > mul.1);
    }

    #[test]
    fn bicg_has_full_and_two_thirds_candidates() {
        let subs = best_for(&suite::bicg(), 4);
        assert!(!subs.is_empty());
        // §VI: BiCG's final mapping uses (2,1,3) at 4/6 = 66 %; MAP() itself
        // also produces 100 % candidates that ROUTE() later rejects.
        assert!((subs[0].utilization - 1.0).abs() < 1e-9, "best is 100 %");
        assert!(
            subs.iter().any(|s| (s.s1, s.s2, s.t) == (2, 1, 3) || (s.s1, s.s2, s.t) == (1, 2, 3)),
            "the paper's fallback shape must be among the candidates: {:?}",
            subs.iter().map(|s| (s.s1, s.s2, s.t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adi_candidates_include_paper_shape() {
        let subs = best_for(&suite::adi(), 4);
        // (2,1,3) at 5/6 = 83 % (§VI).
        assert!(subs
            .iter()
            .any(|s| (s.s1, s.s2, s.t) == (2, 1, 3) || (s.s1, s.s2, s.t) == (1, 2, 3)));
    }

    #[test]
    fn placements_within_bounds_and_disjoint() {
        for kernel in suite::all() {
            let subs = best_for(&kernel, 4);
            assert!(!subs.is_empty(), "{} has no sub-mapping", kernel.name());
            for sub in subs.iter().take(3) {
                let mut seen = std::collections::HashSet::new();
                for (&key, &(pe, tau)) in &sub.ops {
                    assert!((pe.x as usize) < sub.s1, "{key:?} row");
                    assert!((pe.y as usize) < sub.s2, "{key:?} col");
                    assert!((tau as usize) < sub.t, "{key:?} time");
                    assert!(seen.insert((pe, tau)), "double-booked FU slot for {key:?}");
                }
            }
        }
    }

    #[test]
    fn dependent_ops_are_time_ordered() {
        for kernel in suite::all() {
            let subs = best_for(&kernel, 4);
            let schemas = himap_dfg::stmt_schemas(&kernel);
            for sub in subs.iter().take(3) {
                for (sid, schema) in schemas.iter().enumerate() {
                    for (oi, op) in schema.ops.iter().enumerate() {
                        for operand in [op.lhs, op.rhs] {
                            if let himap_dfg::OperandSrc::Op(child) = operand {
                                let child_t = sub.ops[&(sid as u8, child)].1;
                                let my_t = sub.ops[&(sid as u8, oi as u8)].1;
                                assert!(
                                    my_t > child_t,
                                    "{}: op s{sid}o{oi} at {my_t} not after child {child_t}",
                                    kernel.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn utilization_sorted_descending() {
        let subs = best_for(&suite::mvt(), 8);
        for w in subs.windows(2) {
            assert!(w[0].utilization >= w[1].utilization - 1e-12);
        }
    }

    #[test]
    fn shapes_tile_the_array() {
        let subs =
            map_idfg(&suite::bicg(), &CgraSpec::mesh(8, 1).unwrap(), &HiMapOptions::default());
        for sub in &subs {
            assert_eq!(8 % sub.s1, 0);
            assert_eq!(1 % sub.s2, 0);
            assert_eq!(sub.s2, 1, "8x1 CGRA only fits x1 sub-CGRAs");
        }
    }
}
