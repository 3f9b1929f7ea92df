//! SPR/HyCUBE-style whole-DFG modulo placement and routing.

use std::collections::HashMap;
use std::time::Instant;

use himap_cgra::{CgraSpec, Mrrg, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, NodeKind};
use himap_graph::NodeId;
use himap_mapper::{CancelToken, Elapsed, Router, RouterConfig, SignalId};

use crate::{Algorithm, BaselineFailure, BaselineMapping, BaselineOptions};

/// The SPR-style mapper: place each operation at the FU slot minimizing the
/// accumulated routing cost from its already-placed parents, rip-up and
/// re-negotiate on congestion, increase the initiation interval on failure.
#[derive(Clone, Debug)]
pub struct SprMapper;

impl SprMapper {
    /// Maps the whole DFG onto the CGRA.
    ///
    /// # Errors
    ///
    /// Fails with [`BaselineFailure`] when the DFG exceeds the node limit,
    /// the time budget runs out, or no II in range yields a valid mapping.
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
        let mii = dfg.op_count().div_ceil(spec.pe_count()).max(1);
        let order: Vec<NodeId> = mem_aware_topo_order(dfg)
            .into_iter()
            .filter(|&n| dfg.graph()[n].kind.is_op())
            .collect();
        // Arm every Dijkstra search with the wall-clock deadline, so the
        // budget is honoured inside inner placement/routing loops too — not
        // just at these coarse loop heads.
        let cancel = CancelToken::until(started + options.timeout);
        for ii in mii..=mii + options.max_ii_slack {
            if started.elapsed() > options.timeout {
                return Err(BaselineFailure::Timeout);
            }
            let mut router = Router::new(Mrrg::new(spec.clone(), ii), RouterConfig::default());
            router.set_cancel_token(Some(cancel.clone()));
            for _round in 0..options.pathfinder_rounds {
                if started.elapsed() > options.timeout {
                    return Err(BaselineFailure::Timeout);
                }
                router.clear_present();
                match place_round(dfg, spec, ii, &order, &mut router, options, &started) {
                    Some(op_slots)
                        if router.oversubscribed().is_empty() && anti_deps_ok(dfg, &op_slots) =>
                    {
                        return Ok(BaselineMapping {
                            ii,
                            utilization: dfg.op_count() as f64 / (spec.pe_count() * ii) as f64,
                            op_slots,
                            algorithm: Algorithm::Spr,
                        });
                    }
                    _ => {
                        router.bump_history();
                    }
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

type OpSlots = HashMap<NodeId, (himap_cgra::PeId, i64)>;

/// Topological order over DFG edges *plus* memory-routed store → load
/// dependences, so that every pivot producer is scheduled before the ops
/// that load it.
pub fn mem_aware_topo_order(dfg: &Dfg) -> Vec<NodeId> {
    let graph = dfg.graph();
    let n = graph.node_count();
    let mut extra_out: HashMap<usize, Vec<NodeId>> = HashMap::new();
    let mut in_deg: Vec<usize> = graph.node_ids().map(|v| graph.in_degree(v)).collect();
    for &(producer, input) in dfg.mem_deps() {
        extra_out.entry(producer.index()).or_default().push(input);
        in_deg[input.index()] += 1;
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        (0..n).filter(|&i| in_deg[i] == 0).map(std::cmp::Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(idx)) = ready.pop() {
        let node = NodeId::from_index(idx);
        order.push(node);
        for succ in graph.out_neighbors(node) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                ready.push(std::cmp::Reverse(succ.index()));
            }
        }
        for &succ in extra_out.get(&idx).map_or(&[][..], |v| v.as_slice()) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                ready.push(std::cmp::Reverse(succ.index()));
            }
        }
    }
    assert_eq!(order.len(), n, "mem deps must not create cycles");
    order
}

/// Cycles between a store-producing op and the earliest legal load of its
/// value (register the result, then write to memory).
pub const STORE_LATENCY: i64 = 2;

/// Anti-dependences: every live-in reader's consuming op must be scheduled
/// before the overwriting op's store becomes visible. Conservative: the
/// load happens no later than its consumer, so consumer_abs <= writer_abs + 1
/// suffices.
pub fn anti_deps_ok(dfg: &Dfg, slots: &OpSlots) -> bool {
    for &(reader, writer) in dfg.anti_deps() {
        let Some(&(_, w_abs)) = slots.get(&writer) else { continue };
        for consumer in dfg.graph().out_neighbors(reader) {
            if let Some(&(_, c_abs)) = slots.get(&consumer) {
                // The consumer may be later than the load itself; without
                // the exact load cycle we require the consumer itself to
                // fit, which is conservative but safe only if loads issue
                // at the consumer's cycle at the latest — which they do
                // (loads feed the consuming FU directly or earlier).
                if c_abs > w_abs + 1 {
                    return false;
                }
            }
        }
    }
    true
}

fn place_round(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    order: &[NodeId],
    router: &mut Router,
    options: &BaselineOptions,
    started: &Instant,
) -> Option<OpSlots> {
    let mut slots: OpSlots = HashMap::new();
    // Delivery point and absolute time of (consumer, root signal).
    let mut deliveries: HashMap<(NodeId, NodeId), (RNode, i64)> = HashMap::new();
    // Chosen memory port of each Input node.
    let mut load_ports: HashMap<NodeId, (RNode, i64)> = HashMap::new();
    // Store producers of memory-routed loads.
    let mut mem_producers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(producer, input) in dfg.mem_deps() {
        mem_producers.entry(input).or_default().push(producer);
    }
    let all_mem: Vec<RNode> = spec
        .pes()
        .filter(|&pe| spec.healthy(pe) && !spec.faults.mem_disabled(pe))
        .flat_map(|pe| (0..ii as u32).map(move |t| RNode::new(pe, t, RKind::Mem)))
        .collect();
    for &v in order {
        if started.elapsed() > options.timeout {
            return None;
        }
        let NodeKind::Op { kind: op_kind, .. } = dfg.graph()[v].kind else {
            continue;
        };
        let signal_of = |n: NodeId| SignalId(n.index() as u32);
        // Gather parent sources.
        struct Parent {
            source: Vec<RNode>,
            abs: Option<i64>,
            root: NodeId,
            input: Option<NodeId>,
            /// Earliest legal load cycle (memory-routed loads).
            mem_lo: i64,
        }
        let mut parents = Vec::new();
        let mut lo = 0i64;
        for e in dfg.graph().in_edges(v) {
            let weight = dfg.graph()[e.id];
            let root = weight.signal(e.src);
            match (weight.kind, dfg.graph()[e.src].kind) {
                (EdgeKind::Flow, NodeKind::Op { .. }) => {
                    let &(pe, abs) = slots.get(&e.src)?;
                    lo = lo.max(abs + 1);
                    parents.push(Parent {
                        source: vec![RNode::new(pe, (abs % ii as i64) as u32, RKind::Fu)],
                        abs: Some(abs),
                        root,
                        input: None,
                        mem_lo: 0,
                    });
                }
                (EdgeKind::Forward { .. }, _) => {
                    let &(node, abs) = deliveries.get(&(e.src, root))?;
                    lo = lo.max(abs + 1);
                    parents.push(Parent {
                        source: vec![node],
                        abs: Some(abs),
                        root,
                        input: None,
                        mem_lo: 0,
                    });
                }
                (EdgeKind::Flow, NodeKind::Input { .. }) => {
                    // Memory causality: the load may not issue before every
                    // producing store is visible.
                    let mut mem_lo = 0i64;
                    for producer in mem_producers.get(&e.src).map_or(&[][..], |v| v.as_slice()) {
                        let &(_, pabs) = slots.get(producer)?;
                        mem_lo = mem_lo.max(pabs + STORE_LATENCY);
                    }
                    lo = lo.max(mem_lo);
                    let (source, abs) = match load_ports.get(&e.src) {
                        Some(&(node, abs)) => (vec![node], Some(abs)),
                        None => (all_mem.clone(), None),
                    };
                    parents.push(Parent { source, abs, root, input: Some(e.src), mem_lo });
                }
                (EdgeKind::Flow, NodeKind::Route) => return None,
            }
        }
        // Evaluate candidate slots over one II window past the earliest
        // feasible cycle, using one distance map per parent.
        let hi = lo + ii as i64 - 1;
        let mut parent_costs: Vec<HashMap<(RNode, u32), f64>> = Vec::new();
        for p in &parents {
            let cap = match p.abs {
                Some(abs) => (hi - abs).max(0) as u32,
                None => (2 * ii) as u32,
            };
            parent_costs.push(router.fu_distances(signal_of(p.root), &p.source, cap));
        }
        let mut best: Option<(f64, himap_cgra::PeId, i64)> = None;
        for abs in lo..=hi {
            if started.elapsed() > options.timeout {
                return None;
            }
            let tmod = (abs % ii as i64) as u32;
            for pe in spec.pes() {
                // Capability-aware candidates: the PE must be live AND
                // provide this op's class (heterogeneous fabrics).
                if !spec.healthy(pe) || !spec.faults.supports_op(pe, op_kind) {
                    continue;
                }
                let fu = RNode::new(pe, tmod, RKind::Fu);
                // FU slots are exclusive; skip already-claimed candidates.
                if !router.occupants(fu).is_empty() {
                    continue;
                }
                let mut cost = router.node_cost(fu, signal_of(v));
                let mut feasible = true;
                for (p, costs) in parents.iter().zip(&parent_costs) {
                    let c = match p.abs {
                        Some(pabs) => costs.get(&(fu, (abs - pabs) as u32)).copied(),
                        // Loads may start at any legal cycle (after their
                        // producing stores are visible): take the cheapest
                        // elapsed within that bound.
                        None => {
                            let max_elapsed = ((abs - p.mem_lo).max(0) as u32).min(ii as u32 * 2);
                            (0..=max_elapsed)
                                .filter_map(|e| costs.get(&(fu, e)).copied())
                                .fold(None, |acc: Option<f64>, c| Some(acc.map_or(c, |a| a.min(c))))
                        }
                    };
                    match c {
                        Some(c) => cost += c,
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if feasible && best.as_ref().is_none_or(|(b, ..)| cost < *b) {
                    best = Some((cost, pe, abs));
                }
            }
        }
        let (_, pe, abs) = best?;
        let tmod = (abs % ii as i64) as u32;
        let target = RNode::new(pe, tmod, RKind::Fu);
        // Route parents for real.
        for p in &parents {
            let path = match p.abs {
                Some(pabs) => {
                    router.route(signal_of(p.root), &p.source, target, Some((abs - pabs) as u32))?
                }
                None => router.route_constrained(
                    signal_of(p.root),
                    &p.source,
                    target,
                    Elapsed::AtMost(
                        ((abs - p.mem_lo).max(0) as u32).min(router.config().default_elapsed_cap),
                    ),
                    |_| true,
                )?,
            };
            let delivery = path.delivery();
            let delivery_abs = abs - delivery_gap(router.mrrg(), &path.nodes);
            if let Some(input) = p.input {
                let src_abs = abs - path.elapsed as i64;
                load_ports.entry(input).or_insert((path.nodes[0], src_abs));
            }
            deliveries.insert((v, p.root), (delivery, delivery_abs));
            router.commit(&path);
        }
        router.place(target, signal_of(v));
        slots.insert(v, (pe, abs));
    }
    Some(slots)
}

/// Cycles between the delivery node (second-to-last) and the target.
fn delivery_gap(mrrg: &Mrrg, nodes: &[RNode]) -> i64 {
    if nodes.len() < 2 {
        return 0;
    }
    let ii = mrrg.ii() as i64;
    let last = nodes[nodes.len() - 1];
    let prev = nodes[nodes.len() - 2];
    (last.t as i64 + ii - prev.t as i64) % ii
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    #[test]
    fn maps_small_gemm_block() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let spec = CgraSpec::square(4);
        let m = SprMapper::run(&dfg, &spec, &BaselineOptions::default()).expect("maps");
        assert_eq!(m.algorithm, Algorithm::Spr);
        assert_eq!(m.op_slots.len(), 16);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        // Dependences respect schedule order.
        for e in dfg.graph().edge_ids() {
            let (src, dst) = dfg.graph().edge_endpoints(e);
            if let (Some(&(_, a)), Some(&(_, b))) = (m.op_slots.get(&src), m.op_slots.get(&dst)) {
                assert!(b > a, "edge {e:?} violates precedence");
            }
        }
    }

    #[test]
    fn rejects_oversized_dfgs() {
        let dfg = Dfg::build(&suite::gemm(), &[6, 6, 6]).unwrap();
        let spec = CgraSpec::square(8);
        let err = SprMapper::run(&dfg, &spec, &BaselineOptions::default()).unwrap_err();
        assert!(matches!(err, BaselineFailure::TooManyNodes { .. }));
    }

    #[test]
    fn no_fu_slot_shared() {
        let dfg = Dfg::build(&suite::bicg(), &[3, 3]).unwrap();
        let spec = CgraSpec::square(4);
        let m = SprMapper::run(&dfg, &spec, &BaselineOptions::default()).expect("maps");
        let mut seen = std::collections::HashSet::new();
        for &(pe, abs) in m.op_slots.values() {
            assert!(seen.insert((pe, abs.rem_euclid(m.ii as i64))), "FU slot reuse");
        }
    }

    #[test]
    fn respects_timeout() {
        let dfg = Dfg::build(&suite::gemm(), &[4, 4, 4]).unwrap();
        let spec = CgraSpec::square(8);
        let options = BaselineOptions {
            timeout: std::time::Duration::from_millis(0),
            ..BaselineOptions::default()
        };
        let err = SprMapper::run(&dfg, &spec, &options).unwrap_err();
        assert_eq!(err, BaselineFailure::Timeout);
    }

    #[test]
    fn timeout_granularity_is_fine() {
        // Regression: the budget used to be checked only at coarse loop
        // heads, so one inner placement sweep (fu_distances over every
        // parent) could overshoot a small budget by orders of magnitude.
        // With the armed cancel token and per-candidate polls, a 5 ms budget
        // must come back in the same order of magnitude — the bound allows
        // ~2x plus scheduling and poll-interval grace, far below the
        // hundreds of milliseconds a full unchecked sweep takes.
        let dfg = Dfg::build(&suite::gemm(), &[4, 4, 4]).unwrap();
        let spec = CgraSpec::square(8);
        let options = BaselineOptions {
            timeout: std::time::Duration::from_millis(5),
            ..BaselineOptions::default()
        };
        let started = Instant::now();
        let result = SprMapper::run(&dfg, &spec, &options);
        let elapsed = started.elapsed();
        assert_eq!(result.unwrap_err(), BaselineFailure::Timeout);
        assert!(elapsed < std::time::Duration::from_millis(100), "overshot budget: {elapsed:?}");
    }

    #[test]
    fn respects_capability_classes() {
        // Corner-multiplier 4×4: any mapping SPR produces must keep every
        // multiply on a corner PE (mapper failures are allowed — the
        // candidate pool for muls is only 4 slots per cycle).
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let spec =
            CgraSpec::square(4).with_faults(himap_cgra::CapabilityMap::corner_multipliers(4, 4));
        if let Ok(m) = SprMapper::run(&dfg, &spec, &BaselineOptions::default()) {
            for (&v, &(pe, _)) in &m.op_slots {
                if let NodeKind::Op { kind, .. } = dfg.graph()[v].kind {
                    assert!(spec.faults.supports_op(pe, kind), "{kind:?} on incapable {pe}");
                }
            }
        }
    }

    #[test]
    fn avoids_faulted_pes() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let mut faults = himap_cgra::CapabilityMap::default();
        faults.kill_pe(himap_cgra::PeId::new(0, 0)).disable_mem(himap_cgra::PeId::new(1, 1));
        let spec = CgraSpec::square(4).with_faults(faults);
        let m = SprMapper::run(&dfg, &spec, &BaselineOptions::default()).expect("maps");
        for &(pe, _) in m.op_slots.values() {
            assert!(spec.healthy(pe), "op placed on dead PE {pe}");
        }
    }
}
