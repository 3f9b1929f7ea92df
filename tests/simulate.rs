//! End-to-end checks of the `himap-sim` cycle-accurate simulator.
//!
//! Two directions: `SimReport` goldens that pin what correct mappings
//! simulate to, and mutation tests that break a mapping in one place (via
//! `Mapping::into_parts` / `from_parts`) and pin the exact [`SimError`] the
//! simulator reports, including which error wins when there are several.

use himap_repro::cgra::{CapabilityMap, CgraSpec, PeId, RKind, RNode};
use himap_repro::core::{HiMap, HiMapOptions, Mapping, MappingParts, RouteInstance};
use himap_repro::dfg::{EdgeKind, NodeKind};
use himap_repro::graph::NodeId;
use himap_repro::kernels::{suite, ArrayId, Kernel};
use himap_repro::sim::{simulate, SimError, SimReport};

const SEED: u64 = 1;

fn map_on(kernel: &Kernel, spec: &CgraSpec) -> Mapping {
    HiMap::new(HiMapOptions::default())
        .map(kernel, spec)
        .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()))
}

fn gemm_parts() -> MappingParts {
    map_on(&suite::gemm(), &CgraSpec::square(4)).into_parts()
}

fn fw_parts() -> MappingParts {
    map_on(&suite::floyd_warshall(), &CgraSpec::square(4)).into_parts()
}

fn sim(parts: MappingParts) -> Result<SimReport, SimError> {
    simulate(&Mapping::from_parts(parts), SEED)
}

/// The error a broken mapping must simulate to.
fn error_of(parts: MappingParts) -> SimError {
    match sim(parts) {
        Ok(report) => panic!("the broken mapping simulates: {report:?}"),
        Err(e) => e,
    }
}

/// The signal a route carries: its edge's source, or the forwarded root.
fn root_of(parts: &MappingParts, route: &RouteInstance) -> NodeId {
    let graph = parts.dfg.graph();
    let (src, _) = graph.edge_endpoints(route.edge);
    graph[route.edge].signal(src)
}

// ---------------------------------------------------------------- goldens

/// `(kernel, c, cycles, ops_executed, elements_checked, measured_utilization)`
/// for every suite kernel on a `c × c` array, seed 1.
const GOLDENS: [(&str, usize, i64, usize, usize, f64); 16] = [
    ("adi", 4, 20, 80, 32, 0.25),
    ("atax", 4, 28, 64, 8, 0.14285714285714285),
    ("bicg", 4, 28, 64, 8, 0.14285714285714285),
    ("mvt", 4, 10, 32, 8, 0.2),
    ("gemm", 4, 20, 128, 16, 0.4),
    ("syrk", 4, 20, 128, 16, 0.4),
    ("floyd-warshall", 4, 11, 128, 64, 0.7272727272727273),
    ("ttm", 4, 20, 128, 32, 0.4),
    ("adi", 8, 40, 320, 128, 0.125),
    ("atax", 8, 60, 256, 16, 0.06666666666666667),
    ("bicg", 8, 60, 256, 16, 0.06666666666666667),
    ("mvt", 8, 22, 128, 16, 0.09090909090909091),
    ("gemm", 8, 36, 512, 64, 0.2222222222222222),
    ("syrk", 8, 36, 512, 64, 0.2222222222222222),
    ("floyd-warshall", 8, 11, 512, 256, 0.7272727272727273),
    ("ttm", 8, 60, 2048, 128, 0.5333333333333333),
];

fn golden_of(report: &SimReport) -> (i64, usize, usize, f64) {
    (report.cycles, report.ops_executed, report.elements_checked, report.measured_utilization)
}

#[test]
fn suite_reports_match_goldens_on_4x4_and_8x8() {
    for (name, c, cycles, ops, elements, utilization) in GOLDENS {
        let kernel = suite::by_name(name).unwrap_or_else(|| panic!("no suite kernel {name}"));
        let mapping = map_on(&kernel, &CgraSpec::square(c));
        let report = simulate(&mapping, SEED).unwrap_or_else(|e| panic!("{name} {c}x{c}: {e}"));
        assert_eq!(golden_of(&report), (cycles, ops, elements, utilization), "{name} on {c}x{c}");
    }
}

#[test]
fn gemm_16_report_matches_golden() {
    let options = HiMapOptions { free_extents: vec![16], ..HiMapOptions::default() };
    let mapping = HiMap::new(options)
        .map(&suite::gemm(), &CgraSpec::square(16))
        .unwrap_or_else(|e| panic!("GEMM b = 16 fails to map: {e}"));
    let report = simulate(&mapping, SEED).unwrap_or_else(|e| panic!("GEMM b = 16: {e}"));
    assert_eq!(golden_of(&report), (92, 8192, 256, 0.34782608695652173));
}

#[test]
fn duplicate_routes_of_an_edge_load_at_the_last_ones_time() {
    // A Floyd–Warshall live-in edge whose element an op of the block
    // stores: loading it far too early reads the seeded value instead of
    // the store, and the result goes wrong.
    let parts = fw_parts();
    let graph = parts.dfg.graph();
    let (index, early) = parts
        .routes
        .iter()
        .enumerate()
        .find_map(|(i, r)| {
            let root = root_of(&parts, r);
            let (_, dst) = graph.edge_endpoints(r.edge);
            if !matches!(graph[root].kind, NodeKind::Input { .. }) || !graph[dst].kind.is_op() {
                return None;
            }
            let delivery = *r.steps.last().expect("routes have steps");
            let early =
                RouteInstance { edge: r.edge, steps: vec![(r.steps[0].0, -1000), delivery] };
            let mut probe = parts.clone();
            probe.routes.push(early.clone());
            sim(probe).is_err().then_some((i, early))
        })
        .expect("some Floyd-Warshall load reads a stored element");
    // The early duplicate last: it decides the load time.
    let mut last = parts.clone();
    last.routes.push(early.clone());
    assert!(matches!(sim(last), Err(SimError::ResultMismatch { .. })));
    // The early duplicate first: the original route decides, and the
    // duplicate's lone memory-port claim at cycle -1000 conflicts with
    // nothing.
    let mut first = parts.clone();
    first.routes.insert(index, early);
    let clean = sim(parts).expect("the unmodified mapping simulates");
    let report = sim(first).expect("the original route is the last one");
    assert_eq!(golden_of(&report), golden_of(&clean));
}

// ------------------------------------------------------------- mutations

/// Every capacity-1 wire claim of the routes: `(route, node, abs, root)`.
fn wire_claims(parts: &MappingParts) -> Vec<(usize, RNode, i64, NodeId)> {
    let mut claims = Vec::new();
    for (i, route) in parts.routes.iter().enumerate() {
        let root = root_of(parts, route);
        for &(node, abs) in &route.steps {
            if matches!(node.kind, RKind::Wire(_)) {
                claims.push((i, node, abs, root));
            }
        }
    }
    claims
}

/// The first route from `from` upward (or, with `rev`, the last route down
/// to `from`) whose signal is none of `avoid`.
fn route_avoiding(parts: &MappingParts, from: usize, rev: bool, avoid: &[NodeId]) -> usize {
    let ok = |&i: &usize| !avoid.contains(&root_of(parts, &parts.routes[i]));
    let found = if rev { (from..parts.routes.len()).rev().find(ok) } else { (from..).find(ok) };
    found.expect("a route with another signal")
}

#[test]
fn second_value_on_a_wire_is_a_resource_conflict() {
    let mut parts = gemm_parts();
    let (_, node, abs, root) = wire_claims(&parts)[0];
    let target = route_avoiding(&parts, 0, false, &[root]);
    parts.routes[target].steps.push((node, abs));
    assert_eq!(error_of(parts), SimError::ResourceConflict { node, abs });
}

/// The smallest and largest `(node, abs)` wire claims of the first half
/// of the routes, and the index where the second half starts.
fn extreme_claims(parts: &MappingParts) -> ((RNode, i64, NodeId), (RNode, i64, NodeId), usize) {
    let half = parts.routes.len() / 2;
    let mut claims: Vec<_> = wire_claims(parts)
        .into_iter()
        .filter(|&(i, ..)| i < half)
        .map(|(_, node, abs, root)| (node, abs, root))
        .collect();
    claims.sort();
    let small = claims[0];
    let large = claims[claims.len() - 1];
    assert!((small.0, small.1) < (large.0, large.1));
    (small, large, half)
}

#[test]
fn first_conflict_in_route_order_wins_over_smaller_resource() {
    let parts = gemm_parts();
    let (small, large, half) = extreme_claims(&parts);
    let avoid = [small.2, large.2];
    let late = route_avoiding(&parts, 0, true, &avoid);
    let early = route_avoiding(&parts, half, false, &avoid);
    assert!(early < late);
    // Each injection alone is a conflict on its own resource.
    for (node, abs, _) in [small, large] {
        let mut one = parts.clone();
        one.routes[late].steps.push((node, abs));
        assert_eq!(error_of(one), SimError::ResourceConflict { node, abs });
    }
    // Across routes: the larger resource, injected into the earlier route.
    let mut across = parts.clone();
    across.routes[early].steps.push((large.0, large.1));
    across.routes[late].steps.push((small.0, small.1));
    assert_eq!(error_of(across), SimError::ResourceConflict { node: large.0, abs: large.1 });
    // Within one route: the larger resource, injected at the earlier step.
    let mut within = parts.clone();
    within.routes[late].steps.extend([(large.0, large.1), (small.0, small.1)]);
    assert_eq!(error_of(within), SimError::ResourceConflict { node: large.0, abs: large.1 });
}

/// The first route step, in route and step order, the fault map masks.
fn first_masked_step(parts: &MappingParts) -> (RNode, i64) {
    let spec = &parts.spec;
    parts
        .routes
        .iter()
        .flat_map(|r| r.steps.iter().copied())
        .find(|&(node, _)| spec.faults.masks(spec, node))
        .expect("some step is masked")
}

#[test]
fn faulted_wire_reports_before_its_own_conflict() {
    let mut parts = gemm_parts();
    let (_, large, _) = extreme_claims(&parts);
    let late = route_avoiding(&parts, 0, true, &[large.2]);
    parts.routes[late].steps.push((large.0, large.1));
    let RKind::Wire(dir) = large.0.kind else { unreachable!() };
    parts.spec.faults.sever_link(large.0.pe, dir);
    let (node, abs) = first_masked_step(&parts);
    assert_eq!(node.pe, large.0.pe);
    assert_eq!(error_of(parts), SimError::FaultedResource { node, abs });
}

#[test]
fn earlier_conflict_reports_before_a_later_fault() {
    let mut parts = gemm_parts();
    let (small, _, half) = extreme_claims(&parts);
    let early = route_avoiding(&parts, half, false, &[small.2]);
    parts.routes[early].steps.push((small.0, small.1));
    // Sever a link that no route up to the conflict uses.
    let used: Vec<RNode> =
        parts.routes[..=early].iter().flat_map(|r| r.steps.iter().map(|&(n, _)| n)).collect();
    let uses_link = |n: RNode, m: RNode| n.pe == m.pe && n.kind == m.kind;
    let (_, wire, ..) = wire_claims(&parts)
        .into_iter()
        .find(|&(i, n, ..)| i > early && !used.iter().any(|&u| uses_link(u, n)))
        .expect("a link first used after the conflict");
    let RKind::Wire(dir) = wire.kind else { unreachable!() };
    parts.spec.faults.sever_link(wire.pe, dir);
    assert_eq!(error_of(parts), SimError::ResourceConflict { node: small.0, abs: small.1 });
}

#[test]
fn op_on_a_killed_pe_is_a_faulted_fu() {
    let mut parts = gemm_parts();
    let pe = PeId::new(1, 1);
    parts.spec.faults.kill_pe(pe);
    // The first op in node order placed on the dead PE.
    let (node, slot) = parts
        .dfg
        .graph()
        .nodes()
        .filter(|(_, w)| w.kind.is_op())
        .find_map(|(n, _)| parts.op_slots.get(&n).filter(|s| s.pe == pe).map(|&s| (n, s)))
        .expect("the PE hosts ops");
    assert!(node.index() > 0);
    let fu = RNode::new(pe, slot.cycle_mod, RKind::Fu);
    assert_eq!(error_of(parts), SimError::FaultedResource { node: fu, abs: slot.abs });
}

#[test]
fn route_through_a_killed_pe_is_a_faulted_resource() {
    // Map around a dead PE, then bend one interior wire hop onto it: only
    // that route step touches the dead silicon.
    let dead = PeId::new(1, 1);
    let mut faults = CapabilityMap::new();
    faults.kill_pe(dead);
    let spec = CgraSpec::square(4).with_faults(faults);
    let mut parts = map_on(&suite::gemm(), &spec).into_parts();
    let (route, step) = parts
        .routes
        .iter()
        .enumerate()
        .find_map(|(i, r)| {
            let last = r.steps.len().saturating_sub(1);
            (1..last).find(|&j| matches!(r.steps[j].0.kind, RKind::Wire(_))).map(|j| (i, j))
        })
        .expect("some route hops over a wire");
    let (hop, abs) = parts.routes[route].steps[step];
    let node = RNode::new(dead, hop.t, hop.kind);
    parts.routes[route].steps[step].0 = node;
    assert_eq!(error_of(parts), SimError::FaultedResource { node, abs });
}

#[test]
fn missing_live_in_route_is_route_corrupted() {
    let mut parts = gemm_parts();
    let graph = parts.dfg.graph();
    let index = parts
        .routes
        .iter()
        .position(|r| {
            let (_, dst) = graph.edge_endpoints(r.edge);
            let root = root_of(&parts, r);
            matches!(graph[root].kind, NodeKind::Input { .. }) && graph[dst].kind.is_op()
        })
        .expect("gemm loads live-ins");
    let edge = parts.routes.remove(index).edge;
    assert_eq!(error_of(parts), SimError::RouteCorrupted { edge });
}

#[test]
fn missing_op_to_op_route_is_route_corrupted() {
    let mut parts = gemm_parts();
    let graph = parts.dfg.graph();
    let index = parts
        .routes
        .iter()
        .position(|r| graph[root_of(&parts, r)].kind.is_op())
        .expect("gemm forwards op results");
    let edge = parts.routes.remove(index).edge;
    assert!(parts.routes.iter().all(|r| r.edge != edge), "the removed route was the only one");
    assert_eq!(error_of(parts), SimError::RouteCorrupted { edge });
}

#[test]
fn unplaced_op_is_op_unplaced() {
    let mut parts = gemm_parts();
    let node = *parts.op_slots.keys().max().expect("ops placed");
    parts.op_slots.remove(&node);
    assert_eq!(error_of(parts), SimError::OpUnplaced { node });
}

#[test]
fn op_scheduled_before_its_producers_misses_its_operand() {
    let mut parts = gemm_parts();
    let graph = parts.dfg.graph();
    // A sink op fed only by other ops: move it before both producers.
    let (node, first) = graph
        .nodes()
        .filter(|(n, w)| w.kind.is_op() && graph.out_edges(*n).count() == 0)
        .find_map(|(n, _)| {
            let producers: Vec<_> = graph.in_edges(n).map(|e| e.src).collect();
            producers
                .iter()
                .all(|&p| graph[p].kind.is_op())
                .then(|| producers.iter().map(|p| parts.op_slots[p].abs).min())
                .flatten()
                .map(|first| (n, first))
        })
        .expect("gemm has op-fed sinks");
    assert!(graph.in_edges(node).all(|e| !matches!(graph[e.id].kind, EdgeKind::Forward { .. })));
    if let Some(slot) = parts.op_slots.get_mut(&node) {
        slot.abs = first - 1;
    }
    assert_eq!(error_of(parts), SimError::OperandUnavailable { node, slot: 0 });
}

#[test]
fn route_delivering_a_cycle_late_is_a_schedule_mismatch() {
    let mut parts = gemm_parts();
    let route = parts.routes.iter_mut().find(|r| r.steps.len() >= 2).expect("routes hop");
    let edge = route.edge;
    if let Some(last) = route.steps.last_mut() {
        last.1 += 1;
    }
    let (_, node) = parts.dfg.graph().edge_endpoints(edge);
    assert_eq!(error_of(parts), SimError::ScheduleMismatch { node, edge: Some(edge) });
}

#[test]
fn op_off_its_cycle_slot_is_a_schedule_mismatch() {
    let mut parts = gemm_parts();
    let ii = parts.stats.iib as u32;
    assert!(ii > 1);
    let node = *parts.op_slots.keys().max().expect("ops placed");
    if let Some(slot) = parts.op_slots.get_mut(&node) {
        slot.cycle_mod = (slot.cycle_mod + 1) % ii;
    }
    assert_eq!(error_of(parts), SimError::ScheduleMismatch { node, edge: None });
}

#[test]
fn several_wrong_elements_report_the_smallest_in_every_run() {
    // Floyd–Warshall node 120 three cycles early leaves at least six
    // elements wrong. The final memory is a hash map whose order changes
    // from map to map, so every call must still name the same element: the
    // smallest `(array, element)` that mismatches.
    let mut parts = fw_parts();
    if let Some(slot) = parts.op_slots.get_mut(&NodeId::from_index(120)) {
        slot.abs -= 3;
    }
    let mapping = Mapping::from_parts(parts);
    let errors: Vec<SimError> = (0..6)
        .map(|_| simulate(&mapping, SEED).expect_err("the broken mapping simulates"))
        .collect();
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    assert!(
        matches!(&errors[0], SimError::ResultMismatch { array, element, .. }
            if *array == ArrayId::from_index(0) && *element == [2, 2, 2]),
        "{:?}",
        errors[0]
    );
}

#[test]
fn corrupted_op_slot_is_a_result_mismatch() {
    // Floyd–Warshall node 80 stores an element that a memory-routed load
    // of the block reads. Three cycles early, its store lands before the
    // load of an older value that another op's result depends on, so
    // exactly one element ends wrong.
    let mut parts = fw_parts();
    let node = NodeId::from_index(80);
    if let Some(slot) = parts.op_slots.get_mut(&node) {
        slot.abs -= 3;
    }
    assert_eq!(
        error_of(parts),
        SimError::ResultMismatch {
            array: ArrayId::from_index(0),
            element: vec![2, 0, 0],
            expected: -154,
            actual: -70,
        }
    );
}
