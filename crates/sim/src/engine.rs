//! The discrete-event simulation engine.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use himap_cgra::{PeId, PowerModel, RKind, RNode};
use himap_core::Mapping;
use himap_dfg::{from_iter4, NodeKind, OperandSrc};
use himap_graph::{EdgeId, NodeId};
use himap_kernels::{interpret, ArrayId, ArrayStore, StmtId};

/// Latency in cycles between an op producing a value and that value being
/// readable from data memory (register the result, then write).
const STORE_LATENCY: i64 = 2;

/// Result of a successful simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Absolute cycles simulated (span of the block schedule).
    pub cycles: i64,
    /// Operations executed.
    pub ops_executed: usize,
    /// Array elements compared against the reference interpreter.
    pub elements_checked: usize,
    /// Measured utilization over the simulated span (ops / (PEs × cycles)).
    pub measured_utilization: f64,
    /// Energy estimate for the simulated span in microjoules (40 nm model).
    pub energy_uj: f64,
}

/// A functional or timing violation found by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// More distinct values occupy one resource in one cycle than it has
    /// capacity for (`CgraSpec::capacity`: one for most resources, the
    /// port count for `Mem`, `RegWr` and `RegRd`).
    ResourceConflict {
        /// The contested resource.
        node: RNode,
        /// Absolute cycle.
        abs: i64,
    },
    /// An operand slot of an op has no value source.
    OperandUnavailable {
        /// The op.
        node: NodeId,
        /// The slot (0 or 1).
        slot: u8,
    },
    /// A route's endpoint value disagrees with its signal.
    RouteCorrupted {
        /// The DFG edge whose route broke.
        edge: EdgeId,
    },
    /// The mapping left a compute op without an FU slot.
    OpUnplaced {
        /// The unplaced op.
        node: NodeId,
    },
    /// The mapping's block extents do not match its kernel's loop nest.
    BlockMismatch,
    /// An op executes on, or a route drives, a resource the architecture's
    /// fault map marks dead, severed or disabled.
    FaultedResource {
        /// The faulted resource.
        node: RNode,
        /// Absolute cycle.
        abs: i64,
    },
    /// The schedule disagrees with itself: op `node`'s `cycle_mod` is not
    /// its absolute cycle modulo the II (`edge` is `None`), or the route of
    /// `edge` into `node` does not end on its FU at its absolute cycle.
    ScheduleMismatch {
        /// The op.
        node: NodeId,
        /// The in-edge whose route ends elsewhere.
        edge: Option<EdgeId>,
    },
    /// The final memory differs from the reference interpreter.
    ResultMismatch {
        /// Array holding the element.
        array: ArrayId,
        /// Element index.
        element: Vec<i64>,
        /// Interpreter value.
        expected: i64,
        /// Simulated value.
        actual: i64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ResourceConflict { node, abs } => {
                write!(f, "resource conflict on {node} at cycle {abs}")
            }
            SimError::OperandUnavailable { node, slot } => {
                write!(f, "operand {slot} of {node:?} has no value")
            }
            SimError::RouteCorrupted { edge } => write!(f, "route of {edge:?} corrupted"),
            SimError::OpUnplaced { node } => write!(f, "op {node:?} has no fu slot"),
            SimError::FaultedResource { node, abs } => {
                write!(f, "faulted resource {node} driven at cycle {abs}")
            }
            SimError::BlockMismatch => write!(f, "block extents do not match the kernel"),
            SimError::ScheduleMismatch { node, edge: None } => {
                write!(f, "op {node:?} has a cycle slot other than its absolute cycle's")
            }
            SimError::ScheduleMismatch { node, edge: Some(edge) } => {
                write!(f, "route of {edge:?} does not reach {node:?} at its scheduled cycle")
            }
            SimError::ResultMismatch { array, element, expected, actual } => write!(
                f,
                "result mismatch at {array:?}{element:?}: expected {expected}, got {actual}"
            ),
        }
    }
}

impl Error for SimError {}

/// An array element: the array and the element's index.
type Element = (ArrayId, Vec<i64>);

/// Simulates a mapping on seeded inputs and validates it against the
/// reference interpreter.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered; a mapping that passes has
/// executed every operation at its scheduled cycle with values that
/// physically traversed its routes, and reproduced the interpreter's
/// results exactly.
///
/// Errors come in phase order: placement (in node order), then execution
/// (in schedule order; for each operand, an edge with no route, from a
/// live-in or from an op, is [`SimError::RouteCorrupted`], checked before
/// whether the producing op has run yet), then the routes (in route and step order, a fault
/// before a capacity overflow at the same step), then the final memory
/// (the smallest mismatching `(array, element)`), then the schedule's
/// consistency: the first op in node order whose `cycle_mod` is not its
/// absolute cycle modulo the II, else the first route in route order that
/// does not end on its consumer's FU at the consumer's cycle
/// ([`SimError::ScheduleMismatch`]). The placement pass and the route
/// stamping find those as they go, but report them last, so that an error
/// the values show wins.
pub fn simulate(mapping: &Mapping, seed: u64) -> Result<SimReport, SimError> {
    let dfg = mapping.dfg();
    let graph = dfg.graph();
    let spec = mapping.spec();
    let ii = mapping.stats().iib as i64;
    // Reference execution.
    let mut expected = ArrayStore::new(seed);
    interpret(dfg.kernel(), dfg.block(), &mut expected).map_err(|_| SimError::BlockMismatch)?;
    let live_ins = ArrayStore::new(seed);
    // The route of each edge; of duplicate routes, the last one wins.
    let mut route_of = vec![NONE; graph.edge_count()];
    for (i, route) in mapping.routes().iter().enumerate() {
        if let Some(r) = route_of.get_mut(route.edge.index()) {
            *r = i as u32;
        }
    }

    // Place the ops. Executing on a faulted PE is a hard error: the silicon
    // is not there. Root ops store their statement's target element,
    // interned here once to a dense element id.
    let schemas = dfg.schemas();
    let mut elements: HashMap<(ArrayId, Vec<i64>), u32> = HashMap::new();
    let mut ops: Vec<(i64, NodeId, u32)> = Vec::new();
    // Each op's FU and absolute cycle, where its in-routes must end.
    let mut placed = vec![(RNode::new(PeId::new(0, 0), 0, RKind::Fu), 0i64); graph.node_count()];
    // The first schedule inconsistency, reported after every other check.
    let mut mistimed = None;
    for (n, w) in graph.nodes() {
        let NodeKind::Op { stmt, op, .. } = w.kind else { continue };
        let slot = mapping.op_slot(n).ok_or(SimError::OpUnplaced { node: n })?;
        let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
        if spec.faults.masks(spec, fu) {
            return Err(SimError::FaultedResource { node: fu, abs: slot.abs });
        }
        if mistimed.is_none() && i64::from(slot.cycle_mod) != slot.abs.rem_euclid(ii) {
            mistimed = Some(SimError::ScheduleMismatch { node: n, edge: None });
        }
        let mut target = NONE;
        if op == schemas[stmt as usize].root_op() {
            let stmt_ir = dfg.kernel().stmt(StmtId::from_index(stmt as usize));
            let element = stmt_ir.target.element_at(&from_iter4(w.iter, dfg.dims()));
            let next = elements.len() as u32;
            target = *elements.entry((stmt_ir.target.array, element)).or_insert(next);
        }
        placed[n.index()] = (fu, slot.abs);
        ops.push((slot.abs, n, target));
    }
    ops.sort_unstable();
    // Every input node's element id (`NONE` when no op stores it, so it
    // always reads its live-in) and seeded live-in value.
    let mut inputs = vec![(NONE, 0i64); graph.node_count()];
    for (n, _) in graph.nodes() {
        if let Some((array, element)) = dfg.input_element(n) {
            let live_in = live_ins.live_in(array, &element);
            let id = elements.get(&(array, element)).copied().unwrap_or(NONE);
            inputs[n.index()] = (id, live_in);
        }
    }

    // Execute the ops in absolute schedule order. The data memories hold,
    // per stored element id, its stores as `(visible-from cycle, value)`;
    // ops execute in schedule order, so each list is sorted by visibility,
    // and of equal visibilities the last store executed comes last.
    let mut memory: Vec<Vec<(i64, i64)>> = vec![Vec::new(); elements.len()];
    let mut results: Vec<Option<i64>> = vec![None; graph.node_count()];
    for &(abs, node, target) in &ops {
        let NodeKind::Op { stmt, op, kind } = graph[node].kind else { unreachable!() };
        let schema = &schemas[stmt as usize].ops[op as usize];
        let mut operands = [0i64; 2];
        for slot in 0..2u8 {
            if let OperandSrc::Const(c) = schema.operand(slot) {
                operands[slot as usize] = c;
                continue;
            }
            // Find the in-edge feeding this slot.
            let edge = graph
                .in_edges(node)
                .find(|e| graph[e.id].slot == slot)
                .ok_or(SimError::OperandUnavailable { node, slot })?;
            let root = graph[edge.id].signal(edge.src);
            let corrupted = SimError::RouteCorrupted { edge: edge.id };
            operands[slot as usize] = match graph[root].kind {
                NodeKind::Op { .. } => {
                    // A value that no route carries never reaches the FU.
                    if route_of[edge.id.index()] == NONE {
                        return Err(corrupted);
                    }
                    results[root.index()].ok_or(SimError::OperandUnavailable { node, slot })?
                }
                NodeKind::Input { .. } => {
                    // Load at the route's first step time.
                    let route = mapping.routes().get(route_of[edge.id.index()] as usize);
                    let &(_, load_abs) = route.and_then(|r| r.steps.first()).ok_or(corrupted)?;
                    let (id, live_in) = inputs[root.index()];
                    memory_read(&memory, id, live_in, load_abs)
                }
            };
        }
        let value = kind.apply(operands[0], operands[1]);
        results[node.index()] = Some(value);
        if target != NONE {
            memory[target as usize].push((abs + STORE_LATENCY, value));
        }
    }

    check_occupancy(mapping, &results, &inputs, &memory, &placed, &mut mistimed)?;

    // Compare final memory state with the interpreter. The store is a hash
    // map, so of several mismatches the smallest `(array, element)` is
    // reported: the same one in every run.
    let mut elements_checked = 0usize;
    let mut mismatch: Option<(&Element, i64, i64)> = None;
    for (key, &expected_value) in expected.iter() {
        let actual = elements
            .get(key)
            .and_then(|&id| memory[id as usize].last())
            .map(|&(_, v)| v)
            .unwrap_or_else(|| live_ins.live_in(key.0, &key.1));
        if actual == expected_value {
            elements_checked += 1;
        } else if mismatch.as_ref().is_none_or(|&(smallest, ..)| key < smallest) {
            mismatch = Some((key, expected_value, actual));
        }
    }
    if let Some((key, expected, actual)) = mismatch {
        return Err(SimError::ResultMismatch {
            array: key.0,
            element: key.1.clone(),
            expected,
            actual,
        });
    }
    if let Some(error) = mistimed {
        return Err(error);
    }

    let cycles = ops.iter().map(|&(abs, ..)| abs).max().unwrap_or(0) + 1;
    let pe_count = spec.pe_count();
    let measured_utilization = ops.len() as f64 / (pe_count as f64 * cycles as f64);
    let model = PowerModel::cmos40nm();
    let power_mw = model.array_power_mw(spec, measured_utilization.min(1.0));
    let seconds = cycles as f64 / (spec.freq_mhz * 1e6);
    let energy_uj = power_mw * 1e-3 * seconds * 1e6;
    Ok(SimReport {
        cycles,
        ops_executed: ops.len(),
        elements_checked,
        measured_utilization,
        energy_uj,
    })
}

/// "No id": an edge without a route, an op storing nothing, an input whose
/// element no op stores.
const NONE: u32 = u32::MAX;

/// Reads element `id` at an absolute cycle: the latest store visible by
/// then, falling back to the seeded live-in value.
fn memory_read(memory: &[Vec<(i64, i64)>], id: u32, live_in: i64, abs: i64) -> i64 {
    let Some(stores) = memory.get(id as usize) else { return live_in };
    match stores.partition_point(|&(visible, _)| visible <= abs) {
        0 => live_in,
        n => stores[n - 1].1,
    }
}

/// Stamps every route's value over its resource steps; more distinct
/// values on one `(resource, cycle)` than the resource has capacity for
/// exposes routing/replication bugs.
///
/// Claims are one flat `(resource key, cycle, claim order, route)` list,
/// sorted once and scanned run by run. A run's overflow is found at the
/// claim that brings its distinct values past capacity, and the earliest
/// such claim over all runs is reported. Stamping stops at the first
/// faulted step: only claims before it can overflow earlier.
///
/// Stamping also records in `mistimed`, unless it holds an error already,
/// the first route that does not end where `placed` puts its consumer.
fn check_occupancy(
    mapping: &Mapping,
    results: &[Option<i64>],
    inputs: &[(u32, i64)],
    memory: &[Vec<(i64, i64)>],
    placed: &[(RNode, i64)],
    mistimed: &mut Option<SimError>,
) -> Result<(), SimError> {
    let dfg = mapping.dfg();
    let graph = dfg.graph();
    let spec = mapping.spec();
    let mut values: Vec<i64> = Vec::with_capacity(mapping.routes().len());
    // Sized for every step up front: growing by doubling would copy the
    // largest allocation of the check.
    let steps = mapping.routes().iter().map(|r| r.steps.len()).sum();
    let mut claims: Vec<(u128, i64, u32, u32)> = Vec::with_capacity(steps);
    let mut stop = None;
    'stamp: for (i, route) in mapping.routes().iter().enumerate() {
        let (src, dst) = graph.edge_endpoints(route.edge);
        debug_assert!(graph[dst].kind.is_op(), "every DFG edge ends at an op");
        if mistimed.is_none() && route.steps.last() != Some(&placed[dst.index()]) {
            *mistimed = Some(SimError::ScheduleMismatch { node: dst, edge: Some(route.edge) });
        }
        let root = graph[route.edge].signal(src);
        let value = match graph[root].kind {
            // Every op has executed by now.
            NodeKind::Op { .. } => results[root.index()].unwrap_or_default(),
            NodeKind::Input { .. } => {
                let (id, live_in) = inputs[root.index()];
                route
                    .steps
                    .first()
                    .map_or(live_in, |&(_, abs)| memory_read(memory, id, live_in, abs))
            }
        };
        values.push(value);
        for &(node, abs) in &route.steps {
            if spec.faults.masks(spec, node) {
                stop = Some(SimError::FaultedResource { node, abs });
                break 'stamp;
            }
            // FU endpoints hold op results, accounted separately.
            if node.kind != RKind::Fu {
                claims.push((node.packed_key(), abs, claims.len() as u32, i as u32));
            }
        }
    }
    claims.sort_unstable();
    let mut first: Option<(u32, RNode, i64)> = None;
    let mut distinct: Vec<i64> = Vec::new();
    for run in claims.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let node = RNode::from_packed_key(run[0].0);
        let capacity = spec.capacity(node.kind);
        if run.len() <= capacity {
            continue;
        }
        distinct.clear();
        for &(_, abs, order, route) in run {
            if first.is_some_and(|(earliest, ..)| earliest < order) {
                break;
            }
            let value = values[route as usize];
            if !distinct.contains(&value) {
                distinct.push(value);
                if distinct.len() > capacity {
                    first = Some((order, node, abs));
                    break;
                }
            }
        }
    }
    match (first, stop) {
        (Some((_, node, abs)), _) => Err(SimError::ResourceConflict { node, abs }),
        (None, Some(error)) => Err(error),
        (None, None) => Ok(()),
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_cgra::CgraSpec;
    use himap_core::{HiMap, HiMapOptions};
    use himap_kernels::suite;

    fn check(kernel: &himap_kernels::Kernel, c: usize, seed: u64) -> SimReport {
        let mapping = HiMap::new(HiMapOptions::default())
            .map(kernel, &CgraSpec::square(c))
            .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()));
        simulate(&mapping, seed)
            .unwrap_or_else(|e| panic!("{} fails simulation: {e}", kernel.name()))
    }

    #[test]
    fn gemm_validates_on_2x2() {
        // The paper's Fig. 5 configuration.
        let report = check(&suite::gemm(), 2, 7);
        assert!(report.elements_checked > 0);
        // block (2, 2, free_extent) iterations x 2 ops each.
        assert_eq!(report.ops_executed % 8, 0);
        assert!(report.ops_executed >= 16);
    }

    #[test]
    fn all_kernels_validate_on_4x4() {
        for kernel in suite::all() {
            let report = check(&kernel, 4, 1234);
            assert!(report.elements_checked > 0, "{}", kernel.name());
            assert!(report.cycles > 0);
        }
    }

    #[test]
    fn different_seeds_validate() {
        for seed in [0u64, 1, 99, 0xDEADBEEF] {
            let report = check(&suite::bicg(), 4, seed);
            assert!(report.elements_checked > 0);
        }
    }

    #[test]
    fn equal_time_stores_keep_the_last_executed() {
        // Ops execute in `(abs, node)` order and append their stores in that
        // order, so of two stores visible from one cycle the later wins.
        let memory = vec![vec![(3, 10), (5, 20), (5, 30)]];
        assert_eq!(memory_read(&memory, 0, -1, 2), -1);
        assert_eq!(memory_read(&memory, 0, -1, 4), 10);
        assert_eq!(memory_read(&memory, 0, -1, 5), 30);
        assert_eq!(memory_read(&memory, NONE, -1, 5), -1);
    }

    #[test]
    fn report_metrics_are_sane() {
        let report = check(&suite::mvt(), 4, 5);
        assert!(report.measured_utilization > 0.0);
        assert!(report.measured_utilization <= 1.0);
        assert!(report.energy_uj > 0.0);
    }
}
