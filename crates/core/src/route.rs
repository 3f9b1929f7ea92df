//! `ROUTE()` and replication (Algorithm 1, lines 21-29).
//!
//! Only the class representatives' dependences are routed in detail; every
//! other iteration reuses its class's routed patterns translated in
//! space-time. A final full-array stamping pass verifies that the replicated
//! routing oversubscribes no resource and that every memory-routed
//! dependence loads after its store.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use himap_cgra::{Mrrg, MrrgIndex, PeId, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, Iter4, NodeKind};
use himap_graph::{EdgeId, NodeId};
use himap_mapper::{Elapsed, Router, RouterConfig, RouterStats, SignalId};

use crate::layout::Layout;
use crate::options::HiMapOptions;
use crate::unique::{descriptor, Classes, Descriptor};

/// Mesh distance beyond which a memory-port route switches from the plain
/// negotiated search to the A*-bounded one: close routes are cheaper
/// without the backward sweep, distant ones amortize it many times over.
const LONG_HAUL_HOPS: usize = 8;

/// A route pattern in class-relative coordinates: physical PE and resource
/// kind per step, plus the step's cycle offset from the owning iteration's
/// macro start (`pos.t·t`). Offsets may be negative (sources in earlier
/// macro steps).
pub type Pattern = Vec<(PeId, RKind, i64)>;

/// The detailed routing of one iteration class.
#[derive(Clone, Debug, Default)]
pub struct ClassPattern {
    /// Routed in-edge patterns, keyed by edge descriptor. PE coordinates are
    /// *relative to the representative's SPE origin* (its sub-CGRA corner).
    pub routes: HashMap<Descriptor, Pattern>,
}

/// The routed design: one pattern per class.
#[derive(Clone, Debug)]
pub struct RoutedDesign {
    /// Per-class patterns, indexed by `ClassId`.
    pub patterns: Vec<ClassPattern>,
    /// PathFinder negotiation rounds consumed before convergence (a failed
    /// negotiation always consumes the full `pathfinder_rounds` budget).
    pub rounds: usize,
}

/// Errors of the routing/replication stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// An edge could not be routed within its elapsed budget.
    Unroutable(EdgeId),
    /// Forwarding sources never became available (unexpected chain order).
    ForwardOrdering,
    /// Negotiation ended with oversubscribed resources.
    Congested(usize),
    /// Replicated routing oversubscribes resources. Carries the conflicting
    /// resources translated back into the representatives' frames, so the
    /// caller can feed them into the next negotiation round as history.
    ReplicaConflicts {
        /// Number of oversubscribed resources.
        count: usize,
        /// Conflicting resources in representative frames.
        rep_frame: Vec<RNode>,
    },
    /// A memory-routed dependence loads before its store completes.
    MemCausality,
    /// An anti-dependence is violated: an element is overwritten before a
    /// pending live-in load reads it.
    AntiDependence,
    /// A dependence does not advance absolute time (invalid layout).
    NonCausal(EdgeId),
    /// A class is missing the routed pattern for one of its edge
    /// descriptors — the classification and the routed design disagree,
    /// which means a pipeline-internal invariant broke upstream.
    MissingPattern {
        /// The class whose pattern set is incomplete.
        class: usize,
    },
    /// A representative op slot lands on an FU masked out of the MRRG —
    /// a dead or route-only PE. The capability-blind layout proposed it;
    /// the candidate is rejected before any routing work.
    MaskedSlot(RNode),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable(e) => write!(f, "edge {e:?} is unroutable"),
            RouteError::ForwardOrdering => write!(f, "forwarding chain ordering stuck"),
            RouteError::Congested(n) => write!(f, "{n} resources oversubscribed after routing"),
            RouteError::ReplicaConflicts { count, .. } => {
                write!(f, "{count} resources oversubscribed after replication")
            }
            RouteError::MemCausality => write!(f, "memory-routed load precedes its store"),
            RouteError::AntiDependence => {
                write!(f, "an element is overwritten before a pending load reads it")
            }
            RouteError::NonCausal(e) => write!(f, "edge {e:?} does not advance time"),
            RouteError::MissingPattern { class } => {
                write!(f, "class {class} is missing a routed pattern for one of its edges")
            }
            RouteError::MaskedSlot(node) => {
                write!(f, "op slot {node:?} is masked out of the MRRG (dead or route-only PE)")
            }
        }
    }
}

impl Error for RouteError {}

/// Instrumentation of one [`route_representatives_counted`] call: the
/// router's search-effort counters plus the time spent acquiring the shared
/// dense MRRG index (a cache hit after the first build, so ~zero in steady
/// state).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteCounters {
    /// Dijkstra search effort across every `route*` call of the attempt.
    pub router: RouterStats,
    /// Wall time of the `MrrgIndex::shared` acquisition.
    pub index_build: Duration,
}

/// Routes the representatives' in-edges with PathFinder negotiation and
/// extracts the per-class patterns.
pub fn route_representatives(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
) -> Result<RoutedDesign, RouteError> {
    route_representatives_counted(dfg, layout, classes, options, seed_history).0
}

/// [`route_representatives`], additionally reporting the router's search
/// effort and the index-acquisition time — the instrumentation feed for
/// pipeline statistics (mirrors `map_idfg`/`map_idfg_counted`).
pub fn route_representatives_counted(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
) -> (Result<RoutedDesign, RouteError>, RouteCounters) {
    let spec = layout.vsa().spec().clone();
    // One dense index per (spec, II) serves every negotiation attempt, every
    // candidate and the replication pass.
    let index_start = Instant::now();
    let index = MrrgIndex::shared(spec, layout.iib());
    let index_build = index_start.elapsed();
    let mut router = Router::with_index(index, RouterConfig::default());
    route_representatives_pooled(
        dfg,
        layout,
        classes,
        options,
        seed_history,
        &mut router,
        index_build,
    )
}

/// [`route_representatives_counted`] on a caller-owned, long-lived router —
/// the entry point of the candidate walk, which keeps one router per
/// `(spec, II)` alive across candidates instead of reconstructing
/// congestion vectors per attempt.
///
/// The router must be indexed for the layout's `(spec, iib)`. It is
/// [`Router::reset`] here, so every negotiation starts from clean
/// present/history state exactly as a freshly built router would, while the
/// dense congestion vectors and the epoch-stamped search scratch are reused
/// allocation-free. `index_build` is the caller's index-acquisition time,
/// passed through into the counters. Any armed
/// [`CancelToken`](himap_mapper::CancelToken) stays armed: a negotiation for
/// a cancelled walk collapses within a few heap pops.
pub fn route_representatives_pooled(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
    router: &mut Router,
    index_build: Duration,
) -> (Result<RoutedDesign, RouteError>, RouteCounters) {
    debug_assert_eq!(
        router.mrrg().ii(),
        layout.iib(),
        "pooled router indexed for a different II than the layout's"
    );
    router.reset();
    let result = negotiate(dfg, layout, classes, options, seed_history, router);
    let counters = RouteCounters { router: router.take_search_stats(), index_build };
    (result, counters)
}

/// The negotiation loop proper, on a caller-provided router.
fn negotiate(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
    router: &mut Router,
) -> Result<RoutedDesign, RouteError> {
    // Replica conflicts from a previous replication attempt enter the
    // negotiation as pre-seeded history costs.
    for &node in seed_history {
        router.add_history(node, RouterConfig::default().history_increment);
    }
    // Deterministic edge list: every in-edge of every rep-iteration node.
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut is_rep_iter = vec![false; dfg.iteration_count()];
    for &rep in &classes.reps {
        is_rep_iter[rep] = true;
    }
    for e in dfg.graph().edge_ids() {
        let (_, dst) = dfg.graph().edge_endpoints(e);
        let dst_iter = dfg.graph()[dst].iter;
        if is_rep_iter[dfg.linear_index(dst_iter)] {
            edges.push(e);
        }
    }
    // Place every rep op's FU slot so congestion sees them.
    for &rep in &classes.reps {
        let iter = dfg.iteration_at(rep);
        for &node in dfg.cluster(iter) {
            if let NodeKind::Op { stmt, op, .. } = dfg.graph()[node].kind {
                let slot = layout.op_slot(dfg, iter, stmt, op);
                let rnode = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
                // The layout probes capability-blind; a slot on a dead or
                // route-only PE has no FU node in the MRRG and the whole
                // candidate is rejected typed before any routing work.
                if router.index().index_of(rnode).is_none() {
                    return Err(RouteError::MaskedSlot(rnode));
                }
                router.place(rnode, SignalId(node.index() as u32));
            }
        }
    }

    let mut last_err = RouteError::ForwardOrdering;
    for round in 0..options.pathfinder_rounds {
        match route_round(dfg, layout, classes, &edges, router) {
            Ok(mut result) => {
                if router.oversubscribed().is_empty() {
                    result.rounds = round + 1;
                    return Ok(result);
                }
                last_err = RouteError::Congested(router.oversubscribed().len());
                router.bump_history();
                clear_routes(dfg, layout, classes, router);
            }
            Err(e) => {
                last_err = e;
                router.bump_history();
                clear_routes(dfg, layout, classes, router);
            }
        }
    }
    Err(last_err)
}

/// Clears routed occupancy but keeps placed FU slots and history.
fn clear_routes(dfg: &Dfg, layout: &Layout, classes: &Classes, router: &mut Router) {
    router.clear_present();
    for &rep in &classes.reps {
        let iter = dfg.iteration_at(rep);
        for &node in dfg.cluster(iter) {
            if let NodeKind::Op { stmt, op, .. } = dfg.graph()[node].kind {
                let slot = layout.op_slot(dfg, iter, stmt, op);
                router.place(
                    RNode::new(slot.pe, slot.cycle_mod, RKind::Fu),
                    SignalId(node.index() as u32),
                );
            }
        }
    }
}

fn route_round(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    edges: &[EdgeId],
    router: &mut Router,
) -> Result<RoutedDesign, RouteError> {
    let t = layout.sub().t as i64;
    let iib = layout.iib() as i64;
    // The routed net of (consumer node, root signal): every resource the
    // signal exists on, with absolute times — later chain links may tap any
    // of them.
    let mut deliveries: HashMap<(NodeId, NodeId), Vec<(RNode, i64)>> = HashMap::new();
    let mut patterns: Vec<ClassPattern> =
        (0..classes.reps.len()).map(|_| ClassPattern::default()).collect();
    let mut routed = vec![false; edges.len()];
    let mut remaining = edges.len();
    while remaining > 0 {
        let mut progress = false;
        for (idx, &e) in edges.iter().enumerate() {
            if routed[idx] {
                continue;
            }
            let Some(source) = edge_source(dfg, layout, classes, &deliveries, &patterns, e) else {
                continue; // forwarding source not available yet
            };
            let (src, dst) = dfg.graph().edge_endpoints(e);
            let dst_iter = dfg.graph()[dst].iter;
            let NodeKind::Op { stmt, op, .. } = dfg.graph()[dst].kind else {
                // Route relays are not generated for the built-in kernels.
                return Err(RouteError::Unroutable(e));
            };
            let dslot = layout.op_slot(dfg, dst_iter, stmt, op);
            let target = RNode::new(dslot.pe, dslot.cycle_mod, RKind::Fu);
            let root = dfg.graph()[e].signal(src);
            let signal = SignalId(root.index() as u32);
            let bbox = route_bbox(dfg, layout, e);
            let path = match source {
                EdgeSource::Net(net) => {
                    if net.iter().all(|&(_, abs)| abs >= dslot.abs) {
                        return Err(RouteError::NonCausal(e));
                    }
                    router
                        .route_timed(signal, &net, target, dslot.abs, |n| bbox.contains(n.pe))
                        .ok_or(RouteError::Unroutable(e))?
                }
                EdgeSource::MemPorts(sources) => {
                    let nodes: Vec<RNode> = sources.iter().map(|&(n, _)| n).collect();
                    let spec = router.mrrg().spec();
                    let haul =
                        nodes.iter().map(|n| spec.distance(n.pe, target.pe)).min().unwrap_or(0);
                    // Long-haul loads get the A*-bounded search: the hop
                    // table steers the expansion toward the consumer instead
                    // of flooding the fabric. Short hauls keep the plain
                    // flat-array hot path.
                    let path = if haul > LONG_HAUL_HOPS {
                        let cap = Elapsed::AtMost(router.config().default_elapsed_cap);
                        router.route_bounded(signal, &nodes, target, cap, |n| bbox.contains(n.pe))
                    } else {
                        router.route_filtered(signal, &nodes, target, None, |n| bbox.contains(n.pe))
                    };
                    path.ok_or(RouteError::Unroutable(e))?
                }
            };
            // Record the net and the pattern.
            let abs_nodes = absolute_times(router.mrrg(), &path.nodes, dslot.abs);
            let net: Vec<(RNode, i64)> =
                path.nodes.iter().zip(&abs_nodes).map(|(&n, &(_, _, abs))| (n, abs)).collect();
            deliveries.entry((dst, root)).or_default().extend(net_sources(&net));
            let class = classes.of[dfg.linear_index(dst_iter)] as usize;
            let (_, desc) = descriptor(dfg, layout, e, dst_iter);
            let pos = layout.position(dfg, dst_iter);
            let macro_start = pos.t as i64 * t;
            let pattern: Pattern =
                abs_nodes.iter().map(|&(pe, kind, abs)| (pe, kind, abs - macro_start)).collect();
            patterns[class].routes.insert(desc, pattern);
            router.commit(&path);
            routed[idx] = true;
            remaining -= 1;
            progress = true;
        }
        if !progress {
            return Err(RouteError::ForwardOrdering);
        }
    }
    let _ = iib;
    Ok(RoutedDesign { patterns, rounds: 0 })
}

/// Recovers the absolute time of each path node from the target's absolute
/// cycle by walking backwards.
fn absolute_times(mrrg: &Mrrg, nodes: &[RNode], target_abs: i64) -> Vec<(PeId, RKind, i64)> {
    let ii = mrrg.ii() as i64;
    let mut out = vec![(PeId::new(0, 0), RKind::Fu, 0i64); nodes.len()];
    let mut abs = target_abs;
    for (i, &node) in nodes.iter().enumerate().rev() {
        out[i] = (node.pe, node.kind, abs);
        if i > 0 {
            let prev = nodes[i - 1];
            let dt = (node.t as i64 + ii - prev.t as i64) % ii;
            abs -= dt;
        }
    }
    out
}

enum EdgeSource {
    /// Resources already carrying the signal, with absolute times (a net to
    /// extend).
    Net(Vec<(RNode, i64)>),
    /// Candidate memory ports (node, absolute time).
    MemPorts(Vec<(RNode, i64)>),
}

/// The taps of a routed net: every step except a trailing consumer FU (an
/// op's input is not a copy of the signal that can be re-driven).
fn net_sources(net: &[(RNode, i64)]) -> Vec<(RNode, i64)> {
    let mut out: Vec<(RNode, i64)> = net.to_vec();
    if out.len() > 1 && out.last().is_some_and(|(n, _)| n.kind == RKind::Fu) {
        out.pop();
    }
    out
}

fn edge_source(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    deliveries: &HashMap<(NodeId, NodeId), Vec<(RNode, i64)>>,
    patterns: &[ClassPattern],
    e: EdgeId,
) -> Option<EdgeSource> {
    let (src, _) = dfg.graph().edge_endpoints(e);
    let weight = &dfg.graph()[e];
    let src_iter = dfg.graph()[src].iter;
    match (weight.kind, dfg.graph()[src].kind) {
        (EdgeKind::Flow, NodeKind::Op { stmt, op, .. }) => {
            let slot = layout.op_slot(dfg, src_iter, stmt, op);
            Some(EdgeSource::Net(vec![(RNode::new(slot.pe, slot.cycle_mod, RKind::Fu), slot.abs)]))
        }
        (EdgeKind::Flow, NodeKind::Input { .. }) => {
            Some(EdgeSource::MemPorts(mem_sources(dfg, layout, src)))
        }
        (EdgeKind::Forward { root }, _) => {
            if let Some(net) = deliveries.get(&(src, root)) {
                return Some(EdgeSource::Net(net.clone()));
            }
            // Source consumer is not a representative: translate its class
            // pattern into the member frame.
            let class = classes.of[dfg.linear_index(src_iter)] as usize;
            let carrier =
                dfg.graph().in_edges(src).find(|ie| dfg.graph()[ie.id].signal(ie.src) == root)?;
            let (_, desc) = descriptor(dfg, layout, carrier.id, src_iter);
            let pattern = patterns[class].routes.get(&desc)?;
            let rep_iter = dfg.iteration_at(classes.reps[class]);
            // A translated tap landing on a faulted resource cannot carry
            // the signal there; drop it. (Replication later rejects any
            // pattern whose member translation crosses a fault, so this
            // filter only keeps the negotiation from chasing dead taps.)
            let spec = layout.vsa().spec();
            let net: Vec<(RNode, i64)> = pattern
                .iter()
                .map(|&step| translate_step(layout, dfg, rep_iter, src_iter, step))
                .filter(|&(n, _)| !spec.faults.masks(spec, n))
                .collect();
            if net.is_empty() {
                return None;
            }
            Some(EdgeSource::Net(net_sources(&net)))
        }
        (EdgeKind::Flow, NodeKind::Route) => None,
    }
}

/// Translates one pattern step from a class representative's frame to
/// another member's frame, returning the concrete node and absolute time.
fn translate_step(
    layout: &Layout,
    dfg: &Dfg,
    rep_iter: Iter4,
    member_iter: Iter4,
    step: (PeId, RKind, i64),
) -> (RNode, i64) {
    let rep_pos = layout.position(dfg, rep_iter);
    let pos = layout.position(dfg, member_iter);
    let t = layout.sub().t as i64;
    let (pe, kind, offset) = step;
    let dx = (pos.x - rep_pos.x) * layout.sub().s1 as i32;
    let dy = (pos.y - rep_pos.y) * layout.sub().s2 as i32;
    let npe = PeId::new((pe.x as i32 + dx) as usize, (pe.y as i32 + dy) as usize);
    let abs = pos.t as i64 * t + offset;
    let cycle = abs.rem_euclid(layout.iib() as i64) as u32;
    (RNode::new(npe, cycle, kind), abs)
}

/// Candidate memory-port sources for a load, filtered by store→load
/// causality of memory-routed dependences.
fn mem_sources(dfg: &Dfg, layout: &Layout, input: NodeId) -> Vec<(RNode, i64)> {
    let iter = dfg.graph()[input].iter;
    let pos = layout.position(dfg, iter);
    let t = layout.sub().t;
    let macro_start = pos.t as i64 * t as i64;
    // Earliest legal load: two cycles after the latest producing store
    // (result registered, then written to memory).
    let mut min_abs = macro_start;
    for &(producer, consumer) in dfg.mem_deps() {
        if consumer != input {
            continue;
        }
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[producer].kind else {
            continue;
        };
        let p_iter = dfg.graph()[producer].iter;
        let p_slot = layout.op_slot(dfg, p_iter, stmt, op);
        min_abs = min_abs.max(p_slot.abs + 2);
    }
    let spe = himap_cgra::SpeId::new(pos.x as usize, pos.y as usize);
    let spec = layout.vsa().spec();
    let mut out = Vec::new();
    for lx in 0..layout.sub().s1 {
        for ly in 0..layout.sub().s2 {
            let pe = layout.vsa().pe_at(spe, PeId::new(lx, ly));
            for lt in 0..t {
                let abs = macro_start + lt as i64;
                if abs < min_abs {
                    continue;
                }
                let cycle = abs.rem_euclid(layout.iib() as i64) as u32;
                let node = RNode::new(pe, cycle, RKind::Mem);
                // A disabled memory bank (or dead PE) is not a source.
                if spec.faults.masks(spec, node) {
                    continue;
                }
                out.push((node, abs));
            }
        }
    }
    out
}

/// The PE bounding box of the source and destination sub-CGRAs of an edge,
/// used to confine routes so translated replicas stay in bounds.
struct BBox {
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
}

impl BBox {
    fn contains(&self, pe: PeId) -> bool {
        (pe.x as i32) >= self.x0
            && (pe.x as i32) <= self.x1
            && (pe.y as i32) >= self.y0
            && (pe.y as i32) <= self.y1
    }
}

fn route_bbox(dfg: &Dfg, layout: &Layout, e: EdgeId) -> BBox {
    let (src, dst) = dfg.graph().edge_endpoints(e);
    let (s1, s2) = (layout.sub().s1 as i32, layout.sub().s2 as i32);
    // SPE positions are relative to the VSA origin, which is non-zero when
    // the VSA is cropped around dead PEs.
    let origin = layout.vsa().origin();
    let (ox, oy) = (origin.x as i32, origin.y as i32);
    let mut x0 = i32::MAX;
    let mut x1 = i32::MIN;
    let mut y0 = i32::MAX;
    let mut y1 = i32::MIN;
    for node in [src, dst] {
        let pos = layout.position(dfg, dfg.graph()[node].iter);
        x0 = x0.min(ox + pos.x * s1);
        x1 = x1.max(ox + pos.x * s1 + s1 - 1);
        y0 = y0.min(oy + pos.y * s2);
        y1 = y1.max(oy + pos.y * s2 + s2 - 1);
    }
    BBox { x0, x1, y0, y1 }
}

/// One fully translated route for the simulator: the DFG edge it implements
/// and its concrete resource steps with absolute times.
#[derive(Clone, Debug)]
pub struct FullRoute {
    /// The DFG edge.
    pub edge: EdgeId,
    /// Steps `(node, absolute cycle)` from source to consumer FU.
    pub steps: Vec<(RNode, i64)>,
}

/// Replicates all class patterns over every iteration, verifying resource
/// capacities and memory causality.
///
/// On success returns the complete per-edge routing.
pub fn replicate_and_verify(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    design: &RoutedDesign,
) -> Result<Vec<FullRoute>, RouteError> {
    let iib = layout.iib();
    let spec = layout.vsa().spec();
    // Full-array occupancy is dense: one slot vector per MRRG resource id.
    // The shared index is the same build the representative negotiation used,
    // so replication adds no per-call graph construction.
    let index = MrrgIndex::shared(spec.clone(), iib);
    let mut occupancy: Vec<Vec<u32>> = vec![Vec::new(); index.len()];
    let mut routes = Vec::with_capacity(dfg.graph().edge_count());
    // Steps (in the representative frame) whose translations land on
    // faulted or capability-illegal resources; reported together so the
    // feedback loop steers the next negotiation round around them.
    let mut faulted_steps: Vec<RNode> = Vec::new();
    // Stamp every op's FU slot. A member translation may land an op on a PE
    // that computes but lacks the op's capability class (heterogeneous
    // fabrics) — that invalidates the pattern exactly like a faulted step.
    for (node, w) in dfg.graph().nodes() {
        if let NodeKind::Op { stmt, op, kind } = w.kind {
            let slot = layout.op_slot(dfg, w.iter, stmt, op);
            let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
            if !spec.faults.supports_op(slot.pe, kind) {
                let class = classes.of[dfg.linear_index(w.iter)] as usize;
                let rep_iter = dfg.iteration_at(classes.reps[class]);
                let rep_slot = layout.op_slot(dfg, rep_iter, stmt, op);
                faulted_steps.push(RNode::new(rep_slot.pe, rep_slot.cycle_mod, RKind::Fu));
                continue;
            }
            if let Some(ri) = index.index_of(fu) {
                occupancy[ri.index()].push(node.index() as u32);
            } else {
                debug_assert!(false, "op slot outside the array at {fu:?}");
            }
        }
    }
    // Stamp every in-edge's translated route. A step whose translation
    // lands on a faulted resource invalidates the whole pattern for that
    // member: collect the offending steps in the representative frame so
    // the feedback loop steers the next negotiation round around them.
    for e in dfg.graph().edge_ids() {
        let (src, dst) = dfg.graph().edge_endpoints(e);
        let dst_iter = dfg.graph()[dst].iter;
        let class = classes.of[dfg.linear_index(dst_iter)] as usize;
        let (_, desc) = descriptor(dfg, layout, e, dst_iter);
        let pattern =
            design.patterns[class].routes.get(&desc).ok_or(RouteError::MissingPattern { class })?;
        let rep_iter = dfg.iteration_at(classes.reps[class]);
        let root = dfg.graph()[e].signal(src);
        let mut steps = Vec::with_capacity(pattern.len());
        for (i, &step) in pattern.iter().enumerate() {
            let (node, abs) = translate_step(layout, dfg, rep_iter, dst_iter, step);
            debug_assert!(spec.contains(node.pe), "translated route leaves the array at {node:?}");
            let endpoint = i == 0 || i == pattern.len() - 1;
            if !(endpoint && node.kind == RKind::Fu) {
                if let Some(ri) = index.index_of(node) {
                    let occ = &mut occupancy[ri.index()];
                    if !occ.contains(&(root.index() as u32)) {
                        occ.push(root.index() as u32);
                    }
                } else if spec.faults.masks(spec, node) {
                    let (rep_node, _) = translate_step(layout, dfg, rep_iter, rep_iter, step);
                    faulted_steps.push(rep_node);
                }
            }
            steps.push((node, abs));
        }
        routes.push(FullRoute { edge: e, steps });
    }
    if !faulted_steps.is_empty() {
        faulted_steps.sort();
        faulted_steps.dedup();
        return Err(RouteError::ReplicaConflicts {
            count: faulted_steps.len(),
            rep_frame: faulted_steps,
        });
    }
    // Capacity check. On conflicts, translate the offending steps back into
    // their representatives' frames so the caller can penalize them in the
    // next negotiation round.
    let mut conflicted = vec![false; index.len()];
    let mut conflict_count = 0usize;
    for (i, sigs) in occupancy.iter().enumerate() {
        if sigs.len() > index.capacity(himap_cgra::RIdx(i as u32)) {
            conflicted[i] = true;
            conflict_count += 1;
        }
    }
    if conflict_count > 0 {
        let mut rep_frame = Vec::new();
        let t = layout.sub().t as i64;
        for route in &routes {
            let (_, dst) = dfg.graph().edge_endpoints(route.edge);
            let dst_iter = dfg.graph()[dst].iter;
            let class = classes.of[dfg.linear_index(dst_iter)] as usize;
            let rep_iter = dfg.iteration_at(classes.reps[class]);
            let rep_pos = layout.position(dfg, rep_iter);
            let member_pos = layout.position(dfg, dst_iter);
            for &(node, abs) in &route.steps {
                if index.index_of(node).is_some_and(|ri| conflicted[ri.index()]) {
                    // Same step in the representative frame.
                    let rep_abs = abs - (member_pos.t - rep_pos.t) as i64 * t;
                    let dx = (member_pos.x - rep_pos.x) * layout.sub().s1 as i32;
                    let dy = (member_pos.y - rep_pos.y) * layout.sub().s2 as i32;
                    let rep_pe = PeId::new(
                        (node.pe.x as i32 - dx) as usize,
                        (node.pe.y as i32 - dy) as usize,
                    );
                    let cycle = rep_abs.rem_euclid(iib as i64) as u32;
                    rep_frame.push(RNode::new(rep_pe, cycle, node.kind));
                }
            }
        }
        rep_frame.sort();
        rep_frame.dedup();
        return Err(RouteError::ReplicaConflicts { count: conflict_count, rep_frame });
    }
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (load_abs <= writer_abs + 1; the store is
    // readable from writer_abs + 2).
    for &(reader, writer) in dfg.anti_deps() {
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[writer].kind else {
            continue;
        };
        let w_abs = layout.op_slot(dfg, dfg.graph()[writer].iter, stmt, op).abs;
        let load_abs = routes
            .iter()
            .filter(|r| {
                let (s, _) = dfg.graph().edge_endpoints(r.edge);
                s == reader
            })
            .map(|r| r.steps[0].1)
            .max();
        if let Some(load_abs) = load_abs {
            if load_abs > w_abs + 1 {
                return Err(RouteError::AntiDependence);
            }
        }
    }
    // Memory causality: every memory-routed load happens at least two cycles
    // after its producing op.
    for &(producer, consumer) in dfg.mem_deps() {
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[producer].kind else {
            continue;
        };
        let p_abs = layout.op_slot(dfg, dfg.graph()[producer].iter, stmt, op).abs;
        // The load's absolute time = first step of any out-edge route of the
        // consumer input node.
        let load_abs = routes
            .iter()
            .filter(|r| {
                let (s, _) = dfg.graph().edge_endpoints(r.edge);
                s == consumer
            })
            .map(|r| r.steps[0].1)
            .min();
        if let Some(load_abs) = load_abs {
            if load_abs < p_abs + 2 {
                return Err(RouteError::MemCausality);
            }
        }
    }
    Ok(routes)
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::HiMapOptions;
    use crate::submap::map_idfg;
    use crate::unique::classify;
    use himap_cgra::{CgraSpec, Vsa};
    use himap_kernels::suite;
    use himap_systolic::{search, SearchConfig};

    fn pipeline(kernel: &himap_kernels::Kernel, c: usize) -> (Dfg, Layout, Classes) {
        let spec = CgraSpec::square(c);
        let options = HiMapOptions::default();
        let sub = map_idfg(kernel, &spec, &options)[0].clone();
        let vsa = Vsa::new(spec, sub.s1, sub.s2).expect("tiles");
        let block: Vec<usize> = (0..kernel.dims())
            .map(|dim| match dim {
                0 if vsa.rows() > 1 => vsa.rows(),
                1 if vsa.cols() > 1 => vsa.cols(),
                _ => 4,
            })
            .collect();
        let dfg = Dfg::build(kernel, &block).expect("builds");
        let isdg = dfg.isdg();
        let ranked = search(&SearchConfig {
            dims: kernel.dims(),
            block,
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        });
        let layout = Layout::new(&dfg, vsa, sub, &ranked[0]);
        let classes = classify(&dfg, &layout);
        (dfg, layout, classes)
    }

    /// The orchestrator's replication-aware negotiation loop, reproduced
    /// for direct testing of this module.
    fn route_with_feedback(dfg: &Dfg, layout: &Layout, classes: &Classes) -> Vec<FullRoute> {
        let options = HiMapOptions::default();
        let mut seed: Vec<RNode> = Vec::new();
        for _ in 0..options.replication_feedback_rounds {
            let design = route_representatives(dfg, layout, classes, &options, &seed)
                .expect("representatives route");
            match replicate_and_verify(dfg, layout, classes, &design) {
                Ok(routes) => return routes,
                Err(RouteError::ReplicaConflicts { rep_frame, .. }) => seed.extend(rep_frame),
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        panic!("feedback loop did not converge")
    }

    #[test]
    fn representatives_cover_every_descriptor() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        // Replication fails with `MissingPattern` on any uncovered class
        // descriptor, so a clean pass proves descriptor coverage; the route
        // count proves every edge is implemented.
        let routes = route_with_feedback(&dfg, &layout, &classes);
        assert_eq!(routes.len(), dfg.graph().edge_count());
    }

    #[test]
    fn replicated_routes_end_at_consumers() {
        let kernel = suite::mvt();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let routes = route_with_feedback(&dfg, &layout, &classes);
        for route in &routes {
            let (_, dst) = dfg.graph().edge_endpoints(route.edge);
            let NodeKind::Op { stmt, op, .. } = dfg.graph()[dst].kind else {
                panic!("consumers are ops")
            };
            let slot = layout.op_slot(&dfg, dfg.graph()[dst].iter, stmt, op);
            let last = route.steps.last().expect("non-empty");
            assert_eq!(last.1, slot.abs);
            assert_eq!(last.0.pe, slot.pe);
            // Steps advance by 0 or 1 cycles, never backwards.
            for w in route.steps.windows(2) {
                assert!((0..=1).contains(&(w[1].1 - w[0].1)));
            }
        }
    }

    #[test]
    fn seed_history_is_accepted() {
        // Pre-seeding arbitrary history must not break routing (it only
        // biases the search).
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let seed = vec![RNode::new(himap_cgra::PeId::new(0, 0), 0, RKind::Out)];
        let design =
            route_representatives(&dfg, &layout, &classes, &HiMapOptions::default(), &seed)
                .expect("routes despite seeded history");
        assert!(!design.patterns.is_empty());
    }

    #[test]
    fn error_messages_are_lowercase() {
        let errors = [
            RouteError::Unroutable(EdgeId::from_index(3)),
            RouteError::ForwardOrdering,
            RouteError::Congested(2),
            RouteError::ReplicaConflicts { count: 1, rep_frame: vec![] },
            RouteError::MemCausality,
            RouteError::AntiDependence,
            RouteError::NonCausal(EdgeId::from_index(0)),
            RouteError::MissingPattern { class: 2 },
            RouteError::MaskedSlot(RNode::new(himap_cgra::PeId::new(3, 0), 0, RKind::Fu)),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.chars().next().is_some_and(|c| c.is_uppercase()), "{msg}");
        }
    }
}
