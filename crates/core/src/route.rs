//! `ROUTE()` and replication (Algorithm 1, lines 21-29).
//!
//! Only the class representatives' dependences are routed in detail; every
//! other iteration reuses its class's routed patterns translated in
//! space-time. A routed design holds one pattern per pattern key
//! ([`Classes::edge_key`]): an edge's pattern is one array read away, and
//! no descriptor is recomputed after classification.
//!
//! Replication then verifies that the replicated routing oversubscribes no
//! resource and that every memory-routed dependence loads after its store.
//! A [`Replication`] computes what is fixed per layout once: each
//! iteration's shift out of its representative's frame, and every op's FU
//! claim. The array's SPE-sized cells are grouped by an exact
//! neighbourhood signature (their own ops and, per pattern key, the edges
//! whose pattern reaches the cell, with relative macro times and
//! first-seen relabelled signals, then the cell's resource states): cells
//! with equal signatures receive the same claims up to a space-time
//! translation, so each feedback round stamps and checks one representative
//! cell per group and multiplies its conflicts by the group's size.
//! Occupancy is one vector of packed `resource << 32 | signal` claims,
//! sorted and deduplicated, so each resource's run holds its distinct
//! signals; the ids of oversubscribed resources come out ascending, and
//! one more walk over the recorded step ids translates the steps on them
//! back into representative frames. The per-edge [`FullRoute`]s are built
//! only in the round whose capacity and fault checks pass.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::time::Duration;

use himap_cgra::{CgraSpec, Mrrg, PeId, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, Iter4, NodeKind};
use himap_graph::{EdgeId, NodeId};
use himap_mapper::{Elapsed, Router, RouterConfig, RouterStats, SignalId};

use crate::layout::Layout;
use crate::options::HiMapOptions;
use crate::unique::Classes;

/// Mesh distance beyond which a memory-port route switches from the plain
/// negotiated search to the A*-bounded one: close routes are cheaper
/// without the backward sweep, distant ones amortize it many times over.
const LONG_HAUL_HOPS: usize = 8;

/// A route pattern in its class representative's frame: the
/// representative's physical PE and resource kind per step, plus the step's
/// cycle offset from the consuming iteration's macro start (`pos.t·t`).
/// Offsets may be negative (sources in earlier macro steps).
pub type Pattern = Vec<(PeId, RKind, i64)>;

/// The routed design: one pattern per pattern key.
#[derive(Clone, Debug)]
pub struct RoutedDesign {
    /// Routed patterns, indexed by pattern key ([`Classes::edge_key`]);
    /// `None` for a key no representative edge was routed under.
    pub patterns: Vec<Option<Pattern>>,
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
    /// A resource the design needs is not in the MRRG. Negotiation reports
    /// a representative op slot on a dead or route-only PE, which the
    /// capability-blind layout proposed; the candidate is rejected before
    /// any routing work. Replication reports an op slot without an MRRG
    /// node, or a translated route step that leaves the array: both mean
    /// an upstream invariant broke.
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
                write!(f, "{node:?} is not in the MRRG (masked, or outside the array)")
            }
        }
    }
}

impl Error for RouteError {}

/// Instrumentation of one [`route_representatives_pooled`] call: the
/// router's search-effort counters plus the time the caller spent setting
/// up the router (zero when it was reused).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteCounters {
    /// Dijkstra search effort across every `route*` call of the attempt.
    pub router: RouterStats,
    /// Wall time the caller passed in for building the index and the
    /// router over it; zero when a router was reused (the walk times its
    /// window binding itself and passes zero).
    pub index_build: Duration,
}

/// Routes the representatives' in-edges with PathFinder negotiation and
/// extracts the per-class patterns, on a caller-owned router, and reports
/// the router's search effort alongside. The candidate walk keeps one
/// router per II, re-points it at each layout's window index, and reuses it
/// across that layout's feedback rounds.
///
/// The router must be indexed for the layout's `(spec, iib)`, over every PE
/// or over a window holding [`negotiation_window`]: the two search alike
/// and return the same design and counters. It is
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
    let edges = rep_edges(dfg, classes);
    place_reps(dfg, layout, classes, router)?;

    let mut last_err = RouteError::ForwardOrdering;
    for round in 0..options.pathfinder_rounds {
        match route_round(dfg, layout, classes, &edges, router) {
            Ok(mut result) => {
                if router.oversubscribed().is_empty() {
                    result.rounds = round + 1;
                    return Ok(result);
                }
                last_err = RouteError::Congested(router.oversubscribed().len());
            }
            Err(e) => last_err = e,
        }
        // Clear routed occupancy but keep placed FU slots and history.
        router.bump_history();
        router.clear_present();
        place_reps(dfg, layout, classes, router)?;
    }
    Err(last_err)
}

/// The edges negotiation routes, in its deterministic order: every in-edge
/// of every rep-iteration node, ascending. Gathered from the
/// representatives' clusters, so the cost follows the minimal DFG rather
/// than the block.
fn rep_edges(dfg: &Dfg, classes: &Classes) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = classes
        .reps
        .iter()
        .flat_map(|&rep| dfg.cluster(dfg.iteration_at(rep)))
        .flat_map(|&node| dfg.graph().in_edges(node).map(|ie| ie.id))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The PEs whose resources the negotiation of `layout` can touch, in
/// ascending order: a router indexed over just these PEs
/// ([`MrrgIndex::window`](himap_cgra::MrrgIndex::window)) searches exactly as one over the whole fabric.
///
/// The set is a superset proven from the search rules. A search pushes
/// only its sources, its target and resources its edge's `route_bbox`
/// allows. The target and the representative ops sit inside the boxes, and
/// so do the sources of a flow edge (the producer's FU, or the memory ports
/// of the consumer's SPE). A forwarding edge's sources are taps of a net
/// routed before it in the same round, which may sit outside its box: the
/// nets delivered to its source node (other representative edges'
/// patterns, in place), or the pattern of the key carrying the root signal
/// into that node, translated by the node's shift from the key's
/// representative. So each representative edge gets the PEs its pattern can
/// occupy, starting from its box, and each forwarding edge's grows by its
/// tap sources' PEs until nothing changes. The window is their union plus
/// the representative ops' PEs; a translated tap off the array has no MRRG
/// node and is dropped here as in the search.
pub fn negotiation_window(dfg: &Dfg, layout: &Layout, classes: &Classes) -> Vec<PeId> {
    let spec = layout.vsa().spec();
    let graph = dfg.graph();
    let edges = rep_edges(dfg, classes);
    let in_array =
        |x: i32, y: i32| (0..spec.rows as i32).contains(&x) && (0..spec.cols as i32).contains(&y);
    let mut reach: Vec<BTreeSet<PeId>> = edges
        .iter()
        .map(|&e| {
            let b = route_bbox(dfg, layout, e);
            (b.x0..=b.x1)
                .flat_map(|x| (b.y0..=b.y1).map(move |y| (x, y)))
                .filter(|&(x, y)| in_array(x, y))
                .map(|(x, y)| PeId::new(x as usize, y as usize))
                .collect()
        })
        .collect();
    // Per edge, the edges whose patterns its taps can come from, each with
    // the PE shift the tap takes: the nets delivered to a forwarding edge's
    // source node (in place), and the carrier key's pattern, routed by
    // another edge of that key, translated into the source node's frame.
    let mut by_key: Vec<Vec<usize>> = vec![Vec::new(); classes.key_count()];
    let mut delivered: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
    for (j, &e) in edges.iter().enumerate() {
        by_key[classes.edge_key[e.index()] as usize].push(j);
        let (src, dst) = graph.edge_endpoints(e);
        delivered.entry((dst, graph[e].signal(src))).or_default().push(j);
    }
    let (s1, s2) = (layout.sub().s1 as i32, layout.sub().s2 as i32);
    let taps: Vec<Vec<(usize, (i32, i32))>> = edges
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let EdgeKind::Forward { root } = graph[e].kind else { return Vec::new() };
            let (src, _) = graph.edge_endpoints(e);
            let mut from: Vec<(usize, (i32, i32))> =
                delivered.get(&(src, root)).into_iter().flatten().map(|&j| (j, (0, 0))).collect();
            if let Some(carrier) =
                graph.in_edges(src).find(|ie| graph[ie.id].signal(ie.src) == root)
            {
                let key = classes.edge_key[carrier.id.index()] as usize;
                let rep_iter = dfg.iteration_at(classes.reps[classes.key_class[key] as usize]);
                let (pos, rep) =
                    (layout.position(dfg, graph[src].iter), layout.position(dfg, rep_iter));
                let shift = ((pos.x - rep.x) * s1, (pos.y - rep.y) * s2);
                from.extend(by_key[key].iter().filter(|&&j| j != i).map(|&j| (j, shift)));
            }
            from
        })
        .collect();
    let mut grown = true;
    while grown {
        grown = false;
        for (i, from) in taps.iter().enumerate() {
            let mut add = Vec::new();
            for &(j, (dx, dy)) in from {
                for pe in &reach[j] {
                    let (x, y) = (i32::from(pe.x) + dx, i32::from(pe.y) + dy);
                    if in_array(x, y) {
                        add.push(PeId::new(x as usize, y as usize));
                    }
                }
            }
            for pe in add {
                grown |= reach[i].insert(pe);
            }
        }
    }
    let mut window: BTreeSet<PeId> = reach.into_iter().flatten().collect();
    for &rep in &classes.reps {
        let iter = dfg.iteration_at(rep);
        for &node in dfg.cluster(iter) {
            if let NodeKind::Op { stmt, op, .. } = graph[node].kind {
                window.insert(layout.op_slot(dfg, iter, stmt, op).pe);
            }
        }
    }
    window.into_iter().collect()
}

/// Places every representative op on its FU slot so congestion sees them.
fn place_reps(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    router: &mut Router,
) -> Result<(), RouteError> {
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
    Ok(())
}

fn route_round(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    edges: &[EdgeId],
    router: &mut Router,
) -> Result<RoutedDesign, RouteError> {
    let t = layout.sub().t as i64;
    // The routed net of (consumer node, root signal): every resource the
    // signal exists on, with absolute times — later chain links may tap any
    // of them.
    let mut deliveries: HashMap<(NodeId, NodeId), Vec<(RNode, i64)>> = HashMap::new();
    let mut patterns: Vec<Option<Pattern>> = vec![None; classes.key_count()];
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
            debug_assert!(
                window_holds(router, &source, target, &bbox),
                "{e:?}'s search reaches past the negotiation window"
            );
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
                    let cap = Elapsed::AtMost(router.config().default_elapsed_cap);
                    let path = if haul > LONG_HAUL_HOPS {
                        router.route_bounded(signal, &nodes, target, cap, |n| bbox.contains(n.pe))
                    } else {
                        router.route(signal, &nodes, target, cap, |n| bbox.contains(n.pe))
                    };
                    path.ok_or(RouteError::Unroutable(e))?
                }
            };
            // Record the net and the pattern.
            let net = router
                .index()
                .timed_path(&path.nodes, dslot.abs)
                .ok_or(RouteError::Unroutable(e))?;
            deliveries.entry((dst, root)).or_default().extend(net_sources(&net));
            let pos = layout.position(dfg, dst_iter);
            let macro_start = pos.t as i64 * t;
            let pattern: Pattern =
                net.iter().map(|&(n, abs)| (n.pe, n.kind, abs - macro_start)).collect();
            patterns[classes.edge_key[e.index()] as usize] = Some(pattern);
            router.commit(&path);
            routed[idx] = true;
            remaining -= 1;
            progress = true;
        }
        if !progress {
            return Err(RouteError::ForwardOrdering);
        }
    }
    Ok(RoutedDesign { patterns, rounds: 0 })
}

enum EdgeSource {
    /// Resources already carrying the signal, with absolute times (a net to
    /// extend).
    Net(Vec<(RNode, i64)>),
    /// Candidate memory ports (node, absolute time).
    MemPorts(Vec<(RNode, i64)>),
}

/// `true` when the router's index holds every MRRG node one edge's search
/// may push: its sources, its target and the resources of its box's PEs
/// (probed at cycle 0). The walk's window router relies on it
/// ([`negotiation_window`]): a node missing from the index would not fail a
/// search, it would quietly narrow it.
fn window_holds(router: &Router, source: &EdgeSource, target: RNode, bbox: &BBox) -> bool {
    let (mrrg, index) = (router.mrrg(), router.index());
    let held = |n: RNode| !mrrg.contains(n) || index.contains(n);
    let (EdgeSource::Net(nodes) | EdgeSource::MemPorts(nodes)) = source;
    let box_pes = (bbox.x0.max(0)..=bbox.x1)
        .flat_map(|x| (bbox.y0.max(0)..=bbox.y1).map(move |y| PeId::new(x as usize, y as usize)));
    let kinds = [RKind::Fu, RKind::Out, RKind::RegWr, RKind::RegRd, RKind::Mem]
        .into_iter()
        .chain(himap_cgra::ALL_DIRS.map(RKind::Wire));
    let box_nodes = box_pes.flat_map(|pe| kinds.clone().map(move |kind| RNode::new(pe, 0, kind)));
    nodes.iter().map(|&(n, _)| n).chain([target]).chain(box_nodes).all(held)
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
    patterns: &[Option<Pattern>],
    e: EdgeId,
) -> Option<EdgeSource> {
    let (src, dst) = dfg.graph().edge_endpoints(e);
    debug_assert!(dfg.graph()[dst].kind.is_op(), "every DFG edge ends at an op");
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
            let carrier =
                dfg.graph().in_edges(src).find(|ie| dfg.graph()[ie.id].signal(ie.src) == root)?;
            let key = classes.edge_key[carrier.id.index()] as usize;
            let pattern = patterns[key].as_ref()?;
            let rep_iter = dfg.iteration_at(classes.reps[classes.key_class[key] as usize]);
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

/// One iteration's translation out of its class representative's frame:
/// the PE shift and the macro starts (`pos.t·t`) of member and
/// representative.
#[derive(Clone, Copy, Debug)]
struct Shift {
    dx: i32,
    dy: i32,
    origin: i64,
    rep_origin: i64,
}

impl Shift {
    /// Every iteration's shift, by linear index.
    fn table(layout: &Layout, classes: &Classes) -> Vec<Shift> {
        let sub = layout.sub();
        let (s1, s2, t) = (sub.s1 as i32, sub.s2 as i32, sub.t as i64);
        let rep_pos: Vec<_> = classes.reps.iter().map(|&rep| layout.position_at(rep)).collect();
        classes
            .of
            .iter()
            .enumerate()
            .map(|(idx, &class)| {
                let (pos, rep) = (layout.position_at(idx), rep_pos[class as usize]);
                Shift {
                    dx: (pos.x - rep.x) * s1,
                    dy: (pos.y - rep.y) * s2,
                    origin: pos.t as i64 * t,
                    rep_origin: rep.t as i64 * t,
                }
            })
            .collect()
    }

    /// The member's copy of a pattern step: its node and absolute cycle.
    /// A step that leaves the array is [`RouteError::MaskedSlot`].
    #[inline]
    fn place(
        self,
        spec: &CgraSpec,
        iib: i64,
        (pe, kind, offset): (PeId, RKind, i64),
    ) -> Result<(RNode, i64), RouteError> {
        let (x, y) = (pe.x as i32 + self.dx, pe.y as i32 + self.dy);
        let abs = self.origin + offset;
        let node = RNode::new(PeId::new(x as usize, y as usize), abs.rem_euclid(iib) as u32, kind);
        if x < 0 || y < 0 || x as usize >= spec.rows || y as usize >= spec.cols {
            return Err(RouteError::MaskedSlot(node));
        }
        Ok((node, abs))
    }

    /// The step in its representative's own frame: the resource the next
    /// negotiation round penalizes.
    #[inline]
    fn rep_node(self, iib: i64, (pe, kind, offset): (PeId, RKind, i64)) -> RNode {
        RNode::new(pe, (self.rep_origin + offset).rem_euclid(iib) as u32, kind)
    }
}

/// A recorded step id for a translated step that is not stamped: it lands
/// on no representative cell, or on no MRRG node.
const NO_RESOURCE: u32 = u32::MAX;

/// Replicates all class patterns over every iteration, verifying resource
/// capacities and memory causality.
///
/// On success returns the complete per-edge routing. A feedback loop that
/// replicates several designs of one layout sets up one [`Replication`]
/// instead and runs it per design: this one-shot call also builds the
/// neighbourhood grouping every time.
pub fn replicate_and_verify(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    design: &RoutedDesign,
) -> Result<Vec<FullRoute>, RouteError> {
    Replication::new(dfg, layout, classes).run(design)
}

/// The replication of one layout: each iteration's shift out of its
/// representative's frame and every op's FU claim are computed once, the
/// cell grouping once per reach the designs need, and [`run`](Self::run)
/// stamps one design per feedback round, on one cell per group.
pub struct Replication<'a> {
    dfg: &'a Dfg,
    layout: &'a Layout,
    classes: &'a Classes,
    /// The implicit graph of the layout's `(spec, IIB)`. Claims are keyed
    /// by a resource's array-wide padded position ([`Mrrg::position`]), so
    /// replication needs no index.
    mrrg: Mrrg,
    /// Every iteration's shift, by linear index.
    shifts: Vec<Shift>,
    /// Every op's FU claim `(resource position, signal)`, or the error for
    /// an op slot without an MRRG node.
    op_claims: Result<Vec<(u32, u32)>, RouteError>,
    /// Representative-frame FU slots of ops that some member lands on a PE
    /// lacking the op's capability class (heterogeneous fabrics): that
    /// invalidates the pattern exactly like a faulted step.
    op_faults: Vec<RNode>,
    /// Per pattern key, the range `[dx0, dx1, dy0, dy1]` of its edges'
    /// member shifts: with a pattern's PE extent it bounds every copy.
    key_shifts: Vec<[i32; 4]>,
    /// The cell groupings built so far, each with the reach it was built
    /// for. A grouping serves any reach its own covers: its signatures
    /// describe more claims, so equal signatures still mean equal claims,
    /// and its edges include every edge that can land on a representative.
    groupings: Vec<(Reach, Grouping)>,
    /// Occupancy claims stamped since the last [`take_claims`](Self::take_claims).
    claims: usize,
}

impl<'a> Replication<'a> {
    /// Sets up the replication of `layout`.
    pub fn new(dfg: &'a Dfg, layout: &'a Layout, classes: &'a Classes) -> Self {
        let spec = layout.vsa().spec();
        let mrrg = Mrrg::new(spec.clone(), layout.iib());
        // Positions are packed into the upper half of a `u64` claim and
        // `NO_RESOURCE` is reserved.
        assert!(
            (mrrg.position_count() as u64) < u64::from(NO_RESOURCE),
            "resource positions exceed the u32 claim key"
        );
        let mut op_claims = Ok(Vec::new());
        let mut op_faults = Vec::new();
        for (node, w) in dfg.graph().nodes() {
            let NodeKind::Op { stmt, op, kind } = w.kind else {
                continue;
            };
            let slot = layout.op_slot(dfg, w.iter, stmt, op);
            let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
            if !spec.faults.supports_op(slot.pe, kind) {
                let class = classes.of[dfg.linear_index(w.iter)] as usize;
                let rep_iter = dfg.iteration_at(classes.reps[class]);
                let rep_slot = layout.op_slot(dfg, rep_iter, stmt, op);
                op_faults.push(RNode::new(rep_slot.pe, rep_slot.cycle_mod, RKind::Fu));
                continue;
            }
            if let Ok(claims) = &mut op_claims {
                match mrrg.position(fu) {
                    Some(at) => claims.push((at as u32, node.index() as u32)),
                    None => op_claims = Err(RouteError::MaskedSlot(fu)),
                }
            }
        }
        let shifts = Shift::table(layout, classes);
        let mut key_shifts = vec![[i32::MAX, i32::MIN, i32::MAX, i32::MIN]; classes.key_count()];
        for e in dfg.graph().edge_ids() {
            let (_, dst) = dfg.graph().edge_endpoints(e);
            let Shift { dx, dy, .. } = shifts[dfg.linear_index(dfg.graph()[dst].iter)];
            let [dx0, dx1, dy0, dy1] = &mut key_shifts[classes.edge_key[e.index()] as usize];
            (*dx0, *dx1, *dy0, *dy1) =
                ((*dx0).min(dx), (*dx1).max(dx), (*dy0).min(dy), (*dy1).max(dy));
        }
        Replication {
            dfg,
            layout,
            classes,
            mrrg,
            shifts,
            op_claims,
            op_faults,
            key_shifts,
            groupings: Vec::new(),
            claims: 0,
        }
    }

    /// The occupancy claims stamped since the last call, summed over
    /// rounds.
    pub fn take_claims(&mut self) -> usize {
        std::mem::take(&mut self.claims)
    }

    /// Replicates `design` over every iteration, verifying resource
    /// capacities and memory causality. On success returns the complete
    /// per-edge routing.
    pub fn run(&mut self, design: &RoutedDesign) -> Result<Vec<FullRoute>, RouteError> {
        let (dfg, layout, classes) = (self.dfg, self.layout, self.classes);
        let iib = layout.iib() as i64;
        let spec = layout.vsa().spec();
        // Every key's pattern, resolved once. An edge whose key has none
        // means the classification and the routed design disagree.
        let pattern = |key: u32| design.patterns.get(key as usize).and_then(Option::as_deref);
        if let Some(&key) = classes.edge_key.iter().find(|&&key| pattern(key).is_none()) {
            let class = classes.key_class[key as usize] as usize;
            return Err(RouteError::MissingPattern { class });
        }
        let op_claims = self.op_claims.as_deref().map_err(Clone::clone)?;
        let patterns: Vec<&[(PeId, RKind, i64)]> =
            (0..classes.key_count() as u32).map(|key| pattern(key).unwrap_or_default()).collect();
        let shifts = &self.shifts;
        // An edge's member shift and pattern.
        let edge = |e: EdgeId| {
            let (_, dst) = dfg.graph().edge_endpoints(e);
            let shift = shifts[dfg.linear_index(dfg.graph()[dst].iter)];
            (shift, patterns[classes.edge_key[e.index()] as usize])
        };
        // A copy that leaves the array is reported as the first such step
        // in edge order. A key's copies leave only if one of its patterns'
        // steps leaves under the key's extreme member shifts.
        let leaves = patterns.iter().zip(&self.key_shifts).any(|(pattern, range)| {
            let [dx0, dx1, dy0, dy1] = range.map(i64::from);
            pattern.iter().any(|&(pe, _, _)| {
                let (x, y) = (i64::from(pe.x), i64::from(pe.y));
                x + dx0 < 0
                    || x + dx1 >= spec.rows as i64
                    || y + dy0 < 0
                    || y + dy1 >= spec.cols as i64
            })
        });
        if leaves {
            for e in dfg.graph().edge_ids() {
                let (shift, pattern) = edge(e);
                for &step in pattern {
                    shift.place(spec, iib, step)?;
                }
            }
        }
        let cells = Cells::new(layout);
        let reach = cells.reach(layout, classes, &patterns);
        let covers = |wide: &Reach| reach.iter().all(|step| wide.binary_search(step).is_ok());
        let at = match self.groupings.iter().position(|(wide, _)| covers(wide)) {
            Some(at) => at,
            None => {
                let spes = SpeClaims::new(dfg, layout, classes);
                let grouping = Grouping::new(&cells, &spes, &self.mrrg, op_claims, &reach);
                self.groupings.push((reach, grouping));
                self.groupings.len() - 1
            }
        };
        let grouping = &self.groupings[at].1;
        let mrrg = &self.mrrg;
        // Occupancy of the representative cells: one claim per stamp,
        // packed `resource << 32 | signal`. A round stamps a few cells, so
        // sorting its claims is cheaper than a table over the whole MRRG.
        // Sized up front: growing these per round would leave a trail of
        // freed buffers in the heap for no gain.
        let steps: usize = grouping.edges.iter().map(|&e| edge(e).1.len()).sum();
        let mut claims: Vec<u64> = Vec::with_capacity(grouping.op_claims.len() + steps);
        let mut stamp = |at: u32, signal: u32| claims.push(u64::from(at) << 32 | u64::from(signal));
        for &(at, signal) in &grouping.op_claims {
            stamp(at, signal);
        }
        // Steps (in the representative frame) whose translations land on
        // faulted or capability-illegal resources; reported together so the
        // feedback loop steers the next negotiation round around them.
        let mut faulted_steps = self.op_faults.clone();
        // Stamp the translated routes of the edges that reach a
        // representative cell, recording each step's resource id
        // (`NO_RESOURCE` off the representative cells or off the MRRG) in
        // edge order for the back-translation. A step whose translation
        // lands on a faulted resource invalidates the whole pattern for that
        // member. Endpoint FU steps belong to the ops stamped above.
        let mut step_ids: Vec<u32> = Vec::with_capacity(steps);
        for &e in &grouping.edges {
            let (src, _) = dfg.graph().edge_endpoints(e);
            let signal = dfg.graph()[e].signal(src).index() as u32;
            let (shift, pattern) = edge(e);
            for (i, &step) in pattern.iter().enumerate() {
                let (node, _) = shift.place(spec, iib, step)?;
                if grouping.weight(node.pe) == 0 {
                    step_ids.push(NO_RESOURCE);
                    continue;
                }
                let at = mrrg.position(node).map(|at| at as u32);
                step_ids.push(at.unwrap_or(NO_RESOURCE));
                if (i == 0 || i == pattern.len() - 1) && node.kind == RKind::Fu {
                    continue;
                }
                match at {
                    Some(at) => stamp(at, signal),
                    None if spec.faults.masks(spec, node) => {
                        faulted_steps.push(shift.rep_node(iib, step));
                    }
                    None => {}
                }
            }
        }
        self.claims += claims.len();
        if !faulted_steps.is_empty() {
            faulted_steps.sort();
            faulted_steps.dedup();
            return Err(RouteError::ReplicaConflicts {
                count: faulted_steps.len(),
                rep_frame: faulted_steps,
            });
        }
        // Capacity check: after sort + dedup each resource's run holds its
        // distinct signals (a signal re-entering a resource is fan-out, not
        // a second occupant). Each oversubscribed resource stands for one in
        // every cell of its group; their ids come out ascending.
        claims.sort_unstable();
        claims.dedup();
        let mut conflicted: Vec<u32> = Vec::new();
        let mut conflict_count = 0usize;
        for run in claims.chunk_by(|a, b| a >> 32 == b >> 32) {
            let at = (run[0] >> 32) as u32;
            let node = mrrg.node_at(at as usize);
            if run.len() > spec.capacity(node.kind) {
                conflicted.push(at);
                conflict_count += grouping.weight(node.pe);
            }
        }
        drop(claims);
        if conflict_count > 0 {
            // Translate every step on a conflicted resource — endpoint FU
            // steps included — back into its representative's frame, so the
            // caller can penalize it in the next negotiation round. A
            // member cell's steps translate to the same set.
            let marked = |at: u32| at != NO_RESOURCE && conflicted.binary_search(&at).is_ok();
            let mut rep_frame = Vec::new();
            let mut ids = step_ids.iter();
            for &e in &grouping.edges {
                let (shift, pattern) = edge(e);
                for (&step, &at) in pattern.iter().zip(ids.by_ref()) {
                    if marked(at) {
                        rep_frame.push(shift.rep_node(iib, step));
                    }
                }
            }
            rep_frame.sort();
            rep_frame.dedup();
            return Err(RouteError::ReplicaConflicts { count: conflict_count, rep_frame });
        }
        drop(step_ids);
        // The round passes: only now materialize the per-edge routes.
        let mut routes = Vec::with_capacity(dfg.graph().edge_count());
        for e in dfg.graph().edge_ids() {
            let (shift, pattern) = edge(e);
            let mut steps = Vec::with_capacity(pattern.len());
            for &step in pattern {
                steps.push(shift.place(spec, iib, step)?);
            }
            routes.push(FullRoute { edge: e, steps });
        }
        check_dependences(dfg, layout, &routes)?;
        Ok(routes)
    }
}

/// The reach of a design's patterns: every pattern key with each distinct
/// cell offset of its pattern's steps from its destination iteration's
/// cell, ascending. An edge of the key claims resources in exactly those
/// cells around its destination, sources included (forwarding taps may sit
/// outside the routing box).
type Reach = Vec<(usize, (i32, i32))>;

/// The grid of SPE-sized cells that tiles the whole array, aligned with
/// the VSA: cell `(0, 0)` is the VSA's first SPE, and cells outside the VSA
/// hold no iterations. Every PE lies in exactly one cell, and a pattern
/// step translated by a member shift moves by whole cells.
struct Cells {
    s1: i32,
    s2: i32,
    /// The VSA origin.
    ox: i32,
    oy: i32,
    /// First cell row and column (≤ 0 when the VSA is cropped).
    cx0: i32,
    cy0: i32,
    /// Cell rows and columns.
    rows: i32,
    cols: i32,
    /// Array rows and columns.
    pe_rows: i32,
    pe_cols: i32,
    /// VSA rows and columns (the cells that hold iterations).
    spe_rows: i32,
    spe_cols: i32,
}

impl Cells {
    fn new(layout: &Layout) -> Cells {
        let spec = layout.vsa().spec();
        let (s1, s2) = (layout.sub().s1 as i32, layout.sub().s2 as i32);
        let origin = layout.vsa().origin();
        let (ox, oy) = (i32::from(origin.x), i32::from(origin.y));
        let (cx0, cy0) = ((-ox).div_euclid(s1), (-oy).div_euclid(s2));
        let cx1 = (spec.rows as i32 - 1 - ox).div_euclid(s1);
        let cy1 = (spec.cols as i32 - 1 - oy).div_euclid(s2);
        Cells {
            s1,
            s2,
            ox,
            oy,
            cx0,
            cy0,
            rows: cx1 - cx0 + 1,
            cols: cy1 - cy0 + 1,
            pe_rows: spec.rows as i32,
            pe_cols: spec.cols as i32,
            spe_rows: layout.vsa().rows() as i32,
            spe_cols: layout.vsa().cols() as i32,
        }
    }

    /// The cell holding an in-array PE.
    fn of(&self, pe: PeId) -> (i32, i32) {
        let x = (i32::from(pe.x) - self.ox).div_euclid(self.s1);
        (x, (i32::from(pe.y) - self.oy).div_euclid(self.s2))
    }

    /// The SPE index of cell `(x, y)`, or `None` outside the VSA.
    fn spe(&self, (x, y): (i32, i32)) -> Option<usize> {
        ((0..self.spe_rows).contains(&x) && (0..self.spe_cols).contains(&y))
            .then(|| (x * self.spe_cols + y) as usize)
    }

    /// The PEs of cell `(cx, cy)` in local row-major order; `None` for
    /// positions off the array.
    fn pes(&self, cx: i32, cy: i32) -> impl Iterator<Item = Option<PeId>> + '_ {
        let (x0, y0) = (self.ox + cx * self.s1, self.oy + cy * self.s2);
        (x0..x0 + self.s1).flat_map(move |x| {
            (y0..y0 + self.s2).map(move |y| {
                let inside = (0..self.pe_rows).contains(&x) && (0..self.pe_cols).contains(&y);
                inside.then(|| PeId::new(x as usize, y as usize))
            })
        })
    }

    /// The reach of a design's patterns (every step in the array).
    fn reach(
        &self,
        layout: &Layout,
        classes: &Classes,
        patterns: &[&[(PeId, RKind, i64)]],
    ) -> Reach {
        let mut reach = Vec::with_capacity(patterns.iter().map(|pattern| pattern.len()).sum());
        for (key, pattern) in patterns.iter().enumerate() {
            let pos = layout.position_at(classes.reps[classes.key_class[key] as usize]);
            reach.extend(pattern.iter().map(|&(pe, _, _)| {
                let (cx, cy) = self.of(pe);
                (key, (cx - pos.x, cy - pos.y))
            }));
        }
        reach.sort_unstable();
        reach.dedup();
        reach
    }
}

/// What each SPE's iterations claim, independent of the routed design and
/// of where the SPE sits: the signature material of the cell grouping.
struct SpeClaims {
    /// Pattern keys.
    keys: usize,
    /// Every edge as `(macro time of its destination, signal, edge)`,
    /// grouped by (destination SPE, key) and ordered by time.
    edges: Vec<(u32, u32, EdgeId)>,
    /// Start of each `(SPE, key)` group in `edges`, plus an end sentinel.
    edge_at: Vec<usize>,
    /// Every op as `(macro time, stmt << 8 | op, node)`, grouped by SPE and
    /// ordered by time: `(stmt, op)` fixes the op's slot in its SPE.
    ops: Vec<(u32, u32, u32)>,
    /// Start of each SPE's group in `ops`, plus an end sentinel.
    op_at: Vec<usize>,
    /// Per SPE, the earliest macro time of its iterations (`u32::MAX` for
    /// none).
    earliest: Vec<u32>,
}

impl SpeClaims {
    fn new(dfg: &Dfg, layout: &Layout, classes: &Classes) -> SpeClaims {
        let vcols = layout.vsa().cols();
        let spe_count = layout.vsa().rows() * vcols;
        // An iteration's SPE and macro time.
        let place = |iter: Iter4| {
            let pos = layout.position(dfg, iter);
            (pos.x as usize * vcols + pos.y as usize, pos.t as u32)
        };
        let mut earliest = vec![u32::MAX; spe_count];
        for idx in 0..dfg.iteration_count() {
            let pos = layout.position_at(idx);
            let spe = &mut earliest[pos.x as usize * vcols + pos.y as usize];
            *spe = (*spe).min(pos.t as u32);
        }
        // Edges by destination SPE, then key and time; then the start of
        // each `(SPE, key)` run.
        let keys = classes.key_count();
        let edges = dfg.graph().edge_ids().map(|e| {
            let (src, dst) = dfg.graph().edge_endpoints(e);
            let (spe, time) = place(dfg.graph()[dst].iter);
            let signal = dfg.graph()[e].signal(src).index() as u32;
            (spe, (classes.edge_key[e.index()], time, signal, e))
        });
        let (edges, spe_at) = bucket_sort(spe_count, edges);
        let mut edge_at = vec![0usize; spe_count * keys + 1];
        for (spe, run) in spe_at.windows(2).enumerate() {
            for &(key, ..) in &edges[run[0]..run[1]] {
                edge_at[spe * keys + key as usize + 1] += 1;
            }
        }
        for i in 1..edge_at.len() {
            edge_at[i] += edge_at[i - 1];
        }
        let edges = edges.into_iter().map(|(_, time, signal, e)| (time, signal, e)).collect();
        let ops = dfg.graph().nodes().filter_map(|(node, w)| {
            let NodeKind::Op { stmt, op, .. } = w.kind else { return None };
            let (spe, time) = place(w.iter);
            Some((spe, (time, u32::from(stmt) << 8 | u32::from(op), node.index() as u32)))
        });
        let (ops, op_at) = bucket_sort(spe_count, ops);
        SpeClaims { keys, edges, edge_at, ops, op_at, earliest }
    }

    /// The edges of `key` into SPE `spe`, ordered by time.
    fn edges(&self, spe: usize, key: usize) -> &[(u32, u32, EdgeId)] {
        let group = spe * self.keys + key;
        &self.edges[self.edge_at[group]..self.edge_at[group + 1]]
    }

    /// The ops of SPE `spe`, ordered by time.
    fn ops(&self, spe: usize) -> &[(u32, u32, u32)] {
        &self.ops[self.op_at[spe]..self.op_at[spe + 1]]
    }
}

/// Sorts `(bucket, value)` items, buckets below `buckets`, into one run per
/// bucket, each run in value order; returns the values and the start of
/// each run, plus an end sentinel.
fn bucket_sort<T: Ord>(
    buckets: usize,
    items: impl Iterator<Item = (usize, T)>,
) -> (Vec<T>, Vec<usize>) {
    let mut runs: Vec<Vec<T>> = (0..buckets).map(|_| Vec::new()).collect();
    for (bucket, value) in items {
        runs[bucket].push(value);
    }
    let mut sorted = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut at = Vec::with_capacity(buckets + 1);
    for mut run in runs {
        at.push(sorted.len());
        run.sort_unstable();
        sorted.append(&mut run);
    }
    at.push(sorted.len());
    (sorted, at)
}

/// The array's cells grouped by neighbourhood signature, for one reach.
///
/// A cell's signature describes every claim that can land on it: the ops
/// of its own iterations (their count, then each one's macro time,
/// `(stmt, op)` and signal) and, per pattern key and cell offset in the
/// reach, the edges of that key into the SPE that offset away (their
/// count, then each one's macro time and signal). Macro times are taken
/// relative to the earliest iteration among the SPEs in reach. Signals are
/// relabelled first-seen within the signature, since a forwarded edge
/// carries its chain's root, which sits at no fixed offset. Last come, for
/// each of the cell's own PEs, whether each resource has an MRRG node, is
/// masked or is absent, and which op classes the PE supports.
///
/// Two cells with equal signatures receive the same claims translated by
/// whole cells in space and by a whole number of macro steps in time (a
/// cyclic shift modulo `IIB`), with equal signals exactly where the
/// other's are equal, on resources of the same states: their conflicts,
/// faults and back-translated steps are the same. A faulted cell thus
/// forms a group of its own unless an equal fault pattern sits in an equal
/// neighbourhood.
struct Grouping {
    /// Array columns, for [`weight`](Self::weight).
    cols: usize,
    /// Per PE (`x·cols + y`): the size of its cell's group when the cell
    /// represents that group, else 0.
    weights: Vec<u32>,
    /// The edges whose steps can land on a representative cell,
    /// ascending.
    edges: Vec<EdgeId>,
    /// The op claims on representative cells.
    op_claims: Vec<(u32, u32)>,
}

impl Grouping {
    fn new(
        cells: &Cells,
        spes: &SpeClaims,
        mrrg: &Mrrg,
        op_claims: &[(u32, u32)],
        reach: &Reach,
    ) -> Grouping {
        // Every offset some key reaches, and the cell itself.
        let mut around: Vec<(i32, i32)> = reach.iter().map(|&(_, offset)| offset).collect();
        around.push((0, 0));
        around.sort_unstable();
        around.dedup();
        // Signals relabelled first-seen per signature: node `n`'s label is
        // `labels[n].1` while `labels[n].0` holds the current cell's number.
        let signals = spes.edges.iter().map(|&(_, signal, _)| signal);
        let nodes = signals.chain(spes.ops.iter().map(|&(_, _, node)| node));
        let mut labels = vec![(0u32, 0u32); nodes.max().map_or(0, |n| n as usize + 1)];
        // Ordered, so the signatures are freed in the same order in every
        // process (a hash map's order is random, and moves the heap layout).
        let mut groups: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        let mut reps: Vec<(i32, i32)> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let mut sig: Vec<u32> = Vec::new();
        let mut number = 0u32;
        for cx in cells.cx0..cells.cx0 + cells.rows {
            for cy in cells.cy0..cells.cy0 + cells.cols {
                sig.clear();
                number += 1;
                let mut next = 0u32;
                let mut relabel = |n: u32| {
                    let label = &mut labels[n as usize];
                    if label.0 != number {
                        *label = (number, next);
                        next += 1;
                    }
                    label.1
                };
                let spe_at = |(dx, dy): (i32, i32)| cells.spe((cx - dx, cy - dy));
                let base = around.iter().filter_map(|&o| spe_at(o)).map(|s| spes.earliest[s]).min();
                let base = base.unwrap_or(0);
                let ops = spe_at((0, 0)).map_or(&[][..], |s| spes.ops(s));
                sig.push(ops.len() as u32);
                for &(time, slot, node) in ops {
                    sig.extend([time.wrapping_sub(base), slot, relabel(node)]);
                }
                for &(key, offset) in reach {
                    let edges = spe_at(offset).map_or(&[][..], |s| spes.edges(s, key));
                    sig.push(edges.len() as u32);
                    for &(time, signal, _) in edges {
                        sig.extend([time.wrapping_sub(base), relabel(signal)]);
                    }
                }
                for pe in cells.pes(cx, cy) {
                    match pe {
                        Some(pe) => push_pe_state(&mut sig, mrrg, pe),
                        None => sig.push(u32::MAX),
                    }
                }
                let group = match groups.get(sig.as_slice()) {
                    Some(&group) => group,
                    None => {
                        groups.insert(sig.clone(), reps.len());
                        reps.push((cx, cy));
                        sizes.push(0);
                        reps.len() - 1
                    }
                };
                sizes[group] += 1;
            }
        }
        drop(groups);
        // Representative cells carry their group's size; the edges whose
        // steps can land on one are the edges to stamp.
        let cols = cells.pe_cols as usize;
        let mut weights = vec![0u32; cells.pe_rows as usize * cols];
        let mut edges = Vec::new();
        for (&(cx, cy), &size) in reps.iter().zip(&sizes) {
            for pe in cells.pes(cx, cy).flatten() {
                weights[pe.x as usize * cols + pe.y as usize] = size;
            }
            for &(key, (dx, dy)) in reach {
                if let Some(s) = cells.spe((cx - dx, cy - dy)) {
                    edges.extend(spes.edges(s, key).iter().map(|&(_, _, e)| e));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut grouping = Grouping { cols, weights, edges, op_claims: Vec::new() };
        grouping.op_claims = op_claims
            .iter()
            .copied()
            .filter(|&(at, _)| grouping.weight(mrrg.node_at(at as usize).pe) > 0)
            .collect();
        grouping
    }

    /// The number of cells an in-array PE's claims stand for: its cell's
    /// group size when the cell represents the group, else 0.
    #[inline]
    fn weight(&self, pe: PeId) -> usize {
        self.weights[pe.x as usize * self.cols + pe.y as usize] as usize
    }
}

/// Appends what a translated step finds on `pe`: per resource kind, an
/// MRRG node (1), a mask (2) or nothing (0) — the same at every cycle —
/// and then which op classes the PE supports.
fn push_pe_state(sig: &mut Vec<u32>, mrrg: &Mrrg, pe: PeId) {
    let spec = mrrg.spec();
    let kinds = [RKind::Fu, RKind::Out]
        .into_iter()
        .chain(himap_cgra::ALL_DIRS.into_iter().map(RKind::Wire))
        .chain((0..spec.rf_size).map(|r| RKind::Reg(r as u8)))
        .chain([RKind::RegWr, RKind::RegRd, RKind::Mem]);
    for kind in kinds {
        let node = RNode::new(pe, 0, kind);
        sig.push(if mrrg.contains(node) {
            1
        } else {
            u32::from(spec.faults.masks(spec, node)) * 2
        });
    }
    let supported = himap_cgra::ALL_OP_CLASSES
        .iter()
        .enumerate()
        .map(|(bit, &class)| u32::from(spec.faults.supports(pe, class)) << bit)
        .sum();
    sig.push(supported);
}

/// The anti-dependence and memory-causality checks of a replicated design.
fn check_dependences(dfg: &Dfg, layout: &Layout, routes: &[FullRoute]) -> Result<(), RouteError> {
    // Each source node's earliest and latest first-step time over its
    // out-edge routes, built once for the dependence checks below.
    let mut first_steps: Vec<Option<(i64, i64)>> = vec![None; dfg.graph().node_count()];
    for r in routes {
        let (s, _) = dfg.graph().edge_endpoints(r.edge);
        let abs = r.steps[0].1;
        let span = first_steps[s.index()].get_or_insert((abs, abs));
        span.0 = span.0.min(abs);
        span.1 = span.1.max(abs);
    }
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (load_abs <= writer_abs + 1; the store is
    // readable from writer_abs + 2).
    for &(reader, writer) in dfg.anti_deps() {
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[writer].kind else {
            continue;
        };
        let w_abs = layout.op_slot(dfg, dfg.graph()[writer].iter, stmt, op).abs;
        if let Some((_, load_abs)) = first_steps[reader.index()] {
            if load_abs > w_abs + 1 {
                return Err(RouteError::AntiDependence);
            }
        }
    }
    // Memory causality: every memory-routed load happens at least two cycles
    // after its producing op. The load's absolute time is the first step of
    // the consumer input node's earliest out-edge route.
    for &(producer, consumer) in dfg.mem_deps() {
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[producer].kind else {
            continue;
        };
        let p_abs = layout.op_slot(dfg, dfg.graph()[producer].iter, stmt, op).abs;
        if let Some((load_abs, _)) = first_steps[consumer.index()] {
            if load_abs < p_abs + 2 {
                return Err(RouteError::MemCausality);
            }
        }
    }
    Ok(())
}

/// The full re-stamp replication that the keyed stamp pass replaced, kept
/// as the differential tests' reference: per-edge descriptor resolution
/// through a per-class table, `translate_step` on every step, routes
/// materialized in every round, a sort of `(u32, u32)` claims and a
/// binary-search back-translation.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::unique::{descriptor, Descriptor};
    use himap_cgra::MrrgIndex;

    /// The per-class pattern table of a keyed design: each representative
    /// in-edge's pattern under its destination-view descriptor.
    fn class_patterns(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        design: &RoutedDesign,
    ) -> Vec<HashMap<Descriptor, Pattern>> {
        let mut out = vec![HashMap::new(); classes.count()];
        for (class, &rep) in classes.reps.iter().enumerate() {
            let rep_iter = dfg.iteration_at(rep);
            for &node in dfg.cluster(rep_iter) {
                for e in dfg.graph().in_edges(node) {
                    let key = classes.edge_key[e.id.index()] as usize;
                    if let Some(pattern) = design.patterns.get(key).and_then(Option::as_ref) {
                        let (_, desc) = descriptor(dfg, layout, e.id, rep_iter);
                        out[class].insert(desc, pattern.clone());
                    }
                }
            }
        }
        out
    }

    /// Replicates all class patterns over every iteration, verifying
    /// resource capacities and memory causality.
    pub(crate) fn replicate_and_verify(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        design: &RoutedDesign,
    ) -> Result<Vec<FullRoute>, RouteError> {
        let iib = layout.iib();
        let spec = layout.vsa().spec();
        // Full-array occupancy is a flat list of `(resource id, signal)` claims,
        // one per stamped step: its size is the work stamped, not the fabric.
        // Resource ids come from the every-PE index, independently of the
        // keyed pass's arithmetic positions.
        let index = MrrgIndex::shared(spec.clone(), iib);
        let mut claims: Vec<(u32, u32)> = Vec::new();
        let mut routes = Vec::with_capacity(dfg.graph().edge_count());
        // Steps (in the representative frame) whose translations land on
        // faulted or capability-illegal resources; reported together so the
        // feedback loop steers the next negotiation round around them.
        let mut faulted_steps: Vec<RNode> = Vec::new();
        let class_patterns = class_patterns(dfg, layout, classes, design);
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
                    claims.push((ri.0, node.index() as u32));
                } else {
                    // The full re-stamp skipped the claim in release builds.
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
                class_patterns[class].get(&desc).ok_or(RouteError::MissingPattern { class })?;
            let rep_iter = dfg.iteration_at(classes.reps[class]);
            let root = dfg.graph()[e].signal(src);
            let mut steps = Vec::with_capacity(pattern.len());
            for (i, &step) in pattern.iter().enumerate() {
                let (node, abs) = translate_step(layout, dfg, rep_iter, dst_iter, step);
                let endpoint = i == 0 || i == pattern.len() - 1;
                if !(endpoint && node.kind == RKind::Fu) {
                    if let Some(ri) = index.index_of(node) {
                        claims.push((ri.0, root.index() as u32));
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
        // Capacity check: after sort + dedup each resource's run holds its
        // distinct signals (a signal re-entering a resource is fan-out, not a
        // second occupant). On conflicts, translate the offending steps back
        // into their representatives' frames so the caller can penalize them in
        // the next negotiation round.
        claims.sort_unstable();
        claims.dedup();
        // Oversubscribed resource ids, ascending (the claims are sorted).
        let conflicted: Vec<u32> = claims
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| run.len() > index.capacity(himap_cgra::RIdx(run[0].0)))
            .map(|run| run[0].0)
            .collect();
        drop(claims);
        if !conflicted.is_empty() {
            let conflict_count = conflicted.len();
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
                    if index
                        .index_of(node)
                        .is_some_and(|ri| conflicted.binary_search(&ri.0).is_ok())
                    {
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
        check_dependences(dfg, layout, &routes)?;
        Ok(routes)
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::HiMapOptions;
    use crate::submap::map_idfg;
    use crate::unique::classify;
    use himap_cgra::{CgraSpec, MrrgIndex, Vsa};
    use himap_kernels::suite;
    use himap_systolic::{search, SearchConfig};

    /// Dfg, layout and classes of `kernel` on a `c`×`c` array, from the
    /// `sub`-th `MAP()` sub-CGRA candidate and the top-ranked schedule.
    fn pipeline(kernel: &himap_kernels::Kernel, c: usize, sub: usize) -> (Dfg, Layout, Classes) {
        let spec = CgraSpec::square(c);
        let options = HiMapOptions::default();
        let sub = map_idfg(kernel, &spec, &options)[sub].clone();
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

    /// Negotiates the representatives on a fresh router for the layout's
    /// `(spec, II)`.
    fn route_fresh(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        seed: &[RNode],
    ) -> Result<RoutedDesign, RouteError> {
        let index = MrrgIndex::shared(layout.vsa().spec().clone(), layout.iib());
        let mut router = Router::with_index(index, RouterConfig::default());
        let options = HiMapOptions::default();
        route_representatives_pooled(
            dfg,
            layout,
            classes,
            &options,
            seed,
            &mut router,
            Duration::ZERO,
        )
        .0
    }

    /// The orchestrator's replication-aware negotiation loop, reproduced
    /// for direct testing of this module: the converged design and its
    /// replicated routes.
    fn route_with_feedback(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
    ) -> (RoutedDesign, Vec<FullRoute>) {
        let options = HiMapOptions::default();
        let mut seed: Vec<RNode> = Vec::new();
        for _ in 0..options.replication_feedback_rounds {
            let design = route_fresh(dfg, layout, classes, &seed).expect("representatives route");
            match replicate_and_verify(dfg, layout, classes, &design) {
                Ok(routes) => return (design, routes),
                Err(RouteError::ReplicaConflicts { rep_frame, .. }) => seed.extend(rep_frame),
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        panic!("feedback loop did not converge")
    }

    #[test]
    fn representatives_cover_every_descriptor() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        // Every pattern key is a (class, descriptor) pair some representative
        // in-edge carries, so negotiation routes a pattern under each; the
        // route count proves every edge is implemented.
        let (design, routes) = route_with_feedback(&dfg, &layout, &classes);
        assert_eq!(design.patterns.len(), classes.key_count());
        assert!(design.patterns.iter().all(Option::is_some));
        assert_eq!(routes.len(), dfg.graph().edge_count());
    }

    #[test]
    fn design_from_another_classification_is_a_missing_pattern() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        let (mut design, _) = route_with_feedback(&dfg, &layout, &classes);
        let e = EdgeId::from_index(0);
        let key = classes.edge_key[e.index()] as usize;
        design.patterns[key] = None;
        assert_eq!(
            replicate_and_verify(&dfg, &layout, &classes, &design).err(),
            Some(RouteError::MissingPattern { class: classes.key_class[key] as usize })
        );
    }

    #[test]
    fn step_translated_off_the_array_is_a_masked_slot() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        let (mut design, _) = route_with_feedback(&dfg, &layout, &classes);
        // Move one step of one pattern a whole array width south: every
        // member's copy of it, the representative's included, is off the
        // array.
        let rows = layout.vsa().spec().rows;
        let pattern = design.patterns.iter_mut().flatten().next().expect("a routed pattern");
        pattern[0].0.x += rows as u16;
        let err = replicate_and_verify(&dfg, &layout, &classes, &design).err();
        assert!(
            matches!(err, Some(RouteError::MaskedSlot(node)) if node.pe.x as usize >= rows),
            "{err:?}"
        );
    }

    #[test]
    fn replicated_routes_end_at_consumers() {
        let kernel = suite::mvt();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        let (_, routes) = route_with_feedback(&dfg, &layout, &classes);
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

    /// Shifts the first-step offset of the pattern that routes `source`'s
    /// first out-edge by `windows` whole modulo windows. Every translated
    /// step keeps its modulo resource, so occupancy is unchanged and only
    /// the load's absolute time moves.
    fn shift_first_step(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        design: &mut RoutedDesign,
        source: NodeId,
        windows: i64,
    ) {
        let e = dfg.graph().out_edges(source).next().expect("the load feeds a consumer");
        let key = classes.edge_key[e.id.index()] as usize;
        let pattern = design.patterns[key].as_mut().expect("routed pattern");
        pattern[0].2 += windows * layout.iib() as i64;
    }

    #[test]
    fn late_live_in_load_is_an_anti_dependence_violation() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        let &(reader, _) = dfg.anti_deps().first().expect("gemm has anti-dependences");
        let (mut design, _) = route_with_feedback(&dfg, &layout, &classes);
        assert!(replicate_and_verify(&dfg, &layout, &classes, &design).is_ok());
        // Start the load a thousand windows late: long after the writer.
        shift_first_step(&dfg, &layout, &classes, &mut design, reader, 1000);
        assert_eq!(
            replicate_and_verify(&dfg, &layout, &classes, &design).err(),
            Some(RouteError::AntiDependence)
        );
    }

    #[test]
    fn early_memory_routed_load_is_a_causality_violation() {
        let kernel = suite::floyd_warshall();
        // The (1, 1, 3) sub-CGRA the candidate walk settles on for 4x4.
        let (dfg, layout, classes) = pipeline(&kernel, 4, 1);
        let &(_, consumer) = dfg.mem_deps().first().expect("floyd-warshall has memory deps");
        let (mut design, _) = route_with_feedback(&dfg, &layout, &classes);
        assert!(replicate_and_verify(&dfg, &layout, &classes, &design).is_ok());
        // Start the load a thousand windows early: before its store.
        shift_first_step(&dfg, &layout, &classes, &mut design, consumer, -1000);
        assert_eq!(
            replicate_and_verify(&dfg, &layout, &classes, &design).err(),
            Some(RouteError::MemCausality)
        );
    }

    #[test]
    fn seed_history_is_accepted() {
        // Pre-seeding arbitrary history must not break routing (it only
        // biases the search).
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4, 0);
        let seed = vec![RNode::new(himap_cgra::PeId::new(0, 0), 0, RKind::Out)];
        let design =
            route_fresh(&dfg, &layout, &classes, &seed).expect("routes despite seeded history");
        assert!(!design.patterns.is_empty());
    }

    #[test]
    fn grouping_tells_apart_cells_that_differ_only_in_shared_signals() {
        // 1×1 cells over a 4×4 array with a two-SPE VSA at PE (1, 1): the
        // SPEs sit on interior PEs (1, 1) and (1, 2), whose resources match.
        // Each SPE receives two edges of key 0 at macro time 0; SPE 0's carry
        // two signals, SPE 1's the same signal twice, so only the
        // relabelled signals tell the cells apart.
        let cells = Cells {
            s1: 1,
            s2: 1,
            ox: 1,
            oy: 1,
            cx0: -1,
            cy0: -1,
            rows: 4,
            cols: 4,
            pe_rows: 4,
            pe_cols: 4,
            spe_rows: 1,
            spe_cols: 2,
        };
        let e = EdgeId::from_index;
        let spes = SpeClaims {
            keys: 1,
            edges: vec![(0, 5, e(0)), (0, 6, e(1)), (0, 7, e(2)), (0, 7, e(3))],
            edge_at: vec![0, 2, 4],
            ops: Vec::new(),
            op_at: vec![0, 0, 0],
            earliest: vec![0, 0],
        };
        let mrrg = Mrrg::new(CgraSpec::square(4), 2);
        let grouping = Grouping::new(&cells, &spes, &mrrg, &[], &vec![(0, (0, 0))]);
        assert_eq!(grouping.weight(PeId::new(1, 1)), 1);
        assert_eq!(grouping.weight(PeId::new(1, 2)), 1);
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
