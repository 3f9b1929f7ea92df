//! `ROUTE()` and replication (Algorithm 1, lines 21-29).
//!
//! Only the class representatives' dependences are routed in detail; every
//! other iteration reuses its class's routed patterns translated in
//! space-time. A routed design holds one pattern per pattern key
//! ([`Classes::edge_key`]): an edge's pattern is one array read away, and
//! no descriptor is recomputed after classification.
//!
//! A full-array stamping pass then verifies that the replicated routing
//! oversubscribes no resource and that every memory-routed dependence loads
//! after its store. A [`Replication`] computes what is fixed per layout
//! once: each iteration's shift out of its representative's frame, and
//! every op's FU claim. Each feedback round is then a flat pass. Each
//! resource keeps the first signal stamped on it, and only claims by another
//! signal are kept, as packed `u64`s, and sorted. Oversubscribed resources
//! are marked in a bitset, and one more walk over the recorded step ids
//! translates the marked steps back into representative frames. The
//! per-edge [`FullRoute`]s are built only in the round whose capacity and
//! fault checks pass.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use himap_cgra::{CgraSpec, Mrrg, MrrgIndex, PeId, RIdx, RKind, RNode};
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
/// extracts the per-class patterns, on a caller-owned, long-lived router,
/// and reports the router's search effort alongside. The candidate walk
/// keeps one router per `(spec, II)` alive across candidates instead of
/// reconstructing congestion vectors per attempt.
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
            let abs_nodes = absolute_times(router.mrrg(), &path.nodes, dslot.abs);
            let net: Vec<(RNode, i64)> =
                path.nodes.iter().zip(&abs_nodes).map(|(&n, &(_, _, abs))| (n, abs)).collect();
            deliveries.entry((dst, root)).or_default().extend(net_sources(&net));
            let pos = layout.position(dfg, dst_iter);
            let macro_start = pos.t as i64 * t;
            let pattern: Pattern =
                abs_nodes.iter().map(|&(pe, kind, abs)| (pe, kind, abs - macro_start)).collect();
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
    patterns: &[Option<Pattern>],
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

/// A recorded step id for a translated step that is not in the MRRG.
const NO_RESOURCE: u32 = u32::MAX;

/// Replicates all class patterns over every iteration, verifying resource
/// capacities and memory causality.
///
/// On success returns the complete per-edge routing. A feedback loop that
/// replicates several designs of one layout sets up one [`Replication`]
/// instead and runs it per design.
pub fn replicate_and_verify(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    design: &RoutedDesign,
) -> Result<Vec<FullRoute>, RouteError> {
    Replication::new(dfg, layout, classes).run(design)
}

/// The replication of one layout: what does not depend on the routed
/// design — each iteration's shift out of its representative's frame and
/// every op's FU claim — is computed once, and [`run`](Self::run) stamps
/// one design per feedback round.
pub struct Replication<'a> {
    dfg: &'a Dfg,
    layout: &'a Layout,
    classes: &'a Classes,
    /// The shared index the representative negotiation used, so replication
    /// adds no graph construction.
    index: Arc<MrrgIndex>,
    /// Every iteration's shift, by linear index.
    shifts: Vec<Shift>,
    /// Every op's FU claim `(resource, signal)`, or the error for an op
    /// slot without an MRRG node.
    op_claims: Result<Vec<(RIdx, u32)>, RouteError>,
    /// Representative-frame FU slots of ops that some member lands on a PE
    /// lacking the op's capability class (heterogeneous fabrics): that
    /// invalidates the pattern exactly like a faulted step.
    op_faults: Vec<RNode>,
}

impl<'a> Replication<'a> {
    /// Sets up the replication of `layout`.
    pub fn new(dfg: &'a Dfg, layout: &'a Layout, classes: &'a Classes) -> Self {
        let spec = layout.vsa().spec();
        let index = MrrgIndex::shared(spec.clone(), layout.iib());
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
                match index.index_of(fu) {
                    Some(ri) => claims.push((ri, node.index() as u32)),
                    None => op_claims = Err(RouteError::MaskedSlot(fu)),
                }
            }
        }
        let shifts = Shift::table(layout, classes);
        Replication { dfg, layout, classes, index, shifts, op_claims, op_faults }
    }

    /// Replicates `design` over every iteration, verifying resource
    /// capacities and memory causality. On success returns the complete
    /// per-edge routing.
    pub fn run(&self, design: &RoutedDesign) -> Result<Vec<FullRoute>, RouteError> {
        let Replication { dfg, layout, classes, .. } = *self;
        let (index, shifts) = (&*self.index, &self.shifts);
        let iib = layout.iib() as i64;
        let spec = layout.vsa().spec();
        // Every key's pattern, resolved once. An edge whose key has none
        // means the classification and the routed design disagree.
        let pattern = |key: u32| design.patterns.get(key as usize).and_then(Option::as_deref);
        if let Some(&key) = classes.edge_key.iter().find(|&&key| pattern(key).is_none()) {
            let class = classes.key_class[key as usize] as usize;
            return Err(RouteError::MissingPattern { class });
        }
        let op_claims = self.op_claims.as_ref().map_err(Clone::clone)?;
        let patterns: Vec<&[(PeId, RKind, i64)]> =
            (0..classes.key_count() as u32).map(|key| pattern(key).unwrap_or_default()).collect();
        // An edge's member shift and pattern.
        let edge = |e: EdgeId| {
            let (_, dst) = dfg.graph().edge_endpoints(e);
            let shift = shifts[dfg.linear_index(dfg.graph()[dst].iter)];
            (shift, patterns[classes.edge_key[e.index()] as usize])
        };
        // Full-array occupancy. Each resource records the first signal
        // stamped on it (`signal + 1`; 0 is free, and the zeroed table costs
        // only the pages a stamp touches). A claim by any other signal is an
        // overflow claim, packed `resource << 32 | signal`; only resources
        // with overflow claims can be oversubscribed.
        let mut first = vec![0u32; index.len()];
        let mut overflow: Vec<u64> = Vec::new();
        let mut stamp = |ri: RIdx, signal: u32| match &mut first[ri.index()] {
            free @ 0 => *free = signal + 1,
            held if *held == signal + 1 => {}
            _ => overflow.push(u64::from(ri.0) << 32 | u64::from(signal)),
        };
        for &(ri, signal) in op_claims {
            stamp(ri, signal);
        }
        // Steps (in the representative frame) whose translations land on
        // faulted or capability-illegal resources; reported together so the
        // feedback loop steers the next negotiation round around them.
        let mut faulted_steps = self.op_faults.clone();
        // Stamp every in-edge's translated route, recording each step's
        // resource id (`NO_RESOURCE` off the MRRG) in edge order for the
        // back-translation. A step whose translation lands on a faulted
        // resource invalidates the whole pattern for that member. Endpoint
        // FU steps belong to the ops stamped above.
        let steps = classes.edge_key.iter().map(|&key| patterns[key as usize].len()).sum();
        let mut step_ids: Vec<u32> = Vec::with_capacity(steps);
        for e in dfg.graph().edge_ids() {
            let (src, _) = dfg.graph().edge_endpoints(e);
            let signal = dfg.graph()[e].signal(src).index() as u32;
            let (shift, pattern) = edge(e);
            for (i, &step) in pattern.iter().enumerate() {
                let (node, _) = shift.place(spec, iib, step)?;
                let ri = index.index_of(node);
                step_ids.push(ri.map_or(NO_RESOURCE, |ri| ri.0));
                if (i == 0 || i == pattern.len() - 1) && node.kind == RKind::Fu {
                    continue;
                }
                match ri {
                    Some(ri) => stamp(ri, signal),
                    None if spec.faults.masks(spec, node) => {
                        faulted_steps.push(shift.rep_node(iib, step));
                    }
                    None => {}
                }
            }
        }
        if !faulted_steps.is_empty() {
            faulted_steps.sort();
            faulted_steps.dedup();
            return Err(RouteError::ReplicaConflicts {
                count: faulted_steps.len(),
                rep_frame: faulted_steps,
            });
        }
        // Capacity check: after sort + dedup each resource's overflow run
        // holds its distinct signals besides the first (a signal re-entering
        // a resource is fan-out, not a second occupant). Oversubscribed
        // resources are marked in a bitset.
        drop(first);
        overflow.sort_unstable();
        overflow.dedup();
        let mut conflicted = vec![0u64; index.len().div_ceil(64)];
        let mut conflict_count = 0usize;
        for run in overflow.chunk_by(|a, b| a >> 32 == b >> 32) {
            let ri = (run[0] >> 32) as usize;
            if 1 + run.len() > index.capacity(RIdx(ri as u32)) {
                conflicted[ri / 64] |= 1 << (ri % 64);
                conflict_count += 1;
            }
        }
        drop(overflow);
        if conflict_count > 0 {
            // Translate every step on a marked resource — endpoint FU steps
            // included — back into its representative's frame, so the
            // caller can penalize it in the next negotiation round.
            let marked =
                |ri: u32| ri != NO_RESOURCE && conflicted[ri as usize / 64] & (1 << (ri % 64)) != 0;
            let mut rep_frame = Vec::new();
            let mut ids = step_ids.iter();
            for e in dfg.graph().edge_ids() {
                let (shift, pattern) = edge(e);
                for (&step, &ri) in pattern.iter().zip(ids.by_ref()) {
                    if marked(ri) {
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
        // The shared index is the same build the representative negotiation used,
        // so replication adds no per-call graph construction.
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
    use himap_cgra::{CgraSpec, Vsa};
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
