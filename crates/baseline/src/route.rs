//! The fixed-placement router: PathFinder congestion negotiation with every
//! op pinned to its FU slot.
//!
//! SA validates its annealed placement with [`route_pinned`], and the exact
//! backend lowers each SAT model through it (via `himap_core`'s
//! `route_placement`). Every dependence is routed on the real MRRG in
//! memory-aware topological order, and the whole set is ripped up and
//! renegotiated until no resource is oversubscribed (SPR's scheme, minus
//! the placement search). Routes come back as timed steps: the absolute
//! cycle of every resource, walked back from the delivery with the CSR
//! latency of each hop ([`MrrgIndex::timed_path`]), which SPR uses for the
//! routes it commits too.

use std::collections::HashMap;

use himap_cgra::{CgraSpec, MrrgIndex, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, NodeKind};
use himap_graph::{EdgeId, NodeId};
use himap_mapper::{CancelToken, Elapsed, RoutedPath, Router, RouterConfig, SignalId};

use crate::spr::{anti_deps_ok, mem_aware_topo_order, STORE_LATENCY};
use crate::{OpSlots, TimedRoute};

/// Why a fixed placement could not be routed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// A compute op has no slot in the placement.
    MissingSlot(NodeId),
    /// A slot sits on a dead PE or outside the array.
    BadSlot(NodeId),
    /// A dependence does not advance time (producer at or after consumer).
    NonCausal(EdgeId),
    /// A memory-routed load is scheduled before its producing store lands.
    MemCausality(EdgeId),
    /// An anti-dependence is violated by the schedule.
    AntiDependence,
    /// An edge stayed unroutable after every negotiation round.
    Unroutable(EdgeId),
    /// Negotiation ended with oversubscribed resources.
    Congested(usize),
    /// The cancel token fired mid-routing.
    Cancelled,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::MissingSlot(n) => write!(f, "op {n:?} has no slot in the placement"),
            LowerError::BadSlot(n) => write!(f, "op {n:?} is placed on a dead or absent PE"),
            LowerError::NonCausal(e) => write!(f, "edge {e:?} does not advance time"),
            LowerError::MemCausality(e) => {
                write!(f, "edge {e:?} loads before its producing store is visible")
            }
            LowerError::AntiDependence => {
                write!(f, "an element is overwritten before a pending load reads it")
            }
            LowerError::Unroutable(e) => write!(f, "edge {e:?} is unroutable at this placement"),
            LowerError::Congested(n) => write!(f, "{n} resources oversubscribed after routing"),
            LowerError::Cancelled => write!(f, "routing cancelled"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Outcome of one negotiation round: either a full route set or the reason
/// this round failed (feeding the history bump).
enum Round {
    Done(Vec<TimedRoute>),
    Retry(LowerError),
}

/// The absolute cycle of every step of `path`, which ends at cycle `end`
/// ([`MrrgIndex::timed_path`]). `None` when two consecutive nodes share no
/// MRRG edge.
pub(crate) fn timed_steps(
    index: &MrrgIndex,
    path: &RoutedPath,
    end: i64,
) -> Option<Vec<(RNode, i64)>> {
    let steps = index.timed_path(&path.nodes, end)?;
    debug_assert!(
        steps.first().is_none_or(|&(_, at)| end - at == i64::from(path.elapsed)),
        "a path's elapsed count is the sum of its hop latencies"
    );
    Some(steps)
}

/// Routes the fixed placement `op_slots` (PE + absolute cycle per compute
/// op) of `dfg` on `spec` at initiation interval `ii`, negotiating
/// congestion for up to `rounds` PathFinder rounds, and returns the timed
/// route of every DFG edge.
///
/// # Errors
///
/// Structural defects of the placement ([`LowerError::MissingSlot`],
/// [`LowerError::NonCausal`], …) fail fast; congestion failures return the
/// last round's verdict after the budget is exhausted.
pub fn route_pinned(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    op_slots: &OpSlots,
    rounds: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<TimedRoute>, LowerError> {
    let index = MrrgIndex::shared(spec.clone(), ii);
    // Fail fast on structural defects before any routing work.
    for (node, w) in dfg.graph().nodes() {
        if w.kind.is_op() {
            let &(pe, abs) = op_slots.get(&node).ok_or(LowerError::MissingSlot(node))?;
            let fu = RNode::new(pe, (abs.rem_euclid(ii as i64)) as u32, RKind::Fu);
            if abs < 0 || !index.contains(fu) {
                return Err(LowerError::BadSlot(node));
            }
        }
    }
    debug_assert!(
        dfg.graph().edge_ids().all(|e| dfg.graph()[dfg.graph().edge_endpoints(e).1].kind.is_op()),
        "every DFG edge ends at an op"
    );
    if !anti_deps_ok(dfg, op_slots) {
        return Err(LowerError::AntiDependence);
    }

    let order: Vec<NodeId> =
        mem_aware_topo_order(dfg).into_iter().filter(|&n| dfg.graph()[n].kind.is_op()).collect();
    let mut router = Router::with_index(index, RouterConfig::default());
    router.set_cancel_token(cancel.cloned());

    let mut verdict = LowerError::Congested(0);
    for _ in 0..rounds.max(1) {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LowerError::Cancelled);
        }
        router.clear_present();
        match route_round(dfg, spec, ii, &order, op_slots, &mut router, cancel)? {
            Round::Done(routes) => {
                let over = router.oversubscribed();
                if over.is_empty() {
                    return Ok(routes);
                }
                verdict = LowerError::Congested(over.len());
            }
            Round::Retry(why) => verdict = why,
        }
        router.bump_history();
    }
    Err(verdict)
}

/// One negotiation round: route every in-edge of every op, in mem-aware
/// topological order, against the pinned FU slots.
fn route_round(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    order: &[NodeId],
    op_slots: &OpSlots,
    router: &mut Router,
    cancel: Option<&CancelToken>,
) -> Result<Round, LowerError> {
    let signal_of = |n: NodeId| SignalId(n.index() as u32);
    let index = std::sync::Arc::clone(router.index());
    // Delivery point and absolute time of (consumer, root signal).
    let mut deliveries: HashMap<(NodeId, NodeId), (RNode, i64)> = HashMap::new();
    // Chosen memory port of each Input node (pinned by the first route).
    let mut load_ports: HashMap<NodeId, (RNode, i64)> = HashMap::new();
    let mut mem_producers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(producer, input) in dfg.mem_deps() {
        mem_producers.entry(input).or_default().push(producer);
    }
    let all_mem: Vec<RNode> = spec
        .pes()
        .filter(|&pe| spec.healthy(pe) && !spec.faults.mem_disabled(pe))
        .flat_map(|pe| (0..ii as u32).map(move |t| RNode::new(pe, t, RKind::Mem)))
        .collect();
    let mut routes: Vec<TimedRoute> = Vec::with_capacity(dfg.graph().edge_count());
    for &v in order {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LowerError::Cancelled);
        }
        let &(pe, abs) = op_slots.get(&v).ok_or(LowerError::MissingSlot(v))?;
        let target = RNode::new(pe, (abs.rem_euclid(ii as i64)) as u32, RKind::Fu);
        for e in dfg.graph().in_edges(v) {
            let weight = dfg.graph()[e.id];
            let root = weight.signal(e.src);
            let path = match (weight.kind, dfg.graph()[e.src].kind) {
                (EdgeKind::Flow, NodeKind::Op { .. }) => {
                    let &(ppe, pabs) =
                        op_slots.get(&e.src).ok_or(LowerError::MissingSlot(e.src))?;
                    let elapsed = abs - pabs;
                    if elapsed < 1 {
                        return Err(LowerError::NonCausal(e.id));
                    }
                    let src = RNode::new(ppe, (pabs.rem_euclid(ii as i64)) as u32, RKind::Fu);
                    router.route(
                        signal_of(root),
                        &[src],
                        target,
                        Elapsed::Exact(elapsed as u32),
                        |_| true,
                    )
                }
                (EdgeKind::Forward { .. }, _) => {
                    // Topological order guarantees the forwarding op routed
                    // its own inputs first, so the delivery is recorded.
                    let &(node, dabs) =
                        deliveries.get(&(e.src, root)).ok_or(LowerError::Unroutable(e.id))?;
                    let elapsed = abs - dabs;
                    if elapsed < 1 {
                        return Err(LowerError::NonCausal(e.id));
                    }
                    router.route(
                        signal_of(root),
                        &[node],
                        target,
                        Elapsed::Exact(elapsed as u32),
                        |_| true,
                    )
                }
                (EdgeKind::Flow, NodeKind::Input { .. }) => {
                    let mut mem_lo = 0i64;
                    for producer in mem_producers.get(&e.src).map_or(&[][..], |v| v.as_slice()) {
                        let &(_, pabs) =
                            op_slots.get(producer).ok_or(LowerError::MissingSlot(*producer))?;
                        mem_lo = mem_lo.max(pabs + STORE_LATENCY);
                    }
                    if abs < mem_lo {
                        return Err(LowerError::MemCausality(e.id));
                    }
                    match load_ports.get(&e.src) {
                        Some(&(port, src_abs)) => {
                            let elapsed = abs - src_abs;
                            if elapsed < 0 {
                                return Err(LowerError::MemCausality(e.id));
                            }
                            router.route(
                                signal_of(root),
                                &[port],
                                target,
                                Elapsed::Exact(elapsed as u32),
                                |_| true,
                            )
                        }
                        None => router.route(
                            signal_of(root),
                            &all_mem,
                            target,
                            Elapsed::AtMost(
                                ((abs - mem_lo).max(0) as u32)
                                    .min(router.config().default_elapsed_cap),
                            ),
                            |_| true,
                        ),
                    }
                }
            };
            let Some(path) = path else {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return Err(LowerError::Cancelled);
                }
                return Ok(Round::Retry(LowerError::Unroutable(e.id)));
            };
            let steps = timed_steps(&index, &path, abs).ok_or(LowerError::Unroutable(e.id))?;
            if matches!(dfg.graph()[e.src].kind, NodeKind::Input { .. }) {
                load_ports.entry(e.src).or_insert(steps[0]);
            }
            if steps.len() >= 2 {
                deliveries.insert((v, root), steps[steps.len() - 2]);
            }
            router.commit(&path);
            routes.push((e.id, steps));
        }
        router.place(target, signal_of(v));
    }
    Ok(Round::Done(routes))
}
