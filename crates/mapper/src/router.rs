//! The negotiated-congestion router.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use himap_cgra::{CgraSpec, Mrrg, MrrgIndex, PeId, RIdx, RKind, RNode, ALL_DIRS};

/// Identifier of a routed signal — typically the DFG node index of the value
/// producer. Two routes with the same `SignalId` may share resources
/// (fan-out); different signals on one resource oversubscribe it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub u32);

/// Constraint on a route's elapsed cycle count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elapsed {
    /// Exactly this many cycles (a dependence with fixed producer and
    /// consumer schedule times).
    Exact(u32),
    /// At most this many cycles (e.g. a load whose earliest legal issue
    /// cycle is bounded by a store's visibility).
    AtMost(u32),
}

/// Tuning knobs of the PathFinder negotiation scheme.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Cost of entering a free routing resource.
    pub base_cost: f64,
    /// Cost of re-entering a resource already carrying the same signal.
    pub same_signal_cost: f64,
    /// History increment added per unit of oversubscription each round.
    pub history_increment: f64,
    /// Present-congestion penalty per extra distinct signal.
    pub present_factor: f64,
    /// Elapsed-cycle cap used when a route has no exact budget.
    pub default_elapsed_cap: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            base_cost: 1.0,
            same_signal_cost: 0.01,
            history_increment: 2.0,
            present_factor: 8.0,
            default_elapsed_cap: 64,
        }
    }
}

/// A successfully searched route. Resource occupancy is only recorded when
/// the path is [`Router::commit`]ted.
#[derive(Clone, Debug)]
pub struct RoutedPath {
    /// The signal this path carries.
    pub signal: SignalId,
    /// Nodes from source to target inclusive.
    pub nodes: Vec<RNode>,
    /// Cycles elapsed from source to target.
    pub elapsed: u32,
    /// Accumulated negotiation cost (diagnostic).
    pub cost: f64,
}

impl RoutedPath {
    /// The node that delivers the signal into the target — the last node
    /// before the target, or the source itself for direct feeds.
    pub fn delivery(&self) -> RNode {
        if self.nodes.len() >= 2 {
            self.nodes[self.nodes.len() - 2]
        } else {
            self.nodes[0]
        }
    }
}

/// Counters of the router's Dijkstra machinery, cumulative since creation
/// (or the last [`Router::take_search_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Search invocations (`route*` / `fu_distances` entering Dijkstra).
    pub searches: u64,
    /// Heap entries popped, including stale ones.
    pub nodes_popped: u64,
    /// Heap entries pushed (source seeds and relaxations).
    pub heap_pushes: u64,
    /// Full stamp-array resets: scratch (re)allocation on growth plus the
    /// one-in-`u32::MAX` epoch wraparound. Searches only bump the epoch, so
    /// this staying near zero is the "no per-route allocation" invariant.
    pub epoch_resets: u64,
    /// Searches aborted mid-flight by the [`CancelToken`] — the caller's
    /// result cannot matter anymore, so the pop loop stopped expanding.
    pub cancelled: u64,
}

impl RouterStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RouterStats) {
        self.searches += other.searches;
        self.nodes_popped += other.nodes_popped;
        self.heap_pushes += other.heap_pushes;
        self.epoch_resets += other.epoch_resets;
        self.cancelled += other.cancelled;
    }
}

/// Cooperative cancellation handle polled inside the Dijkstra pop loops.
///
/// A token fires on any of three conditions: a wall-clock deadline passes
/// ([`CancelToken::until`]), a shared atomic bound drops *strictly below* a
/// fixed threshold ([`CancelToken::new`]; it never un-fires for a
/// monotonically decreasing bound), or a parent token fires. HiMap's walk
/// arms its router with the `map` call's deadline; the portfolio racer
/// shares one bound — the lowest backend index known to have succeeded —
/// across its backends, so a loser's routing stops within a few heap pops
/// of a strictly better backend winning.
#[derive(Clone, Debug)]
pub struct CancelToken {
    bound: Arc<AtomicUsize>,
    threshold: usize,
    /// Optional wall-clock deadline: the token also cancels once `Instant::now()`
    /// reaches it, independent of the shared bound.
    deadline: Option<Instant>,
    /// Optional parent token: cancellation of the parent cancels this token
    /// too, letting nested scopes (a portfolio race around HiMap's own
    /// candidate walk) compose without merging their bounds.
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A token that cancels once `bound` drops below `threshold`.
    pub fn new(bound: Arc<AtomicUsize>, threshold: usize) -> Self {
        CancelToken { bound, threshold, deadline: None, parent: None }
    }

    /// A token that cancels only once the wall clock reaches `deadline`.
    pub fn until(deadline: Instant) -> Self {
        CancelToken::never().with_deadline(Some(deadline))
    }

    /// A token that can never cancel (every bound is `>= 0`).
    pub fn never() -> Self {
        CancelToken {
            bound: Arc::new(AtomicUsize::new(usize::MAX)),
            threshold: 0,
            deadline: None,
            parent: None,
        }
    }

    /// This token with `deadline` installed (or cleared with `None`),
    /// keeping the shared-bound condition intact.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// This token chained under `parent`: it cancels when its own condition
    /// fires *or* when `parent` (or any ancestor) is cancelled.
    #[must_use]
    pub fn with_parent(mut self, parent: CancelToken) -> Self {
        self.parent = Some(Arc::new(parent));
        self
    }

    /// Whether the deadline (if any) of this token or an ancestor has
    /// passed. Distinguishes wall-clock expiry from bound-based
    /// cancellation, so callers can report `DeadlineExceeded` vs `Cancelled`.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.parent.as_deref().is_some_and(CancelToken::deadline_passed)
    }

    /// Whether the shared bound has dropped below this token's threshold,
    /// the deadline (if any) has passed, or an ancestor is cancelled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.bound.load(AtomicOrdering::Acquire) < self.threshold
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.parent.as_deref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Pop-count mask between cancellation polls: the token is checked every 64
/// pops, keeping the poll overhead immeasurable against the relaxation work
/// while bounding the post-cancel overshoot to a few microseconds.
const CANCEL_POLL_MASK: u64 = 63;

/// Whether a search loop should abort: polled on pop counts matching
/// [`CANCEL_POLL_MASK`].
#[inline]
fn cancel_poll(cancel: &Option<CancelToken>, stats: &mut RouterStats) -> bool {
    if stats.nodes_popped & CANCEL_POLL_MASK == 0
        && cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    {
        stats.cancelled += 1;
        return true;
    }
    false
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    idx: u32,
    elapsed: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` orders NaN after every real cost, so a poisoned cost
        // sinks to the bottom of the max-heap instead of aborting the route.
        // Ties break on the dense id, which is the node's `RNode` order —
        // identical tie-breaking to the reference router.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| (other.idx, other.elapsed).cmp(&(self.idx, self.elapsed)))
    }
}

/// Heap entry of the A*-bounded search: ordered by the bounded total `f =
/// g + remaining`, with the true cost-so-far `g` carried alongside for
/// stale-entry detection and result reporting. Ties break exactly like
/// [`HeapEntry`], on `(idx, elapsed)`.
#[derive(Clone, Copy, Debug)]
struct BoundedEntry {
    f: f64,
    g: f64,
    idx: u32,
    elapsed: u32,
}

impl PartialEq for BoundedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for BoundedEntry {}

impl PartialOrd for BoundedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BoundedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| (other.idx, other.elapsed).cmp(&(self.idx, self.elapsed)))
    }
}

/// Sentinel for "no predecessor" in the packed `prev` array.
const NO_PREV: u32 = u32::MAX;

/// Epoch-stamped Dijkstra state reused across `route*` calls.
///
/// A search over states `(node, elapsed ≤ cap)` addresses flat arrays at
/// `node_id * (cap + 1) + elapsed`. Entries are valid only when their stamp
/// equals the current epoch, so starting a search is one integer increment
/// — no clearing, no hashing, no allocation once the arrays have grown to
/// the session's largest search.
#[derive(Clone, Debug, Default)]
struct SearchScratch {
    epoch: u32,
    stride: usize,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    /// Packed predecessor state key; `NO_PREV` for source seeds.
    prev: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
}

impl SearchScratch {
    /// Opens a new search epoch sized for `nodes * stride` states.
    ///
    /// # Panics
    ///
    /// Panics if the state space exceeds the `u32` packed-key range (an
    /// elapsed cap in the billions — far beyond any schedule).
    fn begin(&mut self, nodes: usize, stride: usize, stats: &mut RouterStats) {
        let want = nodes * stride;
        assert!(want < u32::MAX as usize, "router search state exceeds the u32 key space");
        if want > self.stamp.len() {
            self.stamp.clear();
            self.stamp.resize(want, 0);
            self.dist.resize(want, 0.0);
            self.prev.resize(want, NO_PREV);
            self.epoch = 0;
            stats.epoch_resets += 1;
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
            stats.epoch_resets += 1;
        }
        self.epoch += 1;
        self.stride = stride;
        self.heap.clear();
    }

    #[inline]
    fn key(&self, idx: u32, elapsed: u32) -> usize {
        idx as usize * self.stride + elapsed as usize
    }

    /// The settled distance of a state, if visited this epoch.
    #[inline]
    fn get(&self, key: usize) -> Option<f64> {
        if self.stamp[key] == self.epoch {
            Some(self.dist[key])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, key: usize, dist: f64, prev: u32) {
        self.stamp[key] = self.epoch;
        self.dist[key] = dist;
        self.prev[key] = prev;
    }

    /// Predecessor key of a state visited this epoch (`NO_PREV` for seeds).
    #[inline]
    fn prev_of(&self, key: usize) -> u32 {
        debug_assert_eq!(self.stamp[key], self.epoch);
        self.prev[key]
    }

    /// Walks `prev` links from `key` back to a seed, appending nodes, and
    /// returns the seed's packed key. `nodes` arrives holding the endpoint.
    fn reconstruct(&self, index: &MrrgIndex, key: usize, nodes: &mut Vec<RNode>) -> usize {
        let mut cur = key;
        while self.prev[cur] != NO_PREV {
            cur = self.prev[cur] as usize;
            nodes.push(index.node(RIdx((cur / self.stride) as u32)));
        }
        nodes.reverse();
        cur
    }
}

/// Cost of `signal` entering the resource `idx` under the present/history
/// congestion state. Free function so search loops can price successors
/// while the scratch arrays are mutably borrowed.
#[inline]
fn cost_dense(
    index: &MrrgIndex,
    present: &[Vec<SignalId>],
    history: &[f64],
    config: &RouterConfig,
    idx: u32,
    signal: SignalId,
) -> f64 {
    let occupants = &present[idx as usize];
    if occupants.contains(&signal) {
        return config.same_signal_cost;
    }
    let over = (occupants.len() + 1).saturating_sub(index.capacity(RIdx(idx)));
    config.base_cost + history[idx as usize] + over as f64 * config.present_factor
}

/// Read-only congestion state handed to a [`CostModel`].
///
/// This is the *distance* half of the pathfinding/distance split: the
/// search loops own pathfinding (heap, stamps, reconstruction) and consult
/// a model for pricing, so alternative cost schemes plug in without
/// touching the search machinery.
pub struct CostContext<'a> {
    /// Dense resource index being searched.
    pub index: &'a MrrgIndex,
    /// Distinct signals currently claiming each resource, by dense id.
    pub present: &'a [Vec<SignalId>],
    /// Accumulated history cost per resource, by dense id.
    pub history: &'a [f64],
    /// Negotiation constants.
    pub config: &'a RouterConfig,
}

/// Pluggable route pricing: entry cost plus an optional admissible bound on
/// the cost still to pay, which upgrades the search from Dijkstra to A*.
///
/// Implementations must keep `remaining` a *lower* bound on the true
/// residual cost (and `remaining_hops` a lower bound on residual mesh
/// hops); an overestimate can return suboptimal or spuriously failed
/// routes.
pub trait CostModel {
    /// Cost of `signal` entering the resource with dense id `idx`.
    fn enter_cost(&self, ctx: &CostContext<'_>, idx: u32, signal: SignalId) -> f64;

    /// Admissible lower bound on the cost still to pay from `node` to the
    /// search target. `0.0` degrades A* back to plain Dijkstra;
    /// `f64::INFINITY` marks the node as unable to reach the target at all.
    fn remaining(&self, node: RNode) -> f64;

    /// Lower bound on the mesh hops still needed from `node`, used to prune
    /// states whose elapsed budget cannot cover the distance. `None`
    /// disables the prune.
    fn remaining_hops(&self, node: RNode) -> Option<u32> {
        let _ = node;
        None
    }
}

/// The default PathFinder pricing with no remaining-distance information —
/// the model [`Router::route_constrained`]'s plain Dijkstra corresponds to.
#[derive(Clone, Copy, Debug, Default)]
pub struct NegotiatedCost;

impl CostModel for NegotiatedCost {
    fn enter_cost(&self, ctx: &CostContext<'_>, idx: u32, signal: SignalId) -> f64 {
        cost_dense(ctx.index, ctx.present, ctx.history, ctx.config, idx, signal)
    }

    fn remaining(&self, _node: RNode) -> f64 {
        0.0
    }
}

/// A*-bound for long-haul routes: exact mesh hop distances to the target
/// PE, from one backward breadth-first sweep over the *live* mesh (dead
/// PEs and severed links lengthen or disconnect), scaled by the cheapest
/// possible per-resource entry cost.
///
/// Crossing a mesh link always enters at least one wire resource priced at
/// `min(base_cost, same_signal_cost)` or more (history and present
/// penalties are non-negative), so `hops × min_step` never overestimates —
/// the bound is admissible and the A* result cost-optimal.
#[derive(Clone, Debug)]
pub struct HopBoundCost {
    cols: usize,
    /// Hops from each PE to the target over the live mesh, row-major;
    /// `u32::MAX` marks PEs that cannot reach it at all.
    hops: Vec<u32>,
    min_step: f64,
}

impl HopBoundCost {
    /// Builds the backward hop-distance table toward `target`.
    pub fn toward(spec: &CgraSpec, target: PeId, config: &RouterConfig) -> Self {
        let faults = &spec.faults;
        let mut hops = vec![u32::MAX; spec.rows * spec.cols];
        let at = |pe: PeId| pe.x as usize * spec.cols + pe.y as usize;
        let mut queue = std::collections::VecDeque::new();
        if spec.contains(target) && !faults.pe_dead(target) {
            hops[at(target)] = 0;
            queue.push_back(target);
        }
        while let Some(cur) = queue.pop_front() {
            let d = hops[at(cur)];
            for dir in ALL_DIRS {
                // Backward sweep: `next` reaches `cur` over its own wire in
                // the opposite direction, so that wire must be unsevered.
                let Some(next) = spec.neighbor(cur, dir) else { continue };
                if faults.pe_dead(next)
                    || faults.link_severed(next, dir.opposite())
                    || hops[at(next)] != u32::MAX
                {
                    continue;
                }
                hops[at(next)] = d + 1;
                queue.push_back(next);
            }
        }
        let min_step = config.base_cost.min(config.same_signal_cost).max(0.0);
        HopBoundCost { cols: spec.cols, hops, min_step }
    }

    #[inline]
    fn hops_from(&self, pe: PeId) -> u32 {
        self.hops[pe.x as usize * self.cols + pe.y as usize]
    }
}

impl CostModel for HopBoundCost {
    fn enter_cost(&self, ctx: &CostContext<'_>, idx: u32, signal: SignalId) -> f64 {
        cost_dense(ctx.index, ctx.present, ctx.history, ctx.config, idx, signal)
    }

    fn remaining(&self, node: RNode) -> f64 {
        match self.hops_from(node.pe) {
            u32::MAX => f64::INFINITY,
            // A wire node's own crossing is already priced by the time the
            // search holds it, so only `hops - 1` further entries are
            // certain; using that uniformly keeps the bound admissible for
            // every resource kind (the final hop into the target is free).
            h => h.saturating_sub(1) as f64 * self.min_step,
        }
    }

    fn remaining_hops(&self, node: RNode) -> Option<u32> {
        // Same off-by-one as `remaining`: the crossing performed by a wire
        // node the search currently holds is already counted in its elapsed.
        Some(match self.hops_from(node.pe) {
            u32::MAX => u32::MAX,
            h => h.saturating_sub(1),
        })
    }
}

/// PathFinder router over a dense-indexed MRRG.
///
/// All search and congestion state lives in flat arrays keyed by
/// [`RIdx`] — `present`/`history` are dense vectors and the Dijkstra
/// `dist`/`prev` arrays are epoch-stamped scratch reused across `route*`
/// calls, so the hot path neither hashes nor allocates. The search order,
/// tie-breaking and results are bit-identical to
/// [`ReferenceRouter`](crate::ReferenceRouter), the retained hash-map
/// implementation it is differentially tested against.
///
/// See the crate docs for the congestion model and an example.
#[derive(Clone, Debug)]
pub struct Router {
    index: Arc<MrrgIndex>,
    /// Distinct signals currently claiming each resource, by dense id.
    present: Vec<Vec<SignalId>>,
    /// Accumulated history cost per resource, by dense id.
    history: Vec<f64>,
    config: RouterConfig,
    scratch: SearchScratch,
    stats: RouterStats,
    /// Armed by the caller (HiMap's deadline or a race's bound); `None`
    /// disables polling.
    cancel: Option<CancelToken>,
}

impl Router {
    /// Creates a router over an MRRG, sharing the process-wide
    /// [`MrrgIndex`] for the MRRG's `(spec, II)`.
    pub fn new(mrrg: Mrrg, config: RouterConfig) -> Self {
        let index = MrrgIndex::shared(mrrg.spec().clone(), mrrg.ii());
        Self::with_index(index, config)
    }

    /// Creates a router over an already-built shared index.
    pub fn with_index(index: Arc<MrrgIndex>, config: RouterConfig) -> Self {
        let n = index.len();
        Router {
            index,
            present: vec![Vec::new(); n],
            history: vec![0.0; n],
            config,
            scratch: SearchScratch::default(),
            stats: RouterStats::default(),
            cancel: None,
        }
    }

    /// Arms (or disarms, with `None`) cooperative cancellation: every search
    /// loop polls the token between heap pops and aborts with no result once
    /// it reports cancelled. The abort is counted in
    /// [`RouterStats::cancelled`].
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The routing-resource graph.
    pub fn mrrg(&self) -> &Mrrg {
        self.index.mrrg()
    }

    /// The dense resource index the router searches over.
    pub fn index(&self) -> &Arc<MrrgIndex> {
        &self.index
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Search counters accumulated so far.
    pub fn search_stats(&self) -> RouterStats {
        self.stats
    }

    /// Returns the accumulated search counters and resets them to zero.
    pub fn take_search_stats(&mut self) -> RouterStats {
        std::mem::take(&mut self.stats)
    }

    /// Cost of `signal` entering `node` under the current congestion state.
    pub fn node_cost(&self, node: RNode, signal: SignalId) -> f64 {
        match self.index.index_of(node) {
            Some(i) => {
                cost_dense(&self.index, &self.present, &self.history, &self.config, i.0, signal)
            }
            // An unindexed resource carries no occupancy or history.
            None => self.config.base_cost,
        }
    }

    /// Searches a least-cost route for `signal` from any of `sources` to
    /// `target`, optionally with an exact elapsed-cycle budget.
    ///
    /// The search never routes *through* FU or memory resources: an
    /// [`RKind::Fu`] node may only start (the producer) or end (the
    /// consumer) a path, an [`RKind::Mem`] node may only start one. The
    /// target FU itself costs nothing — its legality is the placer's job.
    ///
    /// Returns `None` if no route exists within the budget.
    pub fn route(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath> {
        self.route_filtered(signal, sources, target, intended_elapsed, |_| true)
    }

    /// Like [`Router::route`], but restricted to resources for which
    /// `allowed` returns `true` (sources and the target are always allowed).
    ///
    /// HiMap uses this to confine routes to the bounding box of the
    /// producing and consuming sub-CGRAs, so that replicating a route
    /// pattern across the array can never push it out of bounds.
    pub fn route_filtered(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        intended_elapsed: Option<u32>,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let constraint = match intended_elapsed {
            Some(e) => Elapsed::Exact(e),
            None => Elapsed::AtMost(self.config.default_elapsed_cap),
        };
        self.route_constrained(signal, sources, target, constraint, allowed)
    }

    /// The most general routing entry point: explicit elapsed constraint
    /// plus a resource filter.
    pub fn route_constrained(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let (cap, intended_elapsed) = match constraint {
            Elapsed::Exact(e) => (e, Some(e)),
            Elapsed::AtMost(m) => (m, None),
        };
        let Router { index, present, history, config, scratch, stats, cancel } = self;
        scratch.begin(index.len(), cap as usize + 1, stats);
        stats.searches += 1;
        // A search that starts already cancelled is refused outright — the
        // in-loop poll only fires every CANCEL_POLL_MASK + 1 pops.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            stats.cancelled += 1;
            return None;
        }
        let tgt = index.index_of(target).map_or(NO_PREV, |i| i.0);
        for &src in sources {
            debug_assert!(index.contains(src), "source {src:?} outside MRRG");
            let at_target = src == target && intended_elapsed.is_none_or(|e| e == 0);
            if at_target {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            let Some(si) = index.index_of(src) else { continue };
            let key = scratch.key(si.0, 0);
            scratch.set(key, 0.0, NO_PREV);
            scratch.heap.push(HeapEntry { cost: 0.0, idx: si.0, elapsed: 0 });
            stats.heap_pushes += 1;
        }
        // At II = 1 every clocked hop wraps back to t = 0, so the reference
        // elapsed arithmetic (t deltas mod II) advances by 0, not by the
        // architectural latency.
        let lat_to_dt = |lat: u32| if index.ii() == 1 { 0 } else { lat };
        while let Some(HeapEntry { cost, idx, elapsed }) = scratch.heap.pop() {
            stats.nodes_popped += 1;
            // A cancelled search falls out of the loop: the caller's
            // candidate has already lost the priority race, so "no route"
            // is as good an answer as any and arrives immediately.
            if cancel_poll(cancel, stats) {
                break;
            }
            let key = scratch.key(idx, elapsed);
            if scratch.get(key).is_some_and(|d| cost > d) {
                continue;
            }
            let node = index.node(RIdx(idx));
            if idx == tgt && (elapsed > 0 || !sources.contains(&node)) {
                // Popped the target: minimal cost confirmed (exact-elapsed
                // filtering happened at insertion).
                let mut nodes = vec![node];
                scratch.reconstruct(index, key, &mut nodes);
                return Some(RoutedPath { signal, nodes, elapsed, cost });
            }
            // Never expand out of a consumer FU; producer FUs (sources) were
            // seeded with elapsed 0 and get their one expansion.
            if node.kind == RKind::Fu && elapsed > 0 {
                continue;
            }
            for (succ, lat) in index.successors(RIdx(idx)) {
                let next_elapsed = elapsed + lat_to_dt(lat);
                if next_elapsed > cap {
                    continue;
                }
                let succ_node = index.node(succ);
                // FU nodes only terminate a path; Mem nodes only start one.
                if succ_node.kind == RKind::Mem {
                    continue;
                }
                let is_target = succ.0 == tgt;
                if succ_node.kind == RKind::Fu && !is_target {
                    continue;
                }
                if !is_target && !allowed(succ_node) {
                    continue;
                }
                if is_target {
                    if let Some(exact) = intended_elapsed {
                        if next_elapsed != exact {
                            continue;
                        }
                    }
                }
                let step = if is_target {
                    0.0
                } else {
                    cost_dense(index, present, history, config, succ.0, signal)
                };
                let next_cost = cost + step;
                let succ_key = scratch.key(succ.0, next_elapsed);
                if scratch.get(succ_key).is_none_or(|d| next_cost < d) {
                    scratch.set(succ_key, next_cost, key as u32);
                    scratch.heap.push(HeapEntry {
                        cost: next_cost,
                        idx: succ.0,
                        elapsed: next_elapsed,
                    });
                    stats.heap_pushes += 1;
                }
            }
        }
        None
    }

    /// Long-haul routing: [`Router::route_constrained`] upgraded to an
    /// A*-bounded search under a [`HopBoundCost`] built for `target`.
    ///
    /// One backward breadth-first sweep over the live mesh yields exact hop
    /// distances to the target PE; the forward search uses them both as an
    /// admissible cost bound (so expansion concentrates toward the target
    /// instead of flooding the fabric) and as an elapsed-feasibility prune.
    /// Same congestion state, same route legality, same optimal cost as the
    /// plain search — only the visit order and pop count differ, which is
    /// what makes it worthwhile when source and target are many hops apart.
    pub fn route_bounded(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let model = HopBoundCost::toward(self.index.mrrg().spec(), target.pe, &self.config);
        self.route_with_model(signal, sources, target, constraint, allowed, &model)
    }

    /// [`Router::route_constrained`] under a caller-supplied [`CostModel`]:
    /// the most general search entry point. With [`NegotiatedCost`] this is
    /// exactly the plain search; models with a non-zero remaining bound turn
    /// it into A*.
    ///
    /// Kept separate from `route_constrained` so the negotiated hot path
    /// stays untouched (flat arrays, shared scratch heap, bit-identical to
    /// the reference router); this loop carries `(f, g)` per heap entry and
    /// allocates its own heap, which only pays off on long-haul searches.
    pub fn route_with_model<M: CostModel>(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
        model: &M,
    ) -> Option<RoutedPath> {
        let (cap, intended_elapsed) = match constraint {
            Elapsed::Exact(e) => (e, Some(e)),
            Elapsed::AtMost(m) => (m, None),
        };
        let Router { index, present, history, config, scratch, stats, cancel } = self;
        let ctx = CostContext { index, present, history, config };
        scratch.begin(index.len(), cap as usize + 1, stats);
        stats.searches += 1;
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            stats.cancelled += 1;
            return None;
        }
        let tgt = index.index_of(target).map_or(NO_PREV, |i| i.0);
        let mut heap: BinaryHeap<BoundedEntry> = BinaryHeap::new();
        for &src in sources {
            debug_assert!(index.contains(src), "source {src:?} outside MRRG");
            let at_target = src == target && intended_elapsed.is_none_or(|e| e == 0);
            if at_target {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            let Some(si) = index.index_of(src) else { continue };
            let bound = model.remaining(src);
            if !bound.is_finite() {
                continue; // the sweep proved this source cannot reach the target
            }
            let key = scratch.key(si.0, 0);
            scratch.set(key, 0.0, NO_PREV);
            heap.push(BoundedEntry { f: bound, g: 0.0, idx: si.0, elapsed: 0 });
            stats.heap_pushes += 1;
        }
        let lat_to_dt = |lat: u32| if index.ii() == 1 { 0 } else { lat };
        // Whether a mesh hop consumes an elapsed cycle: every wire is
        // clocked, but at II = 1 the reference elapsed arithmetic advances
        // by 0 — the hop prune is only sound when cycles accrue.
        let hops_take_cycles = index.ii() > 1;
        while let Some(BoundedEntry { g, idx, elapsed, .. }) = heap.pop() {
            stats.nodes_popped += 1;
            if cancel_poll(cancel, stats) {
                break;
            }
            let key = scratch.key(idx, elapsed);
            if scratch.get(key).is_some_and(|d| g > d) {
                continue;
            }
            let node = index.node(RIdx(idx));
            if idx == tgt && (elapsed > 0 || !sources.contains(&node)) {
                let mut nodes = vec![node];
                scratch.reconstruct(index, key, &mut nodes);
                return Some(RoutedPath { signal, nodes, elapsed, cost: g });
            }
            if node.kind == RKind::Fu && elapsed > 0 {
                continue;
            }
            for (succ, lat) in index.successors(RIdx(idx)) {
                let next_elapsed = elapsed + lat_to_dt(lat);
                if next_elapsed > cap {
                    continue;
                }
                let succ_node = index.node(succ);
                if succ_node.kind == RKind::Mem {
                    continue;
                }
                let is_target = succ.0 == tgt;
                if succ_node.kind == RKind::Fu && !is_target {
                    continue;
                }
                if !is_target && !allowed(succ_node) {
                    continue;
                }
                if is_target {
                    if let Some(exact) = intended_elapsed {
                        if next_elapsed != exact {
                            continue;
                        }
                    }
                }
                let bound = if is_target { 0.0 } else { model.remaining(succ_node) };
                if !bound.is_finite() {
                    continue;
                }
                if !is_target && hops_take_cycles {
                    if let Some(hops) = model.remaining_hops(succ_node) {
                        if hops as u64 + next_elapsed as u64 > cap as u64 {
                            continue;
                        }
                    }
                }
                let step = if is_target { 0.0 } else { model.enter_cost(&ctx, succ.0, signal) };
                let next_cost = g + step;
                let succ_key = scratch.key(succ.0, next_elapsed);
                if scratch.get(succ_key).is_none_or(|d| next_cost < d) {
                    scratch.set(succ_key, next_cost, key as u32);
                    heap.push(BoundedEntry {
                        f: next_cost + bound,
                        g: next_cost,
                        idx: succ.0,
                        elapsed: next_elapsed,
                    });
                    stats.heap_pushes += 1;
                }
            }
        }
        None
    }

    /// Net-extension routing: sources carry individual absolute times and
    /// the value must arrive at `target` exactly at `target_abs`.
    ///
    /// This is how a multi-terminal net grows: a signal already routed to
    /// one consumer exists on *every* resource of that path (wires in
    /// flight, registers holding), and a further consumer may tap any of
    /// them. Sources later than `target_abs` are ignored.
    pub fn route_timed(
        &mut self,
        signal: SignalId,
        sources: &[(RNode, i64)],
        target: RNode,
        target_abs: i64,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let base = sources.iter().map(|&(_, abs)| abs).min()?;
        let need = u32::try_from(target_abs - base).ok()?;
        let Router { index, present, history, config, scratch, stats, cancel } = self;
        scratch.begin(index.len(), need as usize + 1, stats);
        stats.searches += 1;
        // See `route_constrained`: an already-cancelled search is refused
        // before seeding, deterministically.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            stats.cancelled += 1;
            return None;
        }
        let tgt = index.index_of(target).map_or(NO_PREV, |i| i.0);
        for &(src, abs) in sources {
            if abs > target_abs {
                continue;
            }
            let offset = (abs - base) as u32;
            if src == target && offset == need {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            let Some(si) = index.index_of(src) else {
                debug_assert!(false, "source {src:?} outside MRRG");
                continue;
            };
            let key = scratch.key(si.0, offset);
            if scratch.get(key).is_none_or(|d| d > 0.0) {
                scratch.set(key, 0.0, NO_PREV);
                scratch.heap.push(HeapEntry { cost: 0.0, idx: si.0, elapsed: offset });
                stats.heap_pushes += 1;
            }
        }
        let lat_to_dt = |lat: u32| if index.ii() == 1 { 0 } else { lat };
        while let Some(HeapEntry { cost, idx, elapsed }) = scratch.heap.pop() {
            stats.nodes_popped += 1;
            // A cancelled search falls out of the loop: the caller's
            // candidate has already lost the priority race, so "no route"
            // is as good an answer as any and arrives immediately.
            if cancel_poll(cancel, stats) {
                break;
            }
            let key = scratch.key(idx, elapsed);
            if scratch.get(key).is_some_and(|d| cost > d) {
                continue;
            }
            let node = index.node(RIdx(idx));
            if idx == tgt && elapsed == need && scratch.prev_of(key) != NO_PREV {
                let mut nodes = vec![node];
                let seed = scratch.reconstruct(index, key, &mut nodes);
                let first_offset = (seed % scratch.stride) as u32;
                return Some(RoutedPath { signal, nodes, elapsed: need - first_offset, cost });
            }
            if node.kind == RKind::Fu && scratch.prev_of(key) != NO_PREV {
                continue; // only source FUs may expand
            }
            for (succ, lat) in index.successors(RIdx(idx)) {
                let next_elapsed = elapsed + lat_to_dt(lat);
                if next_elapsed > need {
                    continue;
                }
                let succ_node = index.node(succ);
                if succ_node.kind == RKind::Mem {
                    continue;
                }
                let is_target = succ.0 == tgt;
                if succ_node.kind == RKind::Fu && !is_target {
                    continue;
                }
                if is_target && next_elapsed != need {
                    continue;
                }
                if !is_target && !allowed(succ_node) {
                    continue;
                }
                let step = if is_target {
                    0.0
                } else {
                    cost_dense(index, present, history, config, succ.0, signal)
                };
                let next_cost = cost + step;
                let succ_key = scratch.key(succ.0, next_elapsed);
                if scratch.get(succ_key).is_none_or(|d| next_cost < d) {
                    scratch.set(succ_key, next_cost, key as u32);
                    scratch.heap.push(HeapEntry {
                        cost: next_cost,
                        idx: succ.0,
                        elapsed: next_elapsed,
                    });
                    stats.heap_pushes += 1;
                }
            }
        }
        None
    }

    /// Adds external history cost to a resource (replication-aware
    /// negotiation feeds replica conflicts back through this).
    pub fn add_history(&mut self, node: RNode, amount: f64) {
        if let Some(i) = self.index.index_of(node) {
            self.history[i.index()] += amount;
        }
    }

    /// Single-source-set Dijkstra over the whole MRRG: the negotiated cost
    /// of delivering `signal` from `sources` to every FU slot, keyed by
    /// `(fu_node, elapsed)` for every elapsed cycle count up to `cap`.
    ///
    /// Whole-DFG placers use this to evaluate all candidate slots of an
    /// operation with one search per parent instead of one per candidate.
    pub fn fu_distances(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        cap: u32,
    ) -> HashMap<(RNode, u32), f64> {
        let mut fu_costs: HashMap<(RNode, u32), f64> = HashMap::new();
        let Router { index, present, history, config, scratch, stats, cancel } = self;
        scratch.begin(index.len(), cap as usize + 1, stats);
        stats.searches += 1;
        // A cancelled distance sweep returns the (empty) partial map; the
        // mid-loop poll below may likewise truncate it. Callers that arm a
        // token treat any result of a cancelled candidate as discardable.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            stats.cancelled += 1;
            return fu_costs;
        }
        for &src in sources {
            let Some(si) = index.index_of(src) else {
                debug_assert!(false, "source {src:?} outside MRRG");
                continue;
            };
            let key = scratch.key(si.0, 0);
            scratch.set(key, 0.0, NO_PREV);
            scratch.heap.push(HeapEntry { cost: 0.0, idx: si.0, elapsed: 0 });
            stats.heap_pushes += 1;
        }
        let lat_to_dt = |lat: u32| if index.ii() == 1 { 0 } else { lat };
        while let Some(HeapEntry { cost, idx, elapsed }) = scratch.heap.pop() {
            stats.nodes_popped += 1;
            // A cancelled search falls out of the loop: the caller's
            // candidate has already lost the priority race, so "no route"
            // is as good an answer as any and arrives immediately.
            if cancel_poll(cancel, stats) {
                break;
            }
            let key = scratch.key(idx, elapsed);
            if scratch.get(key).is_some_and(|d| cost > d) {
                continue;
            }
            let node = index.node(RIdx(idx));
            if node.kind == RKind::Fu && elapsed > 0 {
                continue;
            }
            for (succ, lat) in index.successors(RIdx(idx)) {
                let next_elapsed = elapsed + lat_to_dt(lat);
                if next_elapsed > cap {
                    continue;
                }
                let succ_node = index.node(succ);
                if succ_node.kind == RKind::Mem {
                    continue;
                }
                if succ_node.kind == RKind::Fu {
                    // Terminal: record, do not expand.
                    let fu_key = (succ_node, next_elapsed);
                    if fu_costs.get(&fu_key).is_none_or(|&d| cost < d) {
                        fu_costs.insert(fu_key, cost);
                    }
                    continue;
                }
                let next_cost = cost + cost_dense(index, present, history, config, succ.0, signal);
                let succ_key = scratch.key(succ.0, next_elapsed);
                if scratch.get(succ_key).is_none_or(|d| next_cost < d) {
                    scratch.set(succ_key, next_cost, key as u32);
                    scratch.heap.push(HeapEntry {
                        cost: next_cost,
                        idx: succ.0,
                        elapsed: next_elapsed,
                    });
                    stats.heap_pushes += 1;
                }
            }
        }
        fu_costs
    }

    /// Routes from a single source. See [`Router::route`].
    pub fn route_one(
        &mut self,
        signal: SignalId,
        source: RNode,
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath> {
        self.route(signal, &[source], target, intended_elapsed)
    }

    /// Records a path's resource occupancy. FU endpoints are skipped: the
    /// producer's and consumer's FU slots are accounted by [`Router::place`].
    pub fn commit(&mut self, path: &RoutedPath) {
        for (idx, &node) in path.nodes.iter().enumerate() {
            let endpoint = idx == 0 || idx == path.nodes.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            self.place(node, path.signal);
        }
    }

    /// Removes a previously committed path's occupancy.
    ///
    /// The caller must only rip up paths it committed; removing a signal
    /// shared by another still-committed path of the *same* signal is safe
    /// only when all paths of that signal are ripped up together, which is
    /// how the negotiation loops use it.
    pub fn rip_up(&mut self, path: &RoutedPath) {
        for (idx, &node) in path.nodes.iter().enumerate() {
            let endpoint = idx == 0 || idx == path.nodes.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            self.unplace(node, path.signal);
        }
    }

    /// Claims a resource for a placed operation or load (counts toward
    /// capacity like any signal).
    pub fn place(&mut self, node: RNode, signal: SignalId) {
        let Some(i) = self.index.index_of(node) else {
            debug_assert!(false, "place of {node:?} outside MRRG");
            return;
        };
        let occupants = &mut self.present[i.index()];
        if !occupants.contains(&signal) {
            occupants.push(signal);
        }
    }

    /// Releases a placement claim.
    pub fn unplace(&mut self, node: RNode, signal: SignalId) {
        if let Some(i) = self.index.index_of(node) {
            self.present[i.index()].retain(|&s| s != signal);
        }
    }

    /// Distinct signals currently on a node.
    pub fn occupants(&self, node: RNode) -> &[SignalId] {
        self.index.index_of(node).map_or(&[], |i| self.present[i.index()].as_slice())
    }

    /// All currently oversubscribed resources (distinct signals exceed
    /// capacity), in ascending node order.
    pub fn oversubscribed(&self) -> Vec<RNode> {
        // Dense ids ascend in RNode order, so the scan is already sorted.
        self.present
            .iter()
            .enumerate()
            .filter(|(i, occupants)| occupants.len() > self.index.capacity(RIdx(*i as u32)))
            .map(|(i, _)| self.index.node(RIdx(i as u32)))
            .collect()
    }

    /// Adds history cost on every oversubscribed node (one negotiation
    /// round), returning how many nodes were penalized.
    pub fn bump_history(&mut self) -> usize {
        let mut bumped = 0;
        for i in 0..self.present.len() {
            let occupants = self.present[i].len();
            let capacity = self.index.capacity(RIdx(i as u32));
            if occupants > capacity {
                let excess = occupants - capacity;
                self.history[i] += self.config.history_increment * excess as f64;
                bumped += 1;
            }
        }
        bumped
    }

    /// Clears all present occupancy (history is kept) — the start of a
    /// rip-up-and-reroute round. Keeps the per-resource allocations.
    pub fn clear_present(&mut self) {
        for occupants in &mut self.present {
            occupants.clear();
        }
    }

    /// Clears both occupancy and history.
    pub fn reset(&mut self) {
        self.clear_present();
        self.history.fill(0.0);
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_cgra::{CgraSpec, PeId};

    fn fu(x: usize, y: usize, t: u32) -> RNode {
        RNode::new(PeId::new(x, y), t, RKind::Fu)
    }

    fn router(c: usize, ii: usize) -> Router {
        Router::new(Mrrg::new(CgraSpec::square(c), ii), RouterConfig::default())
    }

    #[test]
    fn neighbor_route_is_one_cycle() {
        let mut r = router(2, 4);
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(0, 1, 1), Some(1)).unwrap();
        assert_eq!(p.elapsed, 1);
        // Fu -> Wire(E) -> Fu.
        assert_eq!(p.nodes.len(), 3);
        assert!(matches!(p.nodes[1].kind, RKind::Wire(_)));
        assert_eq!(p.delivery(), p.nodes[1]);
    }

    #[test]
    fn same_pe_next_cycle_uses_out_reg() {
        let mut r = router(1, 4);
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(0, 0, 1), Some(1)).unwrap();
        assert_eq!(p.elapsed, 1);
        assert_eq!(p.nodes[1].kind, RKind::Out);
    }

    #[test]
    fn elapsed_budget_is_exact() {
        let mut r = router(2, 4);
        // Two hops in exactly 3 cycles: one cycle of waiting somewhere.
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 1, 3), Some(3)).unwrap();
        assert_eq!(p.elapsed, 3);
        // Impossible: two hops cannot fit one cycle.
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 1, 1), Some(1)).is_none());
    }

    #[test]
    fn modulo_wraparound_with_exact_elapsed() {
        // Target at t=0 via wrap: elapsed 2 from t=3 in a 4-cycle window.
        let mut r = router(2, 4);
        let p = r.route_one(SignalId(1), fu(0, 0, 3), fu(0, 1, 1), Some(2)).unwrap();
        assert_eq!(p.elapsed, 2);
        // The same endpoints with elapsed 2 + 4 (one extra window) would
        // deliver a different iteration's value: the exact budget forbids it.
        assert!(r.route_one(SignalId(1), fu(0, 0, 3), fu(0, 1, 1), Some(6)).is_some());
    }

    #[test]
    fn congestion_diverts_routes() {
        let mut r = router(3, 2);
        // Occupy the direct east wire from (0,0) at both cycles.
        let sig_a = SignalId(7);
        let wire = RNode::new(PeId::new(0, 0), 1, RKind::Wire(himap_cgra::Dir::East));
        r.place(wire, sig_a);
        let p = r.route_one(SignalId(8), fu(0, 0, 0), fu(0, 1, 1), Some(1)).expect("route exists");
        // The only 1-cycle path uses that wire, so the router pays the
        // congestion penalty rather than failing.
        assert!(p.cost > r.config().base_cost * 2.0);
        assert!(p.nodes.contains(&wire));
    }

    #[test]
    fn same_signal_shares_resources_cheaply() {
        let mut r = router(2, 3);
        let sig = SignalId(3);
        let p1 = r.route_one(sig, fu(0, 0, 0), fu(0, 1, 1), Some(1)).unwrap();
        r.commit(&p1);
        // Fan-out of the same signal to another consumer reuses the wire at
        // near-zero cost.
        let p2 = r.route_one(sig, fu(0, 0, 0), fu(0, 1, 1), Some(1)).unwrap();
        assert!(p2.cost <= r.config().same_signal_cost * 4.0);
    }

    #[test]
    fn commit_rip_up_roundtrip() {
        let mut r = router(2, 3);
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 0, 1), Some(1)).unwrap();
        r.commit(&p);
        assert!(!r.occupants(p.nodes[1]).is_empty());
        r.rip_up(&p);
        assert!(r.occupants(p.nodes[1]).is_empty());
        // FU endpoints are never occupied by routes.
        assert!(r.occupants(p.nodes[0]).is_empty());
    }

    #[test]
    fn oversubscription_and_history() {
        let mut r = router(2, 2);
        let wire = RNode::new(PeId::new(0, 0), 1, RKind::Wire(himap_cgra::Dir::East));
        r.place(wire, SignalId(1));
        r.place(wire, SignalId(2));
        assert_eq!(r.oversubscribed(), vec![wire]);
        let before = r.node_cost(wire, SignalId(3));
        assert_eq!(r.bump_history(), 1);
        let after = r.node_cost(wire, SignalId(3));
        assert!(after > before);
        // History survives clearing present occupancy.
        r.clear_present();
        assert!(r.oversubscribed().is_empty());
        assert!(r.node_cost(wire, SignalId(3)) > RouterConfig::default().base_cost);
    }

    #[test]
    fn mem_is_source_only_and_fu_not_transit() {
        let mut r = router(2, 3);
        let mem = RNode::new(PeId::new(0, 0), 0, RKind::Mem);
        // Load feeding the local FU in the same cycle.
        let p = r.route_one(SignalId(1), mem, fu(0, 0, 0), Some(0)).unwrap();
        assert_eq!(p.nodes, vec![mem, fu(0, 0, 0)]);
        // A route may not pass through an intermediate FU: the only way to
        // gain time without moving is Out/Reg, never another FU.
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 1, 2), Some(2)).unwrap();
        for node in &p.nodes[1..p.nodes.len() - 1] {
            assert_ne!(node.kind, RKind::Fu, "transit through FU in {:?}", p.nodes);
        }
    }

    #[test]
    fn multi_source_picks_cheapest() {
        let mut r = router(3, 3);
        let sources = [fu(0, 0, 0), fu(2, 2, 0)];
        let p = r.route(SignalId(1), &sources, fu(2, 1, 1), Some(1)).unwrap();
        assert_eq!(p.nodes[0], fu(2, 2, 0), "nearer source wins");
    }

    #[test]
    fn source_equals_target() {
        let mut r = router(2, 2);
        let p = r.route_one(SignalId(1), fu(0, 0, 0), fu(0, 0, 0), Some(0)).unwrap();
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.elapsed, 0);
        assert_eq!(p.delivery(), fu(0, 0, 0));
    }

    #[test]
    fn nan_history_sinks_instead_of_aborting() {
        // Poison the direct east wire with a NaN history cost. `total_cmp`
        // orders NaN after every real cost, so NaN-priced states sink in
        // the heap: the search terminates, finite detours win when one
        // exists, and a forced NaN path is still returned rather than
        // panicking or looping.
        let mut r = router(2, 4);
        let wire = RNode::new(PeId::new(0, 0), 1, RKind::Wire(himap_cgra::Dir::East));
        r.add_history(wire, f64::NAN);
        // Exactly one cycle: the poisoned wire is the only option.
        let forced = r.route_one(SignalId(1), fu(0, 0, 0), fu(0, 1, 1), Some(1)).unwrap();
        assert!(forced.nodes.contains(&wire));
        assert!(forced.cost.is_nan());
        // Three cycles admit a detour around the poisoned wire; it must win
        // with a finite cost.
        let detour = r.route_one(SignalId(1), fu(0, 0, 0), fu(0, 1, 3), Some(3)).unwrap();
        assert!(!detour.nodes.contains(&wire), "detour must avoid NaN wire");
        assert!(detour.cost.is_finite());
    }

    #[test]
    fn cancelled_token_aborts_search_and_counts() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let mut r = router(3, 4);
        // The route exists without cancellation…
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(2, 2, 3), Some(7)).is_some());
        // …but an already-cancelled token (bound 0 < threshold 5) aborts the
        // identical search before it reaches the target, counting the abort.
        let bound = Arc::new(AtomicUsize::new(0));
        r.set_cancel_token(Some(CancelToken::new(Arc::clone(&bound), 5)));
        let before = r.search_stats().cancelled;
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(2, 2, 3), Some(7)).is_none());
        assert_eq!(r.search_stats().cancelled, before + 1);
        // Raising the bound back above the threshold re-enables routing.
        bound.store(usize::MAX, std::sync::atomic::Ordering::Release);
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(2, 2, 3), Some(7)).is_some());
        assert_eq!(r.search_stats().cancelled, before + 1, "live search not counted");
        // Disarming removes the poll entirely.
        bound.store(0, std::sync::atomic::Ordering::Release);
        r.set_cancel_token(None);
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(2, 2, 3), Some(7)).is_some());
    }

    #[test]
    fn never_token_never_cancels() {
        let token = CancelToken::never();
        assert!(!token.is_cancelled());
        let mut r = router(2, 4);
        r.set_cancel_token(Some(token));
        assert!(r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 1, 2), Some(2)).is_some());
        assert_eq!(r.search_stats().cancelled, 0);
    }

    #[test]
    fn parent_cancellation_propagates_to_children() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        // A live child under a live parent is not cancelled.
        let parent_bound = Arc::new(AtomicUsize::new(usize::MAX));
        let parent = CancelToken::new(Arc::clone(&parent_bound), 5);
        let child = CancelToken::never().with_parent(parent.clone());
        assert!(!child.is_cancelled());
        // Cancelling the parent cancels the child — and a grandchild.
        parent_bound.store(0, std::sync::atomic::Ordering::Release);
        assert!(parent.is_cancelled());
        assert!(child.is_cancelled());
        let grandchild = CancelToken::never().with_parent(child);
        assert!(grandchild.is_cancelled());
        // Bound-based cancellation is not a deadline expiry…
        assert!(!grandchild.deadline_passed());
        // …but a passed deadline on an ancestor is visible from the leaf.
        let expired = CancelToken::until(Instant::now() - std::time::Duration::from_millis(1));
        let leaf = CancelToken::never().with_parent(expired);
        assert!(leaf.is_cancelled());
        assert!(leaf.deadline_passed());
    }

    #[test]
    fn cancelled_timed_route_aborts() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let mut r = router(3, 4);
        let src = [(fu(0, 0, 0), 0i64)];
        assert!(r.route_timed(SignalId(2), &src, fu(2, 2, 3), 7, |_| true).is_some());
        r.set_cancel_token(Some(CancelToken::new(Arc::new(AtomicUsize::new(0)), 1)));
        assert!(r.route_timed(SignalId(2), &src, fu(2, 2, 3), 7, |_| true).is_none());
        assert_eq!(r.search_stats().cancelled, 1);
    }

    #[test]
    fn search_stats_accumulate_and_scratch_is_reused() {
        let mut r = router(2, 4);
        assert_eq!(r.search_stats(), RouterStats::default());
        let _ = r.route_one(SignalId(1), fu(0, 0, 0), fu(1, 1, 2), Some(2));
        let first = r.search_stats();
        assert_eq!(first.searches, 1);
        assert!(first.nodes_popped > 0 && first.heap_pushes > 0);
        assert_eq!(first.epoch_resets, 1, "first search allocates the scratch");
        // Same-sized second search must reuse the arrays: no new reset.
        let _ = r.route_one(SignalId(2), fu(0, 0, 0), fu(1, 1, 2), Some(2));
        let second = r.search_stats();
        assert_eq!(second.searches, 2);
        assert_eq!(second.epoch_resets, 1, "epoch bump must not clear");
        let taken = r.take_search_stats();
        assert_eq!(taken, second);
        assert_eq!(r.search_stats(), RouterStats::default());
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod timed_tests {
    use super::*;
    use himap_cgra::{CgraSpec, PeId};

    fn fu(x: usize, y: usize, t: u32) -> RNode {
        RNode::new(PeId::new(x, y), t, RKind::Fu)
    }

    fn router(c: usize, ii: usize) -> Router {
        Router::new(Mrrg::new(CgraSpec::square(c), ii), RouterConfig::default())
    }

    #[test]
    fn timed_route_from_single_source() {
        let mut r = router(2, 4);
        let p = r
            .route_timed(SignalId(1), &[(fu(0, 0, 0), 10)], fu(0, 1, 3), 13, |_| true)
            .expect("one hop plus waits fits 3 cycles");
        assert_eq!(p.nodes.first(), Some(&fu(0, 0, 0)));
        assert_eq!(p.nodes.last(), Some(&fu(0, 1, 3)));
    }

    #[test]
    fn timed_route_prefers_later_tap() {
        // The net already extends to a register at a later time; tapping it
        // beats re-routing from the producer (shorter extension = cheaper).
        let mut r = router(2, 4);
        let producer = (fu(0, 0, 0), 100i64);
        let reg = (RNode::new(PeId::new(0, 0), 2, RKind::Reg(0)), 102i64);
        let p = r
            .route_timed(SignalId(1), &[producer, reg], fu(0, 0, 2), 102, |_| true)
            .expect("register feeds the FU in the same cycle");
        // Reg -> RegRd -> Fu: three nodes, zero extra cycles.
        assert_eq!(p.nodes.len(), 3);
        assert_eq!(p.nodes[0], reg.0);
    }

    #[test]
    fn timed_route_ignores_sources_after_target() {
        let mut r = router(2, 4);
        let late = (fu(0, 0, 1), 200i64);
        assert!(r.route_timed(SignalId(1), &[late], fu(0, 1, 0), 150, |_| true).is_none());
    }

    #[test]
    fn timed_route_respects_filter() {
        // On a 1x3 row, (0,0) -> (0,2) must transit PE (0,1); excluding
        // that PE's resources makes the route impossible.
        let mut r = Router::new(
            Mrrg::new(CgraSpec::mesh(1, 3).expect("valid"), 4),
            RouterConfig::default(),
        );
        let blocked =
            r.route_timed(SignalId(1), &[(fu(0, 0, 0), 0)], fu(0, 2, 2), 2, |n| n.pe.y != 1);
        assert!(blocked.is_none(), "filter must block the transit PE");
        let open = r.route_timed(SignalId(1), &[(fu(0, 0, 0), 0)], fu(0, 2, 2), 2, |_| true);
        assert!(open.is_some());
    }

    #[test]
    fn timed_route_continues_from_register_tap() {
        // A value parked in a register can continue onward across macro
        // steps — the net-based continuation that single-delivery routing
        // could not express.
        let mut r = router(1, 6);
        let reg = (RNode::new(PeId::new(0, 0), 1, RKind::Reg(2)), 1i64);
        let p = r
            .route_timed(SignalId(9), &[reg], fu(0, 0, 5), 5, |_| true)
            .expect("register holds until the consumer's cycle");
        assert_eq!(p.nodes[0], reg.0);
        // Path must hold in registers (no wires exist on a 1x1 array).
        assert!(p.nodes.iter().all(|n| !matches!(n.kind, RKind::Wire(_))));
    }

    #[test]
    fn elapsed_constraints() {
        let mut r = router(2, 4);
        let exact = r.route_constrained(
            SignalId(1),
            &[fu(0, 0, 0)],
            fu(0, 1, 3),
            Elapsed::Exact(3),
            |_| true,
        );
        assert_eq!(exact.expect("routable").elapsed, 3);
        let at_most = r.route_constrained(
            SignalId(1),
            &[fu(0, 0, 0)],
            fu(0, 1, 1),
            Elapsed::AtMost(3),
            |_| true,
        );
        assert_eq!(at_most.expect("routable").elapsed, 1, "shortest within budget");
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod bounded_tests {
    use super::*;
    use himap_cgra::{CapabilityMap, CgraSpec, Dir, PeId};

    fn fu(x: usize, y: usize, t: u32) -> RNode {
        RNode::new(PeId::new(x, y), t, RKind::Fu)
    }

    fn router(c: usize, ii: usize) -> Router {
        Router::new(Mrrg::new(CgraSpec::square(c), ii), RouterConfig::default())
    }

    /// Dirties the congestion state so the searches negotiate, not just
    /// count hops: a committed route plus some history.
    fn congest(r: &mut Router) {
        let t = (3 % r.index().ii()) as u32;
        let p = r.route_one(SignalId(90), fu(0, 0, 0), fu(0, 3, t), Some(3)).unwrap();
        r.commit(&p);
        r.add_history(RNode::new(PeId::new(1, 1), 1, RKind::Wire(Dir::East)), 3.5);
        r.bump_history();
    }

    #[test]
    fn bounded_route_matches_the_plain_search_cost() {
        // Differential sweep: for every endpoint pair and budget, the
        // A*-bounded search agrees with plain Dijkstra on feasibility and
        // on the optimal cost (paths may differ among cost ties).
        let mut r = router(6, 4);
        congest(&mut r);
        for (sx, sy) in [(0usize, 0usize), (2, 1)] {
            for (tx, ty) in [(5usize, 5usize), (0, 5), (3, 3)] {
                for budget in [Elapsed::Exact(10), Elapsed::AtMost(12), Elapsed::Exact(2)] {
                    let src = fu(sx, sy, 0);
                    let tgt = fu(tx, ty, 2);
                    let plain = r.route_constrained(SignalId(7), &[src], tgt, budget, |_| true);
                    let bounded = r.route_bounded(SignalId(7), &[src], tgt, budget, |_| true);
                    match (&plain, &bounded) {
                        (Some(p), Some(b)) => {
                            assert!(
                                (p.cost - b.cost).abs() < 1e-9,
                                "cost mismatch {sx},{sy}->{tx},{ty} {budget:?}: {} vs {}",
                                p.cost,
                                b.cost
                            );
                            assert_eq!(p.elapsed, b.elapsed, "elapsed must follow the budget");
                        }
                        (None, None) => {}
                        other => {
                            panic!(
                                "feasibility mismatch {sx},{sy}->{tx},{ty} {budget:?}: {other:?}"
                            )
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn negotiated_model_reproduces_the_plain_search() {
        let mut r = router(4, 3);
        congest(&mut r);
        let src = fu(0, 0, 0);
        let tgt = fu(3, 3, 0);
        let plain = r.route_constrained(SignalId(3), &[src], tgt, Elapsed::Exact(6), |_| true);
        let modelled = r.route_with_model(
            SignalId(3),
            &[src],
            tgt,
            Elapsed::Exact(6),
            |_| true,
            &NegotiatedCost,
        );
        let (p, m) = (plain.expect("routable"), modelled.expect("routable"));
        assert!((p.cost - m.cost).abs() < 1e-9);
        assert_eq!(p.nodes, m.nodes, "zero bound is plain Dijkstra with identical tie-breaks");
    }

    #[test]
    fn bounded_search_pops_fewer_nodes_on_long_hauls() {
        let mut r = router(8, 4);
        let src = fu(0, 0, 0);
        let tgt = fu(7, 7, 2);
        let _ = r.route_constrained(SignalId(1), &[src], tgt, Elapsed::Exact(14), |_| true);
        let plain_pops = r.take_search_stats().nodes_popped;
        let _ = r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(14), |_| true);
        let bounded_pops = r.take_search_stats().nodes_popped;
        assert!(
            bounded_pops < plain_pops,
            "A* bound must concentrate the search: {bounded_pops} vs {plain_pops} pops"
        );
    }

    #[test]
    fn hop_bound_respects_dead_pes_and_severed_links() {
        // A dead wall across the middle leaves one gap: hop distances must
        // detour through it, and walling the gap off disconnects the halves.
        let mut faults = CapabilityMap::new();
        for y in 0..7 {
            faults.kill_pe(PeId::new(3, y));
        }
        let spec = CgraSpec::mesh(8, 8).expect("valid").with_faults(faults.clone());
        let model = HopBoundCost::toward(&spec, PeId::new(7, 0), &RouterConfig::default());
        // Manhattan distance from (0,0) is 7; the detour through column 7
        // costs 7 + 2 * 7 = 21 hops, reported minus the crossing already
        // paid by the node the search holds.
        assert_eq!(model.remaining_hops(fu(0, 0, 0)), Some(20));
        faults.kill_pe(PeId::new(3, 7));
        let cut = CgraSpec::mesh(8, 8).expect("valid").with_faults(faults);
        let model = HopBoundCost::toward(&cut, PeId::new(7, 0), &RouterConfig::default());
        assert_eq!(model.remaining_hops(fu(0, 0, 0)), Some(u32::MAX));
        assert!(model.remaining(fu(0, 0, 0)).is_infinite());
        assert_eq!(model.remaining_hops(fu(7, 7, 0)), Some(6), "same half stays reachable");
    }

    #[test]
    fn bounded_route_honours_the_cancel_token() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let mut r = router(4, 4);
        let src = fu(0, 0, 0);
        let tgt = fu(3, 3, 2);
        assert!(r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(6), |_| true).is_some());
        r.set_cancel_token(Some(CancelToken::new(Arc::new(AtomicUsize::new(0)), 1)));
        let before = r.search_stats().cancelled;
        assert!(r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(6), |_| true).is_none());
        assert_eq!(r.search_stats().cancelled, before + 1);
    }

    #[test]
    fn bounded_route_respects_the_resource_filter() {
        // On a 1x3 row the middle PE is the only transit; filtering it out
        // must fail the route exactly like the plain search.
        let mut r = Router::new(
            Mrrg::new(CgraSpec::mesh(1, 3).expect("valid"), 4),
            RouterConfig::default(),
        );
        let src = fu(0, 0, 0);
        let tgt = fu(0, 2, 2);
        let open = r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(2), |_| true);
        assert!(open.is_some());
        let blocked = r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(2), |n| n.pe.y != 1);
        assert!(blocked.is_none());
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod distance_tests {
    use super::*;
    use himap_cgra::{CgraSpec, PeId};

    #[test]
    fn fu_distances_cover_reachable_slots() {
        let mut r = Router::new(Mrrg::new(CgraSpec::square(2), 2), RouterConfig::default());
        let src = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
        let costs = r.fu_distances(SignalId(1), &[src], 4);
        // The neighbour's FU one cycle later is reachable at elapsed 1.
        let east = RNode::new(PeId::new(0, 1), 1, RKind::Fu);
        assert!(costs.contains_key(&(east, 1)));
        // The far corner needs two hops: elapsed 2, never 1.
        let corner = RNode::new(PeId::new(1, 1), 0, RKind::Fu);
        assert!(costs.contains_key(&(corner, 2)));
        assert!(!costs.contains_key(&(corner, 1)));
        // Costs are monotone in congestion: occupying the east wire raises
        // the east route's cost.
        let mut congested = r.clone();
        congested
            .place(RNode::new(PeId::new(0, 0), 1, RKind::Wire(himap_cgra::Dir::East)), SignalId(9));
        let new_costs = congested.fu_distances(SignalId(1), &[src], 4);
        assert!(new_costs[&(east, 1)] > costs[&(east, 1)]);
    }

    #[test]
    fn fu_distances_respect_cap() {
        let mut r = Router::new(Mrrg::new(CgraSpec::square(3), 3), RouterConfig::default());
        let src = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
        let costs = r.fu_distances(SignalId(1), &[src], 1);
        assert!(costs.keys().all(|&(_, e)| e <= 1));
    }
}
