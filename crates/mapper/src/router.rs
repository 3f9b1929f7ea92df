//! The negotiated-congestion router.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
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

/// Cooperative cancellation handle polled inside the Dijkstra pop loop.
///
/// A token fires once the wall clock reaches its deadline
/// ([`CancelToken::until`]); [`CancelToken::never`] never fires. HiMap's
/// walk arms its router with the `map` call's deadline, so routing stops
/// within a few heap pops of the budget running out.
#[derive(Clone, Debug)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that cancels once the wall clock reaches `deadline`.
    pub fn until(deadline: Instant) -> Self {
        CancelToken { deadline: Some(deadline) }
    }

    /// A token that never cancels.
    pub fn never() -> Self {
        CancelToken { deadline: None }
    }

    /// Whether the deadline (if any) has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Pop-count mask between cancellation polls: the token is checked every 64
/// pops, keeping the poll overhead immeasurable against the relaxation work
/// while bounding the post-cancel overshoot to a few microseconds.
const CANCEL_POLL_MASK: u64 = 63;

/// Whether the search loop should abort: polled on pop counts matching
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

/// Entry of the search heap, ordered by its priority `f`: the cost so far
/// plus the hop bound's estimate of the cost still to pay (zero without a
/// bound, which makes `f` the plain Dijkstra cost). The cost so far itself
/// is read back from the scratch `dist` array, which keeps entries at 16
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    f: f64,
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
        // identical tie-breaking to the hash-map reference router.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| (other.idx, other.elapsed).cmp(&(self.idx, self.elapsed)))
    }
}

/// Sentinel for "no predecessor" in the packed `prev` array.
const NO_PREV: u32 = u32::MAX;

/// Epoch-stamped Dijkstra state reused across searches.
///
/// A search over states `(node, elapsed ≤ cap)` addresses flat arrays at
/// `node_id * (cap + 1) + elapsed`. Entries are valid only when their stamp
/// equals the current epoch, so starting a search is one integer increment
/// — no clearing, no hashing, no allocation once the arrays have grown to
/// the router's largest search so far. Growth allocates the arrays zeroed
/// rather than writing them, so the OS maps a page only when a search
/// first touches it: resident memory is the states searches actually
/// visit, not `nodes × (cap + 1)` of the full fabric.
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
            // Zeroed allocations, not writes: untouched pages stay unmapped.
            // A zero stamp is never the current epoch, and `dist`/`prev` are
            // read only once `stamp` matches it, after `set` has written all
            // three — so their initial value is never observed.
            self.stamp = vec![0; want];
            self.dist = vec![0.0; want];
            self.prev = vec![0; want];
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
/// congestion state. Free function so the search loop can price successors
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
struct HopBoundCost {
    cols: usize,
    /// Hops from each PE to the target over the live mesh, row-major;
    /// `u32::MAX` marks PEs that cannot reach it at all.
    hops: Vec<u32>,
    min_step: f64,
}

impl HopBoundCost {
    /// Builds the backward hop-distance table toward `target`.
    fn toward(spec: &CgraSpec, target: PeId, config: &RouterConfig) -> Self {
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

    /// Lower bounds on the mesh hops and on the cost still needed from
    /// `node` to the target; `None` if `node` cannot reach it at all.
    ///
    /// A wire node's own crossing is already priced and counted in its
    /// elapsed by the time the search holds it, so only `hops - 1` further
    /// hops are certain; using that uniformly keeps both bounds admissible
    /// for every resource kind (the final hop into the target is free).
    #[inline]
    fn remaining(&self, node: RNode) -> Option<(u32, f64)> {
        match self.hops[node.pe.x as usize * self.cols + node.pe.y as usize] {
            u32::MAX => None,
            h => {
                let left = h.saturating_sub(1);
                Some((left, left as f64 * self.min_step))
            }
        }
    }
}

/// Where a search ends.
enum Sink<'a> {
    /// One target resource, reached at exactly the given elapsed count
    /// (counted from the search's time origin) or, with `None`, at any
    /// count within the cap.
    Target { node: RNode, exact: Option<u32> },
    /// Every FU slot: the search records the cheapest delivery cost per
    /// `(fu, elapsed)` and runs until the heap is empty.
    EveryFu(&'a mut HashMap<(RNode, u32), f64>),
}

impl Elapsed {
    /// The search cap and the exact elapsed count the target must meet.
    fn cap_and_exact(self) -> (u32, Option<u32>) {
        match self {
            Elapsed::Exact(e) => (e, Some(e)),
            Elapsed::AtMost(m) => (m, None),
        }
    }
}

/// PathFinder router over a dense-indexed MRRG.
///
/// All search and congestion state lives in flat arrays keyed by
/// [`RIdx`] — `present`/`history` are dense vectors and the Dijkstra
/// `dist`/`prev` arrays are epoch-stamped scratch reused across searches,
/// so the hot path neither hashes nor allocates. Every entry point runs the
/// same search loop. Its search order, tie-breaking and results are
/// bit-identical to the original hash-map router, which the crate's
/// differential tests keep as an oracle.
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
    /// Armed by the caller with its deadline; `None`
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

    /// Points the router at another index and clears its congestion state
    /// to a freshly built router's, keeping the search scratch's allocation
    /// (its stamps are epoch-checked, so no entry of the old index is ever
    /// read). A walk that routes many windows of one II keeps one scratch
    /// instead of allocating, zeroing and freeing one per window.
    pub fn rebind(&mut self, index: Arc<MrrgIndex>) {
        let n = index.len();
        self.index = index;
        self.present.resize_with(n, Vec::new);
        self.history.resize(n, 0.0);
        self.reset();
    }

    /// Arms (or disarms, with `None`) cooperative cancellation: the search
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
    /// `target` within the elapsed-cycle `constraint`, through resources for
    /// which `allowed` returns `true` (sources and the target are always
    /// allowed).
    ///
    /// The search never routes *through* FU or memory resources: an
    /// [`RKind::Fu`] node may only start (the producer) or end (the
    /// consumer) a path, an [`RKind::Mem`] node may only start one. The
    /// target FU itself costs nothing — its legality is the placer's job.
    /// HiMap uses the filter to confine routes to the bounding box of the
    /// producing and consuming sub-CGRAs, so that replicating a route
    /// pattern across the array can never push it out of bounds.
    ///
    /// Returns `None` if no route exists within the budget.
    pub fn route(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let (cap, exact) = constraint.cap_and_exact();
        let sink = Sink::Target { node: target, exact };
        self.search(signal, sources.iter().map(|&s| (s, 0)), sink, cap, None, allowed)
    }

    /// Long-haul routing: [`Router::route`] upgraded to an A*-bounded
    /// search.
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
        let bound = HopBoundCost::toward(self.index.mrrg().spec(), target.pe, &self.config);
        let (cap, exact) = constraint.cap_and_exact();
        let sink = Sink::Target { node: target, exact };
        self.search(signal, sources.iter().map(|&s| (s, 0)), sink, cap, Some(&bound), allowed)
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
        let seeds = sources
            .iter()
            .filter(|&&(_, abs)| abs <= target_abs)
            .map(|&(src, abs)| (src, (abs - base) as u32));
        let sink = Sink::Target { node: target, exact: Some(need) };
        self.search(signal, seeds, sink, need, None, allowed)
    }

    /// Single-source-set Dijkstra over the whole MRRG: the negotiated cost
    /// of delivering `signal` from `sources` to every FU slot, keyed by
    /// `(fu_node, elapsed)` for every elapsed cycle count up to `cap`.
    ///
    /// Whole-DFG placers use this to evaluate all candidate slots of an
    /// operation with one search per parent instead of one per candidate.
    /// A cancelled search returns the partial (possibly empty) map; callers
    /// that arm a token treat any result of a cancelled candidate as
    /// discardable.
    pub fn fu_distances(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        cap: u32,
    ) -> HashMap<(RNode, u32), f64> {
        let mut fu_costs = HashMap::new();
        let sink = Sink::EveryFu(&mut fu_costs);
        self.search(signal, sources.iter().map(|&s| (s, 0)), sink, cap, None, |_| true);
        fu_costs
    }

    /// The one search loop behind every entry point: Dijkstra over states
    /// `(resource, elapsed ≤ cap)` from `seeds` — `(source, elapsed
    /// offset)` pairs — into `sink`, turned into A* by a hop `bound`.
    ///
    /// Only seeds expand out of an FU, so a consumer FU ends its path, and
    /// a popped target is accepted only if it is not itself a seed. The
    /// returned elapsed count is measured from the seed the path starts at.
    fn search(
        &mut self,
        signal: SignalId,
        seeds: impl IntoIterator<Item = (RNode, u32)>,
        mut sink: Sink<'_>,
        cap: u32,
        bound: Option<&HopBoundCost>,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let Router { index, present, history, config, scratch, stats, cancel } = self;
        scratch.begin(index.len(), cap as usize + 1, stats);
        stats.searches += 1;
        // A search that starts already cancelled is refused outright — the
        // in-loop poll only fires every CANCEL_POLL_MASK + 1 pops.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            stats.cancelled += 1;
            return None;
        }
        let (target, exact) = match sink {
            Sink::Target { node, exact } => (Some(node), exact),
            Sink::EveryFu(_) => (None, None),
        };
        let tgt = target.and_then(|t| index.index_of(t)).map_or(NO_PREV, |i| i.0);
        // Remaining-cost estimate of a node the bound has not ruled out.
        let estimate = |node: RNode| bound.and_then(|b| b.remaining(node)).map_or(0.0, |r| r.1);
        for (src, offset) in seeds {
            if Some(src) == target && exact.is_none_or(|e| e == offset) {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            let Some(si) = index.index_of(src) else {
                debug_assert!(false, "source {src:?} outside MRRG");
                continue;
            };
            if bound.is_some_and(|b| b.remaining(src).is_none()) {
                continue; // the sweep proved this source cannot reach the target
            }
            let key = scratch.key(si.0, offset);
            if scratch.get(key).is_none_or(|d| d > 0.0) {
                scratch.set(key, 0.0, NO_PREV);
                scratch.heap.push(HeapEntry { f: estimate(src), idx: si.0, elapsed: offset });
                stats.heap_pushes += 1;
            }
        }
        // At II = 1 every clocked hop wraps back to t = 0, so the reference
        // elapsed arithmetic (t deltas mod II) advances by 0, not by the
        // architectural latency — and the hop prune, which assumes every
        // mesh hop takes a cycle, is unsound.
        let ii_one = index.ii() == 1;
        while let Some(HeapEntry { f, idx, elapsed }) = scratch.heap.pop() {
            stats.nodes_popped += 1;
            // A cancelled search falls out of the loop: the caller's
            // budget is spent, so "no route" is as good an answer as any
            // and arrives immediately.
            if cancel_poll(cancel, stats) {
                break;
            }
            let key = scratch.key(idx, elapsed);
            let node = index.node(RIdx(idx));
            // Stale if the state was reached more cheaply after this push.
            // The estimate is recomputed from the same table, so a live
            // entry compares equal to its own `f`; without a bound this is
            // the plain Dijkstra check.
            let g = scratch.dist[key];
            if f > g + estimate(node) {
                continue;
            }
            let is_seed = scratch.prev[key] == NO_PREV;
            if idx == tgt && !is_seed {
                // Popped the target: minimal cost confirmed (exact-elapsed
                // filtering happened at insertion).
                let mut nodes = vec![node];
                let seed = scratch.reconstruct(index, key, &mut nodes);
                let offset = (seed % scratch.stride) as u32;
                return Some(RoutedPath { signal, nodes, elapsed: elapsed - offset, cost: g });
            }
            if node.kind == RKind::Fu && !is_seed {
                continue;
            }
            for (succ, lat) in index.successors(RIdx(idx)) {
                let next_elapsed = elapsed + if ii_one { 0 } else { lat };
                if next_elapsed > cap {
                    continue;
                }
                let succ_node = index.node(succ);
                // FU nodes only terminate a path; Mem nodes only start one.
                if succ_node.kind == RKind::Mem {
                    continue;
                }
                let (step, h) = if succ.0 == tgt {
                    if exact.is_some_and(|e| next_elapsed != e) {
                        continue;
                    }
                    (0.0, 0.0)
                } else if succ_node.kind == RKind::Fu {
                    if let Sink::EveryFu(fu_costs) = &mut sink {
                        // Terminal: record, do not expand.
                        let fu_key = (succ_node, next_elapsed);
                        if fu_costs.get(&fu_key).is_none_or(|&d| g < d) {
                            fu_costs.insert(fu_key, g);
                        }
                    }
                    continue;
                } else {
                    if !allowed(succ_node) {
                        continue;
                    }
                    let h = match bound {
                        None => 0.0,
                        Some(b) => {
                            let Some((hops, h)) = b.remaining(succ_node) else { continue };
                            // Too few cycles left to cover the remaining hops.
                            if !ii_one && hops as u64 + next_elapsed as u64 > cap as u64 {
                                continue;
                            }
                            h
                        }
                    };
                    (cost_dense(index, present, history, config, succ.0, signal), h)
                };
                let next_cost = g + step;
                let succ_key = scratch.key(succ.0, next_elapsed);
                if scratch.get(succ_key).is_none_or(|d| next_cost < d) {
                    scratch.set(succ_key, next_cost, key as u32);
                    scratch.heap.push(HeapEntry {
                        f: next_cost + h,
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
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::Exact(1), |_| true).unwrap();
        assert_eq!(p.elapsed, 1);
        // Fu -> Wire(E) -> Fu.
        assert_eq!(p.nodes.len(), 3);
        assert!(matches!(p.nodes[1].kind, RKind::Wire(_)));
        assert_eq!(p.delivery(), p.nodes[1]);
    }

    #[test]
    fn same_pe_next_cycle_uses_out_reg() {
        let mut r = router(1, 4);
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 0, 1), Elapsed::Exact(1), |_| true).unwrap();
        assert_eq!(p.elapsed, 1);
        assert_eq!(p.nodes[1].kind, RKind::Out);
    }

    #[test]
    fn elapsed_budget_is_exact() {
        let mut r = router(2, 4);
        // Two hops in exactly 3 cycles: one cycle of waiting somewhere.
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 3), Elapsed::Exact(3), |_| true).unwrap();
        assert_eq!(p.elapsed, 3);
        // Impossible: two hops cannot fit one cycle.
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 1), Elapsed::Exact(1), |_| true)
            .is_none());
    }

    #[test]
    fn modulo_wraparound_with_exact_elapsed() {
        // Target at t=0 via wrap: elapsed 2 from t=3 in a 4-cycle window.
        let mut r = router(2, 4);
        let p =
            r.route(SignalId(1), &[fu(0, 0, 3)], fu(0, 1, 1), Elapsed::Exact(2), |_| true).unwrap();
        assert_eq!(p.elapsed, 2);
        // The same endpoints with elapsed 2 + 4 (one extra window) would
        // deliver a different iteration's value: the exact budget forbids it.
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 3)], fu(0, 1, 1), Elapsed::Exact(6), |_| true)
            .is_some());
    }

    #[test]
    fn congestion_diverts_routes() {
        let mut r = router(3, 2);
        // Occupy the direct east wire from (0,0) at both cycles.
        let sig_a = SignalId(7);
        let wire = RNode::new(PeId::new(0, 0), 1, RKind::Wire(himap_cgra::Dir::East));
        r.place(wire, sig_a);
        let p = r
            .route(SignalId(8), &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::Exact(1), |_| true)
            .expect("route exists");
        // The only 1-cycle path uses that wire, so the router pays the
        // congestion penalty rather than failing.
        assert!(p.cost > r.config().base_cost * 2.0);
        assert!(p.nodes.contains(&wire));
    }

    #[test]
    fn same_signal_shares_resources_cheaply() {
        let mut r = router(2, 3);
        let sig = SignalId(3);
        let p1 = r.route(sig, &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::Exact(1), |_| true).unwrap();
        r.commit(&p1);
        // Fan-out of the same signal to another consumer reuses the wire at
        // near-zero cost.
        let p2 = r.route(sig, &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::Exact(1), |_| true).unwrap();
        assert!(p2.cost <= r.config().same_signal_cost * 4.0);
    }

    #[test]
    fn commit_rip_up_roundtrip() {
        let mut r = router(2, 3);
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(1, 0, 1), Elapsed::Exact(1), |_| true).unwrap();
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
        let p = r.route(SignalId(1), &[mem], fu(0, 0, 0), Elapsed::Exact(0), |_| true).unwrap();
        assert_eq!(p.nodes, vec![mem, fu(0, 0, 0)]);
        // A route may not pass through an intermediate FU: the only way to
        // gain time without moving is Out/Reg, never another FU.
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 2), Elapsed::Exact(2), |_| true).unwrap();
        for node in &p.nodes[1..p.nodes.len() - 1] {
            assert_ne!(node.kind, RKind::Fu, "transit through FU in {:?}", p.nodes);
        }
    }

    #[test]
    fn multi_source_picks_cheapest() {
        let mut r = router(3, 3);
        let sources = [fu(0, 0, 0), fu(2, 2, 0)];
        let p = r.route(SignalId(1), &sources, fu(2, 1, 1), Elapsed::Exact(1), |_| true).unwrap();
        assert_eq!(p.nodes[0], fu(2, 2, 0), "nearer source wins");
    }

    #[test]
    fn source_equals_target() {
        let mut r = router(2, 2);
        let p =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 0, 0), Elapsed::Exact(0), |_| true).unwrap();
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
        let forced =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::Exact(1), |_| true).unwrap();
        assert!(forced.nodes.contains(&wire));
        assert!(forced.cost.is_nan());
        // Three cycles admit a detour around the poisoned wire; it must win
        // with a finite cost.
        let detour =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 1, 3), Elapsed::Exact(3), |_| true).unwrap();
        assert!(!detour.nodes.contains(&wire), "detour must avoid NaN wire");
        assert!(detour.cost.is_finite());
    }

    #[test]
    fn cancelled_token_aborts_search_and_counts() {
        let mut r = router(3, 4);
        // The route exists without cancellation…
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(2, 2, 3), Elapsed::Exact(7), |_| true)
            .is_some());
        // …but an already-expired deadline aborts the identical search
        // before it reaches the target, counting the abort.
        r.set_cancel_token(Some(CancelToken::until(Instant::now())));
        let before = r.search_stats().cancelled;
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(2, 2, 3), Elapsed::Exact(7), |_| true)
            .is_none());
        assert_eq!(r.search_stats().cancelled, before + 1);
        // A token that has not fired leaves routing enabled.
        r.set_cancel_token(Some(CancelToken::never()));
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(2, 2, 3), Elapsed::Exact(7), |_| true)
            .is_some());
        assert_eq!(r.search_stats().cancelled, before + 1, "live search not counted");
        // Disarming removes the poll entirely.
        r.set_cancel_token(None);
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(2, 2, 3), Elapsed::Exact(7), |_| true)
            .is_some());
    }

    #[test]
    fn never_token_never_cancels() {
        let token = CancelToken::never();
        assert!(!token.is_cancelled());
        let mut r = router(2, 4);
        r.set_cancel_token(Some(token));
        assert!(r
            .route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 2), Elapsed::Exact(2), |_| true)
            .is_some());
        assert_eq!(r.search_stats().cancelled, 0);
    }

    #[test]
    fn cancelled_timed_route_aborts() {
        let mut r = router(3, 4);
        let src = [(fu(0, 0, 0), 0i64)];
        assert!(r.route_timed(SignalId(2), &src, fu(2, 2, 3), 7, |_| true).is_some());
        r.set_cancel_token(Some(CancelToken::until(Instant::now())));
        assert!(r.route_timed(SignalId(2), &src, fu(2, 2, 3), 7, |_| true).is_none());
        assert_eq!(r.search_stats().cancelled, 1);
    }

    #[test]
    fn search_stats_accumulate_and_scratch_is_reused() {
        let mut r = router(2, 4);
        assert_eq!(r.search_stats(), RouterStats::default());
        let _ = r.route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 2), Elapsed::Exact(2), |_| true);
        let first = r.search_stats();
        assert_eq!(first.searches, 1);
        assert!(first.nodes_popped > 0 && first.heap_pushes > 0);
        assert_eq!(first.epoch_resets, 1, "first search allocates the scratch");
        // Same-sized second search must reuse the arrays: no new reset.
        let _ = r.route(SignalId(2), &[fu(0, 0, 0)], fu(1, 1, 2), Elapsed::Exact(2), |_| true);
        let second = r.search_stats();
        assert_eq!(second.searches, 2);
        assert_eq!(second.epoch_resets, 1, "epoch bump must not clear");
        let taken = r.take_search_stats();
        assert_eq!(taken, second);
        assert_eq!(r.search_stats(), RouterStats::default());
    }

    #[test]
    fn search_counters_are_pinned_per_mode() {
        // One fixed query per search mode on a lightly congested 4x4. The
        // counters pin the visit order: a change to seeding, staleness or
        // acceptance that leaves results intact still moves them.
        let mut r = router(4, 4);
        r.place(RNode::new(PeId::new(1, 1), 1, RKind::Wire(himap_cgra::Dir::East)), SignalId(50));
        r.add_history(RNode::new(PeId::new(2, 1), 2, RKind::Out), 1.5);
        let src = fu(0, 0, 0);
        let reg = RNode::new(PeId::new(1, 0), 2, RKind::Reg(0));
        let found = |p: Option<RoutedPath>| p.map(|p| (p.elapsed, p.cost));
        let exact = found(r.route(SignalId(1), &[src], fu(3, 3, 2), Elapsed::Exact(6), |_| true));
        let exact_stats = r.take_search_stats();
        let at_most =
            found(r.route(SignalId(1), &[src], fu(2, 1, 1), Elapsed::AtMost(9), |_| true));
        let at_most_stats = r.take_search_stats();
        let timed =
            found(r.route_timed(SignalId(2), &[(src, 0), (reg, 2)], fu(3, 2, 3), 7, |_| true));
        let timed_stats = r.take_search_stats();
        let bounded =
            found(r.route_bounded(SignalId(3), &[src], fu(3, 3, 2), Elapsed::Exact(6), |_| true));
        let bounded_stats = r.take_search_stats();
        let d = r.fu_distances(SignalId(4), &[fu(1, 1, 0)], 3);
        let fu_stats = r.take_search_stats();
        let runs = [
            ("exact", exact, exact_stats, (6, 6.0, 351, 425)),
            ("at-most", at_most, at_most_stats, (5, 5.0, 206, 331)),
            ("timed", timed, timed_stats, (5, 6.0, 463, 559)),
            ("bounded", bounded, bounded_stats, (6, 6.0, 110, 134)),
            (
                "fu_distances",
                Some((d.len() as u32, d.values().sum())),
                fu_stats,
                (31, 88.0, 164, 164),
            ),
        ];
        for (mode, result, s, (elapsed, cost, popped, pushed)) in runs {
            assert_eq!(result, Some((elapsed, cost)), "{mode}: result");
            assert_eq!((s.searches, s.nodes_popped, s.heap_pushes), (1, popped, pushed), "{mode}");
        }
    }

    #[test]
    fn rebound_router_searches_like_a_fresh_one() {
        // Dirty a full-fabric router, then point it at a 2x2 window: it
        // must route exactly as a router built on that window.
        let mut r = router(4, 4);
        let p = r.route(SignalId(5), &[fu(0, 0, 0)], fu(3, 3, 2), Elapsed::Exact(6), |_| true);
        r.commit(&p.unwrap());
        r.add_history(RNode::new(PeId::new(0, 0), 1, RKind::Out), 4.0);
        let pes = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(x, y)| PeId::new(x, y));
        let window = Arc::new(MrrgIndex::window(CgraSpec::square(4), 4, pes));
        r.rebind(Arc::clone(&window));
        r.take_search_stats();
        let mut fresh = Router::with_index(window, RouterConfig::default());
        let search = |r: &mut Router| {
            let p = r.route(SignalId(1), &[fu(0, 0, 0)], fu(1, 1, 3), Elapsed::Exact(3), |_| true);
            let stats = r.take_search_stats();
            (p.map(|p| (p.nodes, p.cost)), stats.nodes_popped, stats.heap_pushes)
        };
        let (rebound, fresh) = (search(&mut r), search(&mut fresh));
        assert!(rebound.0.is_some());
        assert_eq!(rebound, fresh);
        assert!(r.oversubscribed().is_empty());
    }

    #[test]
    fn heap_entries_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 16);
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
        let exact = r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 1, 3), Elapsed::Exact(3), |_| true);
        assert_eq!(exact.expect("routable").elapsed, 3);
        let at_most =
            r.route(SignalId(1), &[fu(0, 0, 0)], fu(0, 1, 1), Elapsed::AtMost(3), |_| true);
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
        let p = r
            .route(SignalId(90), &[fu(0, 0, 0)], fu(0, 3, t), Elapsed::Exact(3), |_| true)
            .unwrap();
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
                    let plain = r.route(SignalId(7), &[src], tgt, budget, |_| true);
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
    fn bounded_search_pops_fewer_nodes_on_long_hauls() {
        let mut r = router(8, 4);
        let src = fu(0, 0, 0);
        let tgt = fu(7, 7, 2);
        let _ = r.route(SignalId(1), &[src], tgt, Elapsed::Exact(14), |_| true);
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
        assert_eq!(model.remaining(fu(0, 0, 0)), Some((20, 20.0 * 0.01)));
        faults.kill_pe(PeId::new(3, 7));
        let cut = CgraSpec::mesh(8, 8).expect("valid").with_faults(faults);
        let model = HopBoundCost::toward(&cut, PeId::new(7, 0), &RouterConfig::default());
        assert_eq!(model.remaining(fu(0, 0, 0)), None);
        assert_eq!(model.remaining(fu(7, 7, 0)).map(|r| r.0), Some(6), "same half stays reachable");
    }

    #[test]
    fn bounded_route_honours_the_cancel_token() {
        let mut r = router(4, 4);
        let src = fu(0, 0, 0);
        let tgt = fu(3, 3, 2);
        assert!(r.route_bounded(SignalId(1), &[src], tgt, Elapsed::Exact(6), |_| true).is_some());
        r.set_cancel_token(Some(CancelToken::until(Instant::now())));
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
