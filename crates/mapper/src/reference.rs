//! The legacy hash-map PathFinder router, kept verbatim as the reference
//! implementation.
//!
//! [`Router`](crate::Router) runs the same negotiation scheme on flat
//! arrays indexed by dense [`himap_cgra::RIdx`] ids. This module preserves
//! the original `HashMap<(RNode, u32), _>` search exactly as it was, for
//! two jobs:
//!
//! * **Differential testing** — proptests route random queries through both
//!   routers and require bit-identical paths, costs and elapsed counts
//!   (see `crates/mapper/tests/router_diff.rs`).
//! * **Benchmarking** — the criterion `route_timed` group measures the
//!   indexed router against this one, which is the evidence behind the CSR
//!   refactor's speedup claim.
//!
//! Nothing in the pipeline calls this router; do not "optimize" it — its
//! value is being the unchanged executable specification.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use himap_cgra::{Mrrg, RKind, RNode};

use crate::router::{Elapsed, RoutedPath, RouterConfig, SignalId};

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: RNode,
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
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| (other.node, other.elapsed).cmp(&(self.node, self.elapsed)))
    }
}

/// The original PathFinder router over the implicit MRRG, state keyed on
/// `RNode` hash maps. See the module docs for why it is kept.
#[derive(Clone, Debug)]
pub struct ReferenceRouter {
    mrrg: Mrrg,
    /// Distinct signals currently claiming each resource.
    present: HashMap<RNode, Vec<SignalId>>,
    /// Accumulated history cost per resource.
    history: HashMap<RNode, f64>,
    config: RouterConfig,
}

impl ReferenceRouter {
    /// Creates a router over an MRRG.
    pub fn new(mrrg: Mrrg, config: RouterConfig) -> Self {
        ReferenceRouter { mrrg, present: HashMap::new(), history: HashMap::new(), config }
    }

    /// The routing-resource graph.
    pub fn mrrg(&self) -> &Mrrg {
        &self.mrrg
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Cost of `signal` entering `node` under the current congestion state.
    pub fn node_cost(&self, node: RNode, signal: SignalId) -> f64 {
        let occupants = self.present.get(&node);
        if occupants.is_some_and(|o| o.contains(&signal)) {
            return self.config.same_signal_cost;
        }
        let distinct = occupants.map_or(0, |o| o.len());
        let capacity = self.mrrg.spec().capacity(node.kind);
        let over = (distinct + 1).saturating_sub(capacity);
        self.config.base_cost
            + self.history.get(&node).copied().unwrap_or(0.0)
            + over as f64 * self.config.present_factor
    }

    /// See [`Router::route`](crate::Router::route).
    pub fn route(
        &self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath> {
        self.route_filtered(signal, sources, target, intended_elapsed, |_| true)
    }

    /// See [`Router::route_filtered`](crate::Router::route_filtered).
    pub fn route_filtered(
        &self,
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

    /// See [`Router::route_constrained`](crate::Router::route_constrained).
    pub fn route_constrained(
        &self,
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
        let mut dist: HashMap<(RNode, u32), f64> = HashMap::new();
        let mut prev: HashMap<(RNode, u32), (RNode, u32)> = HashMap::new();
        let mut heap = BinaryHeap::new();
        for &src in sources {
            debug_assert!(self.mrrg.contains(src), "source {src:?} outside MRRG");
            let at_target = src == target && intended_elapsed.is_none_or(|e| e == 0);
            if at_target {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            dist.insert((src, 0), 0.0);
            heap.push(HeapEntry { cost: 0.0, node: src, elapsed: 0 });
        }
        let ii = self.mrrg.ii() as u32;
        while let Some(HeapEntry { cost, node, elapsed }) = heap.pop() {
            if dist.get(&(node, elapsed)).is_some_and(|&d| cost > d) {
                continue;
            }
            if node == target && (elapsed > 0 || !sources.contains(&node)) {
                // Popped the target: minimal cost confirmed (exact-elapsed
                // filtering happened at insertion).
                let mut nodes = vec![node];
                let mut cur = (node, elapsed);
                while let Some(&p) = prev.get(&cur) {
                    nodes.push(p.0);
                    cur = p;
                }
                nodes.reverse();
                return Some(RoutedPath { signal, nodes, elapsed, cost });
            }
            // Never expand out of a consumer FU; producer FUs (sources) were
            // seeded with elapsed 0 and get their one expansion.
            if node.kind == RKind::Fu && elapsed > 0 {
                continue;
            }
            for succ in self.mrrg.successors(node) {
                let dt = (succ.t + ii - node.t) % ii;
                let next_elapsed = elapsed + dt;
                if next_elapsed > cap {
                    continue;
                }
                // FU nodes only terminate a path; Mem nodes only start one.
                if succ.kind == RKind::Mem {
                    continue;
                }
                let is_target = succ == target;
                if succ.kind == RKind::Fu && !is_target {
                    continue;
                }
                if !is_target && !allowed(succ) {
                    continue;
                }
                if is_target {
                    if let Some(exact) = intended_elapsed {
                        if next_elapsed != exact {
                            continue;
                        }
                    }
                }
                let step = if is_target { 0.0 } else { self.node_cost(succ, signal) };
                let next_cost = cost + step;
                let key = (succ, next_elapsed);
                if dist.get(&key).is_none_or(|&d| next_cost < d) {
                    dist.insert(key, next_cost);
                    prev.insert(key, (node, elapsed));
                    heap.push(HeapEntry { cost: next_cost, node: succ, elapsed: next_elapsed });
                }
            }
        }
        None
    }

    /// See [`Router::route_timed`](crate::Router::route_timed).
    pub fn route_timed(
        &self,
        signal: SignalId,
        sources: &[(RNode, i64)],
        target: RNode,
        target_abs: i64,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        let base = sources.iter().map(|&(_, abs)| abs).min()?;
        let need = u32::try_from(target_abs - base).ok()?;
        let mut dist: HashMap<(RNode, u32), f64> = HashMap::new();
        let mut prev: HashMap<(RNode, u32), (RNode, u32)> = HashMap::new();
        let mut heap = BinaryHeap::new();
        for &(src, abs) in sources {
            if abs > target_abs {
                continue;
            }
            let offset = (abs - base) as u32;
            if src == target && offset == need {
                return Some(RoutedPath { signal, nodes: vec![src], elapsed: 0, cost: 0.0 });
            }
            let key = (src, offset);
            if dist.get(&key).is_none_or(|&d| d > 0.0) {
                dist.insert(key, 0.0);
                heap.push(HeapEntry { cost: 0.0, node: src, elapsed: offset });
            }
        }
        let ii = self.mrrg.ii() as u32;
        while let Some(HeapEntry { cost, node, elapsed }) = heap.pop() {
            if dist.get(&(node, elapsed)).is_some_and(|&d| cost > d) {
                continue;
            }
            if node == target && elapsed == need && prev.contains_key(&(node, elapsed)) {
                let mut nodes = vec![node];
                let mut cur = (node, elapsed);
                while let Some(&p) = prev.get(&cur) {
                    nodes.push(p.0);
                    cur = p;
                }
                nodes.reverse();
                let first_offset = cur.1;
                return Some(RoutedPath { signal, nodes, elapsed: need - first_offset, cost });
            }
            if node.kind == RKind::Fu && prev.contains_key(&(node, elapsed)) {
                continue; // only source FUs may expand
            }
            for succ in self.mrrg.successors(node) {
                let dt = (succ.t + ii - node.t) % ii;
                let next_elapsed = elapsed + dt;
                if next_elapsed > need || succ.kind == RKind::Mem {
                    continue;
                }
                let is_target = succ == target;
                if succ.kind == RKind::Fu && !is_target {
                    continue;
                }
                if is_target && next_elapsed != need {
                    continue;
                }
                if !is_target && !allowed(succ) {
                    continue;
                }
                let step = if is_target { 0.0 } else { self.node_cost(succ, signal) };
                let next_cost = cost + step;
                let key = (succ, next_elapsed);
                if dist.get(&key).is_none_or(|&d| next_cost < d) {
                    dist.insert(key, next_cost);
                    prev.insert(key, (node, elapsed));
                    heap.push(HeapEntry { cost: next_cost, node: succ, elapsed: next_elapsed });
                }
            }
        }
        None
    }

    /// See [`Router::add_history`](crate::Router::add_history).
    pub fn add_history(&mut self, node: RNode, amount: f64) {
        *self.history.entry(node).or_insert(0.0) += amount;
    }

    /// See [`Router::fu_distances`](crate::Router::fu_distances).
    pub fn fu_distances(
        &self,
        signal: SignalId,
        sources: &[RNode],
        cap: u32,
    ) -> HashMap<(RNode, u32), f64> {
        let mut dist: HashMap<(RNode, u32), f64> = HashMap::new();
        let mut fu_costs: HashMap<(RNode, u32), f64> = HashMap::new();
        let mut heap = BinaryHeap::new();
        for &src in sources {
            dist.insert((src, 0), 0.0);
            heap.push(HeapEntry { cost: 0.0, node: src, elapsed: 0 });
        }
        let ii = self.mrrg.ii() as u32;
        while let Some(HeapEntry { cost, node, elapsed }) = heap.pop() {
            if dist.get(&(node, elapsed)).is_some_and(|&d| cost > d) {
                continue;
            }
            if node.kind == RKind::Fu && elapsed > 0 {
                continue;
            }
            for succ in self.mrrg.successors(node) {
                let dt = (succ.t + ii - node.t) % ii;
                let next_elapsed = elapsed + dt;
                if next_elapsed > cap || succ.kind == RKind::Mem {
                    continue;
                }
                if succ.kind == RKind::Fu {
                    // Terminal: record, do not expand.
                    let key = (succ, next_elapsed);
                    if fu_costs.get(&key).is_none_or(|&d| cost < d) {
                        fu_costs.insert(key, cost);
                    }
                    continue;
                }
                let next_cost = cost + self.node_cost(succ, signal);
                let key = (succ, next_elapsed);
                if dist.get(&key).is_none_or(|&d| next_cost < d) {
                    dist.insert(key, next_cost);
                    heap.push(HeapEntry { cost: next_cost, node: succ, elapsed: next_elapsed });
                }
            }
        }
        fu_costs
    }

    /// See [`Router::route_one`](crate::Router::route_one).
    pub fn route_one(
        &self,
        signal: SignalId,
        source: RNode,
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath> {
        self.route(signal, &[source], target, intended_elapsed)
    }

    /// See [`Router::commit`](crate::Router::commit).
    pub fn commit(&mut self, path: &RoutedPath) {
        for (idx, &node) in path.nodes.iter().enumerate() {
            let endpoint = idx == 0 || idx == path.nodes.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            let occupants = self.present.entry(node).or_default();
            if !occupants.contains(&path.signal) {
                occupants.push(path.signal);
            }
        }
    }

    /// See [`Router::rip_up`](crate::Router::rip_up).
    pub fn rip_up(&mut self, path: &RoutedPath) {
        for (idx, &node) in path.nodes.iter().enumerate() {
            let endpoint = idx == 0 || idx == path.nodes.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            if let Some(occupants) = self.present.get_mut(&node) {
                occupants.retain(|&s| s != path.signal);
                if occupants.is_empty() {
                    self.present.remove(&node);
                }
            }
        }
    }

    /// See [`Router::place`](crate::Router::place).
    pub fn place(&mut self, node: RNode, signal: SignalId) {
        let occupants = self.present.entry(node).or_default();
        if !occupants.contains(&signal) {
            occupants.push(signal);
        }
    }

    /// See [`Router::unplace`](crate::Router::unplace).
    pub fn unplace(&mut self, node: RNode, signal: SignalId) {
        if let Some(occupants) = self.present.get_mut(&node) {
            occupants.retain(|&s| s != signal);
            if occupants.is_empty() {
                self.present.remove(&node);
            }
        }
    }

    /// See [`Router::occupants`](crate::Router::occupants).
    pub fn occupants(&self, node: RNode) -> &[SignalId] {
        self.present.get(&node).map_or(&[], |v| v.as_slice())
    }

    /// See [`Router::oversubscribed`](crate::Router::oversubscribed).
    pub fn oversubscribed(&self) -> Vec<RNode> {
        let mut out: Vec<RNode> = self
            .present
            .iter()
            .filter(|(node, occupants)| occupants.len() > self.mrrg.spec().capacity(node.kind))
            .map(|(&node, _)| node)
            .collect();
        out.sort();
        out
    }

    /// See [`Router::bump_history`](crate::Router::bump_history).
    pub fn bump_history(&mut self) -> usize {
        let over = self.oversubscribed();
        for &node in &over {
            let occupants = self.present[&node].len();
            let excess = occupants - self.mrrg.spec().capacity(node.kind);
            *self.history.entry(node).or_insert(0.0) +=
                self.config.history_increment * excess as f64;
        }
        over.len()
    }

    /// See [`Router::clear_present`](crate::Router::clear_present).
    pub fn clear_present(&mut self) {
        self.present.clear();
    }

    /// See [`Router::reset`](crate::Router::reset).
    pub fn reset(&mut self) {
        self.present.clear();
        self.history.clear();
    }
}
