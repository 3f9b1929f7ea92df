//! Differential tests pinning the flat-array router to the HashMap
//! reference implementation.
//!
//! `Router` (dense `RIdx`-indexed state over the shared `MrrgIndex`) and
//! `ReferenceRouter` (the original per-call HashMap implementation) must be
//! *bit-identical*: same path nodes, same elapsed counts, and the same cost
//! down to the floating-point bit pattern, under congestion, history and
//! rip-up alike. Any divergence means the dense refactor changed routing
//! behavior rather than just its speed. The A*-bounded search may visit
//! states in another order, so it must only match the oracle's feasibility,
//! elapsed count and optimal cost.

#![allow(clippy::unwrap_used, clippy::expect_used)]

// The oracle keeps the whole original router surface, not just the calls
// these tests make.
#[allow(dead_code)]
mod reference;
#[path = "../../cgra/tests/support/mod.rs"]
mod support;

use himap_cgra::{CgraSpec, Mrrg, PeId, RKind, RNode};
use himap_mapper::{Elapsed, RoutedPath, Router, RouterConfig, SignalId};
use proptest::prelude::*;
use reference::ReferenceRouter;
use support::arb_faulted;

/// The reference router's call shapes, spelled with [`Router::route`], so
/// each parity test drives both routers through identical calls.
trait ReferenceCalls {
    fn route_one(
        &mut self,
        signal: SignalId,
        source: RNode,
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath>;

    fn route_constrained(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath>;
}

impl ReferenceCalls for Router {
    fn route_one(
        &mut self,
        signal: SignalId,
        source: RNode,
        target: RNode,
        intended_elapsed: Option<u32>,
    ) -> Option<RoutedPath> {
        let constraint = match intended_elapsed {
            Some(e) => Elapsed::Exact(e),
            None => Elapsed::AtMost(self.config().default_elapsed_cap),
        };
        self.route(signal, &[source], target, constraint, |_| true)
    }

    fn route_constrained(
        &mut self,
        signal: SignalId,
        sources: &[RNode],
        target: RNode,
        constraint: Elapsed,
        allowed: impl Fn(RNode) -> bool,
    ) -> Option<RoutedPath> {
        self.route(signal, sources, target, constraint, allowed)
    }
}

/// Everything observable about a routing answer, with the cost as raw bits
/// so `assert_eq` is exact (NaN included).
fn fingerprint(p: &Option<RoutedPath>) -> Option<(Vec<RNode>, u32, u64)> {
    p.as_ref().map(|p| (p.nodes.clone(), p.elapsed, p.cost.to_bits()))
}

fn pair(rows: usize, cols: usize, ii: usize) -> (Router, ReferenceRouter) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
    let dense = Router::new(Mrrg::new(spec.clone(), ii), RouterConfig::default());
    let legacy = ReferenceRouter::new(Mrrg::new(spec, ii), RouterConfig::default());
    (dense, legacy)
}

fn fu(x: usize, y: usize, t: usize, ii: usize) -> RNode {
    RNode::new(PeId::new(x, y), (t % ii) as u32, RKind::Fu)
}

fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..4, 1usize..4, 1usize..5)
}

proptest! {
    #[test]
    fn route_one_parity_on_clean_state(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        dx in 0usize..4, dy in 0usize..4,
        elapsed in 0u32..8,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
        let a = dense.route_one(SignalId(0), src, dst, Some(elapsed));
        let b = legacy.route_one(SignalId(0), src, dst, Some(elapsed));
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn route_constrained_at_most_parity(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        dx in 0usize..4, dy in 0usize..4,
        cap in 0u32..10,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let dst = fu(dx % rows, dy % cols, 1, ii);
        let a = dense.route_constrained(SignalId(3), &[src], dst, Elapsed::AtMost(cap), |_| true);
        let b = legacy.route_constrained(SignalId(3), &[src], dst, Elapsed::AtMost(cap), |_| true);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn congested_negotiation_parity(
        (rows, cols, ii) in arb_dims(),
        queries in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..4, 0usize..4, 1u32..6), 0..10),
    ) {
        // Replay one negotiation round on both routers: route, commit,
        // penalize, and re-route — every observable must stay identical.
        let (mut dense, mut legacy) = pair(rows, cols, ii);
        for (i, &(sx, sy, dx, dy, elapsed)) in queries.iter().enumerate() {
            let src = fu(sx % rows, sy % cols, 0, ii);
            let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
            let signal = SignalId(i as u32);
            let a = dense.route_one(signal, src, dst, Some(elapsed));
            let b = legacy.route_one(signal, src, dst, Some(elapsed));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "query {}", i);
            if let (Some(pa), Some(pb)) = (a, b) {
                dense.commit(&pa);
                legacy.commit(&pb);
            }
        }
        prop_assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
        prop_assert_eq!(dense.bump_history(), legacy.bump_history());
        // After history penalties the searches must still agree.
        dense.clear_present();
        legacy.clear_present();
        if let Some(&(sx, sy, dx, dy, elapsed)) = queries.first() {
            let src = fu(sx % rows, sy % cols, 0, ii);
            let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
            let a = dense.route_one(SignalId(99), src, dst, Some(elapsed));
            let b = legacy.route_one(SignalId(99), src, dst, Some(elapsed));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        }
    }

    #[test]
    fn route_timed_parity(
        (rows, cols, ii) in arb_dims(),
        dx in 0usize..4, dy in 0usize..4,
        target_abs in 1i64..8,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let sources = [(fu(0, 0, 0, ii), 0i64)];
        let dst = fu(dx % rows, dy % cols, target_abs as usize, ii);
        let a = dense.route_timed(SignalId(7), &sources, dst, target_abs, |_| true);
        let b = legacy.route_timed(SignalId(7), &sources, dst, target_abs, |_| true);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fu_distances_parity(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        cap in 1u32..7,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let norm = |m: std::collections::HashMap<(RNode, u32), f64>| {
            let mut v: Vec<((RNode, u32), u64)> =
                m.into_iter().map(|(k, c)| (k, c.to_bits())).collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        };
        let a = norm(dense.fu_distances(SignalId(1), &[src], cap));
        let b = norm(legacy.fu_distances(SignalId(1), &[src], cap));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn route_bounded_matches_the_oracle_on_faulted_fabrics(
        (rows, cols, ii, faults) in arb_faulted(),
        congestion in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..4, 0usize..4, 1u32..6), 0..6),
        queries in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0u32..12, any::<bool>()), 1..6),
    ) {
        let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh").with_faults(faults);
        let mrrg = Mrrg::new(spec, ii);
        let mut dense = Router::new(mrrg.clone(), RouterConfig::default());
        let mut oracle = ReferenceRouter::new(mrrg.clone(), RouterConfig::default());
        let endpoints = |sx: usize, sy: usize, dx: usize, dy: usize, elapsed: u32| {
            let src = fu(sx % rows, sy % cols, 0, ii);
            let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
            // Dead PEs have no FU slots to route between.
            (mrrg.contains(src) && mrrg.contains(dst)).then_some((src, dst))
        };
        // Congest both routers identically: committed routes plus one
        // round of history penalties.
        for (i, &(sx, sy, dx, dy, elapsed)) in congestion.iter().enumerate() {
            let Some((src, dst)) = endpoints(sx, sy, dx, dy, elapsed) else { continue };
            let signal = SignalId(100 + i as u32);
            let a = dense.route(signal, &[src], dst, Elapsed::Exact(elapsed), |_| true);
            let b = oracle.route_one(signal, src, dst, Some(elapsed));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "congesting route {}", i);
            if let (Some(pa), Some(pb)) = (a, b) {
                dense.commit(&pa);
                oracle.commit(&pb);
            }
        }
        prop_assert_eq!(dense.bump_history(), oracle.bump_history());
        for &(sx, sy, dx, dy, budget, exact) in &queries {
            let Some((src, dst)) = endpoints(sx, sy, dx, dy, budget) else { continue };
            let constraint = if exact { Elapsed::Exact(budget) } else { Elapsed::AtMost(budget) };
            let a = dense.route_bounded(SignalId(7), &[src], dst, constraint, |_| true);
            let b = oracle.route_constrained(SignalId(7), &[src], dst, constraint, |_| true);
            match (&a, &b) {
                (Some(pa), Some(pb)) => {
                    prop_assert_eq!(pa.elapsed, pb.elapsed, "{:?} -> {:?} {:?}", src, dst, constraint);
                    prop_assert!(
                        (pa.cost - pb.cost).abs() < 1e-9,
                        "cost {} vs {} for {:?} -> {:?} {:?}", pa.cost, pb.cost, src, dst, constraint
                    );
                }
                (None, None) => {}
                _ => prop_assert!(false, "feasibility mismatch {:?} -> {:?} {:?}: {:?} vs {:?}",
                    src, dst, constraint, fingerprint(&a), fingerprint(&b)),
            }
        }
    }
}

/// A dense integration-style sweep: many committed routes on one router
/// pair, with a rip-up in the middle. Covers the scratch-reuse path (every
/// query after the first reuses the epoch-stamped arrays).
#[test]
fn committed_sweep_with_rip_up_stays_identical() {
    let (mut dense, mut legacy) = pair(4, 4, 2);
    let mut committed: Vec<(RoutedPath, RoutedPath)> = Vec::new();
    let mut signal = 0u32;
    for sx in 0..4 {
        for dy in 0..4 {
            let src = fu(sx, 0, 0, 2);
            let dst = fu(3 - sx, dy, 3, 2);
            let a = dense.route_one(SignalId(signal), src, dst, Some(3));
            let b = legacy.route_one(SignalId(signal), src, dst, Some(3));
            assert_eq!(fingerprint(&a), fingerprint(&b), "query s{sx} d{dy}");
            if let (Some(pa), Some(pb)) = (a, b) {
                dense.commit(&pa);
                legacy.commit(&pb);
                committed.push((pa, pb));
            }
            signal += 1;
        }
    }
    assert!(!committed.is_empty(), "the sweep must route something");
    assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
    // Rip up every other committed path and verify occupancy agreement at
    // every node either path visited.
    for (i, (pa, pb)) in committed.iter().enumerate() {
        if i % 2 == 0 {
            dense.rip_up(pa);
            legacy.rip_up(pb);
        }
    }
    assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
    for (pa, _) in &committed {
        for &node in &pa.nodes {
            assert_eq!(dense.occupants(node), legacy.occupants(node), "occupants of {node:?}");
        }
    }
    // Full reset brings both back to a clean, still-identical state.
    dense.reset();
    legacy.reset();
    let a = dense.route_one(SignalId(500), fu(0, 0, 0, 2), fu(3, 3, 0, 2), None);
    let b = legacy.route_one(SignalId(500), fu(0, 0, 0, 2), fu(3, 3, 0, 2), None);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
