//! Fault-injection harness: random capability maps over the suite kernels.
//!
//! The contract under test is a trichotomy — for *any* capability map
//! (dead PEs, severed links, disabled registers and banks, plus per-PE
//! op-class restrictions down to route-only tiles), mapping
//! either (a) succeeds and the result verifies clean (including rule V006:
//! no faulted resource in any placement or route) and simulates correctly,
//! (b) fails with a typed [`HiMapError`], or (c) reports
//! [`HiMapError::DeadlineExceeded`] within its budget. A panic, or a mapping
//! that silently uses a faulted resource, is never acceptable.
//!
//! The wide sweep (`random_fault_maps_respect_the_trichotomy`) is `#[ignore]`d
//! so the default `cargo test` stays fast; the dedicated CI stage runs it
//! with `-- --ignored` in release mode. The proptest shim derives each
//! case's RNG from the test name and case index, so every run — local or
//! CI — replays the identical fault maps (a pinned seed by construction).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use himap_repro::cgra::{CapabilityMap, CgraSpec, OpClass, PeId, ALL_DIRS};
use himap_repro::core::backend::{race, Backend, HiMapBackend, MapRequest};
use himap_repro::core::{HiMap, HiMapError, HiMapOptions};
use himap_repro::kernels::suite;
use himap_repro::sim::simulate;
use himap_repro::verify::verify_mapping;
use proptest::prelude::*;

/// One injected fault, encoded for the strategy layer.
#[derive(Clone, Debug)]
enum Fault {
    DeadPe(usize, usize),
    SeveredLink(usize, usize, usize),
    DisabledReg(usize, usize, usize),
    DisabledMem(usize, usize),
    /// Intersect the PE's op-class set with the combination encoded by the
    /// 3-bit mask (bit 0 = ALU, 1 = MUL, 2 = MEM) — mask 0 leaves a
    /// route-only tile.
    Restricted(usize, usize, usize),
}

/// The op-class subset a 3-bit strategy mask denotes.
fn classes_of_mask(mask: usize) -> Vec<OpClass> {
    let mut classes = Vec::new();
    if mask & 1 != 0 {
        classes.push(OpClass::Alu);
    }
    if mask & 2 != 0 {
        classes.push(OpClass::Mul);
    }
    if mask & 4 != 0 {
        classes.push(OpClass::Mem);
    }
    classes
}

/// A single random fault on an `n x n` fabric, drawn from all five classes.
fn arb_fault(n: usize) -> impl Strategy<Value = Fault> {
    (0usize..5, 0usize..n, 0usize..n, 0usize..8).prop_map(|(class, r, c, x)| match class {
        0 => Fault::DeadPe(r, c),
        1 => Fault::SeveredLink(r, c, x % ALL_DIRS.len()),
        2 => Fault::DisabledReg(r, c, x),
        3 => Fault::DisabledMem(r, c),
        _ => Fault::Restricted(r, c, x % 8),
    })
}

/// Up to `max` random faults on an `n x n` fabric.
fn arb_fault_map(n: usize, max: usize) -> impl Strategy<Value = CapabilityMap> {
    proptest::collection::vec(arb_fault(n), 0..max + 1).prop_map(|faults| {
        let mut map = CapabilityMap::new();
        for fault in faults {
            match fault {
                Fault::DeadPe(r, c) => map.kill_pe(PeId::new(r, c)),
                Fault::SeveredLink(r, c, d) => map.sever_link(PeId::new(r, c), ALL_DIRS[d]),
                Fault::DisabledReg(r, c, x) => map.disable_reg(PeId::new(r, c), x),
                Fault::DisabledMem(r, c) => map.disable_mem(PeId::new(r, c)),
                Fault::Restricted(r, c, mask) => {
                    map.restrict(PeId::new(r, c), &classes_of_mask(mask))
                }
            };
        }
        map
    })
}

/// Drives one `(kernel, faulted spec)` pair through a race over HiMap's
/// recovery ladder and asserts the trichotomy (the shim's `prop_assert!`
/// panics on failure, so a plain call suffices).
fn assert_trichotomy(
    kernel: &himap_repro::kernels::Kernel,
    spec: &CgraSpec,
    seed: u64,
    deadline: Duration,
) {
    let ladder = HiMapBackend::ladder(&HiMapOptions::default());
    let backends: Vec<&dyn Backend> = ladder.iter().map(|b| b as &dyn Backend).collect();
    let req = MapRequest::new(kernel.clone(), spec.clone()).with_deadline(deadline);
    match race(&backends, &req) {
        Ok(outcome) => {
            let mapping = outcome.mapping;
            // (a) mapped: the independent verifier must find nothing — in
            // particular no V006 (faulted resource in a placement or route) —
            // and cycle-accurate simulation must validate the result (the
            // simulator hard-errors on any faulted resource it is driven
            // over).
            let report = verify_mapping(&mapping);
            prop_assert!(
                !report.has_errors(),
                "{} on faulted {}x{} fabric ({}) maps but fails verification:\n{}",
                kernel.name(),
                spec.rows,
                spec.cols,
                spec.faults,
                report.render_pretty()
            );
            let sim = simulate(&mapping, seed);
            prop_assert!(
                sim.is_ok(),
                "{} on faulted fabric ({}) verifies but fails simulation: {}",
                kernel.name(),
                spec.faults,
                sim.err().map_or_else(String::new, |e| e.to_string())
            );
            // The static analyzer's certified bound must hold on every
            // fabric the sweep generates: an achieved block period below
            // the kernel-level MII would mean an unsound pigeonhole.
            let bounds = himap_repro::analyze::analyze_kernel(
                kernel,
                spec,
                &himap_repro::analyze::AnalyzeOptions::default(),
            )
            .bounds;
            prop_assert!(
                bounds.mii() <= mapping.stats().iib,
                "{} on faulted fabric ({}): static MII {} exceeds achieved II {}",
                kernel.name(),
                spec.faults,
                bounds.mii(),
                mapping.stats().iib
            );
            // The per-op-class pigeonholes are certified bounds in their
            // own right — each must hold against the achieved II on any
            // capability-restricted fabric the sweep generates.
            for (class, bound) in [("alu", bounds.res_mii_alu), ("mul", bounds.res_mii_mul)] {
                prop_assert!(
                    bound <= mapping.stats().iib,
                    "{} on faulted fabric ({}): {class} pigeonhole {} exceeds achieved II {}",
                    kernel.name(),
                    spec.faults,
                    bound,
                    mapping.stats().iib
                );
            }
        }
        // (c) deadline: allowed, and the Display must render (possibly with
        // a partial attempt trail).
        Err(err @ HiMapError::DeadlineExceeded(_)) => {
            prop_assert!(!err.to_string().is_empty());
        }
        // (b') admission rejection: the analyzer proved the faulted fabric
        // cannot host the kernel; the error must carry A-code diagnostics.
        Err(err @ HiMapError::Infeasible(_)) => {
            prop_assert!(
                err.to_string().contains("error[A"),
                "Infeasible must carry A-code diagnostics: {err}"
            );
        }
        // (b) typed failure: allowed. A ladder-exhaustion error must carry
        // every rung's outcome as evidence.
        Err(err) => {
            prop_assert!(!err.to_string().is_empty());
            if let HiMapError::Exhausted(report) = &err {
                prop_assert!(
                    report.outcomes.len() == ladder.len(),
                    "Exhausted must carry one outcome per rung: {report}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wide sweep: every suite kernel, random fault maps on 4x4 and 8x8
    /// fabrics. Heavy — run by the dedicated CI stage via `-- --ignored`.
    #[test]
    #[ignore = "heavy sweep; exercised by the fault-injection CI stage"]
    fn random_fault_maps_respect_the_trichotomy(
        kernel_idx in 0usize..8,
        big in 0usize..2,
        faults_small in arb_fault_map(4, 3),
        faults_big in arb_fault_map(8, 6),
        seed in any::<u64>(),
    ) {
        let kernels = suite::all();
        let kernel = &kernels[kernel_idx % kernels.len()];
        let (n, faults) = if big == 1 { (8, faults_big) } else { (4, faults_small) };
        let spec = CgraSpec::square(n).with_faults(faults);
        assert_trichotomy(kernel, &spec, seed, Duration::from_secs(5));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A cheap always-on slice of the sweep: GEMM against random fault maps
    /// on a 4x4 fabric. Keeps the trichotomy guarded in every `cargo test`
    /// run without the full sweep's cost.
    #[test]
    fn gemm_survives_random_faults_on_4x4(
        faults in arb_fault_map(4, 3),
        seed in any::<u64>(),
    ) {
        let spec = CgraSpec::square(4).with_faults(faults);
        assert_trichotomy(&suite::gemm(), &spec, seed, Duration::from_secs(5));
    }
}

/// The heterogeneous acceptance scenario: a multiply-free stencil maps and
/// verifies on the capability-restricted 4x4 (multipliers only in the
/// corners, memory banks only on the edge ring) — heterogeneity flows
/// through admission, placement, routing and verification end to end.
#[test]
fn stencil2d_maps_and_verifies_on_the_heterogeneous_4x4() {
    let spec = CgraSpec::square(4).with_faults(CapabilityMap::heterogeneous(4, 4));
    let kernel = suite::by_name("stencil2d").expect("stencil2d is in the named suite");
    let mapping = HiMap::new(HiMapOptions::default())
        .map(&kernel, &spec)
        .expect("a mul-free stencil fits the heterogeneous fabric");
    let report = verify_mapping(&mapping);
    assert!(
        !report.has_errors(),
        "heterogeneous stencil2d mapping fails verification:\n{}",
        report.render_pretty()
    );
    let sim = simulate(&mapping, 11).expect("heterogeneous mapping simulates");
    assert!(sim.elements_checked > 0);
}

/// The acceptance scenario: one dead PE on an 8x8 fabric must not stop
/// GEMM — replication simply skips the dead tile and routing flows around
/// it. The mapping must be V006-clean and simulate correctly.
#[test]
fn gemm_8x8_routes_around_a_single_dead_pe() {
    let mut faults = CapabilityMap::new();
    faults.kill_pe(PeId::new(3, 4));
    let spec = CgraSpec::square(8).with_faults(faults);
    let mapping = HiMap::new(HiMapOptions::default())
        .map(&suite::gemm(), &spec)
        .expect("one dead PE leaves a mappable 8x8 fabric");
    let report = verify_mapping(&mapping);
    assert!(
        !report.has_errors(),
        "mapping around the dead PE fails verification:\n{}",
        report.render_pretty()
    );
    let sim = simulate(&mapping, 7).expect("mapping simulates despite the dead PE");
    assert!(sim.elements_checked > 0);
    // Utilization is measured against the healthy fabric; with 63 of 64
    // tiles alive the mapper should still use a substantial share.
    assert!(mapping.utilization() > 0.0);
}

/// Faults only reduce the usable fabric: a fully-faulted spec (every PE
/// dead) must fail with a typed error, never panic.
#[test]
fn fully_dead_fabric_fails_with_typed_error() {
    let mut faults = CapabilityMap::new();
    for r in 0..4 {
        for c in 0..4 {
            faults.kill_pe(PeId::new(r, c));
        }
    }
    let spec = CgraSpec::square(4).with_faults(faults);
    let err = HiMap::new(HiMapOptions::default())
        .map(&suite::gemm(), &spec)
        .expect_err("nothing can map onto a dead fabric");
    assert!(!err.to_string().is_empty());
    // Admission control catches this before any mapping work: the typed
    // rejection carries the analyzer's dead-fabric diagnostic.
    assert!(
        matches!(err, HiMapError::Infeasible(_)),
        "dead fabric should be rejected statically, got: {err}"
    );
    assert!(err.to_string().contains("A004"), "{err}");
}

/// Whole-array fault case: every PE of the 8x8 corner `(0..8, 0..8)` of a
/// 32x32 fabric is dead. The main path shrinks the block around the dead
/// strip, and the mapping must verify clean with no op slot or route step
/// on a dead PE.
#[test]
fn main_path_32x32_survives_a_dead_corner() {
    let mut faults = CapabilityMap::new();
    for r in 0..8 {
        for c in 0..8 {
            faults.kill_pe(PeId::new(r, c));
        }
    }
    let spec = CgraSpec::square(32).with_faults(faults);
    let mapping = HiMap::new(HiMapOptions::default())
        .map(&suite::gemm(), &spec)
        .expect("gemm maps around a dead corner of a 32x32");
    assert_eq!(mapping.stats().block, [32, 24, 4]);
    let report = verify_mapping(&mapping);
    assert!(
        !report.has_errors(),
        "mapping around the dead corner fails verification:\n{}",
        report.render_pretty()
    );
    let dead = |pe: PeId| spec.faults.pe_dead(pe);
    let dead_slots = mapping.op_slots().values().filter(|slot| dead(slot.pe)).count();
    let dead_steps = mapping
        .routes()
        .iter()
        .flat_map(|route| &route.steps)
        .filter(|(node, _)| dead(node.pe))
        .count();
    assert_eq!((dead_slots, dead_steps), (0, 0), "ops and routes on dead PEs");
}
