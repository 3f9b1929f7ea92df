//! The static analyzer's soundness contract, end to end.
//!
//! The `himap-analyze` bounds claim to be *certified*: no legal mapping on
//! the given fabric can beat them. These tests hold that claim against the
//! two sources of ground truth the workspace has — the IIs HiMap actually
//! achieves, and the exact SAT oracle's refutation-backed lower bounds —
//! and check the admission-control path end to end (typed
//! `HiMapError::Infeasible` rejections carrying A-code diagnostics, with
//! no MRRG or DFG ever built).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use himap_repro::analyze::{analyze_dfg, analyze_kernel, AnalyzeOptions};
use himap_repro::cgra::{CapabilityMap, CgraSpec, PeId};
use himap_repro::core::{
    race, BhcBackend, HiMap, HiMapBackend, HiMapError, HiMapOptions, MapRequest, RaceMode,
};
use himap_repro::kernels::suite;

fn fully_faulted_mems(n: usize) -> CgraSpec {
    let mut faults = CapabilityMap::new();
    for x in 0..n {
        for y in 0..n {
            faults.disable_mem(PeId::new(x, y));
        }
    }
    CgraSpec::square(n).with_faults(faults)
}

fn dead_fabric(n: usize) -> CgraSpec {
    let mut faults = CapabilityMap::new();
    for x in 0..n {
        for y in 0..n {
            faults.kill_pe(PeId::new(x, y));
        }
    }
    CgraSpec::square(n).with_faults(faults)
}

/// Static bound ≤ achieved II, for every suite kernel on the pristine 4x4
/// fabric — at both analysis levels (kernel admission and unrolled block).
#[test]
fn static_bounds_never_exceed_achieved_ii() {
    let spec = CgraSpec::square(4);
    let options = AnalyzeOptions::default();
    for kernel in suite::all() {
        let mapping = HiMap::new(HiMapOptions::default())
            .map(&kernel, &spec)
            .unwrap_or_else(|e| panic!("{} maps on pristine 4x4: {e}", kernel.name()));
        let achieved = mapping.stats().iib;
        let kernel_mii = analyze_kernel(&kernel, &spec, &options).bounds.mii();
        assert!(
            kernel_mii <= achieved,
            "{}: kernel-level static MII {kernel_mii} exceeds achieved II {achieved}",
            kernel.name()
        );
        // The block-level bound is computed on the very DFG the mapper
        // scheduled, so it must also be below the block period.
        let dfg_mii = analyze_dfg(mapping.dfg(), mapping.spec(), &options).bounds.mii();
        assert!(
            dfg_mii <= achieved,
            "{}: DFG-level static MII {dfg_mii} exceeds achieved II {achieved}",
            kernel.name()
        );
    }
}

/// Same contract on a larger fabric with a real fault: gemm on 8x8 with a
/// dead PE still respects the (fault-aware) bound.
#[test]
fn static_bound_holds_on_faulted_8x8() {
    let mut faults = CapabilityMap::new();
    faults.kill_pe(PeId::new(3, 3));
    let spec = CgraSpec::square(8).with_faults(faults);
    let kernel = suite::gemm();
    let mapping = HiMap::new(HiMapOptions::default()).map(&kernel, &spec).expect("gemm maps");
    let bounds = analyze_kernel(&kernel, &spec, &AnalyzeOptions::default()).bounds;
    assert!(bounds.live_pes == 63, "fault-aware survey: {bounds:?}");
    assert!(bounds.mii() <= mapping.stats().iib);
}

/// The admission pass records its bounds in the pipeline stats of every
/// run, successful or not.
#[test]
fn pipeline_stats_record_static_bounds() {
    let (result, stats) =
        HiMap::new(HiMapOptions::default()).map_with_stats(&suite::gemm(), &CgraSpec::square(4));
    let mapping = result.expect("gemm maps");
    let bounds = stats.static_bounds.expect("admission records bounds");
    assert!(bounds.mii() >= 1);
    assert!(bounds.mii() <= mapping.stats().iib);
    assert_eq!(mapping.pipeline_stats().static_bounds, Some(bounds));
    // The bounds surface in the human-readable summary too.
    assert!(stats.summary().contains("static"), "{}", stats.summary());
}

/// A kernel that loads from memory cannot run on a fabric whose banks are
/// all faulted: the typed rejection carries A003 and fires before any MRRG
/// or DFG is built (observable as zero walk activity in the stats).
#[test]
fn all_banks_faulted_is_rejected_without_mapping_work() {
    let spec = fully_faulted_mems(4);
    let (result, stats) = HiMap::new(HiMapOptions::default()).map_with_stats(&suite::gemm(), &spec);
    let err = result.expect_err("no memory bank can serve gemm's loads");
    let HiMapError::Infeasible(why) = &err else {
        panic!("expected Infeasible, got {err}");
    };
    assert!(why.contains("error[A003]"), "diagnostics must name A003:\n{why}");
    assert_eq!(stats.sub_shapes_tried, 0, "no MAP() work before admission: {stats:?}");
    assert_eq!(stats.candidates_enumerated, 0);
    assert!(stats.static_bounds.is_some(), "the rejecting bounds are still recorded");
}

/// The same crafted request is rejected at every entry point: the portfolio
/// racer refuses it before running a single backend.
#[test]
fn race_rejects_statically_infeasible_requests() {
    let himap = HiMapBackend::default();
    let bhc = BhcBackend::default();
    let req = MapRequest::new(suite::gemm(), fully_faulted_mems(4));
    let err = race(&[&himap, &bhc], &req, RaceMode::FirstFeasible)
        .expect_err("the race must reject the request up front");
    let HiMapError::Infeasible(why) = &err else {
        panic!("expected Infeasible, got {err}");
    };
    assert!(why.contains("error[A003]"), "{why}");
}

/// Dead fabric → A004, zero config memory → A005; each through the typed
/// fast-reject path.
#[test]
fn other_admission_rules_reject_with_their_codes() {
    let err = HiMap::new(HiMapOptions::default())
        .map(&suite::gemm(), &dead_fabric(4))
        .expect_err("dead fabric");
    assert!(matches!(&err, HiMapError::Infeasible(w) if w.contains("error[A004]")), "{err}");

    let mut spec = CgraSpec::square(4);
    spec.config_mem_depth = 0;
    let err = HiMap::new(HiMapOptions::default())
        .map(&suite::gemm(), &spec)
        .expect_err("zero config memory");
    assert!(matches!(&err, HiMapError::Infeasible(w) if w.contains("error[A005]")), "{err}");
}

/// Differential check against the exact oracle: on every kernel the oracle
/// certifies, the static bound must sit at or below the refutation-backed
/// lower bound (and therefore at or below the certified minimal II).
/// Heavy — run by the bound-consistency CI stage via `-- --ignored`.
#[test]
#[ignore = "exact-oracle sweep; exercised by the bound-consistency CI stage"]
fn static_bound_below_exact_certified_minimum() {
    use himap_repro::dfg::Dfg;
    use himap_repro::exact::{certify, ExactOptions};

    let spec = CgraSpec::square(4);
    // The oracle blocks `exact_oracle` certifies with (shapes matter; see
    // that binary's tuning notes).
    let blocks: &[(&str, &[usize])] = &[
        ("adi", &[2, 2]),
        ("atax", &[3, 2]),
        ("bicg", &[2, 3]),
        ("mvt", &[2, 3]),
        ("syrk", &[3, 2, 2]),
        ("floyd-warshall", &[2, 2, 3]),
        ("gemm", &[2, 2, 3]),
        ("ttm", &[2, 2, 2, 1]),
    ];
    let mut checked = 0usize;
    for (name, block) in blocks {
        let kernel = suite::by_name(name).unwrap();
        let dfg = Dfg::build(&kernel, block).unwrap();
        let static_mii = analyze_dfg(&dfg, &spec, &AnalyzeOptions::default()).bounds.mii();
        let Ok(result) = certify(&kernel, &spec, block, &ExactOptions::default(), None) else {
            continue; // undecided within the span; nothing to compare
        };
        let cert = result.certificate;
        assert!(
            static_mii <= cert.lower_bound,
            "{name}: static MII {static_mii} exceeds the oracle's lower bound {}",
            cert.lower_bound
        );
        assert!(static_mii <= cert.ii, "{name}: static MII above the achieved exact II");
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} kernels produced an oracle result");
}
