//! Failure-injection tests: HiMap must fail loudly and precisely, never
//! produce an invalid mapping.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use himap_cgra::CgraSpec;
use himap_core::backend::{
    race, Backend, BackendError, BackendOutcome, HiMapBackend, MapRequest, RaceOutcome,
};
use himap_core::{set_verify_hook, HiMap, HiMapError, HiMapOptions, MapReport, Mapping};
use himap_kernels::{AffineExpr, ArrayRef, Expr, KernelBuilder, OpKind};

/// Per-process verify hook shared by the tests in this binary. It keys off
/// the CGRA size so that only the tests that opt into a marker fabric (2x2
/// panics, 3x3 rejects) observe injected behaviour; every other spec passes.
fn selective_hook(mapping: &Mapping) -> Result<(), String> {
    match mapping.spec().rows {
        2 => panic!("injected hook panic"),
        3 => Err("injected rejection".to_string()),
        _ => Ok(()),
    }
}

fn install_selective_hook() {
    set_verify_hook(selective_hook);
}

fn assert_display_style(err: &HiMapError) {
    let msg = err.to_string();
    assert!(!msg.is_empty());
    assert!(msg.chars().next().is_some_and(|c| c.is_lowercase()), "{msg}");
    assert!(!msg.ends_with('.'), "{msg}");
}

/// A Jacobi-style kernel: `a[i][j] = a[i][j-1] + a[i][j+1]` reads its east
/// neighbour *before* that element is overwritten — an anti-dependence the
/// mapper must honour (the overwrite may not become visible before the
/// pending load issues).
fn jacobi_kernel() -> himap_kernels::Kernel {
    let d = 2;
    let mut b = KernelBuilder::new("contradictory", d);
    let a = b.array("a", 2);
    let (i, j) = (AffineExpr::var(0, d), AffineExpr::var(1, d));
    let jm1 = AffineExpr::new(vec![0, 1], -1);
    let jp1 = AffineExpr::new(vec![0, 1], 1);
    b.stmt(
        ArrayRef::new(a, vec![i.clone(), j]),
        Expr::binary(
            OpKind::Add,
            Expr::Read(ArrayRef::new(a, vec![i.clone(), jm1])),
            Expr::Read(ArrayRef::new(a, vec![i, jp1])),
        ),
    );
    b.build().expect("well-formed")
}

#[test]
fn anti_dependences_are_honoured() {
    // The kernel maps (the systolic schedule orders each load before the
    // overwriting store) and, crucially, validates cycle-accurately: the
    // simulator's memory model would expose any overwrite-before-load.
    let kernel = jacobi_kernel();
    let dfg = himap_dfg::Dfg::build(&kernel, &[3, 3]).expect("builds");
    assert!(!dfg.anti_deps().is_empty(), "the east read is an anti-dependence");
    assert!(dfg.anti_dep_distances().contains(&[0, 1, 0, 0]));
    let mapping = HiMap::new(HiMapOptions::default())
        .map(&kernel, &CgraSpec::square(4))
        .expect("jacobi-style kernels are systolizable");
    assert!(mapping.utilization() > 0.0);
    // Cycle-accurate validation of this kernel lives in the workspace-level
    // integration tests (the simulator crate depends on this one).
}

#[test]
fn one_by_one_cgra_fails_gracefully() {
    // A 1x1 array has no mesh at all; multi-dimensional systolic mapping
    // degenerates. Whatever happens, it must be an error, not a panic.
    let result = HiMap::new(HiMapOptions::default())
        .map(&himap_kernels::suite::bicg(), &CgraSpec::square(1));
    // BiCG needs neighbours for its chains unless everything serializes
    // onto one PE; either outcome is allowed, panics are not.
    if let Ok(m) = result {
        assert!(m.utilization() > 0.0);
    }
}

#[test]
fn zero_feedback_rounds_disable_replication_retry() {
    let options = HiMapOptions { replication_feedback_rounds: 0, ..HiMapOptions::default() };
    let err = HiMap::new(options)
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(4))
        .expect_err("zero rounds means no routing attempt at all");
    assert_eq!(err, HiMapError::RoutingFailed);
}

#[test]
fn tiny_candidate_budget_still_works_or_fails_cleanly() {
    let options = HiMapOptions {
        max_sub_candidates: 1,
        max_systolic_candidates: 1,
        ..HiMapOptions::default()
    };
    // GEMM's best candidate is also the winning one, so a budget of one
    // suffices.
    let m = HiMap::new(options)
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(4))
        .expect("best-first ordering wins with budget 1");
    assert!((m.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn zero_pathfinder_rounds_report_no_sub_mapping() {
    // With no PathFinder rounds MAP() cannot legalise any sub-mapping shape,
    // so the walk fails before systolic search even starts.
    let options = HiMapOptions { pathfinder_rounds: 0, ..HiMapOptions::default() };
    let err = HiMap::new(options)
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(4))
        .expect_err("no rounds means no sub-mapping");
    assert_eq!(err, HiMapError::NoSubMapping);
    assert_display_style(&err);
}

#[test]
fn degenerate_free_extents_report_no_systolic_mapping() {
    // A zero free extent makes every candidate's probe block empty, so each
    // candidate is pruned and the systolic search comes up dry.
    let options = HiMapOptions { free_extents: vec![0], ..HiMapOptions::default() };
    let err = HiMap::new(options)
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(4))
        .expect_err("zero-extent blocks prune every candidate");
    assert_eq!(err, HiMapError::NoSystolicMapping);
    assert_display_style(&err);
}

/// Races HiMap's recovery ladder built over `options` on GEMM 4x4.
fn race_ladder(options: &HiMapOptions) -> Result<RaceOutcome, HiMapError> {
    let ladder = HiMapBackend::ladder(options);
    let backends: Vec<&dyn Backend> = ladder.iter().map(|b| b as &dyn Backend).collect();
    let req = MapRequest::new(himap_kernels::suite::gemm(), CgraSpec::square(4));
    race(&backends, &req)
}

#[test]
fn ladder_exhaustion_carries_attempt_trail() {
    // `pathfinder_rounds: 0` fails identically on every rung, so the race
    // runs the whole ladder and reports each rung's outcome.
    let options = HiMapOptions { pathfinder_rounds: 0, ..HiMapOptions::default() };
    let err = race_ladder(&options).expect_err("every rung inherits the zero-round handicap");
    let HiMapError::Exhausted(report) = &err else {
        panic!("expected Exhausted, got {err}");
    };
    let names: Vec<_> = report.outcomes.iter().map(|o| o.name).collect();
    assert_eq!(names, ["himap", "himap+ii1", "himap+ii2", "himap+widen"]);
    assert!(report.outcomes.iter().enumerate().all(|(i, o)| o.index == i));
    assert!(report.outcomes.iter().all(|o| o.error.is_some()), "{report}");
    assert!(err.to_string().starts_with("every backend failed"));
    assert_display_style(&err);
}

#[test]
fn ladder_stops_at_the_first_rung_that_maps() {
    // GEMM maps on 4x4 with the default options, so the later rungs never
    // run.
    let outcome = race_ladder(&HiMapOptions::default()).expect("gemm maps on 4x4");
    assert_eq!(outcome.winner, "himap");
    assert_eq!(outcome.outcomes.len(), 1, "{:?}", outcome.outcomes);
}

#[test]
fn zero_deadline_reports_deadline_exceeded() {
    let options = HiMapOptions { deadline: Some(Duration::ZERO), ..HiMapOptions::default() };
    let err = HiMap::new(options)
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(4))
        .expect_err("a zero budget cannot map anything");
    let HiMapError::DeadlineExceeded(report) = &err else {
        panic!("expected DeadlineExceeded, got {err}");
    };
    assert!(report.outcomes.is_empty(), "no attempt can complete in zero time");
    assert_eq!(err.to_string(), "deadline exceeded before any mapping attempt completed");
    assert_display_style(&err);
}

#[test]
fn verification_rejection_surfaces_through_map() {
    install_selective_hook();
    let err = HiMap::new(HiMapOptions::default())
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(3))
        .expect_err("the hook rejects every 3x3 mapping");
    let HiMapError::Verification(why) = &err else {
        panic!("expected Verification, got {err}");
    };
    assert!(why.contains("injected rejection"), "{why}");
    assert!(err.to_string().starts_with("static verification rejected"));
    assert_display_style(&err);
}

#[test]
fn hook_panic_is_caught_as_internal_error() {
    install_selective_hook();
    let err = HiMap::new(HiMapOptions::default())
        .map(&himap_kernels::suite::gemm(), &CgraSpec::square(2))
        .expect_err("the hook panics on every 2x2 mapping");
    let HiMapError::Internal(why) = &err else {
        panic!("expected Internal, got {err}");
    };
    assert!(why.contains("injected hook panic"), "{why}");
    assert_display_style(&err);
}

#[test]
fn error_display_is_informative() {
    let trail = MapReport {
        outcomes: vec![BackendOutcome {
            name: "himap",
            index: 0,
            ii: None,
            utilization: None,
            error: Some(BackendError::Infeasible("detailed routing failed".to_string())),
            elapsed: Duration::from_millis(7),
        }],
        elapsed: Duration::from_millis(9),
        static_bounds: None,
    };
    let errors = [
        HiMapError::NoSubMapping,
        HiMapError::NoSystolicMapping,
        HiMapError::RoutingFailed,
        HiMapError::Dfg("boom".into()),
        HiMapError::UnsupportedKernel("why".into()),
        HiMapError::Verification("V001 mismatch".into()),
        HiMapError::Internal("verify hook panicked".into()),
        HiMapError::Exhausted(trail.clone()),
        HiMapError::DeadlineExceeded(trail),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        // Lowercase, no trailing punctuation (C-GOOD-ERR).
        assert!(msg.chars().next().is_some_and(|c| c.is_lowercase()), "{msg}");
        assert!(!msg.ends_with('.'), "{msg}");
    }
}
