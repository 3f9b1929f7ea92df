//! Differential optimality tests: HiMap's achieved II can never beat the
//! exact oracle's certified lower bound on the same block, and at least
//! four suite kernels certify on a 4x4 fabric (the PR's acceptance bar).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use himap_cgra::CgraSpec;
use himap_core::{HiMap, HiMapOptions};
use himap_exact::certify;
use himap_kernels::suite;
use himap_verify::verify_mapping;

/// Tuned 4x4 oracle blocks that certify in well under a second each
/// (gemm/ttm need multi-second budgets and stay in the CI oracle sweep).
fn fast_certified_cases() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("adi", vec![2, 2]),
        ("atax", vec![3, 2]),
        ("bicg", vec![2, 3]),
        ("mvt", vec![2, 3]),
        ("syrk", vec![3, 2, 2]),
        ("floyd-warshall", vec![2, 2, 3]),
    ]
}

#[test]
fn himap_never_beats_the_certified_lower_bound() {
    let spec = CgraSpec::square(4);
    let himap = HiMap::new(HiMapOptions::default());
    let mut certified = 0usize;
    for (name, block) in fast_certified_cases() {
        let kernel = suite::by_name(name).unwrap();
        let exact = certify(&kernel, &spec, &block, None)
            .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"));
        let cert = exact.certificate;
        assert!(
            cert.lower_bound <= cert.ii,
            "{name}: lower bound {} above achieved II {}",
            cert.lower_bound,
            cert.ii
        );
        if cert.certified {
            certified += 1;
        }
        // Every exact mapping must itself be verifier-clean.
        let sink = verify_mapping(&exact.mapping);
        assert!(!sink.has_errors(), "{name}: {}", sink.render_pretty());

        // The differential check: the heuristic cannot do better than a
        // certified optimum. HiMap maps the whole kernel (its own block
        // choice), so compare against the oracle's block-level bound only
        // when the bound is certified -- kernel II is bounded below by the
        // hardest block's II, and the oracle block is one of HiMap's
        // feasible block shapes.
        let himap_ii = himap.map(&kernel, &spec).expect("himap maps suite kernel").stats().iib;
        if cert.certified {
            assert!(
                himap_ii >= cert.lower_bound,
                "{name}: himap II {himap_ii} beats certified minimum {}",
                cert.lower_bound
            );
        }
    }
    assert!(certified >= 4, "expected >= 4 certified kernels, got {certified}");
}

#[test]
fn certificates_are_stable_across_runs() {
    // The oracle is deterministic: same kernel, same block, same result.
    let kernel = suite::by_name("mvt").unwrap();
    let spec = CgraSpec::square(4);
    let a = certify(&kernel, &spec, &[2, 3], None).unwrap();
    let b = certify(&kernel, &spec, &[2, 3], None).unwrap();
    assert_eq!(a.certificate, b.certificate);
}
