//! CNF-layer integration tests: Unsat/Sat flips around the feasibility
//! boundary, model enumeration, and the property that everything the
//! oracle returns lowers to a verifier-clean mapping.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;

use himap_cgra::CgraSpec;
use himap_dfg::Dfg;
use himap_exact::{certify, default_horizon, encode, Lit, SolveResult};
use himap_kernels::suite;
use himap_verify::verify_mapping;
use proptest::prelude::*;

/// The 4x4 oracle configurations the exact backend certifies quickly.
/// Shapes are load-bearing: bicg/mvt certify at `[2, 3]` but not `[3, 2]`.
fn oracle_cases() -> Vec<(&'static str, Vec<usize>)> {
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
fn infeasible_ii_is_unsat_and_the_next_ii_has_a_model() {
    // Keep the pigeonhole small: PHP refutations are exponential for CDCL,
    // so the instance must overfill the fabric by a factor, not by one.
    // A 2x2 array offers 4 FU slots per cycle; gemm's 2x2x1 block carries
    // 8 compute ops, so II = 1 is an infeasibility the slot-exclusivity
    // clauses refute outright.
    let kernel = suite::by_name("gemm").unwrap();
    let dfg = Dfg::build(&kernel, &[2, 2, 1]).unwrap();
    let spec = CgraSpec::square(2);
    assert!(dfg.op_count() > spec.pe_count());
    let enc = encode(&dfg, &spec, 1, default_horizon(&dfg, 1) + 2).unwrap();
    assert!(matches!(enc.solver(&[]).solve(None), SolveResult::Unsat));

    // II = 2 doubles the slot budget and is satisfiable; the model decodes
    // to exactly one (PE, cycle) placement per op.
    let enc = encode(&dfg, &spec, 2, default_horizon(&dfg, 2) + 2).unwrap();
    let SolveResult::Sat(model) = enc.solver(&[]).solve(None) else {
        panic!("II = 2 should be satisfiable for gemm 2x2x1 on 2x2");
    };
    let placement = enc.decode(&model).unwrap();
    assert_eq!(placement.len(), dfg.op_count());
}

#[test]
fn enumerated_models_respect_fu_exclusivity() {
    // Walk several distinct models via blocking clauses; every one of them
    // must honour FU exclusivity mod II (the CNF-level V001 invariant).
    let kernel = suite::by_name("mvt").unwrap();
    let dfg = Dfg::build(&kernel, &[2, 3]).unwrap();
    let spec = CgraSpec::square(4);
    let ii = 2i64;
    let enc = encode(&dfg, &spec, ii as usize, default_horizon(&dfg, ii as usize) + 2).unwrap();
    let mut blocked: Vec<Vec<Lit>> = Vec::new();
    let mut models = 0usize;
    for _ in 0..4 {
        match enc.solver(&blocked).solve(None) {
            SolveResult::Sat(model) => {
                let placement = enc.decode(&model).unwrap();
                let mut slots = HashSet::new();
                for (pe, abs) in placement.values() {
                    assert!(
                        slots.insert((*pe, abs.rem_euclid(ii))),
                        "model double-books an FU slot mod II"
                    );
                }
                blocked.push(enc.blocking_clause(&placement));
                models += 1;
            }
            SolveResult::Unsat => break,
            SolveResult::Cancelled => panic!("no cancel token was installed"),
        }
    }
    assert!(models >= 2, "expected several distinct models, saw {models}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn oracle_models_lower_to_verifier_clean_mappings(case in 0usize..6) {
        // Whatever model the oracle settles on, the decoded placement must
        // route and pass every verifier rule (V001-V006). The oracle checks
        // this internally; re-verify from the outside so a regression in
        // either layer trips the property.
        let (name, block) = oracle_cases().swap_remove(case);
        let kernel = suite::by_name(name).unwrap();
        let result =
            certify(&kernel, &CgraSpec::square(4), &block, None)
                .expect("tuned oracle case solves");
        let sink = verify_mapping(&result.mapping);
        prop_assert!(!sink.has_errors(), "{}", sink.render_pretty());
        prop_assert!(result.certificate.lower_bound <= result.certificate.ii);
        prop_assert_eq!(result.mapping.stats().iib, result.certificate.ii);
    }
}
