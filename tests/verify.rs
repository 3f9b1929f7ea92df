//! End-to-end checks of the `himap-verify` static verifier.
//!
//! Two directions: a positive sweep proving every mapping the pipeline and
//! the baselines produce verifies clean (independently of the mapper's own
//! `replicate_and_verify` bookkeeping), and mutation-style negative tests
//! proving each class of corruption is caught under its specific
//! diagnostic code.

use himap_repro::baseline::{bhc, BaselineOptions};
use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapError, HiMapOptions, Mapping, MappingParts};
use himap_repro::dfg::Dfg;
use himap_repro::kernels::suite;
use himap_repro::verify::{verify_baseline, verify_mapping, Code, Severity};

fn map(kernel: &himap_repro::kernels::Kernel, c: usize) -> Mapping {
    HiMap::new(HiMapOptions::default())
        .map(kernel, &CgraSpec::square(c))
        .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()))
}

fn gemm_parts() -> MappingParts {
    map(&suite::gemm(), 4).into_parts()
}

/// The expected code must be reported, as an Error.
fn assert_error(mapping: &Mapping, code: Code) {
    let report = verify_mapping(mapping);
    assert!(
        report.diags().iter().any(|d| d.code == code && d.severity == Severity::Error),
        "expected an {code:?} error, got:\n{}",
        report.render_pretty()
    );
}

// ---------------------------------------------------------------- positive

#[test]
fn himap_mappings_verify_clean_for_every_suite_kernel() {
    for kernel in suite::all() {
        let mapping = map(&kernel, 4);
        let report = verify_mapping(&mapping);
        assert!(
            !report.has_errors(),
            "{} fails independent verification:\n{}",
            kernel.name(),
            report.render_pretty()
        );
    }
}

#[test]
fn baseline_mappings_verify_clean_for_every_suite_kernel() {
    // Small uniform blocks keep every kernel inside the baselines' DFG
    // node budget; mapper failures are allowed (BHC is not complete), but
    // every mapping that is produced must verify clean.
    let options = BaselineOptions::default();
    let spec = CgraSpec::square(4);
    let mut verified = 0usize;
    for kernel in suite::all() {
        let block = vec![2usize; kernel.dims()];
        let dfg = Dfg::build(&kernel, &block).expect("small blocks build");
        let result = bhc(&dfg, &spec, &options);
        for (name, outcome) in [("spr", &result.spr), ("sa", &result.sa)] {
            if let Ok(mapping) = outcome {
                let report = verify_baseline(mapping, &dfg, &spec);
                assert!(
                    !report.has_errors(),
                    "{} ({name}) fails verification:\n{}",
                    kernel.name(),
                    report.render_pretty()
                );
                verified += 1;
            }
        }
    }
    assert!(verified >= 4, "only {verified} baseline mappings to verify — sweep is vacuous");
}

#[test]
fn reassembled_mapping_still_verifies() {
    // from_parts(into_parts(m)) is the identity as far as the verifier is
    // concerned — the baseline every mutation test perturbs from.
    let mapping = Mapping::from_parts(gemm_parts());
    let report = verify_mapping(&mapping);
    assert!(!report.has_errors(), "{}", report.render_pretty());
}

/// Message and notes of every `code` error, in report order.
fn errors_of(mapping: &Mapping, code: Code) -> Vec<(String, Vec<String>)> {
    verify_mapping(mapping)
        .diags()
        .iter()
        .filter(|d| d.code == code && d.severity == Severity::Error)
        .map(|d| (d.message.clone(), d.notes.clone()))
        .collect()
}

// ------------------------------------------------------------- mutations

#[test]
fn double_booked_fu_slot_is_v001() {
    let mut parts = gemm_parts();
    // Move one op onto another op's FU slot: two distinct signals on one
    // modulo FU resource. Sorted ids make the injection, and so the
    // diagnostic text, deterministic.
    let mut nodes: Vec<_> = parts.op_slots.keys().copied().collect();
    nodes.sort();
    let (a, b) = (
        nodes[0],
        *nodes
            .iter()
            .find(|&&n| parts.op_slots[&n] != parts.op_slots[&nodes[0]])
            .expect("two distinct slots"),
    );
    let slot_a = parts.op_slots[&a];
    parts.op_slots.insert(b, slot_a);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V001);
    // Pinned text: resource, distinct-signal count and the signals in
    // first-claim order.
    assert_eq!(
        errors_of(&mapping, Code::V001),
        [(
            "fu@(0,0)t0 carries 2 distinct signals (capacity 1)".to_string(),
            vec!["signals n0, n1".to_string()]
        )]
    );
}

#[test]
fn mul_on_alu_only_pe_is_v007() {
    use himap_repro::cgra::OpClass;
    use himap_repro::dfg::NodeKind;
    use himap_repro::kernels::OpKind;
    let mut parts = gemm_parts();
    // Strip the Mul class from the PE hosting one of gemm's multiplies:
    // the FU itself stays in the MRRG (the PE still adds), so this must
    // surface as a capability-legality error, not a masked resource.
    let mul_node = parts
        .dfg
        .graph()
        .nodes()
        .find_map(|(n, w)| match w.kind {
            NodeKind::Op { kind: OpKind::Mul, .. } => Some(n),
            _ => None,
        })
        .expect("gemm has multiplies");
    let pe = parts.op_slots[&mul_node].pe;
    parts.spec.faults.restrict(pe, &[OpClass::Alu, OpClass::Mem]);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V007);
    let report = verify_mapping(&mapping);
    assert!(
        !report.diags().iter().any(|d| d.code == Code::V006),
        "capability violation must not masquerade as a fault:\n{}",
        report.render_pretty()
    );
}

#[test]
fn shifted_route_cycle_is_v002() {
    let mut parts = gemm_parts();
    // Shift every absolute time of one route by a cycle without touching
    // its modulo resources: the schedule decodes to different resources
    // than the route claims.
    let route = parts.routes.first_mut().expect("routes exist");
    for step in &mut route.steps {
        step.1 += 1;
    }
    assert_error(&Mapping::from_parts(parts), Code::V002);
}

#[test]
fn dropped_hop_is_v002() {
    let mut parts = gemm_parts();
    let route = parts
        .routes
        .iter_mut()
        .find(|r| r.steps.len() >= 3)
        .expect("some route has an intermediate hop");
    route.steps.remove(1);
    assert_error(&Mapping::from_parts(parts), Code::V002);
}

#[test]
fn route_to_wrong_consumer_cycle_is_v003() {
    let mut parts = gemm_parts();
    // Delay one consumer by a whole modulo window: its modulo slot (and so
    // V001/V002) is untouched, but every route delivering to it now
    // arrives a window early.
    let node = *parts.op_slots.keys().min().expect("ops placed");
    if let Some(slot) = parts.op_slots.get_mut(&node) {
        slot.abs += parts.stats.iib as i64;
    }
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V003);
    let report = verify_mapping(&mapping);
    assert!(
        report
            .diags()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .all(|d| d.code == Code::V003),
        "a pure schedule shift must be attributed to V003 alone:\n{}",
        report.render_pretty()
    );
}

#[test]
fn register_overflow_is_v004() {
    let mut parts = gemm_parts();
    let rf_size = parts.spec.rf_size as u8;
    let route = parts.routes.iter_mut().find(|r| r.steps.len() >= 3).expect("multi-step route");
    // Park an intermediate step in a register beyond the register file.
    route.steps[1].0.kind = himap_repro::cgra::RKind::Reg(rf_size + 2);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V004);
    assert_eq!(
        errors_of(&mapping, Code::V004),
        [(
            "route of edge e0 uses reg6@(0,0)t1: register r6 exceeds the 4-entry register file"
                .to_string(),
            vec![]
        )]
    );
}

#[test]
fn rf_port_oversubscription_is_v004() {
    let mut parts = gemm_parts();
    let spec = parts.spec.clone();
    // Fabricate routes stamping one RegWr port with more distinct signals
    // than it has ports. Using existing edges keeps route coverage happy.
    let donor = parts.routes.first().expect("routes exist").clone();
    let (pe, t) = (donor.steps[0].0.pe, donor.steps[0].0.t);
    let port = himap_repro::cgra::RNode::new(pe, t, himap_repro::cgra::RKind::RegWr);
    let mut corrupted = Vec::new();
    for route in parts.routes.iter_mut().take(spec.rf_ports + 1) {
        route.steps.insert(1, (port, route.steps[0].1));
        corrupted.push(route.edge);
    }
    let mapping = Mapping::from_parts(parts);
    let report = verify_mapping(&mapping);
    // The grafted step also breaks path continuity (V002, expected); the
    // port pressure itself must still be attributed to V004.
    assert!(
        report.diags().iter().any(|d| d.code == Code::V004 && d.severity == Severity::Error),
        "expected V004 from {} routes through one RegWr port:\n{}",
        corrupted.len(),
        report.render_pretty()
    );
    // Pinned text: the port, its distinct-signal count and the grafted
    // routes' signals in first-claim order.
    assert_eq!(
        errors_of(&mapping, Code::V004),
        [(
            "regwr@(0,0)t0 carries 3 distinct signals (capacity 2)".to_string(),
            vec!["signals n0, n5, n9".to_string()]
        )]
    );
}

#[test]
fn config_memory_overflow_is_v005() {
    let mut parts = gemm_parts();
    parts.spec.config_mem_depth = 0;
    assert_error(&Mapping::from_parts(parts), Code::V005);
}

#[test]
fn stale_bookkeeping_is_w103() {
    let mut parts = gemm_parts();
    parts.stats.max_config_slots += 3;
    let report = verify_mapping(&Mapping::from_parts(parts));
    assert!(!report.has_errors(), "bookkeeping drift is a warning, not an error");
    assert!(report.has_code(Code::W103), "{}", report.render_pretty());
}

#[test]
fn missing_route_is_v002() {
    let mut parts = gemm_parts();
    parts.routes.pop();
    assert_error(&Mapping::from_parts(parts), Code::V002);
}

// ------------------------------------------------------------------ hook

#[test]
fn installed_hook_cross_checks_the_pipeline() {
    himap_repro::verify::install();
    // With the hook installed, `HiMap::map` verifies the winning mapping
    // before returning it, in every build profile. A clean pipeline must
    // still return Ok.
    let result = HiMap::new(HiMapOptions::default()).map(&suite::gemm(), &CgraSpec::square(4));
    match result {
        Ok(mapping) => assert!(!verify_mapping(&mapping).has_errors()),
        Err(HiMapError::Verification(report)) => {
            panic!("pipeline and verifier disagree:\n{report}")
        }
        Err(e) => panic!("gemm fails to map: {e}"),
    }
}
