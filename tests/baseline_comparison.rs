//! Cross-crate checks of the HiMap-vs-baseline comparison machinery, routed
//! through the pluggable [`Backend`] trait the portfolio racer uses — every
//! mapper answers the same `MapRequest`, and every success is a fully
//! routed, verifier-checkable `Mapping`.

use std::time::Duration;

use himap_repro::baseline::{bhc, BaselineOptions, MAX_DFG_NODES};
use himap_repro::cgra::CgraSpec;
use himap_repro::core::backend::{Backend, BackendError, BhcBackend, HiMapBackend, MapRequest};
use himap_repro::dfg::Dfg;
use himap_repro::kernels::suite;
use himap_repro::verify::verify_mapping;

#[test]
fn bhc_maps_small_blocks() {
    let backend = BhcBackend::default().with_block(vec![2, 2, 2]);
    let req = MapRequest::new(suite::gemm(), CgraSpec::square(4));
    let mapping = backend.map(&req).expect("small GEMM block maps");
    assert!(mapping.utilization() > 0.0);
    assert!(mapping.stats().iib >= 1);
    let sink = verify_mapping(&mapping);
    assert!(!sink.has_errors(), "{}", sink.render_pretty());
}

#[test]
fn bhc_backend_keeps_the_winning_baseline_routes() {
    // The backend wraps the better baseline result as it was mapped: the
    // same placement and the routes its mapper committed, with no second
    // negotiation, and the result passes the full rule set. SA wins the
    // GEMM block and SPR the MVT one, whose placement a fresh negotiation
    // would route differently.
    let spec = CgraSpec::square(4);
    for (kernel, block) in [(suite::gemm(), vec![2, 2, 2]), (suite::mvt(), vec![3, 3])] {
        let backend = BhcBackend::default().with_block(block.clone());
        let mapping = backend.map(&MapRequest::new(kernel.clone(), spec.clone())).expect("maps");
        let dfg = Dfg::build(&kernel, &block).expect("builds");
        let result = bhc(&dfg, &spec, &backend.options);
        let best = result.best().expect("small block maps");
        assert_eq!(mapping.stats().iib, best.ii);
        assert_eq!(mapping.op_slots().len(), best.op_slots.len());
        for (v, slot) in mapping.op_slots() {
            assert_eq!(Some(&(slot.pe, slot.abs)), best.op_slots.get(v));
        }
        let routes: Vec<_> = mapping.routes().iter().map(|r| (r.edge, r.steps.clone())).collect();
        assert_eq!(routes, best.routes, "{}: routes differ from the winner's", kernel.name());
        let sink = verify_mapping(&mapping);
        assert!(!sink.has_errors(), "{}", sink.render_pretty());
    }
}

#[test]
fn bhc_hits_the_scalability_cliff() {
    // The paper: "BHC fails to find a solution when the number of DFG nodes
    // is higher than 400". Through the Backend trait that surfaces as an
    // Infeasible request, not a panic or a hang.
    let dfg = Dfg::build(&suite::gemm(), &[8, 8, 8]).expect("builds");
    assert!(dfg.graph().node_count() > MAX_DFG_NODES);
    let backend = BhcBackend::new(BaselineOptions::default()).with_block(vec![8, 8, 8]);
    let req = MapRequest::new(suite::gemm(), CgraSpec::square(16));
    let result = backend.map(&req);
    assert!(
        matches!(result, Err(BackendError::Infeasible(_))),
        "expected the node-cap cliff, got {result:?}"
    );
}

#[test]
fn himap_dominates_on_large_arrays() {
    // Fig. 7's crossover: on a 16x16 array the baselines' node-capped DFG
    // cannot fill 256 PEs, while HiMap's utilization stays flat.
    let req = MapRequest::new(suite::gemm(), CgraSpec::square(16));
    let himap_util = HiMapBackend::default().map(&req).expect("himap maps").utilization();
    let options = BaselineOptions { timeout: Duration::from_secs(15) };
    let bhc = BhcBackend::new(options);
    let bhc_util = match bhc.map(&req) {
        Ok(mapping) => {
            // The baseline's ops are capped near the node limit; 256 PEs
            // cannot be filled even at II = 1.
            let block = himap_repro::baseline::baseline_block(&req.kernel);
            let dfg = Dfg::build(&req.kernel, &block).expect("builds");
            let ops_bound = dfg.op_count() as f64 / req.spec.pe_count() as f64;
            let util = mapping.utilization();
            assert!(util <= ops_bound + 1e-9);
            util
        }
        // Failing to map at 256 PEs only widens the gap.
        Err(_) => 0.0,
    };
    assert!(himap_util > 2.0 * bhc_util, "himap {himap_util} vs bhc {bhc_util}");
}

#[test]
fn baseline_mappings_respect_mem_causality() {
    // Floyd–Warshall's memory-routed pivots: when the baseline backend
    // produces a mapping at all, it must be verifier-clean — V003 covers
    // every load ordered after its producing store.
    let backend = BhcBackend::default().with_block(vec![3, 3, 3]);
    let req = MapRequest::new(suite::floyd_warshall(), CgraSpec::square(4));
    // Failing to map is acceptable; producing a causality-violating
    // mapping is not.
    if let Ok(mapping) = backend.map(&req) {
        let sink = verify_mapping(&mapping);
        assert!(!sink.has_errors(), "{}", sink.render_pretty());
    }
}

#[test]
fn timeouts_are_honoured() {
    let backend = BhcBackend::default().with_block(vec![3, 3, 3, 3]);
    let req =
        MapRequest::new(suite::ttm(), CgraSpec::square(8)).with_deadline(Duration::from_millis(1));
    let start = std::time::Instant::now();
    let result = backend.map(&req);
    assert!(start.elapsed() < Duration::from_secs(30));
    // With a 1 ms budget the backend must report a deadline (or an early
    // structural failure), never hang or return a half-mapped success.
    assert!(
        matches!(result, Err(BackendError::Deadline(_)) | Err(BackendError::Infeasible(_))),
        "got {result:?}"
    );
}
