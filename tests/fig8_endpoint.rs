//! The paper's Fig. 8 endpoint at full scale: GEMM with a 32×32 block on a
//! 32×32 CGRA, mapped by HiMap, then checked by the independent verifier
//! and the cycle-accurate simulator.
//!
//! This file holds exactly one test so that it runs in a process of its
//! own: the peak-memory assertion reads the whole process's high-water
//! mark, which another test sharing the process would inflate.

use himap_repro::cgra::{CgraSpec, Mrrg};
use himap_repro::core::{HiMap, HiMapOptions};
use himap_repro::kernels::suite;
use himap_repro::sim::simulate;
use himap_repro::verify::verify_mapping;

/// Peak resident memory allowed for map + verify + simulate, in MiB: the
/// measured peak (56 MiB; 42 MiB after the map) plus 50 %. The router, its
/// index and its search scratch cover only the PEs the negotiation can
/// touch, so what remains is the DFG, the replicated routes and the
/// checkers' flat arrays, which are sized by the routes.
const PEAK_MIB: u64 = 85;

/// How far verify + simulate may raise the peak resident set above the
/// map's own peak, in bytes per route step. The two run one after the
/// other, and each holds one flat 32-byte record per step (the verifier's
/// claims or nets, the simulator's occupancy): 32 bytes plus a quarter for
/// the smaller per-node and per-edge tables. Measured: 14 MiB over
/// 611,296 steps, 24 bytes per step.
const CHECK_BYTES_PER_STEP: u64 = 40;

/// Largest share of the fabric's MRRG the routing index may hold.
const MAX_INDEX_SHARE: f64 = 0.05;

/// Share of the mapping's wall time its timed stages must account for:
/// every expensive span of the walk has a stage of its own.
const MIN_STAGE_COVERAGE: f64 = 0.95;

/// The process's peak resident set (`VmHWM`) in KiB, where procfs has it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn gemm_32_on_32x32_maps_verifies_and_simulates_in_bounded_memory() {
    let options = HiMapOptions { free_extents: vec![32], ..HiMapOptions::default() };
    let mapping = HiMap::new(options)
        .map(&suite::gemm(), &CgraSpec::square(32))
        .unwrap_or_else(|e| panic!("GEMM b = 32 fails to map on 32x32: {e}"));
    let map_kib = peak_rss_kib();
    let stats = mapping.pipeline_stats();
    // ROUTE() routes a minimal DFG: its index holds the PEs negotiation can
    // touch, not the 843,776 nodes of the 32x32 fabric at II = 64.
    let fabric = Mrrg::new(CgraSpec::square(32), mapping.stats().iib).node_count();
    assert!(
        (stats.memory.nodes as f64) < fabric as f64 * MAX_INDEX_SHARE,
        "the routing index holds {} of the fabric's {fabric} nodes",
        stats.memory.nodes
    );
    // Four of the five feedback rounds end in replica conflicts: 119,040
    // oversubscribed resources over the four.
    assert_eq!(stats.replication_rounds, 5);
    assert_eq!(stats.replica_conflicts, 119_040);
    // Each round stamps one cell per neighbourhood group, not the whole
    // array: a full stamp claims 611,296 route steps per round.
    assert!(
        stats.replica_claims < 5 * 611_296 / 10,
        "replication stamped {} claims over five rounds",
        stats.replica_claims
    );
    let t = &stats.times;
    let stages = t.map
        + t.enumerate
        + t.probe
        + t.search
        + t.dfg
        + t.layout
        + t.classify
        + t.route
        + t.replicate
        + t.config
        + t.index;
    let coverage = stages.as_secs_f64() / t.total.as_secs_f64();
    assert!(
        coverage >= MIN_STAGE_COVERAGE,
        "stages cover {:.1} % of the {:?} mapping run: {t:?}",
        coverage * 100.0,
        t.total
    );
    let report = verify_mapping(&mapping);
    assert!(
        !report.has_errors(),
        "Fig. 8 endpoint fails verification:\n{}",
        report.render_pretty()
    );
    let sim = simulate(&mapping, 1).unwrap_or_else(|e| panic!("simulation mismatch: {e}"));
    assert!(sim.elements_checked > 0);
    if cfg!(target_os = "linux") {
        let kib = peak_rss_kib().expect("procfs reports VmHWM on Linux");
        assert!(
            kib <= PEAK_MIB * 1024,
            "peak RSS {} MiB exceeds the {PEAK_MIB} MiB bound",
            kib / 1024
        );
        let map_kib = map_kib.expect("procfs reports VmHWM on Linux");
        let steps: usize = mapping.routes().iter().map(|r| r.steps.len()).sum();
        assert!(
            (kib - map_kib) * 1024 <= steps as u64 * CHECK_BYTES_PER_STEP,
            "verify + simulate raise the peak RSS from {} KiB after map to {kib} KiB \
             over {steps} route steps",
            map_kib
        );
    }
}
