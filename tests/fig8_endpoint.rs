//! The paper's Fig. 8 endpoint at full scale: GEMM with a 32×32 block on a
//! 32×32 CGRA, mapped by HiMap, then checked by the independent verifier
//! and the cycle-accurate simulator.
//!
//! This file holds exactly one test so that it runs in a process of its
//! own: the peak-memory assertion reads the whole process's high-water
//! mark, which another test sharing the process would inflate.

use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapOptions};
use himap_repro::kernels::suite;
use himap_repro::sim::simulate;
use himap_repro::verify::verify_mapping;

/// Peak resident memory allowed for map + verify + simulate, in MiB. The
/// router's search scratch spans `nodes × (cap + 1)` states of the full
/// fabric (≈ 870 MB at this size) and must stay mostly unmapped, because a
/// search visits only a few thousand states.
const PEAK_MIB: u64 = 400;

/// How far the checks may raise the peak resident set above the peak the
/// map itself reached: the verifier and the simulator work on flat arrays
/// sized by the routes, not on per-resource hash maps.
const CHECKS_HWM_SLACK: f64 = 0.10;

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
        let map_kib = map_kib.expect("procfs reports VmHWM on Linux");
        let kib = peak_rss_kib().expect("procfs reports VmHWM on Linux");
        assert!(
            kib <= PEAK_MIB * 1024,
            "peak RSS {} MiB exceeds the {PEAK_MIB} MiB bound",
            kib / 1024
        );
        assert!(
            kib as f64 <= map_kib as f64 * (1.0 + CHECKS_HWM_SLACK),
            "verify + simulate raise the peak RSS from {} MiB after map to {} MiB",
            map_kib / 1024,
            kib / 1024
        );
    }
}
