//! The paper's largest Fig. 8 point: GEMM with a 64×64 block on a 64×64
//! CGRA, mapped by HiMap, then checked by the independent verifier and the
//! cycle-accurate simulator.
//!
//! Ignored by default: the map alone takes several seconds and a few
//! hundred MiB of memory. Run it with
//! `cargo test --release --test fig8_endpoint_64 -- --ignored`.
//!
//! This file holds exactly one test so that it runs in a process of its
//! own: the memory assertion reads the whole process's high-water mark.

use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapOptions, PipelineStats};
use himap_repro::kernels::suite;
use himap_repro::sim::simulate;
use himap_repro::verify::verify_mapping;

/// Peak resident memory allowed for map + verify + simulate, in MiB.
const PEAK_MIB: u64 = 500;

/// How far verify + simulate may raise the peak resident set above the
/// map's own peak, in bytes per route step: one flat 32-byte record per
/// step plus a quarter, as at b = 32 (`tests/fig8_endpoint.rs`).
const CHECK_BYTES_PER_STEP: u64 = 40;

/// GEMM with the block matched to a `b`×`b` array, as Fig. 8 runs it.
fn map_gemm(b: usize) -> (himap_repro::core::Mapping, PipelineStats) {
    let options = HiMapOptions { free_extents: vec![b], ..HiMapOptions::default() };
    let (mapping, stats) = HiMap::new(options).map_with_stats(&suite::gemm(), &CgraSpec::square(b));
    let mapping = mapping.unwrap_or_else(|e| panic!("GEMM b = {b} fails to map on {b}x{b}: {e}"));
    (mapping, stats)
}

/// The process's peak resident set (`VmHWM`) in KiB, where procfs has it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
#[ignore = "paper-scale endpoint: seconds of CPU and hundreds of MiB of memory"]
fn gemm_64_on_64x64_maps_verifies_and_simulates_in_the_maps_memory() {
    let (mapping, stats) = map_gemm(64);
    let map_kib = peak_rss_kib();
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
    // Routing work and the routing window are flat in b: the same searches
    // and pops as at b = 16, over the same PEs (the index's nodes per cycle
    // of the II, which is 2b).
    let (small, small_stats) = map_gemm(16);
    let flat = |s: &PipelineStats, iib: usize| {
        (s.router_searches, s.router_nodes_popped, s.memory.nodes / iib)
    };
    assert_eq!(flat(&stats, mapping.stats().iib), flat(&small_stats, small.stats().iib));
}
