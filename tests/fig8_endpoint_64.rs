//! The paper's largest Fig. 8 point: GEMM with a 64×64 block on a 64×64
//! CGRA, mapped by HiMap, then checked by the independent verifier and the
//! cycle-accurate simulator.
//!
//! Ignored by default: the map alone takes several seconds and close to a
//! GiB of memory. Run it with
//! `cargo test --release --test fig8_endpoint_64 -- --ignored`.
//!
//! This file holds exactly one test so that it runs in a process of its
//! own: the memory assertion reads the whole process's high-water mark.

use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapOptions};
use himap_repro::kernels::suite;
use himap_repro::sim::simulate;
use himap_repro::verify::verify_mapping;

/// How far the checks may raise the peak resident set above the peak the
/// map itself reached.
const CHECKS_HWM_SLACK: f64 = 0.10;

/// The process's peak resident set (`VmHWM`) in KiB, where procfs has it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
#[ignore = "paper-scale endpoint: seconds of CPU and ~1 GiB of memory"]
fn gemm_64_on_64x64_maps_verifies_and_simulates_in_the_maps_memory() {
    let options = HiMapOptions { free_extents: vec![64], ..HiMapOptions::default() };
    let mapping = HiMap::new(options)
        .map(&suite::gemm(), &CgraSpec::square(64))
        .unwrap_or_else(|e| panic!("GEMM b = 64 fails to map on 64x64: {e}"));
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
        let map_kib = map_kib.expect("procfs reports VmHWM on Linux");
        let kib = peak_rss_kib().expect("procfs reports VmHWM on Linux");
        assert!(
            kib as f64 <= map_kib as f64 * (1.0 + CHECKS_HWM_SLACK),
            "verify + simulate raise the peak RSS from {} MiB after map to {} MiB",
            map_kib / 1024,
            kib / 1024
        );
    }
}
