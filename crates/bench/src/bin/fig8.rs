//! Regenerates Fig. 8: compilation time of BHC and HiMap for increasing
//! block sizes, with the CGRA matched to the block (`c = b`).
//!
//! Run with `cargo run -p himap-bench --release --bin fig8`. Pass
//! `--max <b>` to cap the sweep. The paper sweeps to 64; the 4-D TTM sweep
//! is capped by default (the fully unrolled 64^4 block does not fit in
//! memory — see EXPERIMENTS.md).
//!
//! Every HiMap mapping is then checked by the independent verifier and the
//! cycle-accurate simulator. The table reports what the checks cost: their
//! wall times, and the process's peak resident set (`VmHWM`) right after
//! the map and again after the checks.

// Bench drivers fail loudly on setup errors, like tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use himap_baseline::{bhc, BaselineOptions};
use himap_bench::{markdown_table, peak_rss_kb};
use himap_cgra::CgraSpec;
use himap_core::{HiMap, HiMapOptions, Mapping};
use himap_dfg::Dfg;
use himap_kernels::suite;
use himap_sim::simulate;
use himap_verify::verify_mapping;

/// The paper's block-size sweep (Fig. 8 x-axis).
const SWEEP: [usize; 12] = [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 32, 64];

fn main() {
    let max = parse_max().unwrap_or(64);
    let kernels = [(suite::mvt(), 64usize), (suite::gemm(), 64), (suite::ttm(), 16)];
    let baseline_options = BaselineOptions { timeout: Duration::from_secs(30) };
    let mut rows = Vec::new();
    for (kernel, cap) in kernels {
        for &b in SWEEP.iter().filter(|&&b| b <= cap.min(max)) {
            let spec = CgraSpec::square(b);
            // HiMap with the block matched to the CGRA (paper: b = c).
            let himap_options = HiMapOptions { free_extents: vec![b], ..HiMapOptions::default() };
            let start = Instant::now();
            let (himap, pipeline) = HiMap::new(himap_options).map_with_stats(&kernel, &spec);
            let himap_time = start.elapsed();
            let himap_cell = match &himap {
                Ok(m) => {
                    format!("{:.2}s (U={:.0}%)", himap_time.as_secs_f64(), m.utilization() * 100.0)
                }
                Err(e) => format!("failed: {e}"),
            };
            let checks = match &himap {
                Ok(m) => check_cost(m),
                Err(_) => ["-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()],
            };
            // BHC on the same whole block.
            let block = vec![b; kernel.dims()];
            let start = Instant::now();
            let bhc_cell = match Dfg::build(&kernel, &block) {
                Ok(dfg) => {
                    let result = bhc(&dfg, &spec, &baseline_options);
                    let elapsed = start.elapsed();
                    match result.best() {
                        Some(m) => format!(
                            "{:.2}s (U={:.0}%)",
                            elapsed.as_secs_f64(),
                            m.utilization * 100.0
                        ),
                        None => {
                            let why = match (&result.spr, &result.sa) {
                                (Err(a), _) => a.to_string(),
                                (_, Err(b)) => b.to_string(),
                                _ => unreachable!("best() is None only on double failure"),
                            };
                            format!("failed: {why}")
                        }
                    }
                }
                Err(e) => format!("failed: {e}"),
            };
            eprintln!(
                "{} b={b}: himap {himap_cell} | bhc {bhc_cell}\n{}",
                kernel.name(),
                pipeline.summary()
            );
            let mut row = vec![kernel.name().to_string(), b.to_string(), bhc_cell, himap_cell];
            row.extend(checks);
            rows.push(row);
        }
    }
    println!("# Fig. 8 — compilation time vs block size (c = b)\n");
    let header = [
        "kernel",
        "block/CGRA size b",
        "BHC",
        "HiMap",
        "verify",
        "simulate",
        "VmHWM map",
        "VmHWM checks",
    ];
    print!("{}", markdown_table(&header, &rows));
    println!();
    println!(
        "HiMap compile time stays within seconds across the sweep because \
         the number of unique iterations is block-size independent; BHC \
         fails past the 400-node DFG limit (the paper: beyond block sizes \
         8/5/4 for MVT/GEMM/TTM, after days of compile time)."
    );
}

/// Verifies and simulates a mapping: the cells `verify`, `simulate`,
/// `VmHWM map` and `VmHWM checks`. A check that fails says so in its cell.
fn check_cost(mapping: &Mapping) -> [String; 4] {
    let mib = |kb: Option<u64>| kb.map_or("n/a".to_string(), |kb| format!("{} MiB", kb / 1024));
    let hwm_map = peak_rss_kb();
    let start = Instant::now();
    let errors = verify_mapping(mapping).error_count();
    let verify_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let simulated = simulate(mapping, 1);
    let simulate_s = start.elapsed().as_secs_f64();
    let hwm_checks = peak_rss_kb();
    let verify = match errors {
        0 => format!("{verify_s:.2}s"),
        n => format!("{verify_s:.2}s ({n} errors)"),
    };
    let simulate = match simulated {
        Ok(_) => format!("{simulate_s:.2}s"),
        Err(e) => format!("{simulate_s:.2}s (failed: {e})"),
    };
    [verify, simulate, mib(hwm_map), mib(hwm_checks)]
}

fn parse_max() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let idx = args.iter().position(|a| a == "--max")?;
    args.get(idx + 1)?.parse().ok()
}
