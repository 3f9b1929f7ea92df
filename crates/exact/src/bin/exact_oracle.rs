//! Optimality-gap sweep: the exact oracle vs HiMap on a small fabric.
//!
//! For every suite kernel that fits the oracle (a 2-wide block per
//! dimension, compute ops under the oracle cap), certifies the minimal II
//! on an NxN array and compares it with the II HiMap achieves on the same
//! kernel. Emits the markdown table recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! exact_oracle [--size N] [--budget-secs S] [--kernels a,b,c] [--heterogeneous]
//! ```
//!
//! Exit code is non-zero when fewer than four kernels certify — the CI
//! oracle gate. With `--heterogeneous`, every kernel is certified twice —
//! on the homogeneous NxN and on the capability-restricted NxN (corner
//! multipliers, edge-only memory) — and the run fails if the restricted
//! fabric ever certifies a *lower* II than the homogeneous one: removing
//! capabilities can only shrink the feasible set.

// Bench drivers fail loudly on setup errors, like tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use himap_analyze::{analyze_dfg, AnalyzeOptions};
use himap_cgra::{CapabilityMap, CgraSpec};
use himap_core::{HiMap, HiMapOptions};
use himap_dfg::Dfg;
use himap_exact::{certify, ExactError};
use himap_kernels::suite;
use himap_mapper::CancelToken;

fn main() {
    let mut size = 4usize;
    let mut budget = Duration::from_secs(30);
    let mut only: Option<Vec<String>> = None;
    let mut heterogeneous = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => size = args.next().expect("--size N").parse().expect("array size"),
            "--budget-secs" => {
                budget = Duration::from_secs(
                    args.next().expect("--budget-secs S").parse().expect("seconds"),
                );
            }
            "--kernels" => {
                only = Some(
                    args.next().expect("--kernels a,b,c").split(',').map(str::to_string).collect(),
                );
            }
            "--heterogeneous" => heterogeneous = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if heterogeneous {
        heterogeneous_sweep(size, budget, only.as_deref());
        return;
    }

    let spec = CgraSpec::square(size);
    let himap = HiMap::new(HiMapOptions::default());

    println!("# Optimality gap — exact oracle vs HiMap on {size}x{size}\n");
    println!(
        "| kernel | block | static MII | exact II | lower bound | certified | HiMap II | gap | \
         oracle time |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");

    let mut certified_count = 0usize;
    let mut attempted = 0usize;
    for kernel in suite::all() {
        if let Some(filter) = &only {
            if !filter.iter().any(|n| n.eq_ignore_ascii_case(kernel.name())) {
                continue;
            }
        }
        attempted += 1;
        let block = tuned_block(size, kernel.name()).unwrap_or_else(|| vec![2usize; kernel.dims()]);
        // The analyzer's certified bound must never exceed what the oracle
        // proves: `lower_bound` starts at the static MII and only grows, so
        // a violation here means an unsound pigeonhole, not a solver bug.
        let static_mii = analyze_dfg(
            &Dfg::build(&kernel, &block).expect("suite blocks unroll"),
            &spec,
            &AnalyzeOptions::default(),
        )
        .bounds
        .mii();
        let token = CancelToken::until(Instant::now() + budget);
        let started = Instant::now();
        let exact = certify(&kernel, &spec, &block, Some(&token));
        let oracle_time = started.elapsed();
        let himap_ii = himap.map(&kernel, &spec).map(|m| m.stats().iib);
        let block_str = block.iter().map(ToString::to_string).collect::<Vec<_>>().join("x");
        match exact {
            Ok(result) => {
                let cert = result.certificate;
                assert!(
                    cert.lower_bound >= static_mii,
                    "{}: oracle lower bound {} below certified static MII {}",
                    kernel.name(),
                    cert.lower_bound,
                    static_mii
                );
                if cert.certified {
                    certified_count += 1;
                }
                let (himap_col, gap_col) = match himap_ii {
                    Ok(ii) => (ii.to_string(), (ii as i64 - cert.lower_bound as i64).to_string()),
                    Err(_) => ("—".to_string(), "—".to_string()),
                };
                println!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1?} |",
                    kernel.name(),
                    block_str,
                    static_mii,
                    cert.ii,
                    cert.lower_bound,
                    if cert.certified { "yes" } else { "no" },
                    himap_col,
                    gap_col,
                    oracle_time,
                );
            }
            Err(err) => {
                let cause = match err {
                    ExactError::Deadline => "budget".to_string(),
                    other => other.to_string(),
                };
                println!(
                    "| {} | {} | {static_mii} | — | — | no ({cause}) | {} | — | {:.1?} |",
                    kernel.name(),
                    block_str,
                    himap_ii.map(|ii| ii.to_string()).unwrap_or_else(|_| "—".to_string()),
                    oracle_time,
                );
            }
        }
    }
    println!();
    println!(
        "{certified_count}/{attempted} kernels certified (oracle budget {}s per kernel).",
        budget.as_secs()
    );
    if only.is_none() && certified_count < 4 {
        eprintln!("oracle gate: expected at least 4 certified kernels, got {certified_count}");
        std::process::exit(1);
    }
}

/// Oracle blocks, tuned so the achieved II meets the pigeonhole lower
/// bound where the fabric allows it (certification needs every smaller
/// II refuted; congestion-only infeasibility is invisible to the
/// necessary-conditions encoding, so blocks whose op count sits just
/// above a multiple of the PE count certify best). Shapes matter:
/// bicg/mvt certify at `[2, 3]` but not `[3, 2]`.
fn tuned_block(size: usize, name: &str) -> Option<Vec<usize>> {
    if size != 4 {
        return None;
    }
    match name {
        "adi" => Some(vec![2, 2]),
        "atax" => Some(vec![3, 2]),
        "bicg" | "mvt" => Some(vec![2, 3]),
        "syrk" => Some(vec![3, 2, 2]),
        "floyd-warshall" => Some(vec![2, 2, 3]),
        "gemm" => Some(vec![2, 2, 3]),
        "ttm" => Some(vec![2, 2, 2, 1]),
        _ => None,
    }
}

/// Certifies every kernel on the homogeneous NxN and again on the
/// capability-restricted NxN, asserting the restricted fabric never
/// certifies a lower II — losing capabilities only shrinks the feasible
/// set, so a lower certified II would be an unsound encoding.
fn heterogeneous_sweep(size: usize, budget: Duration, only: Option<&[String]>) {
    let hom_spec = CgraSpec::square(size);
    let het_spec = CgraSpec::square(size).with_faults(CapabilityMap::heterogeneous(size, size));

    println!("# Exact oracle — homogeneous vs heterogeneous {size}x{size}\n");
    println!("(heterogeneous = corner multipliers + edge-only memory banks)\n");
    println!("| kernel | block | hom II | hom cert | het static MII | het II | het cert | time |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut violations = 0usize;
    let mut het_certified = 0usize;
    let mut attempted = 0usize;
    for kernel in suite::all() {
        if let Some(filter) = only {
            if !filter.iter().any(|n| n.eq_ignore_ascii_case(kernel.name())) {
                continue;
            }
        }
        attempted += 1;
        let block = tuned_block(size, kernel.name()).unwrap_or_else(|| vec![2usize; kernel.dims()]);
        let block_str = block.iter().map(ToString::to_string).collect::<Vec<_>>().join("x");
        let het_static_mii = analyze_dfg(
            &Dfg::build(&kernel, &block).expect("suite blocks unroll"),
            &het_spec,
            &AnalyzeOptions::default(),
        )
        .bounds
        .mii();
        let started = Instant::now();
        let hom_token = CancelToken::until(Instant::now() + budget);
        let hom = certify(&kernel, &hom_spec, &block, Some(&hom_token));
        let het_token = CancelToken::until(Instant::now() + budget);
        let het = certify(&kernel, &het_spec, &block, Some(&het_token));
        let elapsed = started.elapsed();

        let col = |r: &Result<himap_exact::ExactResult, ExactError>,
                   pick: fn(&himap_exact::Certificate) -> String| {
            match r {
                Ok(res) => pick(&res.certificate),
                Err(ExactError::Deadline) => "budget".to_string(),
                Err(e) => format!("({e})"),
            }
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1?} |",
            kernel.name(),
            block_str,
            col(&hom, |c| c.ii.to_string()),
            col(&hom, |c| if c.certified { "yes".into() } else { "no".into() }),
            het_static_mii,
            col(&het, |c| c.ii.to_string()),
            col(&het, |c| if c.certified { "yes".into() } else { "no".into() }),
            elapsed,
        );

        if let (Ok(hom), Ok(het)) = (&hom, &het) {
            let (hc, tc) = (&hom.certificate, &het.certificate);
            if tc.certified {
                het_certified += 1;
                if hc.certified && tc.ii < hc.ii {
                    eprintln!(
                        "{}: heterogeneous fabric certified II {} below homogeneous II {} — \
                         the capability-restricted CNF admits placements the full fabric lacks",
                        kernel.name(),
                        tc.ii,
                        hc.ii,
                    );
                    violations += 1;
                }
            }
        }
    }
    println!();
    println!(
        "{het_certified}/{attempted} kernels certified on the heterogeneous fabric \
         (budget {}s per fabric per kernel).",
        budget.as_secs()
    );
    if violations > 0 {
        eprintln!("oracle gate: {violations} kernel(s) certified lower on the restricted fabric");
        std::process::exit(1);
    }
}
