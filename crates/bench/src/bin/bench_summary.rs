//! The consolidated benchmark gate: one manifest (`BENCH.json`), one
//! verdict table.
//!
//! `bench_summary --gate BENCH.json [--tolerance 0.25]` re-measures every
//! gated row of the manifest — the sequential scaling rows, the portfolio
//! races, the fault-model overhead check, the heterogeneity rows and the
//! mega-scale rows — prints one verdict line per row, and writes
//! `BENCH_verdict.json`. A row fails when its fresh median exceeds
//! `baseline * (1 + tolerance) + 2 ms`, or when a deterministic companion
//! value (race winner and II, heterogeneous IIs, index high-water) got
//! worse. This is the CI entrypoint.
//!
//! `bench_summary --gate-baseline` measures every surface with the same
//! protocol (1 warmup run, median of 5) and writes a fresh `BENCH.json`.
//!
//! Run with `cargo run -p himap-bench --release --bin bench_summary -- ...`.

use std::time::{Duration, Instant};

use himap_bench::check::{
    het_rows, limit_ms, parse, race_rows, scale_rows, scaling_rows, HetRow, RaceRow, ScaleRow,
    ScalingRow,
};
use himap_bench::run_himap_tiled;
use himap_cgra::{CapabilityMap, CgraSpec, MrrgIndex};
use himap_core::backend::{race, Backend, BhcBackend, HiMapBackend, MapRequest, RaceMode};
use himap_core::{HiMap, HiMapOptions};
use himap_exact::ExactBackend;
use himap_kernels::suite;

/// Measurement protocol of every row: one warmup run (primes the shared
/// `MrrgIndex` cache and the allocator), then the median of 5.
const WARMUP: usize = 1;
const SAMPLES: usize = 5;

/// Rows at or under this baseline median are cheap enough to re-run in CI
/// and get `"check": true`.
const CHECK_BUDGET_MS: f64 = 250.0;

/// The scaling matrix: every kernel × array side, mapped sequentially.
const SCALING_KERNELS: [&str; 3] = ["gemm", "bicg", "floyd-warshall"];
const SCALING_SIZES: [usize; 2] = [4, 8];

/// The portfolio-race workload: kernel × array side, raced with the full
/// backend lineup (himap, bhc, exact) under `FirstFeasible`. HiMap wins on
/// every row; the row's metric is the whole race's wall time — winner
/// latency plus the cooperative-cancellation latency of the losers, which
/// is exactly what a regression in the token plumbing would inflate.
const RACE_CASES: [(&str, usize); 2] = [("mvt", 4), ("gemm", 4)];

/// A 10 s ceiling so a wedged backend fails the bench instead of hanging it.
const RACE_DEADLINE: Duration = Duration::from_secs(10);

/// The heterogeneity workload: a multiply-free kernel mapped on the
/// capability-restricted 4x4 (corner multipliers + edge-only memory).
const HET_CASES: [(&str, usize); 1] = [("stencil2d", 4)];

/// The fault model must be free when unused: gemm 8x8 with an explicitly
/// installed empty `CapabilityMap` is held to the fault-free scaling row
/// plus 2 % (and the usual 2 ms absolute slack — the row is ~tens of
/// milliseconds, so a bare 2 % would be inside timer noise).
const FAULT_TOLERANCE: f64 = 0.02;

/// The mega-fabric scale workload: the tiled path must map *and verify*
/// these kernels on 32x32 and 64x64 without ever materialising the
/// full-fabric MRRG — the index high-water mark is asserted against a
/// tile-scale cap on every sample.
const SCALE_KERNELS: [&str; 2] = ["gemm", "floyd-warshall"];
const SCALE_SIZES: [usize; 2] = [32, 64];

/// Unconditional wall ceiling on every 64x64 row, independent of the
/// committed baseline: a 64x64 map+verify that takes a second has lost
/// the scalability argument even if the baseline drifted with it.
const MEGA_WALL_LIMIT_MS: f64 = 1000.0;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs `f` [`WARMUP`] times untimed, then returns the median of
/// [`SAMPLES`] timed runs.
fn sample(mut f: impl FnMut()) -> Duration {
    for _ in 0..WARMUP {
        f();
    }
    let mut out = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        out.push(start.elapsed());
    }
    median(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size in kilobytes from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn kernel(name: &str) -> Result<himap_kernels::Kernel, String> {
    suite::by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))
}

/// Median wall time of one full mapping run of `kernel` on `spec` — the
/// scaling-row protocol.
fn measure_map(name: &str, spec: &CgraSpec) -> Result<Duration, String> {
    let kernel = kernel(name)?;
    let himap = HiMap::new(HiMapOptions::default());
    Ok(sample(|| {
        std::hint::black_box(himap.map(&kernel, spec).ok());
    }))
}

/// Median wall time of one portfolio race, plus the (winner, II) pair of
/// the last run — deterministic under the lowest-index tie-break, so any
/// run is as good as any other.
fn measure_race(name: &str, c: usize) -> Result<(Duration, &'static str, usize), String> {
    let req = MapRequest::new(kernel(name)?, CgraSpec::square(c)).with_deadline(RACE_DEADLINE);
    let himap = HiMapBackend::default();
    let bhc = BhcBackend::default().with_block(vec![2; req.kernel.dims()]);
    let exact = ExactBackend::default();
    let backends: [&dyn Backend; 3] = [&himap, &bhc, &exact];
    let mut last = ("", 0);
    let t = sample(|| {
        let outcome = race(&backends, &req, RaceMode::FirstFeasible)
            .unwrap_or_else(|e| panic!("race {name} {c}x{c} found no winner: {e}"));
        last = (outcome.winner, outcome.mapping.stats().iib);
    });
    Ok((t, last.0, last.1))
}

/// Maps `kernel` on the homogeneous and on the heterogeneous `c`x`c`
/// fabric, returning `(hom_ii, het_ii, het_median)`. Both mappings must
/// succeed *and verify* — this row doubles as the continuously-enforced
/// acceptance check that a capability-restricted fabric stays mappable.
fn measure_heterogeneity(name: &str, c: usize) -> Result<(usize, usize, Duration), String> {
    let kernel = kernel(name)?;
    let himap = HiMap::new(HiMapOptions::default());
    let map_verified = |spec: &CgraSpec| {
        let mapping = himap
            .map(&kernel, spec)
            .unwrap_or_else(|e| panic!("{name} fails to map on {c}x{c}: {e}"));
        let report = himap_verify::verify_mapping(&mapping);
        assert!(
            !report.has_errors(),
            "{name} on heterogeneous {c}x{c} fails verification:\n{}",
            report.render_pretty()
        );
        mapping.stats().iib
    };
    let hom_ii = map_verified(&CgraSpec::square(c));
    let het_spec = CgraSpec::square(c).with_faults(CapabilityMap::heterogeneous(c, c));
    let mut het_ii = 0;
    let t = sample(|| het_ii = map_verified(&het_spec));
    assert!(
        het_ii >= hom_ii,
        "{name}: heterogeneous II {het_ii} beats homogeneous II {hom_ii} — \
         removing capabilities cannot enlarge the feasible set"
    );
    Ok((hom_ii, het_ii, t))
}

/// One measured mega-scale point.
struct ScaleSample {
    median: Duration,
    /// Cold `MrrgIndex::new` of the base tile's `(spec, II)` — timed
    /// outside the sampled runs, whose index acquisitions are cache hits.
    index: Duration,
    nodes: usize,
    edges: usize,
}

/// Median wall time of tiled map + tiled verify on a `c`x`c` array. Every
/// sample asserts the verifier is clean and that the largest index ever
/// built fits one tile at the achieved II — a full-fabric MRRG leaking into
/// the path fails the bench, not just slows it down.
fn measure_scale(name: &str, c: usize) -> Result<ScaleSample, String> {
    let kernel = kernel(name)?;
    let options = HiMapOptions::default();
    let mut last = None;
    let wall = sample(|| {
        let tiled = run_himap_tiled(&kernel, c, &options)
            .0
            .unwrap_or_else(|| panic!("{name} fails to tile-map on {c}x{c}"));
        let report = himap_verify::verify_tiled(&tiled);
        assert!(
            !report.has_errors(),
            "{name} {c}x{c} tiled mapping fails verification:\n{}",
            report.render_pretty()
        );
        let (tr, tc) = tiled.tile_shape();
        let iib = tiled
            .overrides()
            .values()
            .chain(std::iter::once(tiled.base()))
            .map(|m| m.stats().iib)
            .max()
            .unwrap_or(1)
            .max(1);
        let cap = tr * tc * (9 + tiled.spec().rf_size) * iib;
        let mem = tiled.memory();
        assert!(
            mem.nodes <= cap,
            "{name} {c}x{c}: index high-water of {} nodes exceeds the tile-scale cap \
             {cap} — the full-fabric MRRG leaked into the tiled path",
            mem.nodes
        );
        last = Some((tiled.base().spec().clone(), tiled.base().stats().iib, mem));
    });
    let (tile_spec, iib, mem) = last.ok_or("no scale sample ran")?;
    let index = median(
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(MrrgIndex::new(tile_spec.clone(), iib));
                start.elapsed()
            })
            .collect(),
    );
    Ok(ScaleSample { median: wall, index, nodes: mem.nodes, edges: mem.edges })
}

/// One gated row's verdict.
struct Verdict {
    surface: &'static str,
    name: String,
    fresh_ms: f64,
    limit_ms: f64,
    pass: bool,
    /// Surface-specific evidence (baseline, winner, IIs, index size).
    detail: String,
}

/// Re-measures every gated row of `doc` against `tolerance`.
fn gate_rows(doc: &himap_bench::check::Json, tolerance: f64) -> Result<Vec<Verdict>, String> {
    let (scaling, races) = (scaling_rows(doc)?, race_rows(doc)?);
    let (hets, scales) = (het_rows(doc)?, scale_rows(doc)?);
    let mut out = Vec::new();
    let verdict = |surface, name: String, fresh: Duration, limit: f64, ok: bool, detail| Verdict {
        surface,
        name,
        fresh_ms: ms(fresh),
        limit_ms: limit,
        pass: ok && ms(fresh) <= limit,
        detail,
    };
    for ScalingRow { kernel, cgra: c, median_ms, .. } in scaling.iter().filter(|r| r.check) {
        let fresh = measure_map(kernel, &CgraSpec::square(*c))?;
        let limit = limit_ms(*median_ms, tolerance);
        let detail = format!("baseline {median_ms:.3} ms");
        out.push(verdict("scaling", format!("{kernel} {c}x{c}"), fresh, limit, true, detail));
    }
    // Race wall time includes the losing backends' cancellation latency,
    // which is noisier than the solo-mapper rows — double the tolerance.
    for RaceRow { kernel, cgra: c, median_ms, winner, ii, .. } in races.iter().filter(|r| r.check) {
        let (fresh, got, got_ii) = measure_race(kernel, *c)?;
        let limit = limit_ms(*median_ms, tolerance * 2.0);
        let ok = got == winner && got_ii <= *ii;
        let detail =
            format!("baseline {median_ms:.3} ms, winner {got} II {got_ii} vs {winner} II {ii}");
        out.push(verdict("race", format!("{kernel} {c}x{c}"), fresh, limit, ok, detail));
    }
    // The gemm 8x8 scaling row doubles as the fault-free baseline the
    // empty-CapabilityMap run is held to.
    let base = scaling
        .iter()
        .find(|r| r.kernel == "gemm" && r.cgra == 8)
        .ok_or("baseline has no gemm 8x8 scaling row for the fault-overhead check")?;
    let fresh = measure_map("gemm", &CgraSpec::square(8).with_faults(CapabilityMap::new()))?;
    let limit = limit_ms(base.median_ms, FAULT_TOLERANCE);
    let detail = format!("baseline {:.3} ms, empty CapabilityMap, +2% + 2 ms", base.median_ms);
    out.push(verdict("fault-overhead", "gemm 8x8".into(), fresh, limit, true, detail));
    for HetRow { kernel, cgra: c, hom_ii, het_ii, median_ms, .. } in hets.iter().filter(|r| r.check)
    {
        let (got_hom, got_het, fresh) = measure_heterogeneity(kernel, *c)?;
        let limit = limit_ms(*median_ms, tolerance);
        let ok = got_hom <= *hom_ii && got_het <= *het_ii;
        let detail = format!(
            "baseline {median_ms:.3} ms, II hom {got_hom}/het {got_het} vs hom {hom_ii}/het {het_ii}"
        );
        out.push(verdict("heterogeneity", format!("{kernel} {c}x{c}"), fresh, limit, ok, detail));
    }
    // Mega-fabric rows: tolerance vs baseline plus two unconditional
    // promises — the 64x64 wall ceiling, and a non-growing index high-water
    // mark (the "never materialise the full MRRG" claim).
    for ScaleRow { kernel, cgra: c, median_ms, index_nodes, .. } in
        scales.iter().filter(|r| r.check)
    {
        let s = measure_scale(kernel, *c)?;
        let tol = limit_ms(*median_ms, tolerance);
        let limit = if *c == 64 { tol.min(MEGA_WALL_LIMIT_MS) } else { tol };
        let detail = format!(
            "baseline {median_ms:.3} ms, index {} nodes vs {index_nodes}, cold build {:.3} ms",
            s.nodes,
            ms(s.index)
        );
        let ok = s.nodes <= *index_nodes;
        out.push(verdict("mega-scale", format!("{kernel} {c}x{c}"), s.median, limit, ok, detail));
    }
    Ok(out)
}

/// `--gate <BENCH.json>` mode: re-measure every gated row, print the
/// verdict table and write `BENCH_verdict.json`.
fn run_gate(baseline_path: &str, tolerance: f64) -> Result<bool, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("cannot parse baseline {baseline_path}: {e}"))?;
    println!(
        "consolidated gate: tolerance {:.0}% + 2 ms (races double, fault overhead +2%, \
         64x64 wall < {MEGA_WALL_LIMIT_MS:.0} ms)",
        tolerance * 100.0
    );
    let verdicts = gate_rows(&doc, tolerance).map_err(|e| format!("{baseline_path}: {e}"))?;
    let mut rows = Vec::new();
    for v in &verdicts {
        println!(
            "{} {:<14} {:>22} {:>9.3} ms (limit {:>9.3} ms), {}",
            if v.pass { "PASS" } else { "FAIL" },
            v.surface,
            v.name,
            v.fresh_ms,
            v.limit_ms,
            v.detail
        );
        rows.push(format!(
            "    {{\"surface\": \"{}\", \"name\": \"{}\", \"fresh_ms\": {:.3}, \
             \"limit_ms\": {:.3}, \"pass\": {}}}",
            v.surface, v.name, v.fresh_ms, v.limit_ms, v.pass
        ));
    }
    let failures = verdicts.iter().filter(|v| !v.pass).count();
    let verdict_json = format!(
        "{{\n\
         \x20 \"gate\": \"consolidated\",\n\
         \x20 \"tolerance\": {tolerance},\n\
         \x20 \"rows_checked\": {},\n\
         \x20 \"failures\": {failures},\n\
         \x20 \"passed\": {},\n\
         \x20 \"rows\": [\n{}\n  ]\n\
         }}\n",
        verdicts.len(),
        failures == 0,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_verdict.json", &verdict_json)
        .map_err(|e| format!("could not write BENCH_verdict.json: {e}"))?;
    eprintln!("wrote BENCH_verdict.json ({} rows)", verdicts.len());
    if failures > 0 {
        eprintln!("consolidated gate FAILED: {failures} row(s)");
    } else {
        println!("consolidated gate passed");
    }
    Ok(failures == 0)
}

/// `--gate-baseline` mode: measure every surface and write `BENCH.json`.
/// Refuses to write a baseline that already breaks the unconditional 64x64
/// wall ceiling.
fn run_gate_generate() -> Result<(), String> {
    let check = |ms: f64| ms <= CHECK_BUDGET_MS;
    let mut scaling = Vec::new();
    for name in SCALING_KERNELS {
        for c in SCALING_SIZES {
            let t = ms(measure_map(name, &CgraSpec::square(c))?);
            eprintln!("  scaling {name} {c}x{c}: {t:.3} ms");
            scaling.push(format!(
                "    {{\"kernel\": \"{name}\", \"cgra\": \"{c}x{c}\", \"median_ms\": {t:.3}, \
                 \"check\": {}}}",
                check(t)
            ));
        }
    }
    let mut races = Vec::new();
    for (name, c) in RACE_CASES {
        let (t, winner, ii) = measure_race(name, c)?;
        let t = ms(t);
        eprintln!("  race {name} {c}x{c}: {t:.3} ms, winner {winner} (II {ii})");
        races.push(format!(
            "    {{\"kernel\": \"{name}\", \"cgra\": \"{c}x{c}\", \"median_ms\": {t:.3}, \
             \"winner\": \"{winner}\", \"ii\": {ii}, \"check\": {}}}",
            check(t)
        ));
    }
    let mut het = Vec::new();
    for (name, c) in HET_CASES {
        let (hom_ii, het_ii, t) = measure_heterogeneity(name, c)?;
        let t = ms(t);
        eprintln!("  het {name} {c}x{c}: {t:.3} ms, II hom {hom_ii} / het {het_ii}");
        het.push(format!(
            "    {{\"kernel\": \"{name}\", \"cgra\": \"{c}x{c}\", \"hom_ii\": {hom_ii}, \
             \"het_ii\": {het_ii}, \"median_ms\": {t:.3}, \"check\": {}}}",
            check(t)
        ));
    }
    let mut scale = Vec::new();
    for name in SCALE_KERNELS {
        for c in SCALE_SIZES {
            let s = measure_scale(name, c)?;
            let t = ms(s.median);
            if c == 64 && t >= MEGA_WALL_LIMIT_MS {
                return Err(format!(
                    "MEGA-SCALE PROMISE BROKEN: {name} 64x64 {t:.1} ms >= \
                     {MEGA_WALL_LIMIT_MS:.0} ms — refusing to write a baseline that fails \
                     its own gate"
                ));
            }
            let rss = peak_rss_kb().map_or("null".to_string(), |kb| kb.to_string());
            eprintln!(
                "  scale {name} {c}x{c}: {t:.3} ms, cold index {:.3} ms ({} nodes / {} edges), \
                 peak RSS {rss} kB",
                ms(s.index),
                s.nodes,
                s.edges
            );
            scale.push(format!(
                "    {{\"kernel\": \"{name}\", \"cgra\": \"{c}x{c}\", \"median_ms\": {t:.3}, \
                 \"index_ms\": {:.3}, \"index_nodes\": {}, \"index_edges\": {}, \
                 \"peak_rss_kb\": {rss}, \"check\": {}}}",
                ms(s.index),
                s.nodes,
                s.edges,
                check(t)
            ));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n\
         \x20 \"bench\": \"consolidated_gate\",\n\
         \x20 \"machine\": {{\"available_parallelism\": {cores}}},\n\
         \x20 \"protocol\": {{\"warmup\": {WARMUP}, \"samples\": {SAMPLES}, \
         \"statistic\": \"median\", \"check_budget_ms\": {CHECK_BUDGET_MS}, \
         \"mega_wall_limit_ms\": {MEGA_WALL_LIMIT_MS}}},\n\
         \x20 \"heterogeneous_fabric\": \"corner multipliers + edge-only memory\",\n\
         \x20 \"scaling\": [\n{}\n  ],\n\
         \x20 \"portfolio_race\": [\n{}\n  ],\n\
         \x20 \"heterogeneity\": [\n{}\n  ],\n\
         \x20 \"mega_scale\": [\n{}\n  ]\n\
         }}\n",
        scaling.join(",\n"),
        races.join(",\n"),
        het.join(",\n"),
        scale.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH.json", &json).map_err(|e| format!("could not write BENCH.json: {e}"))?;
    eprintln!("wrote BENCH.json");
    Ok(())
}

const USAGE: &str = "usage: bench_summary (--gate FILE [--tolerance X] | --gate-baseline)";

fn main() {
    let usage_error = |why: &str| -> ! {
        eprintln!("{why}\n{USAGE}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    let mut gate: Option<String> = None;
    let mut gate_baseline = false;
    let mut tolerance = 0.25f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                gate = Some(args.next().unwrap_or_else(|| usage_error("--gate requires a path")));
            }
            "--gate-baseline" => gate_baseline = true,
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or_else(|| usage_error("--tolerance requires a number (e.g. 0.25)"));
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let outcome = match (gate, gate_baseline) {
        (Some(path), false) => run_gate(&path, tolerance),
        (None, true) => run_gate_generate().map(|()| true),
        _ => usage_error("pick exactly one of --gate FILE and --gate-baseline"),
    };
    let code = match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("{why}");
            1
        }
    };
    std::process::exit(code);
}
