//! The consolidated benchmark gate: one manifest (`BENCH.json`), one
//! verdict table.
//!
//! `bench_summary --gate BENCH.json [--tolerance 0.25]` re-measures every
//! gated row of the manifest — the sequential scaling rows, the portfolio
//! races, the fault-model overhead check, the heterogeneity rows and the
//! whole-array rows — prints one verdict line per row, and writes
//! `BENCH_verdict.json`. A row fails when its fresh median exceeds
//! `baseline * (1 + tolerance) + 2 ms`, or when a deterministic companion
//! value (race winner and II, heterogeneous IIs, window index size,
//! utilization) got worse. This is the CI entrypoint.
//!
//! `bench_summary --gate-baseline` measures every surface with the same
//! protocol (1 warmup run, median of 5) and writes a fresh `BENCH.json`.
//!
//! Run with `cargo run -p himap-bench --release --bin bench_summary -- ...`.

use std::time::{Duration, Instant};

use himap_bench::check::{
    array_rows, het_rows, limit_ms, parse, race_rows, scaling_rows, ArrayRow, HetRow, RaceRow,
    ScalingRow,
};
use himap_cgra::{CapabilityMap, CgraSpec, PeId};
use himap_core::backend::{race, Backend, BhcBackend, HiMapBackend, MapRequest};
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
/// every row; the row's metric is the whole race's wall time — admission
/// plus the winner's latency, since the backends after it never run.
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

/// The whole-array workload: the main path maps a block matched to the
/// whole 64x64 array and the verifier re-derives it, on the pristine fabric
/// and with every PE of the corner `(0..8, 0..8)` dead.
const ARRAY_KERNELS: [&str; 2] = ["gemm", "floyd-warshall"];
const ARRAY_SIDE: usize = 64;
const DEAD_CORNERS: [usize; 2] = [0, 8];

/// Unconditional wall ceiling on every 64x64 row, independent of the
/// committed baseline: a 64x64 map+verify that takes a second has lost
/// the scalability argument even if the baseline drifted with it. The
/// ceiling also bounds what a whole-array row costs the gate, so those rows
/// are always checked, whatever [`CHECK_BUDGET_MS`] says.
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
    let exact = ExactBackend;
    let backends: [&dyn Backend; 3] = [&himap, &bhc, &exact];
    let mut last = ("", 0);
    let t = sample(|| {
        let outcome = race(&backends, &req)
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

/// One measured whole-array point.
struct ArraySample {
    median: Duration,
    /// `PipelineStats::memory.nodes`: the largest window index the walk
    /// routed on.
    nodes: usize,
    utilization: f64,
    block: Vec<usize>,
}

/// The `c`x`c` fabric with every PE of the corner `(0..dead, 0..dead)` dead.
fn corner_faulted(c: usize, dead: usize) -> CgraSpec {
    let mut faults = CapabilityMap::new();
    for x in 0..dead {
        for y in 0..dead {
            faults.kill_pe(PeId::new(x, y));
        }
    }
    CgraSpec::square(c).with_faults(faults)
}

/// Median wall time of `HiMap::map` + `verify_mapping` on the `c`x`c`
/// fabric with a dead corner of side `dead`. Every sample asserts that the
/// mapping verifies clean and that no op slot or route step sits on a dead
/// PE.
fn measure_array(name: &str, c: usize, dead: usize) -> Result<ArraySample, String> {
    let kernel = kernel(name)?;
    let spec = corner_faulted(c, dead);
    let himap = HiMap::new(HiMapOptions::default());
    let mut last = None;
    let wall = sample(|| {
        let mapping = himap
            .map(&kernel, &spec)
            .unwrap_or_else(|e| panic!("{name} fails to map on {c}x{c}, dead corner {dead}: {e}"));
        let report = himap_verify::verify_mapping(&mapping);
        assert!(
            !report.has_errors(),
            "{name} {c}x{c}, dead corner {dead}: mapping fails verification:\n{}",
            report.render_pretty()
        );
        let dead_pe = |pe: PeId| spec.faults.pe_dead(pe);
        let on_dead = mapping.op_slots().values().filter(|slot| dead_pe(slot.pe)).count()
            + mapping.routes().iter().flat_map(|r| &r.steps).filter(|(n, _)| dead_pe(n.pe)).count();
        assert_eq!(on_dead, 0, "{name} {c}x{c}: {on_dead} op slots and route steps on dead PEs");
        last = Some((
            mapping.pipeline_stats().memory.nodes,
            mapping.utilization(),
            mapping.stats().block.clone(),
        ));
    });
    let (nodes, utilization, block) = last.ok_or("no whole-array sample ran")?;
    Ok(ArraySample { median: wall, nodes, utilization, block })
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
    let (hets, arrays) = (het_rows(doc)?, array_rows(doc)?);
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
    // Race rows keep the doubled tolerance of their baselines, which were
    // recorded when the losing backends still ran and were cancelled.
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
    // Whole-array rows: tolerance vs baseline under the unconditional 64x64
    // wall ceiling, and a window index and utilization no worse than
    // committed.
    for row in arrays.iter().filter(|r| r.check) {
        let ArrayRow { kernel, cgra: c, dead_corner, median_ms, index_nodes, utilization, .. } =
            row;
        let s = measure_array(kernel, *c, *dead_corner)?;
        let tol = limit_ms(*median_ms, tolerance);
        let limit = if *c == 64 { tol.min(MEGA_WALL_LIMIT_MS) } else { tol };
        let detail = format!(
            "baseline {median_ms:.3} ms, index {} nodes vs {index_nodes}, utilization {:.4} vs \
             {utilization:.4}, block {:?}, verified clean, 0 dead-PE uses",
            s.nodes, s.utilization, s.block
        );
        let ok = s.nodes <= *index_nodes && s.utilization >= *utilization;
        let name = match dead_corner {
            0 => format!("{kernel} {c}x{c}"),
            k => format!("{kernel} {c}x{c} dead {k}x{k}"),
        };
        out.push(verdict("whole-array", name, s.median, limit, ok, detail));
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
            "{} {:<14} {:>29} {:>9.3} ms (limit {:>9.3} ms), {}",
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
    let mut arrays = Vec::new();
    for name in ARRAY_KERNELS {
        for dead in DEAD_CORNERS {
            let s = measure_array(name, ARRAY_SIDE, dead)?;
            let t = ms(s.median);
            if t >= MEGA_WALL_LIMIT_MS {
                return Err(format!(
                    "WHOLE-ARRAY PROMISE BROKEN: {name} {ARRAY_SIDE}x{ARRAY_SIDE} dead corner \
                     {dead}: {t:.1} ms >= {MEGA_WALL_LIMIT_MS:.0} ms — refusing to write a \
                     baseline that fails its own gate"
                ));
            }
            eprintln!(
                "  whole-array {name} {ARRAY_SIDE}x{ARRAY_SIDE} dead corner {dead}: {t:.3} ms, \
                 index {} nodes, utilization {}, block {:?}",
                s.nodes, s.utilization, s.block
            );
            arrays.push(format!(
                "    {{\"kernel\": \"{name}\", \"cgra\": \"{ARRAY_SIDE}x{ARRAY_SIDE}\", \
                 \"dead_corner\": {dead}, \"median_ms\": {t:.3}, \"index_nodes\": {}, \
                 \"utilization\": {}, \"check\": true}}",
                s.nodes, s.utilization
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
         \x20 \"whole_array\": [\n{}\n  ]\n\
         }}\n",
        scaling.join(",\n"),
        races.join(",\n"),
        het.join(",\n"),
        arrays.join(",\n"),
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
