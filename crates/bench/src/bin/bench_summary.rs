//! The benchmark gate: one manifest (`BENCH.json`), one row schema, one
//! verdict table.
//!
//! `bench_summary --gate BENCH.json` re-measures every row of the manifest
//! the same way — map (or race) plus `verify_mapping`, 1 warmup, median of
//! 5 — judges it with [`judge`], prints one verdict line per row and writes
//! `BENCH_verdict.json`. This is the CI entrypoint.
//!
//! `bench_summary --gate-baseline` measures every row of [`ROWS`] with the
//! same protocol and writes a fresh `BENCH.json`.
//!
//! Run with `cargo run -p himap-bench --release --bin bench_summary -- ...`.

use std::time::{Duration, Instant};

use himap_bench::check::{
    judge, limit_rule, manifest, parse, rows, Backend, Fabric, Row, Sample, WHOLE_ARRAY_SIDE,
};
use himap_cgra::{CapabilityMap, CgraSpec, PeId};
use himap_core::backend::{race, BhcBackend, HiMapBackend, MapRequest};
use himap_core::{HiMap, HiMapOptions, Mapping};
use himap_exact::ExactBackend;
use himap_kernels::{suite, Kernel};

/// Measurement protocol of every row: one untimed warmup run, so that
/// first-run costs such as faulting in a fresh heap stay out of the
/// median, then the median of 5.
const WARMUP: usize = 1;
const SAMPLES: usize = 5;

/// Every gated row: kernel, array side, fabric, backend.
///
/// - The scaling matrix: three kernels on 4x4 and 8x8.
/// - The portfolio races: himap, bhc and exact under `FirstFeasible`. HiMap
///   wins both, so the backends after it never run.
/// - A multiply-free kernel on the capability-restricted 4x4.
/// - The whole-array rows: a block matched to the whole 64x64, pristine and
///   with the 8x8 corner dead.
const ROWS: [(&str, usize, Fabric, Backend); 13] = [
    ("gemm", 4, Fabric::Pristine, Backend::HiMap),
    ("gemm", 8, Fabric::Pristine, Backend::HiMap),
    ("bicg", 4, Fabric::Pristine, Backend::HiMap),
    ("bicg", 8, Fabric::Pristine, Backend::HiMap),
    ("floyd-warshall", 4, Fabric::Pristine, Backend::HiMap),
    ("floyd-warshall", 8, Fabric::Pristine, Backend::HiMap),
    ("mvt", 4, Fabric::Pristine, Backend::Race),
    ("gemm", 4, Fabric::Pristine, Backend::Race),
    ("stencil2d", 4, Fabric::Heterogeneous, Backend::HiMap),
    ("gemm", WHOLE_ARRAY_SIDE, Fabric::Pristine, Backend::HiMap),
    ("gemm", WHOLE_ARRAY_SIDE, Fabric::DeadCorner8, Backend::HiMap),
    ("floyd-warshall", WHOLE_ARRAY_SIDE, Fabric::Pristine, Backend::HiMap),
    ("floyd-warshall", WHOLE_ARRAY_SIDE, Fabric::DeadCorner8, Backend::HiMap),
];

/// A 10 s ceiling so a wedged backend fails the bench instead of hanging it.
const RACE_DEADLINE: Duration = Duration::from_secs(10);

/// The `c`x`c` array with `fabric`'s capability map installed.
fn spec(c: usize, fabric: Fabric) -> CgraSpec {
    let faults = match fabric {
        Fabric::Pristine => CapabilityMap::new(),
        Fabric::Heterogeneous => CapabilityMap::heterogeneous(c, c),
        Fabric::DeadCorner8 => {
            let mut faults = CapabilityMap::new();
            for x in 0..8 {
                for y in 0..8 {
                    faults.kill_pe(PeId::new(x, y));
                }
            }
            faults
        }
    };
    CgraSpec::square(c).with_faults(faults)
}

/// Maps `kernel` on `spec` with `backend`, returning the mapping and the
/// name of the backend that produced it.
fn map(kernel: &Kernel, spec: &CgraSpec, backend: Backend) -> Result<(Mapping, String), String> {
    match backend {
        Backend::HiMap => HiMap::new(HiMapOptions::default())
            .map(kernel, spec)
            .map(|mapping| (mapping, Backend::HiMap.name().to_string()))
            .map_err(|e| e.to_string()),
        Backend::Race => {
            let req = MapRequest::new(kernel.clone(), spec.clone()).with_deadline(RACE_DEADLINE);
            let himap = HiMapBackend::default();
            let bhc = BhcBackend::default().with_block(vec![2; kernel.dims()]);
            let backends: [&dyn himap_core::backend::Backend; 3] = [&himap, &bhc, &ExactBackend];
            let outcome = race(&backends, &req).map_err(|e| e.to_string())?;
            Ok((outcome.mapping, outcome.winner.to_string()))
        }
    }
}

/// Measures `row`'s key: map (or race) then `verify_mapping`, both timed,
/// one warmup and the median of [`SAMPLES`]. Every run must verify clean
/// and put no op slot or route step on a dead PE.
fn measure(row: &Row) -> Result<Sample, String> {
    let kernel = suite::by_name(&row.kernel).ok_or_else(|| format!("unknown kernel in {row}"))?;
    let spec = spec(row.cgra, row.fabric);
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last = Sample::default();
    for run in 0..WARMUP + SAMPLES {
        let start = Instant::now();
        let (mapping, winner) =
            map(&kernel, &spec, row.backend).map_err(|e| format!("{row}: {e}"))?;
        let report = himap_verify::verify_mapping(&mapping);
        let elapsed = start.elapsed();
        if report.has_errors() {
            return Err(format!("{row} fails verification:\n{}", report.render_pretty()));
        }
        let dead = |pe: PeId| spec.faults.pe_dead(pe);
        let on_dead = mapping.op_slots().values().filter(|slot| dead(slot.pe)).count()
            + mapping.routes().iter().flat_map(|r| &r.steps).filter(|(n, _)| dead(n.pe)).count();
        if on_dead > 0 {
            return Err(format!("{row}: {on_dead} op slots and route steps on dead PEs"));
        }
        if run >= WARMUP {
            times.push(elapsed);
        }
        last = Sample {
            median_ms: 0.0,
            ii: mapping.stats().iib,
            utilization: mapping.utilization(),
            index_nodes: mapping.pipeline_stats().memory.nodes,
            winner,
        };
    }
    times.sort_unstable();
    Ok(Sample { median_ms: times[SAMPLES / 2].as_secs_f64() * 1e3, ..last })
}

/// `--gate <BENCH.json>` mode: re-measure and judge every row, print the
/// verdict table and write `BENCH_verdict.json`.
fn run_gate(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let committed = parse(&text).and_then(|doc| rows(&doc)).map_err(|e| format!("{path}: {e}"))?;
    println!("gate: {} rows, limit {}", committed.len(), limit_rule());
    let mut verdicts = Vec::new();
    let mut failures = 0;
    for row in &committed {
        let fresh = measure(row)?;
        let broken = judge(row, &fresh);
        failures += usize::from(!broken.is_empty());
        let (b, f) = (&row.sample, &fresh);
        println!(
            "{} {row:<41} {:>9.3} ms (limit {:>9.3} ms), II {} vs {}, index {} vs {} nodes, \
             utilization {:.4} vs {:.4}, winner {} vs {}, verified clean, 0 dead-PE uses{}",
            if broken.is_empty() { "PASS" } else { "FAIL" },
            f.median_ms,
            row.limit_ms(),
            f.ii,
            b.ii,
            f.index_nodes,
            b.index_nodes,
            f.utilization,
            b.utilization,
            f.winner,
            b.winner,
            if broken.is_empty() { String::new() } else { format!(": {}", broken.join("; ")) }
        );
        let key = Row { sample: fresh, ..row.clone() }.to_json();
        verdicts.push(format!(
            "    {{\"row\": {key}, \"limit_ms\": {:.3}, \"pass\": {}}}",
            row.limit_ms(),
            broken.is_empty()
        ));
    }
    let verdict_json = format!(
        "{{\n  \"gate\": \"{path}\",\n  \"failures\": {failures},\n  \"rows\": [\n{}\n  ]\n}}\n",
        verdicts.join(",\n")
    );
    std::fs::write("BENCH_verdict.json", verdict_json)
        .map_err(|e| format!("could not write BENCH_verdict.json: {e}"))?;
    if failures > 0 {
        eprintln!("gate FAILED: {failures} row(s)");
    } else {
        println!("gate passed");
    }
    Ok(failures == 0)
}

/// `--gate-baseline` mode: measure every row of [`ROWS`] and write
/// `BENCH.json`. Refuses to write a baseline that fails its own gate.
fn run_gate_baseline() -> Result<(), String> {
    let mut fresh = Vec::new();
    for (kernel, cgra, fabric, backend) in ROWS {
        let mut row =
            Row { kernel: kernel.to_string(), cgra, fabric, backend, sample: Sample::default() };
        row.sample = measure(&row)?;
        eprintln!("  {}", row.to_json());
        let broken = judge(&row, &row.sample);
        if !broken.is_empty() {
            return Err(format!("{row} fails its own gate: {}", broken.join("; ")));
        }
        fresh.push(row);
    }
    let json = manifest(&fresh);
    print!("{json}");
    std::fs::write("BENCH.json", &json).map_err(|e| format!("could not write BENCH.json: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--gate", path] => run_gate(path),
        ["--gate-baseline"] => run_gate_baseline().map(|()| true),
        _ => {
            eprintln!("usage: bench_summary (--gate FILE | --gate-baseline)");
            std::process::exit(2);
        }
    };
    std::process::exit(match outcome {
        Ok(pass) => i32::from(!pass),
        Err(why) => {
            eprintln!("{why}");
            1
        }
    });
}
