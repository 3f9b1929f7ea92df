//! `himap-analyze` — the standalone static analysis driver.
//!
//! ```text
//! himap-analyze <kernel> [--size N | --rows R --cols C] [--block b1,b2,..]
//!               [--json] [--lint-only] [--file <path>]
//!               [--kill-pe X,Y] [--sever-link X,Y,N|E|S|W]
//!               [--disable-mem X,Y] [--fault-all-mems]
//!               [--only-mul-pes X,Y[;X,Y..]] [--mem-edge-only]
//! ```
//!
//! Lints the kernel IR (K001–K002), then runs the kernel-level and the
//! block-DFG-level static analyses (A001+) against the requested — possibly
//! faulted — fabric, printing certified MII lower bounds and feasibility
//! findings. No mapper runs and no MRRG is built. Exits non-zero on any
//! Error-severity diagnostic — the CI smoke/infeasibility gates.

use std::process::ExitCode;

use himap_analyze::{analyze_dfg, analyze_kernel, lint_diagnostics, AnalyzeOptions};
use himap_cgra::{CapabilityMap, CgraSpec, Dir, OpClass, PeId};
use himap_dfg::Dfg;
use himap_kernels::{parse_kernel, suite, Kernel};

struct Args {
    kernel: Option<String>,
    file: Option<String>,
    rows: usize,
    cols: usize,
    block: Option<Vec<usize>>,
    json: bool,
    lint_only: bool,
    kill_pes: Vec<PeId>,
    severed: Vec<(PeId, Dir)>,
    disabled_mems: Vec<PeId>,
    fault_all_mems: bool,
    only_mul_pes: Option<Vec<PeId>>,
    mem_edge_only: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: himap-analyze <kernel> [--size N | --rows R --cols C] \
         [--block b1,b2,..] [--json] [--lint-only] [--file <path>] \
         [--kill-pe X,Y] [--sever-link X,Y,N|E|S|W] [--disable-mem X,Y] \
         [--fault-all-mems] [--only-mul-pes X,Y[;X,Y..]] [--mem-edge-only]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let kernel = match load_kernel(&args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match build_spec(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let block = args.block.clone().unwrap_or_else(|| vec![2; kernel.dims()]);

    let lints = lint_diagnostics(&kernel);
    let mut report = lints.clone();
    let options = AnalyzeOptions::default();

    let kernel_analysis =
        if args.lint_only { None } else { Some(analyze_kernel(&kernel, &spec, &options)) };
    let dfg_analysis = if args.lint_only {
        None
    } else {
        match Dfg::build(&kernel, &block) {
            Ok(dfg) => Some(analyze_dfg(&dfg, &spec, &options)),
            Err(e) => {
                eprintln!("error: cannot unroll block {block:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(a) = &kernel_analysis {
        report.extend(a.diagnostics.clone());
    }
    if let Some(a) = &dfg_analysis {
        report.extend(a.diagnostics.clone());
    }

    if args.json {
        let mut fields = vec![
            format!("\"kernel\":\"{}\"", kernel.name()),
            format!("\"fabric\":[{},{}]", spec.rows, spec.cols),
            format!("\"faults\":{}", spec.faults.len()),
        ];
        if let Some(a) = &kernel_analysis {
            fields.push(format!("\"iteration_bounds\":{}", a.bounds.render_json()));
        }
        if let Some(a) = &dfg_analysis {
            let block_str: Vec<String> = block.iter().map(|b| b.to_string()).collect();
            fields.push(format!("\"block\":[{}]", block_str.join(",")));
            fields.push(format!("\"block_bounds\":{}", a.bounds.render_json()));
        }
        fields.push(format!("\"report\":{}", report.render_json()));
        println!("{{{}}}", fields.join(","));
    } else {
        println!(
            "static analysis: {} on {}x{} ({} fault(s))",
            kernel.name(),
            spec.rows,
            spec.cols,
            spec.faults.len()
        );
        if let Some(a) = &kernel_analysis {
            println!("  per-iteration: {}", a.bounds);
        }
        if let Some(a) = &dfg_analysis {
            println!("  block {block:?}: {}", a.bounds);
        }
        print!("{}", report.render_pretty());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn build_spec(args: &Args) -> Result<CgraSpec, String> {
    let spec = CgraSpec::mesh(args.rows, args.cols).map_err(|e| e.to_string())?;
    let mut faults = CapabilityMap::new();
    for &pe in &args.kill_pes {
        check_pe(&spec, pe)?;
        faults.kill_pe(pe);
    }
    for &(pe, dir) in &args.severed {
        check_pe(&spec, pe)?;
        faults.sever_link(pe, dir);
    }
    for &pe in &args.disabled_mems {
        check_pe(&spec, pe)?;
        faults.disable_mem(pe);
    }
    if args.fault_all_mems {
        for pe in spec.pes() {
            faults.disable_mem(pe);
        }
    }
    if let Some(mul_pes) = &args.only_mul_pes {
        for &pe in mul_pes {
            check_pe(&spec, pe)?;
        }
        for pe in spec.pes() {
            if !mul_pes.contains(&pe) {
                faults.restrict(pe, &[OpClass::Alu, OpClass::Mem]);
            }
        }
    }
    if args.mem_edge_only {
        // Same interior set as `CapabilityMap::mem_edge_only`, intersected
        // into whatever the other flags already imposed.
        for pe in CapabilityMap::mem_edge_only(args.rows, args.cols).restricted_pes() {
            faults.restrict(pe, &[OpClass::Alu, OpClass::Mul]);
        }
    }
    Ok(spec.with_faults(faults))
}

fn check_pe(spec: &CgraSpec, pe: PeId) -> Result<(), String> {
    if spec.contains(pe) {
        Ok(())
    } else {
        Err(format!("PE {pe} lies outside the {}x{} array", spec.rows, spec.cols))
    }
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        kernel: None,
        file: None,
        rows: 4,
        cols: 4,
        block: None,
        json: false,
        lint_only: false,
        kill_pes: Vec::new(),
        severed: Vec::new(),
        disabled_mems: Vec::new(),
        fault_all_mems: false,
        only_mul_pes: None,
        mem_edge_only: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                let n: usize = it.next()?.parse().ok()?;
                args.rows = n;
                args.cols = n;
            }
            "--rows" => args.rows = it.next()?.parse().ok()?,
            "--cols" => args.cols = it.next()?.parse().ok()?,
            "--block" => {
                let spec = it.next()?;
                let block: Option<Vec<usize>> =
                    spec.split(',').map(|b| b.trim().parse().ok()).collect();
                args.block = Some(block?);
            }
            "--json" => args.json = true,
            "--lint-only" => args.lint_only = true,
            "--kill-pe" => args.kill_pes.push(parse_pe(it.next()?)?),
            "--sever-link" => args.severed.push(parse_link(it.next()?)?),
            "--disable-mem" => args.disabled_mems.push(parse_pe(it.next()?)?),
            "--fault-all-mems" => args.fault_all_mems = true,
            "--only-mul-pes" => {
                let list: Option<Vec<PeId>> = it.next()?.split(';').map(parse_pe).collect();
                args.only_mul_pes = Some(list?);
            }
            "--mem-edge-only" => args.mem_edge_only = true,
            "--file" => args.file = Some(it.next()?.clone()),
            other if !other.starts_with('-') && args.kernel.is_none() => {
                args.kernel = Some(other.to_string());
            }
            _ => return None,
        }
    }
    if args.kernel.is_none() && args.file.is_none() {
        return None;
    }
    Some(args)
}

fn parse_pe(text: &str) -> Option<PeId> {
    let (x, y) = text.split_once(',')?;
    Some(PeId::new(x.trim().parse().ok()?, y.trim().parse().ok()?))
}

fn parse_link(text: &str) -> Option<(PeId, Dir)> {
    let mut parts = text.split(',');
    let x = parts.next()?.trim().parse().ok()?;
    let y = parts.next()?.trim().parse().ok()?;
    let dir = match parts.next()?.trim().to_ascii_uppercase().as_str() {
        "N" | "NORTH" => Dir::North,
        "E" | "EAST" => Dir::East,
        "S" | "SOUTH" => Dir::South,
        "W" | "WEST" => Dir::West,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((PeId::new(x, y), dir))
}

fn load_kernel(args: &Args) -> Result<Kernel, String> {
    if let Some(path) = &args.file {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse_kernel(&src).map_err(|e| e.to_string());
    }
    let name = args.kernel.as_deref().ok_or("no kernel given")?;
    suite::by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))
}
