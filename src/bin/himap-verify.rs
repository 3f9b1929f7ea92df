//! `himap-verify` — the standalone static verification driver.
//!
//! ```text
//! himap-verify <kernel> [--size N | --rows R --cols C] [--json]
//!                       [--baseline spr|sa] [--lint-only] [--file <path>]
//! ```
//!
//! Lints the kernel IR (K001–K002), maps it (HiMap by default, or a
//! baseline mapper with `--baseline`, whose placement and routes are
//! wrapped as a mapping), then re-derives the mapping's legality from
//! scratch (V001–V007, W101+). Exits non-zero on any Error-severity
//! diagnostic — the CI smoke gate.

use std::process::ExitCode;

use himap_repro::analyze::lint_diagnostics;
use himap_repro::baseline::{baseline_block, BaselineOptions, SaMapper, SprMapper};
use himap_repro::cgra::CgraSpec;
use himap_repro::core::{routed_mapping, HiMap, HiMapOptions};
use himap_repro::dfg::Dfg;
use himap_repro::kernels::{parse_kernel, suite, Kernel};
use himap_repro::verify::{verify_mapping, DiagnosticSink};

struct Args {
    kernel: Option<String>,
    file: Option<String>,
    rows: usize,
    cols: usize,
    json: bool,
    lint_only: bool,
    baseline: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: himap-verify <kernel> [--size N | --rows R --cols C] [--json] \
         [--baseline spr|sa] [--lint-only] [--file <path>]"
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
    let mut report = lint_diagnostics(&kernel);
    if !args.lint_only && !report.has_errors() {
        match verify_mapped(&args, &kernel) {
            Ok(mapping_report) => report.extend(mapping_report),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_pretty());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn verify_mapped(args: &Args, kernel: &Kernel) -> Result<DiagnosticSink, String> {
    let spec = CgraSpec::mesh(args.rows, args.cols).map_err(|e| e.to_string())?;
    match args.baseline.as_deref() {
        None => {
            // The in-pipeline hook would also reject a bad mapping, but the
            // driver wants the full diagnostic list, so it verifies itself.
            let options = HiMapOptions::default();
            let mapping =
                HiMap::new(options).map(kernel, &spec).map_err(|e| format!("himap: {e}"))?;
            Ok(verify_mapping(&mapping))
        }
        Some(which) => {
            let options = BaselineOptions::default();
            let block = baseline_block(kernel);
            let dfg = Dfg::build(kernel, &block).map_err(|e| e.to_string())?;
            let result = match which {
                "spr" => SprMapper::run(&dfg, &spec, &options),
                "sa" => SaMapper::run(&dfg, &spec, &options),
                other => return Err(format!("unknown baseline `{other}` (use spr or sa)")),
            }
            .map_err(|e| format!("baseline {which}: {e}"))?;
            let mapping =
                routed_mapping(&dfg, &spec, result.ii, &result.op_slots, result.routes, &block);
            Ok(verify_mapping(&mapping))
        }
    }
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        kernel: None,
        file: None,
        rows: 4,
        cols: 4,
        json: false,
        lint_only: false,
        baseline: None,
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
            "--json" => args.json = true,
            "--lint-only" => args.lint_only = true,
            "--baseline" => args.baseline = Some(it.next()?.clone()),
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

fn load_kernel(args: &Args) -> Result<Kernel, String> {
    if let Some(path) = &args.file {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse_kernel(&src).map_err(|e| e.to_string());
    }
    let name = args.kernel.as_deref().ok_or("no kernel given")?;
    suite::by_name(name).ok_or_else(|| format!("unknown kernel `{name}` (try `himap list`)"))
}
