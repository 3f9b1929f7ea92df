//! The HiMap benchmark program. `run.py` drives it; every call is one
//! fresh process, so the process-wide `MrrgIndex::shared` cache starts
//! cold exactly as it does for each `himap map` call. Each subcommand
//! prints one JSON object as its last line of standard output.
//!
//! ```text
//! himap-perfbench sample <workload> <seed>
//! himap-perfbench root   <workload> <seed>
//! himap-perfbench replay <workload> <seed> <winner>...
//! ```
//!
//! - `sample` compiles every item of the workload untraced through
//!   `HiMap::map_with_stats`, then checks each output with the static
//!   verifier and the cycle-accurate simulator.
//! - `root` compiles every item with a span around each `map_with_stats`
//!   call and prints each winner (sub-CGRA shape, block, fingerprint) and
//!   its `PipelineStats` counters.
//! - `replay` takes those winners and re-runs each one layer by layer
//!   through the layers' public functions (see `replay.rs`).

mod json;
mod replay;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use himap_core::{HiMap, Mapping};
use himap_sim::{simulate, SimReport};
use himap_verify::verify_mapping;

use json::Obj;

const USAGE: &str = "usage: himap-perfbench <sample|root|replay> <workload> <seed> [winner...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [command, workload, seed, rest @ ..] => match seed.parse::<u64>() {
            Ok(seed) => match (command.as_str(), rest) {
                ("sample", []) => sample(workload, seed),
                ("root", []) => root(workload),
                ("replay", winners) => replay::run(workload, seed, winners),
                _ => Err(USAGE.to_string()),
            },
            Err(_) => Err(format!("seed `{seed}` is not an unsigned integer")),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("himap-perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// The checks of a sample repeat, for timing only, until they have taken
/// this much CPU time in all or have run `MAX_CHECK_PASSES` times; the
/// median pass is reported. Cheap checks are otherwise too short to time.
const CHECK_BUDGET_S: f64 = 0.5;
const MAX_CHECK_PASSES: usize = 5;

/// Compiles every item once, then verifies and simulates each output.
/// Times are process CPU time ([`cpu_s`]). An item that fails to map, to
/// verify or to simulate is recorded in `failures` and the run goes on.
fn sample(workload: &str, seed: u64) -> Result<String, String> {
    let items = workload::items(workload)?;
    // From process start to the first compile call: exec, loading, input
    // generation and building kernels, specs and fault maps.
    let setup_s = cpu_s();
    let mut compile_s = 0.0;
    let mut failures: Vec<String> = Vec::new();
    let mut mappings = Vec::new();
    for item in &items {
        let start = cpu_s();
        let mapped = catch_unwind(AssertUnwindSafe(|| {
            HiMap::new(item.options.clone()).map_with_stats(&item.kernel, &item.spec).0
        }));
        compile_s += cpu_s() - start;
        match mapped {
            Ok(Ok(mapping)) => mappings.push(mapping),
            Ok(Err(err)) => failures.push(format!("{}: map: {err}", item.kernel.name())),
            Err(_) => failures.push(format!("{}: map: panicked", item.kernel.name())),
        }
    }
    let mut wrong = 0usize;
    let mut utilization = Vec::new();
    let (mut sim_cycles, mut config_slots) = (0i64, 0usize);
    let (mut verify_passes, mut simulate_passes) = (Vec::new(), Vec::new());
    while verify_passes.len() < MAX_CHECK_PASSES
        && verify_passes.iter().chain(&simulate_passes).sum::<f64>() < CHECK_BUDGET_S
    {
        let first = verify_passes.is_empty();
        let (mut verify_s, mut simulate_s) = (0.0, 0.0);
        for mapping in &mappings {
            let checked = check(mapping, seed, &mut verify_s, &mut simulate_s);
            match checked {
                Ok(report) if first => {
                    utilization.push(mapping.utilization());
                    sim_cycles += report.cycles;
                    config_slots += mapping.stats().max_config_slots;
                }
                Err(why) if first => {
                    wrong += 1;
                    failures.push(format!("{}: {why}", mapping.dfg().kernel().name()));
                }
                _ => {}
            }
        }
        verify_passes.push(verify_s);
        simulate_passes.push(simulate_s);
    }
    let mean_utilization = if utilization.is_empty() {
        0.0
    } else {
        utilization.iter().sum::<f64>() / utilization.len() as f64
    };
    Ok(Obj::default()
        .num("setup_s", setup_s)
        .num("compile_s", compile_s)
        .num("verify_s", median(verify_passes))
        .num("simulate_s", median(simulate_passes))
        .num("peak_rss_mb", peak_rss_mb())
        .num("attempted", items.len() as f64)
        .num("wrong", wrong as f64)
        .raw("failures", json::array(failures.iter().map(|f| json::quote(f))))
        .num("utilization", mean_utilization)
        .num("sim_cycles", sim_cycles as f64)
        .num("config_slots", config_slots as f64)
        .finish())
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Checks one output: no verifier error, and the simulator reproduces the
/// reference interpreter on inputs drawn from `seed`. Adds the time each
/// check took to `verify_s` / `simulate_s`.
fn check(
    mapping: &Mapping,
    seed: u64,
    verify_s: &mut f64,
    simulate_s: &mut f64,
) -> Result<SimReport, String> {
    let start = cpu_s();
    let verified = catch_unwind(AssertUnwindSafe(|| verify_mapping(mapping)));
    *verify_s += cpu_s() - start;
    match verified {
        Ok(report) if report.has_errors() => {
            return Err(format!("verify: {}", report.render_pretty()));
        }
        Ok(_) => {}
        Err(_) => return Err("verify: panicked".to_string()),
    }
    let start = cpu_s();
    let simulated = catch_unwind(AssertUnwindSafe(|| simulate(mapping, seed)));
    *simulate_s += cpu_s() - start;
    match simulated {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(err)) => Err(format!("simulate: {err}")),
        Err(_) => Err("simulate: panicked".to_string()),
    }
}

/// Compiles every item with a span around each `map_with_stats` call and
/// reports each winner for `replay`, with the walk's `PipelineStats`
/// counters.
fn root(workload: &str) -> Result<String, String> {
    let items = workload::items(workload)?;
    let mut rows = Vec::new();
    for item in &items {
        let start = cpu_s();
        let (result, stats) =
            HiMap::new(item.options.clone()).map_with_stats(&item.kernel, &item.spec);
        let root_s = cpu_s() - start;
        let (winner, error) = match &result {
            Ok(mapping) => (winner_label(mapping), String::new()),
            Err(err) => ("-".to_string(), err.to_string()),
        };
        rows.push(
            Obj::default()
                .str("kernel", item.kernel.name())
                .num("root_s", root_s)
                .str("winner", &winner)
                .str("error", &error)
                .num("candidates_tried", stats.candidates_tried as f64)
                .num("candidates_pruned", stats.candidates_pruned as f64)
                .num("route_attempts", stats.route_attempts as f64)
                .num("replication_rounds", stats.replication_rounds as f64)
                .finish(),
        );
    }
    Ok(Obj::default().raw("items", json::array(rows)).finish())
}

/// `s1,s2,t:b1xb2x..:fingerprint` — what `replay` needs to re-run a winner
/// and to check that it rebuilt the same mapping.
fn winner_label(mapping: &Mapping) -> String {
    let (s1, s2, t) = mapping.stats().sub_shape;
    let block: Vec<String> = mapping.stats().block.iter().map(usize::to_string).collect();
    format!("{s1},{s2},{t}:{}:{:016x}", block.join("x"), fingerprint(mapping))
}

/// A 64-bit FNV-1a hash of everything a mapping decides: each op's slot,
/// each route's steps and the shape statistics. Mappings that place or
/// route differently get different fingerprints, barring a hash collision.
pub fn fingerprint(mapping: &Mapping) -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut slots: Vec<_> = mapping.op_slots().iter().map(|(n, s)| (n.index(), *s)).collect();
    slots.sort_by_key(|&(node, _)| node);
    let mut routes: Vec<_> = mapping.routes().iter().collect();
    routes.sort_by_key(|r| r.edge.index());
    let stats = mapping.stats();
    // Writing into the hasher cannot fail.
    let _ = write!(
        hash,
        "{:?}|{}|{}|{}|{}|{:?}",
        stats.sub_shape,
        stats.unique_iterations,
        stats.iterations_per_spe,
        stats.iib,
        stats.max_config_slots,
        stats.block
    );
    for (node, slot) in slots {
        let _ = write!(hash, "|{node}:{slot:?}");
    }
    for route in routes {
        let _ = write!(hash, "|{}:{:?}", route.edge.index(), route.steps);
    }
    hash.0
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user and system) of the whole process so far, in seconds,
/// all threads included, exited ones too. Every time the benchmark reports
/// is a difference of this clock rather than of wall time: on a virtual
/// machine the hypervisor steals CPU from the guest, which wall time counts
/// and this clock does not. For a compile with a core to itself the two
/// agree, up to the overlap of the sharded index build's threads.
pub fn cpu_s() -> f64 {
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer, which points at a live,
    // exclusively borrowed `Timespec` of that layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if rc != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// The process's peak resident memory (`VmHWM`) in MB of 2^20 bytes, 0
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    hwm_kb() as f64 / 1024.0
}

/// `VmHWM` from `/proc/self/status`, in KiB.
pub fn hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
