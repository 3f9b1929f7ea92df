//! Benchmark harness regenerating every table and figure of the HiMap paper.
//!
//! Each evaluation artefact has a binary:
//!
//! | Artefact | Binary | What it prints |
//! |----------|--------|----------------|
//! | Table I  | `table1` | kernel categorization by dimensionality × deps |
//! | Table II | `table2` | kernel characteristics + measured unique iterations |
//! | Fig. 7   | `fig7`   | utilization / MOPS / MOPS-per-mW, BHC vs HiMap, per CGRA size |
//! | Fig. 8   | `fig8`   | compilation time vs block size, BHC vs HiMap; checker cost per HiMap point |
//!
//! Run with `cargo run -p himap-bench --release --bin <name>`. All runs are
//! deterministic (fixed seeds). `EXPERIMENTS.md` records the outputs next to
//! the paper's numbers.

#![forbid(unsafe_code)]

pub mod check;

use std::time::{Duration, Instant};

use himap_baseline::{baseline_block, bhc, BaselineOptions, BhcResult};
use himap_cgra::{CgraSpec, PowerModel};
use himap_core::{HiMap, HiMapOptions, Mapping, PipelineStats};
use himap_dfg::Dfg;
use himap_kernels::Kernel;

/// One measured point of the HiMap-vs-BHC comparison.
#[derive(Clone, Debug)]
pub struct ComparisonPoint {
    /// Kernel name.
    pub kernel: String,
    /// CGRA side length `c` (array is `c × c`).
    pub cgra: usize,
    /// HiMap utilization (0 if mapping failed).
    pub himap_util: f64,
    /// HiMap compile time.
    pub himap_time: Duration,
    /// Best-of-baselines utilization (0 if both failed).
    pub bhc_util: f64,
    /// Combined baseline compile time.
    pub bhc_time: Duration,
}

impl ComparisonPoint {
    /// Throughput in MOPS at a utilization on a `c × c` CGRA (Fig. 7
    /// middle).
    pub fn mops(c: usize, util: f64) -> f64 {
        PowerModel::cmos40nm().throughput_mops(&CgraSpec::square(c), util)
    }

    /// Power efficiency in MOPS/mW (Fig. 7 bottom). Zero-utilization
    /// mappings burn static power for nothing: efficiency 0.
    pub fn mops_per_mw(c: usize, util: f64) -> f64 {
        if util <= 0.0 {
            return 0.0;
        }
        PowerModel::cmos40nm().efficiency_mops_per_mw(&CgraSpec::square(c), util)
    }
}

/// Runs HiMap on a kernel/CGRA pair, returning the mapping and compile time.
pub fn run_himap(kernel: &Kernel, c: usize, options: &HiMapOptions) -> (Option<Mapping>, Duration) {
    let (mapping, _, time) = run_himap_with_stats(kernel, c, options);
    (mapping, time)
}

/// [`run_himap`], additionally returning the pipeline instrumentation —
/// populated for failed mappings too, so the binaries can print where an
/// unmappable point's candidates died.
pub fn run_himap_with_stats(
    kernel: &Kernel,
    c: usize,
    options: &HiMapOptions,
) -> (Option<Mapping>, PipelineStats, Duration) {
    let start = Instant::now();
    let (result, stats) = HiMap::new(options.clone()).map_with_stats(kernel, &CgraSpec::square(c));
    (result.ok(), stats, start.elapsed())
}

/// Runs the combined baseline over every block size it can scale to (all
/// uniform extents whose DFG stays under the node limit), keeping the best
/// utilization — what a user of those compilers would do by hand. The
/// paper's observation stands regardless of block choice: ops are capped at
/// a few hundred, so utilization collapses on large arrays.
pub fn run_bhc(kernel: &Kernel, c: usize, options: &BaselineOptions) -> (BhcResult, Duration) {
    let max_block = baseline_block(kernel);
    let start = Instant::now();
    let mut best: Option<BhcResult> = None;
    let extents: Vec<usize> = (2..=max_block[0]).collect();
    let per_block =
        options.timeout.checked_div(extents.len().max(1) as u32).unwrap_or(options.timeout);
    for extent in extents {
        let block = vec![extent; kernel.dims()];
        let Ok(dfg) = Dfg::build(kernel, &block) else { continue };
        let point_options = BaselineOptions { timeout: per_block };
        let result = bhc(&dfg, &CgraSpec::square(c), &point_options);
        let better = match &best {
            None => true,
            Some(b) => result.best_utilization() > b.best_utilization(),
        };
        if better {
            best = Some(result);
        }
    }
    let result = best.unwrap_or(BhcResult {
        spr: Err(himap_baseline::BaselineFailure::NoValidMapping),
        sa: Err(himap_baseline::BaselineFailure::NoValidMapping),
    });
    (result, start.elapsed())
}

/// Measures one HiMap-vs-BHC comparison point (one bar group of Fig. 7).
pub fn compare(
    kernel: &Kernel,
    c: usize,
    himap_options: &HiMapOptions,
    baseline_options: &BaselineOptions,
) -> ComparisonPoint {
    let (mapping, himap_time) = run_himap(kernel, c, himap_options);
    let (bhc_result, bhc_time) = run_bhc(kernel, c, baseline_options);
    ComparisonPoint {
        kernel: kernel.name().to_string(),
        cgra: c,
        himap_util: mapping.map_or(0.0, |m| m.utilization()),
        himap_time,
        bhc_util: bhc_result.best_utilization(),
        bhc_time,
    }
}

/// The process's peak resident set (`VmHWM`) in KiB, where procfs has it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Renders rows as a markdown table with right-aligned numeric columns.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    out.push_str(&format!(
        "|{}|\n",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The CGRA sizes of Fig. 7.
pub const FIG7_SIZES: [usize; 4] = [4, 8, 16, 32];

/// Baseline options used by the figure generators: the paper's 3-day budget
/// scaled down to keep a full figure run in minutes.
pub fn figure_baseline_options() -> BaselineOptions {
    BaselineOptions { timeout: Duration::from_secs(20) }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    #[test]
    fn compare_produces_sane_point() {
        let point =
            compare(&suite::gemm(), 4, &HiMapOptions::default(), &figure_baseline_options());
        assert_eq!(point.kernel, "gemm");
        assert!(point.himap_util > 0.0);
        assert!(point.himap_util >= point.bhc_util, "HiMap must dominate");
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|-"));
    }

    #[test]
    fn power_metrics_monotone_in_utilization() {
        let low = ComparisonPoint::mops_per_mw(8, 0.1);
        let high = ComparisonPoint::mops_per_mw(8, 1.0);
        assert!(high > low);
        assert_eq!(ComparisonPoint::mops_per_mw(8, 0.0), 0.0);
        assert!(ComparisonPoint::mops(8, 1.0) > ComparisonPoint::mops(4, 1.0));
    }
}
