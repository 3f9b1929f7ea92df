//! Options and errors of the HiMap pipeline, including the structured
//! failure trail ([`MapReport`]) of a deadline-cut walk or a failed
//! [`race`](crate::race).

use std::error::Error;
use std::fmt;
use std::time::Duration;

use himap_analyze::StaticBounds;

use crate::backend::BackendOutcome;

/// Tuning options for [`HiMap`](crate::HiMap).
#[derive(Clone, Debug)]
pub struct HiMapOptions {
    /// Extents tried for loop dims that are not mapped to VSA space (the
    /// paper's user-supplied `(b3, …, bl)`), and for a space dim collapsed
    /// by a 1-wide VSA. Tried in order; smaller extents shorten register
    /// dwell times for 4-D kernels at the cost of block size.
    pub free_extents: Vec<usize>,
    /// Extra time depth explored beyond the resource minimum in `MAP()`
    /// (the paper's `t0` range).
    pub max_time_slack: usize,
    /// PathFinder negotiation rounds for both `MAP()` and `ROUTE()`.
    pub pathfinder_rounds: usize,
    /// How many sub-CGRA mappings to try before giving up (best-utilization
    /// first).
    pub max_sub_candidates: usize,
    /// How many systolic `(H, S)` candidates to try per sub-CGRA mapping.
    pub max_systolic_candidates: usize,
    /// Replication-aware negotiation rounds: replica conflicts feed back
    /// into representative routing as history costs this many times before
    /// the candidate is abandoned.
    pub replication_feedback_rounds: usize,
    /// Order ready operations deepest-first during `MAP()` placement
    /// (list scheduling by height). This interleaves producers with their
    /// consumers and cuts register pressure, letting several kernels reach
    /// 100 % utilization where the paper reports less (ADI 83 %, BiCG 66 %).
    /// Setting it to `false` reproduces the paper's exact utilization
    /// profile — see the `ablation` benchmark binary.
    pub depth_priority_scheduling: bool,
    /// Wall-clock budget for one `map` call, enforced cooperatively: the
    /// deadline is checked between candidates and pipeline phases, and
    /// threaded into every Dijkstra pop loop through the router's
    /// [`CancelToken`](himap_mapper::CancelToken), so the call returns
    /// within a poll interval of the budget — never mid-resource. `None`
    /// (the default) runs without a budget. An exceeded deadline surfaces as
    /// [`HiMapError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// The structured trail of a failed (or deadline-cut) mapping run: every
/// backend that took a turn in a [`race`](crate::race), with its failure
/// cause and elapsed time — infeasibility as evidence instead of a bare
/// error. A walk cut by its own deadline reports an empty trail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapReport {
    /// The backends that took a turn, in priority order.
    pub outcomes: Vec<BackendOutcome>,
    /// Total wall time of the run.
    pub elapsed: Duration,
    /// The pre-mapping static bounds (`himap-analyze`): the certified II
    /// floor every backend was up against. Boxed to keep `HiMapError`
    /// (which carries a `MapReport`) small.
    pub static_bounds: Option<Box<StaticBounds>>,
}

impl fmt::Display for MapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempt(s) in {:.1} ms",
            self.outcomes.len(),
            self.elapsed.as_secs_f64() * 1e3
        )?;
        if let Some(bounds) = &self.static_bounds {
            write!(f, "\n  static {bounds}")?;
        }
        for outcome in &self.outcomes {
            write!(f, "\n  {outcome}")?;
        }
        Ok(())
    }
}

impl Default for HiMapOptions {
    fn default() -> Self {
        HiMapOptions {
            free_extents: vec![4, 2],
            max_time_slack: 3,
            pathfinder_rounds: 24,
            max_sub_candidates: 24,
            max_systolic_candidates: 4,
            replication_feedback_rounds: 6,
            depth_priority_scheduling: true,
            deadline: None,
        }
    }
}

/// Errors produced by the HiMap pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum HiMapError {
    /// The kernel has more loop levels than supported.
    UnsupportedKernel(String),
    /// `MAP()` found no sub-CGRA mapping for any candidate shape.
    NoSubMapping,
    /// No valid systolic space-time mapping exists for any candidate
    /// sub-CGRA shape.
    NoSystolicMapping,
    /// Detailed routing failed for every candidate combination.
    RoutingFailed,
    /// DFG construction failed.
    Dfg(String),
    /// The `himap-analyze` admission check proved the request statically
    /// infeasible before any mapping work. Carries the rendered A-code
    /// diagnostics; no MRRG or DFG was built.
    Infeasible(String),
    /// The independent static verifier rejected the produced mapping
    /// (only reachable with a verify hook installed — see
    /// [`set_verify_hook`](crate::set_verify_hook)). Carries the rendered
    /// diagnostics.
    Verification(String),
    /// An internal fault, surfaced instead of unwinding into the caller: the
    /// installed verify hook panicked (caught). Carries the message.
    Internal(String),
    /// Every backend of a [`race`](crate::race) failed. Carries the
    /// per-backend trail.
    Exhausted(MapReport),
    /// The deadline ([`HiMapOptions::deadline`] or the race's budget) passed
    /// before a mapping completed. Carries the trail up to the cut.
    DeadlineExceeded(MapReport),
    /// The tiled mega-fabric path failed structurally: the tile shape does
    /// not divide the fabric, or not a single tile could be configured.
    /// Base-tile mapping failures keep their own error instead.
    Tiling(String),
}

impl HiMapError {
    /// The structured attempt trail, when this error carries one.
    pub fn report(&self) -> Option<&MapReport> {
        match self {
            HiMapError::Exhausted(report) | HiMapError::DeadlineExceeded(report) => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for HiMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HiMapError::UnsupportedKernel(why) => write!(f, "unsupported kernel: {why}"),
            HiMapError::NoSubMapping => write!(f, "no sub-CGRA mapping found for any shape"),
            HiMapError::NoSystolicMapping => {
                write!(f, "no valid systolic space-time mapping found")
            }
            HiMapError::RoutingFailed => {
                write!(f, "detailed routing failed for every candidate combination")
            }
            HiMapError::Dfg(why) => write!(f, "dfg construction failed: {why}"),
            HiMapError::Infeasible(why) => {
                write!(f, "statically infeasible: {why}")
            }
            HiMapError::Verification(why) => {
                write!(f, "static verification rejected the mapping: {why}")
            }
            HiMapError::Internal(why) => write!(f, "internal error: {why}"),
            HiMapError::Exhausted(report) => write!(f, "every backend failed: {report}"),
            HiMapError::DeadlineExceeded(report) if report.outcomes.is_empty() => {
                write!(f, "deadline exceeded before any mapping attempt completed")
            }
            HiMapError::DeadlineExceeded(report) => write!(f, "deadline exceeded: {report}"),
            HiMapError::Tiling(why) => write!(f, "tiled mapping failed: {why}"),
        }
    }
}

impl Error for HiMapError {}
