//! Options and errors of the HiMap pipeline, including the recovery ladder
//! ([`RecoveryPolicy`]) and its structured attempt trail ([`MapReport`]).

use std::error::Error;
use std::fmt;
use std::time::Duration;

use himap_analyze::StaticBounds;

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
    /// Run the `himap-analyze` admission check before any mapping work: a
    /// statically infeasible request (dead fabric, no live memory bank for a
    /// loading kernel, config-memory overflow, …) is rejected with
    /// [`HiMapError::Infeasible`] carrying the rendered A-code diagnostics,
    /// before a single MRRG or DFG is built. On by default; turning it off
    /// restores the probe-everything behaviour (the walk then discovers
    /// infeasibility the slow way). The certified static bound is recorded
    /// in [`PipelineStats`](crate::PipelineStats) either way.
    pub admission: bool,
    /// Run the installed static verifier (see `himap-verify`) over the
    /// final mapping before returning it. Always on in debug builds; this
    /// flag forces it in release builds too. A diagnostic of Error severity
    /// turns into [`HiMapError::Verification`]. No-op unless a verifier has
    /// been installed via [`set_verify_hook`](crate::set_verify_hook).
    pub verify: bool,
    /// Wall-clock budget for one `map` call, enforced cooperatively: the
    /// deadline is checked between ladder rungs and pipeline phases, and
    /// threaded into every Dijkstra pop loop through the router's
    /// [`CancelToken`](himap_mapper::CancelToken), so the call returns
    /// within a poll interval of the budget — never mid-resource. `None`
    /// (the default) runs without a budget. An exceeded deadline surfaces as
    /// [`HiMapError::DeadlineExceeded`] with the attempt trail so far.
    pub deadline: Option<Duration>,
    /// The recovery ladder climbed when the walk fails with a *recoverable*
    /// error (`NoSubMapping` / `NoSystolicMapping` / `RoutingFailed`). The
    /// default policy is a strict no-op: exactly one attempt, bare errors,
    /// bit-identical to the pre-ladder pipeline.
    pub recovery: RecoveryPolicy,
}

/// Escalation policy of the recovery ladder (see `DESIGN.md`).
///
/// Rungs are climbed in order after the base attempt fails recoverably:
///
/// 1. **II bumps** — `ii_bumps` retries, each widening
///    [`HiMapOptions::max_time_slack`] by one more cycle so `MAP()` probes
///    deeper sub-CGRAs (and therefore larger initiation intervals);
/// 2. **widen** — one retry with widened shape/slack candidate budgets
///    (extra free extents, doubled sub-candidate and systolic budgets) on
///    top of the full II bump;
/// 3. **baseline fallback** — the baseline SPR/SA mapper as a last resort.
///    Its result is placement-only (no routed `Mapping`), so this rung is
///    climbed by [`HiMap::map_recover`](crate::HiMap::map_recover) and
///    skipped by the `Mapping`-returning entry points.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Extra initiation-interval rungs tried after the base attempt (each
    /// adds one cycle of time slack). `0` disables II escalation.
    pub ii_bumps: usize,
    /// Whether to retry once with widened shape/slack candidate budgets.
    pub widen: bool,
    /// Whether to fall back to the baseline SPR/SA mapper as the last rung
    /// (only reachable through `map_recover`).
    pub baseline_fallback: bool,
}

impl RecoveryPolicy {
    /// The full ladder: two II bumps, the widened retry and the baseline
    /// fallback.
    pub fn full() -> Self {
        RecoveryPolicy { ii_bumps: 2, widen: true, baseline_fallback: true }
    }

    /// `true` when the policy is the no-op default (base attempt only).
    pub fn is_noop(&self) -> bool {
        *self == RecoveryPolicy::default()
    }
}

/// One rung of the recovery ladder that was attempted and failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Ladder rung index (`0` is the base attempt).
    pub rung: usize,
    /// What ran: `"himap"`, `"himap+ii<n>"`, `"himap+widen"` or
    /// `"baseline-bhc"`.
    pub stage: String,
    /// Best sub-CGRA shape `(s1, s2, t)` the rung produced, when `MAP()`
    /// got that far.
    pub shape: Option<(usize, usize, usize)>,
    /// Initiation interval of that best sub-mapping.
    pub ii: Option<usize>,
    /// Why the rung failed (the underlying error's display).
    pub cause: String,
    /// Wall-clock time the rung consumed.
    pub elapsed: Duration,
}

impl fmt::Display for Attempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.rung, self.stage)?;
        if let Some((s1, s2, t)) = self.shape {
            write!(f, " shape={s1}x{s2}x{t}")?;
        }
        if let Some(ii) = self.ii {
            write!(f, " ii={ii}")?;
        }
        write!(f, ": {} [{:.1} ms]", self.cause, self.elapsed.as_secs_f64() * 1e3)
    }
}

/// The structured attempt trail of a failed (or deadline-cut) mapping run:
/// every ladder rung that ran, with stage, shape, II, failure cause and
/// elapsed time — infeasibility as evidence instead of a bare error.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapReport {
    /// The rungs attempted, in ladder order.
    pub attempts: Vec<Attempt>,
    /// Total wall time across all rungs.
    pub elapsed: Duration,
    /// The pre-mapping static bounds (`himap-analyze`), when the admission
    /// pass ran: the certified II floor every attempt was up against.
    /// Boxed to keep `HiMapError` (which carries a `MapReport`) small.
    pub static_bounds: Option<Box<StaticBounds>>,
}

impl MapReport {
    /// The failure cause of the last completed rung, if any rung completed.
    pub fn last_cause(&self) -> Option<&str> {
        self.attempts.last().map(|a| a.cause.as_str())
    }
}

impl fmt::Display for MapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempt(s) in {:.1} ms",
            self.attempts.len(),
            self.elapsed.as_secs_f64() * 1e3
        )?;
        if let Some(bounds) = &self.static_bounds {
            write!(f, "\n  static {bounds}")?;
        }
        for attempt in &self.attempts {
            write!(f, "\n  {attempt}")?;
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
            admission: true,
            verify: false,
            deadline: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Errors produced by the HiMap pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// infeasible before any mapping work (see [`HiMapOptions::admission`]).
    /// Carries the rendered A-code diagnostics; no MRRG or DFG was built.
    Infeasible(String),
    /// The independent static verifier rejected the produced mapping
    /// (only reachable with a verify hook installed — see
    /// [`set_verify_hook`](crate::set_verify_hook)). Carries the rendered
    /// diagnostics.
    Verification(String),
    /// An internal fault, surfaced instead of unwinding into the caller: the
    /// installed verify hook panicked (caught), or [`race`](crate::race)
    /// lost track of its winning backend. Carries the message.
    Internal(String),
    /// Every rung of the recovery ladder failed. Carries the structured
    /// attempt trail. Only produced when the ladder actually climbed (more
    /// than one rung ran, or a deadline was set) — a single-rung no-policy
    /// run keeps returning the bare underlying error.
    Exhausted(MapReport),
    /// The [`HiMapOptions::deadline`] passed before any rung succeeded.
    /// Carries the attempt trail up to the cut.
    DeadlineExceeded(MapReport),
    /// The tiled mega-fabric path failed structurally: the tile shape does
    /// not divide the fabric, or not a single tile could be configured.
    /// Base-tile mapping failures keep their own error instead.
    Tiling(String),
}

impl HiMapError {
    /// Whether the recovery ladder may climb past this error: shape/search/
    /// routing dead ends are recoverable by escalation, while kernel,
    /// DFG-construction, static-infeasibility, verification and internal
    /// errors would fail every rung identically.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            HiMapError::NoSubMapping | HiMapError::NoSystolicMapping | HiMapError::RoutingFailed
        )
    }

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
            HiMapError::Exhausted(report) => {
                write!(f, "every recovery rung failed: {report}")
            }
            HiMapError::DeadlineExceeded(report) => match report.last_cause() {
                Some(_) => write!(f, "deadline exceeded: {report}"),
                None => write!(f, "deadline exceeded before any mapping attempt completed"),
            },
            HiMapError::Tiling(why) => write!(f, "tiled mapping failed: {why}"),
        }
    }
}

impl Error for HiMapError {}
