//! Pluggable mapping backends and the portfolio runner.
//!
//! Every mapper in the workspace — HiMap's hierarchical pipeline, the
//! whole-DFG BHC baselines, and the exact SAT backend in `himap-exact` —
//! answers the same question: *map this kernel onto this fabric within this
//! budget*. The [`Backend`] trait captures that contract, and [`race`] runs
//! several backends in priority order on the calling thread, each on what
//! is left of the request's budget.
//!
//! # Determinism of the race
//!
//! Under [`RaceMode::FirstFeasible`] the winner is the **lowest-index**
//! backend that succeeds: the backends after it never run.
//! [`RaceMode::BestII`] runs every backend and picks the lowest achieved II
//! (ties by index). Absent a deadline, the winner depends only on the
//! backends' results, never on timing.
//!
//! # Escalation
//!
//! HiMap's recovery ladder is a list of backends:
//! [`HiMapBackend::ladder`] returns the configured pipeline followed by its
//! II-bumped and widened variants, and racing them under
//! [`RaceMode::FirstFeasible`] tries each only when the ones before it
//! failed. Appending a [`BhcBackend`] falls back to another mapper
//! altogether on whatever budget HiMap left.

use std::time::{Duration, Instant};

use himap_baseline::{
    baseline_block, BaselineFailure, BaselineOptions, BhcResult, SaMapper, SprMapper,
};
use himap_cgra::CgraSpec;
use himap_dfg::Dfg;
use himap_kernels::Kernel;
use himap_mapper::CancelToken;

use crate::lower::{route_placement, LowerError};
use crate::mapping::Mapping;
use crate::options::{HiMapError, HiMapOptions, MapReport};
use crate::HiMap;

/// One mapping problem, phrased identically for every backend: the kernel,
/// the (possibly faulted) fabric, and an optional wall-clock budget.
#[derive(Clone, Debug)]
pub struct MapRequest {
    /// The kernel to map.
    pub kernel: Kernel,
    /// The target fabric.
    pub spec: CgraSpec,
    /// Wall-clock budget for the whole request. Backends fold it into their
    /// own timeout machinery; [`race`] hands each backend what is left of
    /// it when that backend's turn comes.
    pub deadline: Option<Duration>,
}

impl MapRequest {
    /// A request with no deadline.
    pub fn new(kernel: Kernel, spec: CgraSpec) -> Self {
        MapRequest { kernel, spec, deadline: None }
    }

    /// This request with `deadline` installed.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a backend produced no mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The wall-clock budget passed before a mapping completed.
    Deadline(String),
    /// The backend proved or concluded the problem infeasible for it.
    Infeasible(String),
    /// The backend does not handle this request shape.
    Unsupported(String),
    /// The backend failed internally (a bug, not a property of the input).
    Internal(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Deadline(why) => write!(f, "deadline exceeded: {why}"),
            BackendError::Infeasible(why) => write!(f, "infeasible: {why}"),
            BackendError::Unsupported(why) => write!(f, "unsupported request: {why}"),
            BackendError::Internal(why) => write!(f, "internal backend error: {why}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A pluggable mapping engine.
pub trait Backend {
    /// Stable name for reports and tie-break documentation.
    fn name(&self) -> &'static str;

    /// Maps the request within `req.deadline`.
    ///
    /// # Errors
    ///
    /// [`BackendError::Deadline`] on budget expiry, and the other variants
    /// for infeasibility/unsupported inputs/internal failures.
    fn map(&self, req: &MapRequest) -> Result<Mapping, BackendError>;
}

/// The HiMap hierarchical pipeline as a [`Backend`].
#[derive(Clone, Debug)]
pub struct HiMapBackend {
    /// Report name: `himap`, or a ladder rung's `himap+…` label.
    name: &'static str,
    /// Pipeline options. The request's deadline is layered on top: an
    /// explicit `options.deadline` is kept only when it is tighter than the
    /// request's.
    pub options: HiMapOptions,
}

impl Default for HiMapBackend {
    fn default() -> Self {
        HiMapBackend::new(HiMapOptions::default())
    }
}

impl HiMapBackend {
    /// A backend over the given options, named `himap`.
    pub fn new(options: HiMapOptions) -> Self {
        HiMapBackend { name: "himap", options }
    }

    /// HiMap's recovery ladder as four backends, in escalation order:
    ///
    /// 1. `himap` — `base` as given;
    /// 2. `himap+ii1`, `himap+ii2` — [`HiMapOptions::max_time_slack`]
    ///    widened by one and two cycles, so `MAP()` probes deeper sub-CGRAs
    ///    and therefore larger initiation intervals;
    /// 3. `himap+widen` — three cycles of slack plus extra free extents,
    ///    doubled sub-candidate and systolic budgets and two more
    ///    replication feedback rounds.
    ///
    /// Race them under [`RaceMode::FirstFeasible`] to escalate only on
    /// failure.
    pub fn ladder(base: &HiMapOptions) -> Vec<HiMapBackend> {
        let slack = |name, bump| HiMapBackend {
            name,
            options: HiMapOptions { max_time_slack: base.max_time_slack + bump, ..base.clone() },
        };
        let mut widen = slack("himap+widen", 3);
        let options = &mut widen.options;
        for extent in [8, 6, 3, 1] {
            if !options.free_extents.contains(&extent) {
                options.free_extents.push(extent);
            }
        }
        options.max_sub_candidates = base.max_sub_candidates.saturating_mul(2);
        options.max_systolic_candidates = base.max_systolic_candidates.saturating_mul(2);
        options.replication_feedback_rounds = base.replication_feedback_rounds.saturating_add(2);
        vec![slack("himap", 0), slack("himap+ii1", 1), slack("himap+ii2", 2), widen]
    }
}

impl Backend for HiMapBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn map(&self, req: &MapRequest) -> Result<Mapping, BackendError> {
        let mut options = self.options.clone();
        options.deadline = match (options.deadline, req.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        HiMap::new(options).map(&req.kernel, &req.spec).map_err(|err| match err {
            HiMapError::DeadlineExceeded(report) => BackendError::Deadline(report.to_string()),
            HiMapError::UnsupportedKernel(why) => BackendError::Unsupported(why),
            HiMapError::Verification(why) | HiMapError::Internal(why) => {
                BackendError::Internal(why)
            }
            other => BackendError::Infeasible(other.to_string()),
        })
    }
}

/// The whole-DFG BHC baseline (best of the SPR-style and simulated-annealing
/// mappers) as a [`Backend`], with the winning placement lowered to a fully
/// routed [`Mapping`] via [`route_placement`] so its output obeys the same
/// contract as every other backend.
#[derive(Clone, Debug)]
pub struct BhcBackend {
    /// Baseline mapper options (node limit, timeout, II slack, seeds).
    pub options: BaselineOptions,
    /// Block to unroll. `None` picks the largest uniform block under the
    /// node limit ([`baseline_block`]); tests pin small blocks explicitly.
    pub block: Option<Vec<usize>>,
    /// PathFinder rounds for lowering the winning placement to routes.
    pub lower_rounds: usize,
}

impl Default for BhcBackend {
    fn default() -> Self {
        BhcBackend { options: BaselineOptions::default(), block: None, lower_rounds: 12 }
    }
}

impl BhcBackend {
    /// A backend over the given baseline options.
    pub fn new(options: BaselineOptions) -> Self {
        BhcBackend { options, ..BhcBackend::default() }
    }

    /// This backend with the unroll block pinned.
    #[must_use]
    pub fn with_block(mut self, block: Vec<usize>) -> Self {
        self.block = Some(block);
        self
    }
}

impl Backend for BhcBackend {
    fn name(&self) -> &'static str {
        "bhc"
    }

    fn map(&self, req: &MapRequest) -> Result<Mapping, BackendError> {
        let started = Instant::now();
        let mut options = self.options.clone();
        if let Some(budget) = req.deadline {
            options.timeout = options.timeout.min(budget);
        }
        let block = self.block.clone().unwrap_or_else(|| baseline_block(&req.kernel, &options));
        let dfg = Dfg::build(&req.kernel, &block)
            .map_err(|e| BackendError::Infeasible(format!("dfg construction failed: {e}")))?;
        // SPR first, then SA on the budget SPR left; `BhcResult::best` keeps
        // the better mapping.
        let spr = SprMapper::run(&dfg, &req.spec, &options);
        let remaining = options.timeout.saturating_sub(started.elapsed());
        let sa = if remaining.is_zero() {
            Err(BaselineFailure::Timeout)
        } else {
            SaMapper::run(&dfg, &req.spec, &BaselineOptions { timeout: remaining, ..options })
        };
        let result = BhcResult { spr, sa };
        let best = result.best().ok_or_else(|| {
            match result.spr.as_ref().err().cloned().unwrap_or(BaselineFailure::NoValidMapping) {
                BaselineFailure::Timeout => BackendError::Deadline("baseline budget spent".into()),
                other => BackendError::Infeasible(other.to_string()),
            }
        })?;
        let cancel = req.deadline.map(|budget| CancelToken::until(started + budget));
        route_placement(
            &dfg,
            &req.spec,
            best.ii,
            &best.op_slots,
            &block,
            self.lower_rounds,
            cancel.as_ref(),
        )
        .map_err(|e| match e {
            LowerError::Cancelled => BackendError::Deadline("lowering cut by deadline".into()),
            other => BackendError::Infeasible(format!("placement does not lower: {other}")),
        })
    }
}

/// Which rule crowns the race winner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RaceMode {
    /// First feasible mapping in priority order wins; the backends after it
    /// are not run.
    #[default]
    FirstFeasible,
    /// Every backend runs (each on the budget the earlier ones left); the
    /// lowest achieved II wins, ties broken by priority order.
    BestII,
}

/// One backend's turn in a [`race`]: inside a [`RaceOutcome`], or in the
/// [`MapReport`] trail of a race with no winner.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendOutcome {
    /// The backend's [`Backend::name`].
    pub name: &'static str,
    /// Priority index in the race.
    pub index: usize,
    /// Achieved II on success.
    pub ii: Option<usize>,
    /// Achieved utilization on success.
    pub utilization: Option<f64>,
    /// The error, when the backend failed or its turn came after the
    /// deadline.
    pub error: Option<BackendError>,
    /// Wall time this backend ran.
    pub elapsed: Duration,
}

impl std::fmt::Display for BackendOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {}: ", self.index, self.name)?;
        match &self.error {
            Some(err) => write!(f, "{err}")?,
            None => f.write_str("mapped")?,
        }
        write!(f, " [{:.1} ms]", self.elapsed.as_secs_f64() * 1e3)
    }
}

/// The result of a successful [`race`].
#[derive(Clone, Debug)]
pub struct RaceOutcome {
    /// Winning backend's name.
    pub winner: &'static str,
    /// Winning backend's priority index.
    pub winner_index: usize,
    /// The winning mapping.
    pub mapping: Mapping,
    /// Wall time of the whole race.
    pub elapsed: Duration,
    /// Outcomes of the backends that took a turn, in priority order.
    pub outcomes: Vec<BackendOutcome>,
}

/// Runs `backends` on `req` in priority order on the calling thread, each on
/// what is left of the request's deadline.
///
/// The winner rule is documented on [`RaceMode`]. A backend whose turn
/// comes after the deadline is not called; its outcome is
/// [`BackendError::Deadline`].
///
/// # Errors
///
/// With no winner: [`HiMapError::DeadlineExceeded`] when the request's
/// deadline passed, otherwise [`HiMapError::Exhausted`]; both carry the
/// outcomes as their [`MapReport`] trail.
pub fn race(
    backends: &[&dyn Backend],
    req: &MapRequest,
    mode: RaceMode,
) -> Result<RaceOutcome, HiMapError> {
    let started = Instant::now();
    // Admission control: a statically infeasible request fails every
    // backend, so reject it once — before running any of them — with the
    // analyzer's A-code diagnostics instead of N redundant backend failures.
    let analysis = himap_analyze::analyze_kernel(
        &req.kernel,
        &req.spec,
        &himap_analyze::AnalyzeOptions::default(),
    );
    if !analysis.is_feasible() {
        return Err(HiMapError::Infeasible(analysis.diagnostics.render_pretty()));
    }
    let static_bounds = Some(Box::new(analysis.bounds));
    let deadline = req.deadline.map(|budget| started + budget);
    let mut outcomes: Vec<BackendOutcome> = Vec::with_capacity(backends.len());
    // `(index, mapping)` of the winner so far: the lowest II, ties by index.
    let mut best: Option<(usize, Mapping)> = None;
    for (index, backend) in backends.iter().enumerate() {
        let begun = Instant::now();
        let left = deadline.map(|d| d.saturating_duration_since(begun));
        let result = if left.is_some_and(|left| left.is_zero()) {
            Err(BackendError::Deadline("budget spent before this backend's turn".into()))
        } else {
            backend.map(&MapRequest { deadline: left, ..req.clone() })
        };
        let mut outcome = BackendOutcome {
            name: backend.name(),
            index,
            ii: None,
            utilization: None,
            error: None,
            elapsed: begun.elapsed(),
        };
        match result {
            Ok(mapping) => {
                outcome.ii = Some(mapping.stats().iib);
                outcome.utilization = Some(mapping.utilization());
                if best.as_ref().is_none_or(|(_, b)| mapping.stats().iib < b.stats().iib) {
                    best = Some((index, mapping));
                }
            }
            Err(err) => outcome.error = Some(err),
        }
        outcomes.push(outcome);
        if mode == RaceMode::FirstFeasible && best.is_some() {
            break;
        }
    }
    let elapsed = started.elapsed();
    if let Some((idx, mapping)) = best {
        return Ok(RaceOutcome {
            winner: backends[idx].name(),
            winner_index: idx,
            mapping,
            elapsed,
            outcomes,
        });
    }
    let deadline_hit = deadline.is_some_and(|d| Instant::now() >= d)
        || outcomes.iter().any(|o| matches!(o.error, Some(BackendError::Deadline(_))));
    let report = MapReport { outcomes, elapsed, static_bounds };
    if deadline_hit {
        Err(HiMapError::DeadlineExceeded(report))
    } else {
        Err(HiMapError::Exhausted(report))
    }
}
