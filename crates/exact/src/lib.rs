//! Exact SAT-style modulo-scheduling backend: an optimality oracle.
//!
//! HiMap and the BHC baselines are heuristics — fast, but silent about how
//! far from optimal their achieved II is. This crate answers that question
//! for small fabrics: it encodes per-II feasibility as CNF over the dense
//! MRRG ([`encode`](mod@encode)), solves it with a hand-rolled CDCL solver ([`sat`] —
//! the build environment is offline, so no solver crate), and walks the II
//! upward from the resource-minimum until a model both decodes *and*
//! lowers to a routed, verifier-clean [`Mapping`].
//!
//! # Certification semantics
//!
//! The encoding keeps only *necessary* placement conditions (reachability
//! ignores congestion), so `Unsat` at an II soundly rules out every mapping
//! with makespan below the encoding horizon. The returned [`Certificate`]
//! is therefore explicit about three things:
//!
//! * `lower_bound` — the smallest II not yet ruled out. It starts at the
//!   `himap-analyze` certified static bound (fault- and capability-aware
//!   pigeonhole arguments, always sound) and advances one step per *clean*
//!   `Unsat` (no CEGAR blocking clauses involved).
//! * `certified` — `true` iff the achieved II equals `lower_bound`, i.e.
//!   every smaller II was cleanly refuted. A SAT placement that fails
//!   routing adds a blocking clause and re-solves; exhausting the model
//!   budget leaves the II *undecided* and drops certification, never
//!   claims infeasibility.
//! * `horizon` — the makespan bound the refutations are relative to. It
//!   defaults to the longest dependence chain plus `II + 1` cycles of
//!   slack; a schedule needing more slack than that would be pathological,
//!   but the bound is recorded rather than silently assumed.
//!
//! [`ExactBackend`] wraps the oracle behind the [`Backend`] portfolio
//! trait, so it can take its turn in a race on whatever budget the
//! backends before it left.

#![forbid(unsafe_code)]

pub mod encode;
pub mod sat;

use std::collections::HashMap;
use std::fmt;

use himap_cgra::{CgraSpec, PeId};
use himap_core::{route_placement, Backend, BackendError, LowerError, MapRequest, Mapping};
use himap_dfg::Dfg;
use himap_graph::NodeId;
use himap_mapper::CancelToken;

pub use encode::{default_horizon, encode, EncodeError, Encoding};
pub use sat::{Lit, SolveResult, Solver};

/// Options for the exact oracle.
#[derive(Clone, Debug)]
pub struct ExactOptions {
    /// How many IIs above the resource minimum to try before giving up.
    pub max_ii_span: usize,
    /// Extra schedule cycles on top of [`default_horizon`].
    pub horizon_slack: usize,
    /// SAT models to try per II before declaring the II undecided
    /// (each routing/verification failure costs one model).
    pub model_budget: usize,
    /// PathFinder rounds when lowering a model to routes.
    pub lower_rounds: usize,
    /// Refuse DFGs with more compute ops than this (the encoding is
    /// exponential in the limit; the oracle targets small blocks).
    pub max_ops: usize,
    /// Block for [`ExactBackend`] (`None`: a 2-wide block per dimension).
    pub block: Option<Vec<usize>>,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_ii_span: 6,
            horizon_slack: 2,
            model_budget: 64,
            lower_rounds: 24,
            max_ops: 64,
            block: None,
        }
    }
}

/// What the oracle proved about the minimal II (see the crate docs for the
/// exact semantics of each field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The II of the returned mapping.
    pub ii: usize,
    /// Smallest II not ruled out by a sound argument.
    pub lower_bound: usize,
    /// `ii == lower_bound` with every smaller II cleanly refuted.
    pub certified: bool,
    /// Makespan bound (exclusive) the refutations are relative to.
    pub horizon: usize,
}

/// A mapping found by the oracle plus its optimality certificate.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The routed, verifier-clean mapping.
    pub mapping: Mapping,
    /// What was proved about its II.
    pub certificate: Certificate,
}

/// Why the oracle produced no mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The wall-clock budget expired mid-solve.
    Deadline,
    /// The instance exceeds the oracle's size limits.
    TooLarge(String),
    /// The DFG could not be encoded.
    Encode(EncodeError),
    /// No mapping exists within the II span (with proof quality noted).
    Infeasible(String),
    /// An internal invariant broke.
    Internal(String),
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Deadline => write!(f, "deadline exceeded"),
            ExactError::TooLarge(why) => write!(f, "instance too large for the oracle: {why}"),
            ExactError::Encode(err) => write!(f, "encoding failed: {err}"),
            ExactError::Infeasible(why) => write!(f, "no mapping found: {why}"),
            ExactError::Internal(why) => write!(f, "internal oracle error: {why}"),
        }
    }
}

impl std::error::Error for ExactError {}

impl From<EncodeError> for ExactError {
    fn from(err: EncodeError) -> Self {
        ExactError::Encode(err)
    }
}

/// Consecutive failures of one edge at one endpoint-slot pair before the
/// CEGAR loop escalates from full-placement to pair blocking.
const PAIR_BLOCK_THRESHOLD: usize = 3;

/// A DFG edge index plus the (PE, cycle) slots of its endpoints — the key
/// the CEGAR loop counts repeated routing failures under.
type EdgeSlotKey = (usize, (PeId, i64), (PeId, i64));

/// `¬x(src@s) ∨ ¬x(dst@d)` — forbid this endpoint-slot pair entirely.
fn pair_clause(
    encoding: &Encoding,
    src: NodeId,
    s: (PeId, i64),
    dst: NodeId,
    d: (PeId, i64),
) -> Option<Vec<Lit>> {
    let oi = encoding.ops.iter().position(|&n| n == src)?;
    let ci = encoding.ops.iter().position(|&n| n == dst)?;
    let pi = encoding.pes.iter().position(|&p| p == s.0)?;
    let qi = encoding.pes.iter().position(|&p| p == d.0)?;
    Some(vec![
        Lit::pos(encoding.var(oi, pi, s.1 as usize)).negated(),
        Lit::pos(encoding.var(ci, qi, d.1 as usize)).negated(),
    ])
}

/// Walks the II upward from the resource minimum until a SAT model lowers
/// to a routed, verifier-clean mapping; see the crate docs for what the
/// returned [`Certificate`] does and does not promise.
///
/// # Errors
///
/// [`ExactError::Infeasible`] when the II span is exhausted,
/// [`ExactError::Deadline`] when `cancel` fires, and the size/encoding
/// variants for oversized or malformed inputs.
pub fn minimal_ii(
    dfg: &Dfg,
    spec: &CgraSpec,
    options: &ExactOptions,
    cancel: Option<&CancelToken>,
) -> Result<ExactResult, ExactError> {
    if dfg.op_count() > options.max_ops {
        return Err(ExactError::TooLarge(format!(
            "{} compute ops, oracle cap is {}",
            dfg.op_count(),
            options.max_ops
        )));
    }
    // The certified static bound is sound for the block period (fault- and
    // capability-aware pigeonholes, no recurrence terms), so the walk can
    // start there instead of the bare `⌈ops / PEs⌉` — and a statically
    // infeasible request is rejected before any CNF is built.
    let analysis = himap_analyze::analyze_dfg(dfg, spec, &himap_analyze::AnalyzeOptions::default());
    if !analysis.is_feasible() {
        return Err(ExactError::Infeasible(format!(
            "statically infeasible ({})",
            analysis.diagnostics.codes().iter().map(|c| c.as_str()).collect::<Vec<_>>().join(", ")
        )));
    }
    let mii = analysis.bounds.mii();
    // Smallest II not yet soundly refuted; the static bound is a certified
    // pigeonhole argument, so starting here is already justified.
    let mut lower_bound = mii;
    let mut all_lower_refuted = true;
    let mut last_horizon = 0;
    for ii in mii..=mii + options.max_ii_span {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(ExactError::Deadline);
        }
        let horizon = default_horizon(dfg, ii) + options.horizon_slack;
        last_horizon = horizon;
        let encoding = encode(dfg, spec, ii, horizon)?;
        let mut blocked: Vec<Vec<Lit>> = Vec::new();
        let mut decided = false;
        // CEGAR escalation: a full-placement blocking clause excludes one
        // model at a time, which converges too slowly when one edge is
        // systematically unroutable. After an edge fails repeatedly with
        // the same endpoint slots, block that *pair* outright. The pair
        // clause is a heuristic over-approximation (the pair might route
        // in a less congested context), so it may only cost certification
        // of an upper II — the `blocked.is_empty()` guard below keeps
        // lower-bound refutations sound regardless.
        let mut edge_failures: HashMap<EdgeSlotKey, usize> = HashMap::new();
        for _ in 0..options.model_budget.max(1) {
            let mut solver = encoding.solver(&blocked);
            match solver.solve(cancel) {
                SolveResult::Cancelled => return Err(ExactError::Deadline),
                SolveResult::Unsat => {
                    if blocked.is_empty() {
                        // Clean refutation: no placement satisfies even the
                        // necessary conditions at this II (within horizon).
                        if all_lower_refuted && lower_bound == ii {
                            lower_bound = ii + 1;
                        }
                    } else {
                        // Every surviving model was blocked for routing
                        // reasons; routing budgets are heuristic, so this
                        // is *undecided*, not refuted.
                        all_lower_refuted = false;
                    }
                    decided = true;
                    break;
                }
                SolveResult::Sat(model) => {
                    let placement = encoding.decode(&model)?;
                    match lower(dfg, spec, ii, &placement, options, cancel) {
                        Ok(mapping) => {
                            return Ok(ExactResult {
                                mapping,
                                certificate: Certificate {
                                    ii,
                                    lower_bound,
                                    certified: all_lower_refuted && lower_bound == ii,
                                    horizon,
                                },
                            });
                        }
                        Err(LowerError::Cancelled) => return Err(ExactError::Deadline),
                        Err(LowerError::Unroutable(eid)) => {
                            blocked.push(encoding.blocking_clause(&placement));
                            let (src, dst) = dfg.graph().edge_endpoints(eid);
                            if let (Some(&s), Some(&d)) = (placement.get(&src), placement.get(&dst))
                            {
                                let count = edge_failures.entry((eid.index(), s, d)).or_insert(0);
                                *count += 1;
                                if *count >= PAIR_BLOCK_THRESHOLD {
                                    if let Some(clause) = pair_clause(&encoding, src, s, dst, d) {
                                        blocked.push(clause);
                                    }
                                }
                            }
                        }
                        Err(_) => blocked.push(encoding.blocking_clause(&placement)),
                    }
                }
            }
        }
        if !decided {
            // Model budget exhausted with SAT placements still unrouted.
            all_lower_refuted = false;
        }
    }
    Err(ExactError::Infeasible(format!(
        "no routed mapping in ii range {}..={} (lower bound {}, horizon {})",
        mii,
        mii + options.max_ii_span,
        lower_bound,
        last_horizon
    )))
}

/// Lowers a decoded placement to routes and runs the independent verifier.
fn lower(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    placement: &HashMap<NodeId, (PeId, i64)>,
    options: &ExactOptions,
    cancel: Option<&CancelToken>,
) -> Result<Mapping, LowerError> {
    let mapping =
        route_placement(dfg, spec, ii, placement, dfg.block(), options.lower_rounds, cancel)?;
    let sink = himap_verify::verify_mapping(&mapping);
    if sink.has_errors() {
        // Treated like a routing failure: the caller blocks this model.
        return Err(LowerError::AntiDependence);
    }
    Ok(mapping)
}

/// The exact oracle as a portfolio [`Backend`] (name `"exact"`).
#[derive(Clone, Debug, Default)]
pub struct ExactBackend {
    /// Oracle options.
    pub options: ExactOptions,
}

impl ExactBackend {
    /// A backend over the given options.
    pub fn new(options: ExactOptions) -> Self {
        ExactBackend { options }
    }
}

impl Backend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn map(&self, req: &MapRequest) -> Result<Mapping, BackendError> {
        let started = std::time::Instant::now();
        let block = self.options.block.clone().unwrap_or_else(|| vec![2; req.kernel.dims().max(1)]);
        let dfg = Dfg::build(&req.kernel, &block)
            .map_err(|e| BackendError::Infeasible(format!("dfg construction failed: {e}")))?;
        let token = req.deadline.map(|budget| CancelToken::until(started + budget));
        minimal_ii(&dfg, &req.spec, &self.options, token.as_ref())
            .map(|result| result.mapping)
            .map_err(|err| match err {
                ExactError::Deadline => BackendError::Deadline("exact solve cut short".into()),
                ExactError::TooLarge(why) => BackendError::Unsupported(why),
                ExactError::Encode(e) => BackendError::Unsupported(e.to_string()),
                ExactError::Infeasible(why) => BackendError::Infeasible(why),
                ExactError::Internal(why) => BackendError::Internal(why),
            })
    }
}

/// Convenience wrapper: build the DFG for `block` and run the oracle.
///
/// # Errors
///
/// [`ExactError::Encode`]/[`ExactError::TooLarge`] for unencodable inputs,
/// otherwise as [`minimal_ii`].
pub fn certify(
    kernel: &himap_kernels::Kernel,
    spec: &CgraSpec,
    block: &[usize],
    options: &ExactOptions,
    cancel: Option<&CancelToken>,
) -> Result<ExactResult, ExactError> {
    let dfg = Dfg::build(kernel, block)
        .map_err(|e| ExactError::Infeasible(format!("dfg construction failed: {e}")))?;
    minimal_ii(&dfg, spec, options, cancel)
}
