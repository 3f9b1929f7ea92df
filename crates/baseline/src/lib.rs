//! Baseline CGRA mappers: the paper's "BHC" comparison point.
//!
//! The paper evaluates HiMap against the best of two state-of-the-art
//! compilers (§VI): the HyCUBE compiler — "a heuristic-based mapping
//! algorithm, an augmented version of SPR" — and CGRA-ME's simulated
//! annealing. Neither is open in a form portable here, so both are
//! reimplemented from their published descriptions:
//!
//! * [`SprMapper`] — iterative modulo scheduling, placement and routing of
//!   the *whole* unrolled DFG on the full-CGRA MRRG with PathFinder
//!   congestion negotiation (SPR's scheme);
//! * [`SaMapper`] — simulated-annealing placement with a wire-length/
//!   latency cost, whose placement is then routed in detail by
//!   [`route_pinned`] (CGRA-ME's heuristic mode).
//!
//! Both return the routes they committed along with the placement
//! ([`BaselineMapping::routes`]), so a baseline result is a complete
//! mapping: `himap_core` wraps it without routing it again, and the
//! independent verifier checks the real routes.
//!
//! Both treat the DFG as an opaque graph — no iteration-level abstraction —
//! so they exhibit the scalability cliff the paper reports: compile time
//! explodes with DFG size, and mappings fail beyond a few hundred nodes.
//! [`bhc`] runs both under a node-count limit and wall-clock budget and
//! keeps the better mapping, mirroring "Best of HyCUBE & CGRA-ME".
//!
//! # Example
//!
//! ```
//! use himap_baseline::{bhc, BaselineOptions};
//! use himap_cgra::CgraSpec;
//! use himap_dfg::Dfg;
//! use himap_kernels::suite;
//!
//! let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2])?;
//! let result = bhc(&dfg, &CgraSpec::square(2), &BaselineOptions::default());
//! let mapping = result.best().expect("small GEMM block maps");
//! assert!(mapping.utilization > 0.0);
//! # Ok::<(), himap_dfg::DfgError>(())
//! ```

#![forbid(unsafe_code)]

mod bhc;
mod route;
mod sa;
mod spr;

pub use bhc::{baseline_block, bhc, BhcResult};
pub use route::{route_pinned, LowerError};
pub use sa::SaMapper;
pub use spr::{anti_deps_ok, mem_aware_topo_order, SprMapper, STORE_LATENCY};

use std::collections::HashMap;
use std::time::Duration;

use himap_cgra::{PeId, RNode};
use himap_graph::{EdgeId, NodeId};

/// A placement: PE and absolute schedule cycle of every compute op.
pub(crate) type OpSlots = HashMap<NodeId, (PeId, i64)>;

/// A routed dependence: the DFG edge and its steps `(resource, absolute
/// cycle)` from the source to the consuming FU.
pub type TimedRoute = (EdgeId, Vec<(RNode, i64)>);

/// DFG node limit — the paper observes BHC "fails to find a solution when
/// the number of DFG nodes is higher than 400".
pub const MAX_DFG_NODES: usize = 400;

/// Initiation intervals tried above the resource minimum.
const MAX_II_SLACK: usize = 4;

/// PathFinder rounds per II attempt.
const PATHFINDER_ROUNDS: usize = 12;

/// Options shared by the baseline mappers.
#[derive(Clone, Debug)]
pub struct BaselineOptions {
    /// Wall-clock budget per mapper (the paper's three-day timeout, scaled).
    pub timeout: Duration,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions { timeout: Duration::from_secs(60) }
    }
}

/// A successful baseline mapping.
#[derive(Clone, Debug)]
pub struct BaselineMapping {
    /// Initiation interval of the modulo schedule.
    pub ii: usize,
    /// Per-op slot: PE and absolute schedule cycle.
    pub op_slots: HashMap<NodeId, (PeId, i64)>,
    /// The route of every DFG edge, as the mapper committed it.
    pub routes: Vec<TimedRoute>,
    /// CGRA utilization `|V_D| / (#PEs · II)`.
    pub utilization: f64,
    /// Which mapper produced it.
    pub algorithm: Algorithm,
}

/// Which baseline algorithm produced a mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// SPR/HyCUBE-style iterative modulo place-and-route.
    Spr,
    /// CGRA-ME-style simulated annealing.
    SimulatedAnnealing,
}

/// Why a baseline mapper produced no mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineFailure {
    /// DFG exceeds the node limit (the paper's scalability cliff).
    TooManyNodes {
        /// Nodes in the DFG.
        nodes: usize,
        /// Configured limit.
        limit: usize,
    },
    /// The wall-clock budget was exhausted.
    Timeout,
    /// No initiation interval in range produced a valid mapping.
    NoValidMapping,
}

impl std::fmt::Display for BaselineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineFailure::TooManyNodes { nodes, limit } => {
                write!(f, "DFG has {nodes} nodes, above the {limit}-node scalability limit")
            }
            BaselineFailure::Timeout => write!(f, "wall-clock budget exhausted"),
            BaselineFailure::NoValidMapping => write!(f, "no II in range produced a mapping"),
        }
    }
}
