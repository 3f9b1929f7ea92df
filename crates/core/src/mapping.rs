//! The final mapping artifact: placements, routes and quality metrics.

use std::collections::HashMap;

use himap_cgra::{CgraSpec, PowerModel, RNode};
use himap_dfg::{Dfg, NodeKind};
use himap_graph::{EdgeId, NodeId};

use crate::layout::Slot;
use crate::route::FullRoute;
use crate::stats::PipelineStats;

/// One routed dependence: re-exported route representation.
pub type RouteInstance = FullRoute;

/// Quality and shape statistics of a mapping.
#[derive(Clone, Debug)]
pub struct MappingStats {
    /// Sub-CGRA shape `(s1, s2, t)` of the winning candidate.
    pub sub_shape: (usize, usize, usize),
    /// Number of unique iteration classes (Table II).
    pub unique_iterations: usize,
    /// Iterations per SPE (`P`).
    pub iterations_per_spe: usize,
    /// The modulo window `IIB = P·t` in cycles.
    pub iib: usize,
    /// Maximum unique instruction words on any PE after the paper's
    /// unique-instruction compression — the exact per-PE configuration
    /// memory footprint (see [`ConfigImage`](crate::ConfigImage)).
    pub max_config_slots: usize,
    /// Block size mapped.
    pub block: Vec<usize>,
    /// Instrumentation of the pipeline run that produced this mapping:
    /// per-stage times and candidate/cache counters. Unlike every other
    /// field, this is **not** deterministic across runs (it contains wall
    /// times) — compare the quality fields, not this one.
    pub pipeline: PipelineStats,
}

/// A complete placed-and-routed mapping of a kernel block onto a CGRA.
///
/// Produced by [`HiMap::map`](crate::HiMap::map); executable by the
/// `himap-sim` cycle-accurate simulator.
#[derive(Clone, Debug)]
pub struct Mapping {
    spec: CgraSpec,
    dfg: Dfg,
    op_slots: HashMap<NodeId, Slot>,
    routes: Vec<RouteInstance>,
    stats: MappingStats,
}

/// The raw constituents of a [`Mapping`], exposed for external tooling
/// (e.g. the `himap-verify` mutation tests) that needs to rebuild a mapping
/// with a deliberate defect injected.
#[derive(Clone, Debug)]
pub struct MappingParts {
    /// The target architecture.
    pub spec: CgraSpec,
    /// The unrolled DFG the mapping implements.
    pub dfg: Dfg,
    /// FU slot of every placed compute op.
    pub op_slots: HashMap<NodeId, Slot>,
    /// All routed dependences.
    pub routes: Vec<RouteInstance>,
    /// Quality and shape statistics.
    pub stats: MappingStats,
}

impl Mapping {
    pub(crate) fn new(
        spec: CgraSpec,
        dfg: Dfg,
        op_slots: HashMap<NodeId, Slot>,
        routes: Vec<RouteInstance>,
        stats: MappingStats,
    ) -> Self {
        Mapping { spec, dfg, op_slots, routes, stats }
    }

    /// Reassemble a mapping from raw parts. No validation happens here —
    /// that is the whole point: it lets tests build *illegal* mappings and
    /// check that `himap-verify` rejects them.
    pub fn from_parts(parts: MappingParts) -> Self {
        Mapping {
            spec: parts.spec,
            dfg: parts.dfg,
            op_slots: parts.op_slots,
            routes: parts.routes,
            stats: parts.stats,
        }
    }

    /// Decompose the mapping into its raw parts (inverse of
    /// [`from_parts`](Self::from_parts)).
    pub fn into_parts(self) -> MappingParts {
        MappingParts {
            spec: self.spec,
            dfg: self.dfg,
            op_slots: self.op_slots,
            routes: self.routes,
            stats: self.stats,
        }
    }

    /// The target architecture.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The unrolled DFG this mapping implements.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The FU slot of a compute op, if placed.
    pub fn op_slot(&self, node: NodeId) -> Option<Slot> {
        self.op_slots.get(&node).copied()
    }

    /// The FU slots of all placed compute ops.
    pub fn op_slots(&self) -> &HashMap<NodeId, Slot> {
        &self.op_slots
    }

    /// All routed dependences.
    pub fn routes(&self) -> &[RouteInstance] {
        &self.routes
    }

    /// The route implementing a specific DFG edge.
    pub fn route_of(&self, edge: EdgeId) -> Option<&RouteInstance> {
        self.routes.iter().find(|r| r.edge == edge)
    }

    /// Mapping statistics.
    pub fn stats(&self) -> &MappingStats {
        &self.stats
    }

    /// Instrumentation of the pipeline run that produced this mapping
    /// (shorthand for `stats().pipeline`).
    pub fn pipeline_stats(&self) -> &PipelineStats {
        &self.stats.pipeline
    }

    pub(crate) fn set_pipeline_stats(&mut self, pipeline: PipelineStats) {
        self.stats.pipeline = pipeline;
    }

    /// CGRA resource utilization `U = |V_D| / |V_F_H|` — compute ops over FU
    /// slots in one `IIB` window (the paper's quality metric, Fig. 7 top).
    pub fn utilization(&self) -> f64 {
        self.dfg.op_count() as f64 / (self.spec.pe_count() * self.stats.iib) as f64
    }

    /// Steady-state throughput in MOPS (Fig. 7 middle).
    pub fn throughput_mops(&self) -> f64 {
        PowerModel::cmos40nm().throughput_mops(&self.spec, self.utilization())
    }

    /// Power efficiency in MOPS/mW under the 40 nm model (Fig. 7 bottom).
    pub fn efficiency_mops_per_mw(&self) -> f64 {
        PowerModel::cmos40nm().efficiency_mops_per_mw(&self.spec, self.utilization())
    }

    pub(crate) fn set_max_config_slots(&mut self, value: usize) {
        self.stats.max_config_slots = value;
    }

    /// `true` if `node` is a compute op with a slot (sanity helper for
    /// tests).
    pub fn is_placed(&self, node: NodeId) -> bool {
        self.op_slots.contains_key(&node)
            || !matches!(self.dfg.graph()[node].kind, NodeKind::Op { .. })
    }

    /// Occupied FU slot map (diagnostics / visualization).
    pub fn fu_occupancy(&self) -> HashMap<RNode, NodeId> {
        self.op_slots
            .iter()
            .map(|(&n, s)| (RNode::new(s.pe, s.cycle_mod, himap_cgra::RKind::Fu), n))
            .collect()
    }
}
