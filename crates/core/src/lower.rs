//! Turning a routed fixed placement into a [`Mapping`].
//!
//! The baseline mappers return their placements together with the routes
//! they committed; [`routed_mapping`] wraps such a result as a [`Mapping`]
//! without routing anything again. The exact backend produces *placements*
//! only: [`route_placement`] routes them with the one fixed-placement router,
//! [`route_pinned`], and wraps the result the same way. Either way the
//! routes carry exact hop timing, so the mapping is held to the independent
//! verifier's full rule set.
//!
//! Unlike HiMap's own pipeline the result is a whole-DFG modulo schedule:
//! `sub_shape = (1, 1, II)` with one "iteration per SPE", i.e. no
//! hierarchical replication. Utilization and II semantics are unchanged.

use std::collections::HashMap;

pub use himap_baseline::LowerError;
use himap_baseline::{route_pinned, TimedRoute};
use himap_cgra::{CgraSpec, PeId};
use himap_dfg::Dfg;
use himap_graph::NodeId;
use himap_mapper::CancelToken;

use crate::config::ConfigImage;
use crate::layout::Slot;
use crate::mapping::{Mapping, MappingParts, MappingStats, RouteInstance};
use crate::stats::PipelineStats;

/// Routes the fixed placement `op_slots` (PE + absolute cycle per compute
/// op) of `dfg` on `spec` at initiation interval `ii` with [`route_pinned`],
/// negotiating congestion for up to `rounds` PathFinder rounds, and wraps
/// the result with [`routed_mapping`].
///
/// # Errors
///
/// Structural defects of the placement ([`LowerError::MissingSlot`],
/// [`LowerError::NonCausal`], …) fail fast; congestion failures return the
/// last round's verdict after the budget is exhausted.
pub fn route_placement(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    op_slots: &HashMap<NodeId, (PeId, i64)>,
    block: &[usize],
    rounds: usize,
    cancel: Option<&CancelToken>,
) -> Result<Mapping, LowerError> {
    let routes = route_pinned(dfg, spec, ii, op_slots, rounds, cancel)?;
    Ok(routed_mapping(dfg, spec, ii, op_slots, routes, block))
}

/// Wraps a routed placement of the whole `dfg` — a baseline mapper's
/// result, or [`route_pinned`]'s output — as a [`Mapping`] of `block` at
/// initiation interval `ii`, with its configuration footprint computed.
pub fn routed_mapping(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    op_slots: &HashMap<NodeId, (PeId, i64)>,
    routes: Vec<TimedRoute>,
    block: &[usize],
) -> Mapping {
    let op_slots = op_slots
        .iter()
        .map(|(&v, &(pe, abs))| (v, Slot { pe, cycle_mod: abs.rem_euclid(ii as i64) as u32, abs }))
        .collect();
    let routes = routes.into_iter().map(|(edge, steps)| RouteInstance { edge, steps }).collect();
    let stats = MappingStats {
        sub_shape: (1, 1, ii),
        unique_iterations: dfg.iteration_count(),
        iterations_per_spe: 1,
        iib: ii,
        max_config_slots: 0,
        block: block.to_vec(),
        pipeline: PipelineStats::default(),
    };
    let mut mapping = Mapping::from_parts(MappingParts {
        spec: spec.clone(),
        dfg: dfg.clone(),
        op_slots,
        routes,
        stats,
    });
    let image = ConfigImage::from_mapping(&mapping);
    mapping.set_max_config_slots(image.max_unique_instrs());
    mapping
}
