//! Mega-fabric tiling: map one sub-CGRA tile, stamp it across the fabric.
//!
//! The paper's scalability pitch is that hierarchical abstraction keeps
//! mapping time flat as the fabric grows. This module delivers that for
//! mega fabrics (32×32, 64×64): [`HiMap::map_tiled`] maps the kernel once
//! onto a *tile* — a small sub-CGRA whose shape divides the fabric — via
//! the ordinary VSA pipeline, then stamps the verified tile mapping
//! across the full array using **translation-only legality checks**. The
//! full-fabric MRRG is never built; the largest graph materialised is the
//! tile's, which [`PipelineStats::memory`](crate::PipelineStats) records
//! and the CI scale gate asserts.
//!
//! ## Why translation is sound
//!
//! The mesh MRRG is translation-invariant: resource kinds, capacities and
//! adjacency depend only on relative PE offsets, except at the fabric
//! border where outgoing wires are absent. A tile mapping is produced on a
//! `tile_rows × tile_cols` spec, so its placements and routes can only use
//! resources that exist *inside* such a rectangle — border wires of the
//! tile spec do not exist, hence no route ever leaves the tile. Translating
//! the whole mapping by a tile origin therefore lands every used resource
//! on a resource that exists in the full fabric (tile interiors are
//! border-free), uses no seam-crossing wire, and shares no resource with
//! any other tile. The only thing translation cannot guarantee is fault
//! and capability state, which is position-dependent — so each stamp is
//! checked per used resource against the full-fabric
//! [`CapabilityMap`] (the seam checks). A tile
//! where any check fails is *renegotiated*: mapped from scratch on a
//! tile-local spec carrying the tile's restrictions; if that also fails the
//! tile is skipped and counted.

use std::collections::HashMap;

use himap_cgra::{CapabilityMap, CgraSpec, MemoryStats, OpClass, PeId, RKind, RNode, ALL_DIRS};
use himap_dfg::NodeKind;
use himap_kernels::{Kernel, OpKind};

use crate::himap::HiMap;
use crate::mapping::Mapping;
use crate::options::HiMapError;
use crate::stats::PipelineStats;

/// Disposition and seam-check counters of one tiled mapping run.
///
/// `seam_checks` counts translation-legality probes: one per used resource
/// (and one per placed op's capability check) per tile. They are the entire
/// cost of stamping a clean tile — no MRRG, no routing, no verification
/// beyond the base tile's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeamStats {
    /// Tiles in the grid (`(rows/tile_rows) · (cols/tile_cols)`).
    pub tiles_total: usize,
    /// Tiles configured by translating the base mapping unchanged.
    pub tiles_stamped: usize,
    /// Tiles remapped locally because a fault or capability restriction
    /// overlapped a translated resource.
    pub tiles_renegotiated: usize,
    /// Tiles left idle because local renegotiation also failed.
    pub tiles_skipped: usize,
    /// Translation-legality checks performed across all tiles.
    pub seam_checks: usize,
}

/// How one tile of the grid ended up configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileDisposition {
    /// The base sub-mapping stamps cleanly (translation-only legality).
    Stamped,
    /// Fault/capability overlap: the tile was renegotiated locally.
    Renegotiated,
    /// The tile is unusable; it is left idle.
    Skipped,
}

/// A kernel mapped onto a mega fabric as a grid of translated tiles.
///
/// Holds one base [`Mapping`] (on the fault-free tile spec) plus local
/// override mappings for tiles the base could not stamp onto. Verify with
/// `himap_verify::verify_tiled`, which runs the full rule set per tile and
/// re-checks every stamp's translated resources against the fabric's
/// capability map — without enumerating the full-fabric MRRG.
#[derive(Clone, Debug)]
pub struct TiledMapping {
    spec: CgraSpec,
    tile_rows: usize,
    tile_cols: usize,
    base: Mapping,
    overrides: HashMap<(usize, usize), Mapping>,
    skipped: Vec<(usize, usize)>,
    seam: SeamStats,
    memory: MemoryStats,
    stats: PipelineStats,
}

impl TiledMapping {
    /// The full-fabric architecture this tiled mapping targets.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The tile shape `(tile_rows, tile_cols)`.
    pub fn tile_shape(&self) -> (usize, usize) {
        (self.tile_rows, self.tile_cols)
    }

    /// The tile grid `(grid_rows, grid_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.spec.rows / self.tile_rows, self.spec.cols / self.tile_cols)
    }

    /// The base mapping stamped onto every clean tile. Its spec is the
    /// fault-free tile spec; its pipeline stats are the run's.
    pub fn base(&self) -> &Mapping {
        &self.base
    }

    /// Locally renegotiated tiles, keyed by grid position.
    pub fn overrides(&self) -> &HashMap<(usize, usize), Mapping> {
        &self.overrides
    }

    /// Grid positions of tiles left idle.
    pub fn skipped(&self) -> &[(usize, usize)] {
        &self.skipped
    }

    /// Disposition and seam-check counters.
    pub fn seam(&self) -> SeamStats {
        self.seam
    }

    /// High-water MRRG index footprint across the base map and every
    /// renegotiation — the evidence that the full-fabric graph was never
    /// materialised (it stays at tile scale).
    pub fn memory(&self) -> MemoryStats {
        self.memory
    }

    /// Pipeline instrumentation of the base tile's mapping run.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Fabric coordinates of tile `(tr, tc)`'s north-west corner.
    pub fn tile_origin(&self, tr: usize, tc: usize) -> (usize, usize) {
        (tr * self.tile_rows, tc * self.tile_cols)
    }

    /// How tile `(tr, tc)` was configured.
    pub fn disposition(&self, tr: usize, tc: usize) -> TileDisposition {
        if self.skipped.contains(&(tr, tc)) {
            TileDisposition::Skipped
        } else if self.overrides.contains_key(&(tr, tc)) {
            TileDisposition::Renegotiated
        } else {
            TileDisposition::Stamped
        }
    }

    /// The mapping configured onto tile `(tr, tc)` in tile-local
    /// coordinates: the override when the tile was renegotiated, the base
    /// mapping when it was stamped, `None` when it is idle.
    pub fn tile_mapping(&self, tr: usize, tc: usize) -> Option<&Mapping> {
        match self.disposition(tr, tc) {
            TileDisposition::Skipped => None,
            TileDisposition::Renegotiated => self.overrides.get(&(tr, tc)),
            TileDisposition::Stamped => Some(&self.base),
        }
    }

    /// Tile `(tr, tc)`'s mapping translated into full-fabric coordinates,
    /// with the full-fabric spec (faults included) attached — exactly what
    /// the non-tiled verifier expects. `None` for idle tiles.
    ///
    /// This *does* imply a full-fabric MRRG if the result is verified with
    /// `verify_mapping`; it exists for differential testing (a tiled
    /// mapping, expanded, must pass the full verifier), not for the
    /// mega-fabric hot path.
    pub fn expand_tile(&self, tr: usize, tc: usize) -> Option<Mapping> {
        let tile = self.tile_mapping(tr, tc)?;
        let (dr, dc) = self.tile_origin(tr, tc);
        let mut parts = tile.clone().into_parts();
        parts.spec = self.spec.clone();
        for slot in parts.op_slots.values_mut() {
            slot.pe = translate_pe(slot.pe, dr, dc);
        }
        for route in &mut parts.routes {
            for (node, _) in &mut route.steps {
                *node = translate(*node, dr, dc);
            }
        }
        Some(Mapping::from_parts(parts))
    }

    /// Aggregate FU utilization across the whole fabric (idle tiles count
    /// as zero).
    pub fn utilization(&self) -> f64 {
        let tile_pes = (self.tile_rows * self.tile_cols) as f64;
        let (gr, gc) = self.grid();
        let mut sum = 0.0;
        for tr in 0..gr {
            for tc in 0..gc {
                if let Some(m) = self.tile_mapping(tr, tc) {
                    sum += m.utilization() * tile_pes;
                }
            }
        }
        sum / self.spec.pe_count() as f64
    }

    /// Replaces the full-fabric capability map while keeping every stamp
    /// unchanged. Exists so verifier tests can break the fabric *after*
    /// mapping and watch the seam checks catch the stale stamps.
    pub fn set_spec_faults(&mut self, faults: CapabilityMap) {
        self.spec.faults = faults;
    }
}

/// Translates an MRRG node by a tile origin (time and kind untouched —
/// translation moves space only).
pub fn translate(node: RNode, dr: usize, dc: usize) -> RNode {
    RNode::new(translate_pe(node.pe, dr, dc), node.t, node.kind)
}

/// Translates a PE coordinate by a tile origin.
pub fn translate_pe(pe: PeId, dr: usize, dc: usize) -> PeId {
    PeId::new(pe.x as usize + dr, pe.y as usize + dc)
}

/// Every MRRG resource a mapping occupies: FU slots of placed ops plus all
/// route steps, deduplicated in ascending node order. These are exactly the
/// resources a stamp translates, so they are what the seam checks probe.
pub fn used_nodes(mapping: &Mapping) -> Vec<RNode> {
    let mut nodes = Vec::new();
    for slot in mapping.op_slots().values() {
        nodes.push(RNode::new(slot.pe, slot.cycle_mod, RKind::Fu));
    }
    for route in mapping.routes() {
        for &(node, _) in &route.steps {
            nodes.push(node);
        }
    }
    nodes.sort();
    nodes.dedup();
    nodes
}

/// The `(PE, op)` pairs of a mapping's placed compute ops — the per-op
/// capability obligations a stamp must re-check at its translated
/// coordinates ([`CapabilityMap::supports_op`]).
pub fn placed_ops(mapping: &Mapping) -> Vec<(PeId, OpKind)> {
    // DFG node order is deterministic, so the probe order (and therefore
    // the seam-check counters) is too.
    mapping
        .dfg()
        .graph()
        .nodes()
        .filter_map(|(node, w)| {
            let NodeKind::Op { kind, .. } = w.kind else { return None };
            mapping.op_slot(node).map(|slot| (slot.pe, kind))
        })
        .collect()
}

/// The largest tile dimension `≤ cap` dividing `n` (at least 1).
fn tile_dim(n: usize, cap: usize) -> usize {
    (1..=n.min(cap)).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
}

/// The fabric's restrictions over one tile region, re-keyed to tile-local
/// coordinates — the spec a dirty tile is renegotiated against.
fn local_capabilities(
    spec: &CgraSpec,
    dr: usize,
    dc: usize,
    rows: usize,
    cols: usize,
) -> CapabilityMap {
    let faults = &spec.faults;
    let mut local = CapabilityMap::new();
    for r in 0..rows {
        for c in 0..cols {
            let g = PeId::new(dr + r, dc + c);
            let l = PeId::new(r, c);
            if faults.pe_dead(g) {
                local.kill_pe(l);
                continue;
            }
            for dir in ALL_DIRS {
                if faults.link_severed(g, dir) {
                    local.sever_link(l, dir);
                }
            }
            for reg in 0..spec.rf_size {
                if faults.reg_disabled(g, reg) {
                    local.disable_reg(l, reg);
                }
            }
            if faults.mem_disabled(g) {
                local.disable_mem(l);
            }
            let classes: Vec<OpClass> = [OpClass::Alu, OpClass::Mul, OpClass::Mem]
                .into_iter()
                .filter(|&class| faults.supports(g, class))
                .collect();
            local.set_classes(l, &classes);
        }
    }
    local
}

impl HiMap {
    /// Maps `kernel` onto a mega fabric by tiling: one
    /// [`HiMap::map`]-quality mapping of an automatically chosen tile
    /// (largest divisor of each fabric dimension up to 8), stamped across
    /// the grid with translation-only legality checks and per-tile
    /// renegotiation where faults or capability restrictions intrude. The
    /// full-fabric MRRG is never materialised.
    ///
    /// # Errors
    ///
    /// Propagates the base tile's mapping error; returns
    /// [`HiMapError::Tiling`] when the tile shape cannot divide the fabric
    /// or when not a single tile could be configured.
    pub fn map_tiled(&self, kernel: &Kernel, spec: &CgraSpec) -> Result<TiledMapping, HiMapError> {
        self.map_tiled_with(kernel, spec, tile_dim(spec.rows, 8), tile_dim(spec.cols, 8))
    }

    /// [`HiMap::map_tiled`] with an explicit tile shape. The shape must
    /// divide the fabric exactly.
    pub fn map_tiled_with(
        &self,
        kernel: &Kernel,
        spec: &CgraSpec,
        tile_rows: usize,
        tile_cols: usize,
    ) -> Result<TiledMapping, HiMapError> {
        if tile_rows == 0
            || tile_cols == 0
            || !spec.rows.is_multiple_of(tile_rows)
            || !spec.cols.is_multiple_of(tile_cols)
        {
            return Err(HiMapError::Tiling(format!(
                "tile {tile_rows}x{tile_cols} does not divide the {}x{} fabric",
                spec.rows, spec.cols
            )));
        }
        // The base tile is mapped position-agnostically on the idealized
        // fabric; fault awareness comes from the per-tile seam checks below.
        let tile_spec = CgraSpec { rows: tile_rows, cols: tile_cols, ..spec.fault_free() };
        let (result, stats) = self.map_with_stats(kernel, &tile_spec);
        let base = result?;
        let mut memory = stats.memory;

        let used = used_nodes(&base);
        let ops = placed_ops(&base);
        let (grid_r, grid_c) = (spec.rows / tile_rows, spec.cols / tile_cols);
        let mut seam = SeamStats { tiles_total: grid_r * grid_c, ..SeamStats::default() };
        let mut overrides = HashMap::new();
        let mut skipped = Vec::new();
        for tr in 0..grid_r {
            for tc in 0..grid_c {
                let (dr, dc) = (tr * tile_rows, tc * tile_cols);
                if stamp_is_legal(spec, &used, &ops, dr, dc, &mut seam.seam_checks) {
                    seam.tiles_stamped += 1;
                    continue;
                }
                // A fault or restriction overlaps a translated resource:
                // renegotiate on the tile-local restricted spec. Admission
                // rejects hopeless tiles (e.g. fully dead) without any
                // mapping work.
                let local = local_capabilities(spec, dr, dc, tile_rows, tile_cols);
                let local_spec =
                    CgraSpec { rows: tile_rows, cols: tile_cols, faults: local, ..spec.clone() };
                let (renegotiated, local_stats) = self.map_with_stats(kernel, &local_spec);
                memory = memory.max(local_stats.memory);
                match renegotiated {
                    Ok(mapping) => {
                        seam.tiles_renegotiated += 1;
                        overrides.insert((tr, tc), mapping);
                    }
                    Err(_) => {
                        seam.tiles_skipped += 1;
                        skipped.push((tr, tc));
                    }
                }
            }
        }
        if seam.tiles_stamped + seam.tiles_renegotiated == 0 {
            return Err(HiMapError::Tiling(format!(
                "no tile of the {}x{} fabric could be configured ({} skipped)",
                spec.rows, spec.cols, seam.tiles_skipped
            )));
        }
        Ok(TiledMapping {
            spec: spec.clone(),
            tile_rows,
            tile_cols,
            base,
            overrides,
            skipped,
            seam,
            memory,
            stats,
        })
    }
}

/// Whether the base mapping stamps legally at tile origin `(dr, dc)`:
/// every used resource, translated, must survive the fabric's capability
/// mask, and every placed op must be supported at its translated PE. Each
/// probe increments the seam-check counter.
fn stamp_is_legal(
    spec: &CgraSpec,
    used: &[RNode],
    ops: &[(PeId, OpKind)],
    dr: usize,
    dc: usize,
    seam_checks: &mut usize,
) -> bool {
    for &node in used {
        *seam_checks += 1;
        if spec.faults.masks(spec, translate(node, dr, dc)) {
            return false;
        }
    }
    for &(pe, op) in ops {
        *seam_checks += 1;
        if !spec.faults.supports_op(translate_pe(pe, dr, dc), op) {
            return false;
        }
    }
    true
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_cgra::CapabilityMap;
    use himap_kernels::suite;

    use crate::options::HiMapOptions;

    #[test]
    fn tile_dim_picks_the_largest_divisor() {
        assert_eq!(tile_dim(64, 8), 8);
        assert_eq!(tile_dim(32, 8), 8);
        assert_eq!(tile_dim(12, 8), 6);
        assert_eq!(tile_dim(4, 8), 4);
        assert_eq!(tile_dim(7, 8), 7);
        assert_eq!(tile_dim(13, 8), 1);
    }

    #[test]
    fn pristine_16x16_stamps_every_tile() {
        let spec = CgraSpec::square(16);
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &spec)
            .expect("gemm tiles a pristine 16x16");
        assert_eq!(tiled.tile_shape(), (8, 8));
        assert_eq!(tiled.grid(), (2, 2));
        let seam = tiled.seam();
        assert_eq!(seam.tiles_total, 4);
        assert_eq!(seam.tiles_stamped, 4);
        assert_eq!(seam.tiles_renegotiated, 0);
        assert_eq!(seam.tiles_skipped, 0);
        assert!(seam.seam_checks > 0);
        // The largest index built is the tile's, not the fabric's: a 16x16
        // graph would hold 4x the nodes of the 8x8 tile graph.
        let tile_nodes = tiled.memory().nodes;
        assert!(tile_nodes > 0);
        let full = himap_cgra::Mrrg::new(spec, tiled.base().stats().iib.max(1)).node_count();
        assert!(tile_nodes * 2 < full, "index {tile_nodes} nodes vs full fabric {full}");
        assert!(tiled.utilization() > 0.0);
    }

    #[test]
    fn dead_pe_triggers_renegotiation_only_where_it_lands() {
        let mut faults = CapabilityMap::new();
        faults.kill_pe(PeId::new(2, 3));
        let spec = CgraSpec::square(16).with_faults(faults);
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &spec)
            .expect("one dead PE leaves the 16x16 tileable");
        let seam = tiled.seam();
        assert_eq!(seam.tiles_stamped, 3);
        assert_eq!(seam.tiles_renegotiated, 1);
        assert_eq!(tiled.disposition(0, 0), TileDisposition::Renegotiated);
        assert_eq!(tiled.disposition(1, 1), TileDisposition::Stamped);
        // The override respects the translated fault.
        let local = tiled.overrides().get(&(0, 0)).unwrap();
        assert!(local.spec().faults.pe_dead(PeId::new(2, 3)));
        for node in used_nodes(local) {
            assert!(!local.spec().faults.masks(local.spec(), node), "{node:?}");
        }
    }

    #[test]
    fn expanded_tile_lands_inside_its_region() {
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &CgraSpec::square(16))
            .expect("gemm tiles a pristine 16x16");
        let expanded = tiled.expand_tile(1, 1).expect("stamped tile expands");
        assert_eq!(expanded.spec().rows, 16);
        for node in used_nodes(&expanded) {
            let (x, y) = (node.pe.x as usize, node.pe.y as usize);
            assert!((8..16).contains(&x) && (8..16).contains(&y), "{node:?} escapes tile (1,1)");
        }
    }

    #[test]
    fn indivisible_tile_shape_is_a_typed_error() {
        let err = HiMap::new(HiMapOptions::default())
            .map_tiled_with(&suite::gemm(), &CgraSpec::square(16), 5, 8)
            .expect_err("5 does not divide 16");
        assert!(matches!(err, HiMapError::Tiling(_)), "{err}");
        assert!(err.to_string().contains("does not divide"));
    }
}
