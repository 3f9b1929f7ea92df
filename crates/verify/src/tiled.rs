//! Tiled-mapping verification: the full V-rule set per tile plus
//! inter-tile seam checks — without enumerating the full-fabric MRRG.
//!
//! A [`TiledMapping`] is a base sub-mapping stamped across a tile grid
//! (with local overrides where faults intrude). Its legality decomposes:
//!
//! 1. **Per-tile rules** — every distinct tile mapping (the base and each
//!    override) runs through [`verify_mapping`] unchanged. That builds
//!    MRRG indexes at *tile* scale only.
//! 2. **Seam rules** — tile routes cannot cross tile boundaries by
//!    construction (the tile spec has no border wires), so the seams carry
//!    no shared resources. What translation cannot guarantee is position-
//!    dependent state, so each configured tile is re-checked resource by
//!    resource against the full-fabric capability map: containment (no
//!    used resource outside the tile rectangle — rule V002), fault masks
//!    at the translated coordinates (V006), and per-op capability at the
//!    translated PE (V007).
//! 3. **Pigeonholes** — the analyzer's count-based A-code bounds run per
//!    tile region via [`survey_region`]: a class with placed work needs
//!    live capable PEs (A010), and work beyond `live PEs × II` is a
//!    counting-certain capacity violation (V001).

use himap_analyze::{survey_region, Code, Diagnostic, DiagnosticSink};
use himap_cgra::{OpClass, PeId};
use himap_core::tiled::{placed_ops, translate, translate_pe, used_nodes};
use himap_core::TiledMapping;

use crate::verify::verify_mapping;

/// Verifies a tiled mega-fabric mapping: per-tile V001–V007 plus the seam
/// and pigeonhole rules above. Never materialises a graph larger than one
/// tile's MRRG.
pub fn verify_tiled(tiled: &TiledMapping) -> DiagnosticSink {
    let mut sink = DiagnosticSink::new();
    let spec = tiled.spec();
    let (tile_rows, tile_cols) = tiled.tile_shape();
    if tile_rows == 0
        || tile_cols == 0
        || !spec.rows.is_multiple_of(tile_rows)
        || !spec.cols.is_multiple_of(tile_cols)
    {
        sink.push(Diagnostic::error(
            Code::V002,
            format!(
                "tile shape {tile_rows}x{tile_cols} does not divide the {}x{} fabric",
                spec.rows, spec.cols
            ),
        ));
        return sink;
    }
    let (grid_r, grid_c) = tiled.grid();
    let seam = tiled.seam();
    let configured = seam.tiles_stamped + seam.tiles_renegotiated;
    if seam.tiles_total != grid_r * grid_c || configured + seam.tiles_skipped != seam.tiles_total {
        sink.push(
            Diagnostic::error(Code::V002, "tile disposition counters are inconsistent")
                .note(format!("{seam:?} over a {grid_r}x{grid_c} grid")),
        );
    }

    // Per-tile rule set: each distinct mapping once, at tile scale. The
    // base verifies against the fault-free tile spec; overrides carry
    // their tile-local restrictions, so V006/V007 bind there too.
    sink.extend(verify_mapping(tiled.base()));
    let mut override_keys: Vec<_> = tiled.overrides().keys().copied().collect();
    override_keys.sort_unstable();
    for key in override_keys {
        sink.extend(verify_mapping(&tiled.overrides()[&key]));
    }

    for tr in 0..grid_r {
        for tc in 0..grid_c {
            let Some(mapping) = tiled.tile_mapping(tr, tc) else { continue };
            let (dr, dc) = tiled.tile_origin(tr, tc);
            let tile_note = || format!("tile ({tr},{tc}) at origin ({dr},{dc})");
            for node in used_nodes(mapping) {
                if node.pe.x as usize >= tile_rows || node.pe.y as usize >= tile_cols {
                    sink.push(
                        Diagnostic::error(Code::V002, "tile mapping escapes its tile rectangle")
                            .at_resource(node)
                            .note(tile_note()),
                    );
                    continue;
                }
                let global = translate(node, dr, dc);
                if spec.faults.masks(spec, global) {
                    sink.push(
                        Diagnostic::error(
                            Code::V006,
                            "stamped resource is faulted at its translated coordinates",
                        )
                        .at_resource(global)
                        .note(tile_note()),
                    );
                }
            }
            for (pe, op) in placed_ops(mapping) {
                let global = translate_pe(pe, dr, dc);
                if !spec.faults.supports_op(global, op) {
                    sink.push(
                        Diagnostic::error(
                            Code::V007,
                            format!("{op:?} is not supported at the translated PE"),
                        )
                        .at_pe(global)
                        .note(tile_note()),
                    );
                }
            }
            // Count-based per-region pigeonholes: live capable PEs over one
            // modulo window bound the class work a tile can legally hold.
            let survey = survey_region(spec, PeId::new(dr, dc), tile_rows, tile_cols);
            let iib = mapping.stats().iib.max(1);
            let mut alu_ops = 0usize;
            let mut mul_ops = 0usize;
            for (_, op) in placed_ops(mapping) {
                match OpClass::of(op) {
                    OpClass::Mul => mul_ops += 1,
                    _ => alu_ops += 1,
                }
            }
            for (class, ops, live) in [
                (OpClass::Alu, alu_ops, survey.live_alu_pes),
                (OpClass::Mul, mul_ops, survey.live_mul_pes),
            ] {
                if ops > 0 && live == 0 {
                    sink.push(
                        Diagnostic::error(
                            Code::A010,
                            format!("{class} work placed on a tile with no live {class} PE"),
                        )
                        .note(tile_note()),
                    );
                } else if ops > live * iib {
                    sink.push(
                        Diagnostic::error(
                            Code::V001,
                            format!(
                                "{ops} {class} ops exceed the tile's capacity {live} PEs x II {iib}"
                            ),
                        )
                        .note(tile_note()),
                    );
                }
            }
        }
    }
    sink
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_cgra::{CapabilityMap, CgraSpec};
    use himap_core::{HiMap, HiMapOptions, TileDisposition};
    use himap_kernels::suite;

    #[test]
    fn pristine_16x16_tiled_gemm_verifies_clean() {
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &CgraSpec::square(16))
            .expect("gemm tiles a pristine 16x16");
        let report = verify_tiled(&tiled);
        assert!(!report.has_errors(), "{}", report.render_pretty());
    }

    #[test]
    fn renegotiated_and_skipped_tiles_verify_clean() {
        // Kill one whole 8x8 tile corner plus a stray PE in another tile:
        // the corner tile is skipped (admission rejects a dead fabric), the
        // stray's tile renegotiates, the rest stamp — and the whole result
        // must still verify clean.
        let mut faults = CapabilityMap::new();
        for r in 0..8 {
            for c in 0..8 {
                faults.kill_pe(PeId::new(r, c));
            }
        }
        faults.kill_pe(PeId::new(12, 3));
        let spec = CgraSpec::square(16).with_faults(faults);
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &spec)
            .expect("three of four tiles survive");
        assert_eq!(tiled.disposition(0, 0), TileDisposition::Skipped);
        assert_eq!(tiled.disposition(1, 0), TileDisposition::Renegotiated);
        assert_eq!(tiled.seam().tiles_stamped, 2);
        let report = verify_tiled(&tiled);
        assert!(!report.has_errors(), "{}", report.render_pretty());
    }

    #[test]
    fn fault_under_a_stamp_is_caught_as_v006() {
        // Build a clean tiled mapping, then break the fabric after the
        // fact: a fault under an already-stamped tile must surface as V006
        // at the translated coordinates.
        let clean = CgraSpec::square(16);
        let tiled = HiMap::new(HiMapOptions::default())
            .map_tiled(&suite::gemm(), &clean)
            .expect("gemm tiles a pristine 16x16");
        // Every PE carries an op in a 100%-utilization gemm tile, so any
        // dead PE under any tile breaks some stamp.
        let mut faults = CapabilityMap::new();
        faults.kill_pe(PeId::new(9, 9));
        let broken = TiledMappingRebuild::with_faults(&tiled, faults);
        let report = verify_tiled(&broken);
        assert!(report.has_code(Code::V006), "{}", report.render_pretty());
    }

    /// Test-only helper: clone a tiled mapping with different fabric
    /// faults, keeping everything else (stamps included) unchanged.
    struct TiledMappingRebuild;

    impl TiledMappingRebuild {
        fn with_faults(tiled: &TiledMapping, faults: CapabilityMap) -> TiledMapping {
            let mut clone = tiled.clone();
            clone.set_spec_faults(faults);
            clone
        }
    }
}
