//! Fault-aware fabric survey: what the fault map leaves alive.
//!
//! The survey is the architecture half of every bound the analyzer
//! certifies: live PEs cap compute throughput, live memory banks cap load
//! bandwidth, and the connected regions of the surviving mesh cap how much
//! of the fabric a single connected dataflow graph can ever occupy.
//!
//! Region connectivity is deliberately *optimistic*: two live neighbours
//! are considered adjacent when at least one of the two directional wires
//! between them survives. Any real route hop between the PEs implies such
//! adjacency, so a partition of the optimistic graph is a true partition of
//! the routable fabric — bounds derived from it stay sound.

use himap_cgra::{CgraSpec, OpClass, PeId, ALL_DIRS};

/// One weakly-connected region of the surviving mesh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricComponent {
    /// Live PEs in the region.
    pub pes: usize,
    /// Live memory banks in the region.
    pub banks: usize,
}

/// Summary of the surviving fabric under a [`CgraSpec`]'s capability map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricSurvey {
    /// PEs not marked dead.
    pub live_pes: usize,
    /// Live PEs whose local data-memory bank is enabled.
    pub live_banks: usize,
    /// Register slots usable across all live PEs
    /// (`live_pes × rf_size − disabled slots on live PEs`).
    pub live_rf_slots: usize,
    /// Live PEs whose capability classes include plain ALU arithmetic.
    pub live_alu_pes: usize,
    /// Live PEs whose capability classes include multiplication.
    pub live_mul_pes: usize,
    /// Live PEs with any FU-backed class at all (ALU or multiplier); the
    /// remainder are route-only.
    pub live_fu_pes: usize,
    /// Weakly-connected regions of live PEs, largest first.
    pub components: Vec<FabricComponent>,
}

impl FabricSurvey {
    /// `true` when the live PEs form at most one region.
    pub fn is_connected(&self) -> bool {
        self.components.len() <= 1
    }

    /// The largest region, or an empty one on a fully dead fabric.
    pub fn largest_component(&self) -> FabricComponent {
        self.components.first().copied().unwrap_or_default()
    }
}

/// Surveys one rectangular region of the fabric (a tile of the mega-fabric
/// tiled path): live-resource counts and mesh connectivity restricted to
/// PEs inside the rectangle. Count-based like [`survey_fabric`], so the
/// per-tile A-code pigeonholes run without enumerating any MRRG.
pub fn survey_region(spec: &CgraSpec, origin: PeId, rows: usize, cols: usize) -> FabricSurvey {
    let r0 = origin.x as usize;
    let c0 = origin.y as usize;
    let inside = |pe: PeId| {
        (r0..r0 + rows).contains(&(pe.x as usize)) && (c0..c0 + cols).contains(&(pe.y as usize))
    };
    survey(spec, &inside)
}

/// Surveys the fabric: counts live resources and finds the connected
/// regions of the surviving mesh via breadth-first search.
pub fn survey_fabric(spec: &CgraSpec) -> FabricSurvey {
    survey(spec, &|_| true)
}

/// The survey over the PEs selected by `inside`; mesh adjacency is
/// restricted to selected endpoints, so a region survey never credits
/// connectivity through PEs outside its rectangle.
fn survey(spec: &CgraSpec, inside: &dyn Fn(PeId) -> bool) -> FabricSurvey {
    let faults = &spec.faults;
    let mut live_pes = 0usize;
    let mut live_banks = 0usize;
    let mut live_rf_slots = 0usize;
    let mut live_alu_pes = 0usize;
    let mut live_mul_pes = 0usize;
    let mut live_fu_pes = 0usize;
    for pe in spec.pes() {
        if !inside(pe) || faults.pe_dead(pe) {
            continue;
        }
        live_pes += 1;
        if !faults.mem_disabled(pe) {
            live_banks += 1;
        }
        live_rf_slots += (0..spec.rf_size).filter(|&reg| !faults.reg_disabled(pe, reg)).count();
        if faults.supports(pe, OpClass::Alu) {
            live_alu_pes += 1;
        }
        if faults.supports(pe, OpClass::Mul) {
            live_mul_pes += 1;
        }
        if faults.fu_capable(pe) {
            live_fu_pes += 1;
        }
    }

    // BFS over the optimistic adjacency: both endpoints alive and at least
    // one of the two directional wires between them unsevered.
    let mut visited: Vec<PeId> = Vec::with_capacity(live_pes);
    let mut components: Vec<FabricComponent> = Vec::new();
    for start in spec.pes() {
        if !inside(start) || faults.pe_dead(start) || visited.contains(&start) {
            continue;
        }
        let mut component = FabricComponent::default();
        let mut queue = vec![start];
        visited.push(start);
        while let Some(pe) = queue.pop() {
            component.pes += 1;
            if !faults.mem_disabled(pe) {
                component.banks += 1;
            }
            for dir in ALL_DIRS {
                let Some(next) = spec.neighbor(pe, dir) else { continue };
                if !inside(next) || faults.pe_dead(next) || visited.contains(&next) {
                    continue;
                }
                let forward_alive = !faults.link_severed(pe, dir);
                let backward_alive = !faults.link_severed(next, dir.opposite());
                if forward_alive || backward_alive {
                    visited.push(next);
                    queue.push(next);
                }
            }
        }
        components.push(component);
    }
    components.sort_by(|a, b| b.pes.cmp(&a.pes).then(b.banks.cmp(&a.banks)));
    FabricSurvey {
        live_pes,
        live_banks,
        live_rf_slots,
        live_alu_pes,
        live_mul_pes,
        live_fu_pes,
        components,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use himap_cgra::{CapabilityMap, Dir};

    #[test]
    fn pristine_fabric_is_one_region() {
        let spec = CgraSpec::square(4);
        let survey = survey_fabric(&spec);
        assert_eq!(survey.live_pes, 16);
        assert_eq!(survey.live_banks, 16);
        assert_eq!(survey.live_rf_slots, 16 * spec.rf_size);
        assert!(survey.is_connected());
        assert_eq!(survey.largest_component(), FabricComponent { pes: 16, banks: 16 });
    }

    #[test]
    fn dead_pes_and_disabled_banks_are_subtracted() {
        let mut faults = CapabilityMap::new();
        faults.kill_pe(PeId::new(0, 0));
        faults.disable_mem(PeId::new(1, 1));
        faults.disable_reg(PeId::new(2, 2), 0);
        // Faults on a dead PE must not double-count.
        faults.disable_mem(PeId::new(0, 0));
        let spec = CgraSpec::square(4).with_faults(faults);
        let survey = survey_fabric(&spec);
        assert_eq!(survey.live_pes, 15);
        assert_eq!(survey.live_banks, 14);
        assert_eq!(survey.live_rf_slots, 15 * spec.rf_size - 1);
        assert!(survey.is_connected());
    }

    #[test]
    fn a_dead_column_splits_the_mesh() {
        let mut faults = CapabilityMap::new();
        for y in 0..4 {
            faults.kill_pe(PeId::new(1, y));
        }
        let spec = CgraSpec::square(4).with_faults(faults);
        let survey = survey_fabric(&spec);
        assert_eq!(survey.live_pes, 12);
        assert_eq!(survey.components.len(), 2);
        assert_eq!(survey.largest_component().pes, 8);
        assert_eq!(survey.components[1].pes, 4);
    }

    #[test]
    fn one_surviving_direction_keeps_neighbours_adjacent() {
        let mut faults = CapabilityMap::new();
        // Sever only the eastward wire on every column boundary; the
        // westward wires survive, so the mesh stays one region.
        for y in 0..2 {
            faults.sever_link(PeId::new(0, y), Dir::East);
        }
        let spec = CgraSpec::square(2).with_faults(faults);
        assert!(survey_fabric(&spec).is_connected());
    }

    #[test]
    fn capability_restrictions_shape_the_per_class_counts() {
        use himap_cgra::CapabilityMap;
        let spec = CgraSpec::square(4).with_faults(CapabilityMap::heterogeneous(4, 4));
        let survey = survey_fabric(&spec);
        assert_eq!(survey.live_pes, 16, "restrictions are not deaths");
        assert_eq!(survey.live_mul_pes, 4, "corner multipliers only");
        assert_eq!(survey.live_alu_pes, 16);
        assert_eq!(survey.live_fu_pes, 16);
        assert_eq!(survey.live_banks, 12, "interior banks are gone");
        assert!(survey.is_connected());
    }

    #[test]
    fn homogeneous_fabric_has_equal_class_counts() {
        let survey = survey_fabric(&CgraSpec::square(3));
        assert_eq!(survey.live_alu_pes, 9);
        assert_eq!(survey.live_mul_pes, 9);
        assert_eq!(survey.live_fu_pes, 9);
    }

    #[test]
    fn region_survey_sees_only_its_rectangle() {
        let mut faults = CapabilityMap::new();
        faults.kill_pe(PeId::new(0, 0));
        faults.disable_mem(PeId::new(5, 5));
        let spec = CgraSpec::square(8).with_faults(faults);
        // Top-left 4x4 tile: loses the dead corner, keeps its banks.
        let tl = survey_region(&spec, PeId::new(0, 0), 4, 4);
        assert_eq!(tl.live_pes, 15);
        assert_eq!(tl.live_banks, 15);
        assert!(tl.is_connected());
        // Bottom-right 4x4 tile: full PEs, one bank down.
        let br = survey_region(&spec, PeId::new(4, 4), 4, 4);
        assert_eq!(br.live_pes, 16);
        assert_eq!(br.live_banks, 15);
        // Region connectivity must not credit paths through outside PEs:
        // kill the middle column *of the region* and it splits even though
        // the full fabric stays connected.
        let mut wall = CapabilityMap::new();
        for r in 0..4 {
            wall.kill_pe(PeId::new(r, 1));
        }
        let walled = CgraSpec::square(8).with_faults(wall);
        assert!(survey_fabric(&walled).is_connected());
        let region = survey_region(&walled, PeId::new(0, 0), 4, 4);
        assert_eq!(region.components.len(), 2, "{region:?}");
    }

    #[test]
    fn fully_dead_fabric_has_no_components() {
        let mut faults = CapabilityMap::new();
        for x in 0..2 {
            for y in 0..2 {
                faults.kill_pe(PeId::new(x, y));
            }
        }
        let spec = CgraSpec::square(2).with_faults(faults);
        let survey = survey_fabric(&spec);
        assert_eq!(survey.live_pes, 0);
        assert!(survey.components.is_empty());
        assert_eq!(survey.largest_component().pes, 0);
    }
}
