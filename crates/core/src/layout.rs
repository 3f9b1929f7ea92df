//! Absolute placement of DFG nodes on the CGRA (Algorithm 1, line 13):
//! `nP = (CP × (t, s1, s2) + nP') mod (IIB, 0, 0)`.

use himap_cgra::{PeId, Vsa};
use himap_dfg::{Dfg, Iter4};
use himap_systolic::{Position, RankedMap, SpaceTimeMap};

use crate::submap::SubMapping;

/// An absolute FU/memory slot: physical PE, schedule cycle modulo `IIB`,
/// and the absolute cycle within the block schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Physical PE.
    pub pe: PeId,
    /// Cycle within the repeating `IIB` window.
    pub cycle_mod: u32,
    /// Absolute cycle from the block's start (macro step × t + local time).
    pub abs: i64,
}

/// The combined placement context: VSA clustering + sub-CGRA relative
/// mapping + systolic iteration placement.
#[derive(Clone, Debug)]
pub struct Layout {
    vsa: Vsa,
    sub: SubMapping,
    stmap: SpaceTimeMap,
    /// Iterations per SPE (`P`) — one block initiates every `P` macro steps.
    p: usize,
    /// The modulo window: `IIB = P · t` cycles.
    iib: usize,
    /// Systolic position of each iteration, by linear index.
    positions: Vec<Position>,
}

impl Layout {
    /// Computes the layout of every iteration of `dfg` under a systolic
    /// mapping.
    ///
    /// # Panics
    ///
    /// Panics if some iteration falls outside the VSA grid (the systolic
    /// search guarantees it does not).
    pub fn new(dfg: &Dfg, vsa: Vsa, sub: SubMapping, ranked: &RankedMap) -> Layout {
        let positions: Vec<Position> = (0..dfg.iteration_count())
            .map(|idx| {
                let p = ranked.map.apply(dfg.iteration_at(idx));
                assert!(
                    p.x >= 0
                        && (p.x as usize) < vsa.rows()
                        && p.y >= 0
                        && (p.y as usize) < vsa.cols(),
                    "iteration {:?} maps outside the VSA: {p}",
                    dfg.iteration_at(idx)
                );
                p
            })
            .collect();
        let p = ranked.iterations_per_spe;
        let iib = p * sub.t;
        Layout { vsa, sub, stmap: ranked.map.clone(), p, iib, positions }
    }

    /// The VSA clustering.
    pub fn vsa(&self) -> &Vsa {
        &self.vsa
    }

    /// The sub-CGRA relative mapping.
    pub fn sub(&self) -> &SubMapping {
        &self.sub
    }

    /// The systolic space-time map.
    pub fn stmap(&self) -> &SpaceTimeMap {
        &self.stmap
    }

    /// The modulo schedule window `IIB = P·t` in cycles.
    pub fn iib(&self) -> usize {
        self.iib
    }

    /// Iterations per SPE (`P`).
    pub fn iterations_per_spe(&self) -> usize {
        self.p
    }

    /// Systolic position of an iteration.
    pub fn position(&self, dfg: &Dfg, iter: Iter4) -> Position {
        self.position_at(dfg.linear_index(iter))
    }

    /// Systolic position of the iteration at linear index `idx`.
    pub fn position_at(&self, idx: usize) -> Position {
        self.positions[idx]
    }

    /// Absolute slot of a compute op.
    ///
    /// # Panics
    ///
    /// Panics if the `(stmt, op)` pair is not part of the sub-mapping.
    pub fn op_slot(&self, dfg: &Dfg, iter: Iter4, stmt: u8, op: u8) -> Slot {
        let pos = self.position(dfg, iter);
        let (local_pe, local_t) = self.sub.ops[&(stmt, op)];
        self.slot_at(pos, local_pe, local_t)
    }

    /// Absolute slot for a local `(pe, cycle)` of the sub-CGRA at a
    /// systolic position.
    pub fn slot_at(&self, pos: Position, local_pe: PeId, local_t: u32) -> Slot {
        let spe = himap_cgra::SpeId::new(pos.x as usize, pos.y as usize);
        let pe = self.vsa.pe_at(spe, local_pe);
        let abs = pos.t as i64 * self.sub.t as i64 + local_t as i64;
        Slot { pe, cycle_mod: (abs as u64 % self.iib as u64) as u32, abs }
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::HiMapOptions;
    use crate::submap::map_idfg;
    use himap_cgra::CgraSpec;
    use himap_kernels::suite;
    use himap_systolic::{search, SearchConfig};

    fn gemm_layout() -> (Dfg, Layout) {
        let kernel = suite::gemm();
        let spec = CgraSpec::square(2);
        let subs = map_idfg(&kernel, &spec, &HiMapOptions::default());
        let sub = subs[0].clone();
        assert_eq!((sub.s1, sub.s2), (1, 1));
        let vsa = Vsa::new(spec, sub.s1, sub.s2).unwrap();
        let block = vec![2usize, 2, 2];
        let dfg = Dfg::build(&kernel, &block).unwrap();
        let isdg = dfg.isdg();
        let maps = search(&SearchConfig {
            dims: 3,
            block,
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        });
        let layout = Layout::new(&dfg, vsa, sub, &maps[0]);
        (dfg, layout)
    }

    #[test]
    fn gemm_layout_matches_paper_example() {
        // Fig. 5: 2x2 CGRA, 1x1 sub-CGRA, IIS = b3 = 2, t = 2 => IIB = 4.
        let (_, layout) = gemm_layout();
        assert_eq!(layout.iterations_per_spe(), 2);
        assert_eq!(layout.iib(), 4);
    }

    #[test]
    fn op_slots_unique_modulo_iib() {
        let (dfg, layout) = gemm_layout();
        let mut seen = std::collections::HashSet::new();
        for idx in 0..dfg.iteration_count() {
            let iter = dfg.iteration_at(idx);
            for op in 0..2u8 {
                let slot = layout.op_slot(&dfg, iter, 0, op);
                assert!(
                    seen.insert((slot.pe, slot.cycle_mod)),
                    "FU slot double-booked at {slot:?}"
                );
            }
        }
        // 8 iterations x 2 ops fill 4 PEs x IIB 4 completely: 100 %.
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn abs_and_mod_cycles_consistent() {
        let (dfg, layout) = gemm_layout();
        for idx in 0..dfg.iteration_count() {
            let iter = dfg.iteration_at(idx);
            for op in 0..2u8 {
                let slot = layout.op_slot(&dfg, iter, 0, op);
                assert_eq!(slot.abs.rem_euclid(layout.iib() as i64) as u32, slot.cycle_mod);
                assert!(slot.abs >= 0);
            }
        }
    }

    #[test]
    fn dependent_iterations_in_time_order() {
        let (dfg, layout) = gemm_layout();
        for e in dfg.graph().edge_ids() {
            let (src, dst) = dfg.graph().edge_endpoints(e);
            let (si, di) = (dfg.graph()[src].iter, dfg.graph()[dst].iter);
            if si == di {
                continue;
            }
            let sp = layout.position(&dfg, si);
            let dp = layout.position(&dfg, di);
            assert!(dp.t > sp.t, "dependence does not advance time: {sp} -> {dp}");
        }
    }
}
