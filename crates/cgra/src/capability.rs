//! Capability model: what each PE of a physical CGRA instance can do.
//!
//! A [`CapabilityMap`] assigns every PE a set of op-classes ([`OpClass`]:
//! `alu` / `mul` / `mem` / `route`) on top of the fault state inherited from
//! the original fault model — dead PEs, severed directional mesh links,
//! disabled register-file slots and disabled local data-memory banks. A
//! pristine homogeneous fabric is the default: every PE supports every
//! class and nothing is faulted. Faults embed into the capability lattice
//! as the "zero capabilities" special case (a dead PE supports no class at
//! all), so the fault machinery is a strict subset of the capability
//! machinery.
//!
//! The map lives on [`CgraSpec`], so every consumer of the architecture
//! description (MRRG enumeration, the dense [`MrrgIndex`](crate::MrrgIndex),
//! VSA clustering, the verifier, the simulator) sees the same masked
//! resource set: a resource a PE is not capable of simply does not exist in
//! the routing graph, and the mapper routes around it without any
//! capability-specific logic of its own. Per-*operation* legality (a `mul`
//! on an ALU-only PE) cannot be expressed as a graph mask — FU nodes are
//! op-agnostic — so placement layers consult [`CapabilityMap::supports_op`]
//! directly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use himap_kernels::OpKind;

use crate::arch::{CgraSpec, Dir, PeId};
use crate::mrrg::{RKind, RNode};

/// Operation classes a PE may provide.
///
/// The classes form a flat lattice under set inclusion: a PE's capability is
/// any subset of `{alu, mul, mem}` (plus `route`, which every live PE
/// provides — the crossbar and register file always switch). A fully dead
/// PE is the bottom element (no classes, not even `route`); the
/// homogeneous default is the top element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Plain ALU arithmetic (`add`, `sub`, `min`, `max`).
    Alu,
    /// Multiplication.
    Mul,
    /// Local data-memory bank access (live-in loads, store retirement).
    Mem,
    /// Pass-through routing only (crossbar, wires, register file).
    Route,
}

/// All op-classes, in a fixed deterministic order.
pub const ALL_OP_CLASSES: [OpClass; 4] = [OpClass::Alu, OpClass::Mul, OpClass::Mem, OpClass::Route];

/// Bit for [`OpClass::Alu`] in a packed class mask.
const ALU_BIT: u8 = 1 << 0;
/// Bit for [`OpClass::Mul`].
const MUL_BIT: u8 = 1 << 1;
/// Bit for [`OpClass::Mem`].
const MEM_BIT: u8 = 1 << 2;
/// The homogeneous default: every class supported.
const FULL_MASK: u8 = ALU_BIT | MUL_BIT | MEM_BIT;
/// Classes that make a PE's functional unit usable at all.
const FU_MASK: u8 = ALU_BIT | MUL_BIT;

impl OpClass {
    /// The class an ALU operation belongs to.
    pub fn of(op: OpKind) -> OpClass {
        match op {
            OpKind::Mul => OpClass::Mul,
            OpKind::Add | OpKind::Sub | OpKind::Min | OpKind::Max => OpClass::Alu,
        }
    }

    /// Short lowercase mnemonic (`alu`, `mul`, `mem`, `route`).
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Mul => "mul",
            OpClass::Mem => "mem",
            OpClass::Route => "route",
        }
    }

    /// The class's bit in a packed mask (`Route` carries no bit: every live
    /// PE routes).
    fn bit(self) -> u8 {
        match self {
            OpClass::Alu => ALU_BIT,
            OpClass::Mul => MUL_BIT,
            OpClass::Mem => MEM_BIT,
            OpClass::Route => 0,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Packs a class list into a mask.
fn mask_of(classes: &[OpClass]) -> u8 {
    classes.iter().fold(0u8, |m, c| m | c.bit())
}

/// The per-PE capability assignment (and faulted resources) of one CGRA
/// instance.
///
/// An empty map (the [`Default`]) describes a pristine homogeneous fabric
/// and is free: MRRG construction short-circuits every mask check behind
/// one branch. Ordered collections keep the map's `Debug`/iteration order —
/// and therefore every derived artifact — deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CapabilityMap {
    /// PEs that are entirely unusable (ALU, RF, crossbar and memory) — the
    /// zero element of the capability lattice.
    dead_pes: BTreeSet<PeId>,
    /// Severed directional links, keyed by the *source* PE and the outgoing
    /// direction. Severing `(pe, East)` kills the wire from `pe` to its east
    /// neighbour only; the opposite wire stays usable.
    severed_links: BTreeSet<(PeId, Dir)>,
    /// Disabled register-file slots `(pe, register index)`.
    disabled_regs: BTreeSet<(PeId, usize)>,
    /// PEs whose local data-memory bank is disabled (compute still works).
    disabled_mems: BTreeSet<PeId>,
    /// Supported-class masks of heterogeneous PEs. Absent means the
    /// homogeneous default ([`FULL_MASK`]); entries are normalized so a
    /// full mask is never stored.
    restricted: BTreeMap<PeId, u8>,
}

impl CapabilityMap {
    /// An empty (pristine, homogeneous) map.
    pub fn new() -> Self {
        CapabilityMap::default()
    }

    /// Marks `pe` as entirely dead.
    pub fn kill_pe(&mut self, pe: PeId) -> &mut Self {
        self.dead_pes.insert(pe);
        self
    }

    /// Severs the directional link leaving `pe` toward `dir`.
    pub fn sever_link(&mut self, pe: PeId, dir: Dir) -> &mut Self {
        self.severed_links.insert((pe, dir));
        self
    }

    /// Disables register slot `reg` of `pe`'s register file.
    pub fn disable_reg(&mut self, pe: PeId, reg: usize) -> &mut Self {
        self.disabled_regs.insert((pe, reg));
        self
    }

    /// Disables `pe`'s local data-memory bank.
    pub fn disable_mem(&mut self, pe: PeId) -> &mut Self {
        self.disabled_mems.insert(pe);
        self
    }

    /// Sets `pe`'s supported classes to exactly `classes` (plus implicit
    /// routing). An empty list or `&[OpClass::Route]` makes the PE
    /// route-only; listing every class restores the homogeneous default.
    pub fn set_classes(&mut self, pe: PeId, classes: &[OpClass]) -> &mut Self {
        self.store_mask(pe, mask_of(classes));
        self
    }

    /// Intersects `pe`'s supported classes with `classes` — the composable
    /// form of [`CapabilityMap::set_classes`], so independent restrictions
    /// (corner multipliers, edge-only memory) stack.
    pub fn restrict(&mut self, pe: PeId, classes: &[OpClass]) -> &mut Self {
        let mask = self.class_mask(pe) & mask_of(classes);
        self.store_mask(pe, mask);
        self
    }

    /// Normalized mask storage: the homogeneous default is never kept as an
    /// entry, so `is_empty`/`PartialEq` stay meaningful.
    fn store_mask(&mut self, pe: PeId, mask: u8) {
        if mask == FULL_MASK {
            self.restricted.remove(&pe);
        } else {
            self.restricted.insert(pe, mask);
        }
    }

    /// The packed supported-class mask of `pe` (ignores deadness).
    fn class_mask(&self, pe: PeId) -> u8 {
        self.restricted.get(&pe).copied().unwrap_or(FULL_MASK)
    }

    /// `true` when no resource is faulted and no PE is capability-restricted
    /// (the fast path everywhere).
    pub fn is_empty(&self) -> bool {
        self.dead_pes.is_empty()
            && self.severed_links.is_empty()
            && self.disabled_regs.is_empty()
            && self.disabled_mems.is_empty()
            && self.restricted.is_empty()
    }

    /// `true` when at least one whole PE is dead (the only fault class that
    /// forces VSA cropping — all others are routed around in place).
    pub fn has_dead_pes(&self) -> bool {
        !self.dead_pes.is_empty()
    }

    /// Number of faulted or restricted resources across all classes.
    pub fn len(&self) -> usize {
        self.dead_pes.len()
            + self.severed_links.len()
            + self.disabled_regs.len()
            + self.disabled_mems.len()
            + self.restricted.len()
    }

    /// Whether `pe` is dead.
    pub fn pe_dead(&self, pe: PeId) -> bool {
        self.dead_pes.contains(&pe)
    }

    /// Whether the directional link leaving `pe` toward `dir` is severed.
    pub fn link_severed(&self, pe: PeId, dir: Dir) -> bool {
        self.severed_links.contains(&(pe, dir))
    }

    /// Whether register slot `reg` of `pe` is disabled.
    pub fn reg_disabled(&self, pe: PeId, reg: usize) -> bool {
        self.disabled_regs.contains(&(pe, reg))
    }

    /// Whether `pe`'s data-memory bank is unusable — disabled as a fault or
    /// absent from the PE's capability classes. The two embeddings are
    /// deliberately indistinguishable here, so every bank consumer (router
    /// memory sources, baselines, the fabric survey) is capability-aware
    /// through the one predicate it already calls.
    pub fn mem_disabled(&self, pe: PeId) -> bool {
        self.disabled_mems.contains(&pe) || self.class_mask(pe) & MEM_BIT == 0
    }

    /// The dead PEs in deterministic (row-major) order.
    pub fn dead_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.dead_pes.iter().copied()
    }

    /// The capability-restricted PEs in deterministic order.
    pub fn restricted_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.restricted.keys().copied()
    }

    /// Whether `pe` provides `class`. Dead PEs provide nothing; every live
    /// PE provides [`OpClass::Route`]; [`OpClass::Mem`] folds in the
    /// disabled-bank fault set.
    pub fn supports(&self, pe: PeId, class: OpClass) -> bool {
        if self.pe_dead(pe) {
            return false;
        }
        match class {
            OpClass::Route => true,
            OpClass::Mem => !self.mem_disabled(pe),
            OpClass::Alu | OpClass::Mul => self.class_mask(pe) & class.bit() != 0,
        }
    }

    /// Whether `pe` can execute the ALU operation `op`.
    pub fn supports_op(&self, pe: PeId, op: OpKind) -> bool {
        self.supports(pe, OpClass::of(op))
    }

    /// Whether `pe`'s functional unit is usable at all — `false` for dead
    /// and for route-only PEs, whose `Fu`/`Out` resources are masked out of
    /// the MRRG entirely.
    pub fn fu_capable(&self, pe: PeId) -> bool {
        !self.pe_dead(pe) && self.class_mask(pe) & FU_MASK != 0
    }

    /// Whether this map masks `node` out of the MRRG of `spec` — the single
    /// source of truth shared by enumeration, the dense index, the verifier
    /// and the simulator.
    ///
    /// A node is masked when its owning PE is dead, plus per kind:
    ///
    /// * `Fu`/`Out` are masked when the PE is route-only (no FU-backed
    ///   class at all) — with no ALU there is nothing to execute and the
    ///   output register can never be written;
    /// * `Wire(d)` — the value on the link from `node.pe` toward `d`,
    ///   available at the neighbour — is masked when that link is severed or
    ///   the receiving neighbour is dead (a wire into a dead PE delivers
    ///   nowhere);
    /// * `Reg(r)` is masked when that register slot is disabled;
    /// * `Mem` is masked when the PE's bank is disabled or outside its
    ///   capability classes.
    ///
    /// Per-op legality (a `mul` on an ALU-only PE) is *not* a mask: FU
    /// nodes are op-agnostic, so placement layers enforce it via
    /// [`CapabilityMap::supports_op`].
    ///
    /// `RegWr`/`RegRd` ports are only masked with their whole PE: with some
    /// registers still alive they remain useful, and with all registers
    /// disabled they are harmless dead ends the router never profits from.
    pub fn masks(&self, spec: &CgraSpec, node: RNode) -> bool {
        if self.is_empty() {
            return false;
        }
        if self.pe_dead(node.pe) {
            return true;
        }
        match node.kind {
            RKind::Fu | RKind::Out => !self.fu_capable(node.pe),
            RKind::Wire(dir) => {
                self.link_severed(node.pe, dir)
                    || spec.neighbor(node.pe, dir).is_some_and(|n| self.pe_dead(n))
            }
            RKind::Reg(r) => self.reg_disabled(node.pe, r as usize),
            RKind::Mem => self.mem_disabled(node.pe),
            RKind::RegWr | RKind::RegRd => false,
        }
    }

    /// The heterogeneous "corner multipliers" fabric restriction: only the
    /// four corner PEs of a `rows × cols` array keep [`OpClass::Mul`];
    /// every other PE retains ALU and memory capability.
    pub fn corner_multipliers(rows: usize, cols: usize) -> CapabilityMap {
        let mut map = CapabilityMap::new();
        let corners = [
            PeId::new(0, 0),
            PeId::new(0, cols.saturating_sub(1)),
            PeId::new(rows.saturating_sub(1), 0),
            PeId::new(rows.saturating_sub(1), cols.saturating_sub(1)),
        ];
        for x in 0..rows {
            for y in 0..cols {
                let pe = PeId::new(x, y);
                if !corners.contains(&pe) {
                    map.restrict(pe, &[OpClass::Alu, OpClass::Mem]);
                }
            }
        }
        map
    }

    /// The heterogeneous "edge-only memory" fabric restriction: interior
    /// PEs of a `rows × cols` array lose their local data-memory bank;
    /// compute capability is untouched.
    pub fn mem_edge_only(rows: usize, cols: usize) -> CapabilityMap {
        let mut map = CapabilityMap::new();
        for x in 1..rows.saturating_sub(1) {
            for y in 1..cols.saturating_sub(1) {
                map.restrict(PeId::new(x, y), &[OpClass::Alu, OpClass::Mul]);
            }
        }
        map
    }

    /// The combined heterogeneous suite fabric: corner multipliers *and*
    /// edge-only memory banks, stacked via [`CapabilityMap::restrict`].
    pub fn heterogeneous(rows: usize, cols: usize) -> CapabilityMap {
        let mut map = CapabilityMap::corner_multipliers(rows, cols);
        for x in 1..rows.saturating_sub(1) {
            for y in 1..cols.saturating_sub(1) {
                map.restrict(PeId::new(x, y), &[OpClass::Alu, OpClass::Mul]);
            }
        }
        map
    }
}

impl fmt::Display for CapabilityMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no faults");
        }
        let mut parts = Vec::new();
        if !self.dead_pes.is_empty() {
            parts.push(format!("{} dead PE(s)", self.dead_pes.len()));
        }
        if !self.severed_links.is_empty() {
            parts.push(format!("{} severed link(s)", self.severed_links.len()));
        }
        if !self.disabled_regs.is_empty() {
            parts.push(format!("{} disabled register(s)", self.disabled_regs.len()));
        }
        if !self.disabled_mems.is_empty() {
            parts.push(format!("{} disabled memory bank(s)", self.disabled_mems.len()));
        }
        if !self.restricted.is_empty() {
            parts.push(format!("{} capability-restricted PE(s)", self.restricted.len()));
        }
        write!(f, "{}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_masks_nothing() {
        let spec = CgraSpec::square(4);
        let map = CapabilityMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        for pe in spec.pes() {
            assert!(!map.masks(&spec, RNode::new(pe, 0, RKind::Fu)));
        }
        assert_eq!(map.to_string(), "no faults");
    }

    #[test]
    fn dead_pe_masks_every_kind_and_incoming_wires() {
        let spec = CgraSpec::square(4);
        let mut map = CapabilityMap::new();
        map.kill_pe(PeId::new(1, 1));
        assert!(map.has_dead_pes());
        for kind in [RKind::Fu, RKind::Out, RKind::Mem, RKind::RegWr, RKind::RegRd, RKind::Reg(0)] {
            assert!(map.masks(&spec, RNode::new(PeId::new(1, 1), 0, kind)), "{kind:?}");
        }
        // The wire from (0,1) south into the dead PE delivers nowhere.
        assert!(map.masks(&spec, RNode::new(PeId::new(0, 1), 0, RKind::Wire(Dir::South))));
        // A wire from (0,1) east does not touch the dead PE.
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 1), 0, RKind::Wire(Dir::East))));
    }

    #[test]
    fn severed_link_is_directional() {
        let spec = CgraSpec::square(4);
        let mut map = CapabilityMap::new();
        map.sever_link(PeId::new(0, 0), Dir::East);
        assert!(map.masks(&spec, RNode::new(PeId::new(0, 0), 2, RKind::Wire(Dir::East))));
        // The reverse link (0,1) -> west survives.
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 1), 2, RKind::Wire(Dir::West))));
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 0), 2, RKind::Fu)));
    }

    #[test]
    fn reg_and_mem_faults_are_slot_precise() {
        let spec = CgraSpec::square(2);
        let mut map = CapabilityMap::new();
        map.disable_reg(PeId::new(0, 0), 2).disable_mem(PeId::new(1, 1));
        assert!(map.masks(&spec, RNode::new(PeId::new(0, 0), 0, RKind::Reg(2))));
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 0), 0, RKind::Reg(1))));
        assert!(map.masks(&spec, RNode::new(PeId::new(1, 1), 1, RKind::Mem)));
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 1), 1, RKind::Mem)));
        assert_eq!(map.len(), 2);
        let text = map.to_string();
        assert!(text.contains("register") && text.contains("memory"), "{text}");
    }

    #[test]
    fn fault_only_map_is_bit_identical_to_the_fault_model() {
        // Faults are the zero-capability corner of the lattice: a map built
        // exclusively through the fault builders must carry no capability
        // state and reproduce the original fault-model mask predicate.
        let spec = CgraSpec::square(3);
        let mut map = CapabilityMap::new();
        map.kill_pe(PeId::new(1, 1))
            .sever_link(PeId::new(0, 0), Dir::East)
            .disable_reg(PeId::new(0, 1), 1)
            .disable_mem(PeId::new(2, 2));
        assert!(map.restricted_pes().next().is_none());
        assert_eq!(map.len(), 4);
        for pe in spec.pes() {
            // Every live PE of a fault-only map keeps full capability.
            if !map.pe_dead(pe) {
                assert!(map.supports(pe, OpClass::Alu), "{pe}");
                assert!(map.supports(pe, OpClass::Mul), "{pe}");
                assert!(map.fu_capable(pe), "{pe}");
                assert_eq!(map.supports(pe, OpClass::Mem), !map.mem_disabled(pe), "{pe}");
            }
            // And the mask predicate matches the original rules per kind.
            for t in 0..2 {
                for kind in
                    [RKind::Fu, RKind::Out, RKind::Mem, RKind::RegWr, RKind::RegRd, RKind::Reg(1)]
                {
                    let node = RNode::new(pe, t, kind);
                    let original = map.pe_dead(pe)
                        || match kind {
                            RKind::Reg(r) => map.reg_disabled(pe, r as usize),
                            RKind::Mem => map.mem_disabled(pe),
                            _ => false,
                        };
                    assert_eq!(map.masks(&spec, node), original, "{node:?}");
                }
            }
        }
    }

    #[test]
    fn route_only_pes_lose_fu_and_out() {
        let spec = CgraSpec::square(3);
        let mut map = CapabilityMap::new();
        map.set_classes(PeId::new(1, 1), &[OpClass::Route]);
        assert!(!map.is_empty());
        assert_eq!(map.len(), 1);
        assert!(!map.fu_capable(PeId::new(1, 1)));
        assert!(map.supports(PeId::new(1, 1), OpClass::Route));
        assert!(map.masks(&spec, RNode::new(PeId::new(1, 1), 0, RKind::Fu)));
        assert!(map.masks(&spec, RNode::new(PeId::new(1, 1), 1, RKind::Out)));
        // Routing fabric survives: wires, registers, ports stay usable.
        assert!(!map.masks(&spec, RNode::new(PeId::new(1, 1), 0, RKind::Wire(Dir::East))));
        assert!(!map.masks(&spec, RNode::new(PeId::new(1, 1), 0, RKind::Reg(0))));
        assert!(!map.masks(&spec, RNode::new(PeId::new(1, 1), 0, RKind::RegWr)));
        // A route-only PE has no memory class either.
        assert!(map.masks(&spec, RNode::new(PeId::new(1, 1), 0, RKind::Mem)));
        // Neighbours are untouched — route-only is not dead.
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 1), 0, RKind::Wire(Dir::South))));
        let text = map.to_string();
        assert!(text.contains("capability-restricted"), "{text}");
    }

    #[test]
    fn op_class_legality_is_per_op_not_per_mask() {
        let spec = CgraSpec::square(2);
        let mut map = CapabilityMap::new();
        map.set_classes(PeId::new(0, 0), &[OpClass::Alu, OpClass::Mem]);
        // The FU node still exists (ALU work is legal there) …
        assert!(!map.masks(&spec, RNode::new(PeId::new(0, 0), 0, RKind::Fu)));
        // … but multiply placement is rejected at the op level.
        assert!(map.supports_op(PeId::new(0, 0), OpKind::Add));
        assert!(map.supports_op(PeId::new(0, 0), OpKind::Min));
        assert!(!map.supports_op(PeId::new(0, 0), OpKind::Mul));
        assert!(map.supports_op(PeId::new(0, 1), OpKind::Mul));
    }

    #[test]
    fn set_classes_normalizes_the_homogeneous_default() {
        let mut map = CapabilityMap::new();
        map.set_classes(PeId::new(0, 0), &[OpClass::Alu, OpClass::Mul, OpClass::Mem]);
        assert!(map.is_empty(), "full class set must normalize away");
        map.set_classes(PeId::new(0, 0), &[OpClass::Alu]);
        assert!(!map.is_empty());
        map.set_classes(PeId::new(0, 0), &[OpClass::Mem, OpClass::Mul, OpClass::Alu]);
        assert!(map.is_empty(), "restoring all classes must normalize away");
    }

    #[test]
    fn restrict_intersects_and_stacks() {
        let pe = PeId::new(1, 2);
        let mut map = CapabilityMap::new();
        map.restrict(pe, &[OpClass::Alu, OpClass::Mem]);
        map.restrict(pe, &[OpClass::Alu, OpClass::Mul]);
        assert!(map.supports(pe, OpClass::Alu));
        assert!(!map.supports(pe, OpClass::Mul));
        assert!(!map.supports(pe, OpClass::Mem));
        assert!(map.mem_disabled(pe));
    }

    #[test]
    fn corner_multipliers_fabric() {
        let map = CapabilityMap::corner_multipliers(4, 4);
        let corners = [PeId::new(0, 0), PeId::new(0, 3), PeId::new(3, 0), PeId::new(3, 3)];
        for x in 0..4 {
            for y in 0..4 {
                let pe = PeId::new(x, y);
                assert_eq!(map.supports(pe, OpClass::Mul), corners.contains(&pe), "{pe}");
                assert!(map.supports(pe, OpClass::Alu), "{pe}");
                assert!(map.supports(pe, OpClass::Mem), "{pe}");
            }
        }
        assert_eq!(map.restricted_pes().count(), 12);
    }

    #[test]
    fn mem_edge_only_fabric() {
        let map = CapabilityMap::mem_edge_only(4, 4);
        for x in 0..4 {
            for y in 0..4 {
                let pe = PeId::new(x, y);
                let edge = x == 0 || x == 3 || y == 0 || y == 3;
                assert_eq!(map.supports(pe, OpClass::Mem), edge, "{pe}");
                assert_eq!(map.mem_disabled(pe), !edge, "{pe}");
                assert!(map.supports(pe, OpClass::Mul), "{pe}");
            }
        }
        assert_eq!(map.restricted_pes().count(), 4);
    }

    #[test]
    fn heterogeneous_fabric_stacks_both_restrictions() {
        let map = CapabilityMap::heterogeneous(4, 4);
        // Interior PE: ALU only (no mul, no mem).
        let interior = PeId::new(1, 2);
        assert!(map.supports(interior, OpClass::Alu));
        assert!(!map.supports(interior, OpClass::Mul));
        assert!(!map.supports(interior, OpClass::Mem));
        // Non-corner edge PE: ALU + mem.
        let edge = PeId::new(0, 1);
        assert!(map.supports(edge, OpClass::Alu));
        assert!(!map.supports(edge, OpClass::Mul));
        assert!(map.supports(edge, OpClass::Mem));
        // Corner: everything.
        let corner = PeId::new(3, 3);
        assert!(map.supports(corner, OpClass::Mul));
        assert!(map.supports(corner, OpClass::Mem));
        assert!(map.fu_capable(interior) && map.fu_capable(edge) && map.fu_capable(corner));
    }

    #[test]
    fn op_class_mapping_and_names() {
        assert_eq!(OpClass::of(OpKind::Mul), OpClass::Mul);
        for op in [OpKind::Add, OpKind::Sub, OpKind::Min, OpKind::Max] {
            assert_eq!(OpClass::of(op), OpClass::Alu, "{op:?}");
        }
        let names: Vec<&str> = ALL_OP_CLASSES.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, ["alu", "mul", "mem", "route"]);
    }
}
