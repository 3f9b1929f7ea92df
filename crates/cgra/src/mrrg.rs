//! The time-extended Modulo Routing Resource Graph (MRRG).
//!
//! `H_II = (V_H, E_H)` models every schedulable resource of the CGRA over one
//! initiation interval: for each PE and each cycle `t ∈ [0, II)` there is one
//! ALU slot ([`RKind::Fu`]), an output register ([`RKind::Out`]), four mesh
//! link slots ([`RKind::Wire`]), the register-file slots ([`RKind::Reg`]) and
//! a local-data-memory read port ([`RKind::Mem`]). Because a modulo schedule
//! repeats every `II` cycles, all time arithmetic wraps mod `II` (the paper:
//! "the resources at cycle `II−1` have connectivity with the resources at
//! cycle 0").
//!
//! Large CGRAs produce MRRGs with millions of nodes, so the graph is
//! *implicit*: [`Mrrg::successors`] and [`Mrrg::predecessors`] enumerate
//! adjacent resources on demand.
//!
//! For hot paths the implicit graph is compiled into an [`MrrgIndex`] over
//! a set of PEs (a window, or the whole array): every node of those PEs gets
//! a dense [`RIdx`] id and the adjacency inside the window (with per-edge
//! latencies) is laid out in CSR form, so routers index flat arrays instead
//! of hashing [`RNode`] keys. The implicit enumeration stays as the
//! reference implementation the index is differentially tested against.
//!
//! ## Timing model (1 cycle per hop)
//!
//! * An operation executing on `Fu(pe, t)` consumes operands that are
//!   *available at* cycle `t` and produces its result at `t + 1` — in its
//!   output register (`Out(pe, t+1)`), on an outgoing mesh link
//!   (`Wire(pe, d, t+1)`, consumable by the neighbour at `t + 1`), or written
//!   to the RF (`Reg(pe, r, t+1)`).
//! * `Wire(pe, d, t)` denotes the value on the link from `pe` toward its
//!   neighbour `n` in direction `d`, available *at `n`* at cycle `t`; `n`'s
//!   crossbar can feed it to `n`'s FU the same cycle or forward it (one more
//!   hop, one more cycle).
//! * Registers hold values across cycles (`Reg(t) → Reg(t+1)`).
//! * `Mem(pe, t)` is a load port of `pe`'s local data memory: a pure source
//!   producing a live-in value at cycle `t`. Stores are not routed: a
//!   live-out value terminates at its producing FU and is retired to that
//!   PE's local memory (see `DESIGN.md`).

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::arch::{CgraSpec, Dir, PeId, ALL_DIRS};

/// The resource kind of an MRRG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RKind {
    /// The PE's ALU slot — executes one operation per cycle.
    Fu,
    /// The PE's output register (feedback path to its own FU).
    Out,
    /// A mesh link toward the given direction.
    Wire(Dir),
    /// One register of the PE's register file.
    Reg(u8),
    /// The register file's write ports (§VI: "two r/w ports"): every value
    /// entering the RF passes through here.
    RegWr,
    /// The register file's read ports: every value leaving the RF (other
    /// than holding in place) passes through here.
    RegRd,
    /// A read port of the PE's local data memory (value source).
    Mem,
}

impl RKind {
    /// How many *distinct signals* may occupy this resource in one cycle,
    /// under the paper's default PE (two RF ports, dual-ported data
    /// memory). Port counts are architecture parameters; prefer
    /// [`CgraSpec::capacity`] when a spec is at hand.
    pub fn capacity(self) -> usize {
        match self {
            RKind::Mem | RKind::RegWr | RKind::RegRd => 2,
            _ => 1,
        }
    }
}

impl CgraSpec {
    /// How many *distinct signals* may occupy a resource of this
    /// architecture in one cycle. A resource may always carry the same
    /// signal to several consumers (fan-out); capacities bound different
    /// signals.
    pub fn capacity(&self, kind: RKind) -> usize {
        match kind {
            RKind::Mem => self.mem_ports,
            RKind::RegWr | RKind::RegRd => self.rf_ports,
            _ => 1,
        }
    }
}

impl fmt::Display for RKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RKind::Fu => write!(f, "fu"),
            RKind::Out => write!(f, "out"),
            RKind::Wire(d) => write!(f, "wire{d}"),
            RKind::Reg(r) => write!(f, "reg{r}"),
            RKind::RegWr => write!(f, "regwr"),
            RKind::RegRd => write!(f, "regrd"),
            RKind::Mem => write!(f, "mem"),
        }
    }
}

/// One node of the MRRG: a resource of a PE at a cycle `t ∈ [0, II)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RNode {
    /// Owning PE.
    pub pe: PeId,
    /// Cycle within the initiation interval.
    pub t: u32,
    /// Resource kind.
    pub kind: RKind,
}

impl RNode {
    /// Creates an MRRG node.
    pub fn new(pe: PeId, t: u32, kind: RKind) -> Self {
        RNode { pe, t, kind }
    }

    /// This node packed losslessly into one integer whose order equals the
    /// derived `Ord`: `x` in bits 64..80, `y` in 48..64, `t` in 16..48 and
    /// the kind's rank (see [`RNode::from_packed_key`]) in 0..16. Checkers
    /// sort millions of claims by it: one integer compare instead of a
    /// field-by-field walk through the `RKind` enum.
    pub fn packed_key(self) -> u128 {
        let rank: u16 = match self.kind {
            RKind::Fu => 0,
            RKind::Out => 1,
            RKind::Wire(d) => 2 + d.index() as u16,
            RKind::Reg(r) => 6 + r as u16,
            RKind::RegWr => 262,
            RKind::RegRd => 263,
            RKind::Mem => 264,
        };
        (self.pe.x as u128) << 64
            | (self.pe.y as u128) << 48
            | (self.t as u128) << 16
            | rank as u128
    }

    /// The node [`RNode::packed_key`] packed into `key`. Kind ranks run
    /// `Fu`, `Out`, `Wire` N/E/S/W, `Reg(0..=255)`, `RegWr`, `RegRd`,
    /// `Mem`; a rank past `Mem` (no packed node has one) decodes as `Mem`.
    pub fn from_packed_key(key: u128) -> Self {
        let kind = match key as u16 {
            0 => RKind::Fu,
            1 => RKind::Out,
            r @ 2..=5 => RKind::Wire(ALL_DIRS[r as usize - 2]),
            r @ 6..=261 => RKind::Reg((r - 6) as u8),
            262 => RKind::RegWr,
            263 => RKind::RegRd,
            _ => RKind::Mem,
        };
        let pe = PeId { x: (key >> 64) as u16, y: (key >> 48) as u16 };
        RNode { pe, t: (key >> 16) as u32, kind }
    }
}

impl fmt::Debug for RNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}t{}", self.kind, self.pe, self.t)
    }
}

impl fmt::Display for RNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}t{}", self.kind, self.pe, self.t)
    }
}

/// The slot of a resource kind within its `(pe, t)` in the padded resource
/// layouts ([`Mrrg::position`] and the [`MrrgIndex`] id table): the kind
/// order of [`RNode`], so padded positions ascend in node order.
#[inline]
fn slot_of(kind: RKind, rf: usize) -> usize {
    match kind {
        RKind::Fu => 0,
        RKind::Out => 1,
        RKind::Wire(d) => 2 + d.index(),
        RKind::Reg(r) => 6 + r as usize,
        RKind::RegWr => 6 + rf,
        RKind::RegRd => 7 + rf,
        RKind::Mem => 8 + rf,
    }
}

/// The resource kind in `slot` (the inverse of [`slot_of`]).
fn kind_of_slot(slot: usize, rf: usize) -> RKind {
    match slot {
        0 => RKind::Fu,
        1 => RKind::Out,
        2..=5 => RKind::Wire(ALL_DIRS[slot - 2]),
        s if s < 6 + rf => RKind::Reg((s - 6) as u8),
        s if s == 6 + rf => RKind::RegWr,
        s if s == 7 + rf => RKind::RegRd,
        _ => RKind::Mem,
    }
}

/// `true` when the MRRG edge `from → to` completes within one cycle (a
/// crossbar feed), `false` for a clocked hop. Shared by
/// [`Mrrg::edge_latency`] and the [`MrrgIndex`] CSR builder so the two can
/// never drift apart.
fn same_cycle(from: RKind, to: RKind) -> bool {
    matches!(
        (from, to),
        (RKind::Out | RKind::Wire(_) | RKind::RegRd | RKind::Mem, RKind::Fu)
            | (RKind::RegWr, RKind::Reg(_))
            | (RKind::Reg(_), RKind::RegRd)
    )
}

/// The implicit time-extended MRRG of a CGRA.
///
/// # Example
///
/// ```
/// use himap_cgra::{CgraSpec, Mrrg, PeId, RKind, RNode};
///
/// let mrrg = Mrrg::new(CgraSpec::square(2), 2);
/// let fu = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
/// // The FU's result lands in its output register next cycle …
/// let succs = mrrg.successors(fu);
/// assert!(succs.contains(&RNode::new(PeId::new(0, 0), 1, RKind::Out)));
/// // … and wraps mod II.
/// let fu1 = RNode::new(PeId::new(0, 0), 1, RKind::Fu);
/// assert!(mrrg.successors(fu1).contains(&RNode::new(PeId::new(0, 0), 0, RKind::Out)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mrrg {
    spec: CgraSpec,
    ii: u32,
    /// `true` when `spec.faults` masks at least one resource. Cached so the
    /// pristine-fabric hot path pays exactly one branch per mask check.
    faulty: bool,
}

impl Mrrg {
    /// Creates the MRRG of `spec` time-extended to `ii` cycles. Resources
    /// masked by `spec.faults` do not exist in the graph: they are skipped by
    /// [`Mrrg::nodes_iter`], rejected by [`Mrrg::contains`] and never emitted
    /// as successors or predecessors, so routing transparently avoids them.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(spec: CgraSpec, ii: usize) -> Self {
        assert!(ii > 0, "initiation interval must be at least 1");
        let faulty = !spec.faults.is_empty();
        Mrrg { spec, ii: ii as u32, faulty }
    }

    /// Whether this map's fault model masks `node` (always `false` on a
    /// pristine fabric — a single cached branch).
    #[inline]
    fn masked(&self, node: RNode) -> bool {
        self.faulty && self.spec.faults.masks(&self.spec, node)
    }

    /// The architecture this MRRG is built over.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The initiation interval (time extent).
    pub fn ii(&self) -> usize {
        self.ii as usize
    }

    /// Total number of resource nodes.
    pub fn node_count(&self) -> usize {
        if self.faulty {
            // Rarely called; the masked count has no closed form worth the
            // maintenance risk of keeping in sync with `CapabilityMap::masks`.
            return self.nodes_iter().count();
        }
        // fu + out + regwr + regrd + mem + 4 wires + rf_size regs, per PE per
        // cycle; border wires toward the array edge are not counted.
        let per_pe = 5 + self.spec.rf_size;
        let mut wires = 0usize;
        for pe in self.spec.pes() {
            wires += ALL_DIRS.iter().filter(|&&d| self.spec.neighbor(pe, d).is_some()).count();
        }
        (self.spec.pe_count() * per_pe + wires) * self.ii()
    }

    #[inline]
    fn t_next(&self, t: u32) -> u32 {
        (t + 1) % self.ii
    }

    #[inline]
    fn t_prev(&self, t: u32) -> u32 {
        (t + self.ii - 1) % self.ii
    }

    /// `true` if `node` is a valid resource of this MRRG. Faulted resources
    /// are not part of the graph.
    pub fn contains(&self, node: RNode) -> bool {
        if !self.spec.contains(node.pe) || node.t >= self.ii || self.masked(node) {
            return false;
        }
        match node.kind {
            RKind::Wire(d) => self.spec.neighbor(node.pe, d).is_some(),
            RKind::Reg(r) => (r as usize) < self.spec.rf_size,
            _ => true,
        }
    }

    /// Iterates all resource nodes in ascending [`RNode`] order without
    /// materializing them — the allocation-free form of [`Mrrg::nodes`].
    pub fn nodes_iter(&self) -> impl Iterator<Item = RNode> + '_ {
        self.spec.pes().flat_map(move |pe| self.pe_nodes(pe))
    }

    /// The resource nodes of one in-array PE, in ascending [`RNode`] order.
    fn pe_nodes(&self, pe: PeId) -> impl Iterator<Item = RNode> + '_ {
        let rf = self.spec.rf_size;
        (0..self.ii)
            .flat_map(move |t| {
                [RKind::Fu, RKind::Out]
                    .into_iter()
                    .chain(
                        ALL_DIRS
                            .into_iter()
                            .filter(move |&d| self.spec.neighbor(pe, d).is_some())
                            .map(RKind::Wire),
                    )
                    .chain((0..rf).map(|r| RKind::Reg(r as u8)))
                    .chain([RKind::RegWr, RKind::RegRd, RKind::Mem])
                    .map(move |kind| RNode::new(pe, t, kind))
            })
            .filter(move |&n| !self.masked(n))
    }

    /// Resource slots per `(pe, t)` in the padded layouts: `9 + rf_size`.
    #[inline]
    fn slot_count(&self) -> usize {
        9 + self.spec.rf_size
    }

    /// `node`'s position in the array-wide padded resource layout,
    /// `((x · cols + y) · II + t) · (9 + rf_size) + slot` with the slots in
    /// the kind order of [`RNode`], or `None` when `node` is not part of
    /// this MRRG. Positions ascend in `RNode` order, as the ids of an
    /// every-PE [`MrrgIndex`] do, but come from arithmetic alone: keying
    /// claims by position needs no index.
    #[inline]
    pub fn position(&self, node: RNode) -> Option<usize> {
        if !self.contains(node) {
            return None;
        }
        let pe = node.pe.x as usize * self.spec.cols + node.pe.y as usize;
        let slot = slot_of(node.kind, self.spec.rf_size);
        Some((pe * self.ii() + node.t as usize) * self.slot_count() + slot)
    }

    /// The node at padded `position` (the inverse of [`Mrrg::position`]).
    pub fn node_at(&self, position: usize) -> RNode {
        let slots = self.slot_count();
        let (cell, slot) = (position / slots, position % slots);
        let (pe, t) = (cell / self.ii(), cell % self.ii());
        let pe = PeId::new(pe / self.spec.cols, pe % self.spec.cols);
        RNode::new(pe, t as u32, kind_of_slot(slot, self.spec.rf_size))
    }

    /// One past the largest padded position.
    pub fn position_count(&self) -> usize {
        self.spec.pe_count() * self.ii() * self.slot_count()
    }

    /// Enumerates all resource nodes (for tests and small explicit uses;
    /// hot paths should prefer [`Mrrg::nodes_iter`] or an [`MrrgIndex`]).
    pub fn nodes(&self) -> Vec<RNode> {
        let mut out = Vec::with_capacity(self.node_count());
        out.extend(self.nodes_iter());
        out
    }

    /// Calls `f` with each resource a value sitting on `node` can move to
    /// next, in the same deterministic order as [`Mrrg::successors`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `node` is not part of this MRRG.
    pub fn for_each_successor(&self, node: RNode, mut f: impl FnMut(RNode)) {
        debug_assert!(self.contains(node), "{node:?} outside MRRG");
        // Filter faulted endpoints at the emission point, so every consumer
        // (routers, the CSR builder, the verifier) sees only live resources.
        self.each_unmasked_successor(node, |n| {
            if !self.masked(n) {
                f(n);
            }
        });
    }

    /// The successors of `node` by the architecture rules alone, masked
    /// resources included, in [`Mrrg::for_each_successor`]'s order.
    fn each_unmasked_successor(&self, node: RNode, mut f: impl FnMut(RNode)) {
        let pe = node.pe;
        let t1 = self.t_next(node.t);
        match node.kind {
            RKind::Fu => {
                // Result produced at the end of cycle t: output register,
                // outgoing links, RF write port — all available at t+1.
                f(RNode::new(pe, t1, RKind::Out));
                self.each_wire(pe, t1, &mut f);
                f(RNode::new(pe, t1, RKind::RegWr));
            }
            RKind::Out => {
                // Feedback to own FU this cycle; re-drive links/RF next cycle;
                // hold in the output register.
                f(RNode::new(pe, node.t, RKind::Fu));
                f(RNode::new(pe, t1, RKind::Out));
                self.each_wire(pe, t1, &mut f);
                f(RNode::new(pe, t1, RKind::RegWr));
            }
            RKind::Wire(d) => {
                // Value is at the neighbour `n` this cycle: feed n's FU now,
                // or pass through n's crossbar (one more hop / RF write).
                // A wire node only exists when the neighbour does (see
                // `contains`), so a dangling direction has no successors.
                if let Some(n) = self.spec.neighbor(pe, d) {
                    f(RNode::new(n, node.t, RKind::Fu));
                    self.each_wire(n, t1, &mut f);
                    f(RNode::new(n, t1, RKind::RegWr));
                }
            }
            RKind::RegWr => {
                // The write completes within the cycle: any register of this
                // PE becomes readable now.
                self.each_reg(pe, node.t, &mut f);
            }
            RKind::Reg(r) => {
                // Hold in place, or leave through a read port.
                f(RNode::new(pe, t1, RKind::Reg(r)));
                f(RNode::new(pe, node.t, RKind::RegRd));
            }
            RKind::RegRd => {
                // Read into own FU this cycle, or drive out next cycle.
                f(RNode::new(pe, node.t, RKind::Fu));
                self.each_wire(pe, t1, &mut f);
            }
            RKind::Mem => {
                // Loaded value: feed own FU this cycle, or move it out.
                f(RNode::new(pe, node.t, RKind::Fu));
                self.each_wire(pe, t1, &mut f);
                f(RNode::new(pe, t1, RKind::RegWr));
            }
        }
    }

    /// Calls `f` with each resource a value could have come from to reach
    /// `node` — the exact inverse of [`Mrrg::for_each_successor`].
    pub fn for_each_predecessor(&self, node: RNode, mut f: impl FnMut(RNode)) {
        debug_assert!(self.contains(node), "{node:?} outside MRRG");
        // Mirrors `for_each_successor`: masked sources never reach `f`, which
        // keeps the successor/predecessor inverse property on the live graph.
        let mut f = |n: RNode| {
            if !self.masked(n) {
                f(n);
            }
        };
        let pe = node.pe;
        let t0 = self.t_prev(node.t);
        match node.kind {
            RKind::Fu => {
                // Operands arrive from own Out/RegRd/Mem this cycle, or from
                // incoming wires this cycle.
                f(RNode::new(pe, node.t, RKind::Out));
                f(RNode::new(pe, node.t, RKind::RegRd));
                f(RNode::new(pe, node.t, RKind::Mem));
                self.each_incoming_wire(pe, node.t, &mut f);
            }
            RKind::Out => {
                f(RNode::new(pe, t0, RKind::Fu));
                f(RNode::new(pe, t0, RKind::Out));
            }
            RKind::Wire(_) => {
                // Driven by this PE at t-1: FU result, Out re-drive, RF read,
                // Mem load, or a pass-through of a value that arrived at t-1.
                f(RNode::new(pe, t0, RKind::Fu));
                f(RNode::new(pe, t0, RKind::Out));
                f(RNode::new(pe, t0, RKind::RegRd));
                f(RNode::new(pe, t0, RKind::Mem));
                self.each_incoming_wire(pe, t0, &mut f);
            }
            RKind::RegWr => {
                f(RNode::new(pe, t0, RKind::Fu));
                f(RNode::new(pe, t0, RKind::Out));
                f(RNode::new(pe, t0, RKind::Mem));
                self.each_incoming_wire(pe, t0, &mut f);
            }
            RKind::Reg(r) => {
                f(RNode::new(pe, node.t, RKind::RegWr));
                f(RNode::new(pe, t0, RKind::Reg(r)));
            }
            RKind::RegRd => {
                self.each_reg(pe, node.t, &mut f);
            }
            RKind::Mem => {}
        }
    }

    /// The resources a value sitting on `node` can move to next.
    ///
    /// Allocates a fresh `Vec` per call — kept for tests and one-off
    /// queries; hot paths should use [`Mrrg::for_each_successor`] or an
    /// [`MrrgIndex`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `node` is not part of this MRRG.
    pub fn successors(&self, node: RNode) -> Vec<RNode> {
        let mut out = Vec::with_capacity(8);
        self.for_each_successor(node, |n| out.push(n));
        out
    }

    /// The resources a value could have come from to reach `node` — the
    /// exact inverse of [`Mrrg::successors`]. Allocates per call; hot paths
    /// should use [`Mrrg::for_each_predecessor`] or an [`MrrgIndex`].
    pub fn predecessors(&self, node: RNode) -> Vec<RNode> {
        let mut out = Vec::with_capacity(10);
        self.for_each_predecessor(node, |n| out.push(n));
        out
    }

    /// The architectural latency in cycles of the MRRG edge `from → to`:
    /// `Some(0)` for same-cycle crossbar feeds (`Out/Wire/RegRd/Mem → Fu`,
    /// `RegWr → Reg`, `Reg → RegRd`), `Some(1)` for every clocked hop, or
    /// `None` when no such edge exists.
    ///
    /// The latency cannot be recovered from the `t` fields alone: they wrap
    /// mod `II`, so at `II = 1` a 0-cycle feed and a 1-cycle hop look
    /// identical. The resource-kind pair disambiguates, which is what an
    /// independent checker needs to re-derive a route's absolute timing
    /// (see the 1-cycle-per-hop model in the module docs).
    pub fn edge_latency(&self, from: RNode, to: RNode) -> Option<u32> {
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        self.live_edge_latency(from, to)
    }

    /// [`Mrrg::edge_latency`] for two nodes the caller already knows to be
    /// part of this MRRG ([`Mrrg::contains`]): the architecture rules alone
    /// decide whether the edge exists, so no resource's mask is consulted.
    /// A checker that has validated every step of a path first pays no
    /// mask lookups per hop.
    pub fn live_edge_latency(&self, from: RNode, to: RNode) -> Option<u32> {
        debug_assert!(self.contains(from) && self.contains(to), "{from:?} -> {to:?} not live");
        let mut found = false;
        self.each_unmasked_successor(from, |s| found |= s == to);
        found.then_some(if same_cycle(from.kind, to.kind) { 0 } else { 1 })
    }

    fn each_wire(&self, pe: PeId, t: u32, f: &mut impl FnMut(RNode)) {
        for d in ALL_DIRS {
            if self.spec.neighbor(pe, d).is_some() {
                f(RNode::new(pe, t, RKind::Wire(d)));
            }
        }
    }

    fn each_reg(&self, pe: PeId, t: u32, f: &mut impl FnMut(RNode)) {
        for r in 0..self.spec.rf_size {
            f(RNode::new(pe, t, RKind::Reg(r as u8)));
        }
    }

    /// Wires whose value is present *at* `pe` at cycle `t` (links from
    /// neighbours toward `pe`).
    fn each_incoming_wire(&self, pe: PeId, t: u32, f: &mut impl FnMut(RNode)) {
        for d in ALL_DIRS {
            if let Some(n) = self.spec.neighbor(pe, d) {
                f(RNode::new(n, t, RKind::Wire(d.opposite())));
            }
        }
    }
}

/// Dense id of an MRRG node within an [`MrrgIndex`]: `0 ≤ RIdx.0 <
/// MrrgIndex::len()`. Ids are assigned in ascending [`RNode`] order, so
/// comparing two `RIdx` is equivalent to comparing the nodes they denote —
/// routers can tie-break on the id without reconstructing the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RIdx(pub u32);

impl RIdx {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks an absent entry in the padded node table.
const INVALID: u32 = u32::MAX;
/// Bit of a packed CSR edge word holding the edge's latency (0 or 1).
const LAT_BIT: u32 = 1 << 31;

/// Memory footprint of one compiled [`MrrgIndex`].
///
/// Surfaced through `PipelineStats` so callers can assert how large a
/// window the walk routed on: the bench gate holds the whole-array 64×64
/// rows to their committed node count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Indexed MRRG nodes.
    pub nodes: usize,
    /// Directed MRRG edges (forward CSR length; the backward CSR mirrors
    /// the same edges).
    pub edges: usize,
    /// Bytes held by the index's dense tables (PE rank table, padded id
    /// table, capacities, both CSR halves and the node list).
    pub bytes: usize,
}

impl MemoryStats {
    /// Field-wise maximum — the high-water mark across several builds.
    pub fn max(self, other: MemoryStats) -> MemoryStats {
        MemoryStats {
            nodes: self.nodes.max(other.nodes),
            edges: self.edges.max(other.edges),
            bytes: self.bytes.max(other.bytes),
        }
    }
}

/// The [`Mrrg`] compiled to dense ids and CSR adjacency, over a window of
/// PEs.
///
/// [`MrrgIndex::window`] indexes every node of the given PEs and keeps the
/// edges between them; [`MrrgIndex::new`] is the window of every PE. Nodes
/// keep their global coordinates, so a router over a window routes in array
/// coordinates: HiMap's walk indexes only the PEs a layout's negotiation can
/// touch, and its search state shrinks with the index. Per edge the CSR
/// stores the target id plus the architectural latency (one bit: crossbar
/// feed or clocked hop), so routing never re-enumerates neighbour sets.
///
/// The dense order is the ascending [`RNode`] order of [`Mrrg::nodes`];
/// adjacency rows preserve the enumeration order of [`Mrrg::successors`] /
/// [`Mrrg::predecessors`] exactly, minus the edges that leave the window.
/// Both properties are what make an indexed search bit-identical to one
/// over the implicit graph (same tie-breaks, same relaxation order), and
/// they are locked in by differential tests.
#[derive(Debug, PartialEq)]
pub struct MrrgIndex {
    mrrg: Mrrg,
    /// Row-major PE number → the PE's rank among the window's PEs;
    /// `INVALID` outside the window.
    rank_of: Vec<u32>,
    /// Padded `(rank, t, slot) → dense id` table; `INVALID` where no node
    /// exists (mesh-border wire slots, masked resources).
    idx_of: Vec<u32>,
    /// Dense id → node.
    node_of: Vec<RNode>,
    /// Dense id → signal capacity of the resource.
    cap_of: Vec<u32>,
    /// CSR row offsets into `fwd`, one per node plus a final sentinel.
    fwd_off: Vec<u32>,
    /// Packed forward edges: low 31 bits target id, high bit latency.
    fwd: Vec<u32>,
    /// CSR row offsets into `bwd`.
    bwd_off: Vec<u32>,
    /// Packed backward edges.
    bwd: Vec<u32>,
    /// Slots per `(pe, t)` in the padded table: `9 + rf_size`.
    slot_count: usize,
}

impl MrrgIndex {
    /// Builds the index of `spec` time-extended to `ii` cycles over every
    /// PE: the every-PE [`MrrgIndex::window`].
    ///
    /// # Panics
    ///
    /// As [`MrrgIndex::window`].
    pub fn new(spec: CgraSpec, ii: usize) -> Self {
        let pes: Vec<PeId> = spec.pes().collect();
        MrrgIndex::window(spec, ii, pes)
    }

    /// Builds the index of `spec` time-extended to `ii` cycles over the
    /// PEs `pes`, which must be in-array and strictly ascending. It holds
    /// every node of those PEs and the edges between them; an edge to or
    /// from a PE outside the window is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`, if `rf_size > 256` (the `Reg(u8)` id space), if
    /// the graph exceeds `2^31` nodes (the packed-edge id space), or if
    /// `pes` is not strictly ascending within the array.
    pub fn window(spec: CgraSpec, ii: usize, pes: impl IntoIterator<Item = PeId>) -> Self {
        assert!(spec.rf_size <= 256, "register file exceeds the Reg(u8) id space");
        let mrrg = Mrrg::new(spec, ii);
        let spec = mrrg.spec();
        let pes: Vec<PeId> = pes.into_iter().collect();
        assert!(
            pes.windows(2).all(|w| w[0] < w[1]) && pes.iter().all(|&pe| spec.contains(pe)),
            "window PEs must be in-array and strictly ascending"
        );
        let mut rank_of = vec![INVALID; spec.pe_count()];
        for (rank, pe) in pes.iter().enumerate() {
            rank_of[pe.x as usize * spec.cols + pe.y as usize] = rank as u32;
        }
        let slot_count = mrrg.slot_count();
        let padded = pes.len() * ii * slot_count;
        let mut index = MrrgIndex {
            mrrg,
            rank_of,
            idx_of: vec![INVALID; padded],
            node_of: Vec::new(),
            cap_of: Vec::new(),
            fwd_off: Vec::new(),
            fwd: Vec::new(),
            bwd_off: Vec::new(),
            bwd: Vec::new(),
            slot_count,
        };
        // PEs ascend, and each PE's nodes ascend in (t, kind): dense ids
        // inherit the node order.
        let mut node_of = Vec::with_capacity(padded);
        let mut cap_of = Vec::with_capacity(padded);
        for &pe in &pes {
            for node in index.mrrg.pe_nodes(pe) {
                let at = index.padded_index(node);
                index.idx_of[at] = node_of.len() as u32;
                cap_of.push(index.mrrg.spec().capacity(node.kind) as u32);
                node_of.push(node);
            }
        }
        assert!(
            (node_of.len() as u64) < LAT_BIT as u64,
            "MRRG exceeds the 2^31 packed-edge id space"
        );
        index.node_of = node_of;
        index.cap_of = cap_of;
        let (fwd_off, fwd) = index.build_csr(true);
        let (bwd_off, bwd) = index.build_csr(false);
        index.fwd_off = fwd_off;
        index.fwd = fwd;
        index.bwd_off = bwd_off;
        index.bwd = bwd;
        index
    }

    /// Rows of packed edges in legacy enumeration order, forward or
    /// backward, keeping only the edges inside the window. Latency is
    /// derived from the kind pair (`same_cycle`), the same rule
    /// [`Mrrg::edge_latency`] applies.
    ///
    /// One pass writes every row straight into the final `off`/`edges`
    /// vectors, on the calling thread.
    fn build_csr(&self, forward: bool) -> (Vec<u32>, Vec<u32>) {
        let n = self.node_of.len();
        let mut off = Vec::with_capacity(n + 1);
        // Rows average about 4.5 edges on square fabrics, so reserving six
        // per node avoids regrowth. The reserved tail is never written: it
        // is address space, not resident memory. Trimming it (or sizing the
        // vector exactly with a counting pass) shifts glibc's dynamic mmap
        // threshold so that the router's zeroed search scratch is sometimes
        // served, and cleared, from reused heap; that made the peak RSS of
        // the eight-kernel 8x8 suite bimodal (13 or 18 MB).
        let mut edges = Vec::with_capacity(n * 6);
        off.push(0u32);
        for &node in &self.node_of {
            let mut push = |other: RNode| {
                if self.rank(other.pe) == INVALID {
                    return; // the edge leaves the window
                }
                let id = self.idx_of[self.padded_index(other)];
                debug_assert_ne!(id, INVALID, "{node:?} edge to unindexed {other:?}");
                debug_assert!(id < LAT_BIT, "dense id {id} collides with the latency bit");
                let (from, to) = if forward { (node, other) } else { (other, node) };
                let lat = if same_cycle(from.kind, to.kind) { 0 } else { LAT_BIT };
                edges.push(id | lat);
            };
            if forward {
                self.mrrg.for_each_successor(node, &mut push);
            } else {
                self.mrrg.for_each_predecessor(node, &mut push);
            }
            off.push(edges.len() as u32);
        }
        assert!(
            (edges.len() as u64) < u32::MAX as u64,
            "CSR edge count exceeds the u32 offset space"
        );
        (off, edges)
    }

    /// The process-wide shared every-PE index for `(spec, ii)`, building it
    /// on first use; an LRU of 32 builds. Neither the mapper's walk nor the
    /// verifier reads it: the walk builds a window index per layout, and
    /// the verifier and replication work on the implicit [`Mrrg`]. It
    /// serves callers that route on the whole fabric (the baselines, the
    /// exact encoder, full-fabric reference routers in tests).
    pub fn shared(spec: CgraSpec, ii: usize) -> Arc<MrrgIndex> {
        // `CgraSpec` holds an `f64`, so no `Hash`/`Eq`: the cache is a small
        // LRU vector scanned linearly. Builds happen under the lock so
        // concurrent callers trigger exactly one build.
        static CACHE: OnceLock<Mutex<Vec<Arc<MrrgIndex>>>> = OnceLock::new();
        const CACHE_CAP: usize = 32;
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        let mut entries = match cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(pos) = entries.iter().position(|e| e.mrrg.ii() == ii && *e.mrrg.spec() == spec)
        {
            let hit = entries.remove(pos);
            entries.push(Arc::clone(&hit)); // most-recently-used at the back
            return hit;
        }
        let built = Arc::new(MrrgIndex::new(spec, ii));
        if entries.len() >= CACHE_CAP {
            entries.remove(0);
        }
        entries.push(Arc::clone(&built));
        built
    }

    /// The implicit graph this index was compiled from.
    pub fn mrrg(&self) -> &Mrrg {
        &self.mrrg
    }

    /// The architecture.
    pub fn spec(&self) -> &CgraSpec {
        self.mrrg.spec()
    }

    /// The initiation interval.
    pub fn ii(&self) -> usize {
        self.mrrg.ii()
    }

    /// Number of indexed nodes (equals [`Mrrg::node_count`] for the
    /// every-PE index).
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Memory footprint of the compiled tables.
    pub fn memory_stats(&self) -> MemoryStats {
        let u32s = self.rank_of.len()
            + self.idx_of.len()
            + self.cap_of.len()
            + self.fwd_off.len()
            + self.fwd.len()
            + self.bwd_off.len()
            + self.bwd.len();
        MemoryStats {
            nodes: self.node_of.len(),
            edges: self.fwd.len(),
            bytes: u32s * std::mem::size_of::<u32>()
                + self.node_of.len() * std::mem::size_of::<RNode>(),
        }
    }

    /// `true` when the graph has no nodes (never for a valid CGRA).
    pub fn is_empty(&self) -> bool {
        self.node_of.is_empty()
    }

    /// An in-array PE's rank among the window's PEs; `INVALID` outside it.
    #[inline]
    fn rank(&self, pe: PeId) -> u32 {
        self.rank_of[pe.x as usize * self.mrrg.spec().cols + pe.y as usize]
    }

    /// Padded table position of a node on a window PE.
    #[inline]
    fn padded_index(&self, node: RNode) -> usize {
        let slot = slot_of(node.kind, self.mrrg.spec().rf_size);
        (self.rank(node.pe) as usize * self.mrrg.ii() + node.t as usize) * self.slot_count + slot
    }

    /// The dense id of `node`, or `None` when it is not part of the graph
    /// or lies outside the window.
    #[inline]
    pub fn index_of(&self, node: RNode) -> Option<RIdx> {
        let spec = self.mrrg.spec();
        if !spec.contains(node.pe) || node.t as usize >= self.mrrg.ii() {
            return None;
        }
        if let RKind::Reg(r) = node.kind {
            if r as usize >= spec.rf_size {
                return None;
            }
        }
        if self.rank(node.pe) == INVALID {
            return None;
        }
        match self.idx_of[self.padded_index(node)] {
            INVALID => None,
            id => Some(RIdx(id)),
        }
    }

    /// `true` if `node` is part of the graph and of the window (equals
    /// [`Mrrg::contains`] for the every-PE index).
    #[inline]
    pub fn contains(&self, node: RNode) -> bool {
        self.index_of(node).is_some()
    }

    /// The node a dense id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn node(&self, i: RIdx) -> RNode {
        self.node_of[i.index()]
    }

    /// All nodes in dense-id (= ascending [`RNode`]) order.
    pub fn nodes(&self) -> &[RNode] {
        &self.node_of
    }

    /// Signal capacity of the resource `i`.
    #[inline]
    pub fn capacity(&self, i: RIdx) -> usize {
        self.cap_of[i.index()] as usize
    }

    /// Forward edges of `i` as `(successor, latency)`, in the enumeration
    /// order of [`Mrrg::successors`].
    #[inline]
    pub fn successors(&self, i: RIdx) -> impl Iterator<Item = (RIdx, u32)> + '_ {
        let lo = self.fwd_off[i.index()] as usize;
        let hi = self.fwd_off[i.index() + 1] as usize;
        self.fwd[lo..hi].iter().map(|&w| (RIdx(w & !LAT_BIT), (w >> 31) & 1))
    }

    /// Backward edges of `i` as `(predecessor, latency)`, in the
    /// enumeration order of [`Mrrg::predecessors`].
    #[inline]
    pub fn predecessors(&self, i: RIdx) -> impl Iterator<Item = (RIdx, u32)> + '_ {
        let lo = self.bwd_off[i.index()] as usize;
        let hi = self.bwd_off[i.index() + 1] as usize;
        self.bwd[lo..hi].iter().map(|&w| (RIdx(w & !LAT_BIT), (w >> 31) & 1))
    }

    /// CSR lookup of the latency of edge `from → to` — the indexed form of
    /// [`Mrrg::edge_latency`], used by the hop-timing verifier.
    pub fn edge_latency(&self, from: RNode, to: RNode) -> Option<u32> {
        let fi = self.index_of(from)?;
        let ti = self.index_of(to)?;
        self.successors(fi).find(|&(s, _)| s == ti).map(|(_, lat)| lat)
    }

    /// The absolute cycle of every node of a path whose last node is reached
    /// at cycle `end`, walked backwards with the CSR latency of each hop
    /// (the `(Δt mod II)` shortcut is ambiguous at II = 1, where 0- and
    /// 1-cycle hops coincide). `None` when two consecutive nodes share no
    /// edge in this index.
    pub fn timed_path(&self, nodes: &[RNode], end: i64) -> Option<Vec<(RNode, i64)>> {
        let mut steps = Vec::with_capacity(nodes.len());
        let mut at = end;
        for (i, &node) in nodes.iter().enumerate().rev() {
            steps.push((node, at));
            if i > 0 {
                at -= i64::from(self.edge_latency(nodes[i - 1], node)?);
            }
        }
        steps.reverse();
        Some(steps)
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn mrrg(c: usize, ii: usize) -> Mrrg {
        Mrrg::new(CgraSpec::square(c), ii)
    }

    #[test]
    fn packed_key_is_lossless_and_keeps_the_derived_order() {
        // Every kind, direction and register, over the boundary values of
        // each coordinate's full width.
        let mut kinds = vec![RKind::Fu, RKind::Out];
        kinds.extend(ALL_DIRS.map(RKind::Wire));
        kinds.extend((0..=u8::MAX).map(RKind::Reg));
        kinds.extend([RKind::RegWr, RKind::RegRd, RKind::Mem]);
        let coords = [0u16, 1, 255, 256, u16::MAX - 1, u16::MAX];
        let times = [0u32, 1, u16::MAX as u32, u16::MAX as u32 + 1, u32::MAX - 1, u32::MAX];
        let mut nodes = Vec::new();
        for &x in &coords {
            for &y in &coords {
                for &t in &times {
                    for &kind in &kinds {
                        nodes.push(RNode { pe: PeId { x, y }, t, kind });
                    }
                }
            }
        }
        for &n in &nodes {
            assert_eq!(RNode::from_packed_key(n.packed_key()), n, "{n:?}");
        }
        let mut by_ord = nodes.clone();
        by_ord.sort();
        let mut by_key = nodes;
        by_key.sort_by_key(|n| n.packed_key());
        assert_eq!(by_ord, by_key);
        // Distinct nodes, distinct keys: the order is strict, not a tie.
        assert!(by_key.windows(2).all(|w| w[0].packed_key() < w[1].packed_key()));
    }

    #[test]
    fn node_count_matches_enumeration() {
        for (c, ii) in [(1, 1), (2, 2), (3, 2)] {
            let m = mrrg(c, ii);
            assert_eq!(m.nodes().len(), m.node_count(), "c={c} ii={ii}");
        }
    }

    #[test]
    fn all_nodes_contained() {
        let m = mrrg(2, 3);
        for n in m.nodes() {
            assert!(m.contains(n), "{n:?}");
        }
    }

    #[test]
    fn nodes_are_sorted_and_iter_matches() {
        let m = mrrg(3, 2);
        let nodes = m.nodes();
        let mut sorted = nodes.clone();
        sorted.sort();
        assert_eq!(nodes, sorted, "enumeration must follow RNode order");
        let from_iter: Vec<_> = m.nodes_iter().collect();
        assert_eq!(nodes, from_iter);
    }

    #[test]
    fn successors_stay_in_graph() {
        let m = mrrg(3, 2);
        for n in m.nodes() {
            for s in m.successors(n) {
                assert!(m.contains(s), "{n:?} -> {s:?}");
            }
            for p in m.predecessors(n) {
                assert!(m.contains(p), "{p:?} -> {n:?}");
            }
        }
    }

    #[test]
    fn successors_predecessors_are_inverse() {
        // Build the explicit edge set both ways and compare.
        let m = mrrg(2, 3);
        let mut fwd: HashSet<(RNode, RNode)> = HashSet::new();
        let mut bwd: HashSet<(RNode, RNode)> = HashSet::new();
        for n in m.nodes() {
            for s in m.successors(n) {
                fwd.insert((n, s));
            }
            for p in m.predecessors(n) {
                bwd.insert((p, n));
            }
        }
        let missing_bwd: Vec<_> = fwd.difference(&bwd).take(5).collect();
        let missing_fwd: Vec<_> = bwd.difference(&fwd).take(5).collect();
        assert!(missing_bwd.is_empty(), "in successors but not predecessors: {missing_bwd:?}");
        assert!(missing_fwd.is_empty(), "in predecessors but not successors: {missing_fwd:?}");
    }

    #[test]
    fn modulo_wraparound() {
        let m = mrrg(2, 2);
        let fu = RNode::new(PeId::new(0, 0), 1, RKind::Fu);
        let succs = m.successors(fu);
        // t = 1 wraps to t = 0.
        assert!(succs.contains(&RNode::new(PeId::new(0, 0), 0, RKind::Out)));
        assert!(succs.iter().all(|s| s.t < 2));
    }

    #[test]
    fn single_pe_has_no_wires() {
        let m = mrrg(1, 2);
        for n in m.nodes() {
            assert!(!matches!(n.kind, RKind::Wire(_)));
            for s in m.successors(n) {
                assert!(!matches!(s.kind, RKind::Wire(_)));
            }
        }
        // Same-PE dependent ops are still routable: Fu(0) -> Out(1) -> Fu(1).
        let fu0 = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
        let out1 = RNode::new(PeId::new(0, 0), 1, RKind::Out);
        let fu1 = RNode::new(PeId::new(0, 0), 1, RKind::Fu);
        assert!(m.successors(fu0).contains(&out1));
        assert!(m.successors(out1).contains(&fu1));
    }

    #[test]
    fn wire_reaches_neighbor_fu_same_cycle() {
        let m = mrrg(2, 2);
        let w = RNode::new(PeId::new(0, 0), 1, RKind::Wire(Dir::South));
        let succs = m.successors(w);
        assert!(succs.contains(&RNode::new(PeId::new(1, 0), 1, RKind::Fu)));
        // Pass-through continues from the neighbor one cycle later.
        assert!(succs.contains(&RNode::new(PeId::new(1, 0), 0, RKind::Wire(Dir::East))));
    }

    #[test]
    fn one_cycle_per_hop() {
        // Fu(0,0)@t0 -> Wire(S)@t1 -> Fu(1,0)@t1: neighbor consumes at t+1.
        let m = mrrg(2, 4);
        let fu = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
        let wire = RNode::new(PeId::new(0, 0), 1, RKind::Wire(Dir::South));
        assert!(m.successors(fu).contains(&wire));
        assert!(m.successors(wire).contains(&RNode::new(PeId::new(1, 0), 1, RKind::Fu)));
    }

    #[test]
    fn mem_is_pure_source() {
        let m = mrrg(2, 2);
        let mem = RNode::new(PeId::new(0, 0), 0, RKind::Mem);
        assert!(m.predecessors(mem).is_empty());
        assert!(m.successors(mem).contains(&RNode::new(PeId::new(0, 0), 0, RKind::Fu)));
    }

    #[test]
    fn mega_fabric_ids_stay_in_u32_range() {
        // 64x64 at every II the pipeline realistically probes: dense ids
        // must stay below the packed-edge latency bit, which is what lets
        // the CSR pack (id | latency) into one u32.
        let spec = CgraSpec::square(64);
        for ii in [1usize, 4, 8, 16] {
            let m = Mrrg::new(spec.clone(), ii);
            assert!(
                (m.node_count() as u64) < LAT_BIT as u64,
                "64x64 II={ii}: {} nodes overflow the packed-edge id space",
                m.node_count()
            );
        }
    }

    #[test]
    fn positions_ascend_in_node_order_and_invert() {
        let mut faults = crate::CapabilityMap::new();
        faults.kill_pe(PeId::new(1, 1)).sever_link(PeId::new(0, 0), Dir::East);
        let m = Mrrg::new(CgraSpec::mesh(3, 4).unwrap().with_faults(faults), 3);
        let nodes = m.nodes();
        let positions: Vec<usize> = nodes.iter().map(|&n| m.position(n).unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        assert!(positions.iter().all(|&p| p < m.position_count()));
        for (&node, &p) in nodes.iter().zip(&positions) {
            assert_eq!(m.node_at(p), node);
        }
        assert_eq!(m.position(RNode::new(PeId::new(1, 1), 0, RKind::Fu)), None, "dead PE");
        assert_eq!(m.position(RNode::new(PeId::new(0, 0), 0, RKind::Wire(Dir::East))), None);
        assert_eq!(m.position(RNode::new(PeId::new(3, 0), 0, RKind::Fu)), None, "off the array");
        assert_eq!(m.position(RNode::new(PeId::new(0, 0), 3, RKind::Fu)), None, "t beyond II");
    }

    #[test]
    fn memory_stats_report_the_dense_tables() {
        let idx = MrrgIndex::new(CgraSpec::square(4), 2);
        let stats = idx.memory_stats();
        assert_eq!(stats.nodes, idx.len());
        assert_eq!(stats.edges, idx.fwd.len());
        assert!(stats.bytes >= (stats.edges * 2 + stats.nodes) * 4, "{stats:?}");
        let bigger = MrrgIndex::new(CgraSpec::square(4), 3).memory_stats();
        assert!(bigger.nodes > stats.nodes && bigger.bytes > stats.bytes);
        let hw = stats.max(bigger);
        assert_eq!(hw, bigger.max(stats));
        assert_eq!(hw.nodes, bigger.nodes);
    }

    #[test]
    fn capacities() {
        assert_eq!(RKind::Fu.capacity(), 1);
        assert_eq!(RKind::Wire(Dir::North).capacity(), 1);
        assert_eq!(RKind::Reg(0).capacity(), 1);
        assert_eq!(RKind::Mem.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = Mrrg::new(CgraSpec::square(2), 0);
    }

    #[test]
    fn edge_latencies_match_timing_model() {
        let m = mrrg(2, 4);
        let pe = PeId::new(0, 0);
        // Clocked hops cost one cycle.
        let fu = RNode::new(pe, 0, RKind::Fu);
        let out = RNode::new(pe, 1, RKind::Out);
        assert_eq!(m.edge_latency(fu, out), Some(1));
        assert_eq!(m.edge_latency(out, RNode::new(pe, 2, RKind::Out)), Some(1));
        // Same-cycle crossbar feeds cost zero.
        assert_eq!(m.edge_latency(out, RNode::new(pe, 1, RKind::Fu)), Some(0));
        let wire = RNode::new(pe, 1, RKind::Wire(Dir::South));
        assert_eq!(m.edge_latency(fu, wire), Some(1));
        assert_eq!(m.edge_latency(wire, RNode::new(PeId::new(1, 0), 1, RKind::Fu)), Some(0));
        let regwr = RNode::new(pe, 1, RKind::RegWr);
        let reg = RNode::new(pe, 1, RKind::Reg(0));
        let regrd = RNode::new(pe, 1, RKind::RegRd);
        assert_eq!(m.edge_latency(fu, regwr), Some(1));
        assert_eq!(m.edge_latency(regwr, reg), Some(0));
        assert_eq!(m.edge_latency(reg, regrd), Some(0));
        assert_eq!(m.edge_latency(regrd, RNode::new(pe, 1, RKind::Fu)), Some(0));
        assert_eq!(m.edge_latency(reg, RNode::new(pe, 2, RKind::Reg(0))), Some(1));
        // Non-edges and out-of-graph nodes report none.
        assert_eq!(m.edge_latency(fu, RNode::new(pe, 3, RKind::Out)), None);
        assert_eq!(m.edge_latency(fu, RNode::new(PeId::new(5, 5), 1, RKind::Out)), None);
        assert!(m.edge_latency(fu, RNode::new(pe, 0, RKind::Fu)).is_none());
    }

    #[test]
    fn at_ii_one_latency_is_kind_derived() {
        // With II = 1 every t field is 0; only the kind pair can tell a
        // 1-cycle hop from a same-cycle feed.
        let m = Mrrg::new(CgraSpec::square(2), 1);
        let pe = PeId::new(0, 0);
        let fu = RNode::new(pe, 0, RKind::Fu);
        let out = RNode::new(pe, 0, RKind::Out);
        assert_eq!(m.edge_latency(fu, out), Some(1));
        assert_eq!(m.edge_latency(out, fu), Some(0));
    }

    #[test]
    fn index_ids_follow_node_order() {
        let idx = MrrgIndex::new(CgraSpec::square(3), 2);
        let nodes = idx.mrrg().nodes();
        assert_eq!(idx.len(), nodes.len());
        assert_eq!(idx.nodes(), &nodes[..]);
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(idx.index_of(n), Some(RIdx(i as u32)), "{n:?}");
            assert_eq!(idx.node(RIdx(i as u32)), n);
            assert_eq!(idx.capacity(RIdx(i as u32)), idx.spec().capacity(n.kind));
        }
    }

    #[test]
    fn index_rejects_foreign_nodes() {
        let idx = MrrgIndex::new(CgraSpec::square(2), 2);
        // Outside the array, outside the window, dangling wire, missing reg.
        assert_eq!(idx.index_of(RNode::new(PeId::new(9, 0), 0, RKind::Fu)), None);
        assert_eq!(idx.index_of(RNode::new(PeId::new(0, 0), 2, RKind::Fu)), None);
        assert_eq!(idx.index_of(RNode::new(PeId::new(0, 0), 0, RKind::Wire(Dir::North))), None);
        assert_eq!(idx.index_of(RNode::new(PeId::new(0, 0), 0, RKind::Reg(200))), None);
        assert!(!idx.contains(RNode::new(PeId::new(9, 0), 0, RKind::Fu)));
        assert!(idx.contains(RNode::new(PeId::new(0, 0), 0, RKind::Fu)));
    }

    #[test]
    fn index_adjacency_matches_legacy() {
        let m = mrrg(2, 3);
        let idx = MrrgIndex::new(m.spec().clone(), m.ii());
        for n in m.nodes() {
            let i = idx.index_of(n).unwrap();
            let fwd: Vec<RNode> = idx.successors(i).map(|(s, _)| idx.node(s)).collect();
            assert_eq!(fwd, m.successors(n), "successors of {n:?}");
            let bwd: Vec<RNode> = idx.predecessors(i).map(|(p, _)| idx.node(p)).collect();
            assert_eq!(bwd, m.predecessors(n), "predecessors of {n:?}");
            for (s, lat) in idx.successors(i) {
                assert_eq!(Some(lat), m.edge_latency(n, idx.node(s)), "{n:?}");
            }
            for (p, lat) in idx.predecessors(i) {
                assert_eq!(Some(lat), m.edge_latency(idx.node(p), n), "{n:?}");
            }
        }
    }

    #[test]
    fn index_edge_latency_matches_legacy_at_ii_one() {
        // II = 1 is the case where latency cannot be derived from t fields.
        let m = Mrrg::new(CgraSpec::square(2), 1);
        let idx = MrrgIndex::new(m.spec().clone(), 1);
        let pe = PeId::new(0, 0);
        let fu = RNode::new(pe, 0, RKind::Fu);
        let out = RNode::new(pe, 0, RKind::Out);
        assert_eq!(idx.edge_latency(fu, out), Some(1));
        assert_eq!(idx.edge_latency(out, fu), Some(0));
        assert_eq!(idx.edge_latency(fu, fu), None);
    }

    #[test]
    fn faulted_resources_vanish_from_graph_and_index() {
        let mut faults = crate::CapabilityMap::new();
        faults
            .kill_pe(PeId::new(1, 1))
            .sever_link(PeId::new(0, 0), Dir::East)
            .disable_reg(PeId::new(0, 1), 1)
            .disable_mem(PeId::new(2, 2));
        let spec = CgraSpec::square(3).with_faults(faults);
        let m = Mrrg::new(spec.clone(), 2);
        assert_eq!(m.nodes().len(), m.node_count());
        assert!(!m.contains(RNode::new(PeId::new(1, 1), 0, RKind::Fu)));
        assert!(!m.contains(RNode::new(PeId::new(0, 0), 1, RKind::Wire(Dir::East))));
        assert!(!m.contains(RNode::new(PeId::new(0, 1), 0, RKind::Reg(1))));
        assert!(!m.contains(RNode::new(PeId::new(2, 2), 1, RKind::Mem)));
        for n in m.nodes() {
            assert!(!spec.faults.masks(&spec, n), "masked node enumerated: {n:?}");
            for s in m.successors(n) {
                assert!(m.contains(s), "{n:?} -> masked {s:?}");
            }
            for p in m.predecessors(n) {
                assert!(m.contains(p), "masked {p:?} -> {n:?}");
            }
        }
        // The dense index agrees node-for-node and edge-for-edge.
        let idx = MrrgIndex::new(spec, 2);
        assert_eq!(idx.len(), m.node_count());
        assert_eq!(idx.index_of(RNode::new(PeId::new(1, 1), 0, RKind::Fu)), None);
        for n in m.nodes() {
            let i = idx.index_of(n).unwrap();
            let fwd: Vec<RNode> = idx.successors(i).map(|(s, _)| idx.node(s)).collect();
            assert_eq!(fwd, m.successors(n), "successors of {n:?}");
            let bwd: Vec<RNode> = idx.predecessors(i).map(|(p, _)| idx.node(p)).collect();
            assert_eq!(bwd, m.predecessors(n), "predecessors of {n:?}");
        }
    }

    #[test]
    fn route_only_pe_loses_fu_and_out_but_keeps_routing_fabric() {
        let mut caps = crate::CapabilityMap::new();
        caps.set_classes(PeId::new(1, 1), &[crate::OpClass::Route]);
        let spec = CgraSpec::square(3).with_faults(caps);
        let m = Mrrg::new(spec.clone(), 2);
        assert_eq!(m.nodes().len(), m.node_count());
        for t in 0..2 {
            assert!(!m.contains(RNode::new(PeId::new(1, 1), t, RKind::Fu)));
            assert!(!m.contains(RNode::new(PeId::new(1, 1), t, RKind::Out)));
            assert!(!m.contains(RNode::new(PeId::new(1, 1), t, RKind::Mem)));
            // Routing resources survive: wires, registers, ports.
            assert!(m.contains(RNode::new(PeId::new(1, 1), t, RKind::Wire(Dir::East))));
            assert!(m.contains(RNode::new(PeId::new(1, 1), t, RKind::Reg(0))));
            assert!(m.contains(RNode::new(PeId::new(1, 1), t, RKind::RegWr)));
        }
        // Enumeration never references a masked node, and the index agrees.
        let idx = MrrgIndex::new(spec.clone(), 2);
        assert_eq!(idx.len(), m.node_count());
        for n in m.nodes() {
            assert!(!spec.faults.masks(&spec, n), "masked node enumerated: {n:?}");
            for s in m.successors(n) {
                assert!(m.contains(s), "{n:?} -> masked {s:?}");
            }
        }
    }

    #[test]
    fn fault_only_capability_map_reproduces_fault_model_node_set() {
        // PR-compat pin: a map built only from fault builders produces the
        // exact node set the pre-capability fault model produced — the Fu |
        // Out arm of masks() must stay inert without class restrictions.
        let mut faults = crate::CapabilityMap::new();
        faults.kill_pe(PeId::new(0, 2)).disable_mem(PeId::new(1, 0));
        let spec = CgraSpec::square(3).with_faults(faults);
        let pristine = spec.fault_free();
        let m = Mrrg::new(spec.clone(), 2);
        let full = Mrrg::new(pristine, 2);
        for n in full.nodes() {
            let expect_gone = spec.faults.pe_dead(n.pe)
                || (n.kind == RKind::Mem && spec.faults.mem_disabled(n.pe))
                || matches!(n.kind, RKind::Wire(d)
                    if spec.neighbor(n.pe, d).is_some_and(|nb| spec.faults.pe_dead(nb)));
            assert_eq!(m.contains(n), !expect_gone, "{n:?}");
        }
    }

    #[test]
    fn shared_cache_distinguishes_capability_maps() {
        let pristine = CgraSpec::square(2);
        let restricted =
            pristine.clone().with_faults(crate::CapabilityMap::corner_multipliers(2, 2));
        // corner_multipliers on 2×2 restricts nothing (all PEs are corners);
        // build a real restriction instead.
        assert!(restricted.faults.is_empty());
        let mut caps = crate::CapabilityMap::new();
        caps.set_classes(PeId::new(0, 0), &[crate::OpClass::Route]);
        let restricted = pristine.clone().with_faults(caps);
        let a = MrrgIndex::shared(pristine, 2);
        let b = MrrgIndex::shared(restricted, 2);
        assert!(!Arc::ptr_eq(&a, &b), "capability maps are part of the cache key");
        assert!(b.len() < a.len(), "masking Fu/Out/Mem must shrink the graph");
    }

    #[test]
    fn shared_cache_distinguishes_fault_maps() {
        let pristine = CgraSpec::square(2);
        let mut faults = crate::CapabilityMap::new();
        faults.kill_pe(PeId::new(0, 1));
        let faulted = pristine.clone().with_faults(faults);
        let a = MrrgIndex::shared(pristine, 2);
        let b = MrrgIndex::shared(faulted, 2);
        assert!(!Arc::ptr_eq(&a, &b), "fault maps are part of the cache key");
        assert!(b.len() < a.len(), "masking must shrink the graph");
    }

    #[test]
    fn shared_cache_returns_same_build() {
        let a = MrrgIndex::shared(CgraSpec::square(2), 3);
        let b = MrrgIndex::shared(CgraSpec::square(2), 3);
        assert!(Arc::ptr_eq(&a, &b), "same (spec, II) must share one build");
        let c = MrrgIndex::shared(CgraSpec::square(2), 4);
        assert!(!Arc::ptr_eq(&a, &c), "different II is a different graph");
    }
}
