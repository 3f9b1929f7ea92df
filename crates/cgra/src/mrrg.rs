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
//! For hot paths the implicit graph is compiled once into an [`MrrgIndex`]:
//! every node gets a dense [`RIdx`] id and the full adjacency (with per-edge
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
#[derive(Clone, Debug)]
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

    /// Total number of FU slots `|V_F_H|` (denominator of the paper's
    /// utilization metric `U`).
    pub fn fu_slots(&self) -> usize {
        self.spec.pe_count() * self.ii()
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
        let ii = self.ii;
        let rf = self.spec.rf_size;
        self.spec
            .pes()
            .flat_map(move |pe| {
                (0..ii).flat_map(move |t| {
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
            })
            .filter(move |&n| !self.masked(n))
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
        let mut f = |n: RNode| {
            if !self.masked(n) {
                f(n);
            }
        };
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

    /// Clears `out` and fills it with the successors of `node`, reusing the
    /// buffer's allocation — the buffer-reuse form of [`Mrrg::successors`].
    pub fn successors_into(&self, node: RNode, out: &mut Vec<RNode>) {
        out.clear();
        self.for_each_successor(node, |n| out.push(n));
    }

    /// Clears `out` and fills it with the predecessors of `node`, reusing
    /// the buffer's allocation.
    pub fn predecessors_into(&self, node: RNode, out: &mut Vec<RNode>) {
        out.clear();
        self.for_each_predecessor(node, |n| out.push(n));
    }

    /// The resources a value sitting on `node` can move to next.
    ///
    /// Allocates a fresh `Vec` per call — kept for tests and one-off
    /// queries; hot paths should use [`Mrrg::successors_into`],
    /// [`Mrrg::for_each_successor`] or an [`MrrgIndex`].
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
    /// should use [`Mrrg::predecessors_into`] or an [`MrrgIndex`].
    pub fn predecessors(&self, node: RNode) -> Vec<RNode> {
        let mut out = Vec::with_capacity(10);
        self.for_each_predecessor(node, |n| out.push(n));
        out
    }

    /// `true` if the MRRG has a directed edge `from → to`.
    pub fn is_edge(&self, from: RNode, to: RNode) -> bool {
        self.edge_latency(from, to).is_some()
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
        let mut found = false;
        self.for_each_successor(from, |s| found |= s == to);
        if !found {
            return None;
        }
        Some(if same_cycle(from.kind, to.kind) { 0 } else { 1 })
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
/// Node count above which [`MrrgIndex::new`] shards the CSR build across
/// threads. Small fabrics build faster serially than they spawn threads.
const SHARD_THRESHOLD: usize = 1 << 15;

/// Memory footprint of one compiled [`MrrgIndex`].
///
/// Surfaced through `PipelineStats` so callers can assert that a mapping
/// run never materialised a full-fabric graph (the mega-fabric tiled path
/// must stay at sub-CGRA scale).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Indexed MRRG nodes.
    pub nodes: usize,
    /// Directed MRRG edges (forward CSR length; the backward CSR mirrors
    /// the same edges).
    pub edges: usize,
    /// Bytes held by the index's dense tables (padded id table,
    /// capacities, both CSR halves and the node list).
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

/// The [`Mrrg`] compiled to dense ids and CSR adjacency.
///
/// Built once per `(spec, II)` — see [`MrrgIndex::shared`] — and then read
/// concurrently by every router, candidate-walk worker and verifier that
/// needs the graph. Per edge the CSR stores the target id plus the
/// architectural latency (one bit: crossbar feed or clocked hop), so
/// routing and hop-timing checks never re-enumerate neighbour sets.
///
/// The dense order is the ascending [`RNode`] order of [`Mrrg::nodes`];
/// adjacency rows preserve the enumeration order of [`Mrrg::successors`] /
/// [`Mrrg::predecessors`] exactly. Both properties are what make an indexed
/// search bit-identical to one over the implicit graph (same tie-breaks,
/// same relaxation order) — and they are locked in by differential tests.
#[derive(Debug)]
pub struct MrrgIndex {
    mrrg: Mrrg,
    /// Padded `(pe, t, slot) → dense id` table; `INVALID` where no node
    /// exists (mesh-border wire slots).
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
    /// Builds the index of `spec` time-extended to `ii` cycles. Prefer
    /// [`MrrgIndex::shared`], which memoizes builds process-wide.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`, if `rf_size > 256` (the `Reg(u8)` id space), or
    /// if the graph exceeds `2^31` nodes (the packed-edge id space).
    pub fn new(spec: CgraSpec, ii: usize) -> Self {
        assert!(spec.rf_size <= 256, "register file exceeds the Reg(u8) id space");
        let mrrg = Mrrg::new(spec, ii);
        let slot_count = 9 + mrrg.spec().rf_size;
        let padded = mrrg.spec().pe_count() * ii * slot_count;
        let node_count = mrrg.node_count();
        assert!((node_count as u64) < LAT_BIT as u64, "MRRG exceeds the 2^31 packed-edge id space");
        let mut idx_of = vec![INVALID; padded];
        let mut node_of = Vec::with_capacity(node_count);
        let mut cap_of = Vec::with_capacity(node_count);
        let mut index = MrrgIndex {
            mrrg,
            idx_of: Vec::new(),
            node_of: Vec::new(),
            cap_of: Vec::new(),
            fwd_off: Vec::new(),
            fwd: Vec::new(),
            bwd_off: Vec::new(),
            bwd: Vec::new(),
            slot_count,
        };
        // `nodes_iter` yields ascending RNode order, which is exactly the
        // padded (pe, t, slot) order — dense ids inherit the node order.
        for node in index.mrrg.nodes_iter() {
            idx_of[index.padded_index(node)] = node_of.len() as u32;
            cap_of.push(index.mrrg.spec().capacity(node.kind) as u32);
            node_of.push(node);
        }
        index.idx_of = idx_of;
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
    /// backward. Latency is derived from the kind pair (`same_cycle`), the
    /// same rule [`Mrrg::edge_latency`] applies.
    ///
    /// Rows are independent and offsets are running sums, so the build
    /// shards into contiguous node ranges across threads and stitches the
    /// segments back with a prefix sum — byte-identical to a serial build
    /// (locked in by `sharded_csr_matches_serial_build`).
    fn build_csr(&self, forward: bool) -> (Vec<u32>, Vec<u32>) {
        let n = self.node_of.len();
        let threads = if n >= SHARD_THRESHOLD {
            std::thread::available_parallelism().map_or(1, usize::from).min(8)
        } else {
            1
        };
        self.build_csr_with(forward, threads)
    }

    /// [`build_csr`](Self::build_csr) with an explicit shard count.
    fn build_csr_with(&self, forward: bool, threads: usize) -> (Vec<u32>, Vec<u32>) {
        let n = self.node_of.len();
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let shards: Vec<(Vec<u32>, Vec<u32>)> = if threads <= 1 || chunk >= n {
            vec![self.build_csr_range(forward, 0, n)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|lo| {
                        let hi = (lo + chunk).min(n);
                        scope.spawn(move || self.build_csr_range(forward, lo, hi))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect()
            })
        };
        let total: usize = shards.iter().map(|(_, e)| e.len()).sum();
        assert!((total as u64) < u32::MAX as u64, "CSR edge count exceeds the u32 offset space");
        let mut off = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(total);
        off.push(0u32);
        for (lens, shard_edges) in shards {
            let base = edges.len() as u32;
            off.extend(lens.iter().map(|&l| base + l));
            edges.extend_from_slice(&shard_edges);
        }
        (off, edges)
    }

    /// One shard of the CSR build: rows `lo..hi` of the dense node order,
    /// with offsets relative to the shard start (the stitcher rebases them
    /// onto the global edge array).
    fn build_csr_range(&self, forward: bool, lo: usize, hi: usize) -> (Vec<u32>, Vec<u32>) {
        let mut off = Vec::with_capacity(hi - lo);
        let mut edges = Vec::with_capacity((hi - lo) * 6);
        for &node in &self.node_of[lo..hi] {
            let mut push = |other: RNode| {
                let padded = self.padded_index(other);
                let id = self.idx_of[padded];
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
        (off, edges)
    }

    /// The process-wide shared index for `(spec, ii)`, building it on first
    /// use. The candidate walk's routers, the replication pass and the
    /// verifier end up borrowing one build through this cache.
    pub fn shared(spec: CgraSpec, ii: usize) -> Arc<MrrgIndex> {
        // `CgraSpec` holds an `f64`, so no `Hash`/`Eq`: the cache is a small
        // LRU vector scanned linearly. Builds happen under the lock so
        // concurrent callers (raced backends) trigger exactly one build.
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

    /// Number of indexed nodes (equals [`Mrrg::node_count`]).
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Memory footprint of the compiled tables.
    pub fn memory_stats(&self) -> MemoryStats {
        let u32s = self.idx_of.len()
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

    #[inline]
    fn slot(&self, kind: RKind) -> usize {
        let rf = self.mrrg.spec().rf_size;
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

    /// Padded table position of a node known to lie inside the array.
    #[inline]
    fn padded_index(&self, node: RNode) -> usize {
        let spec = self.mrrg.spec();
        let pe = node.pe.x as usize * spec.cols + node.pe.y as usize;
        (pe * self.mrrg.ii() + node.t as usize) * self.slot_count + self.slot(node.kind)
    }

    /// The dense id of `node`, or `None` when it is not part of the graph.
    #[inline]
    pub fn index_of(&self, node: RNode) -> Option<RIdx> {
        if !self.mrrg.spec().contains(node.pe) || node.t as usize >= self.mrrg.ii() {
            return None;
        }
        if let RKind::Reg(r) = node.kind {
            if r as usize >= self.mrrg.spec().rf_size {
                return None;
            }
        }
        match self.idx_of[self.padded_index(node)] {
            INVALID => None,
            id => Some(RIdx(id)),
        }
    }

    /// `true` if `node` is part of the graph (equals [`Mrrg::contains`]).
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
    fn fu_slots_counts() {
        let m = mrrg(4, 3);
        assert_eq!(m.fu_slots(), 48);
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
    fn into_variants_reuse_buffers() {
        let m = mrrg(2, 2);
        let mut buf = Vec::new();
        for n in m.nodes() {
            m.successors_into(n, &mut buf);
            assert_eq!(buf, m.successors(n), "{n:?}");
            m.predecessors_into(n, &mut buf);
            assert_eq!(buf, m.predecessors(n), "{n:?}");
        }
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
    fn sharded_csr_matches_serial_build() {
        // Force the sharded path on a small graph and compare against the
        // serial reference — stitching must be byte-identical, including
        // the degenerate split where shards outnumber rows.
        let idx = MrrgIndex::new(CgraSpec::square(4), 3);
        for forward in [true, false] {
            let (serial_off, serial_edges) = idx.build_csr_with(forward, 1);
            for threads in [2, 3, 8, 64] {
                let (off, edges) = idx.build_csr_with(forward, threads);
                assert_eq!(off, serial_off, "forward={forward} threads={threads}");
                assert_eq!(edges, serial_edges, "forward={forward} threads={threads}");
            }
        }
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
        assert!(!m.is_edge(fu, RNode::new(pe, 0, RKind::Fu)));
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
