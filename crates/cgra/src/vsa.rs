//! Virtual Systolic Array clustering (`G → G'` of §IV).
//!
//! A [`Vsa`] partitions the CGRA PE array into a grid of `s1 × s2`
//! sub-CGRAs; each partition is one *systolic PE* (SPE). HiMap places loop
//! iterations on SPEs and replicates the detailed sub-CGRA mapping inside
//! each one.

use std::error::Error;
use std::fmt;

use crate::arch::{CgraSpec, PeId};

/// Coordinates of a systolic PE in the VSA grid.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpeId {
    /// Row in the VSA grid.
    pub x: u16,
    /// Column in the VSA grid.
    pub y: u16,
}

impl SpeId {
    /// Creates an SPE coordinate.
    pub fn new(x: usize, y: usize) -> Self {
        SpeId { x: x as u16, y: y as u16 }
    }
}

impl fmt::Debug for SpeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spe({},{})", self.x, self.y)
    }
}

impl fmt::Display for SpeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.x, self.y)
    }
}

/// Error constructing a [`Vsa`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VsaError {
    /// Sub-CGRA dimensions must be non-zero.
    EmptySubCgra,
    /// The sub-CGRA does not tile the array evenly.
    NotDivisible {
        /// CGRA rows.
        rows: usize,
        /// CGRA columns.
        cols: usize,
        /// Sub-CGRA rows `s1`.
        s1: usize,
        /// Sub-CGRA columns `s2`.
        s2: usize,
    },
    /// No dead-PE-free rectangle of the array fits even one sub-CGRA.
    NoFaultFreeRegion {
        /// CGRA rows.
        rows: usize,
        /// CGRA columns.
        cols: usize,
        /// Sub-CGRA rows `s1`.
        s1: usize,
        /// Sub-CGRA columns `s2`.
        s2: usize,
    },
}

impl fmt::Display for VsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VsaError::EmptySubCgra => write!(f, "sub-CGRA dimensions must be non-zero"),
            VsaError::NotDivisible { rows, cols, s1, s2 } => {
                write!(f, "{s1}x{s2} sub-CGRA does not tile a {rows}x{cols} CGRA")
            }
            VsaError::NoFaultFreeRegion { rows, cols, s1, s2 } => {
                write!(f, "no fault-free region of a {rows}x{cols} CGRA fits a {s1}x{s2} sub-CGRA")
            }
        }
    }
}

impl Error for VsaError {}

/// The CGRA clustered into a grid of `s1 × s2` sub-CGRAs.
///
/// # Example
///
/// ```
/// use himap_cgra::{CgraSpec, PeId, SpeId, Vsa};
///
/// # fn main() -> Result<(), himap_cgra::VsaError> {
/// // The paper's motivating example: an 8x1 CGRA clustered into a 4x1 VSA
/// // of 2x1 sub-CGRAs.
/// let vsa = Vsa::new(CgraSpec::mesh(8, 1).unwrap(), 2, 1)?;
/// assert_eq!((vsa.rows(), vsa.cols()), (4, 1));
/// assert_eq!(vsa.spe_of(PeId::new(5, 0)), SpeId::new(2, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Vsa {
    spec: CgraSpec,
    s1: usize,
    s2: usize,
    rows: usize,
    cols: usize,
    /// North-west physical corner of the VSA region: `(0, 0)` on a fabric
    /// without dead PEs; otherwise the anchor of the best dead-PE-free
    /// rectangle.
    origin: PeId,
}

impl Vsa {
    /// Clusters `spec` into `s1 × s2` sub-CGRAs.
    ///
    /// Every SPE hosts live loop iterations, so dead PEs cannot be routed
    /// around *inside* the VSA — instead the VSA is anchored on the
    /// dead-PE-free rectangle that fits the most `s1 × s2` sub-CGRAs (ties
    /// broken deterministically by scan order). Other fault classes (severed
    /// links, disabled registers or memory banks) stay inside the region and
    /// are avoided by MRRG masking during routing.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError`] if `s1`/`s2` are zero, do not divide the array
    /// dimensions (fabrics without dead PEs), or no dead-PE-free rectangle
    /// fits a single sub-CGRA.
    pub fn new(spec: CgraSpec, s1: usize, s2: usize) -> Result<Self, VsaError> {
        if s1 == 0 || s2 == 0 {
            return Err(VsaError::EmptySubCgra);
        }
        if !spec.faults.has_dead_pes() {
            if !spec.rows.is_multiple_of(s1) || !spec.cols.is_multiple_of(s2) {
                return Err(VsaError::NotDivisible { rows: spec.rows, cols: spec.cols, s1, s2 });
            }
            let rows = spec.rows / s1;
            let cols = spec.cols / s2;
            return Ok(Vsa { spec, s1, s2, rows, cols, origin: PeId::new(0, 0) });
        }
        // For every row pair (r0, r1) keep per-column "all rows healthy"
        // flags incrementally; each maximal healthy run is a candidate
        // rectangle. O(rows² · cols), deterministic first-best tie-break.
        let (rows, cols) = (spec.rows, spec.cols);
        let mut best: Option<(usize, PeId, usize, usize)> = None;
        let mut alive = vec![true; cols];
        for r0 in 0..rows {
            alive.iter_mut().for_each(|a| *a = true);
            for r1 in r0..rows {
                for (c, slot) in alive.iter_mut().enumerate() {
                    *slot = *slot && !spec.faults.pe_dead(PeId::new(r1, c));
                }
                let vrows = (r1 - r0 + 1) / s1;
                if vrows == 0 {
                    continue;
                }
                let mut c = 0;
                while c < cols {
                    if !alive[c] {
                        c += 1;
                        continue;
                    }
                    let start = c;
                    while c < cols && alive[c] {
                        c += 1;
                    }
                    let vcols = (c - start) / s2;
                    if vcols == 0 {
                        continue;
                    }
                    let usable = vrows * vcols;
                    if best.as_ref().is_none_or(|&(u, ..)| usable > u) {
                        best = Some((usable, PeId::new(r0, start), vrows, vcols));
                    }
                }
            }
        }
        match best {
            Some((_, origin, vrows, vcols)) => {
                Ok(Vsa { spec, s1, s2, rows: vrows, cols: vcols, origin })
            }
            None => Err(VsaError::NoFaultFreeRegion { rows, cols, s1, s2 }),
        }
    }

    /// The underlying CGRA.
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// A standalone spec describing one sub-CGRA `G''` (used by `MAP()`).
    /// Faults are stripped: the relative mapping is position-agnostic, and
    /// replication lands it only on the fault-masked physical MRRG.
    pub fn sub_spec(&self) -> CgraSpec {
        CgraSpec { rows: self.s1, cols: self.s2, ..self.spec.fault_free() }
    }

    /// The physical PE at the north-west corner of the VSA region.
    pub fn origin(&self) -> PeId {
        self.origin
    }

    /// `true` if `pe` lies inside the (possibly cropped) VSA region.
    pub fn contains_pe(&self, pe: PeId) -> bool {
        let (x, y) = (pe.x as usize, pe.y as usize);
        let (ox, oy) = (self.origin.x as usize, self.origin.y as usize);
        x >= ox && x < ox + self.rows * self.s1 && y >= oy && y < oy + self.cols * self.s2
    }

    /// VSA grid rows (`c / s1`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// VSA grid columns (`c / s2`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of SPEs.
    pub fn spe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The SPE containing a physical PE.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is outside the VSA region.
    pub fn spe_of(&self, pe: PeId) -> SpeId {
        assert!(self.contains_pe(pe), "{pe:?} outside VSA region");
        SpeId {
            x: (pe.x - self.origin.x) / self.s1 as u16,
            y: (pe.y - self.origin.y) / self.s2 as u16,
        }
    }

    /// `true` if `spe` lies inside the VSA grid.
    pub fn contains_spe(&self, spe: SpeId) -> bool {
        (spe.x as usize) < self.rows && (spe.y as usize) < self.cols
    }

    /// The physical PE at local coordinates `local` inside `spe`.
    ///
    /// # Panics
    ///
    /// Panics if `spe` is outside the VSA or `local` outside the sub-CGRA.
    pub fn pe_at(&self, spe: SpeId, local: PeId) -> PeId {
        assert!(self.contains_spe(spe), "{spe:?} outside VSA");
        assert!(
            (local.x as usize) < self.s1 && (local.y as usize) < self.s2,
            "{local:?} outside {}x{} sub-CGRA",
            self.s1,
            self.s2
        );
        PeId {
            x: self.origin.x + spe.x * self.s1 as u16 + local.x,
            y: self.origin.y + spe.y * self.s2 as u16 + local.y,
        }
    }

    /// The local coordinates of a physical PE within its SPE.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is outside the VSA region.
    pub fn local_of(&self, pe: PeId) -> PeId {
        assert!(self.contains_pe(pe), "{pe:?} outside VSA region");
        PeId {
            x: (pe.x - self.origin.x) % self.s1 as u16,
            y: (pe.y - self.origin.y) % self.s2 as u16,
        }
    }

    /// Iterates over all SPE coordinates in row-major order.
    pub fn spes(&self) -> impl Iterator<Item = SpeId> + '_ {
        (0..self.rows).flat_map(move |x| (0..self.cols).map(move |y| SpeId::new(x, y)))
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_evenly() {
        let vsa = Vsa::new(CgraSpec::square(8), 2, 4).unwrap();
        assert_eq!(vsa.rows(), 4);
        assert_eq!(vsa.cols(), 2);
        assert_eq!(vsa.spe_count(), 8);
        assert_eq!(vsa.sub_spec().pe_count(), 8);
    }

    #[test]
    fn rejects_bad_tilings() {
        assert_eq!(
            Vsa::new(CgraSpec::square(8), 3, 1).unwrap_err(),
            VsaError::NotDivisible { rows: 8, cols: 8, s1: 3, s2: 1 }
        );
        assert_eq!(Vsa::new(CgraSpec::square(8), 0, 1).unwrap_err(), VsaError::EmptySubCgra);
    }

    #[test]
    fn coordinate_roundtrip() {
        let vsa = Vsa::new(CgraSpec::square(6), 2, 3).unwrap();
        for pe in vsa.spec().pes().collect::<Vec<_>>() {
            let spe = vsa.spe_of(pe);
            let local = vsa.local_of(pe);
            assert_eq!(vsa.pe_at(spe, local), pe);
        }
    }

    #[test]
    fn paper_linear_example() {
        // §II: 8x1 CGRA, 2x1 sub-CGRAs, 4x1 VSA.
        let vsa = Vsa::new(CgraSpec::mesh(8, 1).unwrap(), 2, 1).unwrap();
        assert_eq!((vsa.rows(), vsa.cols()), (4, 1));
        assert_eq!(vsa.spe_of(PeId::new(0, 0)), SpeId::new(0, 0));
        assert_eq!(vsa.spe_of(PeId::new(7, 0)), SpeId::new(3, 0));
        assert_eq!(vsa.pe_at(SpeId::new(3, 0), PeId::new(1, 0)), PeId::new(7, 0));
    }

    #[test]
    fn paper_gemm_example() {
        // §V Fig. 5: 2x2 CGRA, 1x1 sub-CGRA, 2x2 VSA.
        let vsa = Vsa::new(CgraSpec::square(2), 1, 1).unwrap();
        assert_eq!(vsa.spe_count(), 4);
        for pe in vsa.spec().pes().collect::<Vec<_>>() {
            assert_eq!(vsa.spe_of(pe), SpeId { x: pe.x, y: pe.y });
        }
    }

    #[test]
    fn crops_around_dead_pes() {
        // Killing (0,0) on an 8x8 with 2x2 sub-CGRAs: the 8-row slab east of
        // column 0 fits 4x3 sub-CGRAs (12), found before the 7x8 slab south
        // of row 0 (also 12) — first-best scan order is the tie-break.
        let mut faults = crate::CapabilityMap::new();
        faults.kill_pe(PeId::new(0, 0));
        let vsa = Vsa::new(CgraSpec::square(8).with_faults(faults), 2, 2).unwrap();
        assert_eq!(vsa.origin(), PeId::new(0, 1));
        assert_eq!((vsa.rows(), vsa.cols()), (4, 3));
        assert!(!vsa.contains_pe(PeId::new(0, 0)));
        for spe in vsa.spes().collect::<Vec<_>>() {
            for lx in 0..2 {
                for ly in 0..2 {
                    let pe = vsa.pe_at(spe, PeId::new(lx, ly));
                    assert!(vsa.spec().healthy(pe), "{pe:?} in VSA region");
                    assert_eq!(vsa.spe_of(pe), spe);
                    assert_eq!(vsa.local_of(pe), PeId::new(lx, ly));
                }
            }
        }
        assert!(vsa.sub_spec().faults.is_empty(), "sub-CGRA probing is fault-free");
    }

    #[test]
    fn fully_dead_array_has_no_region() {
        let mut faults = crate::CapabilityMap::new();
        for pe in CgraSpec::square(2).pes() {
            faults.kill_pe(pe);
        }
        assert_eq!(
            Vsa::new(CgraSpec::square(2).with_faults(faults), 1, 1).unwrap_err(),
            VsaError::NoFaultFreeRegion { rows: 2, cols: 2, s1: 1, s2: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn pe_at_validates_local() {
        let vsa = Vsa::new(CgraSpec::square(4), 2, 2).unwrap();
        let _ = vsa.pe_at(SpeId::new(0, 0), PeId::new(2, 0));
    }
}
