//! CGRA architecture model for the HiMap reproduction.
//!
//! Models the target architecture of the paper (§I Fig. 1, §VI): a 2-D mesh
//! of processing elements, each with an ALU, a small register file, a
//! crossbar switch, a configuration memory and a local data memory, fed by
//! on-chip memory banks.
//!
//! Three views of the architecture are provided:
//!
//! * [`CgraSpec`] — the static description (array shape, RF size, …);
//! * [`Vsa`] — the *Virtual Systolic Array* clustering `G → G'` of §IV:
//!   the PE array partitioned into `s1 × s2` sub-CGRAs;
//! * [`Mrrg`] — the time-extended *Modulo Routing Resource Graph* `H_II`.
//!   MRRGs for large arrays have millions of resource nodes, so the graph is
//!   **implicit**: [`Mrrg::successors`]/[`Mrrg::predecessors`] enumerate
//!   neighbours on demand instead of materializing adjacency lists.
//!
//! The [`power`] module provides the activity-based power model substituted
//! for the paper's Verilog/Synopsys synthesis flow (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use himap_cgra::{CgraSpec, Mrrg};
//!
//! let spec = CgraSpec::square(4);
//! let mrrg = Mrrg::new(spec.clone(), 3);
//! assert_eq!(mrrg.ii(), 3);
//! assert_eq!(spec.pe_count(), 16);
//! ```

#![forbid(unsafe_code)]

mod arch;
mod capability;
mod mrrg;
pub mod power;
mod vsa;

pub use arch::{CgraSpec, Dir, PeId, SpecError, ALL_DIRS};
pub use capability::{CapabilityMap, OpClass, ALL_OP_CLASSES};
pub use mrrg::{MemoryStats, Mrrg, MrrgIndex, RIdx, RKind, RNode};
pub use power::PowerModel;
pub use vsa::{SpeId, Vsa, VsaError};
