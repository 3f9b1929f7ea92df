//! Cycle-accurate functional simulation of HiMap mappings.
//!
//! The paper performs "functional validation of the resultant mappings
//! through cycle-accurate software simulation of the executions on CGRA
//! architecture" (§VI). This crate does the same for every mapping produced
//! by `himap-core`:
//!
//! * operations execute at their scheduled absolute cycles, consuming
//!   operand values that must have physically travelled the routed resource
//!   sequence (wire, register-file and output-register steps, one cycle per
//!   hop); each op's cycle slot must be its absolute cycle modulo the II,
//!   and every route must end on its consumer's FU at the consumer's cycle;
//! * every `(resource, cycle)` pair may carry at most as many distinct
//!   values as the resource has capacity (`CgraSpec::capacity`): one on a
//!   wire, register or output register, the port count on the memory port
//!   and the register file's write and read ports. One more is a
//!   [`SimError::ResourceConflict`] (a routing or replication bug); one
//!   value fanned out to several consumers is a single value;
//! * the per-PE data memories are modelled with store-to-load visibility
//!   latency, so memory-routed dependences (Floyd–Warshall's pivots) are
//!   genuinely checked, not assumed;
//! * the final memory state is compared element-by-element against the
//!   sequential reference interpreter of `himap-kernels` on identical
//!   seeded inputs.
//!
//! # Example
//!
//! ```
//! use himap_cgra::CgraSpec;
//! use himap_core::{HiMap, HiMapOptions};
//! use himap_kernels::suite;
//! use himap_sim::simulate;
//!
//! let mapping = HiMap::new(HiMapOptions::default())
//!     .map(&suite::gemm(), &CgraSpec::square(2))?;
//! let report = simulate(&mapping, 42).expect("mapping is functionally correct");
//! assert!(report.elements_checked > 0);
//! # Ok::<(), himap_core::HiMapError>(())
//! ```

#![forbid(unsafe_code)]

mod engine;

pub use engine::{simulate, SimError, SimReport};
