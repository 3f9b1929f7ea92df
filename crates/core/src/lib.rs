//! HiMap — fast and scalable high-quality CGRA mapping via hierarchical
//! abstraction (DATE 2021).
//!
//! This crate implements the paper's Algorithm 1 end-to-end:
//!
//! 1. **`MAP()`** ([`submap`]) — place one iteration's operations (the IDFG)
//!    onto candidate sub-CGRAs of different shapes `(s1, s2)` and time
//!    depths `t`, using PathFinder-negotiated placement and routing; rank
//!    the resulting relative mappings by utilization `|V_F| / (s1·s2·t)`.
//! 2. **ISDG → VSA** ([`Layout`]) — cluster the CGRA into a virtual systolic
//!    array of sub-CGRAs, pick block sizes to fit it, place iterations with
//!    a systolic space-time map `CP = [H;S]·CI` (searched by
//!    `himap-systolic`) and derive every DFG node's absolute
//!    placement: `nP = CP·(t, s1, s2) + nP' (mod IIB)`.
//! 3. **Unique iterations, routing, replication** ([`unique`], [`route`]) —
//!    group iterations into equivalence classes by the relative placement of
//!    their boundary dependences, route only the class representatives'
//!    edges in detail (`ROUTE()`), then replicate the routed patterns across
//!    all iterations and verify that no routing resource is oversubscribed.
//!
//! The entry point is [`HiMap::map`]; the result is a [`Mapping`] the
//! `himap-sim` crate can execute cycle-accurately.
//!
//! # Example
//!
//! ```
//! use himap_cgra::CgraSpec;
//! use himap_core::{HiMap, HiMapOptions};
//! use himap_kernels::suite;
//!
//! let mapping = HiMap::new(HiMapOptions::default())
//!     .map(&suite::gemm(), &CgraSpec::square(2))?;
//! // GEMM hits the performance envelope: 100 % utilization (Fig. 7).
//! assert!((mapping.utilization() - 1.0).abs() < 1e-9);
//! # Ok::<(), himap_core::HiMapError>(())
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod config;
mod himap;
mod layout;
pub mod lower;
mod mapping;
mod options;
pub mod route;
mod stats;
pub mod submap;
pub mod unique;
mod verify_hook;
pub mod viz;

pub use backend::{
    race, Backend, BackendError, BackendOutcome, BhcBackend, HiMapBackend, MapRequest, RaceOutcome,
};
pub use config::{ConfigImage, DstPort, Instr, Move, SrcPort};
pub use himap::HiMap;
pub use layout::{Layout, Slot};
pub use lower::{route_placement, routed_mapping, LowerError};
pub use mapping::{Mapping, MappingParts, MappingStats, RouteInstance};
pub use options::{HiMapError, HiMapOptions, MapReport};
pub use stats::{PipelineStats, StageTimes};
pub use submap::{map_idfg, map_idfg_counted, SubMapStats, SubMapping};
pub use unique::{ClassId, Classes, Descriptor};
pub use verify_hook::{set_verify_hook, verify_hook, VerifyHook};
