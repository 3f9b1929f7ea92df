//! PathFinder-style negotiated-congestion routing on modulo
//! routing-resource graphs.
//!
//! Both HiMap's `MAP()`/`ROUTE()` phases and the SPR/HyCUBE-style baseline
//! mapper are built on the same primitive: route a *signal* from one or more
//! source resources to a target FU through the implicit MRRG, sharing
//! resources freely with itself (fan-out) but negotiating with other signals
//! via present-congestion penalties and accumulated history costs (the
//! scheme the paper adopts from SPR: "the costs of oversubscribed ports are
//! increased for future iterations").
//!
//! The router tracks the *elapsed* cycle count of every path. On a modulo
//! graph a path of length `L` and a path of length `L + II` end at the same
//! resource but deliver values from different loop iterations, so callers
//! specify the exact elapsed budget a dependence requires.
//!
//! # Example
//!
//! ```
//! use himap_cgra::{CgraSpec, Mrrg, PeId, RKind, RNode};
//! use himap_mapper::{Elapsed, Router, RouterConfig, SignalId};
//!
//! let mrrg = Mrrg::new(CgraSpec::square(2), 4);
//! let mut router = Router::new(mrrg, RouterConfig::default());
//! let src = RNode::new(PeId::new(0, 0), 0, RKind::Fu);
//! let dst = RNode::new(PeId::new(1, 1), 3, RKind::Fu);
//! let path = router
//!     .route(SignalId(0), &[src], dst, Elapsed::Exact(3), |_| true)
//!     .expect("two hops and a wait fit in 3 cycles");
//! assert_eq!(path.elapsed, 3);
//! router.commit(&path);
//! ```

#![forbid(unsafe_code)]

mod router;

pub use router::{CancelToken, Elapsed, RoutedPath, Router, RouterConfig, RouterStats, SignalId};
