//! `himap-verify` — an independent static verifier for CGRA mappings.
//!
//! HiMap's own soundness argument lives inside the mapper
//! (`replicate_and_verify`): the prover audits itself. This crate is the
//! external auditor. It takes any [`Mapping`] — produced by HiMap, by the
//! exact backend, or wrapped from a `himap-baseline` mapper's routed result
//! with `himap_core::routed_mapping`, each carrying its
//! [`CgraSpec`](himap_cgra::CgraSpec) and [`Dfg`](himap_dfg::Dfg) — and
//! re-derives legality from first principles:
//!
//! | code | severity | proves |
//! |------|----------|--------|
//! | V001 | error    | modulo resource exclusivity, restamped from routes |
//! | V002 | error    | every route is a real MRRG path with exact hop timing |
//! | V003 | error    | operands arrive at the consuming FU's cycle; memory causality |
//! | V004 | error    | register-file size and port limits |
//! | V005 | error    | per-PE unique instructions fit the config memory |
//! | V006 | error    | no placement or route touches a faulted resource |
//! | V007 | error    | every op sits on a PE that provides its op class |
//! | W101 | warning  | no avoidable wire detours |
//! | W102 | warning  | no route dwells longer than one modulo window |
//! | W103 | warning  | mapper statistics match recomputed values |
//! | K001–K002 | mixed | kernel-IR lints (emitted by `himap_analyze::lint_diagnostics`) |
//! | A001–A009 | mixed | pre-mapping static analysis (emitted by `himap-analyze`) |
//!
//! The checks read the implicit [`Mrrg`](himap_cgra::Mrrg): resources and
//! hop latencies come from its architecture rules, and no index the mapper
//! built is consulted (the mapper's own index covers only the PEs its
//! negotiation touched).
//!
//! # Example
//!
//! ```
//! use himap_cgra::CgraSpec;
//! use himap_core::{HiMap, HiMapOptions};
//! use himap_kernels::suite;
//! use himap_verify::verify_mapping;
//!
//! let mapping = HiMap::new(HiMapOptions::default())
//!     .map(&suite::gemm(), &CgraSpec::square(2))?;
//! let report = verify_mapping(&mapping);
//! assert!(!report.has_errors(), "{}", report.render_pretty());
//! # Ok::<(), himap_core::HiMapError>(())
//! ```
//!
//! To have every mapping the pipeline produces cross-checked automatically,
//! call [`install`] once (the tests do; neither binary installs it): it
//! registers the verifier with `himap-core`'s hook, which then runs it on
//! every mapping `HiMap::map` returns, in every build profile.

#![forbid(unsafe_code)]

mod verify;

// The diagnostic vocabulary (codes, sink, rendering) lives in
// `himap-analyze`, the bottom-most diagnostics producer; re-exported here
// so every existing `himap_verify::{Code, DiagnosticSink, …}` path keeps
// working.
pub use himap_analyze::{Code, Diagnostic, DiagnosticSink, Locus, Severity};
pub use verify::verify_mapping;

use himap_core::Mapping;

/// Installs this verifier as `himap-core`'s process-wide verify hook, so
/// [`HiMap::map`](himap_core::HiMap::map) cross-checks every mapping it
/// returns, in every build profile. Idempotent.
pub fn install() {
    himap_core::set_verify_hook(hook);
}

fn hook(mapping: &Mapping) -> Result<(), String> {
    let report = verify_mapping(mapping);
    if report.has_errors() {
        Err(report.render_pretty())
    } else {
        Ok(())
    }
}
