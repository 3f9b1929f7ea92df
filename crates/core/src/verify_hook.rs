//! Registration point for an external static mapping verifier.
//!
//! `himap-verify` depends on this crate (it consumes [`Mapping`]), so the
//! pipeline cannot call into it directly without a dependency cycle.
//! Instead the verifier crate installs a function pointer here once per
//! process; [`HiMap::map`](crate::HiMap::map) invokes it on every mapping
//! it is about to return, in every build profile.

use std::sync::OnceLock;

use crate::mapping::Mapping;

/// An installed verifier: returns `Err` with rendered diagnostics when the
/// mapping fails any Error-severity check.
pub type VerifyHook = fn(&Mapping) -> Result<(), String>;

static HOOK: OnceLock<VerifyHook> = OnceLock::new();

/// Install the process-wide verify hook. The first installation wins;
/// subsequent calls are ignored (idempotent, safe to call from every test).
pub fn set_verify_hook(hook: VerifyHook) {
    let _ = HOOK.set(hook);
}

/// The currently installed hook, if any.
pub fn verify_hook() -> Option<VerifyHook> {
    HOOK.get().copied()
}
