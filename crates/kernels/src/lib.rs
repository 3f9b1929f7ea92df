//! Affine loop-nest kernel IR, benchmark suite, dependence analysis and a
//! reference interpreter.
//!
//! The HiMap paper compiles C kernels through LLVM to obtain data-flow graphs.
//! This crate is the equivalent front-end substrate: kernels are expressed in
//! a small affine loop-nest IR ([`Kernel`]) from which the `himap-dfg` crate
//! derives the unrolled DFG, the iteration-space dependency graph (ISDG) and
//! per-iteration data-flow graphs (IDFG) by exact dataflow analysis.
//!
//! The eight multi-dimensional kernels evaluated in the paper (Table II) are
//! provided by [`suite`], together with the categorized kernel inventory of
//! Table I.
//!
//! # Example
//!
//! ```
//! use himap_kernels::suite;
//!
//! let bicg = suite::bicg();
//! assert_eq!(bicg.dims(), 2);
//! assert_eq!(bicg.compute_ops_per_iteration(), 4);
//! ```

#![forbid(unsafe_code)]

mod deps;
mod interp;
mod ir;
pub mod lint;
mod parse;
pub mod suite;

pub use deps::{classify, DepAnalysis, DepKind, Dependence, KernelCategory};
pub use interp::{interpret, ArrayStore, InterpError};
pub use ir::{
    AffineExpr, ArrayDecl, ArrayId, ArrayRef, Expr, IterVec, Kernel, KernelBuilder, KernelError,
    OpKind, Statement, StmtId,
};
pub use lint::{lint_kernel, lints_clean, uniform_distance, Lint, LintCode, LintSeverity};
pub use parse::{parse_kernel, ParseError};
