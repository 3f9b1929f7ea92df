//! Kernel-IR lints surfaced *before* mapping starts.
//!
//! The mapper's failure modes for ill-suited kernels are late and opaque
//! (an unroutable candidate walk); these checks catch two structural
//! problems early, each under a stable diagnostic code:
//!
//! * **K001** — a read of a kernel-written array whose affine access differs
//!   from the writer's in its coefficient matrix (no constant dependence
//!   distance). Such non-uniform accesses cannot ride a systolic forwarding
//!   chain; they are only mappable when explicitly routed through local
//!   memory ([`Kernel::is_mem_routed`]). Error when not memory-routed.
//! * **K002** — a flow-dependence distance component at least as large as
//!   the block extent at that level (4, the free extent the mapper tries
//!   first): the dependence leaves the block and silently degrades to a
//!   cross-block memory dependence. Warning.
//!
//! The `himap-verify` crate adapts these into its rustc-style
//! [`Diagnostic`](../../verify) representation; here they stay dependency-free.

use std::fmt;

use crate::ir::{Kernel, StmtId};

/// Stable code of a kernel lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// Non-uniform access of a kernel-written array without memory routing.
    K001,
    /// Flow-dependence distance exceeds the block extent.
    K002,
}

impl LintCode {
    /// The stable textual code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::K001 => "K001",
            LintCode::K002 => "K002",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Severity of a kernel lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Quality concern; mapping may still succeed.
    Warning,
    /// The kernel cannot map correctly as written.
    Error,
}

/// One kernel lint finding.
#[derive(Clone, Debug)]
pub struct Lint {
    /// Stable code.
    pub code: LintCode,
    /// Severity.
    pub severity: LintSeverity,
    /// Human-readable description.
    pub message: String,
    /// Offending statement, when attributable.
    pub stmt: Option<StmtId>,
    /// Offending read-access index within the statement, when attributable.
    pub read: Option<u8>,
}

/// The block extent per loop level that K002 checks distances against:
/// the free extent the mapper tries first.
const BLOCK_EXTENT: usize = 4;

/// Runs all kernel lints, returning findings in deterministic
/// (statement, read) order with K00x groups interleaved per statement.
pub fn lint_kernel(kernel: &Kernel) -> Vec<Lint> {
    let mut out = Vec::new();
    lint_accesses(kernel, &mut out);
    lint_distances(kernel, &mut out);
    out
}

/// `true` when the kernel has no Error-severity lint — the cheap pre-flight
/// gate callers can use before invoking the mapper.
pub fn lints_clean(kernel: &Kernel) -> bool {
    lint_kernel(kernel).iter().all(|l| l.severity != LintSeverity::Error)
}

/// K001: reads of written arrays must be uniform with the writer (equal
/// coefficient matrices, so the dependence distance is iteration-constant)
/// unless explicitly routed through local memory.
fn lint_accesses(kernel: &Kernel, out: &mut Vec<Lint>) {
    for (sidx, stmt) in kernel.stmts().iter().enumerate() {
        let stmt_id = StmtId::from_index(sidx);
        for (ridx, read) in stmt.value.reads().iter().enumerate() {
            let ridx = ridx as u8;
            if kernel.is_mem_routed(stmt_id, ridx) {
                continue;
            }
            // Compare against every statement writing the same array: a
            // constant dependence distance requires identical coefficients.
            let non_uniform = kernel.stmts().iter().any(|writer| {
                writer.target.array == read.array
                    && writer
                        .target
                        .indices
                        .iter()
                        .zip(&read.indices)
                        .any(|(w, r)| w.coeffs != r.coeffs)
            });
            if non_uniform {
                let name = &kernel.arrays()[read.array.index()].name;
                out.push(Lint {
                    code: LintCode::K001,
                    severity: LintSeverity::Error,
                    message: format!(
                        "read {ridx} of statement {sidx} accesses written array `{name}` \
                         non-uniformly (no constant dependence distance) and is not \
                         memory-routed"
                    ),
                    stmt: Some(stmt_id),
                    read: Some(ridx),
                });
            }
        }
    }
}

/// K002: a dependence-distance component `|d_i| >= b_i` never stays inside
/// the block at level `i`.
///
/// Distances are derived symbolically from the access functions (not from
/// [`DepAnalysis`](crate::deps::DepAnalysis), whose fixed sample block
/// cannot observe distances longer than itself — exactly the ones this
/// lint is about).
fn lint_distances(kernel: &Kernel, out: &mut Vec<Lint>) {
    let block = vec![BLOCK_EXTENT; kernel.dims()];
    let dims = kernel.dims();
    let mut seen: Vec<Vec<i64>> = Vec::new();
    for (sidx, stmt) in kernel.stmts().iter().enumerate() {
        for read in stmt.value.reads() {
            for writer in kernel.stmts() {
                if writer.target.array != read.array {
                    continue;
                }
                let Some(dist) = uniform_distance(&writer.target, read, dims) else {
                    continue;
                };
                if dist.iter().all(|&d| d == 0) || seen.contains(&dist) {
                    continue;
                }
                let escapes =
                    dist.iter().zip(&block).any(|(&d, &b)| d.unsigned_abs() as usize >= b.max(1));
                if escapes {
                    seen.push(dist.clone());
                    out.push(Lint {
                        code: LintCode::K002,
                        severity: LintSeverity::Warning,
                        message: format!(
                            "dependence distance {dist:?} exceeds the block extents \
                             {block:?}; the dependence leaves the block and degrades \
                             to a cross-block memory dependence"
                        ),
                        stmt: Some(StmtId::from_index(sidx)),
                        read: None,
                    });
                }
            }
        }
    }
}

/// The constant iteration distance `d` with `write(p)` feeding `read(p + d)`
/// when both accesses share coefficients and every loop level is pinned by
/// a single-variable index row; `None` when no such constant distance
/// exists (non-uniform access — K001's domain).
///
/// Public because the `himap-analyze` RecMII pass builds its statement-level
/// dependence graph from the same distances the K002 lint derives.
pub fn uniform_distance(
    writer: &crate::ir::ArrayRef,
    read: &crate::ir::ArrayRef,
    dims: usize,
) -> Option<Vec<i64>> {
    if writer.indices.len() != read.indices.len() {
        return None;
    }
    let mut dist: Vec<Option<i64>> = vec![None; dims];
    for (w, r) in writer.indices.iter().zip(&read.indices) {
        if w.coeffs != r.coeffs {
            return None;
        }
        let nz: Vec<usize> =
            w.coeffs.iter().enumerate().filter(|&(_, &c)| c != 0).map(|(j, _)| j).collect();
        match nz.as_slice() {
            // Constant index: the elements only coincide for equal offsets.
            [] => {
                if w.constant != r.constant {
                    return None;
                }
            }
            // c·p + w0 == c·(p + d) + r0  =>  d == (w0 - r0) / c.
            [j] => {
                let c = w.coeffs[*j];
                let diff = w.constant - r.constant;
                if diff % c != 0 {
                    return None;
                }
                let d = diff / c;
                match dist[*j] {
                    None => dist[*j] = Some(d),
                    Some(prev) if prev == d => {}
                    Some(_) => return None,
                }
            }
            // Coupled indices: distance not per-level decomposable.
            _ => return None,
        }
    }
    // Levels the access ignores impose no constraint; distance 0 is the
    // conservative in-block choice.
    Some(dist.into_iter().map(|d| d.unwrap_or(0)).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ir::{AffineExpr, ArrayRef, Expr, KernelBuilder, OpKind};
    use crate::suite;

    #[test]
    fn suite_kernels_are_clean() {
        for kernel in suite::all() {
            let lints = lint_kernel(&kernel);
            assert!(
                lints.iter().all(|l| l.severity != LintSeverity::Error),
                "{}: {:?}",
                kernel.name(),
                lints
            );
            assert!(lints_clean(&kernel), "{}", kernel.name());
        }
    }

    #[test]
    fn non_uniform_unrouted_read_is_k001() {
        // c[i][j] = c[i][j] + c[j][i]: the transposed read of the written
        // array has no constant dependence distance.
        let mut b = KernelBuilder::new("transpose-acc", 2);
        let c = b.array("c", 2);
        let ij = vec![AffineExpr::var(0, 2), AffineExpr::var(1, 2)];
        let ji = vec![AffineExpr::var(1, 2), AffineExpr::var(0, 2)];
        b.stmt(
            ArrayRef::new(c, ij.clone()),
            Expr::binary(
                OpKind::Add,
                Expr::Read(ArrayRef::new(c, ij)),
                Expr::Read(ArrayRef::new(c, ji)),
            ),
        );
        let kernel = b.build().unwrap();
        let lints = lint_kernel(&kernel);
        let k001: Vec<_> = lints.iter().filter(|l| l.code == LintCode::K001).collect();
        assert_eq!(k001.len(), 1, "{lints:?}");
        assert_eq!(k001[0].severity, LintSeverity::Error);
        assert_eq!(k001[0].read, Some(1), "the transposed read, not the uniform one");
        assert!(!lints_clean(&kernel));
    }

    #[test]
    fn mem_routing_silences_k001() {
        // Floyd–Warshall's pivot reads are non-uniform but memory-routed.
        let fw = suite::floyd_warshall();
        let lints = lint_kernel(&fw);
        assert!(lints.iter().all(|l| l.code != LintCode::K001), "{lints:?}");
    }

    #[test]
    fn oversized_distance_is_k002() {
        // a[i][j] = a[i-5][j] + 1 under default extent 4: distance 5 never
        // stays inside the block.
        let mut b = KernelBuilder::new("far-dep", 2);
        let a = b.array("a", 2);
        b.stmt(
            ArrayRef::new(a, vec![AffineExpr::var(0, 2), AffineExpr::var(1, 2)]),
            Expr::binary(
                OpKind::Add,
                Expr::Read(ArrayRef::new(
                    a,
                    vec![AffineExpr::new(vec![1, 0], -5), AffineExpr::var(1, 2)],
                )),
                Expr::Const(1),
            ),
        );
        let kernel = b.build().unwrap();
        let lints = lint_kernel(&kernel);
        assert!(lints.iter().any(|l| l.code == LintCode::K002), "{lints:?}");
        // Warnings do not fail the clean gate.
        assert!(lints_clean(&kernel));
    }

    #[test]
    fn distance_inside_the_block_is_not_k002() {
        // a[i][j] = a[i-3][j] + 1: distance 3 stays inside the extent-4 block.
        let mut b = KernelBuilder::new("near-dep", 2);
        let a = b.array("a", 2);
        b.stmt(
            ArrayRef::new(a, vec![AffineExpr::var(0, 2), AffineExpr::var(1, 2)]),
            Expr::binary(
                OpKind::Add,
                Expr::Read(ArrayRef::new(
                    a,
                    vec![AffineExpr::new(vec![1, 0], -3), AffineExpr::var(1, 2)],
                )),
                Expr::Const(1),
            ),
        );
        let kernel = b.build().unwrap();
        assert!(lint_kernel(&kernel).iter().all(|l| l.code != LintCode::K002));
    }
}
