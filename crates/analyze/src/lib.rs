//! `himap-analyze` — pre-mapping static analysis.
//!
//! Everything the pipeline can know about a mapping request *before*
//! building an MRRG or touching a placer: certified lower bounds on the
//! block initiation interval and feasibility rules that reject impossible
//! requests in microseconds. Two entry points share one vocabulary:
//!
//! * [`analyze_kernel`] — kernel IR + [`CgraSpec`] only. This is the
//!   admission-control path `HiMap::map` runs on every request; it never
//!   unrolls a block.
//! * [`analyze_dfg`] — an unrolled block [`Dfg`] + [`CgraSpec`]. This is
//!   the bound the exact backend's CEGAR loop starts from, and the one the
//!   oracle sweep compares against SAT certificates.
//!
//! Findings are emitted through the shared [`DiagnosticSink`] under stable
//! `A` codes (this crate also hosts the `V`/`W`/`K` code vocabulary used
//! by `himap-verify`):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | A001 | error    | op class outside the fabric's repertoire |
//! | A002 | warning  | fan-out beyond the per-period route-capacity heuristic |
//! | A003 | error    | memory loads exist but no live bank can serve them |
//! | A004 | error    | faults annihilate/disconnect the fabric beyond repair |
//! | A005 | error    | distinct-instruction lower bound exceeds config memory |
//! | A006 | error    | a memory-dependence window is empty at every II |
//! | A007 | error    | zero-distance dependence recurrence |
//! | A008 | warning  | loaded value with no consumer |
//! | A009 | warning  | estimated max-live exceeds live RF capacity |
//! | A010 | error    | an op-class has work but zero live capable PEs |
//!
//! Soundness contract: every *error* is a proof that no legal mapping
//! exists on this fabric, and [`StaticBounds::mii`] never exceeds the II
//! of any legal mapping of the same request (the fault-injection sweep and
//! the exact-oracle gate check both properties continuously).
//!
//! # Example
//!
//! ```
//! use himap_analyze::{analyze_kernel, AnalyzeOptions};
//! use himap_cgra::CgraSpec;
//! use himap_kernels::suite;
//!
//! let analysis = analyze_kernel(&suite::gemm(), &CgraSpec::square(4), &AnalyzeOptions::default());
//! assert!(analysis.is_feasible());
//! assert!(analysis.bounds.mii() >= 1);
//! ```

#![forbid(unsafe_code)]

mod bounds;
mod dataflow;
mod diag;
mod fabric;

pub use bounds::StaticBounds;
pub use diag::{Code, Diagnostic, DiagnosticSink, Locus, Severity};
pub use fabric::{survey_fabric, FabricComponent, FabricSurvey};

use himap_cgra::{CgraSpec, OpClass};
use himap_dfg::Dfg;
use himap_kernels::{Expr, Kernel, Lint, LintSeverity, OpKind};

use crate::bounds::{expr_depth, rec_mii, recurrences, statement_dep_graph, Recurrence};
use crate::dataflow::dfg_facts;
use crate::fabric::FabricSurvey as Survey;

/// Options of the static analysis passes.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// The PE ALU's op repertoire (A001). Defaults to every [`OpKind`].
    pub supported_ops: Vec<OpKind>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            supported_ops: vec![OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Min, OpKind::Max],
        }
    }
}

/// Result of a static analysis pass: bounds plus findings.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Certified and advisory lower bounds.
    pub bounds: StaticBounds,
    /// Feasibility findings under `A` codes.
    pub diagnostics: DiagnosticSink,
}

impl Analysis {
    /// `true` when no Error-severity finding was emitted — the request may
    /// still fail to map, but it is not provably impossible.
    pub fn is_feasible(&self) -> bool {
        !self.diagnostics.has_errors()
    }

    /// Renders bounds and findings as one JSON document.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"bounds\":{},\"report\":{}}}",
            self.bounds.render_json(),
            self.diagnostics.render_json()
        )
    }
}

/// Adapts one kernel lint into the shared diagnostic representation.
impl From<&Lint> for Diagnostic {
    fn from(lint: &Lint) -> Self {
        let code = match lint.code {
            himap_kernels::LintCode::K001 => Code::K001,
            himap_kernels::LintCode::K002 => Code::K002,
        };
        match lint.severity {
            LintSeverity::Error => Diagnostic::error(code, lint.message.clone()),
            LintSeverity::Warning => Diagnostic::warning(code, lint.message.clone()),
        }
    }
}

/// Runs the kernel-IR lint pass (K001–K002) and returns the findings as
/// diagnostics, so the K codes and the A codes share one sink and one
/// exit-code convention. Both `himap-analyze` and `himap-verify` call it.
pub fn lint_diagnostics(kernel: &Kernel) -> DiagnosticSink {
    let mut sink = DiagnosticSink::new();
    for lint in himap_kernels::lint_kernel(kernel) {
        sink.push(Diagnostic::from(&lint));
    }
    sink
}

/// Statically analyzes a kernel against a (possibly faulted) fabric
/// without unrolling any block — the admission-control path.
///
/// The bounds count one iteration's work (sound for any block, since a
/// block executes at least one iteration); the feasibility rules are
/// block-independent proofs.
pub fn analyze_kernel(kernel: &Kernel, spec: &CgraSpec, options: &AnalyzeOptions) -> Analysis {
    let survey = survey_fabric(spec);
    let mut sink = DiagnosticSink::new();

    check_op_repertoire(kernel, options, &mut sink);

    let ops = kernel.compute_ops_per_iteration();
    let reads: usize = kernel.stmts().iter().map(|s| s.value.reads().len()).sum();
    let mem_routed = kernel.mem_routed_reads().count();
    let (alu_ops, mul_ops) = kernel_class_ops(kernel);

    check_fabric(&survey, reads, &mut sink);
    check_op_classes(alu_ops, mul_ops, &survey, &mut sink);
    check_config_capacity(kernel, spec, &survey, &mut sink);

    let recs = {
        let edges = statement_dep_graph(kernel);
        let recs = recurrences(kernel.stmts().len(), &edges);
        check_zero_distance(&recs, &mut sink);
        recs
    };

    // Ops that transitively consume a read must live in a surviving region
    // that also holds a live bank (their operand chain starts at a load).
    let eligible_pes: usize = survey.components.iter().filter(|c| c.banks > 0).map(|c| c.pes).sum();
    let ops_reading: usize = kernel.stmts().iter().map(|s| ops_consuming_reads(&s.value)).sum();
    let component_mii =
        if ops_reading > 0 && eligible_pes > 0 { ops_reading.div_ceil(eligible_pes) } else { 0 };

    let bounds = StaticBounds {
        res_mii_fu: pigeonhole(ops, survey.live_fu_pes),
        res_mii_mem: pigeonhole(mem_routed, survey.live_banks * spec.mem_ports),
        component_mii,
        rec_mii: rec_mii(&recs),
        critical_path: kernel.stmts().iter().map(|s| expr_depth(&s.value)).max().unwrap_or(0),
        ops,
        mem_inputs: mem_routed,
        live_pes: survey.live_pes,
        live_banks: survey.live_banks,
        res_mii_alu: pigeonhole(alu_ops, survey.live_alu_pes),
        res_mii_mul: pigeonhole(mul_ops, survey.live_mul_pes),
        alu_ops,
        mul_ops,
        live_alu_pes: survey.live_alu_pes,
        live_mul_pes: survey.live_mul_pes,
    };
    Analysis { bounds, diagnostics: sink }
}

/// Statically analyzes an unrolled block DFG against a (possibly faulted)
/// fabric — the bound the exact backend starts its CEGAR loop from.
///
/// All certified bounds here constrain the block-modulo period
/// (`MappingStats::iib`, `Certificate::ii`): block work against per-period
/// fabric capacity.
pub fn analyze_dfg(dfg: &Dfg, spec: &CgraSpec, options: &AnalyzeOptions) -> Analysis {
    let survey = survey_fabric(spec);
    let mut sink = DiagnosticSink::new();

    check_op_repertoire(dfg.kernel(), options, &mut sink);

    let facts = dfg_facts(dfg);
    let (alu_ops, mul_ops) = dfg_class_ops(dfg);
    check_fabric(&survey, facts.mem_inputs, &mut sink);
    check_op_classes(alu_ops, mul_ops, &survey, &mut sink);
    check_config_capacity(dfg.kernel(), spec, &survey, &mut sink);

    let recs = {
        let edges = statement_dep_graph(dfg.kernel());
        let recs = recurrences(dfg.kernel().stmts().len(), &edges);
        check_zero_distance(&recs, &mut sink);
        recs
    };

    for &(input, producer, writer) in &facts.empty_windows {
        sink.push(
            Diagnostic::error(
                Code::A006,
                "memory-dependence window is empty: the load must come at least 2 \
                 cycles after its producer yet at most 1 cycle after the \
                 overwriting store, and the store can never run later than the \
                 producer",
            )
            .at_node(input)
            .note(format!(
                "producer n{}, overwriting store n{}",
                producer.index(),
                writer.index()
            )),
        );
    }
    for &input in facts.dead_inputs.iter().take(8) {
        sink.push(Diagnostic::warning(Code::A008, "loaded value has no consumer").at_node(input));
    }

    let component_mii = region_bound(&survey, &facts, spec.mem_ports, &mut sink);

    let bounds = StaticBounds {
        res_mii_fu: pigeonhole(facts.ops, survey.live_fu_pes),
        res_mii_mem: pigeonhole(facts.mem_inputs, survey.live_banks * spec.mem_ports),
        component_mii,
        rec_mii: rec_mii(&recs),
        critical_path: facts.critical_path,
        ops: facts.ops,
        mem_inputs: facts.mem_inputs,
        live_pes: survey.live_pes,
        live_banks: survey.live_banks,
        res_mii_alu: pigeonhole(alu_ops, survey.live_alu_pes),
        res_mii_mul: pigeonhole(mul_ops, survey.live_mul_pes),
        alu_ops,
        mul_ops,
        live_alu_pes: survey.live_alu_pes,
        live_mul_pes: survey.live_mul_pes,
    };

    // Advisory pressure heuristics, emitted against the certified bound.
    let mii = bounds.mii();
    if facts.max_fanout > 4 * mii {
        let mut diag = Diagnostic::warning(
            Code::A002,
            format!(
                "fan-out {} exceeds the route-capacity heuristic (4 wires x II {})",
                facts.max_fanout, mii
            ),
        );
        if let Some(node) = facts.max_fanout_node {
            diag = diag.at_node(node);
        }
        sink.push(diag);
    }
    if facts.max_live > survey.live_rf_slots && survey.live_pes > 0 {
        sink.push(Diagnostic::warning(
            Code::A009,
            format!(
                "estimated max-live {} exceeds the {} surviving register slots; \
                 expect spill pressure",
                facts.max_live, survey.live_rf_slots
            ),
        ));
    }

    Analysis { bounds, diagnostics: sink }
}

/// Per-iteration `(alu, mul)` op counts of a kernel body.
fn kernel_class_ops(kernel: &Kernel) -> (usize, usize) {
    let (mut alu, mut mul) = (0usize, 0usize);
    for stmt in kernel.stmts() {
        collect_ops(&stmt.value, &mut |op| match OpClass::of(op) {
            OpClass::Mul => mul += 1,
            _ => alu += 1,
        });
    }
    (alu, mul)
}

/// Per-block `(alu, mul)` op counts of an unrolled DFG.
fn dfg_class_ops(dfg: &Dfg) -> (usize, usize) {
    let (mut alu, mut mul) = (0usize, 0usize);
    for (_, w) in dfg.graph().nodes() {
        if let himap_dfg::NodeKind::Op { kind, .. } = w.kind {
            match OpClass::of(kind) {
                OpClass::Mul => mul += 1,
                _ => alu += 1,
            }
        }
    }
    (alu, mul)
}

/// A010: every op-class with work needs at least one live capable PE.
///
/// This is the per-op-class refinement of A001 — the fabric's *repertoire*
/// may include the class, yet capability restrictions can leave no live PE
/// providing it. Memory capacity is A003's domain and is not re-checked.
fn check_op_classes(alu_ops: usize, mul_ops: usize, survey: &Survey, sink: &mut DiagnosticSink) {
    if survey.live_pes == 0 {
        return; // A004 already proves infeasibility.
    }
    for (ops, live, class) in
        [(alu_ops, survey.live_alu_pes, OpClass::Alu), (mul_ops, survey.live_mul_pes, OpClass::Mul)]
    {
        if ops > 0 && live == 0 {
            sink.push(
                Diagnostic::error(
                    Code::A010,
                    format!(
                        "{ops} `{class}` op(s) have no capable PE: every live PE's \
                         capability classes exclude `{class}`"
                    ),
                )
                .note(format!("{} live PEs, 0 of them {class}-capable", survey.live_pes)),
            );
        }
    }
}

/// `⌈work / capacity⌉`, 0 when either side is empty (the corresponding
/// feasibility rule reports empty capacity as an error instead).
fn pigeonhole(work: usize, capacity: usize) -> usize {
    if work == 0 || capacity == 0 {
        0
    } else {
        work.div_ceil(capacity)
    }
}

/// A001: every op of every statement must be in the repertoire.
fn check_op_repertoire(kernel: &Kernel, options: &AnalyzeOptions, sink: &mut DiagnosticSink) {
    let mut unsupported: Vec<OpKind> = Vec::new();
    for stmt in kernel.stmts() {
        collect_ops(&stmt.value, &mut |op| {
            if !options.supported_ops.contains(&op) && !unsupported.contains(&op) {
                unsupported.push(op);
            }
        });
    }
    for op in unsupported {
        sink.push(Diagnostic::error(
            Code::A001,
            format!("kernel uses `{}`, which no PE of this fabric can execute", op.mnemonic()),
        ));
    }
}

/// A003/A004: the fabric must retain compute, and a bank when anything
/// must load.
fn check_fabric(survey: &Survey, loads: usize, sink: &mut DiagnosticSink) {
    if survey.live_pes == 0 {
        sink.push(
            Diagnostic::error(Code::A004, "every PE of the fabric is dead")
                .note("no placement exists at any II"),
        );
        return;
    }
    if loads > 0 && survey.live_banks == 0 {
        sink.push(
            Diagnostic::error(
                Code::A003,
                format!(
                    "{loads} load(s) require a memory bank but every bank is \
                     faulted ({} live PEs, 0 live banks)",
                    survey.live_pes
                ),
            )
            .note("every block boundary value enters through a Mem resource"),
        );
    }
}

/// A005: hostable distinct instruction words are capped by
/// `live PEs × config-memory depth`; the kernel needs at least one word
/// per distinct op kind it uses.
fn check_config_capacity(
    kernel: &Kernel,
    spec: &CgraSpec,
    survey: &Survey,
    sink: &mut DiagnosticSink,
) {
    if survey.live_pes == 0 {
        return; // A004 already proves infeasibility.
    }
    let mut kinds: Vec<OpKind> = Vec::new();
    for stmt in kernel.stmts() {
        collect_ops(&stmt.value, &mut |op| {
            if !kinds.contains(&op) {
                kinds.push(op);
            }
        });
    }
    let needed = kinds.len().div_ceil(survey.live_pes);
    if needed > spec.config_mem_depth {
        sink.push(Diagnostic::error(
            Code::A005,
            format!(
                "{} distinct op kinds over {} live PEs need at least {} config \
                 words per PE, but the config memory holds {}",
                kinds.len(),
                survey.live_pes,
                needed,
                spec.config_mem_depth
            ),
        ));
    }
}

/// A007: a recurrence with zero total distance needs its own value before
/// producing it.
fn check_zero_distance(recs: &[Recurrence], sink: &mut DiagnosticSink) {
    for rec in recs.iter().filter(|r| r.dist == 0) {
        sink.push(Diagnostic::error(
            Code::A007,
            format!(
                "statements {:?} form a dependence recurrence with zero total \
                 distance; the kernel requires a value before it is produced",
                rec.stmts
            ),
        ));
    }
}

/// The connectivity-aware region bound (and its A004 failure mode).
///
/// When the DFG is weakly connected, all of its work must land in a single
/// surviving region; the bound is the best any eligible region can offer.
/// When it is not, ops near inputs must still share the bank-equipped
/// regions.
fn region_bound(
    survey: &Survey,
    facts: &dataflow::DfgFacts,
    mem_ports: usize,
    sink: &mut DiagnosticSink,
) -> usize {
    if survey.live_pes == 0 || facts.ops == 0 {
        return 0;
    }
    let eligible: Vec<&FabricComponent> =
        survey.components.iter().filter(|c| facts.mem_inputs == 0 || c.banks > 0).collect();
    if eligible.is_empty() {
        if facts.mem_inputs > 0 && survey.live_banks > 0 {
            // Banks exist but no single region holds one — unreachable with
            // per-PE banks, kept for spec evolution.
            sink.push(Diagnostic::error(
                Code::A004,
                "faults disconnect every bank-equipped region from the fabric",
            ));
        }
        return 0;
    }
    if facts.connected {
        // One region must host the whole block.
        eligible
            .iter()
            .map(|c| {
                let fu = facts.ops.div_ceil(c.pes);
                let mem = if facts.mem_inputs > 0 {
                    facts.mem_inputs.div_ceil(c.banks * mem_ports)
                } else {
                    0
                };
                fu.max(mem)
            })
            .min()
            .unwrap_or(0)
    } else {
        // Disconnected DFG: only ops whose component consumes an input are
        // pinned to bank-equipped regions.
        let eligible_pes: usize = eligible.iter().map(|c| c.pes).sum();
        pigeonhole(facts.ops_near_inputs, eligible_pes)
    }
}

fn collect_ops(expr: &Expr, visit: &mut impl FnMut(OpKind)) {
    if let Expr::Binary(op, l, r) = expr {
        visit(*op);
        collect_ops(l, visit);
        collect_ops(r, visit);
    }
}

/// Ops of an expression whose subtree contains at least one array read —
/// their operand chain provably starts at a memory load.
fn ops_consuming_reads(expr: &Expr) -> usize {
    fn walk(expr: &Expr, count: &mut usize) -> bool {
        match expr {
            Expr::Read(_) => true,
            Expr::Const(_) => false,
            Expr::Binary(_, l, r) => {
                let reads = walk(l, count) | walk(r, count);
                if reads {
                    *count += 1;
                }
                reads
            }
        }
    }
    let mut count = 0;
    walk(expr, &mut count);
    count
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use himap_cgra::{CapabilityMap, PeId};
    use himap_kernels::suite;

    fn all_mems_faulted(size: usize) -> CgraSpec {
        let mut faults = CapabilityMap::new();
        for x in 0..size {
            for y in 0..size {
                faults.disable_mem(PeId::new(x, y));
            }
        }
        CgraSpec::square(size).with_faults(faults)
    }

    fn all_pes_dead(size: usize) -> CgraSpec {
        let mut faults = CapabilityMap::new();
        for x in 0..size {
            for y in 0..size {
                faults.kill_pe(PeId::new(x, y));
            }
        }
        CgraSpec::square(size).with_faults(faults)
    }

    #[test]
    fn suite_kernels_are_feasible_on_a_pristine_mesh() {
        let spec = CgraSpec::square(4);
        for kernel in suite::all() {
            let analysis = analyze_kernel(&kernel, &spec, &AnalyzeOptions::default());
            assert!(
                analysis.is_feasible(),
                "{}: {}",
                kernel.name(),
                analysis.diagnostics.render_pretty()
            );
            assert!(analysis.bounds.mii() >= 1);
            assert!(analysis.bounds.live_pes == 16);
        }
    }

    #[test]
    fn dfg_bound_dominates_kernel_bound() {
        let spec = CgraSpec::square(4);
        for kernel in suite::all() {
            let block = vec![2; kernel.dims()];
            let dfg = Dfg::build(&kernel, &block).unwrap();
            let k = analyze_kernel(&kernel, &spec, &AnalyzeOptions::default());
            let d = analyze_dfg(&dfg, &spec, &AnalyzeOptions::default());
            assert!(
                k.bounds.mii() <= d.bounds.mii(),
                "{}: kernel {} > dfg {}",
                kernel.name(),
                k.bounds.mii(),
                d.bounds.mii()
            );
            assert!(d.is_feasible(), "{}", d.diagnostics.render_pretty());
        }
    }

    #[test]
    fn all_banks_faulted_is_a003() {
        let spec = all_mems_faulted(4);
        let analysis = analyze_kernel(&suite::gemm(), &spec, &AnalyzeOptions::default());
        assert!(!analysis.is_feasible());
        assert!(analysis.diagnostics.has_code(Code::A003));

        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let analysis = analyze_dfg(&dfg, &spec, &AnalyzeOptions::default());
        assert!(analysis.diagnostics.has_code(Code::A003));
    }

    #[test]
    fn dead_fabric_is_a004() {
        let analysis = analyze_kernel(&suite::gemm(), &all_pes_dead(4), &AnalyzeOptions::default());
        assert!(!analysis.is_feasible());
        assert!(analysis.diagnostics.has_code(Code::A004));
    }

    #[test]
    fn zero_depth_config_memory_is_a005() {
        let mut spec = CgraSpec::square(4);
        spec.config_mem_depth = 0;
        let analysis = analyze_kernel(&suite::gemm(), &spec, &AnalyzeOptions::default());
        assert!(!analysis.is_feasible());
        assert!(analysis.diagnostics.has_code(Code::A005));
    }

    #[test]
    fn restricted_repertoire_is_a001() {
        let options = AnalyzeOptions { supported_ops: vec![OpKind::Add, OpKind::Sub] };
        let analysis = analyze_kernel(&suite::gemm(), &CgraSpec::square(4), &options);
        assert!(!analysis.is_feasible());
        assert!(analysis.diagnostics.has_code(Code::A001));
    }

    #[test]
    fn faults_tighten_the_bound() {
        let kernel = suite::gemm();
        let pristine = analyze_kernel(&kernel, &CgraSpec::square(4), &AnalyzeOptions::default());
        let mut faults = CapabilityMap::new();
        for x in 0..4 {
            for y in 0..4 {
                if (x, y) != (0, 0) {
                    faults.kill_pe(PeId::new(x, y));
                }
            }
        }
        let one_pe = CgraSpec::square(4).with_faults(faults);
        let squeezed = analyze_kernel(&kernel, &one_pe, &AnalyzeOptions::default());
        assert!(squeezed.is_feasible(), "{}", squeezed.diagnostics.render_pretty());
        assert!(squeezed.bounds.mii() > pristine.bounds.mii());
        assert_eq!(squeezed.bounds.live_pes, 1);
        assert_eq!(squeezed.bounds.res_mii_fu, kernel.compute_ops_per_iteration());
    }

    #[test]
    fn split_fabric_region_bound_beats_global_pigeonhole() {
        // Kill the middle column of an 8x8: regions of 8 and 48 live PEs.
        // A connected DFG must fit one region, so the bound is driven by
        // the best region, not the 56-PE global pool.
        let mut faults = CapabilityMap::new();
        for y in 0..8 {
            faults.kill_pe(PeId::new(1, y));
        }
        let spec = CgraSpec::square(8).with_faults(faults);
        let dfg = Dfg::build(&suite::gemm(), &[4, 4, 4]).unwrap();
        let analysis = analyze_dfg(&dfg, &spec, &AnalyzeOptions::default());
        assert!(analysis.is_feasible(), "{}", analysis.diagnostics.render_pretty());
        let best_region = 48usize;
        assert!(analysis.bounds.component_mii >= dfg.op_count().div_ceil(best_region));
        assert!(analysis.bounds.mii() >= analysis.bounds.component_mii);
    }

    #[test]
    fn no_mul_capable_pe_is_a010() {
        use himap_cgra::CapabilityMap;
        // Strip the Mul class from every PE: gemm's multiplies have nowhere
        // to go, but the fabric's repertoire still contains `mul` (A001
        // stays quiet — this is A010's per-class refinement).
        let mut caps = CapabilityMap::new();
        for x in 0..4 {
            for y in 0..4 {
                caps.restrict(PeId::new(x, y), &[OpClass::Alu, OpClass::Mem]);
            }
        }
        let spec = CgraSpec::square(4).with_faults(caps);
        let analysis = analyze_kernel(&suite::gemm(), &spec, &AnalyzeOptions::default());
        assert!(!analysis.is_feasible());
        assert!(analysis.diagnostics.has_code(Code::A010));
        assert!(!analysis.diagnostics.has_code(Code::A001));

        // The DFG path agrees.
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let analysis = analyze_dfg(&dfg, &spec, &AnalyzeOptions::default());
        assert!(analysis.diagnostics.has_code(Code::A010));

        // A mul-free kernel stays feasible on the same fabric.
        let analysis = analyze_kernel(&suite::stencil2d(), &spec, &AnalyzeOptions::default());
        assert!(analysis.is_feasible(), "{}", analysis.diagnostics.render_pretty());
    }

    #[test]
    fn corner_multipliers_tighten_the_mul_pigeonhole() {
        use himap_cgra::CapabilityMap;
        let kernel = suite::gemm();
        let pristine = analyze_kernel(&kernel, &CgraSpec::square(4), &AnalyzeOptions::default());
        let het = CgraSpec::square(4).with_faults(CapabilityMap::corner_multipliers(4, 4));
        let squeezed = analyze_kernel(&kernel, &het, &AnalyzeOptions::default());
        assert!(squeezed.is_feasible(), "{}", squeezed.diagnostics.render_pretty());
        assert_eq!(squeezed.bounds.live_mul_pes, 4);
        assert_eq!(squeezed.bounds.mul_ops, pristine.bounds.mul_ops);
        assert!(squeezed.bounds.res_mii_mul >= pristine.bounds.res_mii_mul);
        assert_eq!(
            squeezed.bounds.res_mii_mul,
            squeezed.bounds.mul_ops.div_ceil(4),
            "{}",
            squeezed.bounds.summary()
        );
        // Per-class fields surface in both renderings, after the pinned
        // prefixes.
        assert!(squeezed.bounds.summary().starts_with("mii >= "));
        let json = squeezed.bounds.render_json();
        assert!(json.starts_with("{\"mii\":"), "{json}");
        assert!(json.contains("\"res_mii_mul\":"), "{json}");
    }

    #[test]
    fn homogeneous_per_class_bounds_never_exceed_the_fu_bound() {
        let spec = CgraSpec::square(4);
        for kernel in suite::all() {
            let b = analyze_kernel(&kernel, &spec, &AnalyzeOptions::default()).bounds;
            assert_eq!(b.alu_ops + b.mul_ops, b.ops, "{}", kernel.name());
            assert!(b.res_mii_alu <= b.res_mii_fu, "{}", kernel.name());
            assert!(b.res_mii_mul <= b.res_mii_fu, "{}", kernel.name());
        }
    }

    #[test]
    fn kernel_json_rendering_is_structured() {
        let analysis =
            analyze_kernel(&suite::atax(), &CgraSpec::square(4), &AnalyzeOptions::default());
        let json = analysis.render_json();
        assert!(json.starts_with("{\"bounds\":{\"mii\":"), "{json}");
        assert!(json.contains("\"report\":{\"errors\":0"), "{json}");
    }

    #[test]
    fn lint_diagnostics_share_the_sink() {
        let sink = lint_diagnostics(&suite::gemm());
        assert!(!sink.has_errors(), "{}", sink.render_pretty());
        // The transposed read of the written array is K001, an error.
        let transposed = himap_kernels::parse_kernel(
            "kernel transpose_acc(i, j) { c[i][j] = c[i][j] + c[j][i]; }",
        )
        .expect("the kernel parses");
        let sink = lint_diagnostics(&transposed);
        assert!(sink.has_errors());
        assert!(sink.has_code(Code::K001));
    }
}
