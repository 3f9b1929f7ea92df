//! Rustc-style diagnostics: stable codes, severities, span-like loci,
//! terminal and JSON rendering.
//!
//! This module is the single home of the diagnostic vocabulary for the
//! whole workspace: the static analyzer's `A` codes live next to the
//! mapping verifier's `V`/`W` codes and the kernel-IR `K` codes, so every
//! tool reports through one [`DiagnosticSink`] with one exit-code
//! convention (non-zero iff any Error-severity finding).

use std::fmt;

use himap_cgra::{PeId, RNode};
use himap_graph::{EdgeId, NodeId};

/// Severity of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Quality concern; the mapping is still legal.
    Warning,
    /// The mapping is illegal.
    Error,
}

impl Severity {
    /// Lowercase name, as rustc prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes.
///
/// `V` codes judge mappings, `W` codes are mapping-quality lints, `K` codes
/// come from the kernel-IR lint pass in `himap-kernels`, and `A` codes are
/// emitted by the pre-mapping static analyzer in this crate. Codes never
/// change meaning; new checks get new codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// Modulo resource exclusivity: a resource carries more distinct
    /// signals than its capacity, recomputed from the routes themselves.
    V001,
    /// Route connectivity/timing: a route is not a real MRRG path under the
    /// 1-cycle-per-hop model, or steps outside the architecture.
    V002,
    /// Producer→consumer schedule consistency: an operand is not available
    /// at the consuming FU's cycle, or violates memory causality.
    V003,
    /// Register-file capacity or port limits exceeded.
    V004,
    /// Configuration-memory bound: a PE needs more unique instruction words
    /// than its config memory holds.
    V005,
    /// Fault avoidance: a placement or route uses a resource the
    /// architecture's fault map marks dead, severed or disabled.
    V006,
    /// Capability legality: an operation is placed on a PE whose capability
    /// classes do not include the operation's class (e.g. a `mul` on an
    /// ALU-only PE). The FU itself exists in the MRRG — the PE computes —
    /// but not this class of operation.
    V007,
    /// Avoidable detour: a route spends more wire hops than the Manhattan
    /// distance between its endpoints.
    W101,
    /// Long dwell: a route holds resources for more than one modulo window.
    W102,
    /// Mapper bookkeeping disagrees with independently recomputed values.
    W103,
    /// Kernel lint: non-uniform access of a written array without memory
    /// routing.
    K001,
    /// Kernel lint: flow-dependence distance exceeds the block extent.
    K002,
    /// Static analysis: the kernel uses an operation class outside the
    /// fabric's supported repertoire — no PE can ever execute it.
    A001,
    /// Static analysis: a value's fan-out exceeds the fabric's per-period
    /// route-capacity heuristic; routing pressure is likely to dominate.
    A002,
    /// Static analysis: memory loads exist but no live memory bank can
    /// serve them (all banks faulted or their PEs dead).
    A003,
    /// Static analysis: faults annihilate or disconnect the fabric — no
    /// live region can host the kernel at any II.
    A004,
    /// Static analysis: the certified lower bound on distinct instruction
    /// words per PE exceeds the configuration-memory depth.
    A005,
    /// Static analysis: a memory-dependence window is empty — the producer
    /// and anti-dependence deadlines contradict at every II.
    A006,
    /// Static analysis: a dependence recurrence with zero total distance —
    /// the kernel requires a value before it is produced.
    A007,
    /// Static analysis: a loaded value has no consumer (dead input).
    A008,
    /// Static analysis: estimated max-live value count exceeds the live
    /// register-file capacity; spilling pressure is likely.
    A009,
    /// Static analysis: an operation's class has work to place but zero
    /// live capable PEs — no placement can ever be legal on this fabric
    /// (the per-op-class refinement of A001's repertoire check).
    A010,
}

impl Code {
    /// The stable textual code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::V001 => "V001",
            Code::V002 => "V002",
            Code::V003 => "V003",
            Code::V004 => "V004",
            Code::V005 => "V005",
            Code::V006 => "V006",
            Code::V007 => "V007",
            Code::W101 => "W101",
            Code::W102 => "W102",
            Code::W103 => "W103",
            Code::K001 => "K001",
            Code::K002 => "K002",
            Code::A001 => "A001",
            Code::A002 => "A002",
            Code::A003 => "A003",
            Code::A004 => "A004",
            Code::A005 => "A005",
            Code::A006 => "A006",
            Code::A007 => "A007",
            Code::A008 => "A008",
            Code::A009 => "A009",
            Code::A010 => "A010",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Span-like locus of a finding: whichever coordinates apply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Locus {
    /// Processing element.
    pub pe: Option<PeId>,
    /// Absolute cycle.
    pub cycle: Option<i64>,
    /// MRRG resource.
    pub resource: Option<RNode>,
    /// DFG node.
    pub node: Option<NodeId>,
    /// DFG edge.
    pub edge: Option<EdgeId>,
}

impl Locus {
    /// `true` when no coordinate is set.
    pub fn is_empty(&self) -> bool {
        *self == Locus::default()
    }
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            Ok(())
        };
        if let Some(pe) = self.pe {
            sep(f)?;
            write!(f, "pe {pe}")?;
        }
        if let Some(cycle) = self.cycle {
            sep(f)?;
            write!(f, "cycle {cycle}")?;
        }
        if let Some(resource) = self.resource {
            sep(f)?;
            write!(f, "resource {resource:?}")?;
        }
        if let Some(node) = self.node {
            sep(f)?;
            write!(f, "node n{}", node.index())?;
        }
        if let Some(edge) = self.edge {
            sep(f)?;
            write!(f, "edge e{}", edge.index())?;
        }
        Ok(())
    }
}

/// One finding of the verifier or the static analyzer.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// Where in the mapping/kernel the finding is anchored.
    pub locus: Locus,
    /// Secondary notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An Error-severity diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            locus: Locus::default(),
            notes: Vec::new(),
        }
    }

    /// A Warning-severity diagnostic.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, message) }
    }

    /// Anchors the finding at a PE.
    pub fn at_pe(mut self, pe: PeId) -> Self {
        self.locus.pe = Some(pe);
        self
    }

    /// Anchors the finding at an absolute cycle.
    pub fn at_cycle(mut self, cycle: i64) -> Self {
        self.locus.cycle = Some(cycle);
        self
    }

    /// Anchors the finding at an MRRG resource (also sets the PE).
    pub fn at_resource(mut self, resource: RNode) -> Self {
        self.locus.resource = Some(resource);
        self.locus.pe = Some(resource.pe);
        self
    }

    /// Anchors the finding at a DFG node.
    pub fn at_node(mut self, node: NodeId) -> Self {
        self.locus.node = Some(node);
        self
    }

    /// Anchors the finding at a DFG edge.
    pub fn at_edge(mut self, edge: EdgeId) -> Self {
        self.locus.edge = Some(edge);
        self
    }

    /// Attaches a secondary note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style:
    ///
    /// ```text
    /// error[V001]: fu@(1,1)t2 carries 2 distinct signals (capacity 1)
    ///   --> pe (1,1), cycle 2, resource fu@(1,1)t2
    ///   = note: signals n4, n17
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if !self.locus.is_empty() {
            out.push_str(&format!("\n  --> {}", self.locus));
        }
        for note in &self.notes {
            out.push_str(&format!("\n  = note: {note}"));
        }
        out
    }

    /// Renders the diagnostic as one JSON object.
    pub fn render_json(&self) -> String {
        let mut fields = vec![
            format!("\"code\":{}", json_str(self.code.as_str())),
            format!("\"severity\":{}", json_str(self.severity.as_str())),
            format!("\"message\":{}", json_str(&self.message)),
        ];
        if let Some(pe) = self.locus.pe {
            fields.push(format!("\"pe\":[{},{}]", pe.x, pe.y));
        }
        if let Some(cycle) = self.locus.cycle {
            fields.push(format!("\"cycle\":{cycle}"));
        }
        if let Some(resource) = self.locus.resource {
            fields.push(format!("\"resource\":{}", json_str(&format!("{resource:?}"))));
        }
        if let Some(node) = self.locus.node {
            fields.push(format!("\"node\":{}", node.index()));
        }
        if let Some(edge) = self.locus.edge {
            fields.push(format!("\"edge\":{}", edge.index()));
        }
        if !self.notes.is_empty() {
            let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
            fields.push(format!("\"notes\":[{}]", notes.join(",")));
        }
        format!("{{{}}}", fields.join(","))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Minimal JSON string escaping (the build environment has no serde).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects diagnostics during a verification or analysis pass.
#[derive(Clone, Debug, Default)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
}

impl DiagnosticSink {
    /// An empty sink.
    pub fn new() -> Self {
        DiagnosticSink::default()
    }

    /// Records a finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// All findings, in emission order.
    pub fn diags(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// `true` with no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of Warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` if any finding is an Error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` if some finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, in first-emission order.
    pub fn codes(&self) -> Vec<Code> {
        let mut out: Vec<Code> = Vec::new();
        for d in &self.diags {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Merges another sink's findings into this one.
    pub fn extend(&mut self, other: DiagnosticSink) {
        self.diags.extend(other.diags);
    }

    /// Renders all findings for a terminal, followed by a rustc-style
    /// summary line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render());
            out.push_str("\n\n");
        }
        let (e, w) = (self.error_count(), self.warning_count());
        match (e, w) {
            (0, 0) => out.push_str("verification clean: 0 errors, 0 warnings\n"),
            (0, w) => out.push_str(&format!("verification passed with {w} warning(s)\n")),
            (e, w) => {
                out.push_str(&format!("verification failed: {e} error(s), {w} warning(s)\n"));
            }
        }
        out
    }

    /// Renders all findings as a JSON document
    /// `{"errors":N,"warnings":N,"diagnostics":[...]}`.
    pub fn render_json(&self) -> String {
        let diags: Vec<String> = self.diags.iter().map(Diagnostic::render_json).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
            self.error_count(),
            self.warning_count(),
            diags.join(",")
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn rendering_has_code_and_locus() {
        let d = Diagnostic::error(Code::V001, "fu claimed twice")
            .at_resource(RNode::new(PeId::new(1, 1), 2, himap_cgra::RKind::Fu))
            .at_cycle(6)
            .note("signals n4, n17");
        let text = d.render();
        assert!(text.starts_with("error[V001]: fu claimed twice"), "{text}");
        assert!(text.contains("pe (1,1)"), "{text}");
        assert!(text.contains("cycle 6"), "{text}");
        assert!(text.contains("note: signals n4, n17"), "{text}");
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let d = Diagnostic::warning(Code::W101, "detour \"quoted\"\nline");
        let json = d.render_json();
        assert!(json.contains("\"code\":\"W101\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        let mut sink = DiagnosticSink::new();
        sink.push(d);
        sink.push(Diagnostic::error(Code::V002, "broken hop"));
        let doc = sink.render_json();
        assert!(doc.starts_with("{\"errors\":1,\"warnings\":1,"), "{doc}");
    }

    #[test]
    fn sink_counts_and_summary() {
        let mut sink = DiagnosticSink::new();
        assert!(sink.is_empty());
        assert!(!sink.has_errors());
        assert!(sink.render_pretty().contains("verification clean"));
        sink.push(Diagnostic::warning(Code::W102, "long dwell"));
        assert!(!sink.has_errors());
        assert!(sink.render_pretty().contains("passed with 1 warning"));
        sink.push(Diagnostic::error(Code::V003, "late operand"));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.error_count(), 1);
        assert_eq!(sink.warning_count(), 1);
        assert!(sink.has_code(Code::V003));
        assert!(!sink.has_code(Code::V001));
        assert!(sink.render_pretty().contains("verification failed: 1 error(s), 1 warning(s)"));
    }

    #[test]
    fn analyzer_codes_are_stable() {
        for (code, text) in [(Code::A001, "A001"), (Code::A005, "A005"), (Code::A009, "A009")] {
            assert_eq!(code.as_str(), text);
        }
        let mut sink = DiagnosticSink::new();
        sink.push(Diagnostic::error(Code::A003, "no live memory bank"));
        sink.push(Diagnostic::error(Code::A003, "still no bank"));
        sink.push(Diagnostic::warning(Code::A008, "dead input"));
        assert_eq!(sink.codes(), vec![Code::A003, Code::A008]);
    }
}
