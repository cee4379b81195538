//! Static analysis of policies: diagnostics, dataflow lints, and the entry
//! point shared by the deployment pipeline and the `superfe check` command.
//!
//! Analysis sits between [`validate`](crate::validate) and
//! [`compile`](crate::compile()). Where validation answers "can this policy
//! compile at all?" with a single hard error, analysis produces a full
//! [`AnalysisReport`]: every finding, each tagged with a stable code, a
//! severity, and the offending operator where one exists.
//!
//! Code namespaces:
//!
//! - `SF01xx` — structural well-formedness ([`structural`]). These mirror the
//!   validation rules; every `SF01xx` finding is an [`Severity::Error`].
//! - `SF02xx` — dataflow lints ([`dataflow`]): dead maps, shadowed
//!   redefinitions, uncollected reduces, unsatisfiable filters.
//! - `SF03xx` — switch resource feasibility (emitted by
//!   `superfe-switch::feasibility` against the Tofino budget model).
//! - `SF04xx` — SmartNIC memory feasibility (emitted by
//!   `superfe-nic::feasibility` against the NFP placement model).
//! - `SF05xx` — value ranges and overflow proofs ([`values`]): abstract
//!   interpretation over the typed IR, proving reducer accumulators fit the
//!   32-bit sALU and Q16 fixed-point widths at the configured batch size.
//! - `SF06xx` — the static cost model ([`cost`]): per-packet op and
//!   state-touch estimates, note-severity when far outside the envelope.
//! - `SF07xx` / `SF08xx` — the sharing lattice ([`share`]): one canonical
//!   stage-prefix form and one value certificate per tenant pair. Agreement
//!   up to the switch boundary lets tenants share one switch partition with
//!   per-tenant NIC tails (`SF08xx`); agreement at full depth is plan
//!   fusion (`SF07xx`).
//! - `SF09xx` — quantized-inference certification ([`quant`]): layers on the
//!   SF05xx interval facts to derive per-feature output hulls, lowers a
//!   frozen detector to fixed point, and certifies a worst-case
//!   float-vs-quantized score error bound against the alert threshold.
//!
//! The hardware passes live downstream (the switch and NIC crates depend on
//! this one), sharing [`Diagnostic`] so one report renders all layers.

pub mod codes;
pub mod cost;
pub mod dataflow;
pub mod json;
pub mod quant;
pub mod share;
pub mod structural;
pub mod values;

use std::fmt;

use crate::ast::Policy;
use json::Json;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; expected behavior worth knowing about.
    Note,
    /// Suspicious but deployable; the policy wastes resources or likely does
    /// not mean what it says.
    Warning,
    /// The policy cannot be deployed (malformed, or exceeds the hardware).
    Error,
}

impl Severity {
    /// Lowercase label used in rendered output (`error`, `warning`, `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analysis finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable code (`SF0101`, `SF0203`, ...); see [`codes`].
    pub code: &'static str,
    /// Index of the offending operator in [`Policy::ops`], when the finding
    /// anchors to one (resource findings describe the whole program).
    pub op_index: Option<usize>,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            op_index: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// A note-severity finding.
    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message)
        }
    }

    /// Anchors the finding to an operator index.
    pub fn at_op(mut self, index: usize) -> Self {
        self.op_index = Some(index);
        self
    }

    /// Attaches a remediation hint.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// The diagnostic as one JSON object (see [`AnalysisReport::to_json`]
    /// for the schema).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("severity", Json::str(self.severity.label())),
            ("code", Json::str(self.code)),
        ];
        if let Some(i) = self.op_index {
            members.push(("op", Json::num(i)));
        }
        members.push(("message", Json::str(&self.message)));
        if let Some(s) = &self.suggestion {
            members.push(("suggestion", Json::str(s)));
        }
        Json::Obj(members)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if let Some(i) = self.op_index {
            write!(f, "\n  --> operator {i}")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

/// The collected findings of an analysis run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Adds many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// All findings, in emission order (policy order, then hardware passes).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings of one severity.
    pub fn of_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.of_severity(Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.of_severity(Severity::Warning).count()
    }

    /// Number of note-severity findings.
    pub fn note_count(&self) -> usize {
        self.of_severity(Severity::Note).count()
    }

    /// Whether any finding blocks deployment.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is lint-clean: no errors and no warnings (notes
    /// are allowed — they describe expected behavior).
    pub fn is_lint_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }

    /// Whether a finding with the given code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the whole report, most severe findings first, ending with a
    /// one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} error(s), {} warning(s), {} note(s)\n",
            self.error_count(),
            self.warning_count(),
            self.note_count()
        ));
        out
    }

    /// The report as a JSON object for machine consumers (CI), most severe
    /// findings first. The schema is stable:
    /// `{"errors": n, "warnings": n, "notes": n, "diagnostics": [...]}` with
    /// each diagnostic carrying `severity`, `code`, `message`, and optional
    /// `op` / `suggestion`.
    pub fn to_json(&self) -> Json {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        Json::Obj(vec![
            ("errors", Json::num(self.error_count())),
            ("warnings", Json::num(self.warning_count())),
            ("notes", Json::num(self.note_count())),
            (
                "diagnostics",
                Json::Arr(sorted.iter().map(|d| d.to_json()).collect()),
            ),
        ])
    }
}

/// Runs the policy-level passes with explicit deployment parameters for the
/// value analysis: structural well-formedness (`SF01xx`), then — only when
/// the policy is structurally sound — the dataflow lints (`SF02xx`), the
/// value-range/overflow proofs (`SF05xx`), and the cost model (`SF06xx`).
///
/// Hardware feasibility (`SF03xx`/`SF04xx`) needs the compiled program and
/// the hardware models; `superfe-core` combines all passes.
pub fn analyze_policy_with(policy: &Policy, cfg: &values::ValueConfig) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    report.extend(structural::check(policy));
    if !report.has_errors() {
        report.extend(dataflow::check(policy));
        report.extend(values::check(policy, cfg));
        report.extend(cost::check(policy));
    }
    report
}

/// [`analyze_policy_with`] at the default deployment parameters.
pub fn analyze_policy(policy: &Policy) -> AnalysisReport {
    analyze_policy_with(policy, &values::ValueConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::pktstream;
    use crate::ReduceFn;
    use superfe_net::Granularity;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn diagnostic_renders_all_parts() {
        let d = Diagnostic::warning("SF0201", "map 'x' is never read")
            .at_op(3)
            .with_suggestion("remove the map");
        let s = d.to_string();
        assert!(s.contains("warning[SF0201]"));
        assert!(s.contains("--> operator 3"));
        assert!(s.contains("help: remove the map"));
    }

    #[test]
    fn report_counts_and_lint_clean() {
        let mut r = AnalysisReport::new();
        assert!(r.is_lint_clean());
        r.push(Diagnostic::note("SF0403", "spill"));
        assert!(r.is_lint_clean(), "notes do not break lint-cleanliness");
        r.push(Diagnostic::warning("SF0201", "dead map"));
        assert!(!r.is_lint_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::error("SF0303", "SRAM exceeded"));
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.note_count(), 1);
        assert!(r.has_code("SF0201"));
        assert!(!r.has_code("SF0999"));
    }

    #[test]
    fn render_sorts_errors_first() {
        let mut r = AnalysisReport::new();
        r.push(Diagnostic::note("SF0403", "a note"));
        r.push(Diagnostic::error("SF0301", "an error"));
        let text = r.render();
        let err_pos = text.find("error[SF0301]").unwrap();
        let note_pos = text.find("note[SF0403]").unwrap();
        assert!(err_pos < note_pos);
        assert!(text.contains("check: 1 error(s), 0 warning(s), 1 note(s)"));
    }

    #[test]
    fn analyze_policy_runs_both_passes() {
        // Structurally sound, but the 'dead' map is never read.
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("dead", "size", crate::MapFn::FDirection)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let r = analyze_policy(&p);
        assert!(!r.has_errors());
        assert!(r.has_code(codes::DEAD_MAP));
    }

    #[test]
    fn analyze_policy_skips_dataflow_on_structural_errors() {
        let r = analyze_policy(&Policy::new());
        assert!(r.has_errors());
        assert!(r.diagnostics().iter().all(|d| d.code.starts_with("SF01")));
    }
}
