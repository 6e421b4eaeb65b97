//! Structured diagnostics emitted by the analyzer passes.
//!
//! A [`Diagnostic`] pins one finding to an instruction (by PC), names the
//! pass that produced it, and carries a severity so callers can gate on
//! "no errors" (`latency lint`'s exit code) while still surfacing advisory
//! information. [`Report`] renders a kernel's findings as either a human
//! listing or a line-oriented JSON document (through the workspace's own
//! `gpu_types::json::Writer`: it is hermetic and carries no serialization
//! dependency).

use std::fmt;

use gpu_isa::Pc;
use gpu_types::json::Writer;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: expected behavior worth knowing about (e.g. a predicted
    /// per-warp transaction count).
    Info,
    /// Suspicious but not certainly wrong (e.g. a dead write, a register
    /// that may be read before initialization on one path).
    Warning,
    /// Certainly wrong on every execution (e.g. a read of a register no
    /// path ever writes).
    Error,
}

impl Severity {
    /// Lowercase name used in both output formats.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The analyzer pass a diagnostic originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Kernel-level structural validation ([`gpu_isa::Kernel::validate`]).
    Structure,
    /// Read-of-possibly-undefined-register dataflow pass.
    UndefRead,
    /// Dead-write (value never observed) liveness pass.
    DeadWrite,
    /// CFG reachability pass.
    Unreachable,
    /// Constant guard-predicate evaluation pass.
    GuardConst,
    /// Per-warp global/local coalescing prediction.
    Coalescing,
    /// Shared-memory bank-conflict estimation.
    BankConflict,
    /// Intra-block shared-memory race detection.
    SharedRace,
    /// Barrier-under-divergent-control-flow detection.
    BarrierDivergence,
}

impl Pass {
    /// Stable kebab-case pass name used in both output formats.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Structure => "structure",
            Pass::UndefRead => "undef-read",
            Pass::DeadWrite => "dead-write",
            Pass::Unreachable => "unreachable",
            Pass::GuardConst => "guard-const",
            Pass::Coalescing => "coalescing",
            Pass::BankConflict => "bank-conflict",
            Pass::SharedRace => "shared-race",
            Pass::BarrierDivergence => "barrier-divergence",
        }
    }

    /// Every pass, in declaration order (the `--deny` flag accepts these
    /// names).
    pub const ALL: [Pass; 9] = [
        Pass::Structure,
        Pass::UndefRead,
        Pass::DeadWrite,
        Pass::Unreachable,
        Pass::GuardConst,
        Pass::Coalescing,
        Pass::BankConflict,
        Pass::SharedRace,
        Pass::BarrierDivergence,
    ];

    /// Parses a kebab-case pass name as accepted by `--deny`.
    pub fn parse(name: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding produced by an analyzer pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Originating pass.
    pub pass: Pass,
    /// Instruction the finding is anchored to, if any (kernel-level
    /// findings such as structural errors have none).
    pub pc: Option<Pc>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic anchored to an instruction.
    pub fn at(severity: Severity, pass: Pass, pc: Pc, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            pass,
            pc: Some(pc),
            message: message.into(),
        }
    }

    /// Creates a kernel-level diagnostic.
    pub fn kernel_level(severity: Severity, pass: Pass, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            pass,
            pc: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(
                f,
                "{} [{}] at {pc}: {}",
                self.severity, self.pass, self.message
            ),
            None => write!(f, "{} [{}]: {}", self.severity, self.pass, self.message),
        }
    }
}

/// All findings for one kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Name of the analyzed kernel.
    pub kernel: String,
    /// Findings in (pc, pass) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Returns `true` when no error-severity findings exist.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// Sorts diagnostics into (pc, severity-descending) order for stable
    /// output; kernel-level findings sort first.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.pc, std::cmp::Reverse(d.severity)));
    }

    /// Sorts and removes exact-duplicate findings, making rendered output
    /// byte-stable regardless of pass execution order.
    pub fn dedup(&mut self) {
        self.sort();
        self.diagnostics
            .dedup_by(|a, b| a.pc == b.pc && a.pass == b.pass && a.message == b.message);
    }

    /// Renders the human listing (one line per finding).
    pub fn to_human(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} note(s)",
            self.kernel,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = Writer::compact();
        w.object().field("kernel", &self.kernel);
        w.field("errors", self.count(Severity::Error));
        w.field("warnings", self.count(Severity::Warning));
        w.key("diagnostics").array();
        for d in &self.diagnostics {
            w.object().field("severity", d.severity.name());
            w.field("pass", d.pass.name()).field("pc", d.pc);
            w.field("message", &d.message).end();
        }
        w.finish()
    }
}

/// Renders a set of kernel reports as a SARIF 2.1.0 log, one result per
/// diagnostic. PCs map to SARIF line numbers (1-based) within a synthetic
/// `<kernel>.kasm` artifact so generic SARIF viewers and code-scanning
/// uploads can anchor the findings.
pub fn to_sarif(reports: &[Report]) -> String {
    let mut w = Writer::compact();
    w.object().field("version", "2.1.0");
    w.field("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
    w.key("runs").array().object();
    w.key("tool").object().key("driver").object();
    w.field("name", "latency-check");
    w.field("informationUri", "https://github.com/gpu-latency");
    w.key("rules").array();
    for pass in Pass::ALL {
        w.object().field("id", pass.name()).end();
    }
    w.end().end().end(); // rules, driver, tool
    w.key("results").array();
    for report in reports {
        for d in &report.diagnostics {
            let level = match d.severity {
                Severity::Info => "note",
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            w.object().field("ruleId", d.pass.name());
            w.field("level", level);
            w.key("message").object().field("text", &d.message).end();
            w.key("locations").array().object();
            w.key("physicalLocation").object();
            w.key("artifactLocation").object();
            w.field("uri", format!("{}.kasm", report.kernel)).end();
            w.key("region").object();
            w.field("startLine", d.pc.map_or(1, |pc| pc + 1)).end();
            w.end().end().end().end(); // physicalLocation, location, locations, result
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_names() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Pass::UndefRead.to_string(), "undef-read");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report {
            kernel: "k".into(),
            diagnostics: vec![
                Diagnostic::at(Severity::Warning, Pass::DeadWrite, 3, "w"),
                Diagnostic::kernel_level(Severity::Info, Pass::Coalescing, "i"),
            ],
        };
        assert!(r.is_clean());
        r.diagnostics
            .push(Diagnostic::at(Severity::Error, Pass::UndefRead, 1, "e"));
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 1);
    }

    #[test]
    fn sort_puts_kernel_level_first_and_orders_by_pc() {
        let mut r = Report {
            kernel: "k".into(),
            diagnostics: vec![
                Diagnostic::at(Severity::Info, Pass::Coalescing, 9, "later"),
                Diagnostic::at(Severity::Error, Pass::UndefRead, 2, "earlier"),
                Diagnostic::kernel_level(Severity::Warning, Pass::Structure, "top"),
            ],
        };
        r.sort();
        assert_eq!(r.diagnostics[0].pc, None);
        assert_eq!(r.diagnostics[1].pc, Some(2));
        assert_eq!(r.diagnostics[2].pc, Some(9));
    }

    #[test]
    fn human_output_lists_each_finding() {
        let r = Report {
            kernel: "vecadd".into(),
            diagnostics: vec![Diagnostic::at(
                Severity::Warning,
                Pass::DeadWrite,
                4,
                "write to r3 is never read",
            )],
        };
        let text = r.to_human();
        assert!(text.contains("vecadd: 0 error(s), 1 warning(s)"));
        assert!(text.contains("warning [dead-write] at 4: write to r3 is never read"));
    }

    #[test]
    fn json_output_is_well_formed() {
        let r = Report {
            kernel: "k\"q".into(),
            diagnostics: vec![
                Diagnostic::at(Severity::Error, Pass::UndefRead, 1, "read of \"r9\"\n"),
                Diagnostic::kernel_level(Severity::Info, Pass::Structure, "ok"),
            ],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\"kernel\":\"k\\\"q\""));
        assert!(json.contains("\"pc\":1"));
        assert!(json.contains("\"pc\":null"));
        assert!(json.contains("\\\"r9\\\"\\n"));
        assert!(json.ends_with("]}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn dedup_removes_exact_duplicates_only() {
        let mut r = Report {
            kernel: "k".into(),
            diagnostics: vec![
                Diagnostic::at(Severity::Warning, Pass::SharedRace, 5, "same"),
                Diagnostic::at(Severity::Warning, Pass::SharedRace, 5, "same"),
                Diagnostic::at(Severity::Warning, Pass::SharedRace, 5, "different"),
            ],
        };
        r.dedup();
        assert_eq!(r.diagnostics.len(), 2);
    }

    #[test]
    fn pass_parse_round_trips_every_name() {
        for p in Pass::ALL {
            assert_eq!(Pass::parse(p.name()), Some(p));
        }
        assert_eq!(Pass::parse("no-such-pass"), None);
        assert_eq!(Pass::parse("shared-race"), Some(Pass::SharedRace));
        assert_eq!(Pass::BarrierDivergence.to_string(), "barrier-divergence");
    }

    #[test]
    fn sarif_output_is_well_formed() {
        let r = Report {
            kernel: "vecadd".into(),
            diagnostics: vec![
                Diagnostic::at(Severity::Warning, Pass::SharedRace, 3, "race \"here\""),
                Diagnostic::kernel_level(Severity::Error, Pass::Structure, "bad"),
            ],
        };
        let sarif = to_sarif(&[r]);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"shared-race\""));
        assert!(sarif.contains("\"level\":\"warning\""));
        assert!(sarif.contains("\"startLine\":4"), "pc 3 is line 4");
        assert!(
            sarif.contains("\"startLine\":1"),
            "kernel-level anchors line 1"
        );
        assert!(sarif.contains("vecadd.kasm"));
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
        assert_eq!(sarif.matches('[').count(), sarif.matches(']').count());
    }

    #[test]
    fn json_escapes_control_chars() {
        let r = Report {
            kernel: "a\u{1}b".into(),
            diagnostics: vec![Diagnostic::kernel_level(
                Severity::Info,
                Pass::Structure,
                "t\tn\n",
            )],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\"kernel\":\"a\\u0001b\""), "{json}");
        assert!(json.ends_with("\"message\":\"t\\tn\\n\"}]}"), "{json}");
    }
}
