//! Round-trip and golden-rendering coverage for the diagnostics layer.
//!
//! `latency lint`'s `--json` and `--sarif` outputs are consumed by CI and
//! external SARIF viewers, so their shape is a contract: this suite
//! re-parses both through `gpu_trace::json::parse` (the workspace's own
//! JSON parser) and pins one golden human rendering per lint class.

use gpu_isa::{CmpOp, KernelBuilder, Space, Special, Width};
use gpu_trace::json::{parse, Value};
use latency_check::{analyze, to_sarif, AnalysisConfig, Diagnostic, Pass, Report, Severity};

/// A report exercising every severity, a kernel-level finding and every
/// JSON-hostile character class.
fn spiky_report() -> Report {
    let mut r = Report {
        kernel: "spiky \"kernel\"\n".into(),
        diagnostics: vec![
            Diagnostic::at(Severity::Error, Pass::UndefRead, 7, "read of \"r9\"\t(tab)"),
            Diagnostic::at(Severity::Warning, Pass::SharedRace, 3, "races with pc 4"),
            Diagnostic::at(Severity::Info, Pass::Coalescing, 1, "1 transaction\u{1}"),
            Diagnostic::kernel_level(Severity::Warning, Pass::Structure, "odd shape"),
        ],
    };
    r.dedup();
    r
}

#[test]
fn report_json_round_trips_through_the_workspace_parser() {
    let report = spiky_report();
    let parsed = parse(&report.to_json()).expect("lint --json output must be valid JSON");
    assert_eq!(
        parsed.get("kernel").and_then(Value::as_str),
        Some("spiky \"kernel\"\n")
    );
    assert_eq!(parsed.get("errors").and_then(Value::as_num), Some(1.0));
    assert_eq!(parsed.get("warnings").and_then(Value::as_num), Some(2.0));
    let diags = parsed
        .get("diagnostics")
        .and_then(Value::as_arr)
        .expect("diagnostics array");
    assert_eq!(diags.len(), report.diagnostics.len());
    // Every field of every diagnostic survives the trip, in order.
    for (d, j) in report.diagnostics.iter().zip(diags) {
        assert_eq!(
            j.get("severity").and_then(Value::as_str),
            Some(d.severity.name())
        );
        assert_eq!(j.get("pass").and_then(Value::as_str), Some(d.pass.name()));
        assert_eq!(
            j.get("pc").and_then(Value::as_num),
            d.pc.map(|pc| pc as f64)
        );
        match d.pc {
            Some(_) => {}
            None => assert_eq!(j.get("pc"), Some(&Value::Null)),
        }
        assert_eq!(
            j.get("message").and_then(Value::as_str),
            Some(d.message.as_str())
        );
    }
}

#[test]
fn sarif_round_trips_through_the_workspace_parser() {
    let sarif = to_sarif(&[spiky_report()]);
    let parsed = parse(&sarif).expect("SARIF output must be valid JSON");
    assert_eq!(parsed.get("version").and_then(Value::as_str), Some("2.1.0"));
    let runs = parsed.get("runs").and_then(Value::as_arr).expect("runs");
    let run = &runs[0];
    let rules = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Value::as_arr)
        .expect("rules");
    assert_eq!(rules.len(), Pass::ALL.len(), "one rule per pass");
    let results = run.get("results").and_then(Value::as_arr).expect("results");
    assert_eq!(results.len(), 4);
    // Severity mapping: info -> note, kernel-level anchors line 1.
    let levels: Vec<&str> = results
        .iter()
        .filter_map(|r| r.get("level").and_then(Value::as_str))
        .collect();
    assert!(levels.contains(&"note") && levels.contains(&"warning") && levels.contains(&"error"));
    for r in results {
        let line = r
            .get("locations")
            .and_then(Value::as_arr)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|reg| reg.get("startLine"))
            .and_then(Value::as_num)
            .expect("every result has a line");
        assert!(line >= 1.0, "SARIF lines are 1-based");
    }
}

#[test]
fn severity_ordering_gates_correctly() {
    assert!(Severity::Error > Severity::Warning);
    assert!(Severity::Warning > Severity::Info);
    // The `--deny` gate counts findings at Warning-or-worse; Info stays
    // advisory. Pin the boundary.
    let gated = |s: Severity| s >= Severity::Warning;
    assert!(!gated(Severity::Info));
    assert!(gated(Severity::Warning));
    assert!(gated(Severity::Error));
}

/// One golden human rendering per new lint class, produced through the
/// public `analyze` entry point on minimal kernels.
#[test]
fn golden_rendering_per_lint_class() {
    // Shared-memory race: thread t writes s[t] and s[t+1], no barrier.
    let mut b = KernelBuilder::new("racy");
    b.alloc_shared(256);
    let t = b.special(Special::TidX);
    let a0 = b.shl(t, 2);
    b.st(Space::Shared, Width::W4, a0, 0, 1i64);
    b.st(Space::Shared, Width::W4, a0, 4, 2i64);
    b.exit();
    let racy = analyze(&b.build().unwrap(), &AnalysisConfig::default());
    let race_line = racy
        .diagnostics
        .iter()
        .find(|d| d.pass == Pass::SharedRace)
        .expect("race fires")
        .to_string();
    assert_eq!(
        race_line,
        "warning [shared-race] at 3: shared-memory write/write race: this access overlaps \
         the shared access at pc 2 for threads -1 apart, with no barrier between them"
    );

    // Barrier under divergence.
    let mut b = KernelBuilder::new("divbar");
    let t = b.special(Special::TidX);
    let p = b.setp(CmpOp::Lt, t, 16i64);
    b.if_then(p, |b| b.bar());
    b.exit();
    let divbar = analyze(&b.build().unwrap(), &AnalysisConfig::default());
    let bar_line = divbar
        .diagnostics
        .iter()
        .find(|d| d.pass == Pass::BarrierDivergence)
        .expect("barrier lint fires")
        .to_string();
    assert_eq!(
        bar_line,
        "warning [barrier-divergence] at 3: bar.sync inside divergent control flow: a \
         lane-varying branch dominates this barrier, so a warp can reach it with only \
         part of its lanes"
    );

    // Coalescing prediction with exact transaction count.
    let mut b = KernelBuilder::new("strided");
    let base = b.param(0);
    let t = b.special(Special::GlobalTid);
    let off = b.mul(t, 128i64);
    let a = b.add(base, off);
    b.ld_global(Width::W4, a, 0);
    b.exit();
    let strided = analyze(&b.build().unwrap(), &AnalysisConfig::default());
    let coal_line = strided
        .diagnostics
        .iter()
        .find(|d| d.pass == Pass::Coalescing)
        .expect("coalescing note")
        .to_string();
    assert_eq!(
        coal_line,
        "warning [coalescing] at 4: global load: uncoalesced, stride 128 B, \
         32 transaction(s) per fully-active warp"
    );
}
