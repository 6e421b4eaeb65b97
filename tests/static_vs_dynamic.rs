//! Differential validation of the static analyzer against the simulator.
//!
//! Three layers:
//!
//! 1. **The matrix**: every Table-I preset x every E4 workload runs
//!    instrumented, and `latency_bench::validate_run` checks the static
//!    transaction predictions (contract A) and the feasible-level claim
//!    (contract B) against the traces. `validate_floor` checks each
//!    preset's analytic unloaded latencies against pointer-chase
//!    measurements (contract C).
//! 2. **Exactness canary**: a deliberately fully-strided kernel runs
//!    dynamically and its predicted per-warp line count (32) must equal the
//!    simulator's coalescer output record-for-record — an off-by-anything
//!    regression in either side fails loudly.
//! 3. **Lint canaries**: seeded-bug kernels (a shared-memory race, a
//!    barrier under divergence) prove each new lint actually fires through
//!    the public `analyze` entry point, so the `--deny` gate has teeth.

use gpu_isa::{CmpOp, KernelBuilder, Launch, Space, Special, Width};
use gpu_sim::Gpu;
use latency_bench::{validate_floor, validate_run, Workload};
use latency_check::{analyze, AnalysisConfig, Pass};
use latency_core::ArchPreset;

/// Runs the full workload sweep for one preset and asserts every cell
/// validates.
fn sweep_preset(preset: ArchPreset) {
    let mut compared = 0usize;
    let mut exact = 0usize;
    for workload in Workload::e4() {
        let report = validate_run(preset, workload).expect("instrumented run failed");
        assert!(
            report.ok(),
            "static/dynamic mismatch:\n{}",
            report.to_human()
        );
        assert!(
            report.requests > 0,
            "cell traced nothing:\n{}",
            report.to_human()
        );
        compared += report.loads.len();
        exact += report
            .loads
            .iter()
            .filter(|l| l.max_observed_lines as usize == l.predicted_lines)
            .count();
    }
    // Some kernels (e.g. matmul's divided indices) are legitimately beyond
    // the affine domain, and every builtin body is bounds-guarded (so the
    // statically-exact contract is exercised by the strided canary, not
    // here) — but the sweep as a whole must compare real loads and some
    // predictions must be tight, not just upper bounds.
    assert!(
        compared >= 8 && exact >= 1,
        "sweep compared too little: {compared} loads, {exact} tight"
    );
}

#[test]
fn matrix_tesla_gt200() {
    sweep_preset(ArchPreset::TeslaGt200);
}

#[test]
fn matrix_fermi_gf106() {
    sweep_preset(ArchPreset::FermiGf106);
}

#[test]
fn matrix_kepler_gk104() {
    sweep_preset(ArchPreset::KeplerGk104);
}

#[test]
fn matrix_maxwell_gm107() {
    sweep_preset(ArchPreset::MaxwellGm107);
}

#[test]
fn matrix_volta_gv100_sectored() {
    // Contract A on a sectored preset compares *sector* traffic: the
    // analyzer predicts at the 32-byte granule and the simulator's
    // coalescer emits 32-byte transactions.
    sweep_preset(ArchPreset::VoltaGv100);
}

#[test]
fn matrix_ampere_ga102_sectored() {
    sweep_preset(ArchPreset::AmpereGa102);
}

#[test]
fn floors_lower_bound_measurements() {
    for preset in ArchPreset::TABLE1 {
        let report = validate_floor(preset).expect("chase measurement failed");
        assert!(report.ok(), "floor violated:\n{}", report.to_human());
        assert!(
            !report.checks.is_empty(),
            "no level was measured for {preset:?}"
        );
    }
}

#[test]
fn strided_canary_matches_dynamic_coalescer_exactly() {
    // One load, 128-byte lane stride: every lane of a full warp touches its
    // own line, so the analyzer must predict exactly 32 transactions and
    // the simulator must produce exactly 32 for every record.
    let mut b = KernelBuilder::new("strided_canary");
    let base = b.param(0);
    let t = b.special(Special::GlobalTid);
    let off = b.mul(t, 128i64);
    let a = b.add(base, off);
    b.ld_global(Width::W4, a, 0);
    b.exit();
    let kernel = b.build().unwrap();

    let cfg = gpu_sim::GpuConfig::fermi_gf100();
    let desc = cfg.arch_desc();
    let acfg = AnalysisConfig {
        line_size: desc.line_size,
        warp_size: desc.sm.warp_size,
        ..AnalysisConfig::default()
    };
    let kcfg = latency_check::Cfg::build(&kernel);
    let preds = latency_check::memlint::predict(&kernel, &kcfg, &acfg);
    let load = preds.iter().find(|p| !p.is_store).expect("one load");
    assert_eq!(load.lines_per_warp, Some(32), "static prediction");

    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true);
    let threads = 128u64;
    let buf = gpu.alloc(threads * 128, desc.line_size);
    gpu.launch(kernel, Launch::new(2, 64, vec![buf.get()]))
        .unwrap();
    gpu.run(10_000_000).unwrap();
    let (_, loads) = gpu.take_traces();
    assert!(!loads.is_empty(), "the canary load never completed");
    for r in &loads {
        assert_eq!(r.lines, 32, "dynamic coalescer disagrees at pc {}", r.pc);
    }
}

#[test]
fn sector_canary_distinguishes_lines_from_sectors() {
    // One load, 32-byte lane stride: a full warp touches 8 distinct
    // 128-byte lines but 32 distinct 32-byte sectors. On a sectored
    // machine the analyzer's granule-level prediction (32) must equal the
    // simulator's dynamic transaction count record-for-record, while the
    // line-level prediction (8) must NOT — proving both sides really count
    // sectors, not lines.
    let mut b = KernelBuilder::new("sector_canary");
    let base = b.param(0);
    let t = b.special(Special::GlobalTid);
    let off = b.mul(t, 32i64);
    let a = b.add(base, off);
    b.ld_global(Width::W4, a, 0);
    b.exit();
    let kernel = b.build().unwrap();

    let mut cfg = ArchPreset::VoltaGv100.config();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    let desc = cfg.arch_desc();
    assert_eq!(desc.transaction_granule(), 32, "GV100 is 32B-sectored");
    let kcfg = latency_check::Cfg::build(&kernel);
    let at = |granule: u64| {
        let acfg = AnalysisConfig {
            line_size: granule,
            warp_size: desc.sm.warp_size,
            ..AnalysisConfig::default()
        };
        let preds = latency_check::memlint::predict(&kernel, &kcfg, &acfg);
        preds
            .iter()
            .find(|p| !p.is_store)
            .expect("one load")
            .lines_per_warp
    };
    assert_eq!(at(desc.line_size), Some(8), "line-level prediction");
    assert_eq!(
        at(desc.transaction_granule()),
        Some(32),
        "sector-level prediction"
    );

    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true);
    let threads = 128u64;
    let buf = gpu.alloc(threads * 32, desc.line_size);
    gpu.launch(kernel, Launch::new(2, 64, vec![buf.get()]))
        .unwrap();
    gpu.run(10_000_000).unwrap();
    let (_, loads) = gpu.take_traces();
    assert!(!loads.is_empty(), "the canary load never completed");
    for r in &loads {
        assert_eq!(r.lines, 32, "dynamic sector traffic at pc {}", r.pc);
        assert_ne!(r.lines, 8, "sectored machine must not coalesce at lines");
    }
}

#[test]
fn sectored_preset_diverges_from_unsectored_twin() {
    // The same machine with sectoring stripped (one sector per line) must
    // behave *differently* on sector-grained traffic: the sectored machine
    // moves 32-byte transactions where its twin moves 128-byte lines. A
    // pinned, deliberate divergence — if these ever agree, sectoring has
    // silently stopped reaching the timing model.
    let run = |sectored: bool| {
        let mut desc = ArchPreset::VoltaGv100.desc();
        if !sectored {
            for level in &mut desc.levels {
                if let Some(g) = &mut level.geom {
                    g.sector_bytes = None;
                }
            }
        }
        let mut cfg = gpu_sim::GpuConfig::from_arch(&desc).expect("twin stays valid");
        cfg.num_sms = 2;
        cfg.num_partitions = 2;

        let mut b = KernelBuilder::new("twin_canary");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off = b.mul(t, 32i64);
        let a = b.add(base, off);
        b.ld_global(Width::W4, a, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let mut gpu = Gpu::new(cfg);
        gpu.set_tracing(true);
        let buf = gpu.alloc(128 * 32, 128);
        gpu.launch(kernel, Launch::new(2, 64, vec![buf.get()]))
            .unwrap();
        let summary = gpu.run(10_000_000).unwrap();
        let (_, loads) = gpu.take_traces();
        let max_txn = loads.iter().map(|r| r.lines).max().unwrap_or(0);
        (summary.cycles, summary.content_hash, max_txn)
    };
    let (sec_cycles, sec_hash, sec_txn) = run(true);
    let (line_cycles, line_hash, line_txn) = run(false);
    assert_eq!(sec_txn, 32, "sectored twin coalesces at the sector");
    assert_eq!(line_txn, 8, "unsectored twin coalesces at the line");
    assert_ne!(sec_hash, line_hash, "twins must not produce identical runs");
    assert_ne!(
        sec_cycles, line_cycles,
        "sectoring must change simulated time on sector-grained traffic"
    );
}

#[test]
fn race_canary_fires_shared_race_lint() {
    // Thread t writes s[t] and s[t+1] with no barrier: a W/W race the
    // analyzer must report through the public entry point.
    let mut b = KernelBuilder::new("racy_canary");
    b.alloc_shared(512);
    let t = b.special(Special::TidX);
    let a0 = b.shl(t, 2);
    b.st(Space::Shared, Width::W4, a0, 0, 1i64);
    b.st(Space::Shared, Width::W4, a0, 4, 2i64);
    b.exit();
    let kernel = b.build().unwrap();
    let report = analyze(&kernel, &AnalysisConfig::default());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.pass == Pass::SharedRace),
        "shared-race lint did not fire:\n{}",
        report.to_human()
    );
}

#[test]
fn divergent_barrier_canary_fires_barrier_lint() {
    let mut b = KernelBuilder::new("divbar_canary");
    let t = b.special(Special::TidX);
    let p = b.setp(CmpOp::Lt, t, 16i64);
    b.if_then(p, |b| b.bar());
    b.exit();
    let kernel = b.build().unwrap();
    let report = analyze(&kernel, &AnalysisConfig::default());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.pass == Pass::BarrierDivergence),
        "barrier-divergence lint did not fire:\n{}",
        report.to_human()
    );
}

#[test]
fn builtin_kernels_stay_lint_clean() {
    // The `--deny all` CI gate relies on the builtin set being free of
    // error- and warning-severity findings; pin that here so a lint
    // regression is caught by `cargo test` too.
    for kernel in latency_bench::builtin_kernels() {
        let report = analyze(&kernel, &AnalysisConfig::default());
        assert_eq!(
            report.count(latency_check::Severity::Error)
                + report.count(latency_check::Severity::Warning),
            0,
            "builtin kernel regressed:\n{}",
            report.to_human()
        );
    }
}
