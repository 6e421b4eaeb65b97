//! Cross-checks the static coalescing prediction against the timing
//! model's actual transaction counts.
//!
//! The analyzer and the simulator share one coalescing routine
//! ([`gpu_sim::coalesce`]); these tests close the loop end-to-end: the
//! line counts the analyzer predicts from the abstract address pattern
//! must match the per-load transaction counts the simulator traces when
//! the kernel really runs on line-aligned buffers.

use gpu_isa::{KernelBuilder, Launch, Special, Width};
use gpu_sim::{Gpu, GpuConfig};
use latency_check::{analyze, AccessPattern, AnalysisConfig, Cfg, Severity};

fn small_config() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg
}

fn analysis_for(cfg: &GpuConfig) -> AnalysisConfig {
    AnalysisConfig {
        line_size: cfg.line_size,
        warp_size: cfg.warp_size,
        ..AnalysisConfig::default()
    }
}

#[test]
fn vecadd_prediction_matches_traced_lines() {
    let cfg = small_config();
    let analysis = analysis_for(&cfg);

    let kernel = gpu_workloads::vecadd::build_vecadd_kernel();
    let g = Cfg::build(&kernel);
    let predictions = latency_check::memlint::predict(&kernel, &g, &analysis);
    let load_lines: Vec<usize> = predictions
        .iter()
        .filter(|p| !p.is_store)
        .map(|p| p.lines_per_warp.expect("vecadd loads are affine"))
        .collect();
    assert_eq!(load_lines, vec![1, 1], "two fully-coalesced loads");

    // Run the same kernel; every traced load must coalesce to the
    // predicted single transaction (buffers are line-aligned and every
    // warp is fully active).
    let mut gpu = Gpu::new(cfg);
    let dev = gpu_workloads::vecadd::setup(&mut gpu, 1024);
    gpu.set_tracing(true);
    gpu_workloads::vecadd::run(&mut gpu, &dev, 256).unwrap();
    let (_, loads) = gpu.take_traces();
    assert!(!loads.is_empty());
    assert!(
        loads.iter().all(|l| l.lines == 1),
        "traced lines disagree with static prediction"
    );
}

#[test]
fn line_strided_load_prediction_matches_traced_lines() {
    let cfg = small_config();
    let analysis = analysis_for(&cfg);
    let line = cfg.line_size;

    // Each lane reads its own cache line: the fully-uncoalesced contrast.
    let mut b = KernelBuilder::new("strided");
    let base = b.param(0);
    let t = b.special(Special::GlobalTid);
    let off = b.mul(t, line as i64);
    let addr = b.add(base, off);
    let v = b.ld_global(Width::W4, addr, 0);
    let out = b.param(1);
    let off4 = b.shl(t, 2);
    let oaddr = b.add(out, off4);
    b.st_global(Width::W4, oaddr, 0, v);
    b.exit();
    let kernel = b.build().unwrap();

    let g = Cfg::build(&kernel);
    let predictions = latency_check::memlint::predict(&kernel, &g, &analysis);
    let strided = predictions.iter().find(|p| !p.is_store).unwrap();
    assert_eq!(
        strided.pattern,
        AccessPattern::Affine {
            stride: line as i64
        }
    );
    assert_eq!(strided.lines_per_warp, Some(cfg.warp_size as usize));
    let store = predictions.iter().find(|p| p.is_store).unwrap();
    assert_eq!(store.lines_per_warp, Some(1));

    let warps = 8u64;
    let n = warps * cfg.warp_size as u64;
    let mut gpu = Gpu::new(cfg.clone());
    let src = gpu.alloc(line * n, line);
    let dst = gpu.alloc(4 * n, line);
    for i in 0..n {
        gpu.device_mut().write_u32(src + line * i, i as u32);
    }
    gpu.set_tracing(true);
    gpu.launch(
        kernel,
        Launch::new(warps as u32, cfg.warp_size, vec![src.get(), dst.get()]),
    )
    .unwrap();
    gpu.run(100_000_000).unwrap();
    for i in 0..n {
        assert_eq!(gpu.device().read_u32(dst + 4 * i), i as u32);
    }

    let (_, loads) = gpu.take_traces();
    assert_eq!(loads.len() as u64, warps, "one traced load per warp");
    assert!(
        loads.iter().all(|l| l.lines == cfg.warp_size),
        "every warp's strided load must fan out to warp_size lines"
    );
}

#[test]
fn all_builtin_workload_kernels_lint_clean() {
    // The acceptance bar for `latency lint`, asserted here as a test so a
    // regression fails CI even when the binary is not run.
    let analysis = AnalysisConfig::default();
    for kernel in gpu_workloads::builtin_kernels() {
        let report = analyze(&kernel, &analysis);
        assert!(
            report.is_clean(),
            "kernel '{}' has error diagnostics:\n{}",
            report.kernel,
            report.to_human()
        );
        assert_eq!(report.count(Severity::Error), 0);
    }
}
