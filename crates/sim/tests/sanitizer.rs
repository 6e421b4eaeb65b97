//! End-to-end tests of the cycle-level invariant sanitizer.
//!
//! The load-bearing pair: a deliberately seeded L1 MSHR leak (an entry no
//! fill ever releases) drains and "passes" silently when the sanitizer is
//! off — the SM idle check ignores the MSHR table because a leaked entry
//! holds no queue slot — and is caught, named, and turned into a test
//! failure when the sanitizer is on. On the 80-SM gv100, where the run loop
//! audits only what moved, both findings name exactly what a `tick()`-
//! stepped run, audited in full every cycle, names.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_isa::{KernelBuilder, Launch, Special, Width};
use gpu_sim::{Gpu, GpuConfig, SimError, Site, Violation};
use gpu_types::Addr;
use latency_core::ArchPreset;

fn small_config(sanitize: bool) -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    cfg.sanitize = sanitize;
    cfg
}

/// A copy kernel: every thread loads one word and stores it shifted.
fn copy_kernel() -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("copy");
    let src = b.param(0);
    let dst = b.param(1);
    let gtid = b.special(Special::GlobalTid);
    let off = b.shl(gtid, 2);
    let sa = b.add(src, off);
    let da = b.add(dst, off);
    let v = b.ld_global(Width::W4, sa, 0);
    b.st_global(Width::W4, da, 0, v);
    b.exit();
    b.build().expect("valid kernel")
}

/// Uploads `n` words and launches the copy kernel over them in 128-thread
/// CTAs, without running it. Returns the source and destination arrays.
fn launch_copy(gpu: &mut Gpu, n: u64) -> (Addr, Addr) {
    let src = gpu.alloc(4 * n, 128);
    let dst = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(src + 4 * i, (i * 3) as u32);
    }
    let grid = (n as u32).div_ceil(128);
    gpu.launch(
        copy_kernel(),
        Launch::new(grid, 128, vec![src.get(), dst.get()]),
    )
    .expect("launch");
    (src, dst)
}

fn run_copy(gpu: &mut Gpu, n: u64) -> Result<gpu_sim::RunSummary, gpu_sim::SimError> {
    let (_, dst) = launch_copy(gpu, n);
    let summary = gpu.run(10_000_000)?;
    for i in 0..n {
        assert_eq!(gpu.device().read_u32(dst + 4 * i), (i * 3) as u32);
    }
    Ok(summary)
}

#[test]
fn clean_run_reports_no_violations() {
    let mut gpu = Gpu::new(small_config(true));
    let summary = run_copy(&mut gpu, 2048).expect("clean run");
    assert!(gpu.sanitizer().is_clean(), "{}", gpu.sanitizer().report());
    assert_eq!(summary.sanitizer_violations, 0);
}

#[test]
fn seeded_mshr_leak_passes_silently_without_sanitizer() {
    // This is the baseline the sanitizer exists to fix: the leak changes
    // nothing observable — the run drains, results verify, stats are clean.
    let mut gpu = Gpu::new(small_config(false));
    gpu.debug_seed_mshr_leak(Addr::new(0x7FFF_0000));
    let summary = run_copy(&mut gpu, 2048).expect("run drains despite the leak");
    assert_eq!(summary.sanitizer_violations, 0);
    assert!(gpu.sanitizer().is_clean());
}

#[test]
fn seeded_mshr_leak_is_caught_by_sanitizer() {
    let mut gpu = Gpu::new(small_config(true));
    gpu.debug_seed_mshr_leak(Addr::new(0x7FFF_0000));
    let outcome = catch_unwind(AssertUnwindSafe(|| run_copy(&mut gpu, 2048)));
    if cfg!(debug_assertions) {
        // Test builds: the end-of-run audit panics with the report.
        let err = outcome.expect_err("sanitizer must panic on the seeded leak");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries the report");
        assert!(msg.contains("MSHR leak"), "unexpected report: {msg}");
    } else {
        // Release builds accumulate instead of aborting.
        outcome.expect("release runs do not panic").expect("run ok");
    }
    // Either way the report is queryable afterwards and names the line.
    let report = gpu.sanitizer();
    assert!(!report.is_clean());
    assert!(report.violations().iter().any(|v| matches!(
        v,
        Violation::MshrLeak { lines, .. }
            if lines.contains(&Addr::new(0x7FFF_0000))
    )));
}

/// A request record left in the request table with no structure holding
/// its handle — a retirement that forgot to free its slot — changes no
/// result; the table's count against the pipeline catches it on the first
/// audited cycle.
#[test]
fn seeded_request_table_leak_is_caught_by_sanitizer() {
    let mut gpu = Gpu::new(small_config(true));
    gpu.debug_seed_request_leak();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_copy(&mut gpu, 2048)));
    if cfg!(debug_assertions) {
        let err = outcome.expect_err("sanitizer must panic on the seeded leak");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries the report");
        assert!(msg.contains("request table"), "unexpected report: {msg}");
    } else {
        outcome.expect("release runs do not panic").expect("run ok");
    }
    let report = gpu.sanitizer();
    assert!(!report.is_clean());
    assert!(report.violations().iter().all(
        |v| matches!(v, Violation::Conservation { table, in_flight, .. }
            if *table == in_flight + 1)
    ));
    assert!(matches!(
        report.violations()[0],
        Violation::Conservation { cycle, .. } if cycle.get() == 0
    ));
    assert_eq!(gpu.requests().live(), 1, "only the leaked record is left");

    // Without the seed the same run keeps the table in step and empties it.
    let mut gpu = Gpu::new(small_config(true));
    run_copy(&mut gpu, 2048).expect("clean run");
    assert!(gpu.sanitizer().is_clean(), "{}", gpu.sanitizer().report());
    assert_eq!((gpu.requests().live(), gpu.requests().lent()), (0, 0));
    assert!(gpu.requests().slots() > 0);
}

#[test]
fn timeout_mid_load_names_what_is_stuck_on_both_sides() {
    // Cut the run off while the first loads are out at DRAM: the hang report
    // must name the SM side (L1 MSHR lines, pending loads) as well as the
    // partition side (L2 MSHR lines). Counted in every build — the panic
    // belongs to the drained path, where a leftover is a leak, not a hang.
    let mut gpu = Gpu::new(small_config(true));
    let src = gpu.alloc(4 * 2048, 128);
    let dst = gpu.alloc(4 * 2048, 128);
    gpu.launch(
        copy_kernel(),
        Launch::new(16, 128, vec![src.get(), dst.get()]),
    )
    .expect("launch");
    assert_eq!(gpu.run(250), Err(SimError::Timeout { max_cycles: 250 }));
    let stuck = gpu.sanitizer().violations();
    let leak_at = |want_sm: bool| {
        stuck.iter().any(|v| {
            matches!(v, Violation::MshrLeak { site, lines }
                if matches!(site, Site::Sm(_)) == want_sm && !lines.is_empty())
        })
    };
    let report = gpu.sanitizer().report();
    assert!(leak_at(true), "no SM-side MSHR lines in:\n{report}");
    assert!(leak_at(false), "no partition-side MSHR lines in:\n{report}");
    assert!(
        stuck.iter().any(|v| matches!(
            v,
            Violation::PendingLoadLeak {
                site: Site::Sm(_),
                ..
            }
        )),
        "no pending loads in:\n{report}"
    );
}

#[test]
fn sanitized_and_unsanitized_runs_time_identically() {
    // The sanitizer observes; it must never perturb timing.
    let mut with = Gpu::new(small_config(true));
    let mut without = Gpu::new(small_config(false));
    let a = run_copy(&mut with, 4096).expect("sanitized run");
    let b = run_copy(&mut without, 4096).expect("plain run");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    // Host wall-clock is the summary's only non-deterministic field.
    assert_eq!(
        gpu_sim::RunSummary {
            sanitizer_violations: 0,
            metrics: gpu_sim::MetricsReport {
                host_nanos: b.metrics.host_nanos,
                ..a.metrics
            },
            ..a
        },
        b
    );
}

#[test]
fn gv100_leak_and_timeout_name_what_stepping_names() {
    // Sixteen CTAs on SMs 0-15 of 80: the rest sleep empty, so nearly all
    // of the machine is left out of each cycle's audit under `run`. The
    // stepped twin ticks and audits every component every cycle; `run(0)`
    // then only performs the run loop's end-of-run audit on it.
    let gv100 = ArchPreset::VoltaGv100.config();
    assert!(gv100.sanitize);
    let findings = |gpu: &mut Gpu, budget: u64| {
        let outcome = catch_unwind(AssertUnwindSafe(|| gpu.run(budget)));
        if let Ok(result) = outcome {
            if cfg!(debug_assertions) {
                // Only a timeout returns with findings in a debug build.
                assert!(matches!(result, Err(SimError::Timeout { .. })));
            }
        }
        gpu.sanitizer().violations().to_vec()
    };

    // The seeded leak: the run drains; the drained audit names SM 0's line.
    let leaked = Addr::new(0x7FFF_0000);
    let mut sites = Vec::new();
    for stepped in [false, true] {
        let mut gpu = Gpu::new(gv100.clone());
        launch_copy(&mut gpu, 16 * 128);
        gpu.debug_seed_mshr_leak(leaked);
        let budget = if stepped {
            let end = leak_free_cycles(&gv100);
            while gpu.now().get() < end {
                gpu.tick();
            }
            0
        } else {
            10_000_000
        };
        sites.push(findings(&mut gpu, budget));
    }
    assert_eq!(sites[0], sites[1], "leak findings, run vs stepped");
    assert_eq!(
        sites[0],
        vec![Violation::MshrLeak {
            site: Site::Sm(0),
            lines: vec![leaked],
        }]
    );

    // Cut off mid-load: both sides name the same stuck lines and loads.
    let mut sites = Vec::new();
    for stepped in [false, true] {
        let mut gpu = Gpu::new(gv100.clone());
        launch_copy(&mut gpu, 16 * 128);
        let budget = if stepped {
            for _ in 0..250 {
                gpu.tick();
            }
            0
        } else {
            250
        };
        assert_eq!(
            gpu.run(budget),
            Err(SimError::Timeout { max_cycles: budget })
        );
        sites.push(gpu.sanitizer().violations().to_vec());
    }
    assert_eq!(sites[0], sites[1], "timeout findings, run vs stepped");
    let stuck = &sites[0];
    for sm in 0..16 {
        assert!(stuck.iter().any(|v| matches!(v,
            Violation::PendingLoadLeak { site: Site::Sm(s), .. } if *s == sm)));
    }
    assert!(stuck.iter().all(|v| !matches!(v,
        Violation::MshrLeak { site: Site::Sm(s), .. } | Violation::PendingLoadLeak { site: Site::Sm(s), .. } if *s >= 16)));
    assert!(stuck.iter().any(|v| matches!(
        v,
        Violation::MshrLeak {
            site: Site::Partition(_),
            ..
        }
    )));
}

/// Cycles the sixteen-CTA copy takes on `cfg` when nothing is seeded.
fn leak_free_cycles(cfg: &GpuConfig) -> u64 {
    let mut gpu = Gpu::new(cfg.clone());
    launch_copy(&mut gpu, 16 * 128);
    gpu.run(10_000_000).expect("clean run drains").cycles
}
