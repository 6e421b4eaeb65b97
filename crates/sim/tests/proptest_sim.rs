//! Randomized tests of the timing simulator, driven by the workspace's
//! hermetic [`gpu_types::rng`] (fixed seeds, fully reproducible): functional
//! results must be independent of timing configuration, no configuration
//! may deadlock, and `run()` must equal `tick()`-stepping on all of them.

mod skip_harness;

use gpu_isa::{CmpOp, KernelBuilder, LaneAccess, Launch, Special, Width};
use gpu_sim::{coalesce, Gpu, GpuConfig, SchedPolicy};
use gpu_types::rng::Rng;
use gpu_types::Addr;
use latency_core::ArchPreset;

fn scaled_config(
    num_sms: usize,
    with_l1: bool,
    with_l2: bool,
    sched: SchedPolicy,
    issue_width: usize,
) -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = num_sms;
    cfg.num_partitions = 2;
    cfg.scheduler = sched;
    cfg.issue_width = issue_width;
    if !with_l1 {
        cfg.l1 = None;
    }
    if !with_l2 {
        cfg.l2 = None;
    }
    cfg
}

fn saxpy_kernel() -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("saxpy");
    let x = b.param(0);
    let y = b.param(1);
    let n = b.param(2);
    let gtid = b.special(Special::GlobalTid);
    let p = b.setp(CmpOp::Lt, gtid, n);
    b.if_then(p, |b| {
        let off = b.shl(gtid, 2);
        let xa = b.add(x, off);
        let ya = b.add(y, off);
        let xv = b.ld_global(Width::W4, xa, 0);
        let yv = b.ld_global(Width::W4, ya, 0);
        let t = b.mul(xv, 3);
        let s = b.add(t, yv);
        b.st_global(Width::W4, ya, 0, s);
    });
    b.exit();
    b.build().expect("valid kernel")
}

/// Functional results are identical across machine shapes, schedulers
/// and cache configurations — timing never changes architectural state.
#[test]
fn results_independent_of_timing_config() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x7131_0000 + case);
        let n = rng.gen_range_u64(1, 600);
        let block = 1u32 << rng.gen_range_u32(5, 9); // 32..256
        let num_sms = rng.gen_range_usize(1, 5);
        let with_l1 = rng.gen_bool();
        let with_l2 = rng.gen_bool();
        let sched = if rng.gen_bool() {
            SchedPolicy::Gto
        } else {
            SchedPolicy::Lrr
        };
        let issue_width = rng.gen_range_usize(1, 3);
        let cfg = scaled_config(num_sms, with_l1, with_l2, sched, issue_width);
        let mut gpu = Gpu::new(cfg);
        let x = gpu.alloc(4 * n, 128);
        let y = gpu.alloc(4 * n, 128);
        for i in 0..n {
            gpu.device_mut().write_u32(x + 4 * i, i as u32);
            gpu.device_mut().write_u32(y + 4 * i, 7);
        }
        let grid = (n as u32).div_ceil(block);
        gpu.launch(
            saxpy_kernel(),
            Launch::new(grid, block, vec![x.get(), y.get(), n]),
        )
        .expect("launch");
        let summary = gpu.run(50_000_000).expect("no deadlock within bound");
        for i in 0..n {
            assert_eq!(
                gpu.device().read_u32(y + 4 * i),
                3 * i as u32 + 7,
                "case {case}: element {i}"
            );
        }
        assert!(summary.cycles > 0, "case {case}");
        assert_eq!(summary.ctas, grid as u64, "case {case}");
    }
}

/// Tiny queues everywhere must back-pressure, not deadlock or drop
/// requests.
#[test]
fn minimal_queues_never_deadlock() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xDEAD_0000 + case);
        let n = rng.gen_range_u64(1, 300);
        let mut cfg = GpuConfig::fermi_gf100();
        cfg.num_sms = 2;
        cfg.num_partitions = 2;
        if let Some(l1) = cfg.l1.as_mut() {
            l1.miss_queue = rng.gen_range_usize(1, 3);
            l1.mshr.entries = 2;
            l1.mshr.max_merged = 1;
        }
        cfg.icnt.output_queue = rng.gen_range_usize(1, 3);
        cfg.rop_queue = rng.gen_range_usize(1, 3);
        if let Some(l2) = cfg.l2.as_mut() {
            l2.input_queue = 1;
            l2.mshr.entries = 2;
            l2.mshr.max_merged = 1;
        }
        cfg.dram.queue_capacity = rng.gen_range_usize(1, 3);
        let mut gpu = Gpu::new(cfg);
        let x = gpu.alloc(4 * n, 128);
        let y = gpu.alloc(4 * n, 128);
        for i in 0..n {
            gpu.device_mut().write_u32(x + 4 * i, 2);
            gpu.device_mut().write_u32(y + 4 * i, i as u32);
        }
        let grid = (n as u32).div_ceil(64);
        gpu.launch(
            saxpy_kernel(),
            Launch::new(grid, 64, vec![x.get(), y.get(), n]),
        )
        .expect("launch");
        gpu.run(50_000_000)
            .expect("no deadlock under minimal queues");
        for i in 0..n {
            assert_eq!(
                gpu.device().read_u32(y + 4 * i),
                6 + i as u32,
                "case {case}: element {i}"
            );
        }
    }
}

/// What `run()` leaves out — quiescent cycles, the ticks of sleeping SMs
/// and partitions — is invisible on machines and graphs nobody picked by
/// hand: every generation's pipeline, either scheduler, one to five SMs,
/// tracer on or off, a multi-launch BFS whose grid may or may not fill
/// the machine.
#[test]
fn run_equals_stepping_on_random_machines() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x51EE_0000 + case);
        let preset = ArchPreset::ALL[rng.gen_range_usize(0, ArchPreset::ALL.len())];
        let mut cfg = preset.config();
        cfg.num_sms = rng.gen_range_usize(1, 6);
        cfg.num_partitions = 2;
        cfg.scheduler = if rng.gen_bool() {
            SchedPolicy::Gto
        } else {
            SchedPolicy::Lrr
        };
        cfg.trace.enabled = rng.gen_bool();
        cfg.trace.sample_interval = 16;
        let nodes = rng.gen_range_u32(48, 200);
        let degree = rng.gen_range_u32(2, 6);
        let block_dim = 32 << rng.gen_range_u32(0, 3);
        let graph_seed = rng.next_u64();
        let what = format!(
            "case {case}: {} x{} {:?}, bfs {nodes}/{degree}/{graph_seed:#x} in {block_dim}s, \
             tracing {}",
            preset.token(),
            cfg.num_sms,
            cfg.scheduler,
            cfg.trace.enabled
        );
        skip_harness::assert_skip_invisible(
            &what,
            &cfg,
            &skip_harness::mask_bfs(nodes, degree, graph_seed, block_dim),
        );
    }
}

/// Coalescing covers every accessed byte with line-aligned, deduplicated
/// transactions.
#[test]
fn coalesce_covers_all_bytes() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0xC0A1_0000 + case);
        let n_accesses = rng.gen_range_usize(1, 33);
        let lane_accesses: Vec<LaneAccess> = (0..n_accesses)
            .map(|lane| LaneAccess {
                lane: lane as u32,
                addr: Addr::new(rng.gen_range_u64(0, 4096) * 4),
                width: if rng.gen_bool() { Width::W8 } else { Width::W4 },
            })
            .collect();
        let lines = coalesce(&lane_accesses, 128);
        // Sorted, unique, aligned.
        for w in lines.windows(2) {
            assert!(w[0] < w[1], "case {case}");
        }
        for l in &lines {
            assert!(l.is_aligned(128), "case {case}");
        }
        // Coverage of every accessed byte.
        for a in &lane_accesses {
            for b in 0..a.width.bytes() {
                let line = (a.addr + b).align_down(128);
                assert!(
                    lines.contains(&line),
                    "case {case}: byte {} uncovered",
                    (a.addr + b).get()
                );
            }
        }
        // Minimality: every returned line is touched by some access.
        for line in &lines {
            let touched = lane_accesses
                .iter()
                .any(|a| (0..a.width.bytes()).any(|b| (a.addr + b).align_down(128) == *line));
            assert!(
                touched,
                "case {case}: line {line} returned but never accessed"
            );
        }
    }
}
