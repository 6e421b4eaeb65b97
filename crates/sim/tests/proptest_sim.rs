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

/// The bitset scoreboard against a `BTreeSet` per slot: random reserve /
/// release / clear sequences answer `can_issue`, `is_pending` and
/// `pending_count` alike and encode to the model's ascending lists — over
/// registers packed around the 64-bit word boundary and over registers up
/// to the highest a kernel can name.
#[test]
fn bitset_scoreboard_matches_a_set_model() {
    use gpu_isa::{AluOp, Instr, Operand, Reg};
    use gpu_sim::Scoreboard;
    use gpu_snapshot::{Decoder, Encoder, SnapshotError};
    use std::collections::BTreeSet;

    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x5C0B_0000 + case);
        let slots = rng.gen_range_usize(1, 6);
        // Odd cases crowd registers 56..72 so words 0 and 1 both fill.
        let (lo, hi) = if case % 2 == 1 {
            (56, 72)
        } else {
            (0, u32::from(Reg::MAX))
        };
        let reg = |rng: &mut Rng| rng.gen_range_u32(lo, hi) as Reg;
        let mut sb = Scoreboard::new(slots);
        let mut model = vec![BTreeSet::<Reg>::new(); slots];
        for step in 0..400 {
            let what = format!("case {case} step {step}");
            let w = rng.gen_range_usize(0, slots);
            let r = reg(&mut rng);
            match rng.gen_range_u32(0, 8) {
                0..=3 => {
                    sb.reserve(w, r);
                    model[w].insert(r);
                }
                4..=5 => {
                    // Half the releases hit a reserved register.
                    let r = match model[w].iter().next() {
                        Some(&held) if rng.gen_bool() => held,
                        _ => r,
                    };
                    sb.release(w, r);
                    model[w].remove(&r);
                }
                6 => {
                    sb.clear(w);
                    model[w].clear();
                }
                _ => {}
            }
            let (dst, a, b) = (reg(&mut rng), reg(&mut rng), reg(&mut rng));
            let instr = Instr::Alu {
                op: AluOp::Add,
                dst,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            };
            for (w, held) in model.iter().enumerate() {
                assert_eq!(
                    sb.can_issue(w, &instr),
                    ![dst, a, b].iter().any(|r| held.contains(r)),
                    "{what}: slot {w}"
                );
                assert_eq!(sb.pending_count(w), held.len(), "{what}: slot {w}");
                assert_eq!(sb.is_pending(w, r), held.contains(&r), "{what}: slot {w}");
            }
        }

        let mut want = Encoder::new();
        want.usize(slots);
        for held in &model {
            want.usize(held.len());
            for &r in held {
                want.u32(u32::from(r));
            }
        }
        let want = want.finish();
        let mut got = Encoder::new();
        sb.encode_state(&mut got);
        assert_eq!(got.finish(), want, "case {case}: encoding");

        // The bytes restore under a kernel that has the registers, and
        // under no kernel with fewer.
        let highest = model.iter().filter_map(|held| held.last()).max().copied();
        let mut back = Scoreboard::new(slots);
        let num_regs = highest.map_or(0, |r| r + 1);
        back.restore_state(&mut Decoder::open(&want).unwrap(), num_regs)
            .unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        let mut again = Encoder::new();
        back.encode_state(&mut again);
        assert_eq!(again.finish(), want, "case {case}: re-encoding");
        if let Some(highest) = highest {
            assert!(
                matches!(
                    back.restore_state(&mut Decoder::open(&want).unwrap(), highest),
                    Err(SnapshotError::InvalidValue(_))
                ),
                "case {case}: r{highest} restored into a {highest}-register kernel"
            );
        }
    }
}
