//! End-to-end behavioral tests of the timing simulator: functional
//! correctness under timing, divergence, barriers, atomics, local memory,
//! tracing, and degenerate (cache-less) configurations.

use gpu_isa::{AluOp, CmpOp, KernelBuilder, Launch, Space, Special, Width};
use gpu_mem::Stamp;
use gpu_sim::{Gpu, GpuConfig, SchedPolicy, SimError};
use gpu_workloads::vecadd;

fn vecadd_kernel() -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("vecadd");
    let a = b.param(0);
    let c = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let gtid = b.special(Special::GlobalTid);
    let p = b.setp(CmpOp::Lt, gtid, n);
    b.if_then(p, |b| {
        let off = b.shl(gtid, 2);
        let pa = b.add(a, off);
        let pb = b.add(c, off);
        let po = b.add(out, off);
        let va = b.ld_global(Width::W4, pa, 0);
        let vb = b.ld_global(Width::W4, pb, 0);
        let vo = b.add(va, vb);
        b.st_global(Width::W4, po, 0, vo);
    });
    b.exit();
    b.build().expect("valid kernel")
}

#[test]
fn vecadd_end_to_end() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let n = 1000u64;
    let a = gpu.alloc(4 * n, 128);
    let c = gpu.alloc(4 * n, 128);
    let out = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(a + 4 * i, i as u32);
        gpu.device_mut().write_u32(c + 4 * i, (2 * i) as u32);
    }
    let launch = Launch::new(8, 128, vec![a.get(), c.get(), out.get(), n]);
    gpu.launch(vecadd_kernel(), launch).unwrap();
    let summary = gpu.run(5_000_000).unwrap();
    for i in 0..n {
        assert_eq!(
            gpu.device().read_u32(out + 4 * i),
            (3 * i) as u32,
            "element {i}"
        );
    }
    assert!(summary.instructions > 0);
    assert_eq!(summary.ctas, 8);
    assert!(summary.ipc() > 0.0);
}

#[test]
fn gto_scheduler_also_completes() {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.scheduler = SchedPolicy::Gto;
    let mut gpu = Gpu::new(cfg);
    let n = 256u64;
    let a = gpu.alloc(4 * n, 128);
    let c = gpu.alloc(4 * n, 128);
    let out = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(a + 4 * i, 5);
        gpu.device_mut().write_u32(c + 4 * i, i as u32);
    }
    gpu.launch(
        vecadd_kernel(),
        Launch::new(2, 128, vec![a.get(), c.get(), out.get(), n]),
    )
    .unwrap();
    gpu.run(5_000_000).unwrap();
    for i in 0..n {
        assert_eq!(gpu.device().read_u32(out + 4 * i), 5 + i as u32);
    }
}

#[test]
fn cacheless_tesla_style_config_completes() {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.name = "cacheless".into();
    cfg.l1 = None;
    cfg.l2 = None;
    let mut gpu = Gpu::new(cfg);
    let n = 128u64;
    let a = gpu.alloc(4 * n, 128);
    let c = gpu.alloc(4 * n, 128);
    let out = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(a + 4 * i, 1);
        gpu.device_mut().write_u32(c + 4 * i, i as u32);
    }
    gpu.launch(
        vecadd_kernel(),
        Launch::new(1, 128, vec![a.get(), c.get(), out.get(), n]),
    )
    .unwrap();
    let s = gpu.run(5_000_000).unwrap();
    assert_eq!(s.l1_hits + s.l1_misses, 0, "no L1 present");
    assert_eq!(s.l2_hits + s.l2_misses, 0, "no L2 present");
    assert!(s.dram_serviced > 0);
    for i in 0..n {
        assert_eq!(gpu.device().read_u32(out + 4 * i), 1 + i as u32);
    }
}

#[test]
fn atomics_count_across_ctas() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let counter = gpu.alloc(4, 128);
    let mut b = KernelBuilder::new("count");
    let ctr = b.param(0);
    b.atom_add(Width::W4, ctr, 0, 1);
    b.exit();
    let kernel = b.build().unwrap();
    gpu.launch(kernel, Launch::new(20, 64, vec![counter.get()]))
        .unwrap();
    gpu.run(5_000_000).unwrap();
    assert_eq!(gpu.device().read_u32(counter), 20 * 64);
}

#[test]
fn barrier_and_shared_memory_reverse() {
    // Each CTA writes tid into shared[tid], barriers, then reads
    // shared[ntid-1-tid] and stores it to global.
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let block = 64u32;
    let out = gpu.alloc(4 * block as u64, 128);

    let mut b = KernelBuilder::new("reverse");
    let sbase = b.alloc_shared(4 * block as u64);
    let outp = b.param(0);
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NTidX);
    let soff = b.shl(tid, 2);
    let saddr = b.add(soff, sbase as i64);
    b.st(Space::Shared, Width::W4, saddr, 0, tid);
    b.bar();
    let nm1 = b.sub(ntid, 1);
    let rev = b.sub(nm1, tid);
    let roff = b.shl(rev, 2);
    let raddr = b.add(roff, sbase as i64);
    let v = b.ld(Space::Shared, Width::W4, raddr, 0);
    let goff = b.shl(tid, 2);
    let gaddr = b.add(outp, goff);
    b.st_global(Width::W4, gaddr, 0, v);
    b.exit();
    let kernel = b.build().unwrap();

    gpu.launch(kernel, Launch::new(1, block, vec![out.get()]))
        .unwrap();
    gpu.run(5_000_000).unwrap();
    for i in 0..block as u64 {
        assert_eq!(
            gpu.device().read_u32(out + 4 * i),
            (block as u64 - 1 - i) as u32,
            "element {i}"
        );
    }
}

#[test]
fn local_memory_roundtrip_through_pipeline() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let out = gpu.alloc(4 * 32, 128);
    let mut b = KernelBuilder::new("spill");
    let off = b.alloc_local(64);
    let outp = b.param(0);
    let tid = b.special(Special::TidX);
    let laddr = b.mov(off as i64);
    let v = b.mul(tid, 7);
    b.st(Space::Local, Width::W4, laddr, 0, v);
    let v2 = b.ld(Space::Local, Width::W4, laddr, 0);
    let goff = b.shl(tid, 2);
    let gaddr = b.add(outp, goff);
    b.st_global(Width::W4, gaddr, 0, v2);
    b.exit();
    let kernel = b.build().unwrap();
    gpu.launch(kernel, Launch::new(1, 32, vec![out.get()]))
        .unwrap();
    gpu.run(5_000_000).unwrap();
    for i in 0..32u64 {
        assert_eq!(gpu.device().read_u32(out + 4 * i), (i * 7) as u32);
    }
}

#[test]
fn divergent_kernel_under_timing() {
    // Odd lanes triple, even lanes increment, all through divergent paths.
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let n = 64u64;
    let buf = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(buf + 4 * i, i as u32);
    }
    let mut b = KernelBuilder::new("diverge");
    let base = b.param(0);
    let gtid = b.special(Special::GlobalTid);
    let parity = b.and(gtid, 1);
    let p = b.setp(CmpOp::Eq, parity, 0);
    let off = b.shl(gtid, 2);
    let addr = b.add(base, off);
    let v = b.ld_global(Width::W4, addr, 0);
    let res = b.reg();
    b.if_then_else(
        p,
        |b| b.alu_to(AluOp::Add, res, v, 1),
        |b| b.alu_to(AluOp::Mul, res, v, 3),
    );
    b.st_global(Width::W4, addr, 0, res);
    b.exit();
    gpu.launch(b.build().unwrap(), Launch::new(2, 32, vec![buf.get()]))
        .unwrap();
    gpu.run(5_000_000).unwrap();
    for i in 0..n {
        let expect = if i % 2 == 0 {
            i as u32 + 1
        } else {
            3 * i as u32
        };
        assert_eq!(gpu.device().read_u32(buf + 4 * i), expect, "element {i}");
    }
}

#[test]
fn tracing_collects_monotone_timelines() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let n = 512u64;
    let a = gpu.alloc(4 * n, 128);
    let c = gpu.alloc(4 * n, 128);
    let out = gpu.alloc(4 * n, 128);
    gpu.set_tracing(true);
    gpu.launch(
        vecadd_kernel(),
        Launch::new(4, 128, vec![a.get(), c.get(), out.get(), n]),
    )
    .unwrap();
    gpu.run(5_000_000).unwrap();
    let (requests, loads) = gpu.take_traces();
    assert!(!requests.is_empty(), "line fetches traced");
    assert!(!loads.is_empty(), "load instructions traced");
    for r in &requests {
        // Stamps that exist must be monotonically non-decreasing in
        // pipeline order.
        let mut last = None;
        for s in Stamp::ALL {
            if let Some(t) = r.timeline.get(s) {
                if let Some(prev) = last {
                    assert!(t >= prev, "stamp {s:?} out of order");
                }
                last = Some(t);
            }
        }
        assert!(r.timeline.is_complete(), "traced requests are complete");
        assert!(r.timeline.total_latency().unwrap() > 0);
    }
    for l in &loads {
        assert!(l.total() > 0);
        assert!(l.exposed <= l.total());
        assert!(l.lines >= 1);
    }
    // Each warp-level load coalesces to >= 1 line; the per-warp loads of
    // vecadd are fully coalesced (consecutive 4-byte accesses).
    assert!(loads.iter().all(|l| l.lines <= 2));
}

#[test]
fn timeout_is_reported() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let a = gpu.alloc(4 * 64, 128);
    let c = gpu.alloc(4 * 64, 128);
    let out = gpu.alloc(4 * 64, 128);
    gpu.launch(
        vecadd_kernel(),
        Launch::new(1, 64, vec![a.get(), c.get(), out.get(), 64]),
    )
    .unwrap();
    match gpu.run(10) {
        Err(SimError::Timeout { max_cycles: 10 }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn run_without_launch_errors() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    assert_eq!(gpu.run(100), Err(SimError::NothingLaunched));
}

#[test]
fn block_too_large_rejected() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let mut b = KernelBuilder::new("k");
    b.exit();
    let kernel = b.build().unwrap();
    // 48 warp slots * 32 lanes = 1536 threads max; ask for 1568+.
    let launch = Launch::new(1, 49 * 32, vec![]);
    match gpu.launch(kernel, launch) {
        Err(SimError::BlockTooLarge {
            needed: 49,
            available: 48,
        }) => {}
        other => panic!("expected BlockTooLarge, got {other:?}"),
    }
}

#[test]
fn grid_larger_than_machine_drains() {
    // More CTAs than can be resident at once: the dispatcher must stream.
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let counter = gpu.alloc(4, 128);
    let mut b = KernelBuilder::new("count");
    let ctr = b.param(0);
    b.atom_add(Width::W4, ctr, 0, 1);
    b.exit();
    let kernel = b.build().unwrap();
    // 15 SMs * 8 CTA slots = 120 resident max; launch 400 CTAs.
    gpu.launch(kernel, Launch::new(400, 32, vec![counter.get()]))
        .unwrap();
    let s = gpu.run(10_000_000).unwrap();
    assert_eq!(gpu.device().read_u32(counter), 400 * 32);
    assert_eq!(s.ctas, 400);
}

#[test]
fn l1_captures_rereferenced_lines() {
    // Two dependent reads of the same small array: second pass hits in L1.
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let n = 32u64;
    let buf = gpu.alloc(4 * n, 128);
    let out = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(buf + 4 * i, i as u32);
    }
    let mut b = KernelBuilder::new("reread");
    let basep = b.param(0);
    let outp = b.param(1);
    let tid = b.special(Special::TidX);
    let off = b.shl(tid, 2);
    let addr = b.add(basep, off);
    let v1 = b.ld_global(Width::W4, addr, 0);
    // Make the second load data-dependent on the first so it issues after
    // the fill completes (otherwise it would MSHR-merge, not hit).
    let zero = b.and(v1, 0);
    let addr2 = b.add(addr, zero);
    let v2 = b.ld_global(Width::W4, addr2, 0);
    let s = b.add(v1, v2);
    let oaddr = b.add(outp, off);
    b.st_global(Width::W4, oaddr, 0, s);
    b.exit();
    gpu.launch(
        b.build().unwrap(),
        Launch::new(1, n as u32, vec![buf.get(), out.get()]),
    )
    .unwrap();
    let summary = gpu.run(5_000_000).unwrap();
    assert!(summary.l1_hits >= 1, "second load should hit: {summary:?}");
    for i in 0..n {
        assert_eq!(gpu.device().read_u32(out + 4 * i), 2 * i as u32);
    }
}

#[test]
fn missing_params_rejected_at_launch() {
    let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
    let mut b = KernelBuilder::new("needs_params");
    let _ = b.param(0);
    let _ = b.param(3);
    b.exit();
    let kernel = b.build().unwrap();
    match gpu.launch(kernel, Launch::new(1, 32, vec![1, 2])) {
        Err(SimError::MissingParams {
            needed: 4,
            supplied: 2,
        }) => {}
        other => panic!("expected MissingParams, got {other:?}"),
    }
}

/// GF100 whose write-back L2 is one two-way set per partition: vecadd's
/// loads keep both ways reserved by in-flight fills, and a store that
/// finds its set so waits for a fill to free a way.
#[test]
fn a_store_waiting_for_a_reserved_way_misses_once() {
    let mut cfg = GpuConfig::fermi_gf100();
    let l2 = cfg.l2.as_mut().expect("gf100 has an L2");
    l2.write_policy = gpu_sim::WritePolicy::WriteBack;
    (l2.cache.sets, l2.cache.ways) = (1, 2);
    let mut gpu = Gpu::new(cfg);
    let dev = vecadd::setup(&mut gpu, 16_384);
    let summary = vecadd::run(&mut gpu, &dev, 256).unwrap();
    vecadd::verify(&gpu, &dev);
    // Every line is touched once: 1 024 load lines and 512 store lines,
    // each one L2 miss however long it waited for its way.
    assert_eq!((summary.l2_hits, summary.l2_misses), (0, 1536));
}
