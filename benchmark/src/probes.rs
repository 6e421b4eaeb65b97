//! Layer probes of the traced pass: each drives one crate's public
//! functions directly, with inputs drawn from the pass's seed, and reports
//! a host rate or a host time per call. They run after the measured rounds
//! of every workload, so a layer's number is there to read whichever
//! workload a change was aimed at.
//!
//! Every probe does a fixed amount of work; together they take about eight
//! seconds.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gpu_icnt::Crossbar;
use gpu_isa::{
    parse_kernel, AluOp, CmpOp, Kernel, KernelBuilder, Launch, LocalMap, MemBackend, Operand,
    Space, Special, ThreadCtx, WarpExec, Width,
};
use gpu_mem::{
    AccessKind, Cache, DeviceMemory, DramController, LoadOutcome, MemRequest, MshrTable,
    PipelineSpace, RequestId,
};
use gpu_serve::{parse_request, JobSpec};
use gpu_sim::{ArchDesc, CheckpointPolicy, Gpu, GpuConfig};
use gpu_snapshot::{store, Decoder, Encoder, StableHasher};
use gpu_trace::chrome::ChromeTraceBuilder;
use gpu_types::{Addr, Cycle, SmId};
use gpu_workloads::bfs::{self, BfsMaskOutcome};
use gpu_workloads::Graph;
use latency_bench::builtin_kernels;
use latency_check::{analyze, kernel_cost, AnalysisConfig};
use latency_core::cache::{lookup_chase, store_chase};
use latency_core::{
    build_chase_kernel, cache_stats, infer_hierarchy, measure_chase, reset_cache_stats,
    write_chain, ArchPreset, ChaseParams, ChaseSpace, Sweep,
};

use crate::runner::PassArgs;
use crate::schema::MetricSet;
use crate::stats::median;

/// Median seconds per call of `f`, from `reps` timed batches of `batch`
/// calls each.
fn per_call_s(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Runs every probe into `out`.
///
/// # Errors
///
/// A probe whose self-check fails (a restored snapshot finishing on another
/// `content_hash`, a kernel that does not survive its own disassembly).
pub fn run(
    machine: &GpuConfig,
    args: &PassArgs,
    scratch: &Path,
    out: &mut MetricSet,
) -> Result<(), String> {
    let quick = args.quick;
    // The address stream of the mem and icnt probes: the byte addresses a
    // BFS over the seed's uniform graph touches in its cost array, one per
    // edge — scattered, with the reuse a real frontier has.
    let stream: Vec<u64> = Graph::uniform_random(if quick { 8192 } else { 65536 }, 4, args.seed)
        .cols()
        .iter()
        .map(|&node| node as u64 * 4)
        .collect();
    sim(machine, out);
    isa(out)?;
    mem(&stream, quick, out);
    icnt(&stream, quick, out);
    arch(&machine.arch_desc(), out);
    bfs_variants(args, scratch, out)?;
    core(quick, scratch, out);
    check(out);
    serve(out);
    Ok(())
}

fn sim(machine: &GpuConfig, out: &mut MetricSet) {
    out.set(
        "sim.gpu_new_ms",
        per_call_s(9, 1, || {
            black_box(Gpu::new(machine.clone()));
        }) * 1e3,
    );
    // Launching hashes the kernel and device memory into `content_hash`.
    let params = ChaseParams::global(64 << 10, 128);
    let kernel = build_chase_kernel(&params);
    let launches: Vec<f64> = (0..9)
        .map(|_| {
            let mut gpu = Gpu::new(machine.clone());
            let base = gpu.alloc(params.footprint, machine.line_size);
            let sink = gpu.alloc(8, machine.line_size);
            write_chain(&mut gpu, base, params.count(), params.stride);
            let launch = Launch::new(1, 1, vec![base.get(), 16, sink.get()]);
            timed(|| {
                gpu.launch(kernel.clone(), launch)
                    .expect("chase kernel launches")
            })
            .0
        })
        .collect();
    out.set("sim.launch_us", median(&launches) * 1e6);
}

/// Flat byte memory for the functional executor; addresses wrap.
struct FlatMem(Vec<u8>);

impl MemBackend for FlatMem {
    fn load(&mut self, _: Space, addr: Addr, width: Width) -> u64 {
        (0..width.bytes()).fold(0, |v, i| {
            v | (self.0[(addr.get() + i) as usize % self.0.len()] as u64) << (8 * i)
        })
    }

    fn store(&mut self, _: Space, addr: Addr, width: Width, value: u64) {
        let len = self.0.len();
        for i in 0..width.bytes() {
            self.0[(addr.get() + i) as usize % len] = (value >> (8 * i)) as u8;
        }
    }

    fn atomic_add(&mut self, addr: Addr, width: Width, value: u64) -> u64 {
        let old = self.load(Space::Global, addr, width);
        self.store(Space::Global, addr, width, old.wrapping_add(value));
        old
    }
}

/// Straight-line ALU, divergent and load/store loops: the three shapes of
/// warp instruction the functional executor interprets.
fn executor_kernels() -> Vec<Kernel> {
    const ITERS: i64 = 256;
    let mut alu = KernelBuilder::new("alu_loop");
    let acc = alu.mov(1i64);
    alu.for_range(Operand::Imm(0), Operand::Imm(ITERS), 1, |b, i| {
        b.alu_to(AluOp::Add, acc, acc, i);
        b.alu_to(AluOp::Xor, acc, acc, 0x5555);
        b.alu_to(AluOp::Mul, acc, acc, 3);
        b.alu_to(AluOp::Shr, acc, acc, 1);
    });
    alu.exit();

    let mut divergent = KernelBuilder::new("divergent_loop");
    let lane = divergent.special(Special::LaneId);
    let acc = divergent.mov(0i64);
    divergent.for_range(Operand::Imm(0), Operand::Imm(ITERS), 1, |b, i| {
        let parity = b.and(lane, 1);
        let even = b.setp(CmpOp::Eq, parity, 0);
        b.if_then_else(
            even,
            |b| b.alu_to(AluOp::Add, acc, acc, i),
            |b| b.alu_to(AluOp::Sub, acc, acc, i),
        );
    });
    divergent.exit();

    let mut memory = KernelBuilder::new("memory_loop");
    let lane = memory.special(Special::LaneId);
    let addr = memory.shl(lane, 3);
    memory.for_range(Operand::Imm(0), Operand::Imm(ITERS), 1, |b, _| {
        let v = b.ld_global(Width::W8, addr, 0);
        let v = b.add(v, 1);
        b.st_global(Width::W8, addr, 0, v);
    });
    memory.exit();

    [alu, divergent, memory]
        .into_iter()
        .map(|b| b.build().expect("probe kernels are well-formed"))
        .collect()
}

fn execute_warp(kernel: &Arc<Kernel>, mem: &mut FlatMem) -> u64 {
    let ctxs = (0..32)
        .map(|i| ThreadCtx {
            tid: i,
            ctaid: 0,
            ntid: 32,
            nctaid: 1,
            lane: i,
        })
        .collect();
    let mut warp = WarpExec::new(Arc::clone(kernel), Arc::from([]), ctxs, LocalMap::default());
    while !warp.is_finished() {
        if warp.at_barrier() {
            warp.release_barrier();
        }
        warp.step(mem);
    }
    warp.instructions_executed()
}

fn isa(out: &mut MetricSet) -> Result<(), String> {
    let kernels: Vec<Arc<Kernel>> = executor_kernels().into_iter().map(Arc::new).collect();
    let mut mem = FlatMem(vec![0; 4096]);
    let mut instructions = 0;
    let seconds = per_call_s(9, 1, || {
        instructions = kernels.iter().map(|k| execute_warp(k, &mut mem)).sum();
    });
    out.set("isa.exec_instr_per_s", instructions as f64 / seconds);

    out.set(
        "isa.build_kernels_us",
        per_call_s(9, 4, || {
            black_box(builtin_kernels());
        }) * 1e6,
    );
    let builtin = builtin_kernels();
    for kernel in &builtin {
        let reparsed = parse_kernel(&kernel.to_string())
            .map_err(|e| format!("kernel {} does not reparse: {e:?}", kernel.name()))?;
        if reparsed.instrs() != kernel.instrs() {
            return Err(format!(
                "kernel {} changed in the round trip",
                kernel.name()
            ));
        }
    }
    out.set(
        "isa.asm_roundtrip_us",
        per_call_s(9, 2, || {
            for kernel in &builtin {
                black_box(parse_kernel(&kernel.to_string()).is_ok());
            }
        }) * 1e6,
    );
    Ok(())
}

fn cache_ops_per_s(mut cache: Cache, stream: &[u64]) -> f64 {
    let (seconds, _) = timed(|| {
        for &a in stream {
            let addr = Addr::new(a);
            if cache.load(addr) == LoadOutcome::Miss && cache.reserve(addr) {
                cache.fill(addr);
            }
        }
        black_box(cache.hits())
    });
    stream.len() as f64 / seconds
}

fn mem(stream: &[u64], quick: bool, out: &mut MetricSet) {
    let gf100 = ArchPreset::FermiGf100.config();
    let gv100 = ArchPreset::VoltaGv100.config();
    let (l1, sectored) = (
        gf100.l1.expect("gf100 has an L1"),
        gv100.l1.expect("gv100 has an L1"),
    );
    out.set(
        "mem.cache_ops_per_s",
        cache_ops_per_s(Cache::new(l1.cache), stream),
    );
    out.set(
        "mem.cache_sectored_ops_per_s",
        cache_ops_per_s(
            Cache::with_sectors(sectored.cache, sectored.sector_bytes),
            stream,
        ),
    );

    // MSHRs: merge into a pending line, else allocate, retiring the oldest
    // line when the table is full.
    let mut table: MshrTable<u32> = MshrTable::new(l1.mshr);
    let mut pending = VecDeque::new();
    let (seconds, _) = timed(|| {
        for (i, &a) in stream.iter().enumerate() {
            let line = Addr::new(a).align_down(gf100.line_size);
            if table.is_pending(line) {
                let _ = table.try_merge(line, i as u32);
                continue;
            }
            if !table.can_allocate() {
                let oldest = pending.pop_front().expect("a full table has pending lines");
                black_box(table.fill(oldest));
            }
            table.allocate(line);
            pending.push_back(line);
        }
    });
    out.set("mem.mshr_ops_per_s", stream.len() as f64 / seconds);

    // One DRAM channel kept as full as its queue allows.
    let requests = if quick { 500 } else { 4000 };
    let mut dram = DramController::new(gf100.dram, gf100.address_map());
    let (seconds, _) = timed(|| {
        let (mut now, mut next, mut done) = (Cycle::ZERO, 0, 0);
        while done < requests {
            while next < requests && dram.can_accept() {
                let addr = Addr::new(stream[next % stream.len()] * 32).align_down(gf100.line_size);
                dram.enqueue(
                    MemRequest::new(
                        RequestId::new(next as u64),
                        addr,
                        gf100.line_size as u32,
                        AccessKind::Load,
                        PipelineSpace::Global,
                        SmId::new(0),
                        0,
                        now,
                    ),
                    now,
                );
                next += 1;
            }
            done += dram.tick(now).len();
            now.tick();
        }
    });
    out.set("mem.dram_req_per_s", requests as f64 / seconds);

    let words: Vec<u32> = (0..1 << 18).collect();
    let mut device = DeviceMemory::new();
    let base = device.alloc(4 * words.len() as u64, 128);
    let seconds = per_call_s(5, 1, || {
        device.write_u32_slice(base, &words);
        black_box(device.read_u32_slice(base, words.len()));
    });
    out.set(
        "mem.device_rw_mb_per_s",
        8.0 * words.len() as f64 / 1e6 / seconds,
    );
}

/// Every SM injects toward a stream-drawn partition each cycle and every
/// partition ejects what has arrived, on the gf100 (15×6) and gv100 (80×8)
/// request crossbars.
fn icnt(stream: &[u64], quick: bool, out: &mut MetricSet) {
    let cycles = if quick { 500 } else { 3000 };
    let (mut flits, mut seconds) = (0u64, 0.0);
    for config in [
        ArchPreset::FermiGf100.config(),
        ArchPreset::VoltaGv100.config(),
    ] {
        let (sources, dests) = (config.num_sms, config.num_partitions);
        let mut net: Crossbar<u64> = Crossbar::new(sources, dests, config.icnt);
        let (s, delivered) = timed(|| {
            let (mut now, mut k, mut delivered) = (Cycle::ZERO, 0usize, 0u64);
            for _ in 0..cycles {
                net.begin_cycle();
                for src in 0..sources {
                    let dst = stream[k % stream.len()] as usize / 4 % dests;
                    k += 1;
                    let _ = net.try_inject(src, dst, k as u64, now);
                }
                for dst in 0..dests {
                    while net.eject(dst, now).is_some() {
                        delivered += 1;
                    }
                }
                now.tick();
            }
            delivered
        });
        flits += delivered;
        seconds += s;
    }
    out.set("icnt.flits_per_s", flits as f64 / seconds);
}

fn arch(desc: &ArchDesc, out: &mut MetricSet) {
    out.set(
        "arch.validate_us",
        per_call_s(9, 50, || {
            black_box(desc.validate().is_ok());
        }) * 1e6,
    );
    out.set(
        "arch.encode_decode_us",
        per_call_s(9, 50, || {
            let mut e = Encoder::new();
            desc.encode_state(&mut e);
            let bytes = e.finish();
            let mut d = Decoder::open(&bytes).expect("own frame opens");
            black_box(ArchDesc::decode(&mut d).is_ok());
        }) * 1e6,
    );
    out.set(
        "arch.hash_desc_us",
        per_call_s(9, 50, || {
            let mut h = StableHasher::new();
            desc.hash_desc(&mut h);
            black_box(h.finish());
        }) * 1e6,
    );
    out.set(
        "arch.lower_us",
        per_call_s(9, 50, || {
            black_box(GpuConfig::from_arch(desc).is_ok());
        }) * 1e6,
    );
}

/// A checkpoint-driver BFS on the full gf100, run `runs` times and timed at
/// its fastest (the same defence against a busy host the rounds use);
/// `tweak` adjusts each GPU before its run.
fn probe_bfs(
    runs: usize,
    graph: &Graph,
    mut config: GpuConfig,
    sanitize: bool,
    policy: &CheckpointPolicy,
    tweak: impl Fn(&mut Gpu),
) -> Result<(f64, Gpu, BfsMaskOutcome), String> {
    config.sanitize = sanitize;
    let mut fastest: Option<(f64, Gpu, BfsMaskOutcome)> = None;
    for _ in 0..runs {
        let mut gpu = Gpu::new(config.clone());
        let dev = bfs::upload_graph_mask(&mut gpu, graph);
        tweak(&mut gpu);
        let (seconds, outcome) =
            timed(|| bfs::run_bfs_mask_checkpointed(&mut gpu, &dev, 0, 128, policy));
        let outcome = outcome.map_err(|e| format!("probe BFS failed: {e}"))?;
        if matches!(outcome, BfsMaskOutcome::Completed(_))
            && bfs::read_costs(&gpu, &dev) != graph.bfs_levels(0)
        {
            return Err("probe BFS computed wrong levels".to_string());
        }
        if fastest.as_ref().is_none_or(|f| seconds < f.0) {
            fastest = Some((seconds, gpu, outcome));
        }
    }
    fastest.ok_or_else(|| "probe BFS asked for zero runs".to_string())
}

/// The same BFS run six ways — plain, sanitizer off, event tracing on,
/// checkpointing every 5000 cycles, two tick threads, and killed half way
/// then snapshotted, restored and resumed — each compared with the plain
/// run.
fn bfs_variants(args: &PassArgs, scratch: &Path, out: &mut MetricSet) -> Result<(), String> {
    let (nodes, runs) = if args.quick { (64, 1) } else { (768, 3) };
    let graph = Graph::uniform_random(nodes, 8, args.seed);
    let config = ArchPreset::FermiGf100.config();
    let dir = scratch.join("probe-ckpt");
    let off = CheckpointPolicy::new(0, &dir);

    let (plain_s, plain, _) = probe_bfs(runs, &graph, config.clone(), true, &off, |_| {})?;
    let plain = plain.summary();

    let (unsanitized_s, ..) = probe_bfs(runs, &graph, config.clone(), false, &off, |_| {})?;
    out.set(
        "sim.sanitizer_overhead_share",
        plain_s / unsanitized_s - 1.0,
    );

    let (traced_s, mut traced, _) = probe_bfs(runs, &graph, config.clone(), true, &off, |g| {
        g.set_event_tracing(true)
    })?;
    out.set("trace.event_overhead_share", traced_s / plain_s - 1.0);
    let trace = traced.take_trace();
    out.set(
        "trace.events_per_cycle",
        trace.events.len() as f64 / plain.cycles as f64,
    );
    let (export_s, text) = timed(|| {
        let mut chrome =
            ChromeTraceBuilder::new(config.num_sms as u32, config.num_partitions as u32);
        for event in &trace.events {
            chrome.add_event(event);
        }
        for sample in &trace.samples {
            chrome.add_counter_sample(sample);
        }
        chrome.finish()
    });
    out.set(
        "trace.chrome_export_mb_per_s",
        text.len() as f64 / 1e6 / export_s,
    );

    let every = CheckpointPolicy::new(5000, &dir);
    let (checkpointed_s, ..) = probe_bfs(runs, &graph, config.clone(), true, &every, |_| {})?;
    out.set(
        "snapshot.checkpoint_overhead_share",
        checkpointed_s / plain_s - 1.0,
    );

    let (parallel_s, parallel, _) = probe_bfs(runs, &graph, config.clone(), true, &off, |g| {
        g.set_tick_threads(2)
    })?;
    if parallel.summary().content_hash != plain.content_hash {
        return Err("two tick threads changed content_hash".to_string());
    }
    out.set("sim.tick_par2_speedup", plain_s / parallel_s);

    let mut kill = off.clone();
    kill.kill_at = Some(plain.cycles / 2);
    let (_, killed, outcome) = probe_bfs(runs, &graph, config, true, &kill, |_| {})?;
    if !matches!(outcome, BfsMaskOutcome::Killed { .. }) {
        return Err("probe BFS ignored its kill switch".to_string());
    }
    let (encode_s, bytes) = timed(|| killed.snapshot());
    let (decode_s, restored) = timed(|| Gpu::restore(&bytes));
    let mut restored = restored.map_err(|e| format!("snapshot does not restore: {e}"))?;
    bfs::resume_bfs_mask(&mut restored, &off).map_err(|e| format!("resume failed: {e}"))?;
    let resumed = restored.summary();
    if (resumed.content_hash, resumed.cycles) != (plain.content_hash, plain.cycles) {
        return Err("restored run finished on another content_hash".to_string());
    }
    let mb = bytes.len() as f64 / 1e6;
    out.set("snapshot.gpu_bytes", bytes.len() as f64);
    out.set("snapshot.encode_mb_per_s", mb / encode_s);
    out.set("snapshot.decode_mb_per_s", mb / decode_s);

    let payload = vec![0xA5u8; 4096];
    let target = dir.join("write-atomic.bin");
    out.set(
        "snapshot.write_atomic_us",
        per_call_s(9, 10, || {
            store::write_atomic(&target, &payload).expect("scratch dir is writable");
        }) * 1e6,
    );
    Ok(())
}

fn core(quick: bool, scratch: &Path, out: &mut MetricSet) {
    let config = ArchPreset::FermiGf106.config_microbench();
    let params = ChaseParams::global(64 << 10, 128);
    let mut gpu = Gpu::new(config.clone());
    let base = gpu.alloc(params.footprint, config.line_size);
    out.set(
        "core.chase_build_us",
        per_call_s(9, 4, || {
            black_box(build_chase_kernel(&params));
            write_chain(&mut gpu, base, params.count(), params.stride);
        }) * 1e6,
    );

    let top = if quick { 16 << 10 } else { 32 << 10 };
    let (seconds, levels) = timed(|| infer_hierarchy(&config, ChaseSpace::Global, 2048, 4096, top));
    assert!(
        levels.is_ok_and(|l| !l.is_empty()),
        "inference found no level"
    );
    out.set("core.inference_ms", seconds * 1e3);

    // The chase cache, entry by entry, then under a small sweep.
    let dir = scratch.join("probe-cache");
    let measurement = measure_chase(&config, &ChaseParams::global(2048, 512)).expect("tiny chase");
    let mut key = 0u64;
    out.set(
        "core.cache_store_us",
        per_call_s(9, 8, || {
            key += 1;
            store_chase(&dir, key, &measurement);
        }) * 1e6,
    );
    let stored = key;
    out.set(
        "core.cache_lookup_us",
        per_call_s(9, 8, || {
            key = key % stored + 1;
            black_box(lookup_chase(&dir, key));
        }) * 1e6,
    );
    let (footprints, strides) = ([4096, 8192, 16384], [512, 2048]);
    let sweep = || Sweep::run(&config, ChaseSpace::Global, &footprints, &strides).expect("sweep");
    latency_core::set_cache_dir(scratch.join("probe-sweep-cache"));
    let cold = sweep();
    reset_cache_stats();
    let (warm_s, warm) = timed(sweep);
    assert_eq!(cold, warm, "warm sweep must reproduce the cold one");
    out.set("core.warm_sweep_ms", warm_s * 1e3);
    out.set("core.cache_hit_rate", cache_stats().hit_rate());
    latency_core::disable_cache();

    // Two grid workers against one on the same sweep, cache off.
    let (one_s, _) = timed(sweep);
    latency_core::set_worker_count(2);
    let (two_s, _) = timed(sweep);
    latency_core::set_worker_count(1);
    out.set("core.par_map_efficiency", one_s / (2.0 * two_s));
}

/// The static analyzer over every builtin kernel, against the three
/// machines the simulator workloads use.
fn check(out: &mut MetricSet) {
    let kernels = builtin_kernels();
    let descs: Vec<ArchDesc> = [
        ArchPreset::FermiGf100,
        ArchPreset::MaxwellGm107,
        ArchPreset::VoltaGv100,
    ]
    .iter()
    .map(|p| p.desc())
    .collect();
    let (seconds, _) = timed(|| {
        for desc in &descs {
            let config = AnalysisConfig {
                line_size: desc.line_size,
                warp_size: desc.sm.warp_size,
                ..AnalysisConfig::default()
            };
            for kernel in &kernels {
                black_box(analyze(kernel, &config));
            }
        }
    });
    out.set("check.analyze_ms", seconds * 1e3);
    let (seconds, _) = timed(|| {
        for desc in &descs {
            for kernel in &kernels {
                black_box(kernel_cost(kernel, desc));
            }
        }
    });
    out.set("check.cost_ms", seconds * 1e3);
}

fn serve(out: &mut MetricSet) {
    let spec =
        "{\"preset\":\"gf106\",\"sweep\":{\"footprints\":[2048,4096,8192,16384,32768,65536],\
                \"strides\":[128,512,1024]}}";
    out.set(
        "serve.spec_parse_us",
        per_call_s(9, 20, || {
            black_box(JobSpec::parse_str(spec).is_ok());
        }) * 1e6,
    );
    let request = format!("{{\"cmd\":\"submit\",\"watch\":true,\"spec\":{spec}}}");
    out.set(
        "serve.request_parse_us",
        per_call_s(9, 20, || {
            black_box(parse_request(&request).is_ok());
        }) * 1e6,
    );
}
