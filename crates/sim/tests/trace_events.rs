//! End-to-end tests of the observability layer: event tracing must never
//! perturb timing, the exported Chrome-trace spans must tile each
//! request's Timeline lifetime exactly, every store and writeback keeps its
//! hops, and the traced stall intervals must add up to the stall counters.

mod skip_harness;

use gpu_isa::{KernelBuilder, Launch, Special, Width};
use gpu_mem::Stamp;
use gpu_sim::{Gpu, GpuConfig, MetricsReport, RunSummary, StallReason, TraceSite, WritePolicy};
use gpu_trace::{json, ChromeTraceBuilder, EventKind};

fn small_config() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
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

fn run_copy(gpu: &mut Gpu, n: u64) -> RunSummary {
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
    gpu.run(10_000_000).expect("run drains")
}

#[test]
fn event_tracing_is_cycle_identical() {
    let mut plain = Gpu::new(small_config());
    let mut traced = Gpu::new(small_config());
    traced.set_event_tracing(true);

    let a = run_copy(&mut plain, 2048);
    let b = run_copy(&mut traced, 2048);

    assert_eq!(a.cycles, b.cycles, "tracing must not perturb timing");
    // Everything except the tracer's own bookkeeping (and wall clock) must
    // match exactly.
    let normalized = RunSummary {
        metrics: MetricsReport {
            host_nanos: a.metrics.host_nanos,
            samples: a.metrics.samples,
            counters: a.metrics.counters,
            events_recorded: a.metrics.events_recorded,
            events_dropped: a.metrics.events_dropped,
            ..b.metrics
        },
        ..b
    };
    assert_eq!(a, normalized);

    assert_eq!(plain.tracer().events_recorded(), 0);
    assert!(traced.tracer().events_recorded() > 0);
}

#[test]
fn enabled_run_emits_the_event_taxonomy() {
    let mut cfg = small_config();
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = 16;
    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true);
    let summary = run_copy(&mut gpu, 2048);
    let data = gpu.take_trace();
    let (requests, _) = gpu.take_traces();

    assert!(!data.events.is_empty());
    assert!(!data.samples.is_empty());
    assert_eq!(data.dropped_events, 0);
    assert_eq!(summary.metrics.events_recorded, data.events.len() as u64);
    assert!(summary.metrics.samples >= data.samples.len() as u64);

    let mut seen = std::collections::BTreeSet::new();
    for e in &data.events {
        seen.insert(e.kind.name());
    }
    for kind in ["coalesce", "mshr_alloc", "mshr_fill", "row_activate"] {
        assert!(seen.contains(kind), "missing event kind {kind}: {seen:?}");
    }
    // Events are recorded in simulation order.
    assert!(data.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // A hop is a stamp, not an event: loads and the copy's stores both
    // reach the DRAM queue on their timelines.
    let queued = |t: &gpu_mem::Timeline| t.get(Stamp::DramQueueEnter).is_some();
    assert!(requests.iter().any(|r| queued(&r.timeline)));
    assert!(!data.writes.is_empty() && data.writes.iter().all(|w| queued(&w.timeline)));
}

#[test]
fn exported_spans_tile_each_request_lifetime() {
    let mut cfg = small_config();
    cfg.trace.enabled = true;
    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true); // latency sink: collect completed timelines
    run_copy(&mut gpu, 2048);

    let (requests, _) = gpu.take_traces();
    assert!(!requests.is_empty());
    let data = gpu.take_trace();
    assert!(!data.writes.is_empty(), "the copy's stores retire");

    let mut builder = ChromeTraceBuilder::new(2, 2);
    for (i, r) in requests.iter().enumerate() {
        builder.add_request_span(TraceSite::Sm(r.sm.get()), i as u64, &r.timeline);
    }
    for (i, w) in data.writes.iter().enumerate() {
        let id = (requests.len() + i) as u64;
        builder.add_request_span(TraceSite::Partition(w.partition), id, &w.timeline);
    }
    for e in &data.events {
        builder.add_event(e);
    }
    for s in &data.samples {
        builder.add_counter_sample(s);
    }
    let json_text = builder.finish();
    let doc = json::parse(&json_text).expect("exported trace must be valid JSON");
    let verified = gpu_trace::check_span_sums(&doc).expect("span stage sums must tile lifetimes");
    let complete = requests.iter().filter(|r| r.timeline.is_complete()).count();
    assert_eq!(verified, (complete + data.writes.len()) as u64);
}

#[test]
fn stores_and_writebacks_keep_their_dram_hops() {
    // A write-back L2 absorbs every store; the dirty lines it evicts go to
    // DRAM as writebacks born at the partition. GF100 with its L2 cut to
    // 4 sets a partition evicts on a 1024-node BFS.
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.trace.enabled = true;
    let l2 = cfg.l2.as_mut().expect("GF100 has an L2");
    l2.write_policy = WritePolicy::WriteBack;
    l2.cache.sets = 4;
    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true);
    let mut last = None;
    skip_harness::mask_bfs(1024, 6, 20150301, 64)(&mut gpu, &mut |gpu| {
        last = Some(gpu.run(skip_harness::MAX_CYCLES).expect("run drains"));
    });
    let serviced = last.expect("BFS launches").dram_serviced;
    let (requests, _) = gpu.take_traces();
    let writes = gpu.take_trace().writes;

    let dram = [Stamp::DramQueueEnter, Stamp::DramScheduled, Stamp::DramDone];
    let (mut stores, mut writebacks) = (0, 0);
    for w in &writes {
        let t = &w.timeline;
        let [queued, scheduled, done] = dram.map(|s| t.get(s));
        if t.get(Stamp::IcntInject).is_some() {
            // A store: absorbed where the L2 served it.
            assert!(
                t.get(Stamp::L2Served).is_some(),
                "store not absorbed: {t:?}"
            );
            assert_eq!((queued, scheduled, done), (None, None, None), "{t:?}");
            stores += 1;
        } else {
            let (Some(q), Some(s), Some(d)) = (queued, scheduled, done) else {
                panic!("writeback without its DRAM hops: {t:?}")
            };
            assert!(q <= s && s <= d, "writeback hops out of order: {t:?}");
            writebacks += 1;
        }
    }
    assert!(
        stores > 0 && writebacks > 0,
        "{stores} stores, {writebacks} writebacks"
    );

    // Every DRAM service has one retired record: a load's own, or a
    // writeback's. An L2-merged waiter rides on its primary's service, and
    // is stamped scheduled and done at the primary's completion.
    let own_service = |t: &gpu_mem::Timeline| {
        let (scheduled, done) = (t.get(Stamp::DramScheduled), t.get(Stamp::DramDone));
        matches!((scheduled, done), (Some(s), Some(d)) if s < d)
    };
    let loads = requests.iter().filter(|r| own_service(&r.timeline)).count();
    assert_eq!((loads + writebacks) as u64, serviced);
}

#[test]
fn stall_attribution_sums_to_stall_cycles() {
    let mut gpu = Gpu::new(small_config());
    let summary = run_copy(&mut gpu, 2048);

    let mut total = 0;
    for st in gpu.sm_stats() {
        assert_eq!(
            st.stalls.total(),
            st.stall_cycles,
            "every stall cycle must be attributed to a reason"
        );
        total += st.stall_cycles;
    }
    assert!(total > 0, "a memory-bound copy must stall somewhere");
    assert_eq!(summary.metrics.stalls.total(), total);
}

#[test]
fn per_load_stall_reasons_are_bounded_by_lifetime() {
    let mut gpu = Gpu::new(small_config());
    gpu.set_tracing(true);
    run_copy(&mut gpu, 2048);
    let (_, loads) = gpu.take_traces();
    assert!(!loads.is_empty());
    for l in &loads {
        assert_eq!(l.stall_reasons.total(), l.exposed);
        assert!(l.exposed <= l.total());
        assert!(l.exposed_fraction() <= 1.0);
    }
}

#[test]
fn stall_intervals_add_up_to_each_sms_stall_counters() {
    // A full 15-SM GF100 running the mask BFS, every event kept: for each
    // (SM, reason) the `Stall` intervals' lengths sum to that SM's stall
    // cycles for the reason, and one SM's intervals never overlap.
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.trace.enabled = true;
    let mut gpu = Gpu::new(cfg);
    skip_harness::mask_bfs(1024, 6, 20150301, 64)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("run drains");
    });
    let stats = gpu.sm_stats();
    let data = gpu.take_trace();
    assert_eq!(data.dropped_events, 0);
    assert!(data.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));

    let mut summed = vec![[0u64; StallReason::COUNT]; stats.len()];
    let mut ends = vec![0u64; stats.len()];
    let mut intervals = 0;
    for e in &data.events {
        let (EventKind::Stall { reason, cycles }, TraceSite::Sm(sm)) = (e.kind, e.site) else {
            continue;
        };
        let sm = sm as usize;
        assert!(cycles > 0, "an empty interval at {e:?}");
        assert!(e.cycle - cycles >= ends[sm], "SM {sm}: {e:?} overlaps");
        ends[sm] = e.cycle;
        summed[sm][reason.index()] += cycles;
        intervals += 1;
    }
    let total: u64 = stats.iter().map(|s| s.stall_cycles).sum();
    assert!(
        total > 10 * intervals,
        "{intervals} intervals for {total} stall cycles"
    );
    for (sm, s) in stats.iter().enumerate() {
        for reason in StallReason::ALL {
            assert_eq!(
                summed[sm][reason.index()],
                s.stalls.get(reason),
                "SM {sm}, {}",
                reason.name()
            );
        }
    }
}
