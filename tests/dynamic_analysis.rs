//! End-to-end dynamic-latency analysis (paper §III) on a scaled-down BFS:
//! the full chain graph → kernels → timing simulation → request timelines →
//! Figure-1 breakdown and Figure-2 exposure, with the paper's qualitative
//! observations asserted as invariants.

use gpu_mem::Stamp;
use gpu_sim::{Gpu, GpuConfig, LevelKind};
use gpu_workloads::{bfs, graph::Graph};
use latency_core::{components_of, Component, ExposureAnalysis, LatencyBreakdown};

fn small_gf100() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 4;
    cfg.num_partitions = 2;
    cfg
}

struct Traced {
    requests: Vec<gpu_sim::CompletedRequest>,
    loads: Vec<gpu_sim::LoadInstrRecord>,
}

fn run_traced_bfs(nodes: u32) -> Traced {
    let graph = Graph::uniform_random(nodes, 8, 77);
    let mut gpu = Gpu::new(small_gf100());
    let dev = bfs::upload_graph_mask(&mut gpu, &graph);
    gpu.set_tracing(true);
    bfs::run_bfs_mask(&mut gpu, &dev, 0, 128).expect("BFS completes");
    assert_eq!(
        bfs::read_costs(&gpu, &dev),
        graph.bfs_levels(0),
        "instrumentation must not change functional results"
    );
    let (requests, loads) = gpu.take_traces();
    Traced { requests, loads }
}

#[test]
fn timelines_are_complete_monotone_and_partitioned() {
    let t = run_traced_bfs(2048);
    assert!(t.requests.len() > 1000, "expected substantial traffic");
    for r in &t.requests {
        assert!(r.timeline.is_complete());
        let mut last = None;
        for s in Stamp::ALL {
            if let Some(c) = r.timeline.get(s) {
                if let Some(prev) = last {
                    assert!(c >= prev, "stamp {s:?} before its predecessor");
                }
                last = Some(c);
            }
        }
        // Component decomposition partitions the total exactly.
        let parts = components_of(&r.timeline).expect("complete timeline");
        assert_eq!(
            parts.iter().sum::<u64>(),
            r.timeline.total_latency().unwrap(),
            "components must sum to total latency"
        );
    }
}

#[test]
fn l1_hit_buckets_are_pure_sm_base() {
    // The paper's Figure-1 observation: the lowest-latency buckets are
    // entirely SM Base time (those requests were L1 hits).
    let t = run_traced_bfs(2048);
    let cfg = small_gf100();
    let l1_hit = cfg.arch_desc().unloaded_latency(LevelKind::L1).unwrap();
    let hits: Vec<_> = t
        .requests
        .iter()
        .filter(|r| r.timeline.total_latency().unwrap() <= l1_hit + 2)
        .collect();
    assert!(!hits.is_empty(), "some L1 hits expected");
    for r in hits {
        let parts = components_of(&r.timeline).unwrap();
        let total: u64 = parts.iter().sum();
        assert_eq!(
            parts[Component::SmBase.index()],
            total,
            "an L1 hit's lifetime is pure SM Base"
        );
    }
}

#[test]
fn long_latency_buckets_show_queueing_and_arbitration() {
    let t = run_traced_bfs(4096);
    let (breakdown, _) = LatencyBreakdown::from_requests_clipped(&t.requests, 16, 0.995);
    // In the top third of the latency range, queueing (L1toICNT) plus
    // arbitration (DRAM QtoSch) must contribute substantially more than in
    // the bottom third — the paper's central dynamic-latency finding.
    let n = breakdown.buckets().len();
    let slice_share = |range: std::ops::Range<usize>| {
        let mut q = 0.0;
        let mut buckets = 0.0;
        for i in range {
            if breakdown.count(i) == 0 {
                continue;
            }
            let p = breakdown.percentages(i);
            q += p[Component::L1ToIcnt.index()] + p[Component::DramQToSch.index()];
            buckets += 1.0;
        }
        if buckets == 0.0 {
            0.0
        } else {
            q / buckets
        }
    };
    let low = slice_share(0..n / 3);
    let high = slice_share(2 * n / 3..n);
    assert!(
        high > low,
        "queueing+arbitration share should grow with latency: low {low:.1}% high {high:.1}%"
    );
}

#[test]
fn exposure_matches_paper_claims() {
    let t = run_traced_bfs(4096);
    let analysis = ExposureAnalysis::from_loads(&t.loads, 16);
    assert!(analysis.total_loads() > 500);
    // Paper: "the fraction of latency that is exposed is significant,
    // sometimes close to 100% and more than 50% for most of the global
    // memory load instructions".
    let overall = analysis.overall_exposed_fraction();
    assert!(
        overall > 0.5,
        "BFS should expose most of its load latency, got {overall:.2}"
    );
    assert!(
        analysis.buckets_exceeding(0.5) > 0.5,
        "most loads should sit in buckets with >50% exposure"
    );
    // Sanity bounds.
    for i in 0..analysis.buckets().len() {
        let f = analysis.exposed_fraction(i);
        assert!((0.0..=1.0).contains(&f));
    }
}

#[test]
fn tracing_does_not_change_timing() {
    let graph = Graph::uniform_random(1024, 8, 3);
    let run = |tracing: bool| {
        let mut gpu = Gpu::new(small_gf100());
        let dev = bfs::upload_graph_mask(&mut gpu, &graph);
        gpu.set_tracing(tracing);
        bfs::run_bfs_mask(&mut gpu, &dev, 0, 128).unwrap();
        gpu.now().get()
    };
    assert_eq!(
        run(false),
        run(true),
        "observer effect in the instrumentation"
    );
}
