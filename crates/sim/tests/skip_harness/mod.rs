//! The `run()`-equals-`tick()` harness shared by `idle_skip.rs` and the
//! randomized case in `proptest_sim.rs`: scenarios that drive a workload
//! through a caller-supplied drain, and the observation that compares two
//! finished simulators field by field.

// Each test binary uses its own subset.
#![allow(dead_code)]

use gpu_isa::Launch;
use gpu_sim::{CounterSample, Gpu, GpuConfig, RunSummary, SmStats, TraceEvent};
use gpu_snapshot::Decoder;
use gpu_types::Addr;
use gpu_workloads::bfs::{
    build_bfs_mask_kernel1, build_bfs_mask_kernel2, read_costs, upload_graph_mask, UNVISITED,
};
use gpu_workloads::{reduce, Graph};

pub const MAX_CYCLES: u64 = 50_000_000;

/// How a scenario waits for the launch it just made: `run()` on the GPU
/// under test, a counted `tick()` loop on the reference.
pub type Drain<'a> = &'a mut dyn FnMut(&mut Gpu);

/// Sets a workload up on `gpu` and drives every launch through `drain`.
pub type Scenario = dyn Fn(&mut Gpu, Drain<'_>);

// ---- scenarios -------------------------------------------------------------

/// Rodinia mask BFS over a uniform random graph: two launches per level,
/// the host reading a flag in between — the multi-launch case, where each
/// run starts mid-clock on SMs that went to sleep empty.
pub fn mask_bfs(
    nodes: u32,
    degree: u32,
    seed: u64,
    block_dim: u32,
) -> impl Fn(&mut Gpu, Drain<'_>) {
    move |gpu, drain| {
        let graph = Graph::uniform_random(nodes, degree, seed);
        let dev = upload_graph_mask(gpu, &graph);
        let n = dev.num_nodes;
        let mut cost = vec![UNVISITED; n as usize];
        cost[0] = 0;
        let mut flags = vec![0u32; n as usize];
        gpu.device_mut().write_u32_slice(dev.cost, &cost);
        gpu.device_mut().write_u32_slice(dev.updating, &flags);
        flags[0] = 1;
        gpu.device_mut().write_u32_slice(dev.mask, &flags);
        gpu.device_mut().write_u32_slice(dev.visited, &flags);

        let grid = n.div_ceil(block_dim);
        let addrs = |a: &[Addr]| a.iter().map(|x| x.get()).collect::<Vec<u64>>();
        loop {
            gpu.device_mut().write_u32(dev.more, 0);
            let mut p1 = addrs(&[
                dev.row_offsets,
                dev.cols,
                dev.cost,
                dev.mask,
                dev.updating,
                dev.visited,
            ]);
            p1.push(u64::from(n));
            gpu.launch(build_bfs_mask_kernel1(), Launch::new(grid, block_dim, p1))
                .expect("expand launches");
            drain(gpu);
            let mut p2 = addrs(&[dev.mask, dev.updating, dev.visited, dev.more]);
            p2.push(u64::from(n));
            gpu.launch(build_bfs_mask_kernel2(), Launch::new(grid, block_dim, p2))
                .expect("commit launches");
            drain(gpu);
            if gpu.device().read_u32(dev.more) == 0 {
                break;
            }
        }
        assert_eq!(read_costs(gpu, &dev), graph.bfs_levels(0), "BFS answer");
    }
}

/// Launches the shared-memory tree reduction of `n` elements in eight-warp
/// CTAs without running it. While a CTA's last load is in flight its other
/// warps sit at the barrier, and the tree's dependent shared-memory loads
/// park warps on the scoreboard.
pub fn launch_reduce(gpu: &mut Gpu, n: u64) -> reduce::ReduceDevice {
    let dev = reduce::setup(gpu, n);
    gpu.device_mut().write_u32(dev.output, 0);
    gpu.launch(
        reduce::build_reduce_kernel(256),
        Launch::new(
            (n as u32).div_ceil(256),
            256,
            vec![dev.input.get(), dev.output.get(), dev.n],
        ),
    )
    .expect("reduce launches");
    dev
}

pub fn barrier_reduce(n: u64) -> impl Fn(&mut Gpu, Drain<'_>) {
    move |gpu, drain| {
        let dev = launch_reduce(gpu, n);
        drain(gpu);
        assert_eq!(
            gpu.device().read_u32(dev.output),
            reduce::reference(n),
            "block sums"
        );
    }
}

// ---- observation -----------------------------------------------------------

/// The snapshot payload with its one wall-clock field zeroed. The payload
/// opens with the configuration, then `now`, `outstanding`, `host_nanos`.
pub fn state_bytes(gpu: &Gpu) -> Vec<u8> {
    let framed = gpu.snapshot();
    let mut payload = framed[16..framed.len() - 8].to_vec();
    let mut d = Decoder::open(&framed).expect("own snapshot opens");
    GpuConfig::decode(&mut d).expect("own snapshot decodes");
    let host_nanos_at = payload.len() - d.remaining() + 16;
    payload[host_nanos_at..host_nanos_at + 8].fill(0);
    payload
}

/// Everything a finished simulator can be asked.
pub struct Observed {
    pub summary: RunSummary,
    pub sm_stats: Vec<SmStats>,
    pub state: Vec<u8>,
    /// `CompletedRequest`/`LoadInstrRecord` lack `PartialEq`; their `Debug`
    /// form carries every field.
    pub requests: String,
    pub loads: String,
    pub events: Vec<TraceEvent>,
    pub samples: Vec<CounterSample>,
    pub dropped_events: u64,
}

pub fn observe(gpu: &mut Gpu) -> Observed {
    let mut summary = gpu.summary();
    summary.metrics.host_nanos = 0;
    let sm_stats = gpu.sm_stats();
    // Before the takes below, so the bytes cover the sink and the tracer.
    let state = state_bytes(gpu);
    let (requests, loads) = gpu.take_traces();
    let trace = gpu.take_trace();
    Observed {
        summary,
        sm_stats,
        state,
        requests: format!("{requests:?}"),
        loads: format!("{loads:?}"),
        events: trace.events,
        samples: trace.samples,
        dropped_events: trace.dropped_events,
    }
}

pub fn new_gpu(cfg: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.set_tracing(true);
    gpu
}

/// Runs `scenario` with `run()`, replays it on a fresh GPU with `tick()`
/// for the same number of cycles per launch, and requires the two
/// simulators to be indistinguishable. Returns the `run()` side.
pub fn assert_skip_invisible(what: &str, cfg: &GpuConfig, scenario: &Scenario) -> Observed {
    let mut launch_ends = Vec::new();
    let mut skipping = new_gpu(cfg);
    scenario(&mut skipping, &mut |gpu| {
        gpu.run(MAX_CYCLES).expect("run drains");
        launch_ends.push(gpu.now());
    });

    let mut ends = launch_ends.iter();
    let mut stepped = new_gpu(cfg);
    scenario(&mut stepped, &mut |gpu| {
        let end = *ends.next().expect("same launch sequence");
        while gpu.now() < end {
            gpu.tick();
        }
        // Already drained, so this only retires the launch (as `run` did on
        // the other side); it times out if the grid is in fact still busy.
        gpu.run(0)
            .unwrap_or_else(|e| panic!("{what}: stepped reference not drained at {end}: {e}"));
    });

    let (a, b) = (observe(&mut skipping), observe(&mut stepped));
    // Field by field first: a failure names what diverged.
    assert_eq!(a.summary, b.summary, "{what}: summaries");
    assert_eq!(a.sm_stats, b.sm_stats, "{what}: per-SM stats");
    assert_eq!(a.requests, b.requests, "{what}: completed requests");
    assert_eq!(a.loads, b.loads, "{what}: load records");
    assert_eq!(a.dropped_events, b.dropped_events, "{what}: event drops");
    assert_eq!(a.events.len(), b.events.len(), "{what}: event count");
    if let Some(i) = (0..a.events.len()).find(|&i| a.events[i] != b.events[i]) {
        panic!(
            "{what}: event {i} diverges: {:?} vs {:?}",
            a.events[i], b.events[i]
        );
    }
    assert_eq!(a.samples, b.samples, "{what}: counter samples");
    assert!(a.state == b.state, "{what}: final snapshots differ");
    assert_eq!(a.summary.sanitizer_violations, 0, "{what}: sanitizer");
    a
}

/// Both tracer settings of one machine: off (the measured configuration)
/// and on with a short sample interval, so samples and per-cycle `Stall`
/// events fall inside skipped intervals.
pub fn traced_and_untraced(mut cfg: GpuConfig) -> [GpuConfig; 2] {
    let untraced = cfg.clone();
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = 16;
    [untraced, cfg]
}
