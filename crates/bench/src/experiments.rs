//! Shared experiment drivers (see crate docs for the experiment index).

use std::path::Path;

use gpu_mem::DramSched;
use gpu_sim::{
    CheckpointPolicy, CompletedRequest, Gpu, GpuConfig, LoadInstrRecord, RunSummary, SchedPolicy,
    SimError,
};
use gpu_workloads::bfs::BfsMaskOutcome;
use gpu_workloads::{
    bfs, graph::Graph, histogram, matmul, reduce, scan, spmv, stencil, transpose, vecadd,
};
use latency_core::{ChaseError, Table1};

/// Runs the full Table I reproduction (E1): all four paper columns.
///
/// # Errors
///
/// Propagates chase/simulator failures.
pub fn run_table1() -> Result<Table1, ChaseError> {
    Table1::measure()
}

/// Parameters of the BFS dynamic-latency experiment (E2/E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsExperiment {
    /// Graph nodes.
    pub nodes: u32,
    /// Average out-degree.
    pub degree: u32,
    /// Graph seed.
    pub seed: u64,
    /// Threads per CTA.
    pub block_dim: u32,
}

impl Default for BfsExperiment {
    /// The default instrumented run: a 16k-node uniform random graph with
    /// average degree 8 — a working set just over the GF100's aggregate L2,
    /// so the run mixes L2 hits with real DRAM traffic like the paper's
    /// Rodinia BFS input (whose latencies top out near 1800 cycles).
    fn default() -> Self {
        BfsExperiment {
            nodes: 16384,
            degree: 8,
            seed: 20150301, // ISPASS 2015
            block_dim: 128,
        }
    }
}

/// Traces collected from one instrumented run.
#[derive(Debug)]
pub struct TracedRun {
    /// Completed line fetches (Figure 1 input).
    pub requests: Vec<CompletedRequest>,
    /// Completed warp-level loads (Figure 2 input).
    pub loads: Vec<LoadInstrRecord>,
    /// Event stream and counter samples (empty unless event tracing was
    /// enabled via `GpuConfig::trace` or `LATENCY_TRACE`).
    pub trace: gpu_sim::TraceData,
    /// Counter summaries, stall attribution and host throughput.
    pub metrics: gpu_sim::MetricsReport,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Stable content hash of the run (configuration timing + workload +
    /// inputs; see `RunSummary::content_hash`).
    pub content_hash: u64,
    /// Invariant violations the sanitizer counted (release builds only
    /// accumulate them; see `RunSummary::sanitizer_violations`).
    pub sanitizer_violations: u64,
}

/// Runs BFS on `config` with tracing enabled and returns the latency traces
/// (E2/E3 driver). Honours `LATENCY_TRACE` (see [`crate::tracebundle`]).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_bfs_traced(mut config: GpuConfig, exp: &BfsExperiment) -> Result<TracedRun, SimError> {
    let env = crate::tracebundle::env_request();
    if env.enabled() {
        config.trace.enabled = true;
    }
    let graph = Graph::uniform_random(exp.nodes, exp.degree, exp.seed);
    let mut gpu = Gpu::new(config);
    gpu.set_tick_threads(latency_core::tick_threads());
    // Rodinia-style mask BFS: the formulation GPGPU-Sim's standard workload
    // suite uses, i.e. the kernel behind the paper's Figures 1 and 2.
    let dev = bfs::upload_graph_mask(&mut gpu, &graph);
    gpu.set_tracing(true);
    let run = bfs::run_bfs_mask(&mut gpu, &dev, 0, exp.block_dim)?;
    // Cross-check against the host reference: an instrumented run that
    // computes the wrong BFS would be meaningless.
    assert_eq!(
        bfs::read_costs(&gpu, &dev),
        graph.bfs_levels(0),
        "device BFS diverged from reference"
    );
    let summary = gpu.summary();
    let (requests, loads) = gpu.take_traces();
    let trace = gpu.take_trace();
    crate::tracebundle::export_if_requested(
        &env,
        &summary,
        &requests,
        &loads,
        &trace,
        gpu.config(),
    );
    Ok(TracedRun {
        requests,
        loads,
        trace,
        metrics: summary.metrics,
        cycles: gpu.now().get(),
        instructions: run.instructions,
        content_hash: summary.content_hash,
        sanitizer_violations: summary.sanitizer_violations,
    })
}

/// Everything a completed checkpointed BFS produced.
#[derive(Debug)]
pub struct BfsCheckpointed {
    /// The final run summary (includes `content_hash` — the stable
    /// identity of the whole multi-launch run).
    pub summary: RunSummary,
    /// The latency traces, same shape as [`run_bfs_traced`] returns.
    pub traced: TracedRun,
}

/// Outcome of a checkpointed BFS experiment.
#[derive(Debug)]
pub enum BfsCheckpointOutcome {
    /// The traversal ran to completion (verified against the host
    /// reference).
    Completed(Box<BfsCheckpointed>),
    /// The deterministic kill switch fired; resume from the newest
    /// checkpoint with [`resume_bfs_checkpointed`].
    Killed {
        /// Cycle at which the run was killed.
        at: u64,
    },
}

fn finish_bfs_checkpointed(
    mut gpu: Gpu,
    graph: &Graph,
    dev: &bfs::BfsMaskDevice,
    run: bfs::BfsRun,
    env: &crate::tracebundle::EnvTrace,
) -> BfsCheckpointOutcome {
    assert_eq!(
        bfs::read_costs(&gpu, dev),
        graph.bfs_levels(0),
        "device BFS diverged from reference"
    );
    let summary = gpu.summary();
    let (requests, loads) = gpu.take_traces();
    let trace = gpu.take_trace();
    crate::tracebundle::export_if_requested(env, &summary, &requests, &loads, &trace, gpu.config());
    let traced = TracedRun {
        requests,
        loads,
        trace,
        metrics: summary.metrics,
        cycles: gpu.now().get(),
        instructions: run.instructions,
        content_hash: summary.content_hash,
        sanitizer_violations: summary.sanitizer_violations,
    };
    BfsCheckpointOutcome::Completed(Box::new(BfsCheckpointed { summary, traced }))
}

/// [`run_bfs_traced`] under a checkpoint policy: periodic snapshots land in
/// `policy.dir` (carrying the BFS host loop's position) and the optional
/// `policy.kill_at` stops the run deterministically mid-flight. An
/// uninterrupted run and a killed-then-resumed run produce bit-identical
/// summaries and traces.
///
/// # Errors
///
/// Propagates simulator and checkpoint-write failures.
pub fn run_bfs_checkpointed(
    mut config: GpuConfig,
    exp: &BfsExperiment,
    policy: &CheckpointPolicy,
) -> Result<BfsCheckpointOutcome, SimError> {
    let env = crate::tracebundle::env_request();
    if env.enabled() {
        config.trace.enabled = true;
    }
    let graph = Graph::uniform_random(exp.nodes, exp.degree, exp.seed);
    let mut gpu = Gpu::new(config);
    gpu.set_tick_threads(latency_core::tick_threads());
    let dev = bfs::upload_graph_mask(&mut gpu, &graph);
    gpu.set_tracing(true);
    match bfs::run_bfs_mask_checkpointed(&mut gpu, &dev, 0, exp.block_dim, policy)? {
        BfsMaskOutcome::Killed { at } => Ok(BfsCheckpointOutcome::Killed { at }),
        BfsMaskOutcome::Completed(run) => Ok(finish_bfs_checkpointed(gpu, &graph, &dev, run, &env)),
    }
}

/// Resumes a killed checkpointed BFS from the newest checkpoint in `dir`
/// and drives it to completion (or the next kill). `exp` must describe the
/// same experiment the checkpoint came from — it regenerates the host
/// reference graph for end-of-run verification (everything else, including
/// the in-flight kernel and the BFS loop position, lives in the
/// checkpoint). Returns `None` when `dir` holds no checkpoint.
///
/// # Errors
///
/// Propagates checkpoint-decode failures as [`SimError::Checkpoint`] and
/// simulator failures unchanged.
pub fn resume_bfs_checkpointed(
    dir: &Path,
    exp: &BfsExperiment,
    policy: &CheckpointPolicy,
) -> Result<Option<BfsCheckpointOutcome>, SimError> {
    let env = crate::tracebundle::env_request();
    let Some(mut gpu) = Gpu::resume_latest(dir)
        .map_err(|e| SimError::Checkpoint(format!("resume from {}: {e}", dir.display())))?
    else {
        return Ok(None);
    };
    // Snapshots never carry host-side executor state: re-apply it.
    gpu.set_tick_threads(latency_core::tick_threads());
    let graph = Graph::uniform_random(exp.nodes, exp.degree, exp.seed);
    let dev = decode_mask_dev(&gpu)?;
    match bfs::resume_bfs_mask(&mut gpu, policy)? {
        BfsMaskOutcome::Killed { at } => Ok(Some(BfsCheckpointOutcome::Killed { at })),
        BfsMaskOutcome::Completed(run) => {
            Ok(Some(finish_bfs_checkpointed(gpu, &graph, &dev, run, &env)))
        }
    }
}

/// The device layout travels inside the checkpoint's host tag; re-decode it
/// here only for the end-of-run cost readback.
fn decode_mask_dev(gpu: &Gpu) -> Result<bfs::BfsMaskDevice, SimError> {
    bfs::peek_mask_tag(gpu.host_tag())
        .map_err(|e| SimError::Checkpoint(format!("checkpoint carries no BFS host tag: {e}")))
}

/// The non-BFS workloads of experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming vector add.
    VecAdd,
    /// Tiled shared-memory matrix multiply.
    MatMul,
    /// Tree reduction with atomic combine.
    Reduce,
    /// CSR sparse matrix–vector multiply.
    SpMv,
    /// 2-D Jacobi stencil.
    Stencil,
    /// Global-atomic histogram.
    Histogram,
    /// Shared-memory tiled matrix transpose.
    Transpose,
    /// Per-CTA Hillis–Steele prefix sum.
    Scan,
}

impl Workload {
    /// All E4 workloads.
    pub const ALL: [Workload; 8] = [
        Workload::VecAdd,
        Workload::MatMul,
        Workload::Reduce,
        Workload::SpMv,
        Workload::Stencil,
        Workload::Histogram,
        Workload::Transpose,
        Workload::Scan,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VecAdd => "vecadd",
            Workload::MatMul => "matmul",
            Workload::Reduce => "reduce",
            Workload::SpMv => "spmv",
            Workload::Stencil => "stencil",
            Workload::Histogram => "histogram",
            Workload::Transpose => "transpose",
            Workload::Scan => "scan",
        }
    }
}

/// The kernel [`run_workload_traced`] launches for `workload`, exactly as
/// the dynamic run builds it — the static half of the differential
/// validation harness analyzes this object.
pub fn workload_kernel(workload: Workload) -> gpu_isa::Kernel {
    match workload {
        Workload::VecAdd => vecadd::build_vecadd_kernel(),
        Workload::MatMul => matmul::build_matmul_kernel(),
        Workload::Reduce => reduce::build_reduce_kernel(256),
        Workload::SpMv => spmv::build_spmv_kernel(),
        Workload::Stencil => stencil::build_stencil_kernel(),
        Workload::Histogram => histogram::build_histogram_kernel(),
        Workload::Transpose => transpose::build_transpose_kernel(transpose::Variant::Tiled),
        Workload::Scan => scan::build_scan_kernel(256),
    }
}

/// Every built-in workload kernel, as launched by the experiment drivers
/// (both transpose variants, all three BFS kernels). This is the kernel set
/// `latency lint` analyzes.
pub fn builtin_kernels() -> Vec<gpu_isa::Kernel> {
    vec![
        vecadd::build_vecadd_kernel(),
        matmul::build_matmul_kernel(),
        reduce::build_reduce_kernel(256),
        spmv::build_spmv_kernel(),
        stencil::build_stencil_kernel(),
        histogram::build_histogram_kernel(),
        transpose::build_transpose_kernel(transpose::Variant::Naive),
        transpose::build_transpose_kernel(transpose::Variant::Tiled),
        scan::build_scan_kernel(256),
        bfs::build_bfs_kernel(),
        bfs::build_bfs_mask_kernel1(),
        bfs::build_bfs_mask_kernel2(),
    ]
}

/// Runs one E4 workload on `config` with tracing enabled.
///
/// # Errors
///
/// Propagates simulator failures.
///
/// # Panics
///
/// Panics if the workload's device output fails verification.
pub fn run_workload_traced(
    mut config: GpuConfig,
    workload: Workload,
) -> Result<TracedRun, SimError> {
    let env = crate::tracebundle::env_request();
    if env.enabled() {
        config.trace.enabled = true;
    }
    let mut gpu = Gpu::new(config);
    gpu.set_tick_threads(latency_core::tick_threads());
    gpu.set_tracing(true);
    let summary = match workload {
        Workload::VecAdd => {
            let dev = vecadd::setup(&mut gpu, 64 * 1024);
            let s = vecadd::run(&mut gpu, &dev, 256)?;
            vecadd::verify(&gpu, &dev);
            s
        }
        Workload::MatMul => {
            let dev = matmul::setup(&mut gpu, 64);
            let s = matmul::run(&mut gpu, &dev)?;
            matmul::verify(&gpu, &dev);
            s
        }
        Workload::Reduce => {
            let dev = reduce::setup(&mut gpu, 64 * 1024);
            let s = reduce::run(&mut gpu, &dev, 256)?;
            assert_eq!(
                gpu.device().read_u32(dev.output),
                reduce::reference(64 * 1024)
            );
            s
        }
        Workload::SpMv => {
            let m = spmv::CsrMatrix::random(4096, 4096, 8, 5);
            let dev = spmv::setup(&mut gpu, &m);
            let s = spmv::run(&mut gpu, &dev, 128)?;
            spmv::verify(&gpu, &dev, &m);
            s
        }
        Workload::Stencil => {
            let dev = stencil::setup(&mut gpu, 256, 256);
            let (s, result) = stencil::run(&mut gpu, &dev, 2, 128)?;
            stencil::verify(&gpu, &dev, result, 2);
            s
        }
        Workload::Histogram => {
            let dev = histogram::setup(&mut gpu, 64 * 1024, 256);
            let s = histogram::run(&mut gpu, &dev, 256)?;
            histogram::verify(&gpu, &dev);
            s
        }
        Workload::Transpose => {
            let dev = transpose::setup(&mut gpu, 256);
            let s = transpose::run(&mut gpu, &dev, transpose::Variant::Tiled)?;
            transpose::verify(&gpu, &dev);
            s
        }
        Workload::Scan => {
            let dev = scan::setup(&mut gpu, 64 * 1024);
            let s = scan::run(&mut gpu, &dev, 256)?;
            scan::verify(&gpu, &dev, 256);
            s
        }
    };
    let (requests, loads) = gpu.take_traces();
    let trace = gpu.take_trace();
    crate::tracebundle::export_if_requested(
        &env,
        &summary,
        &requests,
        &loads,
        &trace,
        gpu.config(),
    );
    Ok(TracedRun {
        requests,
        loads,
        trace,
        metrics: summary.metrics,
        cycles: summary.cycles,
        instructions: summary.instructions,
        content_hash: summary.content_hash,
        sanitizer_violations: summary.sanitizer_violations,
    })
}

/// Result of the DRAM-scheduler ablation (E5) for one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSchedResult {
    /// Scheduler evaluated.
    pub sched: DramSched,
    /// Total cycles for the workload.
    pub cycles: u64,
    /// Mean completed-load latency.
    pub mean_load_latency: f64,
    /// 95th-percentile completed-load latency.
    pub p95_load_latency: u64,
    /// Share (0–100) of aggregate fetch time spent waiting for the DRAM
    /// scheduler (the paper's `DRAM(QtoSch)` component).
    pub qtosch_share: f64,
}

/// Runs the E5 ablation: BFS under each DRAM scheduler. The per-scheduler
/// runs are independent simulations and execute on the
/// [`latency_core::parallel`] pool, gathered in scheduler order.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn dram_sched_comparison(
    base: GpuConfig,
    exp: &BfsExperiment,
) -> Result<Vec<DramSchedResult>, SimError> {
    let scheds = [DramSched::FrFcfs, DramSched::Fcfs];
    latency_core::parallel::try_par_map(&scheds, |_, &sched| {
        let mut cfg = base.clone();
        cfg.dram.sched = sched;
        let run = run_bfs_traced(cfg, exp)?;
        let mut lat: Vec<u64> = run.loads.iter().map(LoadInstrRecord::total).collect();
        lat.sort_unstable();
        let mean = if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<u64>() as f64 / lat.len() as f64
        };
        let p95 = lat
            .get((lat.len() * 95 / 100).min(lat.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0);
        let breakdown = latency_core::LatencyBreakdown::from_requests(&run.requests, 48);
        let qtosch = breakdown.overall_percentages()[latency_core::Component::DramQToSch.index()];
        Ok(DramSchedResult {
            sched,
            cycles: run.cycles,
            mean_load_latency: mean,
            p95_load_latency: p95,
            qtosch_share: qtosch,
        })
    })
}

/// One point of the latency-hiding sweep (E6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HidingPoint {
    /// Warp slots per SM.
    pub warps_per_sm: usize,
    /// Scheduler policy.
    pub scheduler: SchedPolicy,
    /// Overall exposed fraction of load latency (0–1).
    pub exposed_fraction: f64,
    /// Total cycles.
    pub cycles: u64,
}

/// Runs the E6 sweep: exposed latency fraction of BFS as a function of
/// available thread-level parallelism and scheduler policy. The
/// (warp count × policy) grid is flattened in warp-major order and run on
/// the [`latency_core::parallel`] pool, so the returned points are in the
/// same order the old nested serial loop produced.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn hiding_sweep(
    base: GpuConfig,
    exp: &BfsExperiment,
    warp_counts: &[usize],
    policies: &[SchedPolicy],
) -> Result<Vec<HidingPoint>, SimError> {
    let grid: Vec<(usize, SchedPolicy)> = warp_counts
        .iter()
        .flat_map(|&w| policies.iter().map(move |&p| (w, p)))
        .collect();
    latency_core::parallel::try_par_map(&grid, |_, &(w, p)| {
        let mut cfg = base.clone();
        cfg.max_warps_per_sm = w;
        cfg.max_ctas_per_sm = cfg.max_ctas_per_sm.min(w.max(1));
        cfg.scheduler = p;
        let run = run_bfs_traced(cfg, exp)?;
        let analysis = latency_core::ExposureAnalysis::from_loads(&run.loads, 24);
        Ok(HidingPoint {
            warps_per_sm: w,
            scheduler: p,
            exposed_fraction: analysis.overall_exposed_fraction(),
            cycles: run.cycles,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gf100() -> GpuConfig {
        let mut c = GpuConfig::fermi_gf100();
        c.num_sms = 4;
        c.num_partitions = 2;
        c
    }

    fn small_exp() -> BfsExperiment {
        BfsExperiment {
            nodes: 512,
            degree: 6,
            seed: 1,
            block_dim: 64,
        }
    }

    #[test]
    fn bfs_trace_collects_requests_and_loads() {
        let run = run_bfs_traced(small_gf100(), &small_exp()).unwrap();
        assert!(!run.requests.is_empty());
        assert!(!run.loads.is_empty());
        assert!(run.cycles > 0);
        assert!(run.instructions > 0);
    }

    #[test]
    fn dram_sched_ablation_produces_both_rows() {
        let rows = dram_sched_comparison(small_gf100(), &small_exp()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sched, DramSched::FrFcfs);
        assert_eq!(rows[1].sched, DramSched::Fcfs);
        assert!(rows.iter().all(|r| r.mean_load_latency > 0.0));
    }

    #[test]
    fn hiding_sweep_exposed_fraction_decreases_with_more_warps() {
        let pts = hiding_sweep(small_gf100(), &small_exp(), &[2, 48], &[SchedPolicy::Lrr]).unwrap();
        assert_eq!(pts.len(), 2);
        let few = pts[0].exposed_fraction;
        let many = pts[1].exposed_fraction;
        assert!(
            few >= many,
            "more warps should hide at least as much latency: {few} vs {many}"
        );
    }

    #[test]
    fn workload_runs_are_verified() {
        let run = run_workload_traced(small_gf100(), Workload::VecAdd).unwrap();
        assert!(!run.loads.is_empty());
    }
}
