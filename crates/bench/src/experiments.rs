//! Shared experiment drivers (see crate docs for the experiment index).
//!
//! Every instrumented run — plain, checkpointed or resumed, BFS or any
//! other workload-table entry — goes through [`run_traced`], which wraps
//! [`Workload::execute`] with the latency sink and the `LATENCY_TRACE`
//! hook and is the only place a [`TracedRun`] is built.

use std::path::Path;

use gpu_mem::DramSched;
use gpu_sim::{
    CheckpointPolicy, CompletedRequest, GpuConfig, LoadInstrRecord, RunOutcome, SchedPolicy,
    SimError,
};
use gpu_workloads::{BfsExperiment, Workload};

use crate::tracebundle::{env_request, EnvTrace, TraceBundle};

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

/// How an instrumented run under a checkpoint policy ended: completed
/// (and verified against the host reference), or killed — call
/// [`run_traced`] again with `resume` pointing at the checkpoint directory.
pub type TracedOutcome = RunOutcome<TracedRun>;

/// The one instrumented driver: runs `workload` on `config` with the
/// latency sink on and returns its traces. Honours `LATENCY_TRACE` (see
/// [`crate::tracebundle`]).
///
/// Under a non-null `policy`, periodic snapshots land in `policy.dir` and
/// `policy.kill_at` stops the run deterministically mid-flight. With
/// `resume`, the run continues from the newest checkpoint in that directory
/// instead of starting on `config` — `graph` must then describe the same
/// experiment the checkpoint came from (it regenerates the host reference;
/// everything else lives in the checkpoint) — and `Ok(None)` means the
/// directory holds no checkpoint. An uninterrupted run and a
/// killed-then-resumed run produce bit-identical traces.
///
/// # Errors
///
/// Propagates simulator, checkpoint-write and checkpoint-decode failures.
///
/// # Panics
///
/// Panics if the workload's device output fails verification.
pub fn run_traced(
    mut config: GpuConfig,
    workload: &Workload,
    graph: &BfsExperiment,
    policy: &CheckpointPolicy,
    resume: Option<&Path>,
) -> Result<Option<TracedOutcome>, SimError> {
    let env = env_request();
    if env.enabled() {
        config.trace.enabled = true;
    }
    let executed = workload.execute(config, graph, policy, resume, |gpu| gpu.set_tracing(true))?;
    let Some((mut gpu, outcome)) = executed else {
        return Ok(None);
    };
    let summary = match outcome {
        RunOutcome::Killed { at } => return Ok(Some(TracedOutcome::Killed { at })),
        RunOutcome::Completed(summary) => *summary,
    };
    let (requests, loads) = gpu.take_traces();
    let run = TracedRun {
        requests,
        loads,
        trace: gpu.take_trace(),
        metrics: summary.metrics,
        cycles: summary.cycles,
        instructions: summary.instructions,
        content_hash: summary.content_hash,
        sanitizer_violations: summary.sanitizer_violations,
    };
    if let EnvTrace::Bundle(root) = &env {
        // Best effort: a failed export is reported, never fatal.
        let bundle = TraceBundle::of(&run, gpu.config());
        let dir = bundle.env_dir(root);
        if let Err(e) = bundle.write(&dir) {
            eprintln!("warning: failed to write trace bundle to {dir:?}: {e}");
        }
    }
    Ok(Some(TracedOutcome::Completed(Box::new(run))))
}

/// [`run_traced`] under the null policy, which can only complete.
fn run_to_completion(
    config: GpuConfig,
    workload: &Workload,
    graph: &BfsExperiment,
) -> Result<TracedRun, SimError> {
    match run_traced(config, workload, graph, &CheckpointPolicy::none(), None)? {
        Some(TracedOutcome::Completed(run)) => Ok(*run),
        _ => unreachable!("the null policy neither resumes nor kills"),
    }
}

/// Runs the Rodinia-style mask BFS of `exp` on `config` and returns the
/// latency traces (E2/E3 driver).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_bfs_traced(config: GpuConfig, exp: &BfsExperiment) -> Result<TracedRun, SimError> {
    run_to_completion(config, Workload::bfs(), exp)
}

/// Runs one E4 workload's default problem on `config` and returns the
/// latency traces.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_workload_traced(config: GpuConfig, workload: &Workload) -> Result<TracedRun, SimError> {
    run_to_completion(config, workload, &BfsExperiment::default())
}

/// Mean and 95th percentile (`sorted[len * 95 / 100]`) of `latencies`, the
/// two figures every ablation table reports; `(0.0, 0)` when empty.
pub fn mean_and_p95(mut latencies: Vec<u64>) -> (f64, u64) {
    latencies.sort_unstable();
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    let p95 = latencies.get(latencies.len() * 95 / 100).copied();
    (mean, p95.unwrap_or(0))
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
        let (mean, p95) = mean_and_p95(run.loads.iter().map(LoadInstrRecord::total).collect());
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
        let vecadd = Workload::by_name("vecadd").unwrap();
        let run = run_workload_traced(small_gf100(), vecadd).unwrap();
        assert!(!run.loads.is_empty());
    }
}
