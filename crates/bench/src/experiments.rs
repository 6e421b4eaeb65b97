//! The paper's experiments as one list, and the one instrumented driver
//! under it.
//!
//! Every instrumented run — plain, checkpointed or resumed, BFS or any
//! other workload-table entry — goes through [`run_traced`], which wraps
//! [`Workload::execute`] with the latency sink and the `LATENCY_TRACE`
//! hook and is the only place a [`TracedRun`] is built.
//!
//! [`EXPERIMENTS`] holds Table I, the published-reference check, the
//! figures, the ablations and the static analyzer's contracts. Each row
//! declares the runs it reads ([`Spec`]), the pins it records and how it
//! renders its stdout. A [`Plan`] executes each distinct run once — `fig1`,
//! `fig2`, E5's FR-FCFS row, E6's 48-warp LRR point and E8's write-through
//! row are one BFS; `table1`'s chase points are four of `validate`'s eight
//! presets, and `sweep`'s grid shares the ones its cells land on;
//! `static_vs_dynamic` reads E4's and `arch_dynamic`'s runs — and reduces it
//! to a [`Record`] of exact numbers before its worker takes the next.
//! Reducing a run checks it: a sanitizer violation, a broken
//! static-vs-dynamic contract ([`validate::check`]), a Table I point off its
//! published value or a failed inference fails the list. `latency <row>`,
//! `BENCH_experiments.json` and the blocks of EXPERIMENTS.md are all
//! rendered from those records.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use gpu_mem::{DramSched, PipelineSpace};
use gpu_sim::{
    CheckpointPolicy, CompletedRequest, CounterKind, CounterSummary, GpuConfig, IdleCounts,
    LevelKind, LoadInstrRecord, RunOutcome, SchedPolicy, SimError, StallBreakdown, StallReason,
    TraceConfig, WritePolicy,
};
use gpu_trace::json::{ToJson, Writer};
use gpu_workloads::{BfsExperiment, Workload};
use latency_core::{
    detect_plateaus, infer_hierarchy, infer_line_size, measure_chase, measure_chase_under_load,
    pow2_range, row_points, ArchPreset, CacheLevelEstimate, ChaseMeasurement, ChaseParams,
    ChaseSpace, Component, ExposureAnalysis, LatencyBreakdown, MeasuredRow, Plateau,
};

use crate::reference::{self, PresetValidation};
use crate::tracebundle::{env_bundle_root, TraceBundle};
use crate::validate::{self, ValidationReport};

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
    /// What the run loop left out ([`Gpu::idle_counts`]); a resumed run
    /// counts from its checkpoint on.
    ///
    /// [`Gpu::idle_counts`]: gpu_sim::Gpu::idle_counts
    pub idle: IdleCounts,
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
    // A binary refuses a malformed value at start-up.
    let bundle_root = env_bundle_root().ok().flatten();
    if bundle_root.is_some() {
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
        idle: gpu.idle_counts(),
    };
    if let Some(root) = &bundle_root {
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
/// latency traces.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_bfs_traced(config: GpuConfig, exp: &BfsExperiment) -> Result<TracedRun, SimError> {
    run_to_completion(config, Workload::bfs(), exp)
}

/// One run a row reads. Rows that declare equal runs share one execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A traced workload-table run ([`run_traced`]).
    Traced(GpuConfig, &'static Workload, BfsExperiment),
    /// E7's chase under that many streamer CTAs.
    Chase(GpuConfig, ChaseParams, u32),
    /// An unloaded chase point on a preset's microbenchmark machine: a cell
    /// of §II's grid, a level of its Table I row ([`Spec::level`]) or both.
    /// A Table I point is held to the published reference
    /// ([`reference::check_point`]).
    Point(ArchPreset, GpuConfig, ChaseParams),
    /// §II's adaptive run on a preset's microbenchmark machine: capacity
    /// bisection over the 512 B column and, where the L1 serves global
    /// loads, the line-size sweep.
    Infer(ArchPreset, GpuConfig),
}

impl Spec {
    /// The machine the run simulates.
    pub fn config(&self) -> &GpuConfig {
        match self {
            Spec::Traced(config, ..)
            | Spec::Chase(config, ..)
            | Spec::Point(_, config, _)
            | Spec::Infer(_, config) => config,
        }
    }

    /// The Table I level a chase point measures: the level whose
    /// [`row_points`] entry it is, if any.
    pub fn level(&self) -> Option<LevelKind> {
        let Spec::Point(_, config, params) = self else {
            return None;
        };
        let points = row_points(&config.arch_desc());
        points
            .into_iter()
            .find_map(|(level, p)| (p == *params).then_some(level))
    }
}

/// Names the run: its machine, and its workload or its chase geometry.
impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chase = |p: &ChaseParams| format!("{} B chase at stride {}", p.footprint, p.stride);
        match self {
            Spec::Traced(config, workload, _) => write!(f, "{} on {}", workload.name, config.name),
            Spec::Chase(config, params, ctas) => write!(
                f,
                "a {} under {ctas} streamer CTA(s) on {}",
                chase(params),
                config.name
            ),
            Spec::Point(_, config, params) => match self.level() {
                Some(level) => {
                    let (level, chase) = (level.label(), chase(params));
                    write!(f, "the {level} point ({chase}) on {}", config.name)
                }
                None => write!(f, "a {} on {}", chase(params), config.name),
            },
            Spec::Infer(_, config) => write!(f, "the hierarchy inference on {}", config.name),
        }
    }
}

/// Sum, count and 95th percentile (`sorted[len * 95 / 100]`, 0 when
/// empty) of a latency population: the integers behind a mean/p95 column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    pub sum: u64,
    pub count: u64,
    pub p95: u64,
}

impl Latency {
    fn of(latencies: impl Iterator<Item = u64>) -> Self {
        let mut sorted: Vec<u64> = latencies.collect();
        sorted.sort_unstable();
        let p95 = sorted.get(sorted.len() * 95 / 100).copied().unwrap_or(0);
        let (sum, count) = (sorted.iter().sum(), sorted.len() as u64);
        Latency { sum, count, p95 }
    }

    /// The mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }
}

impl ToJson for Latency {
    fn write_json(&self, w: &mut Writer) {
        w.object().field("sum", self.sum).field("count", self.count);
        w.field("p95", self.p95).end();
    }
}

/// One run reduced to the exact integers the rows print from; its traces
/// are dropped as soon as it is built.
#[derive(Debug, Clone)]
pub enum Record {
    Traced(Box<TracedRecord>),
    /// A loaded chase's cycles per access.
    Chase(f64),
    /// An unloaded chase point's two run lengths and cycles per access.
    Point(ChaseMeasurement),
    /// The inferred levels, the last one memory, and the L1 line size where
    /// the L1 serves global loads.
    Infer(Vec<CacheLevelEstimate>, Option<u64>),
}

/// A traced run's record. Both figures clip the top 1% so the bucket
/// domain matches the readable range of the paper's x-axis (which tops out
/// at ~1800); the clipped tail's sums are kept.
#[derive(Debug, Clone)]
pub struct TracedRecord {
    pub content_hash: u64,
    pub cycles: u64,
    pub instructions: u64,
    /// Coverage pins: a `next_event` that answers needlessly early changes
    /// no output, but moves these.
    pub idle: IdleCounts,
    /// Stall cycles per reason, summed over SMs.
    pub stalls: StallBreakdown,
    /// Counter samples integrated.
    pub samples: u64,
    /// Events the tracer was handed, recorded plus dropped, so its cap does
    /// not move them.
    pub events: u64,
    /// Each counter's summary over every sample.
    pub counters: [CounterSummary; CounterKind::COUNT],
    /// Figure 1, over 48 buckets.
    pub fetches: LatencyBreakdown,
    /// Figure 2, over 24 buckets.
    pub loads: ExposureAnalysis,
    /// Load instructions, issue to completion.
    pub load_latency: Latency,
    /// Line fetches, the Figure-1 timeline's total.
    pub fetch_latency: Latency,
    /// The static analyzer's contracts A and B, as the run held them.
    pub contracts: ValidationReport,
}

impl Record {
    /// # Panics
    ///
    /// Panics on a chase record: only E1, §II's sweep and E7 read those.
    fn traced(&self) -> &TracedRecord {
        match self {
            Record::Traced(r) => r,
            _ => panic!("a chase run has no traces"),
        }
    }

    /// # Panics
    ///
    /// Panics unless this is an unloaded chase point's record.
    fn point(&self) -> &ChaseMeasurement {
        match self {
            Record::Point(m) => m,
            _ => panic!("not a chase point's record"),
        }
    }

    /// A loaded chase's cycles per access; an unloaded point's preset,
    /// level and measurement, with its published-reference verdict when its
    /// row checks one; for a traced run its identity, idle coverage, stall
    /// and counter totals (what the bundle's `metrics.txt` reports), fetch
    /// and load totals, the bucket `table` its row draws and its latencies
    /// (or only its contract verdict).
    fn write_pins(&self, spec: &Spec, w: &mut Writer, table: Table) {
        let r = match (self, spec) {
            (Record::Traced(r), _) if table == Table::Contracts => {
                r.contracts.write_pins(w);
                return;
            }
            (Record::Traced(r), _) => r,
            (Record::Chase(per_access), _) => {
                w.value(*per_access);
                return;
            }
            (Record::Point(m), Spec::Point(preset, ..)) => {
                let level = spec.level().expect("Table I reads its row's points");
                w.object().field("preset", preset.name());
                w.field("token", preset.token())
                    .field("level", level.label());
                write_measurement(w, m);
                if table == Table::Reference {
                    let check = reference::check_point(*preset, level, m.per_access);
                    check.expect("reducing the point checked it").write_pins(w);
                }
                w.end();
                return;
            }
            (Record::Point(_) | Record::Infer(..), _) => {
                unreachable!("§II's sweep pins its records per preset")
            }
        };
        let hash = format!("{:016x}", r.content_hash);
        w.object()
            .field("content_hash", hash)
            .field("cycles", r.cycles);
        w.field("instructions", r.instructions);
        w.field("skipped_cycles", r.idle.skipped_cycles);
        w.field("sm_ticks_slept", r.idle.sm_ticks_slept);
        w.field("sm_port_sleeps", r.idle.sm_port_sleeps);
        w.field("partition_ticks_slept", r.idle.partition_ticks_slept);
        w.field("samples", r.samples).field("events", r.events);
        w.key("stalls").object();
        for reason in StallReason::ALL {
            w.field(reason.name(), r.stalls.get(reason));
        }
        w.end().key("counters").object();
        for kind in CounterKind::ALL {
            let s = r.counters[kind.index()];
            w.key(kind.name()).object().field("min", s.min);
            w.field("max", s.max).field("sum", s.sum).end();
        }
        w.end().key("fetches");
        r.fetches.write_pins(w, table == Table::Fetches);
        w.key("loads");
        r.loads.write_pins(w, table == Table::Loads);
        w.field("load_latency", r.load_latency);
        w.field("fetch_latency", r.fetch_latency).end();
    }
}

/// Executes `spec` and reduces it to its record. Every error names the run.
fn reduce(spec: &Spec) -> Result<Record, String> {
    let failed = |e: &dyn fmt::Display| format!("running {spec}: {e}");
    match spec {
        Spec::Traced(config, workload, exp) => {
            let mut config = config.clone();
            if env_bundle_root().ok().flatten().is_none() {
                config.trace = sampled(config.trace);
            }
            let run = run_to_completion(config, workload, exp).map_err(|e| failed(&e))?;
            reduce_run(spec, &run)
        }
        Spec::Chase(config, params, ctas) => {
            let per_access = measure_chase_under_load(config, params, *ctas);
            per_access.map(Record::Chase).map_err(|e| failed(&e))
        }
        // A Table I point that breaks the published reference fails the
        // list, as a sanitizer violation does.
        Spec::Point(preset, config, params) => {
            let m = measure_chase(config, params).map_err(|e| failed(&e))?;
            if let Some(level) = spec.level() {
                let check = reference::check_point(*preset, level, m.per_access);
                check.map_err(|e| failed(&e))?;
            }
            Ok(Record::Point(m))
        }
        Spec::Infer(_, config) => {
            let levels = infer_hierarchy(config, ChaseSpace::Global, 512, 1024, 512 * 1024);
            let levels = levels.map_err(|e| failed(&e))?;
            let l1 = config
                .arch_desc()
                .serves(LevelKind::L1, PipelineSpace::Global);
            let line_size = l1.then(|| infer_line_size(config, 64 * 1024)).transpose();
            Ok(Record::Infer(levels, line_size.map_err(|e| failed(&e))?))
        }
    }
}

/// An unloaded chase point's pins: its two run lengths and cycles per
/// access.
fn write_measurement(w: &mut Writer, m: &ChaseMeasurement) {
    w.field("cycles_short", m.cycles_short);
    w.field("cycles_long", m.cycles_long);
    w.field("measured", m.per_access);
}

/// `trace` with the counter sampler on and nothing stored: a record reads
/// only the summaries, which integrate every sample however small the ring,
/// and the event count, which counts drops. When `LATENCY_TRACE` names a
/// bundle directory, [`run_traced`]'s caps stand instead; the pins are the
/// same.
fn sampled(trace: TraceConfig) -> TraceConfig {
    TraceConfig {
        enabled: true,
        max_events: 0,
        counter_capacity: 1,
        ..trace
    }
}

/// Reduces `spec`'s finished run to its record. Release builds only count
/// sanitizer violations, so this is where one fails the list; a run that
/// contradicts the static analyzer fails it the same way.
fn reduce_run(spec: &Spec, run: &TracedRun) -> Result<Record, String> {
    let Spec::Traced(config, workload, _) = spec else {
        unreachable!("only a traced run has traces")
    };
    if run.sanitizer_violations > 0 {
        let violations = run.sanitizer_violations;
        return Err(format!(
            "{violations} sanitizer violation(s) running {spec}"
        ));
    }
    let contracts = validate::check(config, workload, run).map_err(|broken| {
        let (n, broken) = (broken.len(), broken.join("; "));
        format!("{n} static-vs-dynamic contract violation(s) running {spec}: {broken}")
    })?;
    let fetches = run.requests.iter().map(|r| r.timeline.total_latency());
    let m = &run.metrics;
    Ok(Record::Traced(Box::new(TracedRecord {
        content_hash: run.content_hash,
        cycles: run.cycles,
        instructions: run.instructions,
        idle: run.idle,
        stalls: m.stalls,
        samples: m.samples,
        events: m.events_recorded + m.events_dropped,
        counters: m.counters,
        fetches: LatencyBreakdown::from_requests_clipped(&run.requests, 48, 0.99).0,
        loads: ExposureAnalysis::from_loads_clipped(&run.loads, 24, 0.99).0,
        load_latency: Latency::of(run.loads.iter().map(LoadInstrRecord::total)),
        fetch_latency: Latency::of(fetches.flatten()),
        contracts,
    })))
}

/// What a row pins beyond its runs' own: the bucket table it draws or the
/// published reference it checks; or, instead, their contract verdicts or
/// §II's sweep of each preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    None,
    Fetches,
    Loads,
    Reference,
    Contracts,
    Sweep,
}

/// The runs a renderer reads, each beside its record, in the row's order.
type Runs<'a> = [(&'a Spec, &'a Record)];

/// One row of the experiment list; `latency <name>` prints its render.
#[derive(Debug)]
pub struct Experiment {
    /// Subcommand, `BENCH_experiments.json` key and EXPERIMENTS.md marker.
    pub name: &'static str,
    /// The runs it reads, given the machine and BFS input of the paper's
    /// dynamic runs (the full GF100, [`BfsExperiment::default`]).
    pub runs: RunsFn,
    table: Table,
    render: fn(&Runs) -> String,
}

type RunsFn = fn(&GpuConfig, &BfsExperiment) -> Vec<Spec>;

const fn row(
    name: &'static str,
    runs: RunsFn,
    table: Table,
    render: fn(&Runs) -> String,
) -> Experiment {
    Experiment {
        name,
        runs,
        table,
        render,
    }
}

/// Table I, the published-reference check, §II's sweep, the paper's
/// figures, the workspace's ablations and the static analyzer's contracts,
/// in `--help` order.
pub static EXPERIMENTS: [Experiment; 12] = [
    row("table1", paper_points, Table::None, table1),
    row("validate", every_point, Table::Reference, validate),
    row("sweep", grids, Table::Sweep, sweep),
    row("fig1", the_bfs, Table::Fetches, fig1),
    row("fig2", the_bfs, Table::Loads, fig2),
    row("other_workloads", e4, Table::None, other_workloads),
    row(
        "dram_sched_ablation",
        scheds,
        Table::None,
        dram_sched_ablation,
    ),
    row("hiding_sweep", warps_x_policies, Table::None, hiding_sweep),
    row("loaded_latency", chases, Table::None, loaded_latency),
    row(
        "write_policy_ablation",
        policies,
        Table::None,
        write_policy_ablation,
    ),
    row("arch_dynamic", generations, Table::None, arch_dynamic),
    row(
        "static_vs_dynamic",
        e4_and_bfs,
        Table::Contracts,
        static_vs_dynamic,
    ),
];

/// The Table I points of `presets`, preset-major, each on its preset's
/// microbenchmark machine.
fn points(presets: &[ArchPreset]) -> Vec<Spec> {
    let preset_points = |&preset: &ArchPreset| {
        let config = preset.config_microbench();
        let points = row_points(&config.arch_desc()).into_iter();
        points.map(move |(_, params)| Spec::Point(preset, config.clone(), params))
    };
    presets.iter().flat_map(preset_points).collect()
}

fn paper_points(_: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    points(&ArchPreset::TABLE1)
}

fn every_point(_: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    points(&ArchPreset::ALL)
}

/// Each preset's Table I row, assembled from its points in run order.
fn measured_rows(runs: &Runs) -> Vec<(ArchPreset, MeasuredRow)> {
    let point = |&(spec, record): &(&Spec, &Record)| match spec {
        Spec::Point(preset, ..) => {
            let level = spec.level().expect("Table I reads its row's points");
            (*preset, level, record.point().per_access)
        }
        _ => unreachable!("Table I reads chase points"),
    };
    let points: Vec<_> = runs.iter().map(point).collect();
    let row = |points: &[(ArchPreset, LevelKind, f64)]| {
        let levels = points.iter().map(|&(_, level, latency)| (level, latency));
        (points[0].0, MeasuredRow::from_points(levels))
    };
    points.chunk_by(|a, b| a.0 == b.0).map(row).collect()
}

/// E1: the paper's **Table I** — static latencies of the global-memory
/// pipeline across four generations, measured beside published.
fn table1(runs: &Runs) -> String {
    let rows: Vec<_> = measured_rows(runs)
        .into_iter()
        .map(|(preset, measured)| (preset, measured, preset.published()))
        .collect();
    let names: String = rows
        .iter()
        .map(|(p, ..)| format!(" | {:>22}", p.name()))
        .collect();
    let rule = "-".repeat(8 + rows.len() * 25);
    let cell = |m: Option<f64>, e: Option<u64>| match (m, e) {
        (Some(m), Some(e)) => format!("{m:>8.0} (paper {e:>4})"),
        (Some(m), None) => format!("{m:>8.0} (paper  ---)"),
        _ => format!("{:>20}", "x"),
    };
    let line = |(unit, level): (&str, LevelKind)| {
        let cells = rows
            .iter()
            .map(|(_, m, e)| cell(m.level(level), e.level(level)));
        let cells: String = cells.map(|c| format!(" | {c:>22}")).collect();
        format!("{unit:8}{cells}\n")
    };
    let units = ["L1 D$", "L2 D$", "DRAM"].into_iter().zip(LevelKind::ALL);
    let lines: String = units.map(line).collect();
    let errors = rows.iter().map(|(_, m, e)| m.max_rel_error(e));
    let worst = 100.0 * errors.fold(0.0, f64::max);
    format!(
        "Table I: latencies of memory loads through the global memory\n\
         pipeline over four generations of NVIDIA GPUs (cycles)\n\n\
         {:8}{names}\n{rule}\n{lines}\nmax relative error vs. paper: {worst:.2}%\n",
        "Unit"
    )
}

/// E1's check: every registered preset's analytic and measured latencies
/// against its published row ([`reference::validate_preset`]).
fn validate(runs: &Runs) -> String {
    let (tolerance, verdicts) = reference::validate_rows(&measured_rows(runs));
    let verdicts: String = verdicts.iter().map(PresetValidation::to_human).collect();
    format!("published-reference validation (tolerance {tolerance:.1}%)\n{verdicts}")
}

/// The §II grid the `sweep` row measures on every preset (and the
/// benchmark's `chase-sweep` workload reads): 2 KiB–512 KiB footprints ×
/// four strides.
pub fn sweep_grid_spec() -> (Vec<u64>, [u64; 4]) {
    (pow2_range(2 * 1024, 512 * 1024), [128u64, 512, 2048, 8192])
}

/// Every preset's measurable grid cells (a chain of at least two elements)
/// on its microbenchmark machine, footprint-major, then its inference.
fn grids(_: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    let (footprints, strides) = sweep_grid_spec();
    let preset_runs = |preset: ArchPreset| {
        let config = preset.config_microbench();
        let cells = footprints.iter().flat_map(|&f| strides.map(|s| (f, s)));
        let cells = cells.filter(|&(f, s)| f / s >= 2);
        let point = |(f, s)| Spec::Point(preset, config.clone(), ChaseParams::global(f, s));
        let mut runs: Vec<Spec> = cells.map(point).collect();
        runs.push(Spec::Infer(preset, config));
        runs
    };
    ArchPreset::ALL.into_iter().flat_map(preset_runs).collect()
}

/// One preset's §II sweep, from its grid points and its inference run.
struct PresetSweep<'a> {
    preset: ArchPreset,
    points: Vec<(&'a ChaseParams, &'a ChaseMeasurement)>,
    levels: &'a [CacheLevelEstimate],
    line_size: Option<u64>,
}

impl<'a> PresetSweep<'a> {
    /// Each preset's sweep, from the row's runs: a preset's grid points end
    /// with its inference.
    fn all(runs: &'a Runs<'a>) -> impl Iterator<Item = PresetSweep<'a>> {
        let ends = |(spec, _): &(&Spec, &Record)| matches!(spec, Spec::Infer(..));
        runs.split_inclusive(ends).map(|runs| {
            let (points, [(Spec::Infer(preset, _), Record::Infer(levels, line_size))]) =
                runs.split_at(runs.len() - 1)
            else {
                unreachable!("a preset's sweep ends with its inference")
            };
            let point = |(spec, record): &(&'a Spec, &'a Record)| match spec {
                Spec::Point(_, _, params) => (params, record.point()),
                _ => unreachable!("a preset's grid holds chase points"),
            };
            let (preset, line_size) = (*preset, *line_size);
            let points = points.iter().map(point).collect();
            PresetSweep {
                preset,
                points,
                levels,
                line_size,
            }
        })
    }

    /// Grid cells with a chain shorter than two elements.
    fn skipped(&self) -> usize {
        let (footprints, strides) = sweep_grid_spec();
        footprints.len() * strides.len() - self.points.len()
    }

    /// The plateaus of the 512 B column.
    fn plateaus(&self) -> Vec<Plateau> {
        let column = self.points.iter().filter(|(p, _)| p.stride == 512);
        let latencies: Vec<f64> = column.map(|(_, m)| m.per_access).collect();
        detect_plateaus(&latencies, 0.20)
    }

    fn render(&self) -> String {
        let (footprints, strides) = sweep_grid_spec();
        let heads: String = strides.iter().map(|s| format!(" {s:>9}B")).collect();
        let cell = |f: u64, s: u64| {
            let at = |(p, _): &&(&ChaseParams, _)| (p.footprint, p.stride) == (f, s);
            match self.points.iter().find(at) {
                Some((_, m)) => format!(" {:>10.1}", m.per_access),
                None => format!(" {:>10}", "-"),
            }
        };
        let line = |&f: &u64| format!("{f:>10}{}\n", strides.map(|s| cell(f, s)).concat());
        let grid: String = footprints.iter().map(line).collect();
        let (total, skipped) = (footprints.len() * strides.len(), self.skipped());
        let skipped = match skipped {
            0 => String::new(),
            n => format!("({n} of {total} grid points skipped: chain shorter than 2 elements)\n"),
        };
        let plateaus: String = self.plateaus().iter().map(|p| format!("  {p}\n")).collect();
        let level = |l: &CacheLevelEstimate| match l.capacity_hi {
            u64::MAX => format!("  memory: ~{:.0} cycles\n", l.latency),
            hi => format!(
                "  cache: ~{:.0} cycles, capacity {} KiB (bracket {}..{hi})\n",
                l.latency,
                l.capacity() / 1024,
                l.capacity_lo
            ),
        };
        let levels: String = self.levels.iter().map(level).collect();
        let line_size = (self.line_size).map_or(String::new(), |l| {
            format!("\ninferred L1 line size: {l} B\n")
        });
        format!(
            "stride x footprint sweep on {}\n\n{:>10}{heads}   (cycles per access)\n\
             {grid}{skipped}\nplateaus at stride 512 B:\n{plateaus}\n\
             inferred hierarchy (capacity bisection):\n{levels}{line_size}",
            self.preset.name(),
            "footprint"
        )
    }

    /// Its grid points' run lengths and cycles per access, the skipped
    /// count, the plateaus, each level's capacity bracket (none for
    /// memory) and latency, and the line size.
    fn write_pins(&self, w: &mut Writer) {
        w.object().field("preset", self.preset.name());
        w.field("token", self.preset.token()).key("points").array();
        for (params, m) in &self.points {
            w.object().field("footprint", params.footprint);
            w.field("stride", params.stride);
            write_measurement(w, m);
            w.end();
        }
        w.end()
            .field("skipped", self.skipped())
            .key("plateaus")
            .array();
        for p in self.plateaus() {
            w.object().field("latency", p.latency);
            w.field("samples", p.samples).end();
        }
        w.end().key("levels").array();
        for l in self.levels {
            let hi = (l.capacity_hi != u64::MAX).then_some(l.capacity_hi);
            w.object().field("latency", l.latency);
            w.field("capacity_lo", l.capacity_lo);
            w.field("capacity_hi", hi).end();
        }
        w.end().field("line_size", self.line_size).end();
    }
}

/// §II, after Wong et al.: each preset's stride × footprint grid, the
/// plateaus of its 512 B column and the hierarchy and line size inferred
/// from chases alone.
fn sweep(runs: &Runs) -> String {
    let blocks: Vec<String> = PresetSweep::all(runs).map(|s| s.render()).collect();
    blocks.join("\n")
}

/// The BFS of `exp` on `base` as changed by `edit`.
fn bfs(base: &GpuConfig, exp: &BfsExperiment, edit: impl FnOnce(&mut GpuConfig)) -> Spec {
    let mut config = base.clone();
    edit(&mut config);
    Spec::Traced(config, Workload::bfs(), *exp)
}

fn the_bfs(base: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    vec![bfs(base, exp, |_| {})]
}

/// One line per traced run.
fn lines(runs: &Runs, line: impl Fn(&Spec, &TracedRecord) -> String) -> String {
    runs.iter()
        .map(|(spec, record)| line(spec, record.traced()))
        .collect()
}

/// A figure's title and its `config: …, graph: …` line.
fn figure_header(title: &str, spec: &Spec) -> String {
    let Spec::Traced(config, _, exp) = spec else {
        unreachable!("the figures read a BFS")
    };
    let (name, nodes, degree) = (&config.name, exp.nodes, exp.degree);
    format!("{title}\nconfig: {name}, graph: {nodes} nodes, avg degree {degree}\n\n")
}

/// E2: the paper's **Figure 1** — per-bucket breakdown of BFS fetch
/// latency into pipeline stages.
fn fig1(runs: &Runs) -> String {
    let title = "Figure 1: per-bucket memory fetch latency breakdown, BFS kernel";
    let (head, run) = (figure_header(title, runs[0].0), runs[0].1.traced());
    let (b, cycles) = (&run.fetches, run.cycles);
    let (fetches, overflow, ranked) = (b.total_requests(), b.overflow(), b.ranked_components());
    let line = |(c, share): &(Component, f64)| format!("  {:>12}: {share:>5.1}%\n", c.label());
    let shares: String = ranked.iter().map(line).collect();
    let top: Vec<&str> = ranked[..3].iter().map(|(c, _)| c.label()).collect();
    let top = top.join(", ");
    format!(
        "{head}{b}\ntraced fetches: {fetches} (+{overflow} beyond the 99th percentile)   \
         simulated cycles: {cycles}\n\noverall component shares:\n{shares}\n\
         paper's observation: queueing (L1toICNT) and arbitration (DRAM QtoSch)\n\
         are key latency contributors; this run's top-3 components: {top}\n"
    )
}

/// E3: the paper's **Figure 2** — the exposed share of BFS global-load
/// latency per bucket.
fn fig2(runs: &Runs) -> String {
    let title = "Figure 2: exposed vs hidden global load latency, BFS kernel";
    let (head, a) = (figure_header(title, runs[0].0), &runs[0].1.traced().loads);
    let (loads, overflow) = (a.total_loads(), a.overflow());
    let exposed = 100.0 * a.overall_exposed_fraction();
    let above = 100.0 * a.buckets_exceeding(0.5);
    format!(
        "{head}{a}\nanalyzed loads: {loads} (+{overflow} beyond the 99th percentile)\n\
         overall exposed fraction: {exposed:.1}%\n\
         loads in buckets with >50% exposure: {above:.1}% (paper: \"more than 50%\n\
         for most of the global memory load instructions\")\n"
    )
}

/// The E4 workloads on the paper's machine, then on the sectored, sliced
/// GV100: does the paper's answer hold on a modern hierarchy?
fn e4(base: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    let machines = [base.clone(), ArchPreset::VoltaGv100.config()];
    let runs = |config: GpuConfig| {
        let run = move |w| Spec::Traced(config.clone(), w, BfsExperiment::default());
        Workload::e4().iter().map(run)
    };
    machines.into_iter().flat_map(runs).collect()
}

/// E4: §III's "other workloads similarly showed queueing and arbitration
/// as the two key latency contributors" — one table per machine.
fn other_workloads(runs: &Runs) -> String {
    let label = |c: &Component| format!(" {:>12}", c.label());
    let labels: String = Component::ALL.iter().map(label).collect();
    let table = |runs: &Runs| {
        let name = runs[0].0.config().name.as_str();
        let chip = name.split_once(' ').map_or(name, |(chip, _)| chip);
        let rows = lines(runs, |spec, run| {
            let Spec::Traced(_, workload, _) = spec else {
                unreachable!("E4 reads traced runs")
            };
            let shares = run.fetches.unclipped_percentages();
            let shares = shares.map(|share| format!(" {share:>11.1}%")).concat();
            let exposed = 100.0 * run.loads.unclipped_exposed_fraction();
            format!("{:>8}{shares} {exposed:>8.1}%\n", workload.name)
        });
        format!(
            "E4: latency component shares per workload ({chip} config)\n\n\
             workload{labels}   exposed\n{rows}\n"
        )
    };
    let same_machine = |a: &(&Spec, &Record), b: &(&Spec, &Record)| a.0.config() == b.0.config();
    let tables: String = runs.chunk_by(same_machine).map(table).collect();
    format!(
        "{tables}queueing components: L1toICNT (miss queue / injection), ICNTtoROP;\n\
         arbitration component: DRAM(QtoSch).\n"
    )
}

fn scheds(base: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    let scheds = [DramSched::FrFcfs, DramSched::Fcfs];
    scheds.map(|s| bfs(base, exp, |c| c.dram.sched = s)).into()
}

/// E5: the paper's suggestion that "request latency could potentially be
/// reduced through usage of a different DRAM scheduling algorithm".
fn dram_sched_ablation(runs: &Runs) -> String {
    let head = " scheduler       cycles    mean load lat     p95 load lat   QtoSch share";
    let rows = lines(runs, |spec, run| {
        let sched = format!("{:?}", spec.config().dram.sched);
        let (cycles, mean, p95) = (run.cycles, run.load_latency.mean(), run.load_latency.p95);
        let qtosch = run.fetches.unclipped_percentages()[Component::DramQToSch.index()];
        format!("{sched:>10} {cycles:>12} {mean:>16.1} {p95:>16} {qtosch:>13.1}%\n")
    });
    let [frfcfs, fcfs] = [0, 1].map(|i| runs[i].1.traced());
    let ratio = fcfs.cycles as f64 / frfcfs.cycles as f64;
    let (fr, fc) = (frfcfs.load_latency.mean(), fcfs.load_latency.mean());
    format!(
        "E5: DRAM scheduler ablation, BFS on GF100\n\n{head}\n{rows}\n\
         FR-FCFS vs FCFS: {ratio:.2}x runtime ratio; mean load latency\n\
         {fr:.0} vs {fc:.0} cycles — scheduling policy shifts the DRAM(QtoSch)\n\
         component exactly as the paper anticipates.\n"
    )
}

fn warps_x_policies(base: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    let point = |warps: usize, policy| {
        bfs(base, exp, |c| {
            c.max_warps_per_sm = warps;
            c.max_ctas_per_sm = c.max_ctas_per_sm.min(warps);
            c.scheduler = policy;
        })
    };
    let policies = [SchedPolicy::Lrr, SchedPolicy::Gto];
    let points = [4, 8, 16, 32, 48].map(|w| policies.map(|p| point(w, p)));
    points.into_iter().flatten().collect()
}

/// E6: exposed BFS load latency vs warp slots per SM and scheduler — the
/// paper's "GPUs are not as effective in latency hiding as commonly
/// thought".
fn hiding_sweep(runs: &Runs) -> String {
    let head = "  warps/SM  scheduler        exposed       cycles";
    let rows = lines(runs, |spec, run| {
        let (warps, policy) = (spec.config().max_warps_per_sm, spec.config().scheduler);
        let (exposed, cycles) = (100.0 * run.loads.unclipped_exposed_fraction(), run.cycles);
        format!(
            "{warps:>10} {:>10} {exposed:>13.1}% {cycles:>12}\n",
            format!("{policy:?}")
        )
    });
    format!(
        "E6: exposed load-latency fraction vs thread-level parallelism\n\n{head}\n{rows}\n\
         even at full occupancy a large fraction of BFS load latency stays\n\
         exposed — latency, not just throughput, limits this workload.\n"
    )
}

/// A DRAM-resident chase on the full machine: the 2 MiB ring is beyond
/// GF100's 768 KiB aggregate L2 and small enough to be quick.
fn chases(base: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    let params = ChaseParams::global(2 * 1024 * 1024, 4096);
    [0, 8, 32, 96]
        .map(|ctas| Spec::Chase(base.clone(), params, ctas))
        .into()
}

/// E7: idle vs loaded latency, the bridge between Table I and Figures
/// 1–2 — one chasing thread under growing streamer interference.
fn loaded_latency(runs: &Runs) -> String {
    let name = &runs[0].0.config().name;
    let head = " streamer CTAs      cycles/access";
    let point = |&(spec, record): &(&Spec, &Record)| match (spec, record) {
        (Spec::Chase(_, _, ctas), Record::Chase(lat)) => (*ctas, *lat),
        _ => unreachable!("E7 reads chases"),
    };
    let idle = point(&runs[0]).1;
    let line = |(ctas, lat): (u32, f64)| {
        let ratio = lat / idle;
        format!("{ctas:>14} {lat:>18.1}   ({ratio:.2}x idle)\n")
    };
    let rows: String = runs.iter().map(point).map(line).collect();
    format!(
        "E7: chase latency vs interference, {name}\n\n{head}\n{rows}\n\
         the idle latency of Table I is a lower bound; under load the same\n\
         access inflates through queueing and DRAM arbitration — the dynamic\n\
         components of Figure 1.\n"
    )
}

fn policies(base: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    let policy = |p| bfs(base, exp, |c| c.l2.as_mut().expect(HAS_L2).write_policy = p);
    [WritePolicy::WriteThrough, WritePolicy::WriteBack]
        .map(policy)
        .into()
}

const HAS_L2: &str = "the write-policy ablation's machine has an L2";

/// E8: what the L2 write policy does to BFS. The workspace models
/// Fermi-style write-through stores by default; GF100's L2 is write-back.
fn write_policy_ablation(runs: &Runs) -> String {
    let head = "        policy       cycles   mean fetch lat  p95 fetch lat";
    let rows = lines(runs, |spec, run| {
        let policy = format!(
            "{:?}",
            spec.config().l2.as_ref().expect(HAS_L2).write_policy
        );
        let (cycles, mean, p95) = (run.cycles, run.fetch_latency.mean(), run.fetch_latency.p95);
        let share = |c: Component| run.fetches.overall_percentages()[c.index()];
        let (q, s) = (share(Component::DramQToSch), share(Component::DramSchToA));
        let l = share(Component::L1ToIcnt);
        format!(
            "{policy:>14} {cycles:>12} {mean:>16.1} {p95:>14}\n\
             {:14}  QtoSch {q:.1}%  SchToA {s:.1}%  L1toICNT {l:.1}%\n",
            ""
        )
    });
    format!(
        "E8: L2 write-policy ablation, BFS on GF100\n\n{head}\n{rows}\n\
         write-back absorbs BFS's store traffic in the L2, relieving the\n\
         DRAM arbitration pressure that write-through creates.\n"
    )
}

fn generations(_: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    let exp = BfsExperiment {
        nodes: 8192,
        ..*exp
    };
    ArchPreset::ALL
        .map(|p| bfs(&p.config(), &exp, |_| {}))
        .into()
}

/// The same BFS on every modeled generation: §II shows static latency
/// rising over generations; this asks what loaded latency and exposure do.
fn arch_dynamic(runs: &Runs) -> String {
    let Spec::Traced(_, _, exp) = runs[0].0 else {
        unreachable!("every generation runs the BFS")
    };
    let (nodes, degree) = (exp.nodes, exp.degree);
    let head = "              arch     cycles    mean load       p95 load    exposed";
    let rows = lines(runs, |spec, run| {
        let (name, cycles) = (&spec.config().name, run.cycles);
        let (mean, p95) = (run.load_latency.mean(), run.load_latency.p95);
        let exposed = 100.0 * run.loads.unclipped_exposed_fraction();
        format!("{name:>18} {cycles:>10} {mean:>12.0} {p95:>14} {exposed:>9.1}%\n")
    });
    format!(
        "BFS ({nodes} nodes, degree {degree}) across GPU generations\n\n{head}\n{rows}\n\
         per-machine results are not normalized for SM/partition counts;\n\
         the interesting column is mean load latency, which tracks each\n\
         generation's pipeline depth and cache policy under load.\n"
    )
}

/// E4's runs, whose kernels cover both transaction granules, and
/// `arch_dynamic`'s, which cover every preset's routing: no run of its own.
fn e4_and_bfs(base: &GpuConfig, exp: &BfsExperiment) -> Vec<Spec> {
    [e4(base, exp), generations(base, exp)].concat()
}

/// The static analyzer's contracts A and B, as each run held them when the
/// plan reduced it (a run that breaks one fails the list instead).
fn static_vs_dynamic(runs: &Runs) -> String {
    let reports = lines(runs, |_, run| run.contracts.to_human());
    format!(
        "static analyzer vs dynamic run: contract A (lines per warp at each load pc)\n\
         and contract B (each request's service level is feasible for its space)\n\n{reports}"
    )
}

/// Rows and the distinct runs they read: a row's runs are indices into
/// `runs`, which holds each run once, in first-declared order.
#[derive(Debug)]
pub struct Plan {
    pub runs: Vec<Spec>,
    pub rows: Vec<(&'static Experiment, Vec<usize>)>,
}

impl Plan {
    /// Plans `rows` on `base` and `exp`, deduplicating runs by equality.
    pub fn new(
        rows: impl IntoIterator<Item = &'static Experiment>,
        base: &GpuConfig,
        exp: &BfsExperiment,
    ) -> Plan {
        let mut runs: Vec<Spec> = Vec::new();
        let mut index = |spec: Spec| match runs.iter().position(|r| *r == spec) {
            Some(i) => i,
            None => {
                runs.push(spec);
                runs.len() - 1
            }
        };
        let mut plan_row = |row: &'static Experiment| {
            let indices = (row.runs)(base, exp).into_iter().map(&mut index);
            (row, indices.collect())
        };
        let rows = rows.into_iter().map(&mut plan_row).collect();
        Plan { runs, rows }
    }

    /// The paper's plan: `rows` on the full GF100 and the default BFS.
    pub fn paper(rows: impl IntoIterator<Item = &'static Experiment>) -> Plan {
        let base = ArchPreset::FermiGf100.config();
        Plan::new(rows, &base, &BfsExperiment::default())
    }

    /// Executes each distinct run once on the [`latency_core::parallel`]
    /// pool, reducing it to its record — and timing it, in seconds —
    /// before its worker takes the next. Errors with the first failure.
    pub fn execute(&self) -> Result<Vec<(Record, f64)>, String> {
        latency_core::parallel::try_par_map(&self.runs, |_, spec| {
            let t0 = Instant::now();
            Ok((reduce(spec)?, t0.elapsed().as_secs_f64()))
        })
    }

    /// Each preset's Table I row over the plan's chase points, in run
    /// order, from [`Plan::execute`]'s records.
    pub fn measured_rows(&self, records: &[Record]) -> Vec<(ArchPreset, MeasuredRow)> {
        let runs: Vec<_> = self.runs.iter().zip(records).collect();
        let points = |&(spec, _): &(&Spec, &Record)| spec.level().is_some();
        measured_rows(&runs.into_iter().filter(points).collect::<Vec<_>>())
    }

    /// A row's runs beside their records.
    fn runs<'a>(&'a self, runs: &[usize], records: &'a [Record]) -> Vec<(&'a Spec, &'a Record)> {
        runs.iter().map(|&i| (&self.runs[i], &records[i])).collect()
    }

    /// Each row's name and stdout, from [`Plan::execute`]'s records.
    pub fn render(&self, records: &[Record]) -> Vec<(&'static str, String)> {
        let render = |(row, runs): &(&'static Experiment, Vec<usize>)| {
            (row.name, (row.render)(&self.runs(runs, records)))
        };
        self.rows.iter().map(render).collect()
    }

    /// The `BENCH_experiments.json` document: per row, its runs' pins (per
    /// preset for §II's sweep).
    pub fn pins_json(&self, records: &[Record]) -> String {
        let mut w = Writer::indented();
        w.object().field("name", "experiments").key("rows").object();
        for (row, runs) in &self.rows {
            let runs = self.runs(runs, records);
            w.key(row.name).array();
            match row.table {
                Table::Sweep => PresetSweep::all(&runs).for_each(|s| s.write_pins(&mut w)),
                table => runs
                    .iter()
                    .for_each(|(s, r)| r.write_pins(s, &mut w, table)),
            }
            w.end();
        }
        w.finish()
    }
}

/// Replaces each rendered row's EXPERIMENTS.md block — its stdout, fenced,
/// between `<!-- latency NAME -->` and `<!-- end latency NAME -->` lines —
/// with the fresh render. Returns the new text and the rows whose block
/// changed, or names a row whose markers are missing.
pub fn splice_doc(
    doc: &str,
    rendered: &[(&'static str, String)],
) -> Result<(String, Vec<&'static str>), String> {
    let (mut doc, mut changed) = (doc.to_string(), Vec::new());
    for (name, stdout) in rendered {
        let begin = format!("<!-- latency {name} -->\n");
        let end = format!("<!-- end latency {name} -->\n");
        let missing = || format!("EXPERIMENTS.md has no `{}` block", begin.trim());
        let start = doc.find(&begin).ok_or_else(missing)?;
        let stop = start + doc[start..].find(&end).ok_or_else(missing)? + end.len();
        let block = format!("{begin}```text\n{stdout}```\n{end}");
        if doc[start..stop] != block {
            doc.replace_range(start..stop, &block);
            changed.push(*name);
        }
    }
    Ok((doc, changed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{Stamp, Timeline};

    /// The runs of row `name` on a 4-SM, 2-partition GF100 and a 512-node
    /// BFS.
    fn small_runs(name: &str) -> Vec<Spec> {
        let mut small = GpuConfig::fermi_gf100();
        (small.num_sms, small.num_partitions) = (4, 2);
        let exp = BfsExperiment {
            nodes: 512,
            degree: 6,
            seed: 1,
            block_dim: 64,
        };
        let row = EXPERIMENTS.iter().find(|e| e.name == name).expect("a row");
        (row.runs)(&small, &exp)
    }

    #[test]
    fn bfs_trace_collects_requests_and_loads() {
        let record = reduce(&small_runs("fig1")[0]).unwrap();
        let run = record.traced();
        assert!(run.fetches.total_requests() > 0);
        assert!(run.loads.total_loads() > 0);
        assert!(run.cycles > 0);
        assert!(run.instructions > 0);
    }

    /// A traced record's pins, as `BENCH_experiments.json` holds them.
    fn pins(spec: &Spec, record: &Record) -> String {
        let mut w = Writer::indented();
        record.write_pins(spec, &mut w, Table::None);
        w.finish()
    }

    #[test]
    fn stall_and_counter_pins_do_not_depend_on_the_tracer_caps() {
        // The list stores no event and keeps one counter sample; a
        // `LATENCY_TRACE` run stores up to the default caps. Both must pin
        // the same totals.
        let spec = &small_runs("fig1")[0];
        let Spec::Traced(config, workload, exp) = spec else {
            unreachable!("fig1 reads a BFS")
        };
        let run = |trace| {
            let config = GpuConfig {
                trace,
                ..config.clone()
            };
            run_to_completion(config, workload, exp).unwrap()
        };
        let listed = run(sampled(config.trace));
        let stored = run(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
        assert_eq!(listed.trace.events.len(), 0);
        assert_eq!(listed.trace.samples.len(), 1);
        assert!(stored.trace.events.len() > 1 && stored.trace.samples.len() > 1);
        let [listed, stored] =
            [&listed, &stored].map(|r| pins(spec, &reduce_run(spec, r).unwrap()));
        assert_eq!(listed, stored);
        let record = reduce(spec).unwrap();
        let r = record.traced();
        assert!(
            r.samples > 1 && r.events > 1 && r.stalls.total() > 0,
            "{listed}"
        );
        assert_eq!(pins(spec, &record), listed);
    }

    #[test]
    fn a_partition_latency_moves_stall_and_counter_pins() {
        // One ROP cycle more: the drift names where the time went, not only
        // that the run got longer.
        let spec = small_runs("fig1").remove(0);
        let mut slower = spec.clone();
        let Spec::Traced(config, ..) = &mut slower else {
            unreachable!("fig1 reads a BFS")
        };
        config.rop_latency += 1;
        let [before, after] = [&spec, &slower].map(|s| pins(s, &reduce(s).unwrap()));
        let findings = crate::regression::compare_json(&before, &after).unwrap();
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"cycles"), "{paths:?}");
        for section in ["stalls.", "counters."] {
            assert!(paths.iter().any(|p| p.starts_with(section)), "{paths:?}");
        }
    }

    #[test]
    fn dram_sched_ablation_produces_both_rows() {
        let specs = small_runs("dram_sched_ablation");
        let scheds: Vec<DramSched> = specs.iter().map(|s| s.config().dram.sched).collect();
        assert_eq!(scheds, [DramSched::FrFcfs, DramSched::Fcfs]);
        let records: Vec<Record> = specs.iter().map(|s| reduce(s).unwrap()).collect();
        assert!(records.iter().all(|r| r.traced().load_latency.mean() > 0.0));
        let stdout = dram_sched_ablation(&specs.iter().zip(&records).collect::<Vec<_>>());
        let rows = stdout.lines().map(str::trim_start);
        let rows = rows.filter(|l| l.starts_with("FrFcfs ") || l.starts_with("Fcfs "));
        assert_eq!(rows.count(), 2, "{stdout}");
    }

    #[test]
    fn hiding_sweep_exposed_fraction_decreases_with_more_warps() {
        let specs = small_runs("hiding_sweep");
        assert_eq!(specs.len(), 10);
        // The fewest and the most warps, both under LRR.
        let [few, many] = [&specs[0], &specs[8]].map(|s| {
            let record = reduce(s).unwrap();
            record.traced().loads.unclipped_exposed_fraction()
        });
        assert!(
            few >= many,
            "more warps should hide at least as much latency: {few} vs {many}"
        );
    }

    /// Vecadd on `spec`'s machine, with its finished run.
    fn vecadd_run(spec: &Spec) -> TracedRun {
        let Spec::Traced(config, workload, exp) = spec else {
            unreachable!()
        };
        run_to_completion(config.clone(), workload, exp).unwrap()
    }

    #[test]
    fn workload_runs_are_verified() {
        assert!(!vecadd_run(&small_runs("other_workloads")[0])
            .loads
            .is_empty());
    }

    #[test]
    fn a_sanitizer_violation_fails_the_list() {
        // Release builds only count violations: reducing the run is where a
        // broken machine must turn into a failing experiment list.
        let spec = &small_runs("other_workloads")[0];
        let mut run = vecadd_run(spec);
        assert!(reduce_run(spec, &run).is_ok());
        run.sanitizer_violations = 3;
        let err = reduce_run(spec, &run).expect_err("the run tripped the sanitizer");
        let name = &spec.config().name;
        let expected = format!("3 sanitizer violation(s) running vecadd on {name}");
        assert!(err.contains(&expected), "{err}");
    }

    #[test]
    fn more_lines_than_predicted_fail_the_list() {
        // Contract A: a warp coalesced into more transactions than the
        // analyzer predicted for its pc.
        let spec = &small_runs("other_workloads")[0];
        let mut run = vecadd_run(spec);
        let Ok(Record::Traced(ok)) = reduce_run(spec, &run) else {
            panic!("vecadd holds its contracts")
        };
        let load = &ok.contracts.loads[0];
        let record = run.loads.iter_mut().find(|r| r.pc == load.pc).unwrap();
        record.lines = load.predicted_lines as u32 + 2;
        let err = reduce_run(spec, &run).expect_err("the run contradicts the analyzer");
        let (name, pc) = (&spec.config().name, load.pc);
        let expected = format!("violation(s) running vecadd on {name}: pc {pc}: observed");
        assert!(err.contains(&expected), "{err}");
    }

    #[test]
    fn an_infeasible_service_level_fails_the_list() {
        // Contract B: a request whose stamps say the L1 served it, on GT200,
        // which has no L1.
        let mut gt200 = ArchPreset::TeslaGt200.config();
        (gt200.num_sms, gt200.num_partitions) = (4, 2);
        let spec = &Spec::Traced(gt200, &Workload::e4()[0], BfsExperiment::default());
        let mut run = vecadd_run(spec);
        assert!(reduce_run(spec, &run).is_ok());
        let timeline = &mut run.requests[0].timeline;
        let issue = timeline.get(Stamp::Issue).unwrap();
        *timeline = Timeline::new();
        timeline.record(Stamp::Issue, issue);
        timeline.record(Stamp::Returned, issue);
        let err = reduce_run(spec, &run).expect_err("GT200 has no L1 to serve it");
        let expected = "violation(s) running vecadd on GT200 (Tesla): \
                        1 request(s) served at L1 but Global space only allows [\"DRAM\"]";
        assert!(err.contains(expected), "{err}");
    }

    #[test]
    fn a_failed_run_names_its_machine_and_geometry() {
        let gf100 = ArchPreset::FermiGf100.config();
        let spec = Spec::Chase(gf100, ChaseParams::global(4096, 7), 0);
        assert_eq!(
            reduce(&spec).unwrap_err(),
            "running a 4096 B chase at stride 7 under 0 streamer CTA(s) on GF100 (Fermi): \
             stride 7 is not a positive multiple of 8"
        );
        let [dram @ Spec::Point(preset, config, _)] = &points(&[ArchPreset::TeslaGt200])[..] else {
            unreachable!("GT200 has only its DRAM point")
        };
        assert_eq!(
            dram.to_string(),
            "the DRAM point (1048576 B chase at stride 4096) on GT200 (Tesla)"
        );
        let spec = Spec::Point(*preset, config.clone(), ChaseParams::global(8, 128));
        assert_eq!(
            reduce(&spec).unwrap_err(),
            "running a 8 B chase at stride 128 on GT200 (Tesla): \
             footprint 8 < stride 128: empty chain"
        );
        let infer = Spec::Infer(*preset, config.clone());
        assert_eq!(
            infer.to_string(),
            "the hierarchy inference on GT200 (Tesla)"
        );
    }

    #[test]
    fn table_renders_paper_layout() {
        // GF106's points, each measuring exactly its published latency.
        let specs = points(&[ArchPreset::FermiGf106]);
        let published = ArchPreset::FermiGf106.published();
        let record = |spec: &Spec| {
            let level = spec.level().expect("Table I reads its row's points");
            let per_access = published.level(level).expect("published") as f64;
            Record::Point(ChaseMeasurement {
                per_access,
                accesses: 0,
                cycles_short: 0,
                cycles_long: 0,
            })
        };
        let records: Vec<Record> = specs.iter().map(record).collect();
        let s = table1(&specs.iter().zip(&records).collect::<Vec<_>>());
        assert!(s.contains("L1 D$"));
        assert!(s.contains("DRAM"));
        assert!(s.contains("GF106"));
        let l2 = published.l2.unwrap();
        assert!(s.contains(&format!("paper {l2:>4}")), "{s}");
        assert!(s.ends_with("max relative error vs. paper: 0.00%\n"), "{s}");
    }
}
