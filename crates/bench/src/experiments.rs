//! The paper's experiments as one list, and the one instrumented driver
//! under it.
//!
//! Every instrumented run — plain, checkpointed or resumed, BFS or any
//! other workload-table entry — goes through [`run_traced`], which wraps
//! [`Workload::execute`] with the latency sink and the `LATENCY_TRACE`
//! hook and is the only place a [`TracedRun`] is built.
//!
//! [`EXPERIMENTS`] holds the figures and ablations. Each row declares the
//! runs it reads ([`Spec`]), the pins it records and how it renders its
//! stdout. A [`Plan`] executes each distinct run once — `fig1`, `fig2`,
//! E5's FR-FCFS row, E6's 48-warp LRR point and E8's write-through row are
//! one BFS — and reduces it to a [`Record`] of exact integers before its
//! worker takes the next. `latency <row>`, `BENCH_experiments.json` and the
//! blocks of EXPERIMENTS.md are all rendered from those records.

use std::path::Path;
use std::time::Instant;

use gpu_mem::DramSched;
use gpu_sim::{
    CheckpointPolicy, CompletedRequest, GpuConfig, LoadInstrRecord, RunOutcome, SchedPolicy,
    SimError, WritePolicy,
};
use gpu_trace::json::{ToJson, Writer};
use gpu_workloads::{BfsExperiment, Workload};
use latency_core::{
    measure_chase_under_load, ArchPreset, ChaseParams, Component, ExposureAnalysis,
    LatencyBreakdown,
};

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
/// latency traces.
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

/// One run a row reads. Rows that declare equal runs share one execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A traced workload-table run ([`run_traced`]).
    Traced(GpuConfig, &'static Workload, BfsExperiment),
    /// E7's chase under that many streamer CTAs.
    Chase(GpuConfig, ChaseParams, u32),
}

impl Spec {
    /// The machine the run simulates.
    pub fn config(&self) -> &GpuConfig {
        match self {
            Spec::Traced(config, ..) | Spec::Chase(config, ..) => config,
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
}

/// A traced run's record. Both figures clip the top 1% so the bucket
/// domain matches the readable range of the paper's x-axis (which tops out
/// at ~1800); the clipped tail's sums are kept.
#[derive(Debug, Clone)]
pub struct TracedRecord {
    pub content_hash: u64,
    pub cycles: u64,
    pub instructions: u64,
    /// Figure 1, over 48 buckets.
    pub fetches: LatencyBreakdown,
    /// Figure 2, over 24 buckets.
    pub loads: ExposureAnalysis,
    /// Load instructions, issue to completion.
    pub load_latency: Latency,
    /// Line fetches, the Figure-1 timeline's total.
    pub fetch_latency: Latency,
}

impl Record {
    /// # Panics
    ///
    /// Panics on a chase record: only E7 reads those.
    fn traced(&self) -> &TracedRecord {
        match self {
            Record::Traced(r) => r,
            Record::Chase(_) => panic!("a chase run has no traces"),
        }
    }

    /// A chase's cycles per access; for a traced run its identity, fetch
    /// and load totals, the bucket `table` its row draws and its latencies.
    fn write_pins(&self, w: &mut Writer, table: Table) {
        let r = match self {
            Record::Traced(r) => r,
            Record::Chase(per_access) => {
                w.value(*per_access);
                return;
            }
        };
        let hash = format!("{:016x}", r.content_hash);
        w.object()
            .field("content_hash", hash)
            .field("cycles", r.cycles);
        w.field("instructions", r.instructions).key("fetches");
        r.fetches.write_pins(w, table == Table::Fetches);
        w.key("loads");
        r.loads.write_pins(w, table == Table::Loads);
        w.field("load_latency", r.load_latency);
        w.field("fetch_latency", r.fetch_latency).end();
    }
}

/// Executes `spec` and reduces it to its record.
fn reduce(spec: &Spec) -> Result<Record, String> {
    let (config, workload, exp) = match spec {
        Spec::Traced(config, workload, exp) => (config.clone(), workload, exp),
        Spec::Chase(config, params, ctas) => {
            let per_access = measure_chase_under_load(config, params, *ctas);
            return per_access.map(Record::Chase).map_err(|e| e.to_string());
        }
    };
    let run = run_to_completion(config, workload, exp).map_err(|e| e.to_string())?;
    let fetches = run.requests.iter().map(|r| r.timeline.total_latency());
    Ok(Record::Traced(Box::new(TracedRecord {
        content_hash: run.content_hash,
        cycles: run.cycles,
        instructions: run.instructions,
        fetches: LatencyBreakdown::from_requests_clipped(&run.requests, 48, 0.99).0,
        loads: ExposureAnalysis::from_loads_clipped(&run.loads, 24, 0.99).0,
        load_latency: Latency::of(run.loads.iter().map(LoadInstrRecord::total)),
        fetch_latency: Latency::of(fetches.flatten()),
    })))
}

/// The bucket table a row pins beyond its runs' totals: the one it draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    None,
    Fetches,
    Loads,
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

/// The paper's figures and the workspace's ablations, in `--help` order.
pub static EXPERIMENTS: [Experiment; 8] = [
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
];

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

fn e4(base: &GpuConfig, _: &BfsExperiment) -> Vec<Spec> {
    let run = |w| Spec::Traced(base.clone(), w, BfsExperiment::default());
    Workload::e4().iter().map(run).collect()
}

/// E4: §III's "other workloads similarly showed queueing and arbitration
/// as the two key latency contributors".
fn other_workloads(runs: &Runs) -> String {
    let label = |c: &Component| format!(" {:>12}", c.label());
    let labels: String = Component::ALL.iter().map(label).collect();
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
        "E4: latency component shares per workload (GF100 config)\n\n\
         workload{labels}   exposed\n{rows}\n\
         queueing components: L1toICNT (miss queue / injection), ICNTtoROP;\n\
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

    /// Each row's name and stdout, from [`Plan::execute`]'s records.
    pub fn render(&self, records: &[Record]) -> Vec<(&'static str, String)> {
        let render = |(row, runs): &(&'static Experiment, Vec<usize>)| {
            let runs: Vec<_> = runs.iter().map(|&i| (&self.runs[i], &records[i])).collect();
            (row.name, (row.render)(&runs))
        };
        self.rows.iter().map(render).collect()
    }

    /// The `BENCH_experiments.json` document: per row, its runs' pins.
    pub fn pins_json(&self, records: &[Record]) -> String {
        let mut w = Writer::indented();
        w.object().field("name", "experiments").key("rows").object();
        for (row, runs) in &self.rows {
            w.key(row.name).array();
            runs.iter()
                .for_each(|&i| records[i].write_pins(&mut w, row.table));
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

    #[test]
    fn workload_runs_are_verified() {
        let vecadd = Workload::by_name("vecadd").unwrap();
        let Spec::Traced(small, ..) = &small_runs("fig1")[0] else {
            unreachable!()
        };
        let run = run_workload_traced(small.clone(), vecadd).unwrap();
        assert!(!run.loads.is_empty());
    }
}
