//! One pass of one workload: rounds of (set-up, measured round) for the
//! requested seconds, then the metrics.
//!
//! A round is the workload's whole fixed op list, so counts repeat exactly
//! from round to round and run to run. Timings do not: on a shared host,
//! neighbours slow this process down by up to half for seconds at a time,
//! and a median over five rounds moves with them. Interference only ever
//! slows an op down, though, and op `i` is the same work in every round, so
//! each op counts at its fastest over the pass's rounds; a round's wall
//! time, the rates and the latency percentiles are all computed from those
//! per-op times. Set-up likewise counts at its fastest repetition.
//!
//! The untraced pass (`--trace 0`) yields the end-to-end metrics. The
//! traced pass (`--trace 1`) alternates untraced and traced rounds — traced
//! rounds run under `gpu_sim::profile`, the span recorder and the counting
//! allocator — so the tracing overhead is measured inside one process, then
//! runs the layer probes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_sim::{profile, GpuConfig, RunSummary};
use gpu_snapshot::StableHasher;

use crate::schema::{Metric, MetricSet, WORKLOADS};
use crate::spans::{ParsedTrace, Recorder, SIM_SPANS};
use crate::stats::{median, percentile};
use crate::{alloc, probes, workloads};

/// `run_seconds` of `BENCHMARK.json`: how long one pass takes.
pub const RUN_SECONDS: f64 = 28.0;

/// Rounds every pass completes however few seconds were asked for, so every
/// op has a second chance at a quiet host.
const MIN_ROUNDS: usize = 2;

/// Seconds of a traced pass kept back for the layer probes that follow its
/// rounds, so both kinds of pass take `--seconds` and the driver's hour
/// holds as many of either as it likes to run.
const PROBE_RESERVE_S: f64 = 8.0;

/// Arguments of one pass.
#[derive(Debug, Clone)]
pub struct PassArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// One timed operation of a round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    /// Host milliseconds from issue to verified result.
    pub ms: f64,
    /// Simulated cycles the op ran (serve-warm: cycles in the result line).
    pub cycles: u64,
    /// Warp instructions the op issued (chases: dependent loads).
    pub instrs: u64,
    pub ok: bool,
    /// Ops of one lane run back to back; lanes (the clients of
    /// `serve-warm`) run side by side.
    pub lane: usize,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: Vec<Op>,
    /// Untimed checks (reference rows): `(attempted, failed)`.
    pub checks: (u64, u64),
    /// Hash over every op's simulation-pure outcome.
    pub digest: u64,
    /// Per-layer counts this round produced (summed `RunSummary`s, daemon
    /// counters); must repeat exactly.
    pub counts: Vec<(&'static str, f64)>,
}

impl Round {
    /// Folds one simulator run into `digest`.
    pub fn hash_summary(h: &mut StableHasher, s: &RunSummary) {
        h.u64(s.content_hash);
        h.u64(s.cycles);
        h.u64(s.instructions);
    }
}

/// Sums the `RunSummary` fields the per-layer `sim.*` counts report.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounts {
    cycles: u64,
    instructions: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_serviced: u64,
    dram_row_hits: u64,
    stall_cycles: u64,
    sanitizer_violations: u64,
    /// Σ cycles × SMs × issue width: the issue slots the runs offered.
    issue_slots: u64,
}

impl SimCounts {
    /// Adds one GPU's cumulative summary.
    pub fn add(&mut self, s: &RunSummary, config: &GpuConfig) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.l1_hits += s.l1_hits;
        self.l1_misses += s.l1_misses;
        self.l2_hits += s.l2_hits;
        self.l2_misses += s.l2_misses;
        self.dram_serviced += s.dram_serviced;
        self.dram_row_hits += s.dram_row_hits;
        self.stall_cycles += s.metrics.stalls.total();
        self.sanitizer_violations += s.sanitizer_violations;
        self.issue_slots += s.cycles * (config.num_sms * config.issue_width) as u64;
    }

    /// Adds a chase point, which exposes only cycles and dependent loads.
    pub fn add_chase(&mut self, cycles: u64, loads: u64, config: &GpuConfig) {
        self.cycles += cycles;
        self.instructions += loads;
        self.issue_slots += cycles * (config.num_sms * config.issue_width) as u64;
    }

    pub fn into_counts(self) -> Vec<(&'static str, f64)> {
        let util = if self.issue_slots == 0 {
            0.0
        } else {
            self.instructions as f64 / self.issue_slots as f64
        };
        vec![
            ("sim.cycles", self.cycles as f64),
            ("sim.instructions", self.instructions as f64),
            ("sim.l1_hits", self.l1_hits as f64),
            ("sim.l1_misses", self.l1_misses as f64),
            ("sim.l2_hits", self.l2_hits as f64),
            ("sim.l2_misses", self.l2_misses as f64),
            ("sim.dram_serviced", self.dram_serviced as f64),
            ("sim.dram_row_hits", self.dram_row_hits as f64),
            ("sim.stall_cycles", self.stall_cycles as f64),
            ("sim.sanitizer_violations", self.sanitizer_violations as f64),
            ("sim.issue_slot_util", util),
        ]
    }
}

/// A benchmark workload: a fixed, seed-derived op list run in rounds.
pub trait Workload {
    /// How many times set-up runs (each timed) before every round; cheap
    /// set-ups repeat so the fastest is a steady number.
    fn setup_reps(&self) -> usize;
    /// Builds everything the next round consumes.
    fn setup(&mut self, rec: &mut Recorder);
    /// Runs the op list once, verifying every result.
    fn round(&mut self, rec: &mut Recorder) -> Round;
    /// The machine the workload simulates (or serves), for the
    /// machine-dependent probes.
    fn machine(&self) -> GpuConfig;
    /// Workload-specific per-layer metrics.
    fn layer_metrics(&self, _traced: &Traced, _out: &mut MetricSet) {}
}

/// What a traced pass hands [`Workload::layer_metrics`].
pub struct Traced<'a> {
    /// The trace file, parsed back.
    pub trace: &'a ParsedTrace,
    /// Every op's fastest latency over all rounds of the pass.
    pub best_ms: &'a [f64],
}

struct MeasuredRound {
    wall_s: f64,
    traced: bool,
    round: Round,
}

struct Measured {
    setups: Vec<f64>,
    rounds: Vec<MeasuredRound>,
}

impl Measured {
    fn rounds(&self, traced: bool) -> Vec<&Round> {
        self.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| &r.round)
            .collect()
    }
}

fn measure(w: &mut dyn Workload, rec: &mut Recorder, args: &PassArgs) -> Measured {
    let started = Instant::now();
    let mut m = Measured {
        setups: Vec::new(),
        rounds: Vec::new(),
    };
    let budget_s = if args.trace {
        (args.seconds - PROBE_RESERVE_S).max(args.seconds / 2.0)
    } else {
        args.seconds
    };
    // A traced pass needs a round of each kind, and two of each to have a
    // fastest one; an untraced --quick pass only has to reach every code
    // path once.
    let min_rounds = match (args.quick, args.trace) {
        (true, false) => 1,
        (false, true) => 2 * MIN_ROUNDS,
        _ => MIN_ROUNDS,
    };
    // What the last round of each kind cost, set-up included: a round is
    // started only if one like it still fits, so a pass ends on time
    // whatever the rounds take, and the samples of an op are spread over
    // the whole of it.
    let mut last_cost_s = [0.0_f64; 2];
    loop {
        // The traced pass starts untraced and alternates.
        let traced = args.trace && m.rounds.len() % 2 == 1;
        let round_started = Instant::now();
        if m.rounds.len() >= min_rounds
            && started.elapsed().as_secs_f64() + last_cost_s[usize::from(traced)] > budget_s
        {
            break;
        }
        rec.round = m.rounds.len() as u64;
        let reps = w.setup_reps();
        for rep in 0..reps {
            // The set-up a traced round consumes is recorded too: it feeds
            // the workloads.* and serve.boot metrics.
            rec.enabled = traced && rep + 1 == reps;
            let t = Instant::now();
            w.setup(rec);
            m.setups.push(t.elapsed().as_secs_f64());
        }
        rec.enabled = traced;
        profile::set_enabled(traced);
        alloc::set_active(traced);
        let t = Instant::now();
        let round = w.round(rec);
        let wall_s = t.elapsed().as_secs_f64();
        profile::set_enabled(false);
        alloc::set_active(false);
        rec.enabled = false;
        last_cost_s[usize::from(traced)] = round_started.elapsed().as_secs_f64();
        m.rounds.push(MeasuredRound {
            wall_s,
            traced,
            round,
        });
    }
    m
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every op at its fastest over `rounds`. Rounds repeat the same op list,
/// so op `i` is the same work in each of them; a failed sample does not
/// count as fast.
fn best_ops(rounds: &[&Round]) -> Vec<Op> {
    let per_round = rounds.iter().map(|r| r.ops.len()).min().unwrap_or(0);
    (0..per_round)
        .map(|i| {
            let samples = rounds.iter().map(|r| r.ops[i]);
            let fastest = samples
                .clone()
                .filter(|o| o.ok)
                .map(|o| o.ms)
                .fold(f64::INFINITY, f64::min);
            let mut op = rounds[0].ops[i];
            op.ok = fastest.is_finite();
            op.ms = if op.ok {
                fastest
            } else {
                samples.map(|o| o.ms).fold(0.0, f64::max)
            };
            op
        })
        .collect()
}

/// Seconds one round takes when its ops take `ops[i].ms`: ops of one lane
/// run back to back, lanes run side by side.
fn round_s(ops: &[Op]) -> f64 {
    let lanes = ops.iter().map(|o| o.lane).max().map_or(0, |l| l + 1);
    (0..lanes)
        .map(|lane| {
            ops.iter()
                .filter(|o| o.lane == lane)
                .map(|o| o.ms)
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
        / 1e3
}

/// p95 over the ops of a round where ten ops lie beyond it; a shorter op
/// list has no tail to speak of, and its slowest op stands in.
fn tail_ms(best_ms: &[f64]) -> f64 {
    percentile(best_ms, 0.95).unwrap_or_else(|| best_ms.iter().copied().fold(0.0, f64::max))
}

fn end_to_end(m: &Measured) -> MetricSet {
    let all: Vec<&Round> = m.rounds.iter().map(|r| &r.round).collect();
    let best = best_ops(&all);
    let best_ms: Vec<f64> = best.iter().map(|o| o.ms).collect();
    let wall_s = round_s(&best);
    let mut out = MetricSet::end_to_end();
    out.set(
        "setup_s",
        m.setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set("wall_s", wall_s);
    out.set("ops_per_s", best.len() as f64 / wall_s);
    out.set("op_latency_p50_ms", median(&best_ms));
    out.set("op_latency_tail_ms", tail_ms(&best_ms));
    out.set(
        "sim_cycles_per_s",
        best.iter().map(|o| o.cycles).sum::<u64>() as f64 / wall_s,
    );
    out.set(
        "sim_instr_per_s",
        best.iter().map(|o| o.instrs).sum::<u64>() as f64 / wall_s,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Host seconds of the benchmark's own spans, scaled to the metric's unit.
const SPAN_TIMES: [(&str, &str, f64); 5] = [
    ("workloads.graph_build_s", "workloads.graph_build", 1.0),
    ("workloads.upload_s", "workloads.upload", 1.0),
    ("workloads.verify_s", "workloads.verify", 1.0),
    ("core.breakdown_ms", "core.breakdown", 1e3),
    ("core.exposure_ms", "core.exposure", 1e3),
];

struct TracedPass {
    layers: MetricSet,
    /// A traced round with every op at its fastest, for the two-pass
    /// overhead `all` prints.
    traced_wall_s: f64,
}

fn per_layer(
    w: &dyn Workload,
    m: &Measured,
    rec: &Recorder,
    allocs: (u64, u64),
    args: &PassArgs,
    scratch: &Path,
) -> Result<TracedPass, String> {
    let mut out = MetricSet::per_layer();
    let traced_wall_s = round_s(&best_ops(&m.rounds(true)));
    out.set(
        "trace.profile_overhead_share",
        traced_wall_s / round_s(&best_ops(&m.rounds(false))) - 1.0,
    );

    // Write the trace, then read every span-derived number back out of it.
    let text = rec.chrome_json();
    let path = args.out.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let t = Instant::now();
    let trace = ParsedTrace::parse(&text)?;
    let parse_s = t.elapsed().as_secs_f64();
    out.set(
        "trace.json_parse_mb_per_s",
        text.len() as f64 / 1e6 / parse_s,
    );
    out.set("bench.span_count", trace.span_count() as f64);
    out.set(
        "bench.build_s",
        std::env::var("BENCH_BUILD_NS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0.0, |ns| ns / 1e9),
    );

    // Host times come from the fastest traced round alone: one coherent
    // round, the one the host disturbed least.
    let fastest = m
        .rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| r.traced)
        .min_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
        .map_or(0, |(index, _)| index as u64);
    let totals = trace.totals(fastest);
    let total = |span: &str| totals.get(span).copied().unwrap_or_default();
    for (_, span) in SIM_SPANS {
        // Metric `sim.x_s` is span `sim.x`; `sim.run` is reported whole, the
        // stages under it have no children.
        let t = total(span);
        out.set(
            &format!("{span}_s"),
            if span == "sim.run" {
                t.total_s
            } else {
                t.self_s
            },
        );
    }
    for (metric, span, scale) in SPAN_TIMES {
        out.set(metric, total(span).self_s * scale);
    }
    let plateaus = total("core.detect_plateaus");
    if plateaus.count > 0 {
        out.set(
            "core.plateau_us",
            plateaus.self_s / plateaus.count as f64 * 1e6,
        );
    }
    let last = &m.rounds.last().expect("a pass has rounds").round;
    for &(name, value) in &last.counts {
        out.set(name, value);
    }
    let count = |name: &str| {
        last.counts
            .iter()
            .find(|c| c.0 == name)
            .map_or(0.0, |c| c.1)
    };
    let (cycles, instrs) = (count("sim.cycles"), count("sim.instructions"));
    let run_ns = total("sim.run").total_s * 1e9;
    if cycles > 0.0 {
        // Allocation counts repeat exactly, so the sum over the traced
        // rounds divides evenly.
        let traced_rounds = m.rounds(true).len() as f64;
        out.set("sim.host_ns_per_cycle", run_ns / cycles);
        out.set(
            "sim.allocs_per_cycle",
            allocs.0 as f64 / traced_rounds / cycles,
        );
        out.set(
            "sim.alloc_bytes_per_cycle",
            allocs.1 as f64 / traced_rounds / cycles,
        );
    }
    if instrs > 0.0 {
        out.set("sim.host_ns_per_instr", run_ns / instrs);
    }
    let all: Vec<&Round> = m.rounds.iter().map(|r| &r.round).collect();
    let best_ms: Vec<f64> = best_ops(&all).iter().map(|o| o.ms).collect();
    w.layer_metrics(
        &Traced {
            trace: &trace,
            best_ms: &best_ms,
        },
        &mut out,
    );
    probes::run(&w.machine(), args, scratch, &mut out)?;
    Ok(TracedPass {
        layers: out,
        traced_wall_s,
    })
}

/// Everything one pass reports; `result_line` is the driver's view of it.
pub struct PassResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Wall seconds of every round as measured, disturbed or not.
    pub round_walls: Vec<f64>,
    pub traced_wall_s: f64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl PassResult {
    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (m, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The one JSON object the driver reads from the last stdout line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The fuller record `all` and `compare` read back from the out dir.
    fn file_json(&self, args: &PassArgs) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"seconds\": {}, \
             \"rounds\": {}, \"host_cpus\": {}, \"sim_digest\": \"{:016x}\", \
             \"traced_wall_s\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}}}\n",
            args.workload,
            args.seed,
            args.trace,
            args.quick,
            json_number(args.seconds),
            self.round_walls.len(),
            latency_bench::host_cpus(),
            self.digest,
            json_number(self.traced_wall_s),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// A finite f64 with all its digits; JSON has no NaN or infinity, so those
/// (a rate over a zero-length interval) read as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one pass and writes `result-*.json` (and, traced, the trace file)
/// into `args.out`.
///
/// # Errors
///
/// Unknown workload, an unwritable out dir, or a metric the pass failed to
/// measure.
pub fn run_pass(args: &PassArgs) -> Result<PassResult, String> {
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {:?} (known: {})",
            args.workload,
            names.join(", ")
        ));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating scratch dir: {e}"))?;

    // The program under test sees one grid worker and one tick thread, so
    // the numbers describe it and not a two-core scheduler; the daemon's
    // worker count is set where it is spawned.
    latency_core::set_worker_count(1);
    latency_core::set_tick_threads(1);
    latency_core::disable_cache();

    let mut rec = Recorder::new(Instant::now(), 0);
    let mut w = workloads::build(args, &scratch);
    let before = alloc::counted();
    let m = measure(w.as_mut(), &mut rec, args);
    let after = alloc::counted();

    let first_digest = m.rounds[0].round.digest;
    let same_digest = m.rounds.iter().all(|r| r.round.digest == first_digest);
    if !same_digest {
        eprintln!(
            "sim_digest differs between rounds of one pass: the program is not deterministic"
        );
    }
    let mut attempted = 0;
    let mut failed = 0;
    for r in m.rounds.iter().map(|r| &r.round) {
        attempted += r.ops.len() as u64 + r.checks.0;
        failed += r.ops.iter().filter(|o| !o.ok).count() as u64 + r.checks.1;
    }

    let (metrics, traced_wall_s) = if args.trace {
        let allocs = (after.0 - before.0, after.1 - before.1);
        let pass = per_layer(w.as_ref(), &m, &rec, allocs, args, &scratch)?;
        (pass.layers.finish()?, pass.traced_wall_s)
    } else {
        (end_to_end(&m).finish()?, 0.0)
    };
    drop(w);
    let _ = std::fs::remove_dir_all(&scratch);

    let result = PassResult {
        correct: failed == 0 && same_digest,
        attempted,
        failed,
        digest: first_digest,
        round_walls: m.rounds.iter().map(|r| r.wall_s).collect(),
        traced_wall_s,
        metrics,
    };
    let file = args.out.join(format!(
        "result-{}-trace{}-seed{}.json",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    std::fs::write(&file, result.file_json(args))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ms: &[f64]) -> Round {
        Round {
            ops: ms
                .iter()
                .map(|&ms| Op {
                    ms,
                    ok: true,
                    ..Op::default()
                })
                .collect(),
            ..Round::default()
        }
    }

    #[test]
    fn every_op_counts_at_its_fastest_successful_sample() {
        let mut disturbed = round(&[5.0, 9.0, 2.0]);
        disturbed.ops[2].ok = false;
        let rounds = [round(&[1.0, 12.0, 4.0]), disturbed, round(&[3.0, 8.0, 6.0])];
        let best = best_ops(&rounds.iter().collect::<Vec<_>>());
        let ms: Vec<f64> = best.iter().map(|o| o.ms).collect();
        // The 2.0 of the failed sample is not a fast time.
        assert_eq!(ms, [1.0, 8.0, 4.0]);
        assert!(best.iter().all(|o| o.ok));
        assert_eq!(round_s(&best), 0.013);
        // An op that never succeeded stays failed, at its slowest.
        let mut broken = round(&[7.0]);
        broken.ops[0].ok = false;
        let best = best_ops(&[&broken, &broken]);
        assert!(!best[0].ok);
        assert_eq!(best[0].ms, 7.0);
    }

    #[test]
    fn lanes_run_side_by_side() {
        let mut r = round(&[10.0, 20.0, 40.0]);
        r.ops[2].lane = 1;
        assert_eq!(round_s(&r.ops), 0.040);
        r.ops[1].lane = 1;
        assert_eq!(round_s(&r.ops), 0.060);
        assert_eq!(round_s(&[]), 0.0);
    }

    #[test]
    fn tail_is_p95_with_enough_ops_and_the_slowest_op_without() {
        assert_eq!(tail_ms(&[1.0, 9.0, 2.0]), 9.0);
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_ms(&many), 190.0);
        assert_eq!(tail_ms(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = PassResult {
            correct: true,
            attempted: 3,
            failed: 0,
            digest: 7,
            round_walls: vec![1.0, 1.5],
            traced_wall_s: 0.0,
            metrics: vec![
                (&crate::schema::END_TO_END[0], 0.5),
                (&crate::schema::END_TO_END[1], f64::NAN),
            ],
        };
        let doc = gpu_trace::json::parse(&r.result_line()).expect("valid JSON");
        let gpu_trace::json::Value::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_num()), Some(0.5));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_num()), Some(0.0));
    }
}
