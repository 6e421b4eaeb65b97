//! The benchmark suite behind `latency bench`: each benchmark is a plain
//! function returning a struct that renders the committed `BENCH_*.json`
//! schema, so measuring and the pin checker share one implementation.
//!
//! Four benchmarks (the fifth, validation, lives in [`crate::reference`]):
//!
//! - [`run_sweep_bench`]: the §II stride × footprint grid measured cold and
//!   then warm from the content-addressed sweep cache (`BENCH_sweep.json`).
//! - [`run_tick_bench`]: one loaded mask BFS on the full machine, timing
//!   the tick loop and pinning its hash, cycles and idle skips
//!   (`BENCH_tick.json`).
//! - [`run_workload_bench`]: the E4 workload set end to end, one simulated
//!   run each, pinning `content_hash`, cycle and instruction counts
//!   (`BENCH_workloads.json`).
//! - [`run_serve_bench`]: concurrent clients against the daemon, cold and
//!   cache-warm, pinning dedup and cache counters (`BENCH_serve.json`).
//!
//! The structs carry the wall clock each run took, for the `[bench]`
//! stdout lines; the `json()` renderings carry none of it. A committed
//! document holds only what the simulation alone determines (hashes,
//! cycles, instructions, grid shape, dedup and cache counters), which
//! [`crate::regression`] compares leaf for leaf.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_serve::{Client, ServerConfig, ServerHandle};
use gpu_sim::profile::{self, ProfCounter};
use gpu_sim::{CheckpointPolicy, RunOutcome, SimError};
use gpu_trace::json::{self, ToJson, Writer};
use gpu_workloads::{BfsExperiment, Workload};
use latency_core::{
    cache_stats, disable_cache, pow2_range, reset_cache_stats, set_cache_dir, ArchPreset,
    CacheStats, ChaseSpace, Sweep,
};

use crate::experiments::run_workload_traced;

/// Host CPU count. `benchmark/` records it with every result; it has no
/// caller inside the workspace.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Sweep-cache benchmark
// ---------------------------------------------------------------------------

/// The sweep grid shared by every output mode of `latency sweep` and the
/// bench harness: 2 KiB–512 KiB footprints × four strides.
pub fn sweep_grid_spec() -> (Vec<u64>, [u64; 4]) {
    (pow2_range(2 * 1024, 512 * 1024), [128u64, 512, 2048, 8192])
}

/// Cold-vs-warm measurement of the full sweep grid (`BENCH_sweep.json`).
#[derive(Debug, Clone)]
pub struct SweepBench {
    /// Architecture the grid was measured on.
    pub preset: ArchPreset,
    /// Measured grid points (excluding skipped combinations).
    pub grid_points: usize,
    /// Grid combinations skipped as unmeasurable (chain shorter than 2).
    pub skipped: usize,
    /// Total simulated cycles the cold pass spent.
    pub simulated_cycles: u64,
    /// Cold-pass wall clock (empty cache: every point simulated).
    pub cold_wall_seconds: f64,
    /// Cache traffic of the cold pass (all misses, then stores).
    pub cold_cache: CacheStats,
    /// Warm-pass wall clock (fully populated cache: no simulation).
    pub warm_wall_seconds: f64,
    /// Cache traffic of the warm pass (all hits if the cache works).
    pub warm_cache: CacheStats,
}

impl SweepBench {
    /// Fraction of warm-pass lookups served from the cache.
    pub fn warm_hit_rate(&self) -> f64 {
        self.warm_cache.hit_rate()
    }

    /// Renders the committed `BENCH_sweep.json` schema.
    pub fn json(&self) -> String {
        let mut w = Writer::indented();
        w.object().field("name", "sweep");
        w.field("preset", self.preset.name());
        w.field("grid_points", self.grid_points);
        w.field("skipped", self.skipped);
        w.field("simulated_cycles", self.simulated_cycles);
        w.key("cold").object().field("cache", self.cold_cache).end();
        w.key("warm").object().field("cache", self.warm_cache).end();
        w.finish()
    }

    /// The sweep bench's own invariant: the warm pass must actually have
    /// been carried by the cache, and must have been faster for it.
    pub fn check(&self) -> Result<(), String> {
        if self.warm_hit_rate() < 0.95 {
            return Err(format!(
                "warm pass hit rate {:.2}% < 95%",
                self.warm_hit_rate() * 100.0
            ));
        }
        if self.warm_wall_seconds >= self.cold_wall_seconds {
            return Err(format!(
                "warm pass ({:.3}s) not faster than cold ({:.3}s)",
                self.warm_wall_seconds, self.cold_wall_seconds
            ));
        }
        Ok(())
    }
}

/// Measures the sweep grid cold (empty cache) and warm (fully populated),
/// panicking if the warm pass fails to reproduce the cold grid bit-for-bit.
///
/// With `cache: None` a per-process temporary directory is used, wiped
/// first, so the cold pass's cache traffic is deterministic (zero hits),
/// and removed afterwards. Either way the process-global chase cache is
/// switched off on the way out, so nothing that runs later inherits it.
pub fn run_sweep_bench(preset: ArchPreset, cache: Option<PathBuf>) -> SweepBench {
    let cfg = preset.config_microbench();
    let (footprints, strides) = sweep_grid_spec();
    let scratch = cache.is_none();
    let dir = cache.unwrap_or_else(|| scratch_dir("sweep"));
    set_cache_dir(&dir);

    reset_cache_stats();
    let t0 = Instant::now();
    let cold = Sweep::run(&cfg, ChaseSpace::Global, &footprints, &strides).expect("cold sweep");
    let cold_wall_seconds = t0.elapsed().as_secs_f64();
    let cold_cache = cache_stats();

    reset_cache_stats();
    let t1 = Instant::now();
    let warm = Sweep::run(&cfg, ChaseSpace::Global, &footprints, &strides).expect("warm sweep");
    let warm_wall_seconds = t1.elapsed().as_secs_f64();
    let warm_cache = cache_stats();

    assert_eq!(
        cold.points(),
        warm.points(),
        "warm-cache sweep must reproduce the cold sweep bit-for-bit"
    );
    let simulated_cycles = cold_grid_cycles(&cfg, &footprints, &strides);
    disable_cache();
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    SweepBench {
        preset,
        grid_points: cold.points().len(),
        skipped: cold.skipped_count(),
        simulated_cycles,
        cold_wall_seconds,
        cold_cache,
        warm_wall_seconds,
        warm_cache,
    }
}

/// A fresh per-process directory under the system temp dir for a suite that
/// was not handed one. Wiped here because a recycled pid must not hand a
/// "cold" pass a warm cache or finished job records; the suite removes it
/// again when it is done.
fn scratch_dir(suite: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latency-{suite}-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total simulated cycles the cold pass spent, recovered from the cached
/// measurements themselves (each grid point runs the microbench twice).
fn cold_grid_cycles(cfg: &gpu_sim::GpuConfig, footprints: &[u64], strides: &[u64]) -> u64 {
    use latency_core::{measure_chase, ChaseParams};
    let mut total = 0u64;
    for &f in footprints {
        for &s in strides {
            if f / s < 2 {
                continue;
            }
            // Served from the just-populated cache: no simulation here.
            if let Ok(m) = measure_chase(cfg, &ChaseParams::global(f, s)) {
                total += m.cycles_short + m.cycles_long;
            }
        }
    }
    total
}

// ---------------------------------------------------------------------------
// Loaded tick-loop benchmark
// ---------------------------------------------------------------------------

/// The loaded-BFS pin (`BENCH_tick.json`): one timed mask BFS on the full
/// machine, with the latency sink left off.
#[derive(Debug, Clone)]
pub struct TickBench {
    /// Architecture (full config, all SMs).
    pub preset: ArchPreset,
    /// SMs in the simulated machine.
    pub num_sms: usize,
    /// BFS graph nodes.
    pub nodes: u32,
    /// BFS graph out-degree.
    pub degree: u32,
    /// Wall clock of the simulated traversal.
    pub wall_seconds: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// `RunSummary::content_hash`.
    pub content_hash: u64,
    /// Invariant violations the sanitizer counted (must be zero).
    pub sanitizer_violations: u64,
    /// Idle cycles the run loop jumped over instead of ticking. Read from
    /// the self-profiler's [`ProfCounter::CyclesSkipped`], which only
    /// counts while profiling is on — `latency bench` always turns it on.
    pub skipped_cycles: u64,
    /// SM ticks the ticked cycles left out because the SM was asleep
    /// ([`ProfCounter::SmTicksSlept`]). A pin like `skipped_cycles`: a
    /// `next_event` that turns needlessly conservative moves it.
    pub sm_ticks_slept: u64,
    /// Partition ticks left out likewise
    /// ([`ProfCounter::PartitionTicksSlept`]).
    pub partition_ticks_slept: u64,
}

impl TickBench {
    /// Renders the committed `BENCH_tick.json` schema.
    pub fn json(&self) -> String {
        let workload = format!("bfs nodes={} degree={}", self.nodes, self.degree);
        let mut w = Writer::indented();
        w.object().field("name", "tick");
        w.field("preset", self.preset.name());
        w.field("num_sms", self.num_sms);
        w.field("workload", workload);
        w.field("content_hash", format!("{:016x}", self.content_hash));
        w.field("simulated_cycles", self.cycles);
        w.field("skipped_cycles", self.skipped_cycles);
        w.field("sm_ticks_slept", self.sm_ticks_slept);
        w.field("partition_ticks_slept", self.partition_ticks_slept);
        w.finish()
    }

    /// The run must not have tripped the sanitizer, which release builds
    /// only count.
    pub fn check(&self) -> Result<(), String> {
        if self.sanitizer_violations > 0 {
            return Err(format!(
                "{} sanitizer violation(s) in the loaded bfs run",
                self.sanitizer_violations
            ));
        }
        Ok(())
    }
}

/// Runs the loaded tick-loop benchmark: one mask BFS, timed.
pub fn run_tick_bench(preset: ArchPreset, nodes: u32, degree: u32) -> TickBench {
    let exp = BfsExperiment {
        nodes,
        degree,
        ..BfsExperiment::default()
    };
    // The profiler's counters are cumulative and process-global: this
    // run's skipped cycles and slept ticks are before/after deltas — no
    // reset, so the whole bench process still adds up in the final
    // profile.json.
    let idle_counters = [
        ProfCounter::CyclesSkipped,
        ProfCounter::SmTicksSlept,
        ProfCounter::PartitionTicksSlept,
    ];
    let before = idle_counters.map(profile::value);
    let t0 = Instant::now();
    // The plain run path with the latency sink left off: this suite times
    // the tick loop, not the instrumentation.
    let run = Workload::bfs()
        .execute(
            preset.config(),
            &exp,
            &CheckpointPolicy::none(),
            None,
            |_| {},
        )
        .expect("bfs runs");
    let wall_seconds = t0.elapsed().as_secs_f64();
    let after = idle_counters.map(profile::value);
    let [skipped_cycles, sm_ticks_slept, partition_ticks_slept] =
        std::array::from_fn(|i| after[i] - before[i]);
    let Some((_, RunOutcome::Completed(summary))) = run else {
        unreachable!("the null policy neither resumes nor kills");
    };
    TickBench {
        preset,
        num_sms: preset.config().num_sms,
        nodes,
        degree,
        wall_seconds,
        cycles: summary.cycles,
        content_hash: summary.content_hash,
        sanitizer_violations: summary.sanitizer_violations,
        skipped_cycles,
        sm_ticks_slept,
        partition_ticks_slept,
    }
}

// ---------------------------------------------------------------------------
// Workload-throughput benchmark
// ---------------------------------------------------------------------------

/// One end-to-end workload run.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Which E4 workload.
    pub workload: &'static Workload,
    /// Simulated cycles (exact-reproduce).
    pub cycles: u64,
    /// Warp instructions issued (exact-reproduce).
    pub instructions: u64,
    /// `RunSummary::content_hash` (exact-reproduce).
    pub content_hash: u64,
    /// Invariant violations the sanitizer counted (must be zero).
    pub sanitizer_violations: u64,
    /// Host wall clock including setup and result verification.
    pub wall_seconds: f64,
}

/// End-to-end workload record for one preset — one *section* of the
/// committed `BENCH_workloads.json`.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Architecture every workload ran on.
    pub preset: ArchPreset,
    /// One entry per workload, in the order they were run.
    pub runs: Vec<WorkloadRun>,
}

impl WorkloadBench {
    /// The machine's own invariant: no run may have tripped the sanitizer,
    /// which release builds only count.
    pub fn check(&self) -> Result<(), String> {
        match self.runs.iter().find(|r| r.sanitizer_violations > 0) {
            Some(r) => Err(format!(
                "{} sanitizer violation(s) running {}",
                r.sanitizer_violations, r.workload.name
            )),
            None => Ok(()),
        }
    }

    /// Writes this preset's section of the `BENCH_workloads.json` schema.
    fn write_section(&self, w: &mut Writer) {
        w.object().field("preset", self.preset.name());
        w.key("runs").array();
        for r in &self.runs {
            w.object().field("workload", r.workload.name);
            w.field("simulated_cycles", r.cycles);
            w.field("instructions", r.instructions);
            w.field("content_hash", format!("{:016x}", r.content_hash))
                .end();
        }
        w.end().end();
    }

    /// Renders a single-section `BENCH_workloads.json` document.
    pub fn json(&self) -> String {
        workloads_json(std::slice::from_ref(self))
    }
}

/// Renders the committed `BENCH_workloads.json` schema: one section per
/// measured preset (the paper-era full machine plus the modern sectored
/// generation), so a cycle-count or hash change on *any* generation fails
/// the exact-reproduce regression check.
///
/// # Panics
///
/// Panics on an empty slice — an empty benchmark document is a caller bug.
pub fn workloads_json(benches: &[WorkloadBench]) -> String {
    assert!(!benches.is_empty(), "need at least one workload section");
    let mut w = Writer::indented();
    w.object().field("name", "workloads");
    w.key("sections").array();
    for b in benches {
        b.write_section(&mut w);
    }
    w.finish()
}

/// Runs every workload in `workloads` once on `preset`'s full config,
/// timing each end to end (setup, simulation, verification).
///
/// # Errors
///
/// Propagates the first simulator failure.
pub fn run_workload_bench(
    preset: ArchPreset,
    workloads: &'static [Workload],
) -> Result<WorkloadBench, SimError> {
    let mut runs = Vec::with_capacity(workloads.len());
    for workload in workloads {
        let t0 = Instant::now();
        let traced = run_workload_traced(preset.config(), workload)?;
        runs.push(WorkloadRun {
            workload,
            cycles: traced.cycles,
            instructions: traced.instructions,
            content_hash: traced.content_hash,
            sanitizer_violations: traced.sanitizer_violations,
            wall_seconds: t0.elapsed().as_secs_f64(),
        });
    }
    Ok(WorkloadBench { preset, runs })
}

// ---------------------------------------------------------------------------
// Serve daemon benchmark
// ---------------------------------------------------------------------------

/// The sweep grid every serve-bench client submits: ten grid points, small
/// enough that the cold pass stays in seconds but wide enough that dedup
/// and cache behaviour are visible in the counters.
pub fn serve_grid_spec() -> (Vec<u64>, [u64; 2]) {
    (pow2_range(4 * 1024, 64 * 1024), [128u64, 2048])
}

/// Concurrent clients the serve bench races against the daemon.
pub const SERVE_CLIENTS: usize = 4;

/// One pass (cold or warm) of the serve bench: [`SERVE_CLIENTS`] concurrent
/// clients submitting the identical sweep job against a freshly booted
/// daemon, so all but the first join the in-flight job.
#[derive(Debug, Clone)]
pub struct ServePass {
    /// Wall clock from first connect to last terminal line.
    pub wall_seconds: f64,
    /// Per-client submit→terminal latencies, sorted ascending.
    pub job_seconds: Vec<f64>,
    /// `points_executed` daemon counter after the pass: every grid point
    /// exactly once, regardless of client count.
    pub executed_points: u64,
    /// `jobs_deduped` daemon counter after the pass: all but one client
    /// joined the first submission's job.
    pub deduped_jobs: u64,
    /// Chase-cache traffic of the pass (all misses cold, all hits warm).
    pub cache: CacheStats,
}

impl ServePass {
    /// Client-visible completed submissions per second of wall clock.
    pub fn jobs_per_second(&self) -> f64 {
        self.job_seconds.len() as f64 / self.wall_seconds.max(1e-9)
    }

    /// Nearest-rank percentile of the per-client latencies.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.job_seconds.is_empty() {
            return 0.0;
        }
        let idx = ((self.job_seconds.len() - 1) as f64 * q).round() as usize;
        self.job_seconds[idx]
    }
}

impl ToJson for ServePass {
    fn write_json(&self, w: &mut Writer) {
        w.object().field("executed_points", self.executed_points);
        w.field("deduped_jobs", self.deduped_jobs);
        w.field("cache", self.cache).end();
    }
}

/// Cold-vs-cache-hit measurement of the serve daemon (`BENCH_serve.json`).
///
/// Every committed field is simulation-pure: name, preset, client and
/// point counts, content hash, dedup counters, cache traffic.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Architecture the submitted sweep targets.
    pub preset: ArchPreset,
    /// Concurrent clients per pass.
    pub clients: usize,
    /// Grid points in the submitted sweep (from the result line).
    pub grid_points: usize,
    /// The result line's content hash (exact-reproduce).
    pub content_hash: String,
    /// Full terminal result line of the cold pass (not committed; held for
    /// the byte-identity self-check).
    pub cold_result: String,
    /// Full terminal result line of the warm pass.
    pub warm_result: String,
    /// Cold pass: empty cache, every point simulated.
    pub cold: ServePass,
    /// Warm pass: fresh daemon, jobs wiped, cache kept — every point
    /// re-executed but served from disk.
    pub warm: ServePass,
}

impl ServeBench {
    /// Renders the committed `BENCH_serve.json` schema.
    pub fn json(&self) -> String {
        let mut w = Writer::indented();
        w.object().field("name", "serve");
        w.field("preset", self.preset.name());
        w.field("clients", self.clients);
        w.field("grid_points", self.grid_points);
        w.field("content_hash", &self.content_hash);
        w.field("cold", &self.cold).field("warm", &self.warm);
        w.finish()
    }

    /// The serve bench's own invariants: clients and passes agree byte for
    /// byte, each pass executed every point exactly once with all other
    /// clients deduped, and the cache carried the warm pass.
    pub fn check(&self) -> Result<(), String> {
        if self.cold_result != self.warm_result {
            return Err("warm-pass result line diverged from the cold pass".to_string());
        }
        let gp = self.grid_points as u64;
        let expect_dedup = (self.clients - 1) as u64;
        for (label, pass) in [("cold", &self.cold), ("warm", &self.warm)] {
            if pass.executed_points != gp {
                return Err(format!(
                    "{label} pass executed {} points, expected {gp}",
                    pass.executed_points
                ));
            }
            if pass.deduped_jobs != expect_dedup {
                return Err(format!(
                    "{label} pass deduped {} jobs, expected {expect_dedup}",
                    pass.deduped_jobs
                ));
            }
        }
        let c = self.cold.cache;
        if c.hits != 0 || c.misses != gp || c.stores != gp {
            return Err(format!(
                "cold pass cache traffic {c:?}, expected 0 hits / {gp} misses / {gp} stores"
            ));
        }
        let w = self.warm.cache;
        if w.hits != gp || w.misses != 0 {
            return Err(format!(
                "warm pass cache traffic {w:?}, expected {gp} hits / 0 misses"
            ));
        }
        Ok(())
    }
}

/// One daemon boot + `clients` concurrent watched submissions of `spec`,
/// returning the pass record and the (asserted-identical) result line.
fn serve_pass(state: &Path, spec: &str, clients: usize) -> (ServePass, String) {
    reset_cache_stats();
    let handle =
        ServerHandle::spawn(ServerConfig::new(state), "127.0.0.1:0").expect("spawn serve daemon");
    let addr = handle.addr.to_string();
    let t0 = Instant::now();
    let mut runs: Vec<(f64, String)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let t = Instant::now();
                    let mut client = Client::connect_tcp(addr).expect("connect to daemon");
                    let run = client.submit_watched(spec).expect("watched submit");
                    (t.elapsed().as_secs_f64(), run.terminal)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut stats_client = Client::connect_tcp(&addr).expect("connect for stats");
    let stats = json::parse(
        &stats_client
            .request(&gpu_serve::proto::request_line("stats", None))
            .expect("stats request"),
    )
    .expect("stats line is JSON");
    let counter = |key: &str| {
        stats
            .get(key)
            .and_then(json::Value::as_num)
            .unwrap_or_else(|| panic!("stats line lacks {key:?}")) as u64
    };
    let executed_points = counter("points_executed");
    let deduped_jobs = counter("jobs_deduped");
    handle.shutdown();

    let result = runs[0].1.clone();
    for (_, line) in &runs {
        assert_eq!(
            line, &result,
            "every client must receive bit-identical result lines"
        );
    }
    let mut job_seconds: Vec<f64> = runs.drain(..).map(|(s, _)| s).collect();
    job_seconds.sort_by(f64::total_cmp);
    (
        ServePass {
            wall_seconds,
            job_seconds,
            executed_points,
            deduped_jobs,
            cache: cache_stats(),
        },
        result,
    )
}

/// Measures the serve daemon cold (empty state dir: every grid point
/// simulated once) and then warm (jobs wiped, content cache kept: every
/// point re-executed from disk), with `clients` concurrent clients racing
/// the identical submission in both passes.
///
/// With `state: None` a per-process temporary directory is used and
/// removed afterwards; either way the directory is wiped first, and the
/// process-global chase cache the daemon pointed into it is switched off
/// on the way out. Panics if any client's result line diverges within a
/// pass; the cross-pass byte-identity is left to [`ServeBench::check`] so
/// `--check` reports it as a finding rather than a crash.
pub fn run_serve_bench(preset: ArchPreset, clients: usize, state: Option<PathBuf>) -> ServeBench {
    let scratch = state.is_none();
    let state = state.unwrap_or_else(|| scratch_dir("serve"));
    // A reused explicit dir must not hand the cold pass a warm cache or
    // finished job records either.
    let _ = std::fs::remove_dir_all(&state);
    let (footprints, strides) = serve_grid_spec();
    let mut w = Writer::compact();
    w.object().field("preset", gpu_serve::preset_token(preset));
    w.key("sweep").object().field("footprints", &footprints[..]);
    w.field("strides", &strides[..]);
    let spec = w.finish();

    let (cold, cold_result) = serve_pass(&state, &spec, clients);
    // Wipe the finished job records but keep the content cache: the warm
    // daemon recovers nothing and re-executes every grid point, each
    // served by one disk read instead of a simulation.
    let _ = std::fs::remove_dir_all(state.join("jobs"));
    let (warm, warm_result) = serve_pass(&state, &spec, clients);
    disable_cache();
    if scratch {
        let _ = std::fs::remove_dir_all(&state);
    }

    let doc = json::parse(&cold_result).expect("result line is JSON");
    let grid_points = doc
        .get("points")
        .and_then(json::Value::as_arr)
        .map_or(0, <[json::Value]>::len);
    let content_hash = doc
        .get("content_hash")
        .and_then(json::Value::as_str)
        .unwrap_or_default()
        .to_string();
    ServeBench {
        preset,
        clients,
        grid_points,
        content_hash,
        cold_result,
        warm_result,
        cold,
        warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_sweep() -> SweepBench {
        SweepBench {
            preset: ArchPreset::FermiGf106,
            grid_points: 32,
            skipped: 4,
            simulated_cycles: 1_000_000,
            cold_wall_seconds: 2.0,
            cold_cache: CacheStats {
                hits: 0,
                misses: 32,
                stores: 32,
            },
            warm_wall_seconds: 0.1,
            warm_cache: CacheStats {
                hits: 32,
                misses: 0,
                stores: 0,
            },
        }
    }

    fn fake_tick() -> TickBench {
        TickBench {
            preset: ArchPreset::FermiGf100,
            num_sms: 14,
            nodes: 4096,
            degree: 8,
            wall_seconds: 2.0,
            cycles: 104_548,
            content_hash: 0xabcd,
            sanitizer_violations: 0,
            skipped_cycles: 61_000,
            sm_ticks_slept: 900_000,
            partition_ticks_slept: 200_000,
        }
    }

    #[test]
    fn sweep_json_parses_and_keeps_schema() {
        let doc = gpu_trace::json::parse(&fake_sweep().json()).expect("valid json");
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("sweep"));
        assert_eq!(doc.get("grid_points").and_then(|v| v.as_num()), Some(32.0));
        assert_eq!(
            doc.get("simulated_cycles").and_then(|v| v.as_num()),
            Some(1_000_000.0)
        );
        let warm_cache = doc.get("warm").and_then(|w| w.get("cache")).expect("cache");
        assert_eq!(warm_cache.get("hits").and_then(|v| v.as_num()), Some(32.0));
    }

    #[test]
    fn sweep_check_requires_a_working_cache() {
        assert!(fake_sweep().check().is_ok());
        let mut cold_cache_only = fake_sweep();
        cold_cache_only.warm_cache.hits = 1;
        cold_cache_only.warm_cache.misses = 31;
        assert!(cold_cache_only.check().is_err());
        let mut slow_warm = fake_sweep();
        slow_warm.warm_wall_seconds = 3.0;
        assert!(slow_warm.check().is_err());
    }

    #[test]
    fn tick_json_parses_and_keeps_schema() {
        let doc = gpu_trace::json::parse(&fake_tick().json()).expect("valid json");
        assert_eq!(
            doc.get("content_hash").and_then(|v| v.as_str()),
            Some("000000000000abcd")
        );
        assert_eq!(
            doc.get("simulated_cycles").and_then(|v| v.as_num()),
            Some(104_548.0)
        );
        assert_eq!(
            doc.get("skipped_cycles").and_then(|v| v.as_num()),
            Some(61_000.0)
        );
        assert_eq!(
            doc.get("sm_ticks_slept").and_then(|v| v.as_num()),
            Some(900_000.0)
        );
        assert_eq!(
            doc.get("partition_ticks_slept").and_then(|v| v.as_num()),
            Some(200_000.0)
        );
    }

    fn fake_workloads(preset: ArchPreset, hash: u64) -> WorkloadBench {
        WorkloadBench {
            preset,
            runs: vec![WorkloadRun {
                workload: Workload::by_name("vecadd").unwrap(),
                cycles: 1000,
                instructions: 5000,
                content_hash: hash,
                sanitizer_violations: 0,
                wall_seconds: 0.5,
            }],
        }
    }

    #[test]
    fn checks_fail_on_any_sanitizer_violation() {
        // Release builds only count violations; `bench --check` is where a
        // broken machine must turn into a failing exit status.
        let mut tick = fake_tick();
        assert!(tick.check().is_ok());
        tick.sanitizer_violations = 3;
        let err = tick.check().expect_err("the run tripped the sanitizer");
        assert!(err.contains("3 sanitizer violation"), "{err}");

        let mut workloads = fake_workloads(ArchPreset::FermiGf100, 1);
        assert!(workloads.check().is_ok());
        workloads.runs[0].sanitizer_violations = 1;
        let err = workloads.check().expect_err("vecadd tripped the sanitizer");
        assert!(err.contains("vecadd"), "{err}");
    }

    #[test]
    fn workload_json_parses_with_exact_fields() {
        let bench = fake_workloads;
        let json = workloads_json(&[
            bench(ArchPreset::FermiGf100, 0xfeed),
            bench(ArchPreset::VoltaGv100, 0xbeef),
        ]);
        let doc = gpu_trace::json::parse(&json).expect("valid json");
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("workloads"));
        let sections = doc
            .get("sections")
            .and_then(|v| v.as_arr())
            .expect("sections");
        assert_eq!(sections.len(), 2);
        assert_eq!(
            sections[1].get("preset").and_then(|v| v.as_str()),
            Some("GV100 (Volta)")
        );
        let runs = sections[0]
            .get("runs")
            .and_then(|v| v.as_arr())
            .expect("runs");
        assert_eq!(
            runs[0].get("workload").and_then(|v| v.as_str()),
            Some("vecadd")
        );
        assert_eq!(
            runs[0].get("content_hash").and_then(|v| v.as_str()),
            Some("000000000000feed")
        );
        assert_eq!(
            runs[0].get("instructions").and_then(|v| v.as_num()),
            Some(5000.0)
        );
        // The single-section wrapper emits the same schema.
        let single =
            gpu_trace::json::parse(&bench(ArchPreset::FermiGf100, 1).json()).expect("valid json");
        assert_eq!(
            single
                .get("sections")
                .and_then(|v| v.as_arr())
                .map(<[gpu_trace::json::Value]>::len),
            Some(1)
        );
    }

    fn fake_serve() -> ServeBench {
        let pass = |wall: f64, cache: CacheStats| ServePass {
            wall_seconds: wall,
            job_seconds: vec![wall * 0.7, wall * 0.8, wall * 0.9, wall],
            executed_points: 10,
            deduped_jobs: 3,
            cache,
        };
        ServeBench {
            preset: ArchPreset::FermiGf106,
            clients: 4,
            grid_points: 10,
            content_hash: "00000000deadbeef".to_string(),
            cold_result: "{\"event\":\"result\"}".to_string(),
            warm_result: "{\"event\":\"result\"}".to_string(),
            cold: pass(
                2.0,
                CacheStats {
                    hits: 0,
                    misses: 10,
                    stores: 10,
                },
            ),
            warm: pass(
                0.2,
                CacheStats {
                    hits: 10,
                    misses: 0,
                    stores: 0,
                },
            ),
        }
    }

    #[test]
    fn serve_json_parses_and_keeps_schema() {
        let doc = gpu_trace::json::parse(&fake_serve().json()).expect("valid json");
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("serve"));
        assert_eq!(doc.get("clients").and_then(|v| v.as_num()), Some(4.0));
        assert_eq!(
            doc.get("content_hash").and_then(|v| v.as_str()),
            Some("00000000deadbeef")
        );
        let cold = doc.get("cold").expect("cold");
        assert_eq!(
            cold.get("executed_points").and_then(|v| v.as_num()),
            Some(10.0)
        );
        assert_eq!(cold.get("deduped_jobs").and_then(|v| v.as_num()), Some(3.0));
        let warm = doc.get("warm").expect("warm");
        assert_eq!(
            warm.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(|v| v.as_num()),
            Some(10.0)
        );
        // The raw result lines are self-check state, never committed.
        assert!(doc.get("cold_result").is_none());
    }

    #[test]
    fn serve_check_requires_dedup_cache_and_byte_identity() {
        assert!(fake_serve().check().is_ok());
        let mut diverged = fake_serve();
        diverged.warm_result = "{\"event\":\"result\",\"tampered\":true}".to_string();
        assert!(diverged.check().is_err());
        let mut reran = fake_serve();
        reran.cold.executed_points = 20; // dedup failure: points ran twice
        assert!(reran.check().is_err());
        let mut no_dedup = fake_serve();
        no_dedup.warm.deduped_jobs = 0;
        assert!(no_dedup.check().is_err());
        let mut cache_missed = fake_serve();
        cache_missed.warm.cache.hits = 9;
        cache_missed.warm.cache.misses = 1;
        assert!(cache_missed.check().is_err());
    }

    #[test]
    fn serve_percentiles_are_nearest_rank() {
        let bench = fake_serve();
        assert!((bench.cold.percentile(0.50) - 1.8).abs() < 1e-9);
        assert!((bench.cold.percentile(0.95) - 2.0).abs() < 1e-9);
        assert!((bench.cold.percentile(0.0) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_never_reaches_a_document() {
        // The same simulation timed on a quiet and on a busy host must
        // render byte-identical documents: every leaf is a pin.
        let (quiet, mut busy) = (fake_sweep(), fake_sweep());
        busy.cold_wall_seconds *= 7.0;
        busy.warm_wall_seconds *= 3.0;
        assert_eq!(quiet.json(), busy.json());

        let (quiet, mut busy) = (fake_tick(), fake_tick());
        busy.wall_seconds *= 9.0;
        assert_eq!(quiet.json(), busy.json());

        let quiet = fake_workloads(ArchPreset::FermiGf100, 0xfeed);
        let mut busy = quiet.clone();
        busy.runs[0].wall_seconds *= 5.0;
        assert_eq!(quiet.json(), busy.json());

        let (quiet, mut busy) = (fake_serve(), fake_serve());
        busy.cold.wall_seconds *= 4.0;
        busy.warm.job_seconds.iter_mut().for_each(|s| *s *= 2.0);
        assert_eq!(quiet.json(), busy.json());
    }
}
