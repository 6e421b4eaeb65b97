//! The serve suite behind `latency bench`; the other suite, the experiment
//! list, lives in [`crate::experiments`].
//!
//! [`run_serve_bench`] races concurrent clients against the daemon, cold
//! and then cache-warm, and returns a struct that renders the committed
//! `BENCH_serve.json` schema, so measuring and the pin checker share one
//! implementation. The struct carries the wall clock each pass took, for
//! the `[bench]` stdout lines and the warm-faster-than-cold self-check; the
//! `json()` rendering carries none of it. The committed document holds only
//! what the simulation alone determines (grid shape, content hash, dedup
//! and cache counters), which [`crate::regression`] compares leaf for leaf.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_serve::{Client, ServerConfig, ServerHandle};
use gpu_trace::json::{self, ToJson, Writer};
use latency_core::{
    cache_stats, disable_cache, pow2_range, reset_cache_stats, ArchPreset, CacheStats,
};

/// Host CPU count. `benchmark/` records it with every result; it has no
/// caller inside the workspace.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

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
    /// clients deduped, and the cache carried the warm pass and made it
    /// faster.
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
        let (cold, warm) = (self.cold.wall_seconds, self.warm.wall_seconds);
        if warm >= cold {
            return Err(format!(
                "warm pass ({warm:.3}s) not faster than cold ({cold:.3}s)"
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
    let state = state.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("latency-serve-bench-{}", std::process::id()))
    });
    // A reused dir (an explicit one, or a recycled pid's) must not hand the
    // cold pass a warm cache or finished job records.
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
        let mut slow_warm = fake_serve();
        slow_warm.warm.wall_seconds = 3.0;
        assert!(slow_warm.check().is_err());
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
        let (quiet, mut busy) = (fake_serve(), fake_serve());
        busy.cold.wall_seconds *= 4.0;
        busy.warm.job_seconds.iter_mut().for_each(|s| *s *= 2.0);
        assert_eq!(quiet.json(), busy.json());
    }
}
