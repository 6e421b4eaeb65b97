//! The daemon cold and then cache-warm, raced by concurrent clients.
//!
//! Four clients submit one identical ten-point GF106 sweep against a freshly
//! booted in-process daemon, twice: cold (empty state dir, every grid point
//! simulated once) and warm (a fresh daemon on the same state dir with the
//! job records wiped but the content cache kept, every point re-executed
//! and served by one disk read). Every figure the simulation alone
//! determines is asserted exactly, each failure naming its leaf: the grid
//! shape, the result's `content_hash`, and per pass the executed points,
//! the deduped jobs and the chase-cache hits, misses and stores. Every
//! client of both passes must receive the byte-identical result line, and
//! the warm pass must beat the cold one on the wall clock.
//!
//! One #[test]: the chase cache the daemon points into its state dir and
//! the cache counters are process-global, so a second test in this binary
//! would race on them.

use std::path::Path;
use std::time::{Duration, Instant};

use gpu_serve::proto::request_line;
use gpu_serve::{preset_token, Client, ServerConfig, ServerHandle};
use gpu_trace::json::{self, Value, Writer};
use latency_core::{cache_stats, disable_cache, pow2_range, reset_cache_stats, ArchPreset};

/// Concurrent clients per pass: all but the first join the in-flight job.
const CLIENTS: usize = 4;

/// What one pass leaves behind.
struct Pass {
    /// From first connect to last terminal line.
    wall: Duration,
    /// Every client's terminal line, in client order.
    results: Vec<String>,
    /// The daemon's `stats` counters and the pass's chase-cache traffic,
    /// by leaf name.
    leaves: [(&'static str, u64); 5],
}

/// One daemon boot and [`CLIENTS`] concurrent watched submissions of `spec`.
fn pass(state: &Path, spec: &str) -> Pass {
    reset_cache_stats();
    let handle =
        ServerHandle::spawn(ServerConfig::new(state), "127.0.0.1:0").expect("spawn serve daemon");
    let addr = handle.addr.to_string();
    let t0 = Instant::now();
    let results: Vec<String> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut client = Client::connect_tcp(addr).expect("connect to daemon");
                    client
                        .submit_watched(spec)
                        .expect("watched submit")
                        .terminal
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed();

    let mut client = Client::connect_tcp(&addr).expect("connect for stats");
    let stats = client
        .request(&request_line("stats", None))
        .expect("stats request");
    let stats = json::parse(&stats).expect("stats line is JSON");
    let counter = |key: &str| {
        let value = stats.get(key).and_then(Value::as_num);
        value.unwrap_or_else(|| panic!("stats line lacks {key:?}")) as u64
    };
    let (executed, deduped) = (counter("points_executed"), counter("jobs_deduped"));
    handle.shutdown();
    let cache = cache_stats();
    Pass {
        wall,
        results,
        leaves: [
            ("executed_points", executed),
            ("deduped_jobs", deduped),
            ("cache.hits", cache.hits),
            ("cache.misses", cache.misses),
            ("cache.stores", cache.stores),
        ],
    }
}

#[test]
fn cold_then_warm_daemon_dedups_caches_and_reproduces() {
    let state = std::env::temp_dir().join(format!("serve-cold-warm-{}", std::process::id()));
    // A recycled pid's dir must not hand the cold pass a warm cache.
    let _ = std::fs::remove_dir_all(&state);
    let mut w = Writer::compact();
    w.object()
        .field("preset", preset_token(ArchPreset::FermiGf106));
    let footprints = pow2_range(4 * 1024, 64 * 1024);
    w.key("sweep").object().field("footprints", &footprints[..]);
    w.field("strides", &[128u64, 2048][..]);
    let spec = w.finish();

    let cold = pass(&state, &spec);
    let _ = std::fs::remove_dir_all(state.join("jobs"));
    let warm = pass(&state, &spec);
    disable_cache();
    let _ = std::fs::remove_dir_all(&state);

    let result = &cold.results[0];
    for (label, pass) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(pass.results.len(), CLIENTS, "{label}: clients");
        for (i, line) in pass.results.iter().enumerate() {
            assert_eq!(line, result, "{label} client {i}'s result line diverged");
        }
    }
    let doc = json::parse(result).expect("result line is JSON");
    let points = doc
        .get("points")
        .and_then(Value::as_arr)
        .map(<[Value]>::len);
    assert_eq!(points, Some(10), "grid_points");
    let hash = doc.get("content_hash").and_then(Value::as_str);
    assert_eq!(hash, Some("0462af31dc44785e"), "content_hash");

    // Every point runs once per pass and every other client joins its job;
    // cold, each is simulated and stored, warm, each is one cache hit.
    let expected = [
        ("cold", &cold, [10, 3, 0, 10, 10]),
        ("warm", &warm, [10, 3, 10, 0, 0]),
    ];
    for (label, pass, want) in expected {
        for ((leaf, got), want) in pass.leaves.iter().zip(want) {
            assert_eq!(*got, want, "{label}.{leaf}");
        }
    }
    assert!(
        warm.wall < cold.wall,
        "warm pass ({:?}) not faster than cold ({:?})",
        warm.wall,
        cold.wall
    );
}
