//! The sweep and serve suites leave nothing behind: the scratch directory
//! each makes under the system temp dir is gone when it returns, and the
//! process-global chase cache it pointed there is off again, so a later
//! suite in the same `latency bench` run starts from a cold, cacheless
//! process.
//!
//! One #[test] runs both suites in sequence: the cache override and its
//! counters are process-global state, so parallel tests would race on them.

use latency_bench::{run_serve_bench, run_sweep_bench, SERVE_CLIENTS};
use latency_core::{cache_dir, cache_stats, reset_cache_stats, ArchPreset, ChaseSpace, Sweep};

#[test]
fn suites_remove_their_scratch_dirs_and_switch_the_cache_off() {
    let preset = ArchPreset::FermiGf106;
    let scratch = |suite: &str| {
        std::env::temp_dir().join(format!("latency-{suite}-bench-{}", std::process::id()))
    };
    // The grid point the sweep suite measured first: a warm cache would hit.
    let one_point = || {
        reset_cache_stats();
        Sweep::run(
            &preset.config_microbench(),
            ChaseSpace::Global,
            &[2048],
            &[128],
        )
        .expect("one chase point");
        cache_stats()
    };

    let sweep = run_sweep_bench(preset, None);
    sweep.check().expect("sweep self-check");
    assert!(!scratch("sweep").exists(), "sweep scratch dir left behind");
    assert_eq!(cache_dir(), None, "sweep suite left the chase cache on");
    let after = one_point();
    assert_eq!((after.hits, after.stores), (0, 0), "{after:?}");

    let serve = run_serve_bench(preset, SERVE_CLIENTS, None);
    serve.check().expect("serve self-check");
    assert!(!scratch("serve").exists(), "serve scratch dir left behind");
    assert_eq!(cache_dir(), None, "serve suite left the chase cache on");
    let after = one_point();
    assert_eq!((after.hits, after.stores), (0, 0), "{after:?}");
    assert!(!scratch("serve").exists(), "a later chase re-created it");
}
