//! Determinism contract of the parallel experiment engine: every entry
//! point that fans out over the [`latency_core::parallel`] pool returns
//! *bit-identical* output — same order, same values — for any worker count.
//! At one worker the pool is a plain serial loop on the calling thread, so
//! each entry point is compared against itself at 1 worker, with no second
//! (serial) implementation to keep in step.
//!
//! Worker counts are forced via [`latency_core::set_worker_count`] so the
//! parallel code path is exercised even on single-core CI machines; tests
//! that mutate the process-wide override serialize on a lock.

use std::sync::Mutex;

use gpu_types::rng::Rng;
use latency_core::chase::ChaseSpace;
use latency_core::{
    clear_worker_count, measure_row, set_worker_count, worker_count, ArchPreset, Sweep,
};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The worker counts every entry point is compared at, against 1.
const WORKERS: [usize; 3] = [2, 5, 8];

/// Runs `f` with the pool forced to `workers`.
fn at_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    set_worker_count(workers);
    let out = f();
    clear_worker_count();
    out
}

/// `Sweep::run` is identical at 1 and at 2/5/8 workers on a randomized
/// grid, for every Table I preset.
#[test]
fn sweep_parallel_equals_serial_on_randomized_grids() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::seed_from_u64(0x5EEE_2024);
    for preset in ArchPreset::TABLE1 {
        let cfg = preset.config_microbench();
        // Random small grid: 2-3 footprints x 2-3 strides, including
        // degenerate combinations so the skip bookkeeping is compared too.
        let footprints: Vec<u64> = (0..rng.gen_range_usize(2, 4))
            .map(|_| 1024u64 << rng.gen_range_u32(0, 4))
            .collect();
        let strides: Vec<u64> = (0..rng.gen_range_usize(2, 4))
            .map(|_| 128u64 << rng.gen_range_u32(0, 5))
            .collect();
        let run =
            || Sweep::run(&cfg, ChaseSpace::Global, &footprints, &strides).expect("sweep runs");
        let serial = at_workers(1, run);
        for workers in WORKERS {
            assert_eq!(
                serial,
                at_workers(workers, run),
                "{}: sweep differs with {workers} workers (grid {footprints:?} x {strides:?})",
                preset.name()
            );
        }
    }
}

/// `measure_row` is identical at 1 and at 2/5/8 workers on all four paper
/// presets.
#[test]
fn measure_row_parallel_equals_serial_for_all_presets() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    for preset in ArchPreset::TABLE1 {
        let measure = || measure_row(preset).expect("row measures");
        let serial = at_workers(1, measure);
        for workers in WORKERS {
            assert_eq!(
                serial,
                at_workers(workers, measure),
                "{}: row differs with {workers} workers",
                preset.name()
            );
        }
    }
}

/// The `LATENCY_THREADS` environment variable steers the pool when no
/// programmatic override is set, and a `set_worker_count` call wins over it.
#[test]
fn env_var_steers_worker_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    clear_worker_count();
    std::env::set_var(latency_core::parallel::THREADS_ENV, "6");
    assert_eq!(worker_count(), 6);
    set_worker_count(2);
    assert_eq!(worker_count(), 2);
    clear_worker_count();
    std::env::set_var(latency_core::parallel::THREADS_ENV, "not-a-number");
    assert!(worker_count() >= 1);
    std::env::remove_var(latency_core::parallel::THREADS_ENV);
}
