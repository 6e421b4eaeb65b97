//! Static and dynamic GPU latency analysis — the core contribution of the
//! `gpu-latency` workspace, reproducing *Andersch, Lucas, Álvarez-Mesa,
//! Juurlink: "On Latency in GPU Throughput Microarchitectures" (ISPASS
//! 2015)*.
//!
//! Two analyses are provided on top of the `gpu-sim` timing simulator:
//!
//! 1. **Static latency** (paper §II, Table I): [`measure_chase`] runs the
//!    single-thread pointer-chase microbenchmark on per-generation machine
//!    models ([`ArchPreset`]); [`Sweep`] and [`detect_plateaus`] implement
//!    the stride × footprint methodology of Wong et al.; [`Table1`]
//!    regenerates the paper's Table I against the published rows
//!    ([`reference_rows`], written once in `REFERENCE_latencies.json`).
//! 2. **Dynamic latency** (paper §III, Figures 1 & 2):
//!    [`LatencyBreakdown`] splits every traced memory fetch's lifetime into
//!    the eight pipeline components of Figure 1, and [`ExposureAnalysis`]
//!    computes the exposed/hidden split of Figure 2.
//!
//! # Examples
//!
//! Reproduce one cell of Table I (Fermi L1 hit latency):
//!
//! ```no_run
//! use latency_core::{ArchPreset, ChaseParams, measure_chase};
//!
//! let cfg = ArchPreset::FermiGf106.config_microbench();
//! let m = measure_chase(&cfg, &ChaseParams::global(4096, 128))?;
//! assert!((m.per_access - 45.0).abs() < 3.0);
//! # Ok::<(), latency_core::ChaseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod bucketing;
pub mod cache;
pub mod chase;
pub mod cli;
pub mod exposure;
pub mod inference;
pub mod loaded;
pub mod parallel;
pub mod plateau;
pub mod presets;
pub mod reference;
pub mod report;
pub mod sweep;
pub mod table1;

pub use breakdown::{components_of, Component, LatencyBreakdown};
pub use bucketing::Bucketing;
pub use cache::{
    cache_dir, cache_stats, chase_key, clear_cache_dir, disable_cache, reset_cache_stats,
    set_cache_dir, CacheStats, CACHE_ENV, CACHE_FORMAT_VERSION,
};
pub use chase::{
    build_chase_kernel, measure_chase, write_chain, write_shuffled_chain, ChaseError,
    ChaseMeasurement, ChaseParams, ChasePattern, ChaseSpace, UNROLL,
};
pub use exposure::ExposureAnalysis;
pub use inference::{infer_hierarchy, infer_line_size, CacheLevelEstimate};
pub use loaded::{build_loaded_kernel, measure_chase_under_load};
pub use parallel::{
    clear_worker_count, env_worker_count, par_map, parse_thread_count, set_tick_threads,
    set_worker_count, try_par_map, worker_count, ThreadCountError,
};
pub use plateau::{detect_plateaus, Plateau};
pub use presets::ArchPreset;
pub use reference::{reference_rows, ReferenceRow, REFERENCE_TABLES};
pub use report::{breakdown_csv, exposure_csv};
pub use sweep::{pow2_range, SkipReason, SkippedPoint, Sweep, SweepPoint};
pub use table1::{measure_row, MeasuredRow, Table1};
