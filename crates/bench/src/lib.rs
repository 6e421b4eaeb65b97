//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each experiment from DESIGN.md's index has a driver here, shared between
//! the `latency` binary's subcommands (`latency table1`, …; `src/main.rs`
//! and `src/cmd/`), the `latency bench` pin check and the cross-crate
//! tests:
//!
//! - **E1–E8** and the cross-generation BFS: the rows of [`EXPERIMENTS`]
//!   (`table1` and its published-reference check `validate`, §II's
//!   `sweep`, `fig1`, `fig2`, `other_workloads`, `dram_sched_ablation`,
//!   `hiding_sweep`, `loaded_latency`, `write_policy_ablation`,
//!   `arch_dynamic`), executed by a [`Plan`] that runs each distinct
//!   simulation once. `table1`, `validate` and `sweep` share their chase
//!   points, each Table I point held to the published rows by
//!   [`reference::check_point`] as it is reduced.
//! - `static_vs_dynamic`: every traced run is held to the static
//!   analyzer's contracts A and B ([`validate::check`]) as it is reduced.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod progress;
pub mod reference;
pub mod regression;
pub mod tracebundle;
pub mod validate;

pub use experiments::{
    run_bfs_traced, run_traced, splice_doc, sweep_grid_spec, Experiment, Plan, Record, Spec,
    TracedOutcome, TracedRun, EXPERIMENTS,
};
pub use gpu_workloads::{builtin_kernels, BfsExperiment, Workload};
/// Frozen re-export: `benchmark/` reads the published rows through here.
pub use latency_core::reference_rows;
pub use progress::ProgressHeartbeat;
pub use reference::{validate_preset, validate_rows, LevelValidation, PresetValidation};
pub use regression::{compare_json, Finding};
pub use tracebundle::{env_bundle_root, track_names_for, TraceBundle};
pub use validate::{LoadCheck, ValidationReport};

/// Host CPU count. `benchmark/` records it with every result; it has no
/// caller inside the workspace.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
