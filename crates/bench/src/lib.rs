//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each experiment from DESIGN.md's index has a driver here, shared between
//! the `latency` binary's subcommands (`latency table1`, …; `src/main.rs`
//! and `src/cmd/`), the `bench` suites and the cross-crate tests:
//!
//! - **E1 / Table I**: [`latency_core::Table1`], checked against the
//!   published rows by [`run_validation_bench`].
//! - **E2–E8** and the cross-generation BFS: the rows of [`EXPERIMENTS`]
//!   (`fig1`, `fig2`, `other_workloads`, `dram_sched_ablation`,
//!   `hiding_sweep`, `loaded_latency`, `write_policy_ablation`,
//!   `arch_dynamic`), executed by a [`Plan`] that runs each distinct
//!   simulation once.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod progress;
pub mod reference;
pub mod regression;
pub mod suite;
pub mod tracebundle;
pub mod validate;

pub use experiments::{
    run_bfs_traced, run_traced, run_workload_traced, splice_doc, Experiment, Plan, Record, Spec,
    TracedOutcome, TracedRun, EXPERIMENTS,
};
pub use gpu_workloads::{builtin_kernels, BfsExperiment, Workload};
/// Frozen re-export: `benchmark/` reads the published rows through here.
pub use latency_core::reference_rows;
pub use progress::ProgressHeartbeat;
pub use reference::{run_validation_bench, LevelValidation, PresetValidation, ValidationBench};
pub use regression::{compare_json, Finding};
pub use suite::{
    host_cpus, run_serve_bench, run_sweep_bench, run_tick_bench, run_workload_bench,
    serve_grid_spec, sweep_grid_spec, workloads_json, ServeBench, ServePass, SweepBench, TickBench,
    WorkloadBench, WorkloadRun, SERVE_CLIENTS,
};
pub use tracebundle::{env_request, track_names_for, EnvTrace, TraceBundle};
pub use validate::{derived_level, validate_run, LoadCheck, ValidationReport};
