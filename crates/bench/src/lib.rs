//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each experiment from DESIGN.md's index has a driver here, shared between
//! the `latency` binary's subcommands (`latency table1`, …; `src/main.rs`
//! and `src/cmd/`), the `bench` suites and the cross-crate tests:
//!
//! - **E1 / Table I**: [`run_table1`] (wrapping [`latency_core::Table1`]).
//! - **E2 / Figure 1**: [`run_bfs_traced`] + [`latency_core::LatencyBreakdown`].
//! - **E3 / Figure 2**: [`run_bfs_traced`] + [`latency_core::ExposureAnalysis`].
//! - **E4**: [`run_workload_traced`] over [`Workload::e4`].
//! - **E5**: [`dram_sched_comparison`] (FR-FCFS vs FCFS ablation).
//! - **E6**: [`hiding_sweep`] (exposed latency vs. warps/SM and scheduler).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod progress;
pub mod reference;
pub mod regression;
pub mod suite;
pub mod tracebundle;
pub mod validate;

pub use experiments::{
    dram_sched_comparison, hiding_sweep, mean_and_p95, run_bfs_traced, run_table1, run_traced,
    run_workload_traced, DramSchedResult, HidingPoint, TracedOutcome, TracedRun,
};
pub use gpu_workloads::{builtin_kernels, BfsExperiment, Workload};
pub use progress::ProgressHeartbeat;
pub use reference::{
    reference_rows, run_validation_bench, LevelValidation, PresetValidation, ReferenceRow,
    ValidationBench, REFERENCE_TABLES,
};
pub use regression::{compare_json, Finding};
pub use suite::{
    host_cpus, run_serve_bench, run_sweep_bench, run_tick_bench, run_workload_bench,
    serve_grid_spec, sweep_grid_spec, workloads_json, ServeBench, ServePass, SweepBench, TickBench,
    WorkloadBench, WorkloadRun, SERVE_CLIENTS,
};
pub use tracebundle::{env_request, track_names_for, EnvTrace, TraceBundle};
pub use validate::{
    derived_level, validate_floor, validate_run, FloorCheck, FloorReport, LoadCheck,
    ValidationReport,
};
