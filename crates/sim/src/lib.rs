//! Execution-driven GPU timing simulator.
//!
//! This crate wires the substrates of the `gpu-latency` workspace — the
//! kernel IR and functional SIMT executor (`gpu-isa`), caches/MSHRs/DRAM
//! (`gpu-mem`) and the crossbar interconnect (`gpu-icnt`) — into a
//! cycle-level GPU in the spirit of GPGPU-Sim: SIMT cores with warp
//! schedulers and scoreboards, per-SM L1 data caches, a two-network
//! crossbar, and memory partitions with ROP pipelines, L2 slices and
//! FR-FCFS DRAM channels.
//!
//! Every memory request carries a stamp [`gpu_mem::Timeline`]; with tracing
//! enabled ([`Gpu::set_tracing`]) the simulator records the completed
//! timelines and per-load exposure data that the `latency-core` crate turns
//! into the paper's Figure 1 and Figure 2.
//!
//! A cycle-level invariant [`Sanitizer`] (on by default via
//! [`GpuConfig::sanitize`]) audits the model as it runs: request
//! conservation across all queues/MSHRs/networks, queue-capacity bounds,
//! stamp monotonicity and stage-sum consistency, and end-of-run MSHR-leak
//! detection. Violations accumulate in a queryable report
//! ([`Gpu::sanitizer`]) and fail the run in debug builds.
//!
//! # Examples
//!
//! See [`Gpu`] for an end-to-end kernel launch.

#![forbid(unsafe_code)]

mod agenda;
pub mod coalesce;
mod codec;
mod config;
mod gpu;
mod partition;
mod sanitizer;
mod scoreboard;
mod sm;
mod stats;

pub use coalesce::coalesce;
pub use config::{ConfigError, GpuConfig, L1Config, L2Config, SchedPolicy, WritePolicy};
pub use gpu::{cycles_simulated, CheckpointPolicy, Gpu, IdleCounts, RunOutcome, SimError};

// Architecture-description types, re-exported so downstream crates can build
// and inspect configs declaratively without naming `gpu-arch` directly.
pub use gpu_arch::{
    ArchDesc, CacheGeom, FabricDesc, LevelDesc, LevelKind, MemDesc, Routing, SmDesc,
};
pub use partition::Partition;
pub use sanitizer::{Sanitizer, Site, Violation};
pub use scoreboard::Scoreboard;
pub use sm::Sm;
pub use stats::{CompletedRequest, LoadInstrRecord, RunSummary, SmStats, TraceSink};

// The host-side self-profiler (`gpu-profile`), re-exported whole: the
// cycle loop, the grid pool and the bench harness all record into
// its process-global tables (see `gpu_trace::profile`).
pub use gpu_trace::profile;

// Observability types, re-exported so downstream crates can configure and
// drain the tracer without naming `gpu-trace` directly.
pub use gpu_trace::{
    CounterKind, CounterSample, CounterSummary, EventKind, MetricsReport, StallBreakdown,
    StallReason, TraceConfig, TraceData, TraceEvent, TraceSite, Tracer,
};
