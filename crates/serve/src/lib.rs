//! `gpu-serve`: simulation-as-a-service over the cache/snapshot substrate.
//!
//! The `latency` subcommands re-drive the simulator from scratch on
//! every invocation, even though the chase cache (content-addressed by
//! `latency_core::chase_key`), the `ArchDesc` hash keys, and full-fidelity
//! checkpoint/restore already exist. This crate turns those substrates into
//! a long-running job daemon:
//!
//! * [`spec`] — the JSON job schema (preset or inline `ArchDesc` frame ×
//!   sweep grid or checkpointed BFS) and deterministic job identity;
//! * [`proto`] — the newline-delimited JSON wire protocol, typed errors,
//!   and the capped line reader;
//! * [`server`] — dedup (job- and point-level), the bounded worker pool,
//!   JSONL event streaming, durable results, and boot-time crash recovery;
//! * [`client`] — the small blocking client used by `serve-client`, the
//!   bench suite, and the tests.
//!
//! Everything is std-only and rides on `gpu_trace::json` (the workspace's
//! one parser and one writer) for every line read or written.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;
pub mod spec;

pub use client::{Client, WatchedRun};
pub use proto::{
    format_job_id, parse_job_id, parse_request, Request, RequestError, MAX_REQUEST_BYTES,
};
pub use server::{
    serve_session, serve_tcp, Server, ServerConfig, ServerHandle, Submission, WatchAttach,
};
pub use spec::{
    encode_arch_frame, preset_token, ArchSource, JobKind, JobSpec, SpecError, MAX_FOOTPRINT,
    MAX_NODES, SPEC_VERSION,
};

#[cfg(unix)]
pub use server::serve_unix;
