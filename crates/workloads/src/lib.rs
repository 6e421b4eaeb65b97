//! Workload kernels and generators for the `gpu-latency` simulator.
//!
//! The paper's dynamic-latency analysis (§III) runs breadth-first search;
//! its observation that "other workloads similarly showed queueing and
//! arbitration as the two key latency contributors" motivates the rest of
//! the comparison set:
//!
//! - [`bfs`]: frontier BFS over CSR graphs ([`graph`]) — data-dependent,
//!   poorly-coalesced loads (the paper's exemplar).
//! - [`vecadd`]: fully-coalesced streaming — the bandwidth-bound contrast.
//! - [`matmul`]: tiled shared-memory GEMM — compute-bound with barriers.
//! - [`reduce`]: shared-memory tree reduction with atomic combine.
//! - [`spmv`]: CSR sparse matrix–vector multiply — irregular, read-only.
//! - [`stencil`]: 2-D Jacobi — regular with heavy spatial line reuse.
//! - [`histogram`]: global-atomic contention stress.
//! - [`transpose`]: naive vs shared-memory-tiled coalescing comparison.
//! - [`scan`]: per-CTA Hillis–Steele prefix sum — the barrier-densest kernel.
//!
//! Every workload provides a kernel builder, a device `setup`, a `run`
//! driver, and a host-reference `verify`; the [`table`] strings them into
//! one [`Workload`] descriptor each, and [`Workload::execute`] is the one
//! path that runs a descriptor — plain, checkpointed or resumed.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod graph;
pub mod histogram;
pub mod matmul;
pub mod reduce;
pub mod scan;
pub mod spmv;
pub mod stencil;
pub mod table;
pub mod transpose;
pub mod vecadd;

pub use bfs::BfsExperiment;
pub use graph::Graph;
pub use table::{builtin_kernels, Workload};
