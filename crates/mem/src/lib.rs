//! Memory-system substrates for the `gpu-latency` simulator.
//!
//! Everything between an SM's load-store unit and the DRAM pins lives here:
//!
//! - [`MemRequest`] / [`Timeline`] / [`Stamp`]: the line-granular memory
//!   transactions that traverse the pipeline, carrying the per-stage cycle
//!   stamps the paper's dynamic-latency breakdown (Fig. 1) is computed from.
//! - [`Cache`]: set-associative tag array used for L1 data caches and L2
//!   slices, with Fermi-style write-through/write-evict store handling.
//! - [`MshrTable`]: finite miss-status holding registers with merging.
//! - [`DramController`]: per-partition GDDR channel with banked row-buffer
//!   timing and FR-FCFS / FCFS scheduling ([`DramSched`]).
//! - [`AddressMap`]: partition interleaving and bank/row decoding.
//! - [`DeviceMemory`]: the *functional* backing store (timing-free).
//!
//! The cycle-by-cycle wiring of these pieces into SMs, an interconnect and
//! memory partitions lives in the `gpu-sim` crate.

#![forbid(unsafe_code)]

mod cache;
mod device;
mod dram;
mod mapping;
mod mshr;
mod request;

pub use cache::{Cache, CacheConfig, LoadOutcome, Replacement};
pub use device::DeviceMemory;
pub use dram::{
    DramConfig, DramController, DramEvent, DramEventKind, DramSched, DramStats, DramTiming,
};
pub use mapping::AddressMap;
pub use mshr::{MshrConfig, MshrTable};
pub use request::{AccessKind, MemRequest, PipelineSpace, RequestId, Stamp, Timeline};
