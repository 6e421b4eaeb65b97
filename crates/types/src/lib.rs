//! Common foundation types for the `gpu-latency` simulator workspace.
//!
//! This crate provides the small, dependency-free vocabulary shared by every
//! other crate in the workspace:
//!
//! - [`Cycle`]: a point in simulated time, measured in hot-clock cycles.
//! - [`Addr`]: a byte address in the simulated device memory space.
//! - id newtypes ([`SmId`], [`PartitionId`], [`WarpId`], …) that keep the
//!   many small integers in a GPU model from being mixed up.
//! - [`BoundedQueue`]: the finite FIFO from which all queueing latency in the
//!   memory pipeline emerges.
//! - [`DelayQueue`]: a FIFO whose entries only become visible after a fixed
//!   pipeline delay, used to model fixed-latency pipeline segments.
//! - [`Histogram`] and [`Buckets`]: sample collection and the equal-width
//!   latency bucketing used by the paper's Figures 1 and 2.
//! - [`IntMap`] / [`IntHasher`]: the one deterministic integer hasher, for
//!   the bounded `u64`-keyed tables on the simulator's per-access path.
//! - [`json`]: the workspace's one JSON layer — the parser every reader goes
//!   through and the streaming writer every emitter goes through.
//! - [`rng`]: hermetic, seedable pseudo-random number generation
//!   (SplitMix64 + xoshiro256++) so the workspace needs no external `rand`
//!   dependency and builds fully offline.
//!
//! # Examples
//!
//! ```
//! use gpu_types::{Cycle, BoundedQueue};
//!
//! let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
//! assert!(q.push(1).is_ok());
//! assert!(q.push(2).is_ok());
//! assert!(q.push(3).is_err()); // full: back-pressure, i.e. queueing latency
//! assert_eq!(q.pop(), Some(1));
//!
//! let t = Cycle::ZERO + 5;
//! assert_eq!(t.since(Cycle::ZERO), 5);
//! ```

#![forbid(unsafe_code)]

mod addr;
mod cycle;
mod hash;
mod histogram;
mod ids;
pub mod json;
mod queue;
pub mod rng;

pub use addr::Addr;
pub use cycle::Cycle;
pub use hash::{IntHasher, IntMap};
pub use histogram::{Buckets, Histogram};
pub use ids::{CtaId, PartitionId, SmId, ThreadId, WarpId};
pub use queue::{reserve_bound, BoundedQueue, DelayQueue, PushError};
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
