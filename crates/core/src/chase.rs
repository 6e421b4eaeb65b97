//! The pointer-chasing static-latency microbenchmark (paper §II).
//!
//! A single active thread chases pointers through memory: each load's
//! address is the value returned by the previous load, so exactly one memory
//! access is in flight at a time and the measured time per access is the
//! unloaded round-trip latency of whatever pipeline level services it.
//!
//! Timing uses two runs differing only in iteration count; the difference
//! divided by the extra accesses cancels launch overhead and cold-miss
//! warmup exactly, which replaces the paper's `clock()` register reads (our
//! simulator gives us total cycles directly).

use std::fmt;

use gpu_isa::{AluOp, CmpOp, Kernel, KernelBuilder, Launch, Operand, Space, Width};
use gpu_sim::{Gpu, GpuConfig, LevelKind, SimError};
use gpu_types::Addr;

/// Dependent loads per loop iteration (amortizes loop overhead to well under
/// a cycle per access).
pub const UNROLL: usize = 16;

/// Order in which the chain visits its elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChasePattern {
    /// Sequential ring: element `i` points to `i + 1` (mod count).
    #[default]
    Sequential,
    /// Pseudo-random single-cycle permutation (seeded, reproducible).
    Shuffled {
        /// Permutation seed.
        seed: u64,
    },
}

/// Which memory space the chase walks. `Local` is what distinguishes
/// Kepler's L1 (local-only) from Fermi's in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseSpace {
    /// Chase through global memory (host-initialized chain).
    Global,
    /// Chase through thread-local memory (kernel-initialized chain).
    Local,
}

/// Parameters of one chase experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseParams {
    /// Total bytes touched (the working set).
    pub footprint: u64,
    /// Distance between consecutive chain elements in bytes (multiple of 8).
    pub stride: u64,
    /// Memory space walked.
    pub space: ChaseSpace,
    /// Element visiting order (global chases only; local chains are
    /// initialized in-kernel and always sequential).
    pub pattern: ChasePattern,
}

impl ChaseParams {
    /// A global-memory chase.
    pub fn global(footprint: u64, stride: u64) -> Self {
        ChaseParams {
            footprint,
            stride,
            space: ChaseSpace::Global,
            pattern: ChasePattern::Sequential,
        }
    }

    /// A global-memory chase over a shuffled chain.
    pub fn global_shuffled(footprint: u64, stride: u64, seed: u64) -> Self {
        ChaseParams {
            footprint,
            stride,
            space: ChaseSpace::Global,
            pattern: ChasePattern::Shuffled { seed },
        }
    }

    /// A local-memory chase.
    pub fn local(footprint: u64, stride: u64) -> Self {
        ChaseParams {
            footprint,
            stride,
            space: ChaseSpace::Local,
            pattern: ChasePattern::Sequential,
        }
    }

    /// Number of chain elements.
    pub fn count(&self) -> u64 {
        self.footprint / self.stride
    }

    /// The geometry every chase driver accepts: a stride that is a positive
    /// multiple of 8 and at least one chain element.
    pub(crate) fn validate(&self) -> Result<(), ChaseError> {
        if self.stride < 8 || !self.stride.is_multiple_of(8) {
            return Err(ChaseError::BadStride(self.stride));
        }
        if self.count() == 0 {
            return Err(ChaseError::EmptyChain {
                footprint: self.footprint,
                stride: self.stride,
            });
        }
        Ok(())
    }

    /// Allocates this global chase's chain on `gpu` and writes it in the
    /// pattern's visiting order; returns its base.
    pub fn upload_chain(&self, gpu: &mut Gpu) -> Addr {
        let base = gpu.alloc(self.footprint, gpu.config().line_size);
        let (count, stride) = (self.count(), self.stride);
        match self.pattern {
            ChasePattern::Sequential => write_chain(gpu, base, count, stride),
            ChasePattern::Shuffled { seed } => write_shuffled_chain(gpu, base, count, stride, seed),
        }
        base
    }
}

/// One measured chase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaseMeasurement {
    /// Average cycles per dependent access in steady state.
    pub per_access: f64,
    /// Accesses in the longer run.
    pub accesses: u64,
    /// Total cycles of the shorter run.
    pub cycles_short: u64,
    /// Total cycles of the longer run.
    pub cycles_long: u64,
}

/// Error running a chase experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseError {
    /// Stride must be a positive multiple of 8 bytes (pointer size).
    BadStride(u64),
    /// Footprint smaller than stride: no chain elements.
    EmptyChain {
        /// Requested footprint.
        footprint: u64,
        /// Requested stride.
        stride: u64,
    },
    /// The simulator failed (usually a cycle-limit timeout).
    Sim(SimError),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::BadStride(s) => write!(f, "stride {s} is not a positive multiple of 8"),
            ChaseError::EmptyChain { footprint, stride } => {
                write!(f, "footprint {footprint} < stride {stride}: empty chain")
            }
            ChaseError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ChaseError {}

impl From<SimError> for ChaseError {
    fn from(e: SimError) -> Self {
        ChaseError::Sim(e)
    }
}

/// Builds the chase kernel: `iters` iterations of [`UNROLL`] dependent
/// pointer loads, preceded (for local chases) by an in-kernel chain
/// initialization loop.
///
/// Parameters: `[0]` chain base address (global) or ignored (local),
/// `[1]` iteration count, `[2]` sink address for the final pointer.
pub fn build_chase_kernel(params: &ChaseParams) -> Kernel {
    let mut b = KernelBuilder::new(match params.space {
        ChaseSpace::Global => "chase_global",
        ChaseSpace::Local => "chase_local",
    });
    let space = match params.space {
        ChaseSpace::Global => Space::Global,
        ChaseSpace::Local => Space::Local,
    };
    let base = b.param(0);
    let iters = b.param(1);
    let sink = b.param(2);

    let p = b.reg();
    match params.space {
        ChaseSpace::Global => {
            b.mov_to(p, base);
        }
        ChaseSpace::Local => {
            // Reserve the window and write the chain from inside the kernel
            // (the host cannot address thread-local windows directly).
            let off = b.alloc_local(params.footprint);
            debug_assert_eq!(off, 0);
            let count = params.count();
            let stride = params.stride;
            b.for_range(Operand::Imm(0), Operand::Imm(count as i64), 1, |b, j| {
                let addr = b.mul(j, stride as i64);
                let jn = b.add(j, 1);
                let wrapped = b.alu(AluOp::Rem, jn, count as i64);
                let val = b.mul(wrapped, stride as i64);
                b.st(Space::Local, Width::W8, addr, 0, val);
            });
            b.mov_to(p, 0i64);
        }
    }

    let i = b.mov(0i64);
    let pred = b.pred();
    b.while_loop(
        |b| {
            b.setp_to(pred, CmpOp::Lt, i, iters);
            pred
        },
        |b| {
            for _ in 0..UNROLL {
                b.ld_to(space, Width::W8, p, p, 0);
            }
            b.alu_to(AluOp::Add, i, i, 1i64);
        },
    );
    b.st_global(Width::W8, sink, 0, p);
    b.exit();
    b.build()
        .expect("chase kernel is well-formed by construction")
}

/// Writes a sequential ring chain of `count` pointers with the given stride
/// into device memory at `base`.
pub fn write_chain(gpu: &mut Gpu, base: Addr, count: u64, stride: u64) {
    for i in 0..count {
        let next = base.get() + ((i + 1) % count) * stride;
        gpu.device_mut().write_u64(base + i * stride, next);
    }
}

/// Writes a *shuffled* single-cycle chain: the pointers visit every element
/// exactly once in a pseudo-random order before wrapping. Wong et al. use
/// random chains to defeat spatial prefetching; in this model (no
/// prefetcher) the observable difference is DRAM row-buffer behaviour:
/// shuffled order destroys the residual row locality of the sequential ring.
///
/// Deterministic (seeded Fisher–Yates over an LCG), so measurements are
/// reproducible.
pub fn write_shuffled_chain(gpu: &mut Gpu, base: Addr, count: u64, stride: u64, seed: u64) {
    // Permutation of the element indices.
    let mut order: Vec<u64> = (0..count).collect();
    let mut state = seed | 1;
    let mut next_rand = move || {
        // xorshift64*
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in (1..count as usize).rev() {
        let j = (next_rand() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    // Link the permutation into a single cycle.
    for w in 0..count as usize {
        let from = order[w];
        let to = order[(w + 1) % count as usize];
        gpu.device_mut()
            .write_u64(base + from * stride, base.get() + to * stride);
    }
}

fn run_once(config: &GpuConfig, params: &ChaseParams, iters: u64) -> Result<u64, ChaseError> {
    let mut gpu = Gpu::new(config.clone());
    let kernel = build_chase_kernel(params);
    let (base, sink) = match params.space {
        ChaseSpace::Global => {
            let base = params.upload_chain(&mut gpu);
            let sink = gpu.alloc(8, config.line_size);
            (base, sink)
        }
        ChaseSpace::Local => {
            let sink = gpu.alloc(8, config.line_size);
            (Addr::NULL, sink)
        }
    };
    gpu.launch(
        kernel,
        Launch::new(1, 1, vec![base.get(), iters, sink.get()]),
    )?;
    // Generous bound: every access could be a loaded DRAM round trip.
    let dram = config.arch_desc().unloaded_latency(LevelKind::DramFront);
    let worst = dram.expect("the DRAM front is always walkable") * 4 + 200;
    let max_cycles = (iters * UNROLL as u64 + params.count() + 64) * worst + 100_000;
    let summary = gpu.run(max_cycles)?;
    // Sanity: the final pointer must still be inside the chain.
    let final_p = gpu.device().read_u64(sink);
    match params.space {
        ChaseSpace::Global => {
            assert!(
                final_p >= base.get() && final_p < base.get() + params.footprint,
                "chase escaped its ring"
            );
        }
        ChaseSpace::Local => {
            assert!(final_p < params.footprint, "local chase escaped its ring");
        }
    }
    Ok(summary.cycles)
}

/// Measures the steady-state per-access latency of the chase described by
/// `params` on `config`.
///
/// # Errors
///
/// Returns [`ChaseError`] for invalid geometry or simulator failure.
///
/// # Examples
///
/// ```no_run
/// use latency_core::{ArchPreset, ChaseParams, measure_chase};
///
/// let cfg = ArchPreset::FermiGf106.config_microbench();
/// let m = measure_chase(&cfg, &ChaseParams::global(4096, 128))?;
/// assert!(m.per_access > 0.0);
/// # Ok::<(), latency_core::ChaseError>(())
/// ```
pub fn measure_chase(
    config: &GpuConfig,
    params: &ChaseParams,
) -> Result<ChaseMeasurement, ChaseError> {
    params.validate()?;
    if let Some(dir) = crate::cache::cache_dir() {
        let key = crate::cache::chase_key(config, params);
        if let Some(m) = crate::cache::lookup_chase(&dir, key) {
            return Ok(m);
        }
        let m = measure_chase_uncached(config, params)?;
        crate::cache::store_chase(&dir, key, &m);
        return Ok(m);
    }
    measure_chase_uncached(config, params)
}

/// [`measure_chase`] minus the cache: always simulates.
fn measure_chase_uncached(
    config: &GpuConfig,
    params: &ChaseParams,
) -> Result<ChaseMeasurement, ChaseError> {
    let count = params.count();
    // Both runs must reach steady state (>= one full traversal of the ring).
    let min_accesses = (2 * count).max(256);
    let iters_short = min_accesses.div_ceil(UNROLL as u64);
    let iters_long = 2 * iters_short;
    let cycles_short = run_once(config, params, iters_short)?;
    let cycles_long = run_once(config, params, iters_long)?;
    let extra_accesses = (iters_long - iters_short) * UNROLL as u64;
    let per_access = cycles_long.saturating_sub(cycles_short) as f64 / extra_accesses as f64;
    Ok(ChaseMeasurement {
        per_access,
        accesses: iters_long * UNROLL as u64,
        cycles_short,
        cycles_long,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ArchPreset;

    #[test]
    fn bad_geometry_rejected() {
        let cfg = ArchPreset::FermiGf106.config_microbench();
        assert!(matches!(
            measure_chase(&cfg, &ChaseParams::global(4096, 12)),
            Err(ChaseError::BadStride(12))
        ));
        assert!(matches!(
            measure_chase(&cfg, &ChaseParams::global(8, 128)),
            Err(ChaseError::EmptyChain { .. })
        ));
    }

    #[test]
    fn chase_kernel_validates() {
        for params in [
            ChaseParams::global(4096, 128),
            ChaseParams::local(2048, 128),
        ] {
            let k = build_chase_kernel(&params);
            assert!(k.validate().is_ok());
        }
    }

    #[test]
    fn l1_resident_chase_measures_l1_hit_latency() {
        // 4 KB footprint in a 16 KB L1: steady state is all hits.
        let cfg = ArchPreset::FermiGf106.config_microbench();
        let m = measure_chase(&cfg, &ChaseParams::global(4096, 128)).unwrap();
        let expected = ArchPreset::FermiGf106.published().l1.unwrap() as f64;
        assert!(
            (m.per_access - expected).abs() <= 3.0,
            "measured {} vs expected {expected}",
            m.per_access
        );
    }

    #[test]
    fn longer_run_takes_longer() {
        let cfg = ArchPreset::FermiGf106.config_microbench();
        let m = measure_chase(&cfg, &ChaseParams::global(2048, 128)).unwrap();
        assert!(m.cycles_long > m.cycles_short);
        assert!(m.per_access > 0.0);
    }
}

#[cfg(test)]
mod shuffled_tests {
    use super::*;
    use crate::presets::ArchPreset;
    use gpu_sim::Gpu;

    #[test]
    fn shuffled_chain_is_a_single_cycle() {
        let cfg = ArchPreset::FermiGf106.config_microbench();
        let mut gpu = Gpu::new(cfg.clone());
        let count = 64u64;
        let stride = 128u64;
        let base = gpu.alloc(count * stride, cfg.line_size);
        write_shuffled_chain(&mut gpu, base, count, stride, 42);
        // Follow the chain: it must visit every element once and return.
        let mut seen = vec![false; count as usize];
        let mut p = base.get();
        for _ in 0..count {
            let idx = ((p - base.get()) / stride) as usize;
            assert!(!seen[idx], "element {idx} visited twice");
            seen[idx] = true;
            p = gpu.device().read_u64(gpu_types::Addr::new(p));
        }
        assert_eq!(p, base.get(), "chain must close into a cycle at the base");
        assert!(seen.iter().all(|&v| v), "every element visited");
    }

    #[test]
    fn shuffled_chase_measures_same_l1_latency() {
        // Inside the L1 the visiting order is irrelevant.
        let cfg = ArchPreset::FermiGf106.config_microbench();
        let seq = measure_chase(&cfg, &ChaseParams::global(4096, 128)).unwrap();
        let shuf = measure_chase(&cfg, &ChaseParams::global_shuffled(4096, 128, 7)).unwrap();
        assert!(
            (seq.per_access - shuf.per_access).abs() < 2.0,
            "seq {} vs shuffled {}",
            seq.per_access,
            shuf.per_access
        );
    }

    #[test]
    fn shuffled_dram_chase_loses_row_locality() {
        // At a sub-row stride, the sequential ring enjoys row-buffer hits;
        // the shuffled chain mostly does not.
        let cfg = ArchPreset::TeslaGt200.config_microbench();
        let seq = measure_chase(&cfg, &ChaseParams::global(256 * 1024, 512)).unwrap();
        let shuf = measure_chase(&cfg, &ChaseParams::global_shuffled(256 * 1024, 512, 11)).unwrap();
        assert!(
            shuf.per_access > seq.per_access * 1.1,
            "shuffling should defeat row locality: seq {} vs shuffled {}",
            seq.per_access,
            shuf.per_access
        );
    }
}
