//! Loaded-latency measurement: the pointer chase under bandwidth pressure.
//!
//! Table I reports *idle* latencies; the paper's §III shows that under real
//! workloads, queueing and arbitration inflate them severalfold. This module
//! measures that inflation directly and controllably: one thread chases
//! pointers while a configurable number of "streamer" CTAs saturate the
//! memory system with coalesced reads. The streamers poll a stop flag that
//! the chaser raises when done, so the run length is set by the chase and
//! the interference is steady for its whole duration.

use gpu_isa::{AluOp, CmpOp, Kernel, KernelBuilder, Launch, Special, Width};
use gpu_sim::{Gpu, GpuConfig, LevelKind};

use crate::chase::{ChaseError, ChaseParams, ChaseSpace, UNROLL};

/// Builds the combined chaser/streamer kernel.
///
/// CTA 0, thread 0 chases `iters × UNROLL` dependent pointers through the
/// chain at param 0 and finally raises the stop flag; every other warp
/// streams through the interference array until the flag rises.
///
/// Parameters: `[0]` chain base, `[1]` chase iterations, `[2]` stop flag,
/// `[3]` interference array base, `[4]` interference array words.
pub fn build_loaded_kernel() -> Kernel {
    let mut b = KernelBuilder::new("loaded_chase");
    let chain = b.param(0);
    let iters = b.param(1);
    let flag = b.param(2);
    let stream_base = b.param(3);
    let stream_words = b.param(4);

    let ctaid = b.special(Special::CtaIdX);
    let tid = b.special(Special::TidX);
    let is_chaser_cta = b.setp(CmpOp::Eq, ctaid, 0);
    b.if_then_else(
        is_chaser_cta,
        |b| {
            let is_thread0 = b.setp(CmpOp::Eq, tid, 0);
            b.if_then(is_thread0, |b| {
                let p = b.mov(chain);
                let i = b.mov(0i64);
                let pred = b.pred();
                b.while_loop(
                    |b| {
                        b.setp_to(pred, CmpOp::Lt, i, iters);
                        pred
                    },
                    |b| {
                        for _ in 0..UNROLL {
                            b.ld_to(gpu_isa::Space::Global, Width::W8, p, p, 0);
                        }
                        b.alu_to(AluOp::Add, i, i, 1i64);
                    },
                );
                // Publish the final pointer (checksum) and raise the flag.
                b.st_global(Width::W8, flag, 8, p);
                b.st_global(Width::W4, flag, 0, 1);
            });
        },
        |b| {
            // Streamers: coalesced sweep over the interference array until
            // the flag rises. Functional memory is shared, so the poll load
            // observes the chaser's store regardless of cache state.
            let gtid = b.special(Special::GlobalTid);
            let ntid = b.special(Special::NTidX);
            let nctaid = b.special(Special::NCtaIdX);
            let total_threads = b.mul(ntid, nctaid);
            let cursor = b.mov(gtid);
            let sum = b.mov(0i64);
            let go = b.pred();
            b.while_loop(
                |b| {
                    let f = b.ld_global(Width::W4, flag, 0);
                    b.setp_to(go, CmpOp::Eq, f, 0);
                    go
                },
                |b| {
                    // A burst of 8 strided-by-warp coalesced reads. All
                    // loads are issued before any value is consumed so the
                    // in-order warp keeps 8 lines in flight (high MLP).
                    let vals: Vec<_> = (0..8)
                        .map(|_| {
                            let idx = b.alu(AluOp::Rem, cursor, stream_words);
                            let off = b.shl(idx, 2);
                            let addr = b.add(stream_base, off);
                            let v = b.ld_global(Width::W4, addr, 0);
                            b.alu_to(AluOp::Add, cursor, cursor, total_threads);
                            v
                        })
                        .collect();
                    for v in vals {
                        b.alu_to(AluOp::Add, sum, sum, v);
                    }
                },
            );
            // Sink the sum so the streaming work is architecturally live.
            let off = b.shl(gtid, 2);
            let sink = b.add(stream_base, off);
            b.st_global(Width::W4, sink, 0, sum);
        },
    );
    b.exit();
    b.build()
        .expect("loaded kernel is well-formed by construction")
}

fn run_once(
    config: &GpuConfig,
    params: &ChaseParams,
    streamer_ctas: u32,
    iters: u64,
) -> Result<u64, ChaseError> {
    let mut gpu = Gpu::new(config.clone());
    let chain = params.upload_chain(&mut gpu);
    let flag = gpu.alloc(16, config.line_size);
    let stream_words = 1u64 << 19; // 2 MiB interference array (beyond any modeled L2)
    let stream = gpu.alloc(4 * stream_words, config.line_size);
    gpu.launch(
        build_loaded_kernel(),
        Launch::new(
            1 + streamer_ctas,
            128,
            vec![chain.get(), iters, flag.get(), stream.get(), stream_words],
        ),
    )
    .map_err(ChaseError::Sim)?;
    let dram = config.arch_desc().unloaded_latency(LevelKind::DramFront);
    let worst = dram.expect("the DRAM front is always walkable") * 40 + 2000;
    let max_cycles = (iters * UNROLL as u64 + params.count() + 64) * worst + 500_000;
    let summary = gpu.run(max_cycles).map_err(ChaseError::Sim)?;
    assert_eq!(gpu.device().read_u32(flag), 1, "chaser must raise the flag");
    Ok(summary.cycles)
}

/// Measures per-access chase latency under `streamer_ctas` of interference
/// (0 = unloaded). Uses the same two-length differencing as the static
/// chase, so launch ramp-up and streamer drain cancel.
///
/// # Errors
///
/// Propagates invalid geometry and simulator failures.
pub fn measure_chase_under_load(
    config: &GpuConfig,
    params: &ChaseParams,
    streamer_ctas: u32,
) -> Result<f64, ChaseError> {
    assert_eq!(
        params.space,
        ChaseSpace::Global,
        "loaded chase measures the shared global pipeline"
    );
    params.validate()?;
    let count = params.count();
    let min_accesses = (2 * count).max(256);
    let iters_short = min_accesses.div_ceil(UNROLL as u64);
    let iters_long = 2 * iters_short;
    let c_short = run_once(config, params, streamer_ctas, iters_short)?;
    let c_long = run_once(config, params, streamer_ctas, iters_long)?;
    let extra = (iters_long - iters_short) * UNROLL as u64;
    Ok(c_long.saturating_sub(c_short) as f64 / extra as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ArchPreset;

    fn small_fermi() -> GpuConfig {
        let mut cfg = ArchPreset::FermiGf100.config();
        cfg.num_sms = 4;
        cfg.num_partitions = 2;
        cfg
    }

    #[test]
    fn kernel_validates() {
        assert!(build_loaded_kernel().validate().is_ok());
    }

    #[test]
    fn zero_interference_matches_static_chase() {
        let cfg = small_fermi();
        let params = ChaseParams::global(4096, 128);
        let loaded0 = measure_chase_under_load(&cfg, &params, 0).unwrap();
        let static_m = crate::chase::measure_chase(&cfg, &params).unwrap();
        assert!(
            (loaded0 - static_m.per_access).abs() <= 3.0,
            "loaded(0) {loaded0} vs static {}",
            static_m.per_access
        );
    }

    #[test]
    fn zero_interference_follows_a_shuffled_chain() {
        // A shuffled DRAM-resident chain loses the sequential ring's row
        // locality; the loaded chase must walk the same chain to see it.
        let cfg = small_fermi();
        let params = ChaseParams::global_shuffled(1024 * 1024, 512, 7);
        let loaded0 = measure_chase_under_load(&cfg, &params, 0).unwrap();
        let static_m = crate::chase::measure_chase(&cfg, &params).unwrap();
        assert!(
            (loaded0 - static_m.per_access).abs() <= 3.0,
            "loaded(0) {loaded0} vs static shuffled {}",
            static_m.per_access
        );
    }

    #[test]
    fn interference_inflates_dram_latency() {
        let cfg = small_fermi();
        // DRAM-resident chase: footprint beyond both caches of the shrunken
        // machine (2 slices x 128 KB).
        let params = ChaseParams::global(1024 * 1024, 4096);
        let unloaded = measure_chase_under_load(&cfg, &params, 0).unwrap();
        let loaded = measure_chase_under_load(&cfg, &params, 12).unwrap();
        assert!(
            loaded / unloaded > 1.3,
            "expected visible queueing inflation: {loaded} vs {unloaded}"
        );
        assert!(loaded > unloaded);
    }

    #[test]
    fn rejects_local_space() {
        let cfg = small_fermi();
        let params = ChaseParams::local(4096, 128);
        let r = std::panic::catch_unwind(|| measure_chase_under_load(&cfg, &params, 1));
        assert!(r.is_err(), "local-space loaded chase must be rejected");
    }
}
