//! `kernels-modern`: the eight non-BFS kernels on the 80-SM `gv100`
//! (32 B sectors, two L2 slices × eight partitions). They drive the same
//! `sim` and `mem` layers as `bfs-dynamic` through different code: compute,
//! shared memory and barriers, five times the components per cycle, and the
//! sectored cache and sliced partition paths `gf100` never executes.
//!
//! The launch sequence is the one `latency_bench::run_workload_traced`
//! uses, spelled out here so set-up, run and verification get their own
//! spans, at a sixteenth of its problem sizes: a round of eight ops of
//! 20 to 170 ms, some forty rounds to a pass, so that every op finds the
//! host quiet in some round. Only `spmv` has seed-dependent input (its
//! matrix).

use gpu_sim::{Gpu, GpuConfig, RunSummary, SimError};
use gpu_snapshot::StableHasher;
use gpu_types::Addr;
use gpu_workloads::{histogram, matmul, reduce, scan, spmv, stencil, transpose, vecadd};
use latency_core::ArchPreset;

use crate::runner::{Op, Round, SimCounts, Workload};
use crate::spans::Recorder;

const BLOCK: u32 = 256;
const BINS: u32 = 256;

/// One kernel's uploaded inputs.
enum Prepared {
    VecAdd(vecadd::VecAddDevice),
    MatMul(matmul::MatmulDevice),
    Reduce(reduce::ReduceDevice, u64),
    SpMv(spmv::SpmvDevice, spmv::CsrMatrix),
    Stencil(stencil::StencilDevice),
    Histogram(histogram::HistogramDevice),
    Transpose(transpose::TransposeDevice),
    Scan(scan::ScanDevice),
}

impl Prepared {
    /// Uploads kernel number `index` (the order of `Workload::ALL` in
    /// `latency_bench`) at `scale` times the base problem size.
    fn upload(index: usize, gpu: &mut Gpu, scale: u32, seed: u64) -> Prepared {
        let elements = 1024 * scale as u64;
        // Matrix sides are multiples of the kernels' 16-wide tiles.
        let (matmul_side, transpose_side) = ((4 * scale).max(16), (8 * scale).max(16));
        match index {
            0 => Prepared::VecAdd(vecadd::setup(gpu, elements)),
            1 => Prepared::MatMul(matmul::setup(gpu, matmul_side)),
            2 => Prepared::Reduce(reduce::setup(gpu, elements), elements),
            3 => {
                let rows = 128 * scale;
                let m = spmv::CsrMatrix::random(rows, rows, 8, seed);
                Prepared::SpMv(spmv::setup(gpu, &m), m)
            }
            4 => Prepared::Stencil(stencil::setup(gpu, 8 * scale, 8 * scale)),
            5 => Prepared::Histogram(histogram::setup(gpu, elements, BINS)),
            6 => Prepared::Transpose(transpose::setup(gpu, transpose_side)),
            7 => Prepared::Scan(scan::setup(gpu, elements)),
            _ => unreachable!("eight kernels"),
        }
    }

    /// Launches and drains the kernel; `Some(addr)` is where the stencil
    /// left its result.
    fn run(&self, gpu: &mut Gpu) -> Result<(RunSummary, Option<Addr>), SimError> {
        Ok(match self {
            Prepared::VecAdd(dev) => (vecadd::run(gpu, dev, BLOCK)?, None),
            Prepared::MatMul(dev) => (matmul::run(gpu, dev)?, None),
            Prepared::Reduce(dev, _) => (reduce::run(gpu, dev, BLOCK)?, None),
            Prepared::SpMv(dev, _) => (spmv::run(gpu, dev, 128)?, None),
            Prepared::Stencil(dev) => {
                let (summary, result) = stencil::run(gpu, dev, 1, 128)?;
                (summary, Some(result))
            }
            Prepared::Histogram(dev) => (histogram::run(gpu, dev, BLOCK)?, None),
            Prepared::Transpose(dev) => {
                (transpose::run(gpu, dev, transpose::Variant::Tiled)?, None)
            }
            Prepared::Scan(dev) => (scan::run(gpu, dev, BLOCK)?, None),
        })
    }

    /// Checks device output against the crate's host reference (which
    /// asserts).
    fn verify(&self, gpu: &Gpu, stencil_result: Option<Addr>) {
        match self {
            Prepared::VecAdd(dev) => vecadd::verify(gpu, dev),
            Prepared::MatMul(dev) => matmul::verify(gpu, dev),
            Prepared::Reduce(dev, n) => {
                assert_eq!(gpu.device().read_u32(dev.output), reduce::reference(*n));
            }
            Prepared::SpMv(dev, m) => spmv::verify(gpu, dev, m),
            Prepared::Stencil(dev) => {
                stencil::verify(gpu, dev, stencil_result.expect("stencil ran"), 1);
            }
            Prepared::Histogram(dev) => histogram::verify(gpu, dev),
            Prepared::Transpose(dev) => transpose::verify(gpu, dev),
            Prepared::Scan(dev) => scan::verify(gpu, dev, BLOCK),
        }
    }
}

/// Whether `check` returned without panicking: the workload crates' `verify`
/// functions assert instead of returning a verdict.
fn passes(check: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_ok()
}

pub struct KernelsModern {
    seed: u64,
    scale: u32,
    config: GpuConfig,
    prepared: Vec<(Gpu, Prepared)>,
}

impl KernelsModern {
    pub fn new(seed: u64, quick: bool) -> Self {
        KernelsModern {
            seed,
            scale: if quick { 2 } else { 4 },
            config: ArchPreset::VoltaGv100.config(),
            prepared: Vec::new(),
        }
    }
}

impl Workload for KernelsModern {
    fn setup_reps(&self) -> usize {
        8
    }

    /// One simulator per kernel, inputs uploaded.
    fn setup(&mut self, rec: &mut Recorder) {
        self.prepared = (0..8)
            .map(|index| {
                let span = rec.begin("sim.gpu_new");
                let mut gpu = Gpu::new(self.config.clone());
                rec.end(span);
                gpu.set_tracing(true);
                let span = rec.begin("workloads.upload");
                let prepared = Prepared::upload(index, &mut gpu, self.scale, self.seed);
                rec.end(span);
                (gpu, prepared)
            })
            .collect();
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let mut digest = StableHasher::new();
        let mut counts = SimCounts::default();
        for (mut gpu, prepared) in self.prepared.drain(..) {
            rec.next_op();
            let op_started = std::time::Instant::now();

            let span = rec.begin("workloads.run_kernel");
            let before = rec.sim_before();
            let armed = crate::alloc::arm();
            let run = prepared.run(&mut gpu);
            drop(armed);
            rec.sim_children(before);
            rec.end(span);

            let mut op = Op::default();
            if let Ok((summary, stencil_result)) = run {
                let span = rec.begin("workloads.verify");
                let right_answer = passes(|| prepared.verify(&gpu, stencil_result));
                rec.end(span);
                Round::hash_summary(&mut digest, &summary);
                counts.add(&summary, &self.config);
                op.cycles = summary.cycles;
                op.instrs = summary.instructions;
                op.ok = right_answer && summary.sanitizer_violations == 0;
            }
            op.ms = op_started.elapsed().as_secs_f64() * 1e3;
            round.ops.push(op);
        }
        round.digest = digest.finish();
        round.counts = counts.into_counts();
        round
    }

    fn machine(&self) -> GpuConfig {
        self.config.clone()
    }
}
