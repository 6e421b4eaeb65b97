//! The workload table: one descriptor per workload, and the one run path
//! every driver above [`Gpu::run_checkpointed`] goes through.
//!
//! A descriptor names the workload, lists the kernels its run launches
//! (what `latency lint` and the static half of the differential validation
//! analyze), and holds the driver that sets up the default problem,
//! launches it and verifies the device output against the host reference.
//! Everything that enumerates workloads — the `latency trace --workload`
//! name list, [`builtin_kernels`], the E4 sweeps — is derived from
//! [`Workload::all`]; adding a workload is adding a row.

use std::path::Path;

use gpu_isa::Kernel;
use gpu_sim::{CheckpointPolicy, Gpu, GpuConfig, RunOutcome, RunSummary, SimError};

use crate::bfs::{self, BfsExperiment};
use crate::{histogram, matmul, reduce, scan, spmv, stencil, transpose, vecadd};

/// How a table entry runs.
#[derive(Debug)]
enum Driver {
    /// Sets up a fixed-size problem, launches it under [`Gpu::run`] and
    /// verifies — one shot, nothing to resume.
    Fixed(fn(&mut Gpu) -> Result<RunSummary, SimError>),
    /// A host loop whose position rides in the checkpoint's host tag: runs
    /// under any policy and continues a restored machine (`resumed`).
    Resumable(
        fn(&mut Gpu, &BfsExperiment, &CheckpointPolicy, bool) -> Result<RunOutcome, SimError>,
    ),
}

/// One row of the workload table.
#[derive(Debug)]
pub struct Workload {
    /// The name `latency trace --workload` and every report use.
    pub name: &'static str,
    /// The kernels a run launches, in first-launch order.
    pub kernels: fn() -> Vec<Kernel>,
    /// Kernel variants this workload ships that its default run does not
    /// launch; `lint` still analyzes them.
    variants: fn() -> Vec<Kernel>,
    driver: Driver,
}

/// The table. BFS, the paper's exemplar (E2/E3), comes first; the eight E4
/// comparison workloads follow in the order every E4 report lists them.
static WORKLOADS: [Workload; 9] = [
    Workload {
        name: "bfs",
        kernels: || vec![bfs::build_bfs_mask_kernel1(), bfs::build_bfs_mask_kernel2()],
        variants: || vec![bfs::build_bfs_kernel()],
        driver: Driver::Resumable(bfs::run_experiment),
    },
    Workload {
        name: "vecadd",
        kernels: || vec![vecadd::build_vecadd_kernel()],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = vecadd::setup(gpu, 64 * 1024);
            let s = vecadd::run(gpu, &dev, 256)?;
            vecadd::verify(gpu, &dev);
            Ok(s)
        }),
    },
    Workload {
        name: "matmul",
        kernels: || vec![matmul::build_matmul_kernel()],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = matmul::setup(gpu, 64);
            let s = matmul::run(gpu, &dev)?;
            matmul::verify(gpu, &dev);
            Ok(s)
        }),
    },
    Workload {
        name: "reduce",
        kernels: || vec![reduce::build_reduce_kernel(256)],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = reduce::setup(gpu, 64 * 1024);
            let s = reduce::run(gpu, &dev, 256)?;
            assert_eq!(
                gpu.device().read_u32(dev.output),
                reduce::reference(64 * 1024)
            );
            Ok(s)
        }),
    },
    Workload {
        name: "spmv",
        kernels: || vec![spmv::build_spmv_kernel()],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let m = spmv::CsrMatrix::random(4096, 4096, 8, 5);
            let dev = spmv::setup(gpu, &m);
            let s = spmv::run(gpu, &dev, 128)?;
            spmv::verify(gpu, &dev, &m);
            Ok(s)
        }),
    },
    Workload {
        name: "stencil",
        kernels: || vec![stencil::build_stencil_kernel()],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = stencil::setup(gpu, 256, 256);
            let (s, result) = stencil::run(gpu, &dev, 2, 128)?;
            stencil::verify(gpu, &dev, result, 2);
            Ok(s)
        }),
    },
    Workload {
        name: "histogram",
        kernels: || vec![histogram::build_histogram_kernel()],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = histogram::setup(gpu, 64 * 1024, 256);
            let s = histogram::run(gpu, &dev, 256)?;
            histogram::verify(gpu, &dev);
            Ok(s)
        }),
    },
    Workload {
        name: "transpose",
        kernels: || vec![transpose::build_transpose_kernel(transpose::Variant::Tiled)],
        variants: || vec![transpose::build_transpose_kernel(transpose::Variant::Naive)],
        driver: Driver::Fixed(|gpu| {
            let dev = transpose::setup(gpu, 256);
            let s = transpose::run(gpu, &dev, transpose::Variant::Tiled)?;
            transpose::verify(gpu, &dev);
            Ok(s)
        }),
    },
    Workload {
        name: "scan",
        kernels: || vec![scan::build_scan_kernel(256)],
        variants: Vec::new,
        driver: Driver::Fixed(|gpu| {
            let dev = scan::setup(gpu, 64 * 1024);
            let s = scan::run(gpu, &dev, 256)?;
            scan::verify(gpu, &dev, 256);
            Ok(s)
        }),
    },
];

/// A row is its name: the table holds each name once.
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Workload {
    /// Every workload, BFS first.
    pub fn all() -> &'static [Workload] {
        &WORKLOADS
    }

    /// The BFS entry (experiments E2/E3).
    pub fn bfs() -> &'static Workload {
        &WORKLOADS[0]
    }

    /// The non-BFS comparison set of experiment E4.
    pub fn e4() -> &'static [Workload] {
        &WORKLOADS[1..]
    }

    /// Looks a workload up by its table name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether this workload runs under a checkpoint policy and continues
    /// from a restored machine.
    pub fn resumable(&self) -> bool {
        matches!(self.driver, Driver::Resumable(_))
    }

    /// The one run path: builds a machine from `config` — or, with
    /// `resume`, restores the newest checkpoint in that directory
    /// (`Ok(None)` when it holds none) — lets `prepare` flip the host-side
    /// switches a snapshot never carries (latency tracing),
    /// then sets the problem up, drives it under `policy` and verifies the
    /// device output against the host reference. `graph` is the E2 input;
    /// the fixed-size E4 entries do not read it.
    ///
    /// A plain run is this call under [`CheckpointPolicy::none`] with no
    /// `resume`.
    ///
    /// # Errors
    ///
    /// Propagates simulator, checkpoint-write and checkpoint-decode
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if the device output fails verification, or if a workload
    /// that is not [`resumable`](Self::resumable) is given a non-null
    /// `policy` or a `resume` directory.
    pub fn execute(
        &self,
        config: GpuConfig,
        graph: &BfsExperiment,
        policy: &CheckpointPolicy,
        resume: Option<&Path>,
        prepare: impl FnOnce(&mut Gpu),
    ) -> Result<Option<(Gpu, RunOutcome)>, SimError> {
        assert!(
            self.resumable() || (resume.is_none() && policy.is_none()),
            "workload {} is not resumable",
            self.name
        );
        let mut gpu = match resume {
            None => Gpu::new(config),
            Some(dir) => {
                let restored = Gpu::resume_latest(dir).map_err(|e| {
                    SimError::Checkpoint(format!("resume from {}: {e}", dir.display()))
                })?;
                match restored {
                    Some(gpu) => gpu,
                    None => return Ok(None),
                }
            }
        };
        prepare(&mut gpu);
        let outcome = match self.driver {
            Driver::Resumable(run) => run(&mut gpu, graph, policy, resume.is_some())?,
            Driver::Fixed(run) => RunOutcome::Completed(Box::new(run(&mut gpu)?)),
        };
        Ok(Some((gpu, outcome)))
    }
}

/// Every built-in kernel — each workload's launched kernels preceded by its
/// unlaunched variants (naive transpose, frontier BFS), E4 first and BFS
/// last: the set and order `latency lint` reports (`ci/lint-golden.txt`).
pub fn builtin_kernels() -> Vec<Kernel> {
    Workload::e4()
        .iter()
        .chain([Workload::bfs()])
        .flat_map(|w| (w.variants)().into_iter().chain((w.kernels)()))
        .collect()
}
