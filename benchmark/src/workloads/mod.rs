//! The four benchmark workloads. Each turns `--seed` into a fixed op list
//! at construction; the program under test only ever sees those inputs.

use std::path::Path;

use crate::runner::{PassArgs, Workload};

mod bfs_dynamic;
mod chase_sweep;
mod kernels_modern;
mod serve_warm;

/// Builds the workload `args` names (already validated by the runner).
pub fn build(args: &PassArgs, scratch: &Path) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "chase-sweep" => Box::new(chase_sweep::ChaseSweep::new(args.seed, args.quick)),
        "bfs-dynamic" => Box::new(bfs_dynamic::BfsDynamic::new(args.seed, args.quick)),
        "kernels-modern" => Box::new(kernels_modern::KernelsModern::new(args.seed, args.quick)),
        "serve-warm" => Box::new(serve_warm::ServeWarm::new(args.seed, args.quick, scratch)),
        other => unreachable!("runner admitted unknown workload {other:?}"),
    }
}
