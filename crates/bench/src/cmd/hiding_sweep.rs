//! E6: how much latency can the machine actually hide? Exposed-latency
//! fraction of BFS as a function of warp slots per SM and scheduler policy
//! (the paper's conclusion: "GPUs are not as effective in latency hiding as
//! commonly thought").
//!
//! ```text
//! latency hiding_sweep
//! ```

use gpu_sim::SchedPolicy;
use latency_bench::{hiding_sweep, BfsExperiment};
use latency_core::cli::or_exit;
use latency_core::ArchPreset;

pub fn run() {
    let exp = BfsExperiment::default();
    println!("E6: exposed load-latency fraction vs thread-level parallelism\n");
    let points = hiding_sweep(
        ArchPreset::FermiGf100.config(),
        &exp,
        &[4, 8, 16, 32, 48],
        &[SchedPolicy::Lrr, SchedPolicy::Gto],
    );
    let points = or_exit(points, "sweep failed");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "warps/SM", "scheduler", "exposed", "cycles"
    );
    for p in &points {
        println!(
            "{:>10} {:>10} {:>13.1}% {:>12}",
            p.warps_per_sm,
            format!("{:?}", p.scheduler),
            100.0 * p.exposed_fraction,
            p.cycles
        );
    }
    println!(
        "\neven at full occupancy a large fraction of BFS load latency stays\n\
         exposed — latency, not just throughput, limits this workload."
    );
}
