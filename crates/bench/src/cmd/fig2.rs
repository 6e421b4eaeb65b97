//! E3: regenerates the paper's **Figure 2** — the fraction of global-memory
//! load latency that was *exposed* (not hidden by other work) during BFS on
//! the GF100 configuration.
//!
//! ```text
//! latency fig2
//! ```

use latency_bench::{run_bfs_traced, BfsExperiment};
use latency_core::cli::or_exit;
use latency_core::{ArchPreset, ExposureAnalysis};

pub fn run() {
    let exp = BfsExperiment::default();
    println!("Figure 2: exposed vs hidden global load latency, BFS kernel");
    println!(
        "config: {}, graph: {} nodes, avg degree {}\n",
        ArchPreset::FermiGf100.name(),
        exp.nodes,
        exp.degree
    );
    let run = or_exit(
        run_bfs_traced(ArchPreset::FermiGf100.config(), &exp),
        "fig2 failed",
    );
    let (analysis, overflow) = ExposureAnalysis::from_loads_clipped(&run.loads, 24, 0.99);
    print!("{analysis}");
    println!(
        "\nanalyzed loads: {} (+{overflow} beyond the 99th percentile)\noverall exposed fraction: {:.1}%",
        analysis.total_loads(),
        100.0 * analysis.overall_exposed_fraction()
    );
    println!(
        "loads in buckets with >50% exposure: {:.1}% (paper: \"more than 50%\n\
         for most of the global memory load instructions\")",
        100.0 * analysis.buckets_exceeding(0.5)
    );
}
