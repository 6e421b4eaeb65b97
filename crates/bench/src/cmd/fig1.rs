//! E2: regenerates the paper's **Figure 1** — breakdown of per-bucket
//! memory-fetch latency into pipeline stages for the BFS kernel on the
//! GF100 (Fermi) configuration.
//!
//! ```text
//! latency fig1
//! ```

use latency_bench::{run_bfs_traced, BfsExperiment};
use latency_core::cli::or_exit;
use latency_core::{ArchPreset, Component, LatencyBreakdown};

pub fn run() {
    let exp = BfsExperiment::default();
    println!("Figure 1: per-bucket memory fetch latency breakdown, BFS kernel");
    println!(
        "config: {}, graph: {} nodes, avg degree {}\n",
        ArchPreset::FermiGf100.name(),
        exp.nodes,
        exp.degree
    );
    let run = or_exit(
        run_bfs_traced(ArchPreset::FermiGf100.config(), &exp),
        "fig1 failed",
    );
    // Clip the top 1% congestion outliers so the bucket domain matches the
    // readable range of the paper's figure (their x-axis tops out at ~1800).
    let (breakdown, overflow) = LatencyBreakdown::from_requests_clipped(&run.requests, 48, 0.99);
    print!("{breakdown}");
    println!(
        "\ntraced fetches: {} (+{overflow} beyond the 99th percentile)   simulated cycles: {}",
        breakdown.total_requests(),
        run.cycles
    );
    println!("\noverall component shares:");
    for (c, share) in breakdown.ranked_components() {
        println!("  {:>12}: {share:>5.1}%", c.label());
    }
    let top: Vec<Component> = breakdown
        .ranked_components()
        .into_iter()
        .take(3)
        .map(|(c, _)| c)
        .collect();
    println!(
        "\npaper's observation: queueing (L1toICNT) and arbitration (DRAM QtoSch)\n\
         are key latency contributors; this run's top-3 components: {}",
        top.iter().map(|c| c.label()).collect::<Vec<_>>().join(", ")
    );
}
