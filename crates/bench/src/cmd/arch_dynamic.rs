//! Cross-generation dynamic comparison: the same BFS on every modeled
//! architecture. The paper's §II shows *static* pipeline latency increased
//! over generations; this extension asks what the *dynamic* (loaded) load
//! latencies and exposure do across the same machines.
//!
//! ```text
//! latency arch_dynamic
//! ```

use latency_bench::{mean_and_p95, run_bfs_traced, BfsExperiment};
use latency_core::{ArchPreset, ExposureAnalysis};

pub fn run() {
    let exp = BfsExperiment {
        nodes: 8192,
        ..BfsExperiment::default()
    };
    println!(
        "BFS ({} nodes, degree {}) across GPU generations\n",
        exp.nodes, exp.degree
    );
    println!(
        "{:>18} {:>10} {:>12} {:>14} {:>10}",
        "arch", "cycles", "mean load", "p95 load", "exposed"
    );
    for preset in ArchPreset::ALL {
        let run = match run_bfs_traced(preset.config(), &exp) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{:>18}  failed: {e}", preset.name());
                continue;
            }
        };
        let (mean, p95) = mean_and_p95(run.loads.iter().map(|l| l.total()).collect());
        let exposure = ExposureAnalysis::from_loads(&run.loads, 24);
        println!(
            "{:>18} {:>10} {:>12.0} {:>14} {:>9.1}%",
            preset.name(),
            run.cycles,
            mean,
            p95,
            100.0 * exposure.overall_exposed_fraction()
        );
    }
    println!(
        "\nper-machine results are not normalized for SM/partition counts;\n\
         the interesting column is mean load latency, which tracks each\n\
         generation's pipeline depth and cache policy under load."
    );
}
