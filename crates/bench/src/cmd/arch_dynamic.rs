//! Cross-generation dynamic comparison: the same BFS on every modeled
//! architecture. The paper's §II shows *static* pipeline latency increased
//! over generations; this extension asks what the *dynamic* (loaded) load
//! latencies and exposure do across the same machines.
//!
//! ```text
//! latency arch_dynamic
//! ```

use latency_bench::{run_bfs_traced, BfsExperiment};
use latency_core::{ArchPreset, ExposureAnalysis};

pub fn run() {
    let exp = BfsExperiment {
        nodes: 8192,
        degree: 8,
        seed: 20150301,
        block_dim: 128,
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
        let mut lat: Vec<u64> = run.loads.iter().map(|l| l.total()).collect();
        lat.sort_unstable();
        let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
        let p95 = lat.get(lat.len() * 95 / 100).copied().unwrap_or(0);
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
