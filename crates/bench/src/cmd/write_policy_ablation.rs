//! E8: L2 write-policy ablation. The workspace default models Fermi-style
//! write-through/write-evict stores; real GF100 L2s are write-back. This
//! ablation quantifies what the choice does to DRAM traffic and load
//! latency under BFS, whose level/mask stores are a large share of traffic.
//!
//! ```text
//! latency write_policy_ablation
//! ```

use gpu_sim::WritePolicy;
use latency_bench::{mean_and_p95, run_bfs_traced, BfsExperiment};
use latency_core::cli::or_exit;
use latency_core::{ArchPreset, LatencyBreakdown};

pub fn run() {
    let exp = BfsExperiment::default();
    println!("E8: L2 write-policy ablation, BFS on GF100\n");
    println!(
        "{:>14} {:>12} {:>16} {:>14}",
        "policy", "cycles", "mean fetch lat", "p95 fetch lat"
    );
    for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
        let mut cfg = ArchPreset::FermiGf100.config();
        cfg.l2.as_mut().expect("GF100 has an L2").write_policy = policy;
        let run = or_exit(
            run_bfs_traced(cfg, &exp),
            format_args!("{policy:?}: failed"),
        );
        let fetches = run.requests.iter();
        let (mean, p95) =
            mean_and_p95(fetches.filter_map(|r| r.timeline.total_latency()).collect());
        println!(
            "{:>14} {:>12} {:>16.1} {:>14}",
            format!("{policy:?}"),
            run.cycles,
            mean,
            p95
        );
        let (breakdown, _) = LatencyBreakdown::from_requests_clipped(&run.requests, 48, 0.99);
        let shares = breakdown.overall_percentages();
        println!(
            "{:>14}  QtoSch {:.1}%  SchToA {:.1}%  L1toICNT {:.1}%",
            "",
            shares[latency_core::Component::DramQToSch.index()],
            shares[latency_core::Component::DramSchToA.index()],
            shares[latency_core::Component::L1ToIcnt.index()],
        );
    }
    println!(
        "\nwrite-back absorbs BFS's store traffic in the L2, relieving the\n\
         DRAM arbitration pressure that write-through creates."
    );
}
