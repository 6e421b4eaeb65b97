//! E7: idle vs. loaded latency — the bridge between the paper's static
//! (Table I) and dynamic (Figures 1–2) analyses. A single pointer-chasing
//! thread measures the global pipeline while streamer CTAs apply increasing
//! bandwidth pressure; the inflation is pure queueing and arbitration.
//!
//! ```text
//! latency loaded_latency
//! ```

use latency_core::cli::or_exit;
use latency_core::{measure_chase_under_load, ArchPreset, ChaseParams};

pub fn run() {
    let cfg = ArchPreset::FermiGf100.config();
    // DRAM-resident chase on the full 15-SM machine (2 MiB ring: beyond the
    // 768 KiB aggregate L2, small enough to keep the sweep quick).
    let params = ChaseParams::global(2 * 1024 * 1024, 4096);
    println!("E7: chase latency vs interference, {}\n", cfg.name);
    println!("{:>14} {:>18}", "streamer CTAs", "cycles/access");
    let mut base = None;
    for ctas in [0u32, 8, 32, 96] {
        let lat = or_exit(
            measure_chase_under_load(&cfg, &params, ctas),
            format_args!("{ctas:>14} failed"),
        );
        let b = *base.get_or_insert(lat);
        println!("{ctas:>14} {lat:>18.1}   ({:.2}x idle)", lat / b);
    }
    println!(
        "\nthe idle latency of Table I is a lower bound; under load the same\n\
         access inflates through queueing and DRAM arbitration — the dynamic\n\
         components of Figure 1."
    );
}
