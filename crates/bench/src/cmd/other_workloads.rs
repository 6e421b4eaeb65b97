//! E4: the paper's §III remark that "other workloads similarly showed
//! queueing and arbitration as the two key latency contributors" — the
//! Figure-1 analysis repeated for vecadd, matmul, reduce and spmv.
//!
//! ```text
//! latency other_workloads
//! ```

use latency_bench::{run_workload_traced, Workload};
use latency_core::{ArchPreset, Component, ExposureAnalysis, LatencyBreakdown};

pub fn run() {
    println!("E4: latency component shares per workload (GF100 config)\n");
    print!("{:>8}", "workload");
    for c in Component::ALL {
        print!(" {:>12}", c.label());
    }
    println!(" {:>9}", "exposed");
    for w in Workload::e4() {
        let run = match run_workload_traced(ArchPreset::FermiGf100.config(), w) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: failed: {e}", w.name);
                continue;
            }
        };
        let breakdown = LatencyBreakdown::from_requests(&run.requests, 48);
        let shares = breakdown.overall_percentages();
        let exposure = ExposureAnalysis::from_loads(&run.loads, 24);
        print!("{:>8}", w.name);
        for c in Component::ALL {
            print!(" {:>11.1}%", shares[c.index()]);
        }
        println!(" {:>8.1}%", 100.0 * exposure.overall_exposed_fraction());
    }
    println!(
        "\nqueueing components: L1toICNT (miss queue / injection), ICNTtoROP;\n\
         arbitration component: DRAM(QtoSch)."
    );
}
