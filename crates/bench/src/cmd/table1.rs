//! E1: regenerates the paper's **Table I** — static latencies of the
//! global/local memory pipeline across four GPU generations.
//!
//! ```text
//! latency table1 [--threads N] [--preset NAME]...
//! ```
//!
//! `--threads N` forces the measurement pool to N workers (`--threads 1`
//! is fully serial); the printed table is identical for every worker count.
//! `--preset NAME` (repeatable) restricts the table to the named
//! architectures — any registered preset works, including ones outside the
//! paper's four Table I columns (e.g. `gk110`) — which is how the CI matrix
//! measures one generation per job.

use latency_bench::run_table1;
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::{ArchPreset, Table1};

pub const FLAGS: &str = "[--threads N] [--preset NAME]...";

pub fn run(presets: &[ArchPreset], args: &mut Cursor) -> Result<(), UsageError> {
    args.finish()?;
    println!("Table I: latencies of memory loads through the global memory");
    println!("pipeline over four generations of NVIDIA GPUs (cycles)\n");
    let result = if presets.is_empty() {
        run_table1()
    } else {
        Table1::measure_presets(presets)
    };
    let table = or_exit(result, "table1 failed");
    print!("{table}");
    println!(
        "\nmax relative error vs. paper: {:.2}%",
        100.0 * table.max_rel_error()
    );
    Ok(())
}
