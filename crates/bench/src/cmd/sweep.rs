//! Full Wong-style stride × footprint sweep (the measurement grid behind
//! §II), plus mechanical parameter inference: plateaus, per-level
//! capacities, and the L1 line size.
//!
//! ```text
//! latency sweep [--preset NAME] [--threads N] [--cache DIR] [--json]
//! NAME: tesla | fermi | gf100 | kepler | gk110 | maxwell | …   (default
//!       fermi; chip names like gt200/gf106/gk104/gm107 also work)
//! ```
//!
//! `--threads N` forces the measurement pool to N workers (`--threads 1`
//! is fully serial); the printed grid is identical for every worker count.
//! `--cache DIR` stores every measured grid point content-addressed under
//! DIR (same as the `LATENCY_CACHE` environment variable): a repeated sweep
//! then completes from disk without simulating anything. `--json` prints
//! the grid as JSON instead of the human tables. The cold-vs-warm cache
//! benchmark of this grid is `latency bench --suites sweep`.

use gpu_mem::PipelineSpace;
use gpu_sim::LevelKind;
use gpu_trace::json::Writer;

use latency_core::cli::{Cursor, UsageError};
use latency_core::{
    cache_stats, detect_plateaus, infer_hierarchy, infer_line_size, ArchPreset, ChaseSpace, Sweep,
};

pub const FLAGS: &str = "[--preset NAME] [--threads N] [--cache DIR] [--json]";

/// Renders the measured grid as JSON (points, skipped combinations, and
/// this process's cache traffic).
fn grid_json(preset: ArchPreset, grid: &Sweep) -> String {
    let mut w = Writer::indented();
    w.object().field("preset", preset.name());
    w.key("points").array();
    for p in grid.points() {
        w.object().field("footprint", p.footprint);
        w.field("stride", p.stride);
        w.field("latency", p.latency).end();
    }
    w.end().key("skipped").array();
    for s in grid.skipped() {
        w.object().field("footprint", s.footprint);
        w.field("stride", s.stride);
        w.field("reason", s.reason.to_string()).end();
    }
    w.end().field("cache", cache_stats());
    w.finish()
}

pub fn run(preset: Option<ArchPreset>, args: &mut Cursor) -> Result<(), UsageError> {
    let mut json = false;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--json" => json = true,
            other => return Err(UsageError::unknown(other)),
        }
    }
    let preset = preset.unwrap_or(ArchPreset::FermiGf106);
    let cfg = preset.config_microbench();
    // One grid definition, in the suite, so `bench --suites sweep` measures
    // exactly this grid.
    let (footprints, strides) = latency_bench::sweep_grid_spec();
    if json {
        let grid = Sweep::run(&cfg, ChaseSpace::Global, &footprints, &strides).expect("sweep runs");
        print!("{}", grid_json(preset, &grid));
        return Ok(());
    }
    println!("stride x footprint sweep on {}\n", preset.name());

    // One batched run over the whole grid: every measurable point fans out
    // across the worker pool at once.
    let grid = Sweep::run(&cfg, ChaseSpace::Global, &footprints, &strides).expect("sweep runs");
    let cells: std::collections::HashMap<(u64, u64), f64> = grid
        .points()
        .iter()
        .map(|p| ((p.footprint, p.stride), p.latency))
        .collect();
    print!("{:>10}", "footprint");
    for s in strides {
        print!(" {s:>9}B");
    }
    println!("   (cycles per access)");
    for &f in &footprints {
        print!("{f:>10}");
        for &s in &strides {
            match cells.get(&(f, s)) {
                Some(lat) => print!(" {lat:>10.1}"),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }
    if grid.skipped_count() > 0 {
        println!(
            "({} of {} grid points skipped: chain shorter than 2 elements)",
            grid.skipped_count(),
            grid.points().len() + grid.skipped_count()
        );
    }

    // Mechanical inference over the 512 B column.
    let sweep = Sweep::run(&cfg, ChaseSpace::Global, &footprints, &[512]).expect("sweep runs");
    let plateaus = detect_plateaus(&sweep.latencies(), 0.20);
    println!("\nplateaus at stride 512 B:");
    for p in &plateaus {
        println!("  {p}");
    }

    println!("\ninferred hierarchy (capacity bisection):");
    match infer_hierarchy(&cfg, ChaseSpace::Global, 512, 1024, 512 * 1024) {
        Ok(levels) => {
            for l in levels {
                if l.capacity_hi == u64::MAX {
                    println!("  memory: ~{:.0} cycles", l.latency);
                } else {
                    println!(
                        "  cache: ~{:.0} cycles, capacity {} KiB (bracket {}..{})",
                        l.latency,
                        l.capacity() / 1024,
                        l.capacity_lo,
                        l.capacity_hi
                    );
                }
            }
        }
        Err(e) => eprintln!("  inference failed: {e}"),
    }

    if cfg.arch_desc().serves(LevelKind::L1, PipelineSpace::Global) {
        match infer_line_size(&cfg, 64 * 1024) {
            Ok(line) => println!("\ninferred L1 line size: {line} B"),
            Err(e) => eprintln!("line-size inference failed: {e}"),
        }
    }
    Ok(())
}
