//! `--progress` reads the self-profiler's cycle counters, which count only
//! while the profiler records: a running heartbeat must switch it on (and
//! put it back when it stops), or every beat reads zero cycles. One #[test]
//! in its own binary, because the profiler is process-global state.

use gpu_sim::profile::{self, ProfCounter};
use latency_bench::{run_bfs_traced, BfsExperiment, ProgressHeartbeat};

#[test]
fn a_running_heartbeat_sees_the_cycles_move() {
    profile::set_enabled(false);
    let heartbeat = ProgressHeartbeat::start("test");
    let before = profile::value(ProfCounter::CyclesTicked);
    let mut cfg = gpu_sim::GpuConfig::fermi_gf100();
    (cfg.num_sms, cfg.num_partitions) = (2, 2);
    let exp = BfsExperiment {
        nodes: 128,
        degree: 4,
        seed: 7,
        block_dim: 64,
    };
    let run = run_bfs_traced(cfg, &exp).expect("a small BFS runs");
    let ticked = profile::value(ProfCounter::CyclesTicked) - before;
    assert!(
        ticked > 0 && ticked <= run.cycles,
        "{ticked} cycles ticked in a {}-cycle run",
        run.cycles
    );
    drop(heartbeat);
    assert!(!profile::enabled(), "the profiler is put back off");
}
