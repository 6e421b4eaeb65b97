//! `--progress` reads `gpu_sim::cycles_simulated()`, which every run loop
//! keeps whether or not the self-profiler records: a running heartbeat sees
//! a run's cycles without switching the profiler on. One #[test] in its own
//! binary, because the cycle count is process-global state.

use gpu_sim::profile;
use latency_bench::{run_bfs_traced, BfsExperiment, ProgressHeartbeat};

#[test]
fn a_running_heartbeat_sees_the_cycles_move() {
    profile::set_enabled(false);
    let heartbeat = ProgressHeartbeat::start("test");
    let before = gpu_sim::cycles_simulated();
    let mut cfg = gpu_sim::GpuConfig::fermi_gf100();
    (cfg.num_sms, cfg.num_partitions) = (2, 2);
    let exp = BfsExperiment {
        nodes: 128,
        degree: 4,
        seed: 7,
        block_dim: 64,
    };
    let run = run_bfs_traced(cfg, &exp).expect("a small BFS runs");
    assert!(
        !profile::enabled(),
        "the heartbeat switched the profiler on"
    );
    let simulated = gpu_sim::cycles_simulated() - before;
    assert!(run.cycles > 0);
    assert_eq!(
        simulated, run.cycles,
        "cycles_simulated() moved by {simulated} over a {}-cycle run",
        run.cycles
    );
    drop(heartbeat);
    assert!(!profile::enabled(), "the profiler stays off");
}
