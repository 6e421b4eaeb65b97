//! Kill-and-resume determinism: a BFS traversal killed at an arbitrary
//! cycle and resumed from its newest checkpoint must finish bit-identical
//! to an uninterrupted traversal — same `RunSummary` (including the
//! content hash and sanitizer-violation count), same cost array, same
//! trace-event bookkeeping. Kill cycles are drawn from the workspace's
//! hermetic RNG so the test is randomized yet reproducible.

use std::path::{Path, PathBuf};

use gpu_sim::{CheckpointPolicy, Gpu, GpuConfig, MetricsReport, RunSummary};
use gpu_types::rng::Rng;
use gpu_workloads::bfs::{
    read_costs, resume_bfs_mask, run_bfs_mask_checkpointed, upload_graph_mask, BfsMaskOutcome,
};
use gpu_workloads::Graph;

const CKPT_EVERY: u64 = 512;
const SOURCE: u32 = 0;
const BLOCK_DIM: u32 = 128;

fn small_config() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = 32;
    cfg
}

fn test_graph() -> Graph {
    Graph::uniform_random(600, 6, 20150301)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfs-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

struct Finished {
    summary: RunSummary,
    costs: Vec<u32>,
    levels_run: u32,
    total_cycles: u64,
}

/// One full traversal under `policy`; panics if the kill switch fires.
fn run_to_completion(graph: &Graph, policy: &CheckpointPolicy) -> Finished {
    let mut gpu = Gpu::new(small_config());
    let dev = upload_graph_mask(&mut gpu, graph);
    match run_bfs_mask_checkpointed(&mut gpu, &dev, SOURCE, BLOCK_DIM, policy)
        .expect("traversal runs")
    {
        BfsMaskOutcome::Completed(run) => Finished {
            summary: gpu.summary(),
            costs: read_costs(&gpu, &dev),
            levels_run: run.levels_run,
            total_cycles: run.total_cycles,
        },
        BfsMaskOutcome::Killed { at } => panic!("unexpected kill at cycle {at}"),
    }
}

/// Starts a traversal with a deterministic kill at `kill_at`, then resumes
/// it from the newest checkpoint and drives it to completion.
fn run_killed_and_resumed(graph: &Graph, dir: &Path, kill_at: u64) -> Finished {
    let mut policy = CheckpointPolicy::new(CKPT_EVERY, dir.to_path_buf());
    policy.kill_at = Some(kill_at);
    let mut gpu = Gpu::new(small_config());
    let dev = upload_graph_mask(&mut gpu, graph);
    match run_bfs_mask_checkpointed(&mut gpu, &dev, SOURCE, BLOCK_DIM, &policy)
        .expect("killed traversal runs")
    {
        BfsMaskOutcome::Killed { at } => assert_eq!(at, kill_at, "kill switch fires on cue"),
        BfsMaskOutcome::Completed(_) => panic!("kill at {kill_at} never fired"),
    }
    drop(gpu); // the simulator is gone; only the checkpoint survives

    let mut resumed = Gpu::resume_latest(dir)
        .expect("checkpoint reads back")
        .expect("a checkpoint exists before the kill cycle");
    assert!(
        resumed.now().get() <= kill_at,
        "resume point must not be past the kill"
    );
    let resume_policy = CheckpointPolicy::new(CKPT_EVERY, dir.to_path_buf());
    match resume_bfs_mask(&mut resumed, &resume_policy).expect("resumed traversal runs") {
        BfsMaskOutcome::Completed(run) => {
            let dev = gpu_workloads::bfs::peek_mask_tag(resumed.host_tag())
                .expect("checkpoint carries the BFS tag");
            Finished {
                summary: resumed.summary(),
                costs: read_costs(&resumed, &dev),
                levels_run: run.levels_run,
                total_cycles: run.total_cycles,
            }
        }
        BfsMaskOutcome::Killed { at } => panic!("resume must not kill again (cycle {at})"),
    }
}

/// The only field allowed to differ is host wall-clock time.
fn assert_identical(a: &Finished, b: &Finished, what: &str) {
    let normalized = RunSummary {
        metrics: MetricsReport {
            host_nanos: a.summary.metrics.host_nanos,
            ..b.summary.metrics
        },
        ..b.summary
    };
    assert_eq!(a.summary, normalized, "{what}: summaries diverge");
    assert_eq!(a.costs, b.costs, "{what}: BFS cost arrays diverge");
    assert_eq!(a.levels_run, b.levels_run, "{what}: level counts diverge");
    assert_eq!(
        a.total_cycles, b.total_cycles,
        "{what}: cycle counts diverge"
    );
    assert_eq!(
        a.summary.content_hash, b.summary.content_hash,
        "{what}: content hashes diverge"
    );
    assert_eq!(
        a.summary.sanitizer_violations, b.summary.sanitizer_violations,
        "{what}: sanitizer verdicts diverge"
    );
}

#[test]
fn resumed_bfs_is_cycle_identical_at_random_kill_cycles() {
    let graph = test_graph();

    // Uninterrupted baseline under the same checkpoint cadence, so the
    // Checkpoint trace events line up with the killed runs'.
    let base_dir = temp_dir("base");
    let baseline = run_to_completion(&graph, &CheckpointPolicy::new(CKPT_EVERY, base_dir.clone()));
    assert!(
        baseline.summary.cycles > 4 * CKPT_EVERY,
        "run long enough to checkpoint"
    );
    assert_eq!(baseline.summary.sanitizer_violations, 0);
    assert_eq!(
        baseline.costs,
        graph.bfs_levels(SOURCE),
        "BFS answer is correct"
    );
    std::fs::remove_dir_all(&base_dir).ok();

    // Hermetic RNG: same seed, same kill cycles, every run of this test.
    let mut rng = Rng::seed_from_u64(0x5eed_cafe);
    for round in 0..3 {
        // Land strictly after the first checkpoint and before the drain.
        let span = baseline.total_cycles - CKPT_EVERY - 2;
        let kill_at = CKPT_EVERY + 1 + rng.next_u64() % span;
        let dir = temp_dir(&format!("kill{round}"));
        let resumed = run_killed_and_resumed(&graph, &dir, kill_at);
        assert_identical(&baseline, &resumed, &format!("kill at cycle {kill_at}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_mid_checkpoint_interval_replays_the_gap() {
    // A kill one cycle after a checkpoint forces the resumed run to replay
    // almost a full interval; a kill one cycle before the next checkpoint
    // replays almost nothing. Both must converge to the same answer.
    let graph = test_graph();
    let base_dir = temp_dir("gap-base");
    let baseline = run_to_completion(&graph, &CheckpointPolicy::new(CKPT_EVERY, base_dir.clone()));
    std::fs::remove_dir_all(&base_dir).ok();

    for (tag, kill_at) in [
        ("just-after", 2 * CKPT_EVERY + 1),
        ("just-before", 3 * CKPT_EVERY - 1),
    ] {
        let dir = temp_dir(tag);
        let resumed = run_killed_and_resumed(&graph, &dir, kill_at);
        assert_identical(&baseline, &resumed, tag);
        std::fs::remove_dir_all(&dir).ok();
    }
}
