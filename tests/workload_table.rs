//! The workload table, tested as a table: every consumer that used to keep
//! its own list of workloads — the `trace` CLI, `lint`'s kernel set, the
//! static half of the differential validation — is now derived from
//! `gpu_workloads::Workload::all()`, so one loop over it checks them all.

use std::process::Command;

use gpu_sim::{CheckpointPolicy, GpuConfig, RunOutcome};
use gpu_workloads::{builtin_kernels, BfsExperiment, Workload};

fn small_gf100() -> GpuConfig {
    let mut c = GpuConfig::fermi_gf100();
    c.num_sms = 4;
    c.num_partitions = 2;
    c
}

const GRAPH: BfsExperiment = BfsExperiment {
    nodes: 512,
    degree: 6,
    seed: 20150301,
    block_dim: 64,
};

/// `latency trace --workload NAME` on the same machine and graph; returns
/// its stdout.
fn trace_cli(name: &str) -> String {
    let out_dir =
        std::env::temp_dir().join(format!("workload-table-{name}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_latency"))
        .args([
            "trace",
            "--workload",
            name,
            "--sms",
            "4",
            "--partitions",
            "2",
        ])
        .args(["--nodes", "512", "--degree", "6", "--block-dim", "64"])
        .args(["--max-events", "0", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn latency");
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(
        out.status.success(),
        "trace --workload {name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn every_entry_runs_verifies_and_launches_what_it_lists() {
    let mut names = Vec::new();
    for workload in Workload::all() {
        let name = workload.name;
        assert!(!names.contains(&name), "duplicate workload name {name}");
        names.push(name);

        let (gpu, outcome) = workload
            .execute(
                small_gf100(),
                &GRAPH,
                &CheckpointPolicy::none(),
                None,
                |_| {},
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .expect("a fresh run always starts");
        let RunOutcome::Completed(summary) = outcome else {
            panic!("{name}: the null policy killed the run");
        };
        assert_eq!(summary.sanitizer_violations, 0, "{name}");

        // What lint and validate_run analyze is what really ran.
        let listed: Vec<String> = (workload.kernels)()
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(gpu.launched_kernels(), listed, "{name}");

        // The CLI resolves the name to this entry: same run, same hash.
        let stdout = trace_cli(name);
        for needle in [
            format!("workload: {name} "),
            format!("cycles: {} ", summary.cycles),
            format!("content_hash: {:016x} ", summary.content_hash),
        ] {
            assert!(
                stdout.contains(&needle),
                "{name}: no {needle:?} in\n{stdout}"
            );
        }
    }
}

#[test]
fn only_resumable_entries_take_a_checkpoint_policy() {
    let resumable: Vec<&str> = Workload::all()
        .iter()
        .filter(|w| w.resumable())
        .map(|w| w.name)
        .collect();
    assert_eq!(resumable, ["bfs"]);
    assert!(Workload::e4().iter().all(|w| !w.resumable()));
}

#[test]
fn builtin_kernels_are_the_lint_golden_in_order() {
    let golden = include_str!("../ci/lint-golden.txt");
    // Report headers are the unindented `name: N error(s), …` lines.
    let reported: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with(' ') && l.contains(" error(s), "))
        .filter_map(|l| l.split_once(':').map(|(name, _)| name))
        .filter(|&name| name != "total")
        .collect();
    let built: Vec<String> = builtin_kernels()
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    assert_eq!(built, reported);
    assert_eq!(built.len(), 12);
}
