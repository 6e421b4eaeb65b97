//! The self-profiler's observer guarantees, end to end:
//!
//! 1. Profiling is invisible to the simulation — the same workload produces
//!    a bit-identical `content_hash` (and cycle count) with profiling off
//!    and on.
//! 2. The per-stage host times are a real decomposition — the nine stage
//!    spans (plus the drain check) sum to the `run` span's wall clock
//!    within slack, because consecutive stage deltas tile the tick loop.
//! 3. The exported trace bundle carries the host-clock profile as flame
//!    slices, and its process/counter tracks are named from the `ArchDesc`
//!    the run used.
//! 4. The run's own idle counts (`TracedRun::idle`, which the experiment
//!    list pins) are the profiler's idle counters for that run.
//! 5. The issue stage's walk is counted: at least one warp examined per
//!    instruction issued, fewer than a scan of every slot per SM tick.
//!
//! One #[test] runs all five in sequence: the profiler is process-global
//! state, so parallel tests would race on the enabled flag.

use gpu_sim::profile::{self, ProfCounter, ProfSpan};
use latency_bench::{run_bfs_traced, track_names_for, BfsExperiment, TraceBundle};
use latency_core::ArchPreset;

fn small_cfg() -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    cfg
}

fn small_exp() -> BfsExperiment {
    BfsExperiment {
        nodes: 256,
        degree: 4,
        seed: 20150301,
        block_dim: 64,
    }
}

#[test]
fn profiling_is_invisible_and_stage_times_tile_the_run() {
    // --- Off: the reference run. ---
    profile::set_enabled(false);
    let off = run_bfs_traced(small_cfg(), &small_exp()).expect("unprofiled run");

    // --- On: same workload under the profiler. ---
    profile::set_enabled(true);
    profile::reset();
    let on = run_bfs_traced(small_cfg(), &small_exp()).expect("profiled run");
    let report = profile::report();
    profile::set_enabled(false);

    // 1. Bit-identical simulation either way.
    assert_eq!(
        off.content_hash, on.content_hash,
        "profiling changed the simulation's content_hash"
    );
    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.instructions, on.instructions);

    // 2. The stage decomposition accounts for the run's host time: the
    //    stage deltas tile the tick loop, so stages + drain checks must
    //    recover most of the `run` span and never (much) exceed it. Wide
    //    slack: this asserts accounting, not speed, and CI hosts are noisy.
    let run_nanos = report.span(ProfSpan::Run).nanos;
    let accounted = report.stage_nanos_sum() + report.span(ProfSpan::DrainCheck).nanos;
    assert!(run_nanos > 0, "run span never measured");
    assert!(
        accounted as f64 >= run_nanos as f64 * 0.5,
        "stages + drain = {accounted}ns account for under half of run = {run_nanos}ns"
    );
    assert!(
        accounted as f64 <= run_nanos as f64 * 1.10,
        "stages + drain = {accounted}ns exceed run = {run_nanos}ns beyond clock slack"
    );
    // Every stage ticked as many times as the machine did.
    let ticked = report.counter(ProfCounter::CyclesTicked);
    for &stage in &ProfSpan::STAGES {
        assert_eq!(
            report.span(stage).count,
            ticked,
            "stage {} count != cycles ticked",
            stage.label()
        );
    }
    // Every simulated cycle was either ticked or jumped over, and the jump
    // counters say how the idle ones were covered.
    let skipped = report.counter(ProfCounter::CyclesSkipped);
    let jumps = report.counter(ProfCounter::IdleJumps);
    assert_eq!(ticked + skipped, on.cycles, "ticked + skipped != cycles");
    assert!(
        jumps > 0 && skipped >= jumps,
        "{jumps} jumps skipped {skipped}"
    );
    // 4. The GPU kept the profiler's three idle counts for itself.
    use ProfCounter::{CyclesSkipped, PartitionTicksSlept, SmTicksSlept};
    let profiled = [CyclesSkipped, SmTicksSlept, PartitionTicksSlept].map(|c| report.counter(c));
    let idle = on.idle;
    let kept = [
        idle.skipped_cycles,
        idle.sm_ticks_slept,
        idle.partition_ticks_slept,
    ];
    assert_eq!(
        kept, profiled,
        "the GPU's idle counts are not the profiler's"
    );

    // On a ticked cycle every component was either ticked in full (and
    // metered) or asleep (and only counted).
    let machine = small_cfg();
    for (component, slept, count) in [
        (ProfSpan::SmTick, ProfCounter::SmTicksSlept, machine.num_sms),
        (
            ProfSpan::PartitionTick,
            ProfCounter::PartitionTicksSlept,
            machine.num_partitions,
        ),
    ] {
        let slept = report.counter(slept);
        assert!(slept > 0, "no {} ever slept", component.label());
        assert_eq!(
            report.span(component).count + slept,
            ticked * count as u64,
            "{}: full ticks + slept ticks != cycles ticked x components",
            component.label()
        );
    }

    // 5. The scheduler's walk: each issued instruction is a warp the issue
    //    stage looked at, and all told it looked at fewer warps than one
    //    scan of every slot per full SM tick would have.
    let examined = report.counter(ProfCounter::IssueWarpsExamined);
    let sm_ticks = report.span(ProfSpan::SmTick).count;
    assert!(
        examined >= on.instructions,
        "{examined} warps examined for {} issues",
        on.instructions
    );
    assert!(
        examined < sm_ticks * machine.max_warps_per_sm as u64,
        "{examined} warps examined over {sm_ticks} SM ticks"
    );

    // The machine-readable report is valid JSON with the same numbers.
    let report_doc = gpu_trace::json::parse(&report.json()).expect("profile.json parses");
    assert_eq!(
        report_doc
            .get("total_nanos")
            .and_then(|v| v.as_num())
            .map(|n| n as u64),
        Some(report.total_nanos)
    );

    // 3. The bundle's Chrome trace carries ArchDesc-named simulated tracks
    //    and the host-clock profile's flame slices side by side.
    let cfg = small_cfg();
    let bundle = TraceBundle {
        run: &on,
        num_sms: cfg.num_sms as u32,
        num_partitions: cfg.num_partitions as u32,
        track_names: track_names_for(&cfg),
        profile: Some(report.clone()),
    };
    let chrome = bundle.chrome_json();
    gpu_trace::json::parse(&chrome).expect("trace.json parses");
    let desc_name = cfg.arch_desc().name;
    assert!(
        chrome.contains(&format!("{desc_name} SMs")),
        "SM process not named from ArchDesc"
    );
    assert!(
        chrome.contains(&format!("Host self-profile ({desc_name})")),
        "host profile process not named from ArchDesc"
    );
    assert!(
        chrome.contains("\"run/tick_sms\""),
        "missing host-clock per-stage flame slice"
    );
}
