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
//! 4. The span counts agree with the run's own idle counts
//!    (`TracedRun::idle`, which the experiment list pins): every stage ran
//!    once per cycle not jumped over, and on each of those cycles every SM
//!    and partition was either ticked in full (and metered) or asleep.
//!
//! One #[test] runs all four in sequence: the profiler is process-global
//! state, so parallel tests would race on the enabled flag.

use gpu_sim::profile::{self, ProfSpan};
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
    // 4. Every stage ran once per ticked cycle: the cycles the run did
    //    not jump over.
    let idle = on.idle;
    assert!(idle.skipped_cycles > 0, "no idle cycle was jumped over");
    let ticked = on.cycles - idle.skipped_cycles;
    for &stage in &ProfSpan::STAGES {
        assert_eq!(
            report.span(stage).count,
            ticked,
            "stage {} count != cycles - skipped_cycles",
            stage.label()
        );
    }
    // On every cycle every component was either ticked in full (and
    // metered) or left out (and only counted): asleep on a ticked cycle,
    // or jumped over.
    let machine = small_cfg();
    for (component, slept, count) in [
        (ProfSpan::SmTick, idle.sm_ticks_slept, machine.num_sms),
        (
            ProfSpan::PartitionTick,
            idle.partition_ticks_slept,
            machine.num_partitions,
        ),
    ] {
        assert!(slept > 0, "no {} ever slept", component.label());
        assert_eq!(
            report.span(component).count + slept,
            on.cycles * count as u64,
            "{}: full ticks + slept ticks != cycles x components",
            component.label()
        );
    }

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
    let mut chrome = Vec::new();
    bundle.write_chrome(&mut chrome).expect("written to memory");
    let chrome = String::from_utf8(chrome).expect("the writer emits UTF-8");
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
