//! The structure behind the paper's Table I: the generational trends, the
//! stride × footprint plateaus and Kepler's local-only L1. The table's cells
//! themselves are pinned exactly by `table1_golden`.

use latency_core::{
    detect_plateaus, measure_chase, measure_row, ArchPreset, ChaseParams, ChaseSpace, Sweep,
};

#[test]
fn latency_increases_across_generations_at_dram_level_from_kepler_on() {
    // The paper's §II: Maxwell's pipeline is slower than Kepler's at every
    // level, reversing the Fermi→Kepler improvement.
    let kepler = measure_row(ArchPreset::KeplerGk104).unwrap();
    let maxwell = measure_row(ArchPreset::MaxwellGm107).unwrap();
    assert!(maxwell.l2.unwrap() > kepler.l2.unwrap());
    assert!(maxwell.dram > kepler.dram);
}

#[test]
fn fermi_sweep_exposes_three_plateaus() {
    // Wong-et-al. methodology: sweep footprints across the cache capacities
    // and detect the latency plateaus mechanically.
    let cfg = ArchPreset::FermiGf106.config_microbench();
    let sweep = Sweep::run(
        &cfg,
        ChaseSpace::Global,
        &[
            4 * 1024,
            8 * 1024,
            48 * 1024,
            64 * 1024,
            512 * 1024,
            1024 * 1024,
        ],
        &[512],
    )
    .unwrap();
    let plateaus = detect_plateaus(&sweep.latencies(), 0.20);
    assert_eq!(
        plateaus.len(),
        3,
        "L1/L2/DRAM plateaus expected, got {plateaus:?}"
    );
    assert!((plateaus[0].latency - 45.0).abs() < 5.0, "{plateaus:?}");
    assert!((plateaus[1].latency - 310.0).abs() < 15.0, "{plateaus:?}");
    // At a 512 B stride, 3 of 4 consecutive ring accesses hit the open DRAM
    // row (2 KB rows), so this plateau sits below the full row-conflict
    // latency of 685 that Table I's large-stride operating point measures.
    assert!(
        (450.0..=700.0).contains(&plateaus[2].latency),
        "{plateaus:?}"
    );
}

#[test]
fn kepler_l1_serves_local_but_not_global() {
    // The Table-I footnote that motivates the paper's Kepler discussion:
    // identical 4 KB working sets measure L1 via local, L2 via global.
    let cfg = ArchPreset::KeplerGk104.config_microbench();
    let local = measure_chase(&cfg, &ChaseParams::local(4096, 128)).unwrap();
    let global = measure_chase(&cfg, &ChaseParams::global(4096, 128)).unwrap();
    assert!(
        (local.per_access - 30.0).abs() < 3.0,
        "local {}",
        local.per_access
    );
    assert!(
        (global.per_access - 175.0).abs() < 6.0,
        "global {}",
        global.per_access
    );
    assert!(global.per_access > 4.0 * local.per_access);
}

#[test]
fn tesla_latency_is_flat_across_footprints() {
    // Uncached global memory: every footprint measures DRAM.
    let cfg = ArchPreset::TeslaGt200.config_microbench();
    let sweep = Sweep::run(
        &cfg,
        ChaseSpace::Global,
        &[4 * 1024, 64 * 1024, 512 * 1024],
        &[512],
    )
    .unwrap();
    let plateaus = detect_plateaus(&sweep.latencies(), 0.10);
    assert_eq!(plateaus.len(), 1, "no caches, one plateau: {plateaus:?}");
}

#[test]
fn stride_below_line_size_changes_hit_rate_not_plateau() {
    // With a footprint inside the L1 every stride is a hit in steady state;
    // the measured latency must not depend on the stride.
    let cfg = ArchPreset::FermiGf106.config_microbench();
    let a = measure_chase(&cfg, &ChaseParams::global(4096, 128)).unwrap();
    let b = measure_chase(&cfg, &ChaseParams::global(4096, 256)).unwrap();
    assert!((a.per_access - b.per_access).abs() < 2.0);
}
