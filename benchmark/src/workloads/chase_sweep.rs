//! `chase-sweep`: the paper's §II static analysis with the chase cache
//! off. One warp on one SM walks a pointer chain, so nearly every simulated
//! cycle is quiescent and host time is the fixed per-cycle cost of
//! `Gpu::tick` plus a `Gpu::new` per run.
//!
//! Per preset (`gf106`, `gm107`, `gv100` microbench machines) a round
//! measures the `sweep_grid_spec()` footprint × stride grid restricted to
//! chains of 2–32 elements, one 2 MiB / 32 KiB-stride point that spills
//! every preset's L2, and three shuffled chains of seed-drawn length; then
//! detects plateaus and checks every level `REFERENCE_latencies.json`
//! publishes for the preset against its nearest plateau. Points go through
//! `latency_core::measure_chase` — what `Sweep::run_serial` calls per point
//! — because only it returns the simulated cycle counts.

use gpu_sim::GpuConfig;
use gpu_snapshot::StableHasher;
use gpu_types::Xoshiro256pp;
use latency_bench::{reference_rows, sweep_grid_spec};
use latency_core::{chase_key, detect_plateaus, measure_chase, ArchPreset, ChaseParams};

use crate::runner::{Op, Round, SimCounts, Traced, Workload};
use crate::schema::MetricSet;
use crate::spans::Recorder;
use crate::stats::median;

/// Longest chain kept from the grid: longer chains cost host seconds per
/// point and reach no level the short ones miss.
const MAX_CHAIN: u64 = 32;
/// Footprint and stride of the point whose 64 lines conflict in every
/// preset's L2, so it reads DRAM latency.
const SPILL_POINT: (u64, u64) = (2 << 20, 32 << 10);
/// Stride and longest chain of the seed's own row: at most 8 KiB, resident
/// in the first cache level of every preset, so the row costs the same
/// host time whatever lengths the seed draws.
const SHUFFLED_STRIDE: u64 = 512;
const SHUFFLED_MAX_CHAIN: u64 = 16;

struct PresetPlan {
    preset: ArchPreset,
    config: GpuConfig,
    points: Vec<ChaseParams>,
    /// `(label, published cycles)` of every level the reference publishes.
    levels: Vec<(&'static str, u64)>,
}

pub struct ChaseSweep {
    seed: u64,
    quick: bool,
    tolerance: f64,
    plans: Vec<PresetPlan>,
}

impl ChaseSweep {
    pub fn new(seed: u64, quick: bool) -> Self {
        ChaseSweep {
            seed,
            quick,
            tolerance: 0.0,
            plans: Vec::new(),
        }
    }

    fn points(&self) -> Vec<ChaseParams> {
        let (footprints, strides) = sweep_grid_spec();
        // --quick keeps the one stride whose short chains reach all three
        // levels of gf106.
        let strides: &[u64] = if self.quick { &strides[3..] } else { &strides };
        let mut points = Vec::new();
        for &footprint in &footprints {
            for &stride in strides {
                if (2..=MAX_CHAIN).contains(&(footprint / stride)) {
                    points.push(ChaseParams::global(footprint, stride));
                }
            }
        }
        if !self.quick {
            points.push(ChaseParams::global(SPILL_POINT.0, SPILL_POINT.1));
        }
        // The seed's own row: shuffled chains of seed-drawn length. Their
        // cold misses differ with the length, so the simulated cycles (and
        // the digest) follow the seed.
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        for _ in 0..if self.quick { 1 } else { 3 } {
            let chain = rng.gen_range_u64(2, SHUFFLED_MAX_CHAIN + 1);
            points.push(ChaseParams::global_shuffled(
                chain * SHUFFLED_STRIDE,
                SHUFFLED_STRIDE,
                self.seed,
            ));
        }
        points
    }
}

impl Workload for ChaseSweep {
    /// Set-up is microseconds of work here; many repetitions keep its
    /// median steady.
    fn setup_reps(&self) -> usize {
        32
    }

    /// Loads the published reference and lowers the presets to simulator
    /// configs: what a sweep needs before its first point.
    fn setup(&mut self, rec: &mut Recorder) {
        let span = rec.begin("core.plan_sweep");
        let (tolerance_percent, rows) = reference_rows().expect("committed reference table parses");
        self.tolerance = tolerance_percent / 100.0;
        let presets: &[ArchPreset] = if self.quick {
            &[ArchPreset::FermiGf106]
        } else {
            &[
                ArchPreset::FermiGf106,
                ArchPreset::MaxwellGm107,
                ArchPreset::VoltaGv100,
            ]
        };
        let points = self.points();
        self.plans = presets
            .iter()
            .map(|&preset| {
                let row = rows
                    .iter()
                    .find(|r| r.token == preset.token())
                    .expect("every benchmark preset has a published row");
                let levels = [("L1", row.l1), ("L2", row.l2), ("DRAM", Some(row.dram))]
                    .into_iter()
                    .filter_map(|(label, cycles)| Some((label, cycles?)))
                    .collect();
                PresetPlan {
                    preset,
                    config: preset.config_microbench(),
                    points: points.clone(),
                    levels,
                }
            })
            .collect();
        rec.end(span);
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let mut digest = StableHasher::new();
        let mut counts = SimCounts::default();
        for plan in &self.plans {
            let mut latencies = Vec::with_capacity(plan.points.len());
            for params in &plan.points {
                rec.next_op();
                let span = rec.begin("core.measure_chase");
                let before = rec.sim_before();
                let armed = crate::alloc::arm();
                let measured = measure_chase(&plan.config, params);
                drop(armed);
                rec.sim_children(before);
                let ms = rec.end(span) * 1e3;
                let mut op = Op {
                    ms,
                    ..Op::default()
                };
                if let Ok(m) = measured {
                    op.cycles = m.cycles_short + m.cycles_long;
                    // The long run issues `accesses` dependent loads, the
                    // short run half as many.
                    op.instrs = m.accesses + m.accesses / 2;
                    op.ok = m.per_access.is_finite()
                        && m.per_access > 0.0
                        && m.cycles_long > m.cycles_short;
                    // The cache key stands in for the `content_hash` a
                    // chase does not return: it covers the machine and the
                    // whole of `params`, shuffle seed included.
                    digest.u64(chase_key(&plan.config, params));
                    digest.u64(m.per_access.to_bits());
                    digest.u64(op.cycles);
                    digest.u64(op.instrs);
                    counts.add_chase(op.cycles, op.instrs, &plan.config);
                    latencies.push(m.per_access);
                }
                round.ops.push(op);
            }
            let span = rec.begin("core.detect_plateaus");
            let plateaus = detect_plateaus(&latencies, self.tolerance);
            rec.end(span);
            for &(label, published) in &plan.levels {
                let error = plateaus
                    .iter()
                    .map(|p| (p.latency - published as f64).abs() / published as f64)
                    .fold(f64::INFINITY, f64::min);
                round.checks.0 += 1;
                if error > self.tolerance {
                    round.checks.1 += 1;
                    eprintln!(
                        "chase-sweep: {} {label}: no plateau within {:.1}% of the published \
                         {published} cycles (nearest is {:.2}% off)",
                        plan.preset.token(),
                        self.tolerance * 100.0,
                        error * 100.0
                    );
                }
            }
        }
        round.digest = digest.finish();
        round.counts = counts.into_counts();
        round
    }

    fn machine(&self) -> GpuConfig {
        ArchPreset::FermiGf106.config_microbench()
    }

    fn layer_metrics(&self, traced: &Traced, out: &mut MetricSet) {
        out.set("core.chase_point_ms_p50", median(traced.best_ms));
    }
}
