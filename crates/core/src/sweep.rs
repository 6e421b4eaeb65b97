//! Stride × footprint sweeps over the chase microbenchmark (the measurement
//! grid of the paper's §II and of Wong et al.'s methodology).
//!
//! The grid points are independent simulations, so [`Sweep::run`] fans them
//! out over the [`crate::parallel`] work pool; at one worker the pool is a
//! plain serial loop, and every worker count must match it bit-for-bit
//! (covered by `tests/parallel_equivalence.rs`).

use std::fmt;

use gpu_sim::GpuConfig;

use crate::chase::{measure_chase, ChaseError, ChaseParams, ChasePattern, ChaseSpace};
use crate::parallel;

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Working-set size in bytes.
    pub footprint: u64,
    /// Stride in bytes.
    pub stride: u64,
    /// Measured steady-state per-access latency.
    pub latency: f64,
}

/// Why a requested grid combination was not measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Fewer than two chain elements (`footprint / stride < 2`): the ring
    /// cannot exercise the intended level.
    ChainTooShort,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::ChainTooShort => write!(f, "chain shorter than 2 elements"),
        }
    }
}

/// A grid combination the sweep did not measure, and why — recorded so
/// reports can state actual coverage instead of implying the full cartesian
/// grid ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Requested working-set size in bytes.
    pub footprint: u64,
    /// Requested stride in bytes.
    pub stride: u64,
    /// Why the point was skipped.
    pub reason: SkipReason,
}

/// Results of a stride × footprint sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    points: Vec<SweepPoint>,
    skipped: Vec<SkippedPoint>,
}

impl Sweep {
    /// Runs the chase for the cartesian product of `footprints` ×
    /// `strides` on `config`, recording (not silently dropping) the
    /// combinations with fewer than two chain elements. Grid points are
    /// distributed over the [`crate::parallel`] pool; results are gathered
    /// in grid order, so the output is identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates the grid-order-first [`ChaseError`] (typically a
    /// simulator timeout), whatever the worker count.
    pub fn run(
        config: &GpuConfig,
        space: ChaseSpace,
        footprints: &[u64],
        strides: &[u64],
    ) -> Result<Self, ChaseError> {
        // Measurable points in footprint-major order, and the rest.
        let mut grid = Vec::new();
        let mut skipped = Vec::new();
        for &footprint in footprints {
            for &stride in strides {
                if footprint / stride < 2 {
                    skipped.push(SkippedPoint {
                        footprint,
                        stride,
                        reason: SkipReason::ChainTooShort,
                    });
                } else {
                    grid.push((footprint, stride));
                }
            }
        }
        let points = parallel::try_par_map(&grid, |_, &(footprint, stride)| {
            let params = ChaseParams {
                footprint,
                stride,
                space,
                pattern: ChasePattern::Sequential,
            };
            measure_chase(config, &params).map(|m| SweepPoint {
                footprint,
                stride,
                latency: m.per_access,
            })
        })?;
        Ok(Sweep { points, skipped })
    }

    /// All samples.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Requested grid combinations that were not measured, with reasons.
    pub fn skipped(&self) -> &[SkippedPoint] {
        &self.skipped
    }

    /// Number of requested combinations that were not measured.
    pub fn skipped_count(&self) -> usize {
        self.skipped.len()
    }

    /// Coverage of the requested grid: measured / (measured + skipped).
    /// An empty request counts as fully covered.
    pub fn coverage(&self) -> f64 {
        let total = self.points.len() + self.skipped.len();
        if total == 0 {
            1.0
        } else {
            self.points.len() as f64 / total as f64
        }
    }

    /// Latencies of all samples.
    pub fn latencies(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.latency).collect()
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>12} {:>8} {:>10}", "footprint", "stride", "latency")?;
        for p in &self.points {
            writeln!(f, "{:>12} {:>8} {:>10.1}", p.footprint, p.stride, p.latency)?;
        }
        if !self.skipped.is_empty() {
            writeln!(
                f,
                "coverage: {}/{} grid points measured ({} skipped: {})",
                self.points.len(),
                self.points.len() + self.skipped.len(),
                self.skipped.len(),
                self.skipped[0].reason
            )?;
        }
        Ok(())
    }
}

/// Geometric series of power-of-two values from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics if `lo` is zero or greater than `hi`.
pub fn pow2_range(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo > 0 && lo <= hi, "need 0 < lo <= hi");
    let mut v = Vec::new();
    let mut x = lo.next_power_of_two();
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_range_is_inclusive() {
        assert_eq!(pow2_range(1024, 8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(pow2_range(1000, 1024), vec![1024]);
        assert_eq!(pow2_range(1, 1), vec![1]);
    }

    #[test]
    #[should_panic(expected = "need 0 < lo <= hi")]
    fn pow2_range_rejects_inverted() {
        let _ = pow2_range(16, 8);
    }

    #[test]
    fn sweep_records_degenerate_and_sorts() {
        // Build a tiny synthetic sweep via the real harness on a fast config.
        let cfg = crate::ArchPreset::FermiGf106.config_microbench();
        let s = Sweep::run(&cfg, ChaseSpace::Global, &[1024, 4096], &[512, 2048]).unwrap();
        // (1024, 2048) is degenerate (count < 2): skipped, but recorded.
        assert_eq!(s.points().len(), 3);
        assert_eq!(s.skipped_count(), 1);
        assert_eq!(
            s.skipped(),
            &[SkippedPoint {
                footprint: 1024,
                stride: 2048,
                reason: SkipReason::ChainTooShort,
            }]
        );
        assert!((s.coverage() - 0.75).abs() < 1e-12);
        // Measured points come back in footprint-major grid order.
        let order: Vec<(u64, u64)> = s.points().iter().map(|p| (p.footprint, p.stride)).collect();
        assert_eq!(order, [(1024, 512), (4096, 512), (4096, 2048)]);
        assert!(s.latencies().iter().all(|&l| l > 0.0));
        let text = s.to_string();
        assert!(text.contains("footprint"));
        assert!(text.contains("coverage: 3/4"), "{text}");
    }

    #[test]
    fn full_grid_reports_full_coverage() {
        let cfg = crate::ArchPreset::FermiGf106.config_microbench();
        let s = Sweep::run(&cfg, ChaseSpace::Global, &[4096], &[128]).unwrap();
        assert_eq!(s.skipped_count(), 0);
        assert!((s.coverage() - 1.0).abs() < 1e-12);
        assert!(!s.to_string().contains("coverage:"));
    }

    #[test]
    fn empty_sweep_is_fully_covered() {
        let s = Sweep::default();
        assert!((s.coverage() - 1.0).abs() < 1e-12);
    }
}
