//! Reproduction harness for the paper's **Table I**: global-memory pipeline
//! latencies (L1 / L2 / DRAM) across GPU generations.
//!
//! For each architecture preset, three chase operating points are derived
//! from the preset's own cache capacities:
//!
//! - **L1 point**: footprint ≤ ¼ of the L1, line-sized stride → steady-state
//!   L1 hits (through *local* memory on Kepler, whose L1 is local-only).
//! - **L2 point**: footprint ≥ 8× the L1 but ≤ ½ of one L2 slice,
//!   512 B stride → every access misses L1, hits L2.
//! - **DRAM point**: footprint 4× the L2 slice, 4 KiB stride → every access
//!   misses both caches.
//!
//! The table itself is two rows of `latency-bench`'s experiment list
//! (`table1` and `validate`), which plan these points once; [`measure_row`]
//! is the one-preset library call over the same points.

use gpu_sim::{ArchDesc, LevelKind};

use crate::chase::{measure_chase, ChaseError, ChaseParams};
use crate::parallel;
use crate::presets::ArchPreset;
use crate::reference::ReferenceRow;

/// Measured latencies for one architecture (same shape as the published
/// [`ReferenceRow`], but with fractional cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRow {
    /// Measured L1 hit latency (absent if the preset has no L1).
    pub l1: Option<f64>,
    /// Measured L2 hit latency (absent if the preset has no L2).
    pub l2: Option<f64>,
    /// Measured DRAM latency.
    pub dram: f64,
}

impl MeasuredRow {
    /// Assembles a row from its measured `(level, latency)` points.
    ///
    /// # Panics
    ///
    /// Panics without a DRAM point: every description has one.
    pub fn from_points(points: impl IntoIterator<Item = (LevelKind, f64)>) -> Self {
        let (mut l1, mut l2, mut dram) = (None, None, None);
        for (kind, latency) in points {
            let cell = match kind {
                LevelKind::L1 => &mut l1,
                LevelKind::L2 => &mut l2,
                LevelKind::DramFront => &mut dram,
            };
            *cell = Some(latency);
        }
        let dram = dram.expect("every description has a DRAM point");
        MeasuredRow { l1, l2, dram }
    }

    /// The measured latency of `kind`, if the row has one.
    pub fn level(&self, kind: LevelKind) -> Option<f64> {
        match kind {
            LevelKind::L1 => self.l1,
            LevelKind::L2 => self.l2,
            LevelKind::DramFront => Some(self.dram),
        }
    }

    /// Largest relative error versus the published row, over the levels
    /// that exist (e.g. 0.02 = within 2%).
    pub fn max_rel_error(&self, expected: &ReferenceRow) -> f64 {
        let error = |kind| match (self.level(kind), expected.level(kind)) {
            (Some(m), Some(e)) => (m - e as f64).abs() / e as f64,
            _ => 0.0,
        };
        LevelKind::ALL.map(error).into_iter().fold(0.0, f64::max)
    }
}

/// The chase operating points of one Table I row, one per level the
/// description gives a cache (and always the DRAM front), in pipeline
/// order: a generic walk over the level list, deriving each point's
/// footprint from the levels' own capacities (see module docs). This is the
/// only place a preset's points are derived.
pub fn row_points(desc: &ArchDesc) -> Vec<(LevelKind, ChaseParams)> {
    let cap = |kind: LevelKind| {
        desc.level(kind)
            .and_then(|l| l.geom)
            .map(|g| g.cache.capacity())
    };
    let (l1_cap, l2_cap) = (cap(LevelKind::L1), cap(LevelKind::L2));
    // A sliced L2's description gives ONE slice's capacity; the chase must
    // spill the whole hash-interleaved array to reach DRAM.
    let l2_slices = desc.level(LevelKind::L2).map_or(1, |l| l.slices.max(1));
    let mut points = Vec::with_capacity(desc.levels.len());
    for level in &desc.levels {
        let params = match (level.kind, level.geom) {
            (LevelKind::L1, Some(g)) => {
                let footprint = g.cache.capacity() / 4;
                if level.routing.global {
                    ChaseParams::global(footprint, 128)
                } else {
                    // Kepler-style: only local accesses can hit the L1.
                    ChaseParams::local(footprint, 128)
                }
            }
            (LevelKind::L2, Some(g)) => {
                let slice = g.cache.capacity();
                let footprint = (l1_cap.unwrap_or(0) * 8).max(32 * 1024).min(slice / 2);
                ChaseParams::global(footprint, 512)
            }
            (LevelKind::DramFront, _) => {
                let slice = l2_cap.unwrap_or(256 * 1024);
                ChaseParams::global(slice * l2_slices as u64 * 4, 4096)
            }
            // A cache level the generation does not have contributes no
            // operating point.
            (_, None) => continue,
        };
        points.push((level.kind, params));
    }
    points
}

/// Measures one architecture's Table I row: its [`row_points`] on its
/// microbenchmark machine, fanned out over the [`crate::parallel`] pool
/// (identical for every worker count).
///
/// # Errors
///
/// Propagates the first failing point's [`ChaseError`], in level order.
pub fn measure_row(preset: ArchPreset) -> Result<MeasuredRow, ChaseError> {
    let config = preset.config_microbench();
    let points = row_points(&config.arch_desc());
    let latencies = parallel::try_par_map(&points, |_, (kind, params)| {
        measure_chase(&config, params).map(|m| (*kind, m.per_access))
    })?;
    Ok(MeasuredRow::from_points(latencies))
}
