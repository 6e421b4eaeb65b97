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

use std::fmt;

use gpu_sim::{ArchDesc, GpuConfig, LevelKind};

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
    /// Largest relative error versus the published row, over the levels
    /// that exist (e.g. 0.02 = within 2%).
    pub fn max_rel_error(&self, expected: &ReferenceRow) -> f64 {
        let mut worst: f64 = 0.0;
        if let (Some(m), Some(e)) = (self.l1, expected.l1) {
            worst = worst.max((m - e as f64).abs() / e as f64);
        }
        if let (Some(m), Some(e)) = (self.l2, expected.l2) {
            worst = worst.max((m - e as f64).abs() / e as f64);
        }
        worst.max((self.dram - expected.dram as f64).abs() / expected.dram as f64)
    }
}

/// The chase operating points of one Table I row: a generic walk over the
/// architecture description's level list, deriving each point's footprint
/// from the levels' own capacities (see module docs). The `bool`s record
/// which optional levels exist so results can be reassembled positionally.
fn row_points(desc: &ArchDesc) -> (Vec<ChaseParams>, bool, bool) {
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
        match (level.kind, level.geom) {
            (LevelKind::L1, Some(g)) => {
                let footprint = g.cache.capacity() / 4;
                points.push(if level.routing.global {
                    ChaseParams::global(footprint, 128)
                } else {
                    // Kepler-style: only local accesses can hit the L1.
                    ChaseParams::local(footprint, 128)
                });
            }
            (LevelKind::L2, Some(g)) => {
                let slice = g.cache.capacity();
                let footprint = (l1_cap.unwrap_or(0) * 8).max(32 * 1024).min(slice / 2);
                points.push(ChaseParams::global(footprint, 512));
            }
            (LevelKind::DramFront, _) => {
                let slice = l2_cap.unwrap_or(256 * 1024);
                points.push(ChaseParams::global(slice * l2_slices as u64 * 4, 4096));
            }
            // A cache level the generation does not have contributes no
            // operating point.
            (_, None) => {}
        }
    }
    (points, l1_cap.is_some(), l2_cap.is_some())
}

/// Measures one architecture's Table I row: [`Table1::measure_presets`]
/// of that one preset.
///
/// # Errors
///
/// Propagates simulator failures as [`ChaseError`].
pub fn measure_row(preset: ArchPreset) -> Result<MeasuredRow, ChaseError> {
    Ok(Table1::measure_presets(&[preset])?.rows[0].1)
}

/// The reproduced Table I: per-architecture measured values, printed beside
/// the published ones ([`ArchPreset::published`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    rows: Vec<(ArchPreset, MeasuredRow)>,
}

impl Table1 {
    /// Measures a chosen subset of architectures — the one implementation
    /// of a Table I row. The independent (preset, chase-point) simulations
    /// are flattened into one batch for the [`crate::parallel`] pool, so all
    /// rows' points load-balance across the available workers; results are
    /// reassembled in preset order, identical for every worker count (one
    /// worker is a plain serial loop).
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure in preset-major,
    /// level-minor order.
    pub fn measure_presets(presets: &[ArchPreset]) -> Result<Self, ChaseError> {
        let configs: Vec<GpuConfig> = presets.iter().map(|p| p.config_microbench()).collect();
        let mut levels = Vec::with_capacity(presets.len());
        let mut batch: Vec<(usize, ChaseParams)> = Vec::new();
        for (row, cfg) in configs.iter().enumerate() {
            let (points, has_l1, has_l2) = row_points(&cfg.arch_desc());
            levels.push((has_l1, has_l2));
            batch.extend(points.into_iter().map(|params| (row, params)));
        }
        let latencies = parallel::try_par_map(&batch, |_, (row, params)| {
            measure_chase(&configs[*row], params).map(|m| m.per_access)
        })?;
        // The batch is preset-major, level-minor: deal it back out in order.
        let mut it = latencies.into_iter();
        let mut next = |level| {
            it.next()
                .unwrap_or_else(|| panic!("{level} latency present"))
        };
        let rows = presets
            .iter()
            .zip(levels)
            .map(|(&p, (has_l1, has_l2))| {
                let row = MeasuredRow {
                    l1: has_l1.then(|| next("L1")),
                    l2: has_l2.then(|| next("L2")),
                    dram: next("DRAM"),
                };
                (p, row)
            })
            .collect();
        Ok(Table1 { rows })
    }

    /// The measured rows.
    pub fn rows(&self) -> &[(ArchPreset, MeasuredRow)] {
        &self.rows
    }

    /// Largest relative error across all cells versus the paper.
    pub fn max_rel_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|(p, m)| m.max_rel_error(&p.published()))
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Table1 {
    /// Renders measured (and published) values in the layout of the
    /// paper's Table I.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:8}", "Unit")?;
        for (p, _) in &self.rows {
            write!(f, " | {:>22}", p.name())?;
        }
        writeln!(f)?;
        let line_len = 8 + self.rows.len() * 25;
        writeln!(f, "{}", "-".repeat(line_len))?;
        let cell = |m: Option<f64>, e: Option<u64>| -> String {
            match (m, e) {
                (Some(m), Some(e)) => format!("{m:>8.0} (paper {e:>4})"),
                (Some(m), None) => format!("{m:>8.0} (paper  ---)"),
                _ => format!("{:>20}", "x"),
            }
        };
        let rows: Vec<(&MeasuredRow, ReferenceRow)> =
            self.rows.iter().map(|(p, m)| (m, p.published())).collect();
        write!(f, "{:8}", "L1 D$")?;
        for (m, e) in &rows {
            write!(f, " | {:>22}", cell(m.l1, e.l1))?;
        }
        writeln!(f)?;
        write!(f, "{:8}", "L2 D$")?;
        for (m, e) in &rows {
            write!(f, " | {:>22}", cell(m.l2, e.l2))?;
        }
        writeln!(f)?;
        write!(f, "{:8}", "DRAM")?;
        for (m, e) in &rows {
            write!(f, " | {:>22}", cell(Some(m.dram), Some(e.dram)))?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_row_matches_paper_within_two_percent() {
        let m = measure_row(ArchPreset::FermiGf106).unwrap();
        let err = m.max_rel_error(&ArchPreset::FermiGf106.published());
        assert!(err < 0.02, "relative error {err:.3}: {m:?}");
    }

    #[test]
    fn kepler_row_matches_paper_within_two_percent() {
        let m = measure_row(ArchPreset::KeplerGk104).unwrap();
        let err = m.max_rel_error(&ArchPreset::KeplerGk104.published());
        assert!(err < 0.02, "relative error {err:.3}: {m:?}");
        assert!(m.l1.is_some(), "Kepler L1 measured via local chase");
    }

    #[test]
    fn tesla_has_no_cache_plateaus() {
        let m = measure_row(ArchPreset::TeslaGt200).unwrap();
        assert!(m.l1.is_none() && m.l2.is_none());
        let published = ArchPreset::TeslaGt200.published().dram as f64;
        assert!((m.dram - published).abs() < 9.0);
    }

    #[test]
    fn maxwell_row_matches_paper_within_two_percent() {
        let m = measure_row(ArchPreset::MaxwellGm107).unwrap();
        let err = m.max_rel_error(&ArchPreset::MaxwellGm107.published());
        assert!(err < 0.02, "relative error {err:.3}: {m:?}");
        assert!(m.l1.is_none(), "Maxwell has no L1");
    }

    #[test]
    fn table_renders_paper_layout() {
        let e = ArchPreset::FermiGf106.published();
        let t = Table1 {
            rows: vec![(
                ArchPreset::FermiGf106,
                MeasuredRow {
                    l1: e.l1.map(|c| c as f64),
                    l2: e.l2.map(|c| c as f64),
                    dram: e.dram as f64,
                },
            )],
        };
        let s = t.to_string();
        assert!(s.contains("L1 D$"));
        assert!(s.contains("DRAM"));
        assert!(s.contains("GF106"));
        assert!(s.contains(&format!("paper {:>4}", e.l2.unwrap())), "{s}");
        assert!(t.max_rel_error() < 1e-9);
    }
}
