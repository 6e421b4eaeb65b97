//! Exposed vs. hidden load latency (the paper's **Figure 2**).
//!
//! A load's latency is *hidden* while its SM still issues other instructions
//! and *exposed* when the SM sits idle waiting (no warp can issue). The
//! simulator attributes each zero-issue cycle of an SM to every load in
//! flight on it; this module buckets the completed loads by total latency
//! and reports the exposed/hidden split per bucket.

use std::fmt;

use gpu_sim::LoadInstrRecord;
use gpu_types::json::Writer;
use gpu_types::Buckets;

use crate::bucketing::Bucketing;

/// The Figure-2 artifact: per-latency-bucket exposed/hidden percentages of
/// global-memory load instructions.
#[derive(Debug, Clone)]
pub struct ExposureAnalysis {
    buckets: Buckets,
    exposed: Vec<u64>,
    total: Vec<u64>,
    counts: Vec<u64>,
    /// Loads the clip left out, and their exposed and total sums.
    overflow: u64,
    overflow_exposed: u64,
    overflow_total: u64,
}

/// `exposed / total`, or 0 for an empty population.
fn fraction(exposed: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        exposed as f64 / total as f64
    }
}

impl ExposureAnalysis {
    /// Builds the analysis over `n_buckets` equal-width latency ranges.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is zero.
    pub fn from_loads(loads: &[LoadInstrRecord], n_buckets: usize) -> Self {
        Self::from_loads_clipped(loads, n_buckets, 1.0).0
    }

    /// Like [`ExposureAnalysis::from_loads`], but the bucket domain spans
    /// only latencies up to the `clip_quantile`-quantile; loads beyond it
    /// are excluded and counted in the returned overflow (see the matching
    /// option on `LatencyBreakdown`).
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is zero or `clip_quantile` is outside `(0, 1]`.
    pub fn from_loads_clipped(
        loads: &[LoadInstrRecord],
        n_buckets: usize,
        clip_quantile: f64,
    ) -> (Self, u64) {
        let bucketing =
            Bucketing::from_totals(loads.iter().map(|l| l.total()), n_buckets, clip_quantile);
        let mut exposed = vec![0u64; n_buckets];
        let mut total = vec![0u64; n_buckets];
        let mut counts = vec![0u64; n_buckets];
        let (mut overflow_exposed, mut overflow_total) = (0, 0);
        for l in loads {
            // Clamp: a load that issued in the same stall window as its
            // completion can attribute at most its own lifetime.
            let clamped = l.exposed.min(l.total());
            let Some(i) = bucketing.index_of(l.total()) else {
                // Clipped into the overflow.
                overflow_exposed += clamped;
                overflow_total += l.total();
                continue;
            };
            exposed[i] += clamped;
            total[i] += l.total();
            counts[i] += 1;
        }
        let overflow = bucketing.overflow();
        (
            ExposureAnalysis {
                buckets: bucketing.into_buckets(),
                exposed,
                total,
                counts,
                overflow,
                overflow_exposed,
                overflow_total,
            },
            overflow,
        )
    }

    /// The latency buckets (x-axis of Figure 2).
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Loads in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total analyzed loads.
    pub fn total_loads(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Loads the clip excluded.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exposed fraction (0–1) of bucket `i`'s aggregate latency.
    pub fn exposed_fraction(&self, i: usize) -> f64 {
        fraction(self.exposed[i], self.total[i])
    }

    /// Hidden fraction (0–1) of bucket `i`'s aggregate latency.
    pub fn hidden_fraction(&self, i: usize) -> f64 {
        1.0 - self.exposed_fraction(i)
    }

    /// Exposed fraction across all bucketed loads.
    pub fn overall_exposed_fraction(&self) -> f64 {
        fraction(self.exposed.iter().sum(), self.total.iter().sum())
    }

    /// Exposed fraction across every load, the clipped overflow included:
    /// what an unclipped analysis reports.
    pub fn unclipped_exposed_fraction(&self) -> f64 {
        let exposed: u64 = self.exposed.iter().sum();
        let total: u64 = self.total.iter().sum();
        fraction(exposed + self.overflow_exposed, total + self.overflow_total)
    }

    /// Writes the exact integers behind this analysis as one JSON object:
    /// the overflow count, the exposed and total sums inside and beyond the
    /// clip, and with `table` the bucket domain and per-bucket counts and
    /// sums.
    pub fn write_pins(&self, w: &mut Writer, table: bool) {
        w.object().field("overflow", self.overflow);
        w.field("exposed", self.exposed.iter().sum::<u64>());
        w.field("total", self.total.iter().sum::<u64>());
        w.field("overflow_exposed", self.overflow_exposed);
        w.field("overflow_total", self.overflow_total);
        if table {
            let last = self.buckets.range(self.buckets.len() - 1);
            w.field("domain", &[self.buckets.range(0).0, last.1][..]);
            w.field("counts", &self.counts[..]);
            w.field("bucket_exposed", &self.exposed[..]);
            w.field("bucket_total", &self.total[..]);
        }
        w.end();
    }

    /// Fraction of *loads* (not cycles) whose individual exposed share
    /// exceeds `threshold` (e.g. 0.5 for the paper's "more than 50% for most
    /// loads" claim). Computed bucket-wise from aggregate ratios.
    pub fn buckets_exceeding(&self, threshold: f64) -> f64 {
        let mut above = 0u64;
        let mut all = 0u64;
        for i in 0..self.buckets.len() {
            if self.counts[i] == 0 {
                continue;
            }
            all += self.counts[i];
            if self.exposed_fraction(i) > threshold {
                above += self.counts[i];
            }
        }
        if all == 0 {
            0.0
        } else {
            above as f64 / all as f64
        }
    }
}

impl fmt::Display for ExposureAnalysis {
    /// Renders the Figure-2 table: per-bucket exposed/hidden percentages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>14} {:>7} {:>10} {:>10}",
            "Latency Range", "Count", "Exposed", "Hidden"
        )?;
        for i in 0..self.buckets.len() {
            if self.counts[i] == 0 {
                continue;
            }
            writeln!(
                f,
                "{:>14} {:>7} {:>9.1}% {:>9.1}%",
                self.buckets.label(i),
                self.counts[i],
                100.0 * self.exposed_fraction(i),
                100.0 * self.hidden_fraction(i)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::{Cycle, SmId};

    fn load(total: u64, exposed: u64) -> LoadInstrRecord {
        LoadInstrRecord {
            sm: SmId::new(0),
            pc: 0,
            issue: Cycle::new(1000),
            complete: Cycle::new(1000 + total),
            exposed,
            lines: 1,
            stall_reasons: gpu_sim::StallBreakdown::default(),
        }
    }

    #[test]
    fn fractions_per_bucket() {
        // Two populations: fast fully-hidden loads and slow mostly-exposed.
        let mut loads: Vec<_> = (0..10).map(|_| load(50, 0)).collect();
        loads.extend((0..10).map(|_| load(700, 630)));
        let e = ExposureAnalysis::from_loads(&loads, 8);
        let fast = e.buckets().index_of(50).unwrap();
        let slow = e.buckets().index_of(700).unwrap();
        assert_eq!(e.exposed_fraction(fast), 0.0);
        assert!((e.exposed_fraction(slow) - 0.9).abs() < 1e-9);
        assert!((e.hidden_fraction(slow) - 0.1).abs() < 1e-9);
        assert_eq!(e.total_loads(), 20);
        assert_eq!(e.count(fast), 10);
    }

    #[test]
    fn overall_fraction_is_cycle_weighted() {
        let loads = vec![load(100, 0), load(900, 900)];
        let e = ExposureAnalysis::from_loads(&loads, 4);
        assert!((e.overall_exposed_fraction() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn exposed_clamped_to_lifetime() {
        // Exposure attribution can over-count when multiple loads share a
        // stall window at the boundary; fractions must stay <= 1.
        let loads = vec![load(100, 250)];
        let e = ExposureAnalysis::from_loads(&loads, 2);
        let i = e.buckets().index_of(100).unwrap();
        assert!(e.exposed_fraction(i) <= 1.0);
    }

    #[test]
    fn buckets_exceeding_threshold() {
        let mut loads: Vec<_> = (0..6).map(|_| load(50, 0)).collect();
        loads.extend((0..4).map(|_| load(700, 600)));
        let e = ExposureAnalysis::from_loads(&loads, 8);
        let share = e.buckets_exceeding(0.5);
        assert!((share - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_harmless() {
        let e = ExposureAnalysis::from_loads(&[], 4);
        assert_eq!(e.total_loads(), 0);
        assert_eq!(e.overall_exposed_fraction(), 0.0);
        assert_eq!(e.buckets_exceeding(0.5), 0.0);
    }

    #[test]
    fn display_has_exposed_and_hidden_columns() {
        let e = ExposureAnalysis::from_loads(&[load(100, 40)], 2);
        let s = e.to_string();
        assert!(s.contains("Exposed"));
        assert!(s.contains("Hidden"));
        assert!(s.contains("60.0%"));
        assert!(s.contains("40.0%"));
    }
}
