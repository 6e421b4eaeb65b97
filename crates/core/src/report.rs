//! Machine-readable exports of the Figure 1 and Figure 2 artifacts.
//!
//! The `Display` implementations on [`crate::LatencyBreakdown`] and
//! [`crate::ExposureAnalysis`] print the paper-style text tables; this
//! module renders the same data as CSV, for plotting the stacked-bar
//! figures externally (the trace bundle's `breakdown.csv` and
//! `exposure.csv`).

use std::fmt::Write as _;

use crate::breakdown::{Component, LatencyBreakdown};
use crate::exposure::ExposureAnalysis;

/// Renders a latency breakdown as CSV:
/// `bucket_lo,bucket_hi,count,<component columns...>` with percentages.
pub fn breakdown_csv(breakdown: &LatencyBreakdown) -> String {
    let mut out = String::from("bucket_lo,bucket_hi,count");
    for c in Component::ALL {
        let _ = write!(out, ",{}", c.label());
    }
    out.push('\n');
    for i in 0..breakdown.buckets().len() {
        if breakdown.count(i) == 0 {
            continue;
        }
        let (lo, hi) = breakdown.buckets().range(i);
        let _ = write!(out, "{lo},{hi},{}", breakdown.count(i));
        for p in breakdown.percentages(i) {
            let _ = write!(out, ",{p:.2}");
        }
        out.push('\n');
    }
    out
}

/// Renders an exposure analysis as CSV:
/// `bucket_lo,bucket_hi,count,exposed_pct,hidden_pct`.
pub fn exposure_csv(analysis: &ExposureAnalysis) -> String {
    let mut out = String::from("bucket_lo,bucket_hi,count,exposed_pct,hidden_pct\n");
    for i in 0..analysis.buckets().len() {
        if analysis.count(i) == 0 {
            continue;
        }
        let (lo, hi) = analysis.buckets().range(i);
        let _ = writeln!(
            out,
            "{lo},{hi},{},{:.2},{:.2}",
            analysis.count(i),
            100.0 * analysis.exposed_fraction(i),
            100.0 * analysis.hidden_fraction(i)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{PipelineSpace, Stamp, Timeline};
    use gpu_sim::{CompletedRequest, LoadInstrRecord};
    use gpu_types::{Cycle, SmId};

    fn sample_breakdown() -> LatencyBreakdown {
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            let mut t = Timeline::new();
            t.record(Stamp::Issue, Cycle::new(i));
            t.record(Stamp::L1Access, Cycle::new(i + 45));
            t.record(Stamp::Returned, Cycle::new(i + 45));
            reqs.push(CompletedRequest {
                timeline: t,
                space: PipelineSpace::Global,
                sm: SmId::new(0),
            });
        }
        LatencyBreakdown::from_requests(&reqs, 4)
    }

    #[test]
    fn breakdown_csv_has_component_columns() {
        let b = sample_breakdown();
        let csv = breakdown_csv(&b);
        let header = csv.lines().next().unwrap();
        for c in Component::ALL {
            assert!(header.contains(c.label()));
        }
        // One data row (all requests share one latency).
        assert_eq!(csv.lines().count(), 2);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains(",10,"), "count column: {row}");
        assert!(row.contains("100.00"), "pure SM Base: {row}");
    }

    #[test]
    fn exposure_csv_percentages_sum() {
        let loads = vec![
            LoadInstrRecord {
                sm: SmId::new(0),
                pc: 0,
                issue: Cycle::new(0),
                complete: Cycle::new(100),
                exposed: 25,
                lines: 1,
                stall_reasons: gpu_sim::StallBreakdown::default(),
            };
            5
        ];
        let a = ExposureAnalysis::from_loads(&loads, 2);
        let csv = exposure_csv(&a);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.ends_with("25.00,75.00"), "{row}");
    }
}
