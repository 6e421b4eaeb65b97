//! Per-stage latency breakdown of memory fetches (the paper's **Figure 1**).
//!
//! Every traced request carries a stamp timeline; the gap between two
//! consecutive *present* stamps is attributed to the later stamp's pipeline
//! component. Requests are then classified into equal-width latency buckets
//! and each bucket's aggregate time is split into percentage shares per
//! component — exactly the stacked-bar view of Figure 1.

use std::fmt;

use gpu_mem::{Timeline, FIGURE1_COLUMNS};
use gpu_sim::CompletedRequest;
use gpu_types::json::Writer;
use gpu_types::Buckets;

use crate::bucketing::Bucketing;

/// The eight latency components of the paper's Figure 1, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Time in the SM before the L1 data-cache access.
    SmBase,
    /// L1 miss queue and interconnect injection wait.
    L1ToIcnt,
    /// Crossbar traversal and partition input queueing.
    IcntToRop,
    /// ROP pipeline and its queue.
    RopToL2Q,
    /// L2 input queue and L2 access until the DRAM queue.
    L2QToDramQ,
    /// DRAM controller queue wait until selected by the scheduler.
    DramQToSch,
    /// DRAM bank access and data burst.
    DramSchToA,
    /// Return path: L2/interconnect back to the SM and writeback.
    Fetch2Sm,
}

impl Component {
    /// All components in pipeline order.
    pub const ALL: [Component; 8] = [
        Component::SmBase,
        Component::L1ToIcnt,
        Component::IcntToRop,
        Component::RopToL2Q,
        Component::L2QToDramQ,
        Component::DramQToSch,
        Component::DramSchToA,
        Component::Fetch2Sm,
    ];

    /// Label exactly as printed in the paper's Figure 1 legend (read from
    /// the one legend beside `Stamp`).
    pub fn label(self) -> &'static str {
        FIGURE1_COLUMNS[self.index()]
    }

    /// Index into component arrays (and into the legend).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Splits a returned timeline into its eight component durations: a fold
/// over [`Timeline::stages`], each stage counted in its stamp's column
/// (`Stamp::column`). Returns `None` for a timeline that has not returned.
pub fn components_of(timeline: &Timeline) -> Option<[u64; 8]> {
    timeline.total_latency()?;
    let mut parts = [0u64; 8];
    for (stamp, start, end) in timeline.stages()? {
        let column = stamp.column().expect("the walk never yields Issue");
        parts[column] += end.since(start);
    }
    Some(parts)
}

/// The Figure-1 artifact: per-latency-bucket percentage breakdown of memory
/// fetch lifetime into pipeline components.
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    buckets: Buckets,
    sums: Vec<[u64; 8]>,
    counts: Vec<u64>,
    grand_total: [u64; 8],
    /// Requests the clip left out, and their component sums.
    overflow: u64,
    overflow_sums: [u64; 8],
}

/// Percentage share (0–100) of each component in `sums`.
fn shares(sums: &[u64; 8]) -> [f64; 8] {
    let total: u64 = sums.iter().sum();
    sums.map(|sum| {
        if total == 0 {
            0.0
        } else {
            100.0 * sum as f64 / total as f64
        }
    })
}

impl LatencyBreakdown {
    /// Builds a breakdown over `n_buckets` equal-width latency ranges from
    /// traced requests (incomplete timelines are skipped).
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is zero.
    pub fn from_requests(requests: &[CompletedRequest], n_buckets: usize) -> Self {
        Self::from_requests_clipped(requests, n_buckets, 1.0).0
    }

    /// Like [`LatencyBreakdown::from_requests`], but the bucket domain only
    /// spans latencies up to the `clip_quantile`-quantile; requests beyond
    /// it are excluded and counted in the returned overflow. This keeps a
    /// heavy congestion tail from stretching the x-axis (the paper's
    /// Figure 1 spans only up to its observed maximum of ~1800 cycles).
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is zero or `clip_quantile` is outside `(0, 1]`.
    pub fn from_requests_clipped(
        requests: &[CompletedRequest],
        n_buckets: usize,
        clip_quantile: f64,
    ) -> (Self, u64) {
        let mut items = Vec::with_capacity(requests.len());
        for r in requests {
            if let (Some(total), Some(parts)) =
                (r.timeline.total_latency(), components_of(&r.timeline))
            {
                items.push((total, parts));
            }
        }
        let bucketing = Bucketing::from_totals(
            items.iter().map(|&(total, _)| total),
            n_buckets,
            clip_quantile,
        );
        let mut sums = vec![[0u64; 8]; n_buckets];
        let mut counts = vec![0u64; n_buckets];
        let mut grand_total = [0u64; 8];
        let mut overflow_sums = [0u64; 8];
        for (total, parts) in items {
            let into = match bucketing.index_of(total) {
                Some(i) => {
                    counts[i] += 1;
                    sums[i].iter_mut().zip(parts).for_each(|(s, p)| *s += p);
                    &mut grand_total
                }
                None => &mut overflow_sums, // clipped into the overflow
            };
            into.iter_mut().zip(parts).for_each(|(s, p)| *s += p);
        }
        let overflow = bucketing.overflow();
        (
            LatencyBreakdown {
                buckets: bucketing.into_buckets(),
                sums,
                counts,
                grand_total,
                overflow,
                overflow_sums,
            },
            overflow,
        )
    }

    /// The latency buckets (x-axis of Figure 1).
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Requests in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total traced requests.
    pub fn total_requests(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Requests the clip excluded.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Percentage share (0–100) of each component within bucket `i`.
    pub fn percentages(&self, i: usize) -> [f64; 8] {
        shares(&self.sums[i])
    }

    /// Percentage share of each component across all bucketed requests.
    pub fn overall_percentages(&self) -> [f64; 8] {
        shares(&self.grand_total)
    }

    /// Percentage share of each component across every request, the
    /// clipped overflow included: what an unclipped breakdown reports.
    pub fn unclipped_percentages(&self) -> [f64; 8] {
        shares(&std::array::from_fn(|c| {
            self.grand_total[c] + self.overflow_sums[c]
        }))
    }

    /// Writes the exact integers behind this breakdown as one JSON object:
    /// the overflow count, the component sums inside and beyond the clip,
    /// and with `table` the bucket domain, per-bucket counts and sums.
    pub fn write_pins(&self, w: &mut Writer, table: bool) {
        w.object().field("overflow", self.overflow);
        w.field("sums", &self.grand_total[..]);
        w.field("overflow_sums", &self.overflow_sums[..]);
        if table {
            let last = self.buckets.range(self.buckets.len() - 1);
            w.field("domain", &[self.buckets.range(0).0, last.1][..]);
            w.field("counts", &self.counts[..])
                .key("bucket_sums")
                .array();
            for s in &self.sums {
                w.value(&s[..]);
            }
            w.end();
        }
        w.end();
    }

    /// Components ranked by overall contribution, largest first.
    pub fn ranked_components(&self) -> Vec<(Component, f64)> {
        let shares = self.overall_percentages();
        let mut v: Vec<(Component, f64)> = Component::ALL
            .iter()
            .map(|&c| (c, shares[c.index()]))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("percentages are finite"));
        v
    }
}

impl fmt::Display for LatencyBreakdown {
    /// Renders the Figure-1 table: one row per non-empty bucket, one column
    /// per component (percentages).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>14} {:>7}", "Latency Range", "Count")?;
        for c in Component::ALL {
            write!(f, " {:>12}", c.label())?;
        }
        writeln!(f)?;
        for i in 0..self.buckets.len() {
            if self.counts[i] == 0 {
                continue;
            }
            write!(f, "{:>14} {:>7}", self.buckets.label(i), self.counts[i])?;
            for p in self.percentages(i) {
                write!(f, " {p:>11.1}%")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{PipelineSpace, Stamp};
    use gpu_types::{Cycle, SmId};

    fn request_with(stamps: &[(Stamp, u64)]) -> CompletedRequest {
        let mut t = Timeline::new();
        for &(s, c) in stamps {
            t.record(s, Cycle::new(c));
        }
        CompletedRequest {
            timeline: t,
            space: PipelineSpace::Global,
            sm: SmId::new(0),
        }
    }

    fn l1_hit(issue: u64, latency: u64) -> CompletedRequest {
        request_with(&[
            (Stamp::Issue, issue),
            (Stamp::L1Access, issue + latency),
            (Stamp::Returned, issue + latency),
        ])
    }

    fn dram_fetch(issue: u64) -> CompletedRequest {
        request_with(&[
            (Stamp::Issue, issue),
            (Stamp::L1Access, issue + 30),
            (Stamp::IcntInject, issue + 80),
            (Stamp::RopEnter, issue + 140),
            (Stamp::L2QueueEnter, issue + 200),
            (Stamp::DramQueueEnter, issue + 320),
            (Stamp::DramScheduled, issue + 520),
            (Stamp::DramDone, issue + 620),
            (Stamp::ReplyInject, issue + 630),
            (Stamp::ReplyEject, issue + 680),
            (Stamp::Returned, issue + 700),
        ])
    }

    #[test]
    fn components_partition_total_latency() {
        let r = dram_fetch(1000);
        let parts = components_of(&r.timeline).unwrap();
        assert_eq!(parts.iter().sum::<u64>(), 700);
        assert_eq!(parts[Component::SmBase.index()], 30);
        assert_eq!(parts[Component::DramQToSch.index()], 200);
        assert_eq!(parts[Component::Fetch2Sm.index()], 80);
    }

    #[test]
    fn components_read_the_stamp_legend() {
        assert_eq!(Stamp::L1Access.column(), Some(Component::SmBase.index()));
        assert_eq!(
            Component::DramQToSch.label(),
            Stamp::DramScheduled.stage_label().unwrap()
        );
        for part in [Stamp::L2Served, Stamp::ReplyEject, Stamp::Returned] {
            assert_eq!(part.column(), Some(Component::Fetch2Sm.index()));
        }
    }

    #[test]
    fn incomplete_timeline_is_skipped() {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(0));
        assert!(components_of(&t).is_none());
    }

    #[test]
    fn l1_hits_are_pure_sm_base() {
        // The paper's observation: short-latency buckets are 100% SM Base.
        let reqs: Vec<_> = (0..50).map(|i| l1_hit(i * 10, 45)).collect();
        let b = LatencyBreakdown::from_requests(&reqs, 4);
        let i = b.buckets().index_of(45).unwrap();
        let p = b.percentages(i);
        assert!((p[Component::SmBase.index()] - 100.0).abs() < 1e-9);
        assert_eq!(b.count(i), 50);
    }

    #[test]
    fn mixed_population_separates_by_bucket() {
        let mut reqs: Vec<_> = (0..20).map(|i| l1_hit(i, 45)).collect();
        reqs.extend((0..20).map(|i| dram_fetch(i * 3)));
        let b = LatencyBreakdown::from_requests(&reqs, 10);
        assert_eq!(b.total_requests(), 40);
        // Short bucket: all SM base. Long bucket: DRAM components present.
        let short = b.buckets().index_of(45).unwrap();
        let long = b.buckets().index_of(700).unwrap();
        assert!(b.percentages(short)[Component::SmBase.index()] > 99.0);
        let lp = b.percentages(long);
        assert!(lp[Component::DramQToSch.index()] > 20.0);
        assert!(lp[Component::DramSchToA.index()] > 5.0);
        // Rankings include the queue/arbitration components at the top for
        // this synthetic population.
        let ranked = b.ranked_components();
        assert_eq!(ranked.len(), 8);
        assert!(ranked[0].1 >= ranked[7].1);
    }

    #[test]
    fn display_emits_paper_legend_names() {
        let reqs = vec![l1_hit(0, 45), dram_fetch(10)];
        let b = LatencyBreakdown::from_requests(&reqs, 4);
        let s = b.to_string();
        for c in Component::ALL {
            assert!(s.contains(c.label()), "missing {}", c.label());
        }
        assert!(s.contains("Latency Range"));
    }

    #[test]
    fn empty_input_is_harmless() {
        let b = LatencyBreakdown::from_requests(&[], 4);
        assert_eq!(b.total_requests(), 0);
        assert_eq!(b.overall_percentages(), [0.0; 8]);
    }
}
