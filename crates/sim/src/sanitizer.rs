//! Cycle-level invariant sanitizer.
//!
//! When [`crate::GpuConfig::sanitize`] is set, the simulator audits its own
//! bookkeeping while it runs: request conservation (every request the
//! request table holds is findable in exactly one pipeline structure), MSHR
//! occupancy and end-of-run leaks, queue-capacity violations, per-request
//! timeline monotonicity, and — the invariant the paper's Figure 1 depends
//! on — that each retired request's per-stage components sum exactly to its
//! end-to-end lifetime.
//!
//! Violations accumulate into a [`Sanitizer`] report queryable from
//! [`crate::Gpu::sanitizer`] and counted in
//! [`crate::RunSummary::sanitizer_violations`]. Debug builds (which include
//! `cargo test`) additionally panic at the end of [`crate::Gpu::run`] so a
//! broken invariant fails loudly instead of skewing latency data.

use std::fmt;

use gpu_arch::{LevelKind, MAX_L2_SLICES};
use gpu_mem::{MemRequest, RequestId, Stamp};
use gpu_types::{Addr, Cycle};

/// Where in the machine a violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// An SM, by index.
    Sm(usize),
    /// A memory partition, by index.
    Partition(usize),
    /// The whole-GPU cycle loop.
    Gpu,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Sm(i) => write!(f, "sm{i}"),
            Site::Partition(i) => write!(f, "partition{i}"),
            Site::Gpu => f.write_str("gpu"),
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The request table's records, with those lent to the DRAM channels,
    /// disagree with the requests the pipeline structures hold: a slot
    /// outlived its request, or a handle its slot.
    Conservation {
        /// Cycle of the audit.
        cycle: Cycle,
        /// Records in the request table plus those lent to DRAM.
        table: u64,
        /// Requests found in SMs, partitions and networks.
        in_flight: u64,
    },
    /// An MSHR table still holds entries after the run drained.
    MshrLeak {
        /// Which MSHR table.
        site: Site,
        /// The leaked line addresses.
        lines: Vec<Addr>,
    },
    /// An MSHR merge list exceeds its configured `max_merged`.
    MshrOverMerge {
        /// Which MSHR table.
        site: Site,
        /// Longest merge list found.
        waiters: usize,
        /// Configured maximum.
        max_merged: usize,
    },
    /// An MSHR table holds more lines than its configured entry count.
    MshrOverCapacity {
        /// Which MSHR table.
        site: Site,
        /// Lines outstanding.
        len: usize,
        /// Configured entry count.
        entries: usize,
    },
    /// A bounded queue holds more items than its capacity.
    QueueOverflow {
        /// Which component owns the queue.
        site: Site,
        /// Queue name ("rop", "miss", …).
        queue: &'static str,
        /// Occupancy found.
        len: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// A retired request's stamps are not non-decreasing in pipeline order.
    NonMonotonicTimeline {
        /// The offending request.
        id: RequestId,
        /// The later pipeline stage that carries the earlier time.
        stamp: Stamp,
        /// Time at the preceding stamped stage.
        earlier: Cycle,
        /// Time at `stamp`.
        later: Cycle,
    },
    /// A retired request's per-stage components do not sum to its lifetime —
    /// the invariant behind the paper's Figure 1 stacked bars.
    StageSumMismatch {
        /// The offending request.
        id: RequestId,
        /// Sum of the per-stage components.
        sum: u64,
        /// Issue-to-return lifetime.
        total: u64,
    },
    /// Pending-load bookkeeping survived the drain (a load retired its last
    /// line without releasing its scoreboard entry, or never will).
    PendingLoadLeak {
        /// The SM holding the entries.
        site: Site,
        /// Number of leaked pending-load entries.
        entries: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Conservation {
                cycle,
                table,
                in_flight,
            } => write!(
                f,
                "conservation broken at cycle {cycle}: the request table holds \
                 {table} request(s) but {in_flight} are in the pipeline"
            ),
            Violation::MshrLeak { site, lines } => {
                write!(
                    f,
                    "{site}: MSHR leak, {} line(s) never filled:",
                    lines.len()
                )?;
                for l in lines {
                    write!(f, " {l}")?;
                }
                Ok(())
            }
            Violation::MshrOverMerge {
                site,
                waiters,
                max_merged,
            } => write!(
                f,
                "{site}: MSHR merge list holds {waiters} waiter(s), max_merged is {max_merged}"
            ),
            Violation::MshrOverCapacity { site, len, entries } => write!(
                f,
                "{site}: MSHR table holds {len} line(s), configured for {entries}"
            ),
            Violation::QueueOverflow {
                site,
                queue,
                len,
                capacity,
            } => write!(
                f,
                "{site}: {queue} queue holds {len} item(s), capacity is {capacity}"
            ),
            Violation::NonMonotonicTimeline {
                id,
                stamp,
                earlier,
                later,
            } => write!(
                f,
                "{id}: timeline goes backwards at {stamp:?} ({later} < preceding {earlier})"
            ),
            Violation::StageSumMismatch { id, sum, total } => write!(
                f,
                "{id}: stage components sum to {sum} but issue-to-return lifetime is {total}"
            ),
            Violation::PendingLoadLeak { site, entries } => write!(
                f,
                "{site}: {entries} pending-load entr(ies) survived the drain"
            ),
        }
    }
}

impl Site {
    /// Serializes this site. Tag values are part of the checkpoint format
    /// and must never be reordered; new variants append new tags.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        match self {
            Site::Sm(i) => {
                e.u8(0);
                e.usize(*i);
            }
            Site::Partition(i) => {
                e.u8(1);
                e.usize(*i);
            }
            Site::Gpu => e.u8(2),
        }
    }

    /// Decodes a site written by [`Site::encode_state`].
    ///
    /// # Errors
    ///
    /// Rejects unknown tags and propagates decoder errors.
    pub fn decode(d: &mut gpu_snapshot::Decoder) -> Result<Self, gpu_snapshot::SnapshotError> {
        match d.u8()? {
            0 => Ok(Site::Sm(d.usize()?)),
            1 => Ok(Site::Partition(d.usize()?)),
            2 => Ok(Site::Gpu),
            _ => Err(gpu_snapshot::SnapshotError::InvalidValue(
                "unknown sanitizer-site tag",
            )),
        }
    }
}

/// Labels of the SM and partition queues that belong to no level (the
/// levels' own queues are labelled by [`LevelKind`]).
pub(crate) const FRONT_QUEUE: &str = "front";
pub(crate) const FILL_QUEUE: &str = "fill";
pub(crate) const ROP_QUEUE: &str = "rop";

/// The queue names the audits use, in checkpoint-tag order, read from the
/// label tables they come from. Violations carry `&'static str` queue
/// names; the codec maps them through this table so a decoded violation
/// points back at the same static string.
const QUEUE_NAMES: [&str; 7 + 2 * MAX_L2_SLICES] = {
    let mut names = [""; 7 + 2 * MAX_L2_SLICES];
    names[0] = FRONT_QUEUE;
    names[1] = LevelKind::L1.hit_pipe_label();
    names[2] = LevelKind::L1.queue_label();
    names[3] = FILL_QUEUE;
    names[4] = ROP_QUEUE;
    names[5] = LevelKind::L2.queue_label();
    names[6] = LevelKind::L2.hit_pipe_label();
    let mut slice = 0;
    while slice < MAX_L2_SLICES {
        names[7 + slice] = LevelKind::L2.sliced_queue_label(slice);
        names[7 + MAX_L2_SLICES + slice] = LevelKind::L2.sliced_hit_pipe_label(slice);
        slice += 1;
    }
    names
};

impl Violation {
    /// Serializes this violation. Tag values are part of the checkpoint
    /// format and must never be reordered; new variants append new tags.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        match self {
            Violation::Conservation {
                cycle,
                table,
                in_flight,
            } => {
                e.u8(0);
                e.u64(cycle.get());
                e.u64(*table);
                e.u64(*in_flight);
            }
            Violation::MshrLeak { site, lines } => {
                e.u8(1);
                site.encode_state(e);
                e.usize(lines.len());
                for l in lines {
                    e.u64(l.get());
                }
            }
            Violation::MshrOverMerge {
                site,
                waiters,
                max_merged,
            } => {
                e.u8(2);
                site.encode_state(e);
                e.usize(*waiters);
                e.usize(*max_merged);
            }
            Violation::MshrOverCapacity { site, len, entries } => {
                e.u8(3);
                site.encode_state(e);
                e.usize(*len);
                e.usize(*entries);
            }
            Violation::QueueOverflow {
                site,
                queue,
                len,
                capacity,
            } => {
                e.u8(4);
                site.encode_state(e);
                // Index into QUEUE_NAMES; u8::MAX marks a name added without
                // a table entry (decodes as "unknown", never fails encode).
                let idx = QUEUE_NAMES.iter().position(|n| n == queue);
                e.u8(idx.map_or(u8::MAX, |i| i as u8));
                e.usize(*len);
                e.usize(*capacity);
            }
            Violation::NonMonotonicTimeline {
                id,
                stamp,
                earlier,
                later,
            } => {
                e.u8(5);
                e.u64(id.get());
                let idx = Stamp::ALL
                    .iter()
                    .position(|s| s == stamp)
                    .expect("every stamp is in Stamp::ALL");
                e.u8(idx as u8);
                e.u64(earlier.get());
                e.u64(later.get());
            }
            Violation::StageSumMismatch { id, sum, total } => {
                e.u8(6);
                e.u64(id.get());
                e.u64(*sum);
                e.u64(*total);
            }
            Violation::PendingLoadLeak { site, entries } => {
                e.u8(7);
                site.encode_state(e);
                e.usize(*entries);
            }
        }
    }

    /// Decodes a violation written by [`Violation::encode_state`]. Tag 8,
    /// a table count written as its records and loans apart, decodes as
    /// the [`Violation::Conservation`] it now is.
    ///
    /// # Errors
    ///
    /// Rejects unknown variant, queue-name and stamp tags, and propagates
    /// decoder errors.
    pub fn decode(d: &mut gpu_snapshot::Decoder) -> Result<Self, gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        match d.u8()? {
            0 => Ok(Violation::Conservation {
                cycle: Cycle::new(d.u64()?),
                table: d.u64()?,
                in_flight: d.u64()?,
            }),
            1 => {
                let site = Site::decode(d)?;
                let mut lines = Vec::new();
                for _ in 0..d.usize()? {
                    lines.push(Addr::new(d.u64()?));
                }
                Ok(Violation::MshrLeak { site, lines })
            }
            2 => Ok(Violation::MshrOverMerge {
                site: Site::decode(d)?,
                waiters: d.usize()?,
                max_merged: d.usize()?,
            }),
            3 => Ok(Violation::MshrOverCapacity {
                site: Site::decode(d)?,
                len: d.usize()?,
                entries: d.usize()?,
            }),
            4 => {
                let site = Site::decode(d)?;
                let queue = match d.u8()? {
                    u8::MAX => "unknown",
                    i => *QUEUE_NAMES
                        .get(i as usize)
                        .ok_or(InvalidValue("unknown queue-name tag"))?,
                };
                Ok(Violation::QueueOverflow {
                    site,
                    queue,
                    len: d.usize()?,
                    capacity: d.usize()?,
                })
            }
            5 => {
                let id = RequestId::new(d.u64()?);
                let stamp = *Stamp::ALL
                    .get(d.u8()? as usize)
                    .ok_or(InvalidValue("unknown stamp tag"))?;
                Ok(Violation::NonMonotonicTimeline {
                    id,
                    stamp,
                    earlier: Cycle::new(d.u64()?),
                    later: Cycle::new(d.u64()?),
                })
            }
            6 => Ok(Violation::StageSumMismatch {
                id: RequestId::new(d.u64()?),
                sum: d.u64()?,
                total: d.u64()?,
            }),
            7 => Ok(Violation::PendingLoadLeak {
                site: Site::decode(d)?,
                entries: d.usize()?,
            }),
            8 => Ok(Violation::Conservation {
                cycle: Cycle::new(d.u64()?),
                table: d
                    .u64()?
                    .checked_add(d.u64()?)
                    .ok_or(InvalidValue("request table count overflows"))?,
                in_flight: d.u64()?,
            }),
            _ => Err(InvalidValue("unknown violation tag")),
        }
    }
}

/// Cap on stored violations: a per-tick invariant breaking once tends to
/// break every subsequent tick, and storing millions of identical records
/// helps nobody. The total count keeps counting past the cap.
const MAX_STORED: usize = 64;

/// Accumulates invariant violations over a run.
#[derive(Debug, Default)]
pub struct Sanitizer {
    violations: Vec<Violation>,
    total: u64,
}

impl Sanitizer {
    /// Creates an empty sanitizer.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Records a violation (stores the first [`MAX_STORED`], counts all).
    pub fn record(&mut self, v: Violation) {
        self.total += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(v);
        }
    }

    /// The stored violations (first [`MAX_STORED`] detected).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any past the storage cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no violation was detected.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Audits one retired request: stamps must be non-decreasing in pipeline
    /// order, and the per-stage components (deltas between consecutive
    /// present stamps) must sum exactly to the issue-to-return lifetime.
    pub fn check_retired(&mut self, req: &MemRequest) {
        let t = &req.timeline;
        let (Some(issue), Some(ret)) = (t.get(Stamp::Issue), t.get(Stamp::Returned)) else {
            // A retired request missing either endpoint can never appear in
            // the Figure-1 breakdown; flag it as a zero-information timeline.
            self.record(Violation::StageSumMismatch {
                id: req.id,
                sum: 0,
                total: 0,
            });
            return;
        };
        let mut prev = issue;
        let mut sum = 0u64;
        for stamp in Stamp::ALL {
            let Some(at) = t.get(stamp) else { continue };
            if at < prev {
                self.record(Violation::NonMonotonicTimeline {
                    id: req.id,
                    stamp,
                    earlier: prev,
                    later: at,
                });
                return;
            }
            sum += at.since(prev);
            prev = at;
        }
        let total = ret.since(issue);
        if sum != total {
            self.record(Violation::StageSumMismatch {
                id: req.id,
                sum,
                total,
            });
        }
    }

    /// Audits an MSHR occupancy snapshot against its configuration.
    /// `max_list` is the longest merge list, or any length within
    /// `max_merged` when none exceeds it (`MshrTable::longest_over`).
    pub fn check_mshr_occupancy(
        &mut self,
        site: Site,
        len: usize,
        max_list: usize,
        config: &gpu_mem::MshrConfig,
    ) {
        if len > config.entries {
            self.record(Violation::MshrOverCapacity {
                site,
                len,
                entries: config.entries,
            });
        }
        if max_list > config.max_merged {
            self.record(Violation::MshrOverMerge {
                site,
                waiters: max_list,
                max_merged: config.max_merged,
            });
        }
    }

    /// Audits a queue occupancy snapshot.
    pub fn check_queue(&mut self, site: Site, queue: &'static str, len: usize, capacity: usize) {
        if len > capacity {
            self.record(Violation::QueueOverflow {
                site,
                queue,
                len,
                capacity,
            });
        }
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the total count and the stored violations.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.u64(self.total);
        e.usize(self.violations.len());
        for v in &self.violations {
            v.encode_state(e);
        }
    }

    /// Overwrites this sanitizer with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects stored-violation counts past [`MAX_STORED`] or past the total
    /// (the recorder can never produce either), and propagates decoder
    /// errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        self.total = d.u64()?;
        let n = d.usize()?;
        if n > MAX_STORED || n as u64 > self.total {
            return Err(InvalidValue("stored violations exceed their own cap"));
        }
        self.violations.clear();
        for _ in 0..n {
            self.violations.push(Violation::decode(d)?);
        }
        Ok(())
    }

    /// Renders the full report, one violation per line.
    pub fn report(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sanitizer: {} invariant violation(s) detected",
            self.total
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        if self.total as usize > self.violations.len() {
            let _ = writeln!(
                out,
                "  … and {} more (storage capped at {MAX_STORED})",
                self.total as usize - self.violations.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{AccessKind, MshrConfig, PipelineSpace};
    use gpu_types::SmId;

    fn request_with(stamps: &[(Stamp, u64)]) -> MemRequest {
        let mut req = MemRequest::new(
            RequestId::new(1),
            Addr::new(0x80),
            128,
            AccessKind::Load,
            PipelineSpace::Global,
            SmId::new(0),
            0,
            Cycle::new(stamps[0].1),
        );
        for &(s, at) in stamps {
            req.timeline.record(s, Cycle::new(at));
        }
        req
    }

    #[test]
    fn complete_monotonic_timeline_is_clean() {
        let mut san = Sanitizer::new();
        san.check_retired(&request_with(&[
            (Stamp::Issue, 10),
            (Stamp::L1Access, 38),
            (Stamp::IcntInject, 40),
            (Stamp::RopEnter, 88),
            (Stamp::Returned, 200),
        ]));
        assert!(san.is_clean(), "{}", san.report());
    }

    #[test]
    fn backwards_stamp_is_flagged() {
        let mut san = Sanitizer::new();
        san.check_retired(&request_with(&[
            (Stamp::Issue, 10),
            (Stamp::L1Access, 38),
            (Stamp::IcntInject, 20), // earlier than the L1 probe
            (Stamp::Returned, 200),
        ]));
        assert_eq!(san.total(), 1);
        assert!(matches!(
            san.violations()[0],
            Violation::NonMonotonicTimeline {
                stamp: Stamp::IcntInject,
                ..
            }
        ));
    }

    #[test]
    fn missing_return_stamp_is_flagged() {
        let mut san = Sanitizer::new();
        san.check_retired(&request_with(&[(Stamp::Issue, 10), (Stamp::L1Access, 38)]));
        assert_eq!(san.total(), 1);
    }

    #[test]
    fn stage_stamped_after_return_is_flagged() {
        // A stage stamped after the request already returned shows up as the
        // Returned stamp going backwards relative to pipeline order.
        let mut san = Sanitizer::new();
        san.check_retired(&request_with(&[
            (Stamp::Issue, 0),
            (Stamp::DramDone, 150), // stamped after the request returned
            (Stamp::Returned, 100),
        ]));
        assert_eq!(san.total(), 1);
        assert!(matches!(
            san.violations()[0],
            Violation::NonMonotonicTimeline {
                stamp: Stamp::Returned,
                ..
            }
        ));
    }

    #[test]
    fn mshr_occupancy_checks() {
        let cfg = MshrConfig {
            entries: 4,
            max_merged: 2,
        };
        let mut san = Sanitizer::new();
        san.check_mshr_occupancy(Site::Sm(0), 4, 2, &cfg);
        assert!(san.is_clean());
        san.check_mshr_occupancy(Site::Sm(0), 5, 3, &cfg);
        assert_eq!(san.total(), 2);
    }

    #[test]
    fn storage_caps_but_count_continues() {
        let mut san = Sanitizer::new();
        for i in 0..(MAX_STORED as u64 + 10) {
            san.record(Violation::Conservation {
                cycle: Cycle::new(i),
                table: 1,
                in_flight: 0,
            });
        }
        assert_eq!(san.violations().len(), MAX_STORED);
        assert_eq!(san.total(), MAX_STORED as u64 + 10);
        assert!(san.report().contains("and 10 more"));
    }

    /// A table count written under tag 8, records and loans apart, still
    /// decodes: as a conservation finding over their sum.
    #[test]
    fn a_tag_8_table_count_decodes_as_conservation() {
        let mut e = gpu_snapshot::Encoder::new();
        e.u8(8);
        for v in [12, 5, 2, 6] {
            e.u64(v);
        }
        let framed = e.finish();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert_eq!(
            Violation::decode(&mut d).unwrap(),
            Violation::Conservation {
                cycle: Cycle::new(12),
                table: 7,
                in_flight: 6,
            }
        );
    }

    #[test]
    fn report_mentions_each_violation_kind() {
        let mut san = Sanitizer::new();
        san.record(Violation::MshrLeak {
            site: Site::Sm(3),
            lines: vec![Addr::new(0x1000)],
        });
        san.check_queue(Site::Partition(1), "rop", 17, 16);
        let r = san.report();
        assert!(r.contains("sm3: MSHR leak"));
        assert!(r.contains("partition1: rop queue holds 17"));
    }

    /// Every label `Sm::audit` or `Partition::audit` can hand to
    /// `check_queue` — the three level-less queues, the L1's two, and the
    /// L2's unsliced, sliced and out-of-range-slice labels — has a
    /// checkpoint tag: a violation naming it decodes to the same label, not
    /// to "unknown".
    #[test]
    fn every_audited_queue_label_survives_the_codec() {
        let l2 = LevelKind::L2;
        let mut labels = vec![
            FRONT_QUEUE,
            FILL_QUEUE,
            ROP_QUEUE,
            LevelKind::L1.queue_label(),
            LevelKind::L1.hit_pipe_label(),
            l2.queue_label(),
            l2.hit_pipe_label(),
        ];
        for slice in 0..=MAX_L2_SLICES {
            labels.push(l2.sliced_queue_label(slice));
            labels.push(l2.sliced_hit_pipe_label(slice));
        }
        for queue in labels {
            let (site, len, capacity) = (Site::Partition(2), 9, 8);
            let v = Violation::QueueOverflow {
                site,
                queue,
                len,
                capacity,
            };
            let mut e = gpu_snapshot::Encoder::new();
            v.encode_state(&mut e);
            let framed = e.finish();
            let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
            assert_eq!(Violation::decode(&mut d).unwrap(), v, "{queue}");
        }
        // The tags are checkpoint bytes: the unsliced labels keep their
        // historical slots and the slices follow, queues before hit pipes.
        assert_eq!(
            QUEUE_NAMES[..7],
            ["front", "l1-hit", "miss", "fill", "rop", "l2-input", "l2-hit"]
        );
        for (i, name) in QUEUE_NAMES[7..].iter().enumerate() {
            let (pipe, slice) = if i < MAX_L2_SLICES {
                ("input", i)
            } else {
                ("hit", i - MAX_L2_SLICES)
            };
            assert_eq!(*name, format!("l2-{pipe}.{slice}"));
        }
    }
}
