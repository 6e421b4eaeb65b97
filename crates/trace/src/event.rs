//! The event taxonomy of the tracing layer.
//!
//! Every discrete thing the simulator can report — an SM stalling, a
//! coalesced access, an MSHR transition, a crossbar hop, a queue move, a
//! DRAM row-buffer command — becomes one [`TraceEvent`]: a cycle, a site,
//! and a payload. Events are plain `Copy` data so recording one is a couple
//! of stores into a pre-grown buffer, never an allocation.

use gpu_types::json::Writer;

/// Why an SM issued nothing on a cycle with live warps.
///
/// This extends the paper's Figure-2 exposed/hidden split: a zero-issue
/// cycle is not just *exposed*, it is exposed *for a reason*. The reasons
/// are tallied per SM ([`StallBreakdown`]) and attributed per load
/// (`LoadInstrRecord::stall_reasons` in `gpu-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// A warp's next instruction waits on a register an outstanding
    /// load/ALU op still owns — the classic exposed-latency case.
    Scoreboard,
    /// The L1 MSHR table is full, so misses cannot leave the SM.
    MshrFull,
    /// The L1 miss queue toward the interconnect is full (network
    /// backpressure reaching into the SM).
    IcntBackpressure,
    /// Warps are parked at a CTA barrier.
    Barrier,
    /// None of the above: front-end/writeback structural limits or warps
    /// draining after exit.
    Other,
}

impl StallReason {
    /// All reasons, in attribution-priority order.
    pub const ALL: [StallReason; 5] = [
        StallReason::Scoreboard,
        StallReason::MshrFull,
        StallReason::IcntBackpressure,
        StallReason::Barrier,
        StallReason::Other,
    ];

    /// Number of reasons.
    pub const COUNT: usize = Self::ALL.len();

    /// Index into [`StallBreakdown`] storage.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (JSONL/CSV key).
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::MshrFull => "mshr_full",
            StallReason::IcntBackpressure => "icnt_backpressure",
            StallReason::Barrier => "barrier",
            StallReason::Other => "other",
        }
    }
}

/// Per-reason stall-cycle counters (one slot per [`StallReason`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    counts: [u64; StallReason::COUNT],
}

impl StallBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        StallBreakdown::default()
    }

    /// Adds one stall cycle to `reason`.
    pub fn bump(&mut self, reason: StallReason) {
        self.bump_by(reason, 1);
    }

    /// Adds `cycles` stall cycles to `reason` at once (an idle interval the
    /// cycle loop skipped: the machine's state, and so the reason, is
    /// constant across it).
    pub fn bump_by(&mut self, reason: StallReason, cycles: u64) {
        self.counts[reason.index()] += cycles;
    }

    /// Stall cycles attributed to `reason`.
    pub fn get(&self, reason: StallReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total stall cycles across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Per-reason counts accumulated since an `earlier` snapshot of the same
    /// counter set (used to attribute a load's lifetime stalls).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not a prefix snapshot (any
    /// reason counted more in `earlier` than in `self`).
    pub fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        let mut out = StallBreakdown::default();
        for (i, slot) in out.counts.iter_mut().enumerate() {
            debug_assert!(
                self.counts[i] >= earlier.counts[i],
                "stall counters must be monotonic"
            );
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Iterates `(reason, count)` pairs in [`StallReason::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL
            .iter()
            .map(|&r| (r, self.counts[r.index()]))
    }

    /// The raw per-reason counters in [`StallReason::ALL`] order (snapshot
    /// codecs serialize breakdowns through this).
    pub fn to_array(&self) -> [u64; StallReason::COUNT] {
        self.counts
    }

    /// Rebuilds a breakdown from counters in [`StallReason::ALL`] order.
    pub fn from_array(counts: [u64; StallReason::COUNT]) -> Self {
        StallBreakdown { counts }
    }
}

/// Which pipeline component recorded an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceSite {
    /// A streaming multiprocessor, by index.
    Sm(u32),
    /// A memory partition, by index.
    Partition(u32),
    /// The whole-GPU cycle loop (interconnect, dispatch).
    Gpu,
}

/// Which crossbar network a hop event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDir {
    /// SM → partition request network.
    Request,
    /// Partition → SM reply network.
    Reply,
}

impl NetDir {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NetDir::Request => "req",
            NetDir::Reply => "reply",
        }
    }
}

/// Which bounded queue a queue-transition event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// The partition's ROP pipeline queue.
    Rop,
    /// The L2 slice input queue.
    L2Input,
    /// The DRAM controller queue.
    DramController,
}

impl QueueKind {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Rop => "rop",
            QueueKind::L2Input => "l2_input",
            QueueKind::DramController => "dram",
        }
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An SM issued nothing for `cycles` consecutive cycles despite live
    /// warps, for one reason throughout: the interval ends just before the
    /// event's cycle, so it covers `cycle - cycles .. cycle`. Recorded
    /// when the interval closes — the SM issues or its reason changes, a
    /// checkpoint is written or the trace is taken.
    Stall {
        /// Dominant reason among the blocked warps.
        reason: StallReason,
        /// Length of the interval, at least 1.
        cycles: u64,
    },
    /// The coalescer turned one warp memory access into line transactions.
    Coalesce {
        /// Issuing warp slot.
        warp: u32,
        /// Active lanes in the access.
        accesses: u32,
        /// Line transactions generated.
        lines: u32,
    },
    /// An L1/L2 MSHR entry was allocated for a line.
    MshrAllocate {
        /// Line address.
        line: u64,
    },
    /// A request merged into an existing MSHR entry.
    MshrMerge {
        /// Line address.
        line: u64,
    },
    /// A fill released an MSHR entry and woke its merged waiters.
    MshrFill {
        /// Line address.
        line: u64,
        /// Waiters woken.
        waiters: u32,
    },
    /// A request entered a crossbar network.
    IcntInject {
        /// Which network.
        net: NetDir,
        /// Request id.
        req: u64,
        /// Source port index.
        port: u32,
    },
    /// A request left a crossbar network.
    IcntEject {
        /// Which network.
        net: NetDir,
        /// Request id.
        req: u64,
        /// Destination port index.
        port: u32,
    },
    /// A request entered a bounded queue.
    QueueEnter {
        /// Which queue.
        queue: QueueKind,
        /// Request id.
        req: u64,
    },
    /// A request left a bounded queue.
    QueueLeave {
        /// Which queue.
        queue: QueueKind,
        /// Request id.
        req: u64,
    },
    /// DRAM activated a row in a bank.
    RowActivate {
        /// Bank index.
        bank: u32,
        /// Row number.
        row: u64,
    },
    /// DRAM precharged (closed) a bank's open row.
    RowPrecharge {
        /// Bank index.
        bank: u32,
        /// Row that was open.
        row: u64,
    },
    /// The cycle loop wrote a checkpoint. Recorded *before* the snapshot is
    /// taken so the event itself lands inside the serialized tracer state
    /// and a resumed run replays an identical event stream.
    Checkpoint {
        /// Framed checkpoint size in bytes (0 when recorded pre-snapshot,
        /// before the size is known).
        bytes: u64,
    },
    /// A sweep grid point was answered from the content-addressed result
    /// cache instead of being simulated.
    CacheHit {
        /// The stable cache key (config + workload content hash).
        key: u64,
    },
}

impl EventKind {
    /// Short machine-readable name (JSONL `kind` field, Chrome event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Stall { .. } => "stall",
            EventKind::Coalesce { .. } => "coalesce",
            EventKind::MshrAllocate { .. } => "mshr_alloc",
            EventKind::MshrMerge { .. } => "mshr_merge",
            EventKind::MshrFill { .. } => "mshr_fill",
            EventKind::IcntInject { .. } => "icnt_inject",
            EventKind::IcntEject { .. } => "icnt_eject",
            EventKind::QueueEnter { .. } => "queue_enter",
            EventKind::QueueLeave { .. } => "queue_leave",
            EventKind::RowActivate { .. } => "row_activate",
            EventKind::RowPrecharge { .. } => "row_precharge",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::CacheHit { .. } => "cache_hit",
        }
    }

    /// Writes the payload as members of the object `w` has open. This is
    /// the one spelling of the payload keys: the Chrome exporter puts them
    /// in an event's `args`, the JSONL exporter flattens them into the row.
    pub fn write_fields(&self, w: &mut Writer) {
        match *self {
            Self::Stall { reason, cycles } => {
                w.field("reason", reason.name()).field("cycles", cycles)
            }
            Self::Coalesce {
                warp,
                accesses,
                lines,
            } => w
                .field("warp", warp)
                .field("accesses", accesses)
                .field("lines", lines),
            Self::MshrAllocate { line } | Self::MshrMerge { line } => w.field("line", line),
            Self::MshrFill { line, waiters } => w.field("line", line).field("waiters", waiters),
            Self::IcntInject { net, req, port } | Self::IcntEject { net, req, port } => w
                .field("net", net.name())
                .field("req", req)
                .field("port", port),
            Self::QueueEnter { queue, req } | Self::QueueLeave { queue, req } => {
                w.field("queue", queue.name()).field("req", req)
            }
            Self::RowActivate { bank, row } | Self::RowPrecharge { bank, row } => {
                w.field("bank", bank).field("row", row)
            }
            Self::Checkpoint { bytes } => w.field("bytes", bytes),
            Self::CacheHit { key } => w.field("key", key),
        };
    }
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle.
    pub cycle: u64,
    /// Recording component.
    pub site: TraceSite,
    /// Payload.
    pub kind: EventKind,
}

// ---- snapshot codec --------------------------------------------------------
//
// Events are `Copy` data with small closed enums, so the codec is a flat
// tag-plus-fields layout. Tag values are part of the checkpoint format and
// must never be reordered; new variants append new tags.

use gpu_snapshot::{Decoder, Encoder, SnapshotError};

impl TraceSite {
    fn encode_state(&self, e: &mut Encoder) {
        match *self {
            TraceSite::Sm(i) => {
                e.u8(0);
                e.u32(i);
            }
            TraceSite::Partition(i) => {
                e.u8(1);
                e.u32(i);
            }
            TraceSite::Gpu => e.u8(2),
        }
    }

    fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(match d.u8()? {
            0 => TraceSite::Sm(d.u32()?),
            1 => TraceSite::Partition(d.u32()?),
            2 => TraceSite::Gpu,
            _ => return Err(SnapshotError::InvalidValue("unknown trace site tag")),
        })
    }
}

impl NetDir {
    fn encode_state(&self, e: &mut Encoder) {
        e.u8(match self {
            NetDir::Request => 0,
            NetDir::Reply => 1,
        });
    }

    fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(match d.u8()? {
            0 => NetDir::Request,
            1 => NetDir::Reply,
            _ => return Err(SnapshotError::InvalidValue("unknown net direction tag")),
        })
    }
}

impl QueueKind {
    fn encode_state(&self, e: &mut Encoder) {
        e.u8(match self {
            QueueKind::Rop => 0,
            QueueKind::L2Input => 1,
            QueueKind::DramController => 2,
        });
    }

    fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(match d.u8()? {
            0 => QueueKind::Rop,
            1 => QueueKind::L2Input,
            2 => QueueKind::DramController,
            _ => return Err(SnapshotError::InvalidValue("unknown queue kind tag")),
        })
    }
}

impl StallReason {
    fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        StallReason::ALL
            .get(d.u8()? as usize)
            .copied()
            .ok_or(SnapshotError::InvalidValue("unknown stall reason tag"))
    }
}

impl EventKind {
    fn encode_state(&self, e: &mut Encoder) {
        match *self {
            EventKind::Stall { reason, cycles } => {
                e.u8(0);
                e.u8(reason.index() as u8);
                e.u64(cycles);
            }
            EventKind::Coalesce {
                warp,
                accesses,
                lines,
            } => {
                e.u8(1);
                e.u32(warp);
                e.u32(accesses);
                e.u32(lines);
            }
            EventKind::MshrAllocate { line } => {
                e.u8(2);
                e.u64(line);
            }
            EventKind::MshrMerge { line } => {
                e.u8(3);
                e.u64(line);
            }
            EventKind::MshrFill { line, waiters } => {
                e.u8(4);
                e.u64(line);
                e.u32(waiters);
            }
            EventKind::IcntInject { net, req, port } => {
                e.u8(5);
                net.encode_state(e);
                e.u64(req);
                e.u32(port);
            }
            EventKind::IcntEject { net, req, port } => {
                e.u8(6);
                net.encode_state(e);
                e.u64(req);
                e.u32(port);
            }
            EventKind::QueueEnter { queue, req } => {
                e.u8(7);
                queue.encode_state(e);
                e.u64(req);
            }
            EventKind::QueueLeave { queue, req } => {
                e.u8(8);
                queue.encode_state(e);
                e.u64(req);
            }
            EventKind::RowActivate { bank, row } => {
                e.u8(9);
                e.u32(bank);
                e.u64(row);
            }
            EventKind::RowPrecharge { bank, row } => {
                e.u8(10);
                e.u32(bank);
                e.u64(row);
            }
            EventKind::Checkpoint { bytes } => {
                e.u8(11);
                e.u64(bytes);
            }
            EventKind::CacheHit { key } => {
                e.u8(12);
                e.u64(key);
            }
        }
    }

    fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(match d.u8()? {
            0 => EventKind::Stall {
                reason: StallReason::decode(d)?,
                cycles: d.u64()?,
            },
            1 => EventKind::Coalesce {
                warp: d.u32()?,
                accesses: d.u32()?,
                lines: d.u32()?,
            },
            2 => EventKind::MshrAllocate { line: d.u64()? },
            3 => EventKind::MshrMerge { line: d.u64()? },
            4 => EventKind::MshrFill {
                line: d.u64()?,
                waiters: d.u32()?,
            },
            5 => EventKind::IcntInject {
                net: NetDir::decode(d)?,
                req: d.u64()?,
                port: d.u32()?,
            },
            6 => EventKind::IcntEject {
                net: NetDir::decode(d)?,
                req: d.u64()?,
                port: d.u32()?,
            },
            7 => EventKind::QueueEnter {
                queue: QueueKind::decode(d)?,
                req: d.u64()?,
            },
            8 => EventKind::QueueLeave {
                queue: QueueKind::decode(d)?,
                req: d.u64()?,
            },
            9 => EventKind::RowActivate {
                bank: d.u32()?,
                row: d.u64()?,
            },
            10 => EventKind::RowPrecharge {
                bank: d.u32()?,
                row: d.u64()?,
            },
            11 => EventKind::Checkpoint { bytes: d.u64()? },
            12 => EventKind::CacheHit { key: d.u64()? },
            _ => return Err(SnapshotError::InvalidValue("unknown event kind tag")),
        })
    }
}

impl TraceEvent {
    /// Serializes one event (cycle, site, tagged payload).
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u64(self.cycle);
        self.site.encode_state(e);
        self.kind.encode_state(e);
    }

    /// Decodes one event, rejecting unknown tags with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::InvalidValue`] on an unknown site, kind,
    /// reason, net or queue tag and on a stall interval that is empty or
    /// starts before cycle 0, and propagates decoder errors.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let event = TraceEvent {
            cycle: d.u64()?,
            site: TraceSite::decode(d)?,
            kind: EventKind::decode(d)?,
        };
        match event.kind {
            EventKind::Stall { cycles, .. } if cycles == 0 || cycles > event.cycle => Err(
                SnapshotError::InvalidValue("stall interval empty or before cycle 0"),
            ),
            _ => Ok(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_breakdown_accumulates_and_diffs() {
        let mut b = StallBreakdown::new();
        b.bump(StallReason::Scoreboard);
        b.bump(StallReason::Scoreboard);
        b.bump(StallReason::Barrier);
        assert_eq!(b.get(StallReason::Scoreboard), 2);
        assert_eq!(b.total(), 3);

        let snapshot = b;
        b.bump(StallReason::MshrFull);
        b.bump(StallReason::Scoreboard);
        let delta = b.since(&snapshot);
        assert_eq!(delta.get(StallReason::MshrFull), 1);
        assert_eq!(delta.get(StallReason::Scoreboard), 1);
        assert_eq!(delta.total(), 2);
    }

    #[test]
    fn merge_sums_per_reason() {
        let mut a = StallBreakdown::new();
        a.bump(StallReason::Other);
        let mut b = StallBreakdown::new();
        b.bump(StallReason::Other);
        b.bump(StallReason::Barrier);
        a.merge(&b);
        assert_eq!(a.get(StallReason::Other), 2);
        assert_eq!(a.get(StallReason::Barrier), 1);
    }

    #[test]
    fn reason_indices_cover_all() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        let names: Vec<_> = StallReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), StallReason::COUNT);
    }

    /// One event of every kind, covering each tag and payload shape.
    fn one_of_each_kind() -> Vec<TraceEvent> {
        let kinds = [
            EventKind::Stall {
                reason: StallReason::IcntBackpressure,
                cycles: 17,
            },
            EventKind::Coalesce {
                warp: 3,
                accesses: 32,
                lines: 5,
            },
            EventKind::MshrAllocate { line: 0x1280 },
            EventKind::MshrMerge { line: 0x1280 },
            EventKind::MshrFill {
                line: 0x1280,
                waiters: 2,
            },
            EventKind::IcntInject {
                net: NetDir::Request,
                req: 12,
                port: 0,
            },
            EventKind::IcntEject {
                net: NetDir::Reply,
                req: 12,
                port: 7,
            },
            EventKind::QueueEnter {
                queue: QueueKind::L2Input,
                req: 44,
            },
            EventKind::QueueLeave {
                queue: QueueKind::DramController,
                req: 44,
            },
            EventKind::RowActivate { bank: 5, row: 900 },
            EventKind::RowPrecharge { bank: 5, row: 900 },
            EventKind::Checkpoint { bytes: 1 << 20 },
            EventKind::CacheHit {
                key: 0xdead_beef_cafe_f00d,
            },
        ];
        let sites = [TraceSite::Sm(2), TraceSite::Partition(1), TraceSite::Gpu];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                cycle: 100 + i as u64,
                site: sites[i % sites.len()],
                kind,
            })
            .collect()
    }

    #[test]
    fn event_codec_round_trips_every_kind() {
        let events = one_of_each_kind();
        let mut e = gpu_snapshot::Encoder::new();
        for ev in &events {
            ev.encode_state(&mut e);
        }
        let framed = e.finish();

        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        let mut decoded = Vec::new();
        for _ in 0..events.len() {
            decoded.push(TraceEvent::decode(&mut d).unwrap());
        }
        d.expect_end().unwrap();
        assert_eq!(decoded, events);

        // Re-encoding the decoded events reproduces identical bytes.
        let mut e2 = gpu_snapshot::Encoder::new();
        for ev in &decoded {
            ev.encode_state(&mut e2);
        }
        assert_eq!(e2.finish(), framed);
    }

    #[test]
    fn event_decode_rejects_unknown_tags() {
        // A site tag of 9 does not exist.
        let mut e = gpu_snapshot::Encoder::new();
        e.u64(5);
        e.u8(9);
        let framed = e.finish();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            TraceEvent::decode(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));

        // A stall interval can be neither empty nor start before cycle 0.
        for cycles in [0, 6] {
            let mut e = gpu_snapshot::Encoder::new();
            let kind = EventKind::Stall {
                reason: StallReason::Other,
                cycles,
            };
            TraceEvent {
                cycle: 5,
                site: TraceSite::Gpu,
                kind,
            }
            .encode_state(&mut e);
            let framed = e.finish();
            let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
            assert!(TraceEvent::decode(&mut d).is_err(), "{cycles} cycles");
        }

        // A kind tag of 200 does not exist.
        let mut e = gpu_snapshot::Encoder::new();
        e.u64(5);
        e.u8(2); // Gpu site
        e.u8(200);
        let framed = e.finish();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            TraceEvent::decode(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    fn breakdown_array_round_trip() {
        let mut b = StallBreakdown::new();
        b.bump(StallReason::Barrier);
        b.bump(StallReason::Other);
        b.bump(StallReason::Other);
        assert_eq!(StallBreakdown::from_array(b.to_array()), b);
    }

    #[test]
    fn event_names_are_stable() {
        let e = TraceEvent {
            cycle: 7,
            site: TraceSite::Sm(3),
            kind: EventKind::MshrAllocate { line: 0x80 },
        };
        assert_eq!(e.kind.name(), "mshr_alloc");
        assert_eq!(QueueKind::DramController.name(), "dram");
        assert_eq!(NetDir::Reply.name(), "reply");
    }
}
