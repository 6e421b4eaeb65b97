//! Memory request objects and their lifetime timelines.
//!
//! A [`MemRequest`] is one line-granular memory transaction traversing the
//! global/local memory pipeline (the paper calls these "memory fetches").
//! Each request carries a [`Timeline`] that pipeline components stamp as the
//! request moves between stages. The paper's Figure-1 cut of that lifetime
//! into named stages is written down here and nowhere else: the legend is
//! [`Stamp::stage_label`], the cut itself is [`Timeline::stages`], and the
//! breakdown in `latency-core` and the request spans in `gpu-trace` both
//! read them.

use std::fmt;

use gpu_types::{Addr, Cycle, SmId};

/// Unique identifier of a memory request within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id (normally done by the request factory in the SM).
    pub const fn new(id: u64) -> Self {
        RequestId(id)
    }

    /// Raw id.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// What kind of access a request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read a line (generated by loads and by atomics' read phase).
    Load,
    /// Write-through a line or part of one.
    Store,
}

/// Memory space of the originating instruction, as far as the memory
/// pipeline cares: `Local` matters because Kepler-style configs cache local
/// but not global accesses in L1 (paper §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSpace {
    /// Global memory access.
    Global,
    /// Local (thread-private) access, already translated to a device address.
    Local,
}

/// Transition points stamped on a request's [`Timeline`].
///
/// Each stamp marks *entry into* the named point; the time between two
/// consecutive present stamps is the stage that *ends* at the later one
/// ([`Stamp::stage_label`]). The variants are ordered by pipeline position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stamp {
    /// Warp issued the memory instruction (request creation).
    Issue,
    /// Request probed the L1 data cache (end of "SM Base" time).
    L1Access,
    /// Request was injected into the interconnect (left the L1 miss queue).
    IcntInject,
    /// Request was ejected at its memory partition and entered the ROP queue.
    RopEnter,
    /// Request left the ROP pipeline and entered the L2 access queue.
    L2QueueEnter,
    /// Request missed in L2 and entered the DRAM controller queue.
    DramQueueEnter,
    /// DRAM scheduler selected the request for service.
    DramScheduled,
    /// DRAM access (bank timing + data burst) completed.
    DramDone,
    /// Data returned to the SM and the register writeback completed.
    Returned,
}

impl Stamp {
    /// All stamps in pipeline order.
    pub const ALL: [Stamp; 9] = [
        Stamp::Issue,
        Stamp::L1Access,
        Stamp::IcntInject,
        Stamp::RopEnter,
        Stamp::L2QueueEnter,
        Stamp::DramQueueEnter,
        Stamp::DramScheduled,
        Stamp::DramDone,
        Stamp::Returned,
    ];

    /// Index into [`Timeline`] storage.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The Figure-1 legend: the paper's label for the stage that *ends* at
    /// this stamp. `Issue` starts the timeline and ends no stage.
    pub const fn stage_label(self) -> Option<&'static str> {
        Some(match self {
            Stamp::Issue => return None,
            Stamp::L1Access => "SM Base",
            Stamp::IcntInject => "L1toICNT",
            Stamp::RopEnter => "ICNTtoROP",
            Stamp::L2QueueEnter => "ROPtoL2Q",
            Stamp::DramQueueEnter => "L2QtoDRAMQ",
            Stamp::DramScheduled => "DRAM(QtoSch)",
            Stamp::DramDone => "DRAM(SchToA)",
            Stamp::Returned => "Fetch2SM",
        })
    }
}

/// The cycle stamps collected over a request's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    stamps: [Option<Cycle>; 9],
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records `stamp` at time `now`. Stamping the same point twice keeps
    /// the first value (requests never revisit a stage in this pipeline).
    pub fn record(&mut self, stamp: Stamp, now: Cycle) {
        let slot = &mut self.stamps[stamp.index()];
        if slot.is_none() {
            *slot = Some(now);
        }
    }

    /// Returns the time `stamp` was recorded, if it was.
    pub fn get(&self, stamp: Stamp) -> Option<Cycle> {
        self.stamps[stamp.index()]
    }

    /// Total lifetime (issue to return), if both endpoints were stamped.
    pub fn total_latency(&self) -> Option<u64> {
        Some(self.get(Stamp::Returned)?.since(self.get(Stamp::Issue)?))
    }

    /// Returns `true` once the request has fully returned.
    pub fn is_complete(&self) -> bool {
        self.get(Stamp::Issue).is_some() && self.get(Stamp::Returned).is_some()
    }

    /// The Figure-1 cut of a complete timeline: one `(stamp, start, end)`
    /// per present stamp after `Issue`, in pipeline order, where `start` is
    /// the previous present stamp's cycle — so the intervals tile
    /// `[Issue, Returned]`, and a stage the request skipped (an L2 hit has
    /// no DRAM stamps) folds into the next one it did reach. `None` for an
    /// incomplete timeline (missing issue or return).
    pub fn stages(&self) -> Option<impl Iterator<Item = (Stamp, Cycle, Cycle)> + '_> {
        let mut prev = self.get(Stamp::Issue)?;
        self.get(Stamp::Returned)?;
        Some(Stamp::ALL[1..].iter().filter_map(move |&stamp| {
            let end = self.get(stamp)?;
            Some((stamp, std::mem::replace(&mut prev, end), end))
        }))
    }
}

/// One line-granular memory transaction.
#[derive(Debug, Clone)]
pub struct MemRequest {
    /// Unique id.
    pub id: RequestId,
    /// Line-aligned device address.
    pub addr: Addr,
    /// Transaction size in bytes (one cache line).
    pub size: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Global or local space of the originating instruction.
    pub space: PipelineSpace,
    /// SM that issued the request (return routing).
    pub sm: SmId,
    /// Opaque correlation token the SM uses to match returns to warps
    /// (warp slot, pending-op index, …).
    pub token: u64,
    /// Skip the L1 even if it serves this space (atomics are resolved at
    /// the memory partition on the modeled GPUs).
    pub bypass_l1: bool,
    /// Set when the request merged into an L1 MSHR entry instead of
    /// traveling downstream itself; merged requests are excluded from the
    /// per-stage breakdown (they share their primary's fetch) but still
    /// count for instruction-level latency.
    pub l1_merged: bool,
    /// Lifetime stamps.
    pub timeline: Timeline,
}

impl MemRequest {
    /// Creates a request stamped with its issue time.
    #[allow(clippy::too_many_arguments)] // established constructor; callers pass every field
    pub fn new(
        id: RequestId,
        addr: Addr,
        size: u32,
        kind: AccessKind,
        space: PipelineSpace,
        sm: SmId,
        token: u64,
        now: Cycle,
    ) -> Self {
        let mut timeline = Timeline::new();
        timeline.record(Stamp::Issue, now);
        MemRequest {
            id,
            addr,
            size,
            kind,
            space,
            sm,
            token,
            bypass_l1: false,
            l1_merged: false,
            timeline,
        }
    }

    /// Returns `true` for loads (the requests the paper's analysis traces).
    pub fn is_load(&self) -> bool {
        self.kind == AccessKind::Load
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?} {} @{} ({:?})",
            self.id, self.kind, self.addr, self.sm, self.space
        )
    }
}

// ---- snapshot codec -------------------------------------------------------

use gpu_snapshot::{Decoder, Encoder, SnapshotError};

impl Timeline {
    /// Serializes the stamp array into a checkpoint.
    pub fn encode_state(&self, e: &mut Encoder) {
        for slot in &self.stamps {
            e.opt_u64(slot.map(Cycle::get));
        }
    }

    /// Decodes a timeline written by [`Timeline::encode_state`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors on truncated or corrupt input.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let mut t = Timeline::new();
        for slot in &mut t.stamps {
            *slot = d.opt_u64()?.map(Cycle::new);
        }
        Ok(t)
    }
}

impl MemRequest {
    /// Serializes the complete request, timeline included.
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u64(self.id.get());
        e.u64(self.addr.get());
        e.u32(self.size);
        e.u8(match self.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
        });
        e.u8(match self.space {
            PipelineSpace::Global => 0,
            PipelineSpace::Local => 1,
        });
        e.u32(self.sm.get());
        e.u64(self.token);
        e.bool(self.bypass_l1);
        e.bool(self.l1_merged);
        self.timeline.encode_state(e);
    }

    /// Decodes a request written by [`MemRequest::encode_state`].
    ///
    /// # Errors
    ///
    /// Rejects unknown kind/space tags with
    /// [`SnapshotError::InvalidValue`].
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let id = RequestId::new(d.u64()?);
        let addr = Addr::new(d.u64()?);
        let size = d.u32()?;
        let kind = match d.u8()? {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            _ => return Err(SnapshotError::InvalidValue("unknown AccessKind tag")),
        };
        let space = match d.u8()? {
            0 => PipelineSpace::Global,
            1 => PipelineSpace::Local,
            _ => return Err(SnapshotError::InvalidValue("unknown PipelineSpace tag")),
        };
        let sm = SmId::new(d.u32()?);
        let token = d.u64()?;
        let bypass_l1 = d.bool()?;
        let l1_merged = d.bool()?;
        let timeline = Timeline::decode(d)?;
        Ok(MemRequest {
            id,
            addr,
            size,
            kind,
            space,
            sm,
            token,
            bypass_l1,
            l1_merged,
            timeline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_record_once() {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(10));
        t.record(Stamp::Issue, Cycle::new(20));
        assert_eq!(t.get(Stamp::Issue), Some(Cycle::new(10)));
        assert_eq!(t.get(Stamp::Returned), None);
        assert!(!t.is_complete());
    }

    #[test]
    fn total_latency_needs_both_ends() {
        let mut t = Timeline::new();
        assert_eq!(t.total_latency(), None);
        t.record(Stamp::Issue, Cycle::new(100));
        assert_eq!(t.total_latency(), None);
        t.record(Stamp::Returned, Cycle::new(545));
        assert_eq!(t.total_latency(), Some(445));
        assert!(t.is_complete());
    }

    #[test]
    fn stamp_order_matches_pipeline() {
        for w in Stamp::ALL.windows(2) {
            assert!(w[0] < w[1], "{:?} must precede {:?}", w[0], w[1]);
        }
        assert_eq!(Stamp::Issue.index(), 0);
        assert_eq!(Stamp::Returned.index(), 8);
    }

    #[test]
    fn every_stamp_but_issue_ends_a_labelled_stage() {
        assert_eq!(Stamp::Issue.stage_label(), None);
        let labels: Vec<_> = Stamp::ALL[1..].iter().map(|s| s.stage_label()).collect();
        assert!(labels.iter().all(Option::is_some));
        assert_eq!(labels[0], Some("SM Base"));
        assert_eq!(labels[7], Some("Fetch2SM"));
    }

    #[test]
    fn stages_tile_the_lifetime_and_skip_absent_stamps() {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(10));
        assert!(t.stages().is_none(), "no return stamp yet");
        t.record(Stamp::L1Access, Cycle::new(40));
        t.record(Stamp::L2QueueEnter, Cycle::new(170));
        t.record(Stamp::Returned, Cycle::new(310));
        let c = Cycle::new;
        assert_eq!(
            t.stages().unwrap().collect::<Vec<_>>(),
            [
                (Stamp::L1Access, c(10), c(40)),
                (Stamp::L2QueueEnter, c(40), c(170)),
                (Stamp::Returned, c(170), c(310)),
            ]
        );
    }

    #[test]
    fn request_codec_round_trips_exactly() {
        let mut r = MemRequest::new(
            RequestId::new(7),
            Addr::new(0x80),
            128,
            AccessKind::Store,
            PipelineSpace::Local,
            SmId::new(2),
            42,
            Cycle::new(33),
        );
        r.bypass_l1 = true;
        r.l1_merged = true;
        r.timeline.record(Stamp::IcntInject, Cycle::new(40));

        let mut e = Encoder::new();
        r.encode_state(&mut e);
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        let back = MemRequest::decode(&mut d).unwrap();
        d.expect_end().unwrap();

        assert_eq!(back.id, r.id);
        assert_eq!(back.addr, r.addr);
        assert_eq!(back.size, r.size);
        assert_eq!(back.kind, r.kind);
        assert_eq!(back.space, r.space);
        assert_eq!(back.sm, r.sm);
        assert_eq!(back.token, r.token);
        assert_eq!(back.bypass_l1, r.bypass_l1);
        assert_eq!(back.l1_merged, r.l1_merged);
        assert_eq!(back.timeline, r.timeline);

        // Re-encoding the decoded value reproduces the original bytes.
        let mut e2 = Encoder::new();
        back.encode_state(&mut e2);
        assert_eq!(e2.finish(), framed);
    }

    #[test]
    fn request_decode_rejects_bad_tags() {
        let mut e = Encoder::new();
        e.u64(1); // id
        e.u64(0x80); // addr
        e.u32(128); // size
        e.u8(9); // bogus AccessKind
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        assert!(matches!(
            MemRequest::decode(&mut d),
            Err(SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    fn request_is_stamped_at_creation() {
        let r = MemRequest::new(
            RequestId::new(7),
            Addr::new(0x80),
            128,
            AccessKind::Load,
            PipelineSpace::Global,
            SmId::new(2),
            42,
            Cycle::new(33),
        );
        assert_eq!(r.timeline.get(Stamp::Issue), Some(Cycle::new(33)));
        assert!(r.is_load());
        assert_eq!(r.to_string(), "req7 Load 0x80 @sm2 (Global)");
    }
}
