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
/// ([`Stamp::stage_label`]), counted in Figure-1 column [`Stamp::column`].
/// The variants are ordered by pipeline position. A load's path ends at
/// `Returned`; a store's or writeback's ends where it retires, at
/// `DramDone` or, absorbed by a write-back L2, at `L2Served`.
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
    /// The L2 served a request that goes no further: an L2 hit left the
    /// hit pipe, or the write-back L2 absorbed a store.
    L2Served,
    /// The reply was injected into the reply network.
    ReplyInject,
    /// The reply was ejected from the reply network at its SM.
    ReplyEject,
    /// Data returned to the SM and the register writeback completed.
    Returned,
}

/// The paper's Figure-1 legend: its eight columns in pipeline order.
pub const FIGURE1_COLUMNS: [&str; 8] = [
    "SM Base",
    "L1toICNT",
    "ICNTtoROP",
    "ROPtoL2Q",
    "L2QtoDRAMQ",
    "DRAM(QtoSch)",
    "DRAM(SchToA)",
    "Fetch2SM",
];

impl Stamp {
    /// All stamps in pipeline order.
    pub const ALL: [Stamp; 12] = [
        Stamp::Issue,
        Stamp::L1Access,
        Stamp::IcntInject,
        Stamp::RopEnter,
        Stamp::L2QueueEnter,
        Stamp::DramQueueEnter,
        Stamp::DramScheduled,
        Stamp::DramDone,
        Stamp::L2Served,
        Stamp::ReplyInject,
        Stamp::ReplyEject,
        Stamp::Returned,
    ];

    /// Index into [`Timeline`] storage.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The index into [`FIGURE1_COLUMNS`] of the column the stage ending at
    /// this stamp is counted in. The stages up to `DramDone` are the first
    /// seven columns in order; the return path's parts (L2 service, reply
    /// queue, reply network, SM writeback) are all Fetch2SM, where the
    /// paper counts them. `Issue` ends no stage.
    pub const fn column(self) -> Option<usize> {
        match self {
            Stamp::Issue => None,
            Stamp::L2Served | Stamp::ReplyInject | Stamp::ReplyEject | Stamp::Returned => Some(7),
            s => Some(s as usize - 1),
        }
    }

    /// The name of the stage that ends at this stamp: its column's label,
    /// or for a part of Fetch2SM that label and the part (a request span's
    /// child slices, one per stage, so no two stages share a name).
    pub const fn stage_label(self) -> Option<&'static str> {
        Some(match self {
            Stamp::L2Served => "Fetch2SM: L2",
            Stamp::ReplyInject => "Fetch2SM: reply queue",
            Stamp::ReplyEject => "Fetch2SM: reply network",
            Stamp::Returned => "Fetch2SM: SM writeback",
            s => match s.column() {
                Some(c) => FIGURE1_COLUMNS[c],
                None => return None,
            },
        })
    }
}

/// A [`Timeline`] slot no stamp has filled.
const ABSENT: u64 = u64::MAX;

/// The cycle stamps collected over a request's lifetime, one `u64` per
/// [`Stamp`], `u64::MAX` for a point not (yet) reached: half the size of an
/// `Option<Cycle>`, on a request that is moved at every hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    stamps: [u64; Stamp::ALL.len()],
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            stamps: [ABSENT; Stamp::ALL.len()],
        }
    }
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records `stamp` at time `now`. Stamping the same point twice keeps
    /// the first value (requests never revisit a stage in this pipeline).
    pub fn record(&mut self, stamp: Stamp, now: Cycle) {
        debug_assert_ne!(now.get(), ABSENT, "a stamp at Cycle::MAX");
        let slot = &mut self.stamps[stamp.index()];
        if *slot == ABSENT {
            *slot = now.get();
        }
    }

    /// Returns the time `stamp` was recorded, if it was.
    pub fn get(&self, stamp: Stamp) -> Option<Cycle> {
        let at = self.stamps[stamp.index()];
        (at != ABSENT).then(|| Cycle::new(at))
    }

    /// Total lifetime (issue to return), if both endpoints were stamped.
    pub fn total_latency(&self) -> Option<u64> {
        Some(self.get(Stamp::Returned)?.since(self.get(Stamp::Issue)?))
    }

    /// Returns `true` once the request has fully returned.
    pub fn is_complete(&self) -> bool {
        self.get(Stamp::Issue).is_some() && self.get(Stamp::Returned).is_some()
    }

    /// The last point stamped after `Issue`: `Returned` for a load that
    /// came back, the hop where a store or writeback retired.
    pub fn end(&self) -> Option<Cycle> {
        Stamp::ALL[1..].iter().rev().find_map(|&s| self.get(s))
    }

    /// The Figure-1 cut of a timeline: one `(stamp, start, end)` per
    /// present stamp after `Issue`, in pipeline order, where `start` is the
    /// previous present stamp's cycle — so the intervals tile
    /// `[Issue, end]` ([`Timeline::end`]), and a stage the request skipped
    /// (an L2 hit has no DRAM stamps) folds into the next one it did reach.
    /// `None` without an issue stamp or any stamp after it.
    pub fn stages(&self) -> Option<impl Iterator<Item = (Stamp, Cycle, Cycle)> + '_> {
        let mut prev = self.get(Stamp::Issue)?;
        self.end()?;
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
        for &slot in &self.stamps {
            e.opt_u64((slot != ABSENT).then_some(slot));
        }
    }

    /// Decodes a timeline written by [`Timeline::encode_state`].
    ///
    /// # Errors
    ///
    /// Rejects a stamp at the absent sentinel and propagates decoder
    /// errors on truncated or corrupt input.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let mut t = Timeline::new();
        for slot in &mut t.stamps {
            *slot = match d.opt_u64()? {
                Some(ABSENT) => return Err(SnapshotError::InvalidValue("stamp at Cycle::MAX")),
                at => at.unwrap_or(ABSENT),
            };
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
        assert_eq!(Stamp::Returned.index(), 11);
    }

    #[test]
    fn every_stamp_but_issue_ends_a_labelled_stage() {
        assert_eq!(Stamp::Issue.stage_label(), None);
        let labels: Vec<_> = Stamp::ALL[1..].iter().map(|s| s.stage_label()).collect();
        assert!(labels.iter().all(Option::is_some));
        assert_eq!(labels[0], Some("SM Base"));
        // The first seven stages are the first seven columns, in order; the
        // return path's four parts are all Fetch2SM.
        let columns: Vec<_> = Stamp::ALL[1..]
            .iter()
            .map(|s| s.column().unwrap())
            .collect();
        assert_eq!(columns, [0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]);
        assert_eq!(labels[6], Some(FIGURE1_COLUMNS[6]));
        assert!(labels[7..]
            .iter()
            .all(|l| l.unwrap().starts_with("Fetch2SM: ")));
        // A span's child slices need distinct names.
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), labels.len());
    }

    #[test]
    fn stages_tile_the_lifetime_and_skip_absent_stamps() {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(10));
        assert!(t.stages().is_none(), "nothing after issue yet");
        t.record(Stamp::L1Access, Cycle::new(40));
        t.record(Stamp::L2QueueEnter, Cycle::new(170));
        t.record(Stamp::L2Served, Cycle::new(190));
        t.record(Stamp::Returned, Cycle::new(310));
        let c = Cycle::new;
        assert_eq!(
            t.stages().unwrap().collect::<Vec<_>>(),
            [
                (Stamp::L1Access, c(10), c(40)),
                (Stamp::L2QueueEnter, c(40), c(170)),
                (Stamp::L2Served, c(170), c(190)),
                (Stamp::Returned, c(190), c(310)),
            ]
        );
    }

    #[test]
    fn a_store_ends_where_it_retires() {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(5));
        t.record(Stamp::L2QueueEnter, Cycle::new(90));
        t.record(Stamp::L2Served, Cycle::new(91));
        assert_eq!(t.end(), Some(Cycle::new(91)));
        assert_eq!(t.total_latency(), None, "a store never returns");
        let last = t.stages().unwrap().last();
        assert_eq!(
            last,
            Some((Stamp::L2Served, Cycle::new(90), Cycle::new(91)))
        );
    }

    #[test]
    fn a_request_is_no_larger_than_twelve_packed_stamps_allow() {
        // Twelve `Option<Cycle>` slots would take 192 B; the nine of the
        // previous format made a 184 B request.
        assert_eq!(std::mem::size_of::<Timeline>(), 96);
        assert_eq!(std::mem::size_of::<MemRequest>(), 136);
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
        r.timeline.record(Stamp::ReplyEject, Cycle::new(90));

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
    fn timeline_decode_rejects_a_stamp_at_the_sentinel() {
        let mut e = Encoder::new();
        e.opt_u64(Some(u64::MAX));
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        assert!(matches!(
            Timeline::decode(&mut d),
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
