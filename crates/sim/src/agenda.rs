//! What the run loop knows about each SM and partition without visiting
//! it: the cycle its next tick is due, the cycle the head packet at its
//! network port arrives, whether an SM holds warps, which full request
//! port an SM's miss waits on, and — for the sanitizer — the in-flight
//! count a component's last audit measured.
//! A ticked cycle reads these dense arrays and visits only the components
//! that are due (DESIGN.md, "Sleeping components").
//!
//! None of it is serialised, hashed or read by the model: a restored GPU
//! derives it from the restored components ([`Agenda::rebuild`]) and
//! audits every component on its first cycle ([`Audited::rebuild`]).

use gpu_icnt::Crossbar;
use gpu_mem::{AddressMap, MemRequest};
use gpu_types::Cycle;

use crate::partition::Partition;
use crate::sanitizer::Sanitizer;
use crate::sm::Sm;

/// The run loop's wake cycles and port arrivals, one entry per component.
pub(crate) struct Agenda {
    /// Per SM, the first cycle at which ticking it could change its state:
    /// planned by `Sm::end_tick` at the end of each full tick and lowered
    /// to [`Cycle::ZERO`] by every hand-off (a dispatched CTA, the leak
    /// hook, a freed slot at the request port its miss waits on). Before
    /// it, a tick is the identity: the cycle stalls for the SM's open stall
    /// interval, which nobody needs to tell.
    pub sm_wake: Vec<Cycle>,
    /// Per SM, when the head packet queued at its reply-network port
    /// arrives ([`Cycle::MAX`] with none queued). An arrival is due at the
    /// receiver like a wake cycle; one the receiver could not take keeps it
    /// due every cycle.
    pub sm_port: Vec<Cycle>,
    /// Per SM, whether it holds warps (as of its last full tick or
    /// dispatch): an empty one with nothing pending is dormant.
    pub sm_occupied: Vec<bool>,
    /// How many entries of `sm_occupied` are set.
    pub occupied_sms: usize,
    /// The SMs a ticked cycle looks at: every one that holds warps or has
    /// a wake cycle or port arrival ahead. The rest are dormant — empty,
    /// nothing pending, nothing arriving — until a hand-off: a CTA, the
    /// leak hook or a reply injected toward it.
    pub sm_watched: IndexSet,
    /// Per partition, as `sm_wake`: planned by `Partition::tick`, lowered
    /// by an accepted request.
    pub part_wake: Vec<Cycle>,
    /// Per partition, as `sm_port`, for the request network. It gates the
    /// ejection stage only: an arriving request is accepted on its arrival
    /// cycle and the partition first works on it the cycle after.
    pub part_port: Vec<Cycle>,
    /// Per partition, the SMs whose miss head was blocked on that
    /// partition's full request-network queue at the end of their last
    /// full tick. Only an ejection there frees a slot,
    /// and the ejection stage wakes as many of them, lowest index first, as
    /// it accepted requests: exactly the ones the SM stage's index-order
    /// injection would give a freed slot.
    port_waiters: Vec<IndexSet>,
    /// Per SM, the partition it waits on in `port_waiters`, if any.
    waits_on: Vec<Option<usize>>,
    /// The SMs whose state changed after their issue stage this cycle —
    /// the last CTA retired, or a CTA arrived — so the stall they vote for
    /// from the next cycle on may differ from their open interval's. The
    /// cycle re-votes them (`Sm::revote`) after its last event is recorded.
    pub revote: IndexSet,
    /// The partitions ticked this cycle, ascending. Only a tick produces
    /// returns, and a partition holding returns is due the next cycle, so
    /// these are the only ones with returns to inject.
    pub ticked: Vec<usize>,
    /// Packets inside both networks.
    pub net_in_flight: u64,
}

impl Agenda {
    /// Every component due, every port empty: a fresh machine.
    pub fn new(sms: usize, partitions: usize) -> Self {
        Agenda {
            sm_wake: vec![Cycle::ZERO; sms],
            sm_port: vec![Cycle::MAX; sms],
            sm_occupied: vec![false; sms],
            occupied_sms: 0,
            sm_watched: IndexSet::full(sms),
            part_wake: vec![Cycle::ZERO; partitions],
            part_port: vec![Cycle::MAX; partitions],
            port_waiters: (0..partitions).map(|_| IndexSet::new(sms)).collect(),
            waits_on: vec![None; sms],
            revote: IndexSet::new(sms),
            ticked: Vec::with_capacity(partitions),
            net_in_flight: 0,
        }
    }

    /// Derives the ports, the occupancy and the network count from a
    /// restored machine; every component stays due.
    pub fn rebuild(
        &mut self,
        sms: &[Sm],
        map: &AddressMap,
        req_net: &Crossbar<MemRequest>,
        reply_net: &Crossbar<MemRequest>,
    ) {
        for (si, sm) in sms.iter().enumerate() {
            self.set_occupied(si, sm.live_warps() > 0);
            self.sm_port[si] = arrival(reply_net, si);
            self.wait_on_port(si, blocked_port(sm, map, req_net));
        }
        for (pi, port) in self.part_port.iter_mut().enumerate() {
            *port = arrival(req_net, pi);
        }
        self.net_in_flight = (req_net.in_flight() + reply_net.in_flight()) as u64;
    }

    /// Whether SM `si`'s tick at `now` needs doing in full: its wake cycle
    /// came, or a reply is deliverable at its port.
    pub fn sm_due(&self, si: usize, now: Cycle) -> bool {
        self.sm_wake[si] <= now || self.sm_port[si] <= now
    }

    /// Watches SM `si` after its full tick unless it has gone dormant.
    pub fn settle_sm(&mut self, si: usize) {
        if self.sm_dormant(si) {
            self.sm_watched.remove(si);
        } else {
            self.sm_watched.insert(si);
        }
    }

    /// Empty, nothing pending, nothing arriving: only a hand-off can give
    /// SM `si` something to do.
    fn sm_dormant(&self, si: usize) -> bool {
        !self.sm_occupied[si] && self.sm_wake[si] == Cycle::MAX && self.sm_port[si] == Cycle::MAX
    }

    /// Registers SM `si` as waiting on partition `port`'s full request
    /// queue, or on none: every full tick of the SM re-decides it.
    pub fn wait_on_port(&mut self, si: usize, port: Option<usize>) {
        let old = std::mem::replace(&mut self.waits_on[si], port);
        if old != port {
            if let Some(pi) = old {
                self.port_waiters[pi].remove(si);
            }
            if let Some(pi) = port {
                self.port_waiters[pi].insert(si);
            }
        }
    }

    /// Whether SM `si`'s last full tick left its miss head waiting on a
    /// full request port.
    pub fn waits_on_port(&self, si: usize) -> bool {
        self.waits_on[si].is_some()
    }

    /// Partition `pi` accepted `freed` requests from the request network:
    /// wakes the `freed` lowest-index SMs waiting on its port. The SM stage
    /// injects in index order, and each of them injects toward `pi` while
    /// a slot is left, so no other waiter can win one this cycle.
    pub fn wake_port_waiters(&mut self, pi: usize, freed: usize) {
        let mut left = freed;
        for k in 0..self.port_waiters[pi].words() {
            for si in self.port_waiters[pi].word(k) {
                if left == 0 {
                    return;
                }
                self.sm_wake[si] = Cycle::ZERO;
                self.sm_watched.insert(si);
                left -= 1;
            }
        }
    }

    /// Records whether SM `si` holds warps.
    pub fn set_occupied(&mut self, si: usize, occupied: bool) {
        if self.sm_occupied[si] != occupied {
            self.sm_occupied[si] = occupied;
            if occupied {
                self.occupied_sms += 1;
            } else {
                self.occupied_sms -= 1;
            }
        }
    }

    /// Panics unless the ports, the occupancy and the network count agree
    /// with the machine. Run (in debug builds) wherever they are read.
    ///
    /// A port registration is recounted from the SM's miss head. It must
    /// name the full port that head waits on, with one exception: an SM
    /// whose head was held back only by its injection budget, with the
    /// port filling up behind it later that cycle, is not registered — it
    /// is awake and registers on its next full tick.
    pub fn assert_matches(
        &self,
        now: Cycle,
        sms: &[Sm],
        map: &AddressMap,
        req_net: &Crossbar<MemRequest>,
        reply_net: &Crossbar<MemRequest>,
    ) {
        for (si, sm) in sms.iter().enumerate() {
            assert_eq!(self.sm_port[si], arrival(reply_net, si), "SM {si}: port");
            assert_eq!(self.sm_occupied[si], sm.live_warps() > 0, "SM {si}: warps");
            assert!(
                self.sm_dormant(si) || self.sm_watched.contains(si),
                "SM {si}: unwatched but not dormant"
            );
            let waits_on = self.waits_on[si];
            let blocked = blocked_port(sm, map, req_net);
            assert!(
                waits_on == blocked || (waits_on.is_none() && self.sm_wake[si] <= now),
                "SM {si}: registered on port {waits_on:?}, its miss head waits on {blocked:?}"
            );
            for (pi, waiters) in self.port_waiters.iter().enumerate() {
                assert_eq!(
                    waiters.contains(si),
                    waits_on == Some(pi),
                    "SM {si}: partition {pi}'s port waiters"
                );
            }
        }
        for (pi, &port) in self.part_port.iter().enumerate() {
            assert_eq!(port, arrival(req_net, pi), "partition {pi}: port");
        }
        let occupied = self.sm_occupied.iter().filter(|&&o| o).count();
        assert_eq!(self.occupied_sms, occupied, "occupied SMs");
        let in_flight = (req_net.in_flight() + reply_net.in_flight()) as u64;
        assert_eq!(self.net_in_flight, in_flight, "network packets");
    }
}

/// A set of component indices, one bit each, walked a word at a time in
/// index order.
pub(crate) struct IndexSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    /// The empty set over `0..len`.
    fn new(len: usize) -> Self {
        IndexSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set `0..len`.
    fn full(len: usize) -> Self {
        let mut set = IndexSet::new(len);
        set.fill();
        set
    }

    fn fill(&mut self) {
        self.words.fill(!0);
        if !self.len.is_multiple_of(64) {
            *self.words.last_mut().expect("len > 0") = (1u64 << (self.len % 64)) - 1;
        }
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// How many words [`IndexSet::word`] takes.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The members in `64 k .. 64 k + 64`, from a copy of the word: a walk
    /// may change the set as it goes, and a change shows from the next
    /// word on.
    pub fn word(&self, k: usize) -> Bits {
        Bits {
            base: 64 * k,
            bits: self.words[k],
        }
    }
}

/// The set bits of one [`IndexSet`] word, ascending, as indices.
pub(crate) struct Bits {
    base: usize,
    bits: u64,
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + i)
    }
}

/// The partition whose full request-network queue SM `sm`'s miss head
/// waits on: `None` with the miss queue empty or the head's queue not full
/// (a head held back only by the SM's injection budget goes next cycle).
pub(crate) fn blocked_port(
    sm: &Sm,
    map: &AddressMap,
    req_net: &Crossbar<MemRequest>,
) -> Option<usize> {
    let dst = map.partition_of(sm.peek_miss()?.addr).index();
    req_net.is_full(dst).then_some(dst)
}

/// When the head packet at `net`'s port `dst` arrives.
pub(crate) fn arrival(net: &Crossbar<MemRequest>, dst: usize) -> Cycle {
    net.next_arrival(dst).unwrap_or(Cycle::MAX)
}

/// The sanitizer's memo: which components moved this cycle — ticked, or
/// took part in a hand-off — and what each component's last audit found
/// in flight. An audit of unchanged state finds what the last one found,
/// so on a clean machine the per-cycle audit checks only what moved and
/// takes everyone else's stored count. Marking is a no-op on a machine
/// that does not sanitize.
pub(crate) struct Audited {
    enabled: bool,
    sm_counts: Vec<u64>,
    part_counts: Vec<u64>,
    /// The sum of both count vectors.
    counted: u64,
    /// The components that moved this cycle.
    sms: IndexSet,
    partitions: IndexSet,
}

impl Audited {
    pub fn new(enabled: bool, sms: usize, partitions: usize) -> Self {
        Audited {
            enabled,
            sm_counts: vec![0; sms],
            part_counts: vec![0; partitions],
            counted: 0,
            sms: IndexSet::new(sms),
            partitions: IndexSet::new(partitions),
        }
    }

    /// SM `si` moved this cycle.
    pub fn sm_moved(&mut self, si: usize) {
        if self.enabled {
            self.sms.insert(si);
        }
    }

    /// Partition `pi` moved this cycle.
    pub fn partition_moved(&mut self, pi: usize) {
        if self.enabled {
            self.partitions.insert(pi);
        }
    }

    /// A restored machine: its first audit covers every component.
    pub fn rebuild(&mut self) {
        if self.enabled {
            self.sms.fill();
            self.partitions.fill();
        }
    }

    /// The per-cycle structural audit: of every component when
    /// `everything`, else of those that moved, in index order, storing
    /// what each holds in flight. Returns the requests in flight over all
    /// SMs and partitions.
    pub fn audit(
        &mut self,
        sms: &[Sm],
        partitions: &[Partition],
        san: &mut Sanitizer,
        everything: bool,
    ) -> u64 {
        if everything {
            self.sms.fill();
            self.partitions.fill();
        }
        for k in 0..self.sms.words() {
            for si in self.sms.word(k) {
                sms[si].audit(san);
                let n = sms[si].in_flight_requests();
                self.counted = self.counted - self.sm_counts[si] + n;
                self.sm_counts[si] = n;
            }
        }
        for k in 0..self.partitions.words() {
            for pi in self.partitions.word(k) {
                partitions[pi].audit(san);
                let n = partitions[pi].in_flight_requests();
                self.counted = self.counted - self.part_counts[pi] + n;
                self.part_counts[pi] = n;
            }
        }
        if cfg!(debug_assertions) {
            self.assert_unmoved(sms, partitions);
        }
        self.sms.clear();
        self.partitions.clear();
        self.counted
    }

    /// Recounts every component that was not audited this cycle and
    /// panics if its stored count is stale: a hand-off the cycle loop did
    /// not mark.
    fn assert_unmoved(&self, sms: &[Sm], partitions: &[Partition]) {
        for (si, sm) in sms.iter().enumerate() {
            if !self.sms.contains(si) {
                assert_eq!(
                    self.sm_counts[si],
                    sm.in_flight_requests(),
                    "SM {si} moved unaudited: stale in-flight count"
                );
            }
        }
        for (pi, p) in partitions.iter().enumerate() {
            if !self.partitions.contains(pi) {
                assert_eq!(
                    self.part_counts[pi],
                    p.in_flight_requests(),
                    "partition {pi} moved unaudited: stale in-flight count"
                );
            }
        }
        let counted: u64 = self.sm_counts.iter().chain(&self.part_counts).sum();
        assert_eq!(self.counted, counted, "in-flight total");
    }
}
