//! What the run loop knows about each SM and partition without visiting
//! it: the cycle its next tick is due, the cycle the head packet at its
//! network port arrives, whether an SM holds warps, which full network
//! port an SM's miss or a partition's return waits on, and — for the
//! sanitizer — the in-flight count a component's last audit measured.
//! The due cycles are kept in [`Calendar`]s, so a ticked cycle visits the
//! components that are due without testing the others, and the run loop
//! reads the machine's next event without scanning every component
//! (DESIGN.md, "Sleeping components").
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
    /// The SMs by the earlier of their wake cycle and port arrival: the
    /// cycle an SM's tick is due. An empty SM with nothing pending and
    /// nothing arriving is in none of its sets until a hand-off.
    pub sms: Calendar,
    /// Per SM, whether it holds warps (as of its last full tick or
    /// dispatch).
    pub sm_occupied: Vec<bool>,
    /// How many entries of `sm_occupied` are set.
    pub occupied_sms: usize,
    /// The partitions by wake cycle: planned from `Partition::tick` and the
    /// reply injection after it, lowered by an accepted request that
    /// becomes the ROP head and by a freed slot at the reply port a return
    /// waits on.
    pub parts: Calendar,
    /// The partitions by the arrival at their request-network port, as
    /// `sm_port`. It gates the ejection stage only: an arriving request is
    /// accepted on its arrival cycle and the partition first works on it
    /// the cycle after.
    pub ports: Calendar,
    /// Per partition, the SMs whose miss head was blocked on that
    /// partition's full request-network queue at the end of their last
    /// full tick. Only an ejection there frees a slot,
    /// and the ejection stage wakes as many of them, lowest index first, as
    /// it accepted requests: exactly the ones the SM stage's index-order
    /// injection would give a freed slot.
    port_waiters: IndexSets,
    /// Per SM, the partition it waits on in `port_waiters`, if any.
    waits_on: Vec<Option<usize>>,
    /// Per SM, the partitions whose return head was blocked on that SM's
    /// full reply-network queue when they last injected. Only the SM's
    /// ejection frees a slot, and it wakes as many of them, lowest index
    /// first, as it took replies: the reply stage injects in index order.
    reply_waiters: IndexSets,
    /// Per partition, the SM it waits on in `reply_waiters`, if any.
    waits_on_reply: Vec<Option<usize>>,
    /// The SMs whose state changed after their issue stage this cycle —
    /// the last CTA retired, or a CTA arrived — so the stall they vote for
    /// from the next cycle on may differ from their open interval's. The
    /// cycle re-votes them (`Sm::revote`) after its last event is recorded.
    pub revote: IndexSet,
    /// The partitions ticked this cycle, ascending, each with the wake
    /// cycle its tick planned. Only a tick produces returns, and a
    /// partition holding returns is due the next cycle or waits on a full
    /// reply port, so these are the only ones with returns to inject.
    pub ticked: Vec<(usize, Cycle)>,
    /// Whether an SM retired a CTA since the last dispatch stage: the one
    /// event that can let a stalled launch dispatch again.
    pub cta_retired: bool,
    /// Packets inside both networks.
    pub net_in_flight: u64,
}

impl Agenda {
    /// Every component due, every port empty: a fresh machine.
    pub fn new(sms: usize, partitions: usize) -> Self {
        Agenda {
            sm_wake: vec![Cycle::ZERO; sms],
            sm_port: vec![Cycle::MAX; sms],
            sms: Calendar::new(sms, Cycle::ZERO),
            sm_occupied: vec![false; sms],
            occupied_sms: 0,
            parts: Calendar::new(partitions, Cycle::ZERO),
            ports: Calendar::new(partitions, Cycle::MAX),
            port_waiters: IndexSets::new(partitions, sms),
            waits_on: vec![None; sms],
            reply_waiters: IndexSets::new(sms, partitions),
            waits_on_reply: vec![None; partitions],
            revote: IndexSet::new(sms),
            ticked: Vec::with_capacity(partitions),
            cta_retired: false,
            net_in_flight: 0,
        }
    }

    /// Derives the ports, the occupancy and the network count from a
    /// machine restored at `now`; every component stays due.
    pub fn rebuild(
        &mut self,
        now: Cycle,
        sms: &[Sm],
        map: &AddressMap,
        req_net: &Crossbar<MemRequest>,
        reply_net: &Crossbar<MemRequest>,
    ) {
        for (si, sm) in sms.iter().enumerate() {
            self.set_occupied(si, sm.live_warps() > 0);
            self.set_sm_port(si, arrival(reply_net, si), now);
            self.wait_on_port(si, blocked_port(sm, map, req_net));
        }
        for pi in 0..self.ports.len() {
            self.ports.set(pi, arrival(req_net, pi), now);
        }
        self.net_in_flight = (req_net.in_flight() + reply_net.in_flight()) as u64;
    }

    /// Starts cycle `now`: every component whose due cycle came joins its
    /// calendar's due set.
    pub fn begin(&mut self, now: Cycle) {
        self.sms.begin(now);
        self.parts.begin(now);
        self.ports.begin(now);
    }

    /// The earliest cycle from `now` on at which some SM or partition is
    /// due or some packet arrives at a port — exact, read off the calendars.
    pub fn horizon(&mut self, now: Cycle) -> Cycle {
        let mut at = self.ports.horizon(now);
        if at > now {
            at = at.min(self.parts.horizon(now));
        }
        if at > now {
            at = at.min(self.sms.horizon(now));
        }
        at
    }

    /// Stores SM `si`'s wake cycle and files the SM for its next tick.
    pub fn set_sm_wake(&mut self, si: usize, wake: Cycle, now: Cycle) {
        self.sm_wake[si] = wake;
        self.sms.set(si, wake.min(self.sm_port[si]), now);
    }

    /// Stores the arrival at SM `si`'s reply port and files the SM for its
    /// next tick.
    pub fn set_sm_port(&mut self, si: usize, port: Cycle, now: Cycle) {
        self.sm_port[si] = port;
        self.sms.set(si, port.min(self.sm_wake[si]), now);
    }

    /// Registers SM `si` as waiting on partition `port`'s full request
    /// queue, or on none: every full tick of the SM re-decides it.
    pub fn wait_on_port(&mut self, si: usize, port: Option<usize>) {
        let old = std::mem::replace(&mut self.waits_on[si], port);
        if old != port {
            if let Some(pi) = old {
                self.port_waiters.remove(pi, si);
            }
            if let Some(pi) = port {
                self.port_waiters.insert(pi, si);
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
    pub fn wake_port_waiters(&mut self, pi: usize, freed: usize, now: Cycle) {
        let mut left = freed;
        for k in 0..self.port_waiters.words() {
            for si in self.port_waiters.word(pi, k) {
                if left == 0 {
                    return;
                }
                self.set_sm_wake(si, Cycle::ZERO, now);
                left -= 1;
            }
        }
    }

    /// Registers partition `pi` as waiting on SM `sm`'s full reply queue,
    /// or on none: every reply injection of the partition re-decides it.
    pub fn wait_on_reply(&mut self, pi: usize, sm: Option<usize>) {
        let old = std::mem::replace(&mut self.waits_on_reply[pi], sm);
        if old != sm {
            if let Some(si) = old {
                self.reply_waiters.remove(si, pi);
            }
            if let Some(si) = sm {
                self.reply_waiters.insert(si, pi);
            }
        }
    }

    /// Whether partition `pi`'s last reply injection left its return head
    /// waiting on a full reply port.
    pub fn waits_on_reply(&self, pi: usize) -> bool {
        self.waits_on_reply[pi].is_some()
    }

    /// SM `si` took `freed` replies from its port: wakes the `freed`
    /// lowest-index partitions whose return head waits there, for the next
    /// cycle. The reply stage injects in index order and each of them
    /// injects its head toward `si` while a slot is left, so no other
    /// waiter can win one.
    pub fn wake_reply_waiters(&mut self, si: usize, freed: usize, now: Cycle) {
        let mut left = freed;
        for k in 0..self.reply_waiters.words() {
            for pi in self.reply_waiters.word(si, k) {
                if left == 0 {
                    return;
                }
                self.parts.lower(pi, Cycle::ZERO, now);
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

    /// Panics unless the calendars, the ports, the port registrations,
    /// the occupancy and the network count agree with the machine between
    /// cycles, before cycle `now`. Run (in debug builds) wherever they are
    /// read.
    ///
    /// A request-port registration is recounted from the SM's miss head.
    /// It must name the full port that head waits on, with one exception:
    /// an SM whose head was held back only by its injection budget, with
    /// the port filling up behind it later that cycle, is not registered —
    /// it is awake and registers on its next full tick.
    ///
    /// A partition holding returns is due or registered on the reply port
    /// its head waits on. That port is full unless its SM took replies
    /// last cycle; the partitions that ejection woke are then due, they
    /// are the lowest-index waiters, and there are at least as many of
    /// them as free slots.
    pub fn assert_matches(
        &self,
        now: Cycle,
        sms: &[Sm],
        partitions: &[Partition],
        map: &AddressMap,
        req_net: &Crossbar<MemRequest>,
        reply_net: &Crossbar<MemRequest>,
    ) {
        self.sms.assert_filed(now, "SM");
        self.parts.assert_filed(now, "partition");
        self.ports.assert_filed(now, "request port");
        for (si, sm) in sms.iter().enumerate() {
            assert_eq!(self.sm_port[si], arrival(reply_net, si), "SM {si}: port");
            assert_eq!(
                self.sms.at(si),
                self.sm_wake[si].min(self.sm_port[si]),
                "SM {si}: due cycle"
            );
            assert_eq!(self.sm_occupied[si], sm.live_warps() > 0, "SM {si}: warps");
            let waits_on = self.waits_on[si];
            let blocked = blocked_port(sm, map, req_net);
            assert!(
                waits_on == blocked || (waits_on.is_none() && self.sm_wake[si] <= now),
                "SM {si}: registered on port {waits_on:?}, its miss head waits on {blocked:?}"
            );
            for pi in 0..partitions.len() {
                assert_eq!(
                    self.port_waiters.contains(pi, si),
                    waits_on == Some(pi),
                    "SM {si}: partition {pi}'s port waiters"
                );
            }
        }
        let due = |pi: usize| self.parts.at(pi) <= now;
        for (pi, p) in partitions.iter().enumerate() {
            let head = p.peek_return().map(|r| r.sm.index());
            let waits_on = self.waits_on_reply[pi];
            assert!(
                head.is_none() || due(pi) || waits_on.is_some(),
                "partition {pi} holds returns, is asleep and waits on no reply port"
            );
            if let Some(si) = waits_on {
                assert_eq!(head, Some(si), "partition {pi}: reply port registration");
            }
            for si in 0..sms.len() {
                assert_eq!(
                    self.reply_waiters.contains(si, pi),
                    waits_on == Some(si),
                    "partition {pi}: SM {si}'s reply waiters"
                );
            }
        }
        let cap = reply_net.config().output_queue;
        for si in 0..sms.len() {
            let waiters = &self.reply_waiters;
            let members = (0..waiters.words()).flat_map(|k| waiters.word(si, k));
            let first_asleep = members.clone().find(|&pi| !due(pi));
            if let Some(asleep) = first_asleep {
                let woken = members.take_while(|&pi| pi < asleep).count();
                let free = cap - reply_net.queued(si);
                assert!(
                    free <= woken,
                    "SM {si}: {free} free reply slots, {woken} waiters woken for them"
                );
            }
        }
        for pi in 0..self.ports.len() {
            assert_eq!(
                self.ports.at(pi),
                arrival(req_net, pi),
                "partition {pi}: port"
            );
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

    fn fill(&mut self) {
        self.words.fill(!0);
        if !self.len.is_multiple_of(64) {
            *self.words.last_mut().expect("len > 0") = (1u64 << (self.len % 64)) - 1;
        }
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
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

    /// As [`IndexSet::word`], emptying the word: members inserted while
    /// the walk goes on are the next walk's.
    pub fn take_word(&mut self, k: usize) -> Bits {
        Bits {
            base: 64 * k,
            bits: std::mem::take(&mut self.words[k]),
        }
    }
}

/// The set bits of one [`IndexSet`] word, ascending, as indices.
#[derive(Clone)]
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

/// `count` sets over `0..len`, kept in one vector: a family of
/// [`IndexSet`]s built with one allocation, walked the same way.
pub(crate) struct IndexSets {
    words: Vec<u64>,
    per: usize,
}

impl IndexSets {
    fn new(count: usize, len: usize) -> Self {
        let per = len.div_ceil(64);
        IndexSets {
            words: vec![0; count * per],
            per,
        }
    }

    fn insert(&mut self, set: usize, i: usize) {
        self.words[set * self.per + i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, set: usize, i: usize) {
        self.words[set * self.per + i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, set: usize, i: usize) -> bool {
        self.words[set * self.per + i / 64] & (1 << (i % 64)) != 0
    }

    fn clear(&mut self, set: usize) {
        self.words[set * self.per..(set + 1) * self.per].fill(0);
    }

    /// How many words each set has.
    fn words(&self) -> usize {
        self.per
    }

    /// As [`IndexSet::word`], for set `set`.
    fn word(&self, set: usize, k: usize) -> Bits {
        Bits {
            base: 64 * k,
            bits: self.words[set * self.per + k],
        }
    }

    /// As [`IndexSet::take_word`], for set `set`.
    fn take_word(&mut self, set: usize, k: usize) -> Bits {
        Bits {
            base: 64 * k,
            bits: std::mem::take(&mut self.words[set * self.per + k]),
        }
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

/// How many cycles ahead a [`Calendar`]'s wheel reaches: one bucket per
/// cycle, so that which buckets hold a key is one word.
const WHEEL: u64 = 64;

/// Components `0..len`, each due from a cycle on ([`Cycle::MAX`]: never
/// until a hand-off), filed by that cycle: the ones due now in a set the
/// stage walks, the ones due within [`WHEEL`] cycles in a bucket per cycle
/// that joins the due set when its cycle begins, the rest in one set
/// rescanned as the wheel reaches them. A ticked cycle therefore pays for
/// the components that are due, and [`Calendar::horizon`] for the buckets
/// it passes, not for every component.
///
/// Filing never removes a key from where an earlier cycle filed it: a
/// bucket or the far set may hold a key whose due cycle has since moved,
/// and a bucket's keys are checked against their cycle when it comes.
pub(crate) struct Calendar {
    /// Per key, the cycle it is due from.
    at: Vec<Cycle>,
    /// The keys due at the next walk.
    due: IndexSet,
    /// Bucket `c % WHEEL` holds the keys due at cycle `c`, for `c` within
    /// `WHEEL` cycles of the cycle they were filed at.
    wheel: IndexSets,
    /// Bit `b` set when `wheel[b]` may hold a key.
    filled: u64,
    /// The keys due further ahead.
    far: IndexSet,
    /// At most the earliest due cycle of a key in `far`.
    far_min: Cycle,
}

impl Calendar {
    /// `len` keys, all due from `at`: [`Cycle::ZERO`] makes every key due
    /// at the first walk, [`Cycle::MAX`] none.
    fn new(len: usize, at: Cycle) -> Self {
        let mut due = IndexSet::new(len);
        if at == Cycle::ZERO {
            due.fill();
        }
        Calendar {
            at: vec![at; len],
            due,
            wheel: IndexSets::new(WHEEL as usize, len),
            filled: 0,
            far: IndexSet::new(len),
            far_min: Cycle::MAX,
        }
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// The cycle key `k` is due from.
    pub fn at(&self, k: usize) -> Cycle {
        self.at[k]
    }

    /// Makes key `k` due from `at`, during cycle `now`. A key due at or
    /// before `now` joins the due set: the next walk visits it, this
    /// cycle's if its stage has not run yet.
    pub fn set(&mut self, k: usize, at: Cycle, now: Cycle) {
        self.at[k] = at;
        self.file(k, now);
    }

    /// Makes key `k` due from `at` if that is earlier than it is now.
    pub fn lower(&mut self, k: usize, at: Cycle, now: Cycle) {
        if at < self.at[k] {
            self.set(k, at, now);
        }
    }

    /// Files key `k` by its due cycle, as of cycle `now`.
    pub fn file(&mut self, k: usize, now: Cycle) {
        let at = self.at[k];
        if at <= now {
            self.due.insert(k);
        } else if at == Cycle::MAX {
        } else if at.since(now) < WHEEL {
            let b = (at.get() % WHEEL) as usize;
            self.wheel.insert(b, k);
            self.filled |= 1 << b;
        } else {
            self.far.insert(k);
            self.far_min = self.far_min.min(at);
        }
    }

    /// Starts cycle `now`: the keys due at it join the due set, and the
    /// far keys the wheel now reaches move into it.
    pub fn begin(&mut self, now: Cycle) {
        if self.far_min.saturating_since(now) < WHEEL {
            self.refile_far(now);
        }
        let b = (now.get() % WHEEL) as usize;
        if self.filled & (1 << b) != 0 {
            self.filled &= !(1 << b);
            for k in 0..self.due.words() {
                for key in self.wheel.take_word(b, k) {
                    if self.at[key] <= now {
                        self.due.insert(key);
                    }
                }
            }
        }
    }

    /// Files every far key again, as of cycle `now`, and recomputes
    /// `far_min` over the keys still far.
    fn refile_far(&mut self, now: Cycle) {
        self.far_min = Cycle::MAX;
        for k in 0..self.far.words() {
            for key in self.far.take_word(k) {
                self.file(key, now);
            }
        }
    }

    /// The earliest cycle from `now` on at which a key is due. Buckets that
    /// hold only keys whose cycle moved are emptied on the way, so the
    /// answer is exact: the run loop jumps to it and finds a key due.
    pub fn horizon(&mut self, now: Cycle) -> Cycle {
        if !self.due.is_empty() {
            return now;
        }
        let mut at = Cycle::MAX;
        while self.filled != 0 {
            let ahead = self.filled.rotate_right((now.get() % WHEEL) as u32);
            let c = now + u64::from(ahead.trailing_zeros());
            let b = (c.get() % WHEEL) as usize;
            if (0..self.due.words()).any(|k| self.wheel.word(b, k).any(|key| self.at[key] == c)) {
                at = c;
                break;
            }
            self.wheel.clear(b);
            self.filled &= !(1 << b);
        }
        if self.far_min < at {
            // `far_min` may be early: refiling makes it exact, and moves
            // any key within the wheel's reach to its bucket.
            self.refile_far(now);
            if self.filled != 0 {
                return self.horizon(now);
            }
            at = at.min(self.far_min);
        }
        at
    }

    /// Takes word `k` of the due set for a walk: its keys, ascending, each
    /// to be visited and filed again.
    pub fn take_due(&mut self, k: usize) -> Bits {
        self.due.take_word(k)
    }

    /// How many words [`Calendar::take_due`] takes.
    pub fn words(&self) -> usize {
        self.due.words()
    }

    /// Empties the due set, for a walk that visits every key.
    pub fn clear_due(&mut self) {
        self.due.clear();
    }

    /// Panics unless every key is filed for its due cycle, between cycles
    /// before cycle `now`: one due before `now` in the due set, a later one
    /// in the due set, its bucket or the far set.
    fn assert_filed(&self, now: Cycle, what: &str) {
        for (k, &at) in self.at.iter().enumerate() {
            if self.due.contains(k) {
                assert!(
                    at < now || now == Cycle::ZERO,
                    "{what} {k}: due from {at} but in the due set"
                );
                continue;
            }
            assert!(
                at >= now,
                "{what} {k}: due from {at}, not in the due set at {now}"
            );
            if at == Cycle::MAX {
                continue;
            }
            let b = (at.get() % WHEEL) as usize;
            let wheeled = self.wheel.contains(b, k) && self.filled & (1 << b) != 0;
            let far = self.far.contains(k) && self.far_min <= at;
            assert!(wheeled || far, "{what} {k}: due from {at}, filed nowhere");
        }
    }
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
