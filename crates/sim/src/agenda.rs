//! What the run loop knows about each SM and partition without visiting
//! it: the cycle its next tick is due, the cycle the head packet at its
//! network port arrives, how many SMs hold warps, which full network
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
use gpu_mem::AddressMap;
use gpu_types::Cycle;

use crate::partition::Partition;
use crate::requests::{ReqHandle, RequestTable};
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
    /// How many SMs hold warps: raised by a dispatch onto an empty SM,
    /// lowered by a full tick that retires an SM's last CTA.
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
    /// The SMs whose miss head was blocked on a partition's full
    /// request-network queue at the end of their last full tick, by
    /// partition. Only an ejection there frees a slot, and the ejection
    /// stage wakes as many of them as it accepted requests
    /// ([`Waiters::first`]): exactly the ones the SM stage's index-order
    /// injection would give a freed slot.
    pub port_waiters: Waiters,
    /// The partitions whose return head was blocked on an SM's full
    /// reply-network queue when they last injected, by SM. Only the SM's
    /// ejection frees a slot, and it wakes as many of them as it took
    /// replies: the reply stage injects in index order.
    pub reply_waiters: Waiters,
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
    /// The machine's address map: which partition a miss head goes to.
    map: AddressMap,
}

impl Agenda {
    /// Every component due, every port empty: a fresh machine.
    pub fn new(sms: usize, partitions: usize, map: AddressMap) -> Self {
        Agenda {
            sm_wake: vec![Cycle::ZERO; sms],
            sm_port: vec![Cycle::MAX; sms],
            sms: Calendar::new(sms, Cycle::ZERO),
            occupied_sms: 0,
            parts: Calendar::new(partitions, Cycle::ZERO),
            ports: Calendar::new(partitions, Cycle::MAX),
            port_waiters: Waiters::new(partitions, sms),
            reply_waiters: Waiters::new(sms, partitions),
            revote: IndexSet::new(sms),
            ticked: Vec::with_capacity(partitions),
            cta_retired: false,
            map,
        }
    }

    /// Derives the ports and the occupancy from a machine restored at
    /// `now`; every component stays due.
    pub fn rebuild(
        &mut self,
        now: Cycle,
        sms: &[Sm],
        req_net: &Crossbar<ReqHandle>,
        reply_net: &Crossbar<ReqHandle>,
        reqs: &RequestTable,
    ) {
        self.occupied_sms = occupied(sms);
        for (si, sm) in sms.iter().enumerate() {
            self.set_sm_port(si, arrival(reply_net, si), now);
            self.port_waiters
                .register(si, blocked_port(sm, &self.map, req_net, reqs));
        }
        for pi in 0..self.ports.len() {
            self.ports.set(pi, arrival(req_net, pi), now);
        }
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

    /// Partition `pi` accepted `freed` requests from the request network:
    /// wakes the SMs waiting on its port that the SM stage gives the freed
    /// slots ([`Waiters::first`]).
    pub fn wake_port_waiters(&mut self, pi: usize, freed: usize, now: Cycle) {
        for si in self.port_waiters.first(pi, freed) {
            // `set_sm_wake(si, Cycle::ZERO, now)`, field by field: `first`
            // holds the waiters borrowed.
            self.sm_wake[si] = Cycle::ZERO;
            self.sms.set(si, Cycle::ZERO, now);
        }
    }

    /// SM `si` took `freed` replies from its port: wakes, for the next
    /// cycle, the partitions whose return head waits there that the reply
    /// stage gives the freed slots ([`Waiters::first`]).
    pub fn wake_reply_waiters(&mut self, si: usize, freed: usize, now: Cycle) {
        for pi in self.reply_waiters.first(si, freed) {
            self.parts.lower(pi, Cycle::ZERO, now);
        }
    }

    /// Panics unless the calendars, the ports, the port registrations and
    /// the occupancy agree with the machine between
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
        req_net: &Crossbar<ReqHandle>,
        reply_net: &Crossbar<ReqHandle>,
        reqs: &RequestTable,
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
            let waits_on = self.port_waiters.on(si);
            let blocked = blocked_port(sm, &self.map, req_net, reqs);
            assert!(
                waits_on == blocked || (waits_on.is_none() && self.sm_wake[si] <= now),
                "SM {si}: registered on port {waits_on:?}, its miss head waits on {blocked:?}"
            );
        }
        self.port_waiters.assert_consistent("SM");
        self.reply_waiters.assert_consistent("partition");
        let due = |pi: usize| self.parts.at(pi) <= now;
        for (pi, p) in partitions.iter().enumerate() {
            let head = p.peek_return().map(|h| reqs[h].sm.index());
            let waits_on = self.reply_waiters.on(pi);
            assert!(
                head.is_none() || due(pi) || waits_on.is_some(),
                "partition {pi} holds returns, is asleep and waits on no reply port"
            );
            if let Some(si) = waits_on {
                assert_eq!(head, Some(si), "partition {pi}: reply port registration");
            }
        }
        let cap = reply_net.config().output_queue;
        for si in 0..sms.len() {
            let members = self.reply_waiters.first(si, usize::MAX);
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
        assert_eq!(self.occupied_sms, occupied(sms), "occupied SMs");
    }
}

/// How many of `sms` hold warps.
fn occupied(sms: &[Sm]) -> usize {
    sms.iter().filter(|sm| sm.live_warps() > 0).count()
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
        // A store only where a bit is set: a set of a word or two is
        // cleared in place, not through a `memset` call.
        for w in &mut self.words {
            if *w != 0 {
                *w = 0;
            }
        }
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

/// Components waiting on full network ports: per port the set of its
/// waiters, and per waiter the one port it waits on, if any.
pub(crate) struct Waiters {
    /// Per port, its waiters.
    sets: IndexSets,
    /// Per waiter, the port it is in the set of.
    on: Vec<Option<usize>>,
}

impl Waiters {
    /// `ports` ports, `waiters` waiters, none waiting.
    fn new(ports: usize, waiters: usize) -> Self {
        Waiters {
            sets: IndexSets::new(ports, waiters),
            on: vec![None; waiters],
        }
    }

    /// Registers waiter `w` as waiting on `port`, or on none: the waiter's
    /// every attempt to inject re-decides it.
    pub fn register(&mut self, w: usize, port: Option<usize>) {
        let old = std::mem::replace(&mut self.on[w], port);
        if old != port {
            if let Some(p) = old {
                self.sets.remove(p, w);
            }
            if let Some(p) = port {
                self.sets.insert(p, w);
            }
        }
    }

    /// The port waiter `w` waits on, if any.
    pub fn on(&self, w: usize) -> Option<usize> {
        self.on[w]
    }

    /// The first `n` waiters on `port`, lowest index first: the ones its
    /// `n` freed slots go to. The stages inject in index order, and each
    /// waiter's blocked head is the first packet it tries, toward `port`,
    /// while a slot is left; so no other waiter can win one, and once these
    /// have injected the port is full again or every waiter was woken.
    pub fn first(&self, port: usize, n: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.sets.words())
            .flat_map(move |k| self.sets.word(port, k))
            .take(n)
    }

    /// Panics unless each waiter is in the set of exactly the port it
    /// waits on.
    fn assert_consistent(&self, what: &str) {
        for (w, &on) in self.on.iter().enumerate() {
            if let Some(p) = on {
                assert!(
                    self.sets.contains(p, w),
                    "{what} {w}: not in port {p}'s waiters"
                );
            }
        }
        let members: u32 = self.sets.words.iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            members as usize,
            self.on.iter().flatten().count(),
            "{what}s filed under a port they do not wait on"
        );
    }
}

/// The partition whose full request-network queue SM `sm`'s miss head
/// waits on: `None` with the miss queue empty or the head's queue not full
/// (a head held back only by the SM's injection budget goes next cycle).
pub(crate) fn blocked_port(
    sm: &Sm,
    map: &AddressMap,
    req_net: &Crossbar<ReqHandle>,
    reqs: &RequestTable,
) -> Option<usize> {
    let dst = map.partition_of(reqs[sm.peek_miss()?].addr).index();
    req_net.is_full(dst).then_some(dst)
}

/// When the head packet at `net`'s port `dst` arrives.
pub(crate) fn arrival(net: &Crossbar<ReqHandle>, dst: usize) -> Cycle {
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
