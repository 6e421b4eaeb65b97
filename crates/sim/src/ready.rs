//! An SM's ready set: which live warp could issue, kept as one slot mask
//! per [`WarpClass`] (DESIGN.md, "The ready set").
//!
//! A live warp's slot has its bit set in exactly one class mask; a free
//! slot's, or a finished warp's, in none. The scheduler's pick, "can any
//! warp issue" and the stall vote are word operations and popcounts over
//! the masks, so none of them visits a warp. The set is derived state: the
//! SM keeps it (`Sm::reclassify`) and never serializes it.

use gpu_trace::StallReason;

/// What a live warp's own state says about its next issue: the part of
/// the issue predicate that changes only when the warp issues, when a
/// scoreboard release lands on it, when its CTA's barrier releases, or when
/// it is dispatched. The rest — whether the LSU port is taken and whether
/// the front-end pipe has room — is SM-wide and asked once per tick for a
/// whole class ([`WarpClass::blocked_by`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpClass {
    /// Parked at `bar.sync` until its CTA's barrier releases.
    Barrier,
    /// Has no instruction to issue.
    Stuck,
    /// Its next instruction reads or writes a register whose writer is
    /// still in flight.
    Scoreboard,
    /// Its next instruction is a shared-memory access: it needs the LSU
    /// port.
    Shared,
    /// Its next instruction is a global or local access: it needs the LSU
    /// port and room in the front-end pipe.
    Global,
    /// Issues as soon as the scheduler picks it.
    Ready,
}

impl WarpClass {
    pub(crate) const ALL: [WarpClass; 6] = [
        WarpClass::Barrier,
        WarpClass::Stuck,
        WarpClass::Scoreboard,
        WarpClass::Shared,
        WarpClass::Global,
        WarpClass::Ready,
    ];

    const COUNT: usize = Self::ALL.len();

    /// The one issue predicate: the first condition keeping a warp of this
    /// class from issuing, or `None` when it could issue now. `lsu_used`
    /// says the LSU port is already taken this tick (a structural
    /// conflict, so [`StallReason::Other`]); `front` is the SM's
    /// front-pipe answer (`Sm::front_block`). The scheduler, the sleep
    /// planner and the stall attribution all ask this, so they cannot
    /// disagree.
    pub(crate) fn blocked_by(
        self,
        lsu_used: bool,
        front: Option<StallReason>,
    ) -> Option<StallReason> {
        match self {
            WarpClass::Barrier => Some(StallReason::Barrier),
            WarpClass::Stuck => Some(StallReason::Other),
            WarpClass::Scoreboard => Some(StallReason::Scoreboard),
            WarpClass::Shared => lsu_used.then_some(StallReason::Other),
            WarpClass::Global if lsu_used => Some(StallReason::Other),
            WarpClass::Global => front,
            WarpClass::Ready => None,
        }
    }
}

/// One 64-slot word of every class mask: bit `w % 64` of entry
/// `c as usize` stands for slot `w` in class `c`.
type ClassWord = [u64; WarpClass::COUNT];

/// The classes [`WarpClass::blocked_by`] lets issue under one SM-wide
/// state: all ones for an open class, zero for a blocked one, so a word of
/// candidates is an AND and an OR per class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open(ClassWord);

impl Open {
    /// The open classes with the LSU port taken or not and the front
    /// pipe's answer `front`.
    pub(crate) fn new(lsu_used: bool, front: Option<StallReason>) -> Self {
        Open(WarpClass::ALL.map(|c| {
            if c.blocked_by(lsu_used, front).is_none() {
                !0
            } else {
                0
            }
        }))
    }

    /// The slots of `word` whose class is open.
    fn select(&self, word: &ClassWord) -> u64 {
        let mut m = 0;
        for (w, open) in word.iter().zip(&self.0) {
            m |= w & open;
        }
        m
    }
}

/// The word of a slot mask that holds slot `w`, and its bit there.
pub(crate) fn slot_bit(w: usize) -> (usize, u64) {
    (w / 64, 1 << (w % 64))
}

/// One slot mask per [`WarpClass`], `slots.div_ceil(64)` words each.
#[derive(Debug, Default)]
pub(crate) struct ReadySet {
    words: Vec<ClassWord>,
}

impl ReadySet {
    /// An empty set for `slots` warp slots.
    pub(crate) fn new(slots: usize) -> Self {
        ReadySet {
            words: vec![[0; WarpClass::COUNT]; slots.div_ceil(64)],
        }
    }

    /// Words per class mask (the length an `issued` mask must have).
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Empties every class.
    pub(crate) fn clear(&mut self) {
        self.words.fill([0; WarpClass::COUNT]);
    }

    /// Slot `w`'s class; `None` when its bit is set in no class mask.
    pub(crate) fn class_of(&self, w: usize) -> Option<WarpClass> {
        let (i, bit) = slot_bit(w);
        let word = self.words.get(i)?;
        WarpClass::ALL
            .into_iter()
            .find(|&c| word[c as usize] & bit != 0)
    }

    /// Moves slot `w` into `class` (out of the set for `None`): its bit is
    /// cleared in every mask, then set in that one.
    pub(crate) fn set(&mut self, w: usize, class: Option<WarpClass>) {
        let (i, bit) = slot_bit(w);
        let word = &mut self.words[i];
        for mask in word.iter_mut() {
            *mask &= !bit;
        }
        if let Some(c) = class {
            word[c as usize] |= bit;
        }
    }

    /// Live warps per class, in [`WarpClass::ALL`] order: popcounts of
    /// the masks (an empty word costs no popcount).
    pub(crate) fn counts(&self) -> [u64; WarpClass::COUNT] {
        let mut n = [0; WarpClass::COUNT];
        for word in &self.words {
            for (n, &m) in n.iter_mut().zip(word) {
                if m != 0 {
                    *n += u64::from(m.count_ones());
                }
            }
        }
        n
    }

    /// Word `i` of the slots whose class is open, less those in `issued`.
    fn candidates(&self, i: usize, open: &Open, issued: &[u64]) -> u64 {
        open.select(&self.words[i]) & !issued[i]
    }

    /// Whether any slot's class is open (no warp excluded).
    pub(crate) fn any(&self, open: &Open) -> bool {
        self.words.iter().any(|word| open.select(word) != 0)
    }

    /// Loose round robin: the lowest candidate above `last`, else the
    /// lowest candidate. A candidate's class is open and its slot is not in
    /// `issued`.
    pub(crate) fn lrr(&self, open: &Open, issued: &[u64], last: usize) -> Option<usize> {
        let from = last + 1;
        let mut lowest = None;
        for i in 0..self.words.len() {
            let m = self.candidates(i, open, issued);
            if m == 0 {
                continue;
            }
            lowest = lowest.or(Some(i * 64 + m.trailing_zeros() as usize));
            let ahead = match i.cmp(&(from / 64)) {
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => m & (!0 << (from % 64)),
                std::cmp::Ordering::Greater => m,
            };
            if ahead != 0 {
                return Some(i * 64 + ahead.trailing_zeros() as usize);
            }
        }
        lowest
    }

    /// Greedy then oldest: `greedy` if it is a candidate, else the
    /// candidate of least `age`, equal ages going to the lowest slot.
    pub(crate) fn gto(
        &self,
        open: &Open,
        issued: &[u64],
        greedy: Option<usize>,
        age: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        if let Some(g) = greedy {
            let (i, bit) = slot_bit(g);
            if self.candidates(i, open, issued) & bit != 0 {
                return Some(g);
            }
        }
        let mut oldest: Option<(u64, usize)> = None;
        for i in 0..self.words.len() {
            let mut m = self.candidates(i, open, issued);
            while m != 0 {
                let w = i * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let a = age(w);
                if oldest.is_none_or(|(best, _)| a < best) {
                    oldest = Some((a, w));
                }
            }
        }
        oldest.map(|(_, w)| w)
    }

    /// Panics unless the class masks are disjoint and name no slot at or
    /// past `slots`.
    pub(crate) fn assert_well_formed(&self, slots: usize) {
        for (i, word) in self.words.iter().enumerate() {
            let all = word.iter().fold(0, |m, c| m | c);
            let bits: u32 = word.iter().map(|c| c.count_ones()).sum();
            assert_eq!(bits, all.count_ones(), "word {i}: a slot in two classes");
            let past = (i * 64..i * 64 + 64).filter(|&w| w >= slots);
            let past = past.fold(0u64, |m, w| m | slot_bit(w).1);
            assert_eq!(all & past, 0, "word {i}: a bit past the last slot");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator (splitmix64), so a failing case
    /// repeats.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One SM-wide state and the slots as a plain list: the per-slot walk
    /// the masks replace.
    struct Naive {
        classes: Vec<Option<WarpClass>>,
        issued: Vec<bool>,
        ages: Vec<u64>,
        lsu_used: bool,
        front: Option<StallReason>,
    }

    impl Naive {
        fn candidate(&self, w: usize) -> bool {
            !self.issued[w]
                && self.classes[w]
                    .is_some_and(|c| c.blocked_by(self.lsu_used, self.front).is_none())
        }

        fn lrr(&self, last: usize) -> Option<usize> {
            let n = self.classes.len();
            (last + 1..n)
                .chain(0..=last.min(n - 1))
                .find(|&w| self.candidate(w))
        }

        fn gto(&self, greedy: Option<usize>) -> Option<usize> {
            if greedy.is_some_and(|g| self.candidate(g)) {
                return greedy;
            }
            (0..self.classes.len())
                .filter(|&w| self.candidate(w))
                .min_by_key(|&w| self.ages[w])
        }

        /// The masks of this state: the set and the `issued` words.
        fn masks(&self) -> (ReadySet, Vec<u64>) {
            let mut set = ReadySet::new(self.classes.len());
            let mut issued = vec![0; set.words()];
            for (w, &c) in self.classes.iter().enumerate() {
                set.set(w, c);
                if self.issued[w] {
                    let (i, bit) = slot_bit(w);
                    issued[i] |= bit;
                }
            }
            (set, issued)
        }
    }

    fn random_state(rng: &mut Rng, slots: usize) -> Naive {
        const FRONTS: [Option<StallReason>; 3] =
            [None, Some(StallReason::MshrFull), Some(StallReason::Other)];
        // Few distinct ages, so equal ages (which a decoded checkpoint can
        // hold) come up; sparse and dense sets both.
        let live = rng.below(4);
        Naive {
            classes: (0..slots)
                .map(|_| {
                    (rng.below(4) < live)
                        .then(|| WarpClass::ALL[rng.below(WarpClass::COUNT as u64) as usize])
                })
                .collect(),
            issued: (0..slots).map(|_| rng.below(8) == 0).collect(),
            ages: (0..slots).map(|_| rng.below(6)).collect(),
            lsu_used: rng.below(2) == 0,
            front: FRONTS[rng.below(3) as usize],
        }
    }

    #[test]
    fn picks_match_a_per_slot_walk_past_one_word() {
        let mut rng = Rng(20150301);
        for case in 0..4000 {
            let slots = [1, 63, 64, 65, 96, 128, 200][case % 7];
            let naive = random_state(&mut rng, slots);
            let (set, issued) = naive.masks();
            set.assert_well_formed(slots);
            let open = Open::new(naive.lsu_used, naive.front);
            // The word boundary gets its share of rotation points.
            let last = match rng.below(4) {
                0 => 63.min(slots - 1),
                1 => 64.min(slots - 1),
                _ => rng.below(slots as u64) as usize,
            };
            assert_eq!(
                set.lrr(&open, &issued, last),
                naive.lrr(last),
                "case {case}: LRR after {last}"
            );
            let greedy = (rng.below(3) > 0).then(|| rng.below(slots as u64) as usize);
            let age = |w: usize| naive.ages[w];
            assert_eq!(
                set.gto(&open, &issued, greedy, age),
                naive.gto(greedy),
                "case {case}: GTO, greedy {greedy:?}"
            );
            let no_issued = vec![0; set.words()];
            assert_eq!(
                set.any(&open),
                set.lrr(&open, &no_issued, 0).is_some(),
                "case {case}: any"
            );
            for (c, n) in WarpClass::ALL.into_iter().zip(set.counts()) {
                let tally = naive.classes.iter().filter(|&&k| k == Some(c)).count();
                assert_eq!(n, tally as u64, "case {case}: {c:?} count");
            }
            for w in 0..slots {
                assert_eq!(set.class_of(w), naive.classes[w], "case {case}: slot {w}");
            }
        }
    }

    #[test]
    fn lrr_wraps_across_the_word_boundary() {
        let mut set = ReadySet::new(96);
        let open = Open::new(false, None);
        let issued = vec![0; set.words()];
        for w in [5, 63, 64, 95] {
            set.set(w, Some(WarpClass::Ready));
        }
        assert_eq!(set.lrr(&open, &issued, 62), Some(63));
        assert_eq!(set.lrr(&open, &issued, 63), Some(64));
        assert_eq!(set.lrr(&open, &issued, 64), Some(95));
        assert_eq!(set.lrr(&open, &issued, 95), Some(5), "wraps to the lowest");
        // The issued mask excludes, in either word.
        let (i, bit) = slot_bit(64);
        let mut issued = issued;
        issued[i] |= bit;
        assert_eq!(set.lrr(&open, &issued, 63), Some(95));
        // Leaving the set clears the slot's bit.
        set.set(95, None);
        assert_eq!(set.lrr(&open, &issued, 64), Some(5));
        assert_eq!(set.class_of(95), None);
    }

    #[test]
    fn gto_ties_go_to_the_lowest_slot_and_issued_greedy_yields() {
        let mut set = ReadySet::new(96);
        let open = Open::new(false, None);
        for w in [70, 10, 80] {
            set.set(w, Some(WarpClass::Global));
        }
        let ages = |w: usize| if w == 10 { 9 } else { 3 };
        let mut issued = vec![0; set.words()];
        assert_eq!(set.gto(&open, &issued, None, ages), Some(70));
        assert_eq!(set.gto(&open, &issued, Some(10), ages), Some(10));
        let (i, bit) = slot_bit(10);
        issued[i] |= bit;
        assert_eq!(set.gto(&open, &issued, Some(10), ages), Some(70));
        // A taken LSU port closes the Global class.
        assert_eq!(set.gto(&Open::new(true, None), &issued, None, ages), None);
    }
}
