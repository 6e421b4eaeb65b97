//! Per-warp register scoreboard.
//!
//! Tracks registers with in-flight writers so the issue stage can enforce
//! RAW/WAW hazards. Long-latency loads keep their destination registers
//! reserved until the last line of the coalesced access returns — which is
//! exactly the mechanism that *exposes* memory latency when no other warp
//! can issue (the paper's Figure 2).

use gpu_isa::{Instr, Reg};

/// Registers one 64-bit word of a slot's bitset covers.
const WORD_BITS: usize = u64::BITS as usize;

/// A scoreboard over `slots` warp contexts: one register bitset per slot,
/// as wide as the highest register ever reserved (a kernel's registers are
/// numbered below its `num_regs()`).
#[derive(Debug, Clone)]
pub struct Scoreboard {
    slots: usize,
    /// Words per slot; slot `w` owns `bits[w * words..][..words]`.
    words: usize,
    bits: Vec<u64>,
}

impl Scoreboard {
    /// Creates a scoreboard for `slots` warp slots.
    pub fn new(slots: usize) -> Self {
        Scoreboard {
            slots,
            words: 0,
            bits: Vec::new(),
        }
    }

    fn slot(&self, warp: usize) -> &[u64] {
        assert!(warp < self.slots, "warp slot {warp} out of range");
        &self.bits[warp * self.words..][..self.words]
    }

    fn slot_mut(&mut self, warp: usize) -> &mut [u64] {
        assert!(warp < self.slots, "warp slot {warp} out of range");
        &mut self.bits[warp * self.words..][..self.words]
    }

    /// The word and bit of `reg` inside a slot's bitset.
    fn locate(reg: Reg) -> (usize, u64) {
        (
            usize::from(reg) / WORD_BITS,
            1 << (usize::from(reg) % WORD_BITS),
        )
    }

    /// Widens every slot to `words` words, keeping its reservations.
    fn widen(&mut self, words: usize) {
        let mut bits = vec![0u64; self.slots * words];
        for w in 0..self.slots {
            bits[w * words..][..self.words].copy_from_slice(self.slot(w));
        }
        self.words = words;
        self.bits = bits;
    }

    /// Marks `reg` of warp slot `warp` as having an in-flight writer.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub fn reserve(&mut self, warp: usize, reg: Reg) {
        let (word, bit) = Self::locate(reg);
        if word >= self.words {
            self.widen(word + 1);
        }
        self.slot_mut(warp)[word] |= bit;
    }

    /// Clears the in-flight writer of `reg` (writeback completed). A
    /// register beyond the slots' width was never reserved, and its word
    /// index must not reach into the next slot's bits.
    pub fn release(&mut self, warp: usize, reg: Reg) {
        let (word, bit) = Self::locate(reg);
        if let Some(w) = self.slot_mut(warp).get_mut(word) {
            *w &= !bit;
        }
    }

    /// Returns `true` if `reg` has an in-flight writer.
    pub fn is_pending(&self, warp: usize, reg: Reg) -> bool {
        let (word, bit) = Self::locate(reg);
        self.slot(warp).get(word).is_some_and(|w| w & bit != 0)
    }

    /// Returns `true` if `instr` has no RAW/WAW hazard on warp slot `warp`.
    pub fn can_issue(&self, warp: usize, instr: &Instr) -> bool {
        let p = self.slot(warp);
        if p.iter().all(|&w| w == 0) {
            return true;
        }
        let pending = |reg: Reg| {
            let (word, bit) = Self::locate(reg);
            p.get(word).is_some_and(|w| w & bit != 0)
        };
        !instr.def_reg().is_some_and(pending) && !instr.use_regs().any(pending)
    }

    /// Number of registers with in-flight writers on `warp`.
    pub fn pending_count(&self, warp: usize) -> usize {
        self.slot(warp)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Forgets all reservations of a warp slot (slot being recycled).
    pub fn clear(&mut self, warp: usize) {
        self.slot_mut(warp).fill(0);
    }

    /// The reserved registers of `warp`, ascending.
    fn pending(&self, warp: usize) -> impl Iterator<Item = Reg> + '_ {
        self.slot(warp).iter().enumerate().flat_map(|(i, &word)| {
            // Each step drops the lowest set bit of what is left.
            let nonzero = |w: u64| (w != 0).then_some(w);
            std::iter::successors(nonzero(word), move |&w| nonzero(w & (w - 1)))
                .map(move |w| (i * WORD_BITS + w.trailing_zeros() as usize) as Reg)
        })
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes every slot's reserved registers in ascending register
    /// order.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.usize(self.slots);
        for warp in 0..self.slots {
            e.usize(self.pending_count(warp));
            for r in self.pending(warp) {
                e.u32(u32::from(r));
            }
        }
    }

    /// Overwrites this scoreboard with a decoded checkpoint. `num_regs` is
    /// the register count of the kernel the checkpoint's warps run (0 when
    /// it holds no launch): only a running kernel's instructions reserve,
    /// and the bitset is never widened past what it declares.
    ///
    /// # Errors
    ///
    /// Rejects slot-count mismatches and reservations on registers the
    /// kernel does not have, and propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
        num_regs: Reg,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        if d.usize()? != self.slots {
            return Err(InvalidValue("scoreboard slot count mismatch"));
        }
        self.bits.fill(0);
        for warp in 0..self.slots {
            for _ in 0..d.usize()? {
                let r = d.u32()?;
                if r >= u32::from(num_regs) {
                    return Err(InvalidValue(
                        "scoreboard reservation beyond the kernel's registers",
                    ));
                }
                self.reserve(warp, r as Reg);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{AluOp, Operand};

    fn add(dst: Reg, a: Reg, b: Reg) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        }
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new(2);
        sb.reserve(0, 5);
        assert!(!sb.can_issue(0, &add(7, 5, 6)), "reads pending r5");
        assert!(sb.can_issue(0, &add(7, 6, 8)));
        assert!(sb.can_issue(1, &add(7, 5, 6)), "other warp unaffected");
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new(1);
        sb.reserve(0, 3);
        assert!(!sb.can_issue(0, &add(3, 1, 2)), "writes pending r3");
        sb.release(0, 3);
        assert!(sb.can_issue(0, &add(3, 1, 2)));
    }

    #[test]
    fn clear_releases_everything() {
        let mut sb = Scoreboard::new(1);
        sb.reserve(0, 1);
        sb.reserve(0, 2);
        assert_eq!(sb.pending_count(0), 2);
        sb.clear(0);
        assert_eq!(sb.pending_count(0), 0);
        assert!(!sb.is_pending(0, 1));
    }

    #[test]
    fn release_beyond_the_width_leaves_the_next_slot_alone() {
        // A writeback can outlive its kernel: the register it releases may
        // lie past what the scoreboard has since been sized for.
        let mut sb = Scoreboard::new(2);
        sb.reserve(1, 3);
        sb.release(0, 64 + 3);
        assert!(sb.is_pending(1, 3));
        assert!(!sb.is_pending(0, 64 + 3));
        assert!(sb.can_issue(0, &add(64 + 3, 200, 201)));
    }

    #[test]
    fn no_hazard_on_immediates() {
        let sb = Scoreboard::new(1);
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: 0,
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert!(sb.can_issue(0, &i));
    }
}
