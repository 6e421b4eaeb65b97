//! Per-warp register scoreboard.
//!
//! Tracks registers with in-flight writers so the issue stage can enforce
//! RAW/WAW hazards. Long-latency loads keep their destination registers
//! reserved until the last line of the coalesced access returns — which is
//! exactly the mechanism that *exposes* memory latency when no other warp
//! can issue (the paper's Figure 2).

use std::collections::HashSet;

use gpu_isa::{Instr, Reg};

/// A scoreboard over `slots` warp contexts.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    pending: Vec<HashSet<Reg>>,
}

impl Scoreboard {
    /// Creates a scoreboard for `slots` warp slots.
    pub fn new(slots: usize) -> Self {
        Scoreboard {
            pending: vec![HashSet::new(); slots],
        }
    }

    /// Marks `reg` of warp slot `warp` as having an in-flight writer.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub fn reserve(&mut self, warp: usize, reg: Reg) {
        self.pending[warp].insert(reg);
    }

    /// Clears the in-flight writer of `reg` (writeback completed).
    pub fn release(&mut self, warp: usize, reg: Reg) {
        self.pending[warp].remove(&reg);
    }

    /// Returns `true` if `reg` has an in-flight writer.
    pub fn is_pending(&self, warp: usize, reg: Reg) -> bool {
        self.pending[warp].contains(&reg)
    }

    /// Returns `true` if `instr` has no RAW/WAW hazard on warp slot `warp`.
    pub fn can_issue(&self, warp: usize, instr: &Instr) -> bool {
        let p = &self.pending[warp];
        if p.is_empty() {
            return true;
        }
        if let Some(d) = instr.def_reg() {
            if p.contains(&d) {
                return false;
            }
        }
        instr.use_regs().all(|r| !p.contains(&r))
    }

    /// Number of registers with in-flight writers on `warp`.
    pub fn pending_count(&self, warp: usize) -> usize {
        self.pending[warp].len()
    }

    /// Forgets all reservations of a warp slot (slot being recycled).
    pub fn clear(&mut self, warp: usize) {
        self.pending[warp].clear();
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes every slot's reserved registers in ascending register
    /// order (the per-slot set is a hash set, so iteration order must be
    /// pinned for deterministic snapshots).
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.usize(self.pending.len());
        for set in &self.pending {
            let mut regs: Vec<Reg> = set.iter().copied().collect();
            regs.sort_unstable();
            e.usize(regs.len());
            for r in regs {
                e.u32(u32::from(r));
            }
        }
    }

    /// Overwrites this scoreboard with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects slot-count mismatches and out-of-range register numbers, and
    /// propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        if d.usize()? != self.pending.len() {
            return Err(InvalidValue("scoreboard slot count mismatch"));
        }
        for set in &mut self.pending {
            set.clear();
            for _ in 0..d.usize()? {
                let r = d.u32()?;
                let r = Reg::try_from(r).map_err(|_| InvalidValue("register number overflow"))?;
                set.insert(r);
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
