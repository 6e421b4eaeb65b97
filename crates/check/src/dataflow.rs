//! Register dataflow passes: undefined reads, dead writes, unreachable
//! code, and constant guard predicates.
//!
//! All passes are conservative with respect to divergent SIMT execution:
//! the CFG treats both sides of a guarded branch as executable, so a
//! "must be undefined" verdict holds on *every* path and a "may be
//! undefined" verdict on *some* path.

use gpu_isa::{CmpOp, Instr, Kernel, Operand, Reg};

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, Pass, Severity};

/// Dense per-register bitset sized to the kernel's register file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RegSet {
    bits: Vec<bool>,
}

impl RegSet {
    fn full(n: usize) -> Self {
        RegSet {
            bits: vec![true; n],
        }
    }

    fn empty(n: usize) -> Self {
        RegSet {
            bits: vec![false; n],
        }
    }

    fn contains(&self, r: Reg) -> bool {
        self.bits.get(r as usize).copied().unwrap_or(false)
    }

    fn insert(&mut self, r: Reg) {
        if let Some(b) = self.bits.get_mut(r as usize) {
            *b = true;
        }
    }

    fn remove(&mut self, r: Reg) {
        if let Some(b) = self.bits.get_mut(r as usize) {
            *b = false;
        }
    }

    fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            if *b && !*a {
                *a = true;
                changed = true;
            }
        }
        changed
    }

    fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            if !*b && *a {
                *a = false;
                changed = true;
            }
        }
        changed
    }
}

/// Reports reads of registers that are undefined on all paths (error) or on
/// at least one path (warning) from kernel entry.
pub fn undef_read_pass(kernel: &Kernel, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let nregs = kernel.num_regs() as usize;
    let instrs = kernel.instrs();
    let nb = cfg.blocks().len();
    if nregs == 0 || nb == 0 {
        return;
    }

    // may[b] / must[b]: registers that may / must still be undefined at
    // entry to block b. Entry block starts all-undefined; unvisited merge
    // inputs are identity (may: empty for union, must: full for
    // intersection) — handled by seeding non-entry blocks with the
    // opposite extreme and iterating to fixpoint.
    let mut may_in: Vec<RegSet> = (0..nb).map(|_| RegSet::empty(nregs)).collect();
    let mut must_in: Vec<RegSet> = (0..nb).map(|_| RegSet::full(nregs)).collect();
    may_in[0] = RegSet::full(nregs);

    let transfer = |block: usize, may: &mut RegSet, must: &mut RegSet| {
        let b = &cfg.blocks()[block];
        for instr in &instrs[b.start..b.end] {
            if let Some(d) = instr.def_reg() {
                may.remove(d);
                must.remove(d);
            }
        }
    };

    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nb {
            if !cfg.is_reachable(bi) {
                continue;
            }
            let mut may = may_in[bi].clone();
            let mut must = must_in[bi].clone();
            transfer(bi, &mut may, &mut must);
            for &s in &cfg.blocks()[bi].succs {
                changed |= may_in[s].union_with(&may);
                changed |= must_in[s].intersect_with(&must);
            }
        }
    }

    // Report, walking each reachable block with its fixpoint entry state.
    for bi in 0..nb {
        if !cfg.is_reachable(bi) {
            continue;
        }
        let mut may = may_in[bi].clone();
        let mut must = must_in[bi].clone();
        let b = &cfg.blocks()[bi];
        for (pc, instr) in instrs.iter().enumerate().take(b.end).skip(b.start) {
            for u in instr.use_regs() {
                if must.contains(u) {
                    out.push(Diagnostic::at(
                        Severity::Error,
                        Pass::UndefRead,
                        pc,
                        format!("read of r{u}, which is never written on any path from entry"),
                    ));
                } else if may.contains(u) {
                    out.push(Diagnostic::at(
                        Severity::Warning,
                        Pass::UndefRead,
                        pc,
                        format!("r{u} may be read before initialization on some path"),
                    ));
                }
            }
            if let Some(d) = instr.def_reg() {
                may.remove(d);
                must.remove(d);
            }
        }
    }
}

/// Reports writes whose value no later instruction can observe.
///
/// Pure register writes (ALU, `mov`, special/param reads) get a warning;
/// loads with a dead destination still perform the memory access, so they
/// are advisory only; atomics are never flagged (the memory side effect is
/// the point).
pub fn dead_write_pass(kernel: &Kernel, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let nregs = kernel.num_regs() as usize;
    let instrs = kernel.instrs();
    let nb = cfg.blocks().len();
    if nregs == 0 || nb == 0 {
        return;
    }

    // Backward liveness: live_out[b] = union of successors' live-in.
    let mut live_out: Vec<RegSet> = (0..nb).map(|_| RegSet::empty(nregs)).collect();
    let live_in_of = |block: usize, live_out: &RegSet| -> RegSet {
        let mut live = live_out.clone();
        let b = &cfg.blocks()[block];
        for pc in (b.start..b.end).rev() {
            if let Some(d) = instrs[pc].def_reg() {
                live.remove(d);
            }
            for u in instrs[pc].use_regs() {
                live.insert(u);
            }
        }
        live
    };

    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nb).rev() {
            let live_in: Vec<RegSet> = cfg.blocks()[bi]
                .succs
                .iter()
                .map(|&s| live_in_of(s, &live_out[s]))
                .collect();
            for li in &live_in {
                changed |= live_out[bi].union_with(li);
            }
        }
    }

    for (bi, block_live_out) in live_out.iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        let mut live = block_live_out.clone();
        let b = &cfg.blocks()[bi];
        for pc in (b.start..b.end).rev() {
            let instr = &instrs[pc];
            if let Some(d) = instr.def_reg() {
                if !live.contains(d) {
                    match instr {
                        Instr::AtomAdd { .. } => {} // memory side effect is the point
                        Instr::Ld { .. } => out.push(Diagnostic::at(
                            Severity::Info,
                            Pass::DeadWrite,
                            pc,
                            format!("loaded value in r{d} is never read (load still issues)"),
                        )),
                        _ => out.push(Diagnostic::at(
                            Severity::Warning,
                            Pass::DeadWrite,
                            pc,
                            format!("write to r{d} is never read"),
                        )),
                    }
                }
                live.remove(d);
            }
            for u in instr.use_regs() {
                live.insert(u);
            }
        }
    }
}

/// Reports basic blocks no path from the kernel entry can reach.
pub fn unreachable_pass(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    for bi in cfg.unreachable_blocks() {
        let b = &cfg.blocks()[bi];
        let count = b.end - b.start;
        out.push(Diagnostic::at(
            Severity::Warning,
            Pass::Unreachable,
            b.start,
            format!("unreachable code ({count} instruction(s) no path from entry executes)"),
        ));
    }
}

/// Reports guarded branches whose predicate is statically constant.
///
/// Predicate registers initialize to `false` ([`gpu_isa::WarpExec`] zeroes
/// them), so a predicate with no reachable `setp` is constant-false; one
/// whose reachable `setp`s all fold to `false` (immediate operands or a
/// register compared with itself) is too.
pub fn guard_const_pass(kernel: &Kernel, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let instrs = kernel.instrs();

    // For each predicate: collect the statically-known outcomes of all
    // reachable defs. `None` in the set means "not statically known".
    let mut defs: std::collections::HashMap<u8, Vec<Option<bool>>> =
        std::collections::HashMap::new();
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        for instr in &instrs[b.start..b.end] {
            if let Instr::SetP { pred, op, a, b } = instr {
                defs.entry(*pred).or_default().push(const_setp(*op, *a, *b));
            }
        }
    }

    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(bi) {
            continue;
        }
        for (pc, instr) in instrs.iter().enumerate().take(b.end).skip(b.start) {
            let Instr::Branch { guard: Some(g), .. } = instr else {
                continue;
            };
            // Constant-false holds when every reachable def folds to false
            // (the implicit initial value is false as well). Constant-true
            // would additionally require the use to be dominated by a def,
            // so only the false case is decided here.
            let all_false = defs
                .get(&g.pred)
                .is_none_or(|outcomes| outcomes.iter().all(|o| *o == Some(false)));
            if all_false {
                let effect = if g.expect {
                    "the branch is never taken"
                } else {
                    "the branch is always taken"
                };
                out.push(Diagnostic::at(
                    Severity::Warning,
                    Pass::GuardConst,
                    pc,
                    format!("guard tests p{}, which is always false: {effect}", g.pred),
                ));
            }
        }
    }
}

/// Folds a `setp` to a constant outcome when its operands allow it.
fn const_setp(op: CmpOp, a: Operand, b: Operand) -> Option<bool> {
    match (a, b) {
        (Operand::Imm(x), Operand::Imm(y)) => Some(op.eval(x, y)),
        // A register against itself: whatever it holds, the operands are equal.
        (Operand::Reg(x), Operand::Reg(y)) if x == y => Some(op.eval(0, 0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{AluOp, Guard, KernelBuilder, Operand, Special, Width, RECONV_NONE};

    fn diags_of(kernel: &Kernel, pass: fn(&Kernel, &Cfg, &mut Vec<Diagnostic>)) -> Vec<Diagnostic> {
        let cfg = Cfg::build(kernel);
        let mut out = Vec::new();
        pass(kernel, &cfg, &mut out);
        out
    }

    #[test]
    fn read_of_never_written_register_is_error() {
        let k = Kernel::from_parts(
            "k",
            vec![
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 0,
                    a: Operand::Reg(1),
                    b: Operand::Imm(1),
                },
                Instr::Exit,
            ],
            2,
            0,
            0,
        );
        let d = diags_of(&k, undef_read_pass);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].pc, Some(0));
        assert!(d[0].message.contains("r1"));
    }

    #[test]
    fn read_defined_on_one_path_is_warning() {
        // r1 is written only inside the if-body, then read after reconvergence.
        let mut b = KernelBuilder::new("k");
        let t = b.special(Special::GlobalTid);
        let p = b.setp(gpu_isa::CmpOp::Lt, t, Operand::Imm(8));
        let r = b.reg();
        b.if_then(p, |b| {
            b.mov_to(r, Operand::Imm(7));
        });
        b.add(r, Operand::Imm(1));
        b.exit();
        let k = b.build().unwrap();
        let d = diags_of(&k, undef_read_pass);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(d[0].message.contains("may be read"));
    }

    #[test]
    fn fully_initialized_kernel_is_quiet() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off = b.shl(t, 2);
        let a = b.add(base, off);
        let v = b.ld_global(Width::W4, a, 0);
        let w = b.add(v, v);
        b.st_global(Width::W4, a, 0, w);
        b.exit();
        let k = b.build().unwrap();
        assert!(diags_of(&k, undef_read_pass).is_empty());
    }

    #[test]
    fn loop_carried_register_is_not_flagged() {
        let mut b = KernelBuilder::new("k");
        let i = b.mov(Operand::Imm(0));
        b.while_loop(
            |b| b.setp(gpu_isa::CmpOp::Lt, i, Operand::Imm(4)),
            |b| {
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        assert!(diags_of(&k, undef_read_pass).is_empty());
    }

    #[test]
    fn dead_pure_write_is_warning() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(42)); // never read
        b.exit();
        let k = b.build().unwrap();
        let d = diags_of(&k, dead_write_pass);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].pc, Some(0));
    }

    #[test]
    fn overwritten_without_read_is_dead() {
        let mut b = KernelBuilder::new("k");
        let r = b.mov(Operand::Imm(1)); // dead: overwritten below
        b.mov_to(r, Operand::Imm(2)); // dead: never read
        b.exit();
        let k = b.build().unwrap();
        let d = diags_of(&k, dead_write_pass);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dead_load_is_info_and_atomic_is_exempt() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        b.ld_global(Width::W4, base, 0); // dead dst, still issues
        b.atom_add(Width::W4, base, 0, 1i64); // dead dst, side effect
        b.exit();
        let k = b.build().unwrap();
        let d = diags_of(&k, dead_write_pass);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, Severity::Info);
        assert!(d[0].message.contains("load still issues"));
    }

    #[test]
    fn loop_carried_use_keeps_write_live() {
        let mut b = KernelBuilder::new("k");
        let i = b.mov(Operand::Imm(0));
        b.while_loop(
            |b| b.setp(gpu_isa::CmpOp::Lt, i, Operand::Imm(4)),
            |b| {
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        assert!(diags_of(&k, dead_write_pass).is_empty());
    }

    #[test]
    fn unreachable_block_is_reported() {
        let k = gpu_isa::parse_kernel(".kernel k\nloop:\nbra loop\nexit\n").unwrap();
        let cfg = Cfg::build(&k);
        let mut out = Vec::new();
        unreachable_pass(&cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pc, Some(1));
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn never_set_guard_is_constant_false() {
        let k = Kernel::from_parts(
            "k",
            vec![
                Instr::Branch {
                    guard: Some(Guard {
                        pred: 0,
                        expect: true,
                    }),
                    target: 2,
                    reconverge: 2,
                },
                Instr::Mov {
                    dst: 0,
                    src: Operand::Imm(1),
                },
                Instr::Exit,
            ],
            1,
            0,
            0,
        );
        let d = diags_of(&k, guard_const_pass);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("never taken"), "{d:?}");
    }

    #[test]
    fn immediate_false_setp_folds() {
        let mut b = KernelBuilder::new("k");
        let p = b.setp(gpu_isa::CmpOp::Lt, Operand::Imm(5), Operand::Imm(3));
        b.if_pred_then(p, false, |b| {
            b.mov(Operand::Imm(1));
        });
        b.exit();
        let k = b.build().unwrap();
        let d = diags_of(&k, guard_const_pass);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("always false"));
    }

    #[test]
    fn data_dependent_guard_is_quiet() {
        let mut b = KernelBuilder::new("k");
        let t = b.special(Special::GlobalTid);
        let p = b.setp(gpu_isa::CmpOp::Lt, t, Operand::Imm(8));
        b.if_then(p, |b| {
            b.mov(Operand::Imm(1));
        });
        b.exit();
        let k = b.build().unwrap();
        assert!(diags_of(&k, guard_const_pass).is_empty());
    }

    #[test]
    fn self_compare_folds() {
        assert_eq!(
            const_setp(CmpOp::Eq, Operand::Reg(3), Operand::Reg(3)),
            Some(true)
        );
        assert_eq!(
            const_setp(CmpOp::Lt, Operand::Reg(3), Operand::Reg(3)),
            Some(false)
        );
        assert_eq!(
            const_setp(CmpOp::Lt, Operand::Reg(3), Operand::Reg(4)),
            None
        );
        assert_eq!(
            const_setp(CmpOp::Ge, Operand::Imm(2), Operand::Imm(2)),
            Some(true)
        );
    }

    #[test]
    fn unreachable_code_does_not_feed_undef_pass() {
        // The unreachable block reads an undefined register; only the
        // unreachable pass should speak to it.
        let k = Kernel::from_parts(
            "k",
            vec![
                Instr::Branch {
                    guard: None,
                    target: 2,
                    reconverge: RECONV_NONE,
                },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 0,
                    a: Operand::Reg(1),
                    b: Operand::Imm(1),
                },
                Instr::Exit,
            ],
            2,
            0,
            0,
        );
        assert!(diags_of(&k, undef_read_pass).is_empty());
    }
}
