//! Instruction definitions for the simulator's kernel IR.
//!
//! The IR is a small, PTX-flavoured register machine: each thread owns a file
//! of 64-bit general-purpose registers and a handful of 1-bit predicate
//! registers. Control flow is expressed with (optionally predicated) branches
//! that carry an explicit reconvergence PC, which the SIMT stack in
//! [`crate::exec`] uses to handle divergence the way GPGPU-Sim's
//! immediate-post-dominator stack does.

use std::fmt;

/// Index of a general-purpose (64-bit) register within a thread.
pub type Reg = u16;

/// Index of a predicate (1-bit) register within a thread.
pub type PredReg = u8;

/// Program counter: an index into [`crate::Kernel::instrs`].
pub type Pc = usize;

/// Sentinel reconvergence PC meaning "never reconverges" (used for the warp's
/// root SIMT stack entry, not for branches emitted by the builder).
pub const RECONV_NONE: Pc = usize::MAX;

/// Memory spaces visible to kernel code.
///
/// `Local` is thread-private memory; as on real GPUs it is interleaved into
/// the global address space and flows through the same cache pipeline, which
/// is what makes the Kepler "L1 caches local but not global accesses"
/// distinction (paper §II) expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device memory, shared by all threads, cached per-architecture policy.
    Global,
    /// Thread-private spill/stack space, mapped into device memory.
    Local,
    /// On-chip per-CTA scratchpad; fixed low latency, never leaves the SM.
    Shared,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Space::Global => "global",
            Space::Local => "local",
            Space::Shared => "shared",
        };
        f.write_str(s)
    }
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 32-bit access.
    W4,
    /// 64-bit access (e.g. pointers).
    W8,
}

impl Width {
    /// Width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes() * 8)
    }
}

/// Integer and floating-point ALU operations.
///
/// Integer ops use wrapping 64-bit two's-complement semantics; float ops
/// interpret the low 32 bits of their operands as an IEEE-754 `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping integer add.
    Add,
    /// Wrapping integer subtract.
    Sub,
    /// Wrapping integer multiply.
    Mul,
    /// Integer divide (signed); divide-by-zero yields 0 like PTX `div`.
    Div,
    /// Integer remainder (signed); rem-by-zero yields the dividend.
    Rem,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by `b mod 64`).
    Shl,
    /// Logical shift right (by `b mod 64`).
    Shr,
    /// `f32` add on the low 32 bits.
    FAdd,
    /// `f32` multiply on the low 32 bits.
    FMul,
    /// `f32` divide on the low 32 bits (executes on the SFU pipeline).
    FDiv,
}

impl AluOp {
    /// Returns `true` for transcendental/iterative ops that execute on the
    /// special-function unit rather than the main ALU pipeline.
    pub fn is_sfu(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Rem | AluOp::FDiv)
    }

    /// Returns `true` for single-precision floating point ops.
    pub fn is_float(self) -> bool {
        matches!(self, AluOp::FAdd | AluOp::FMul | AluOp::FDiv)
    }
}

/// Comparison operators for [`Instr::SetP`] (signed 64-bit semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on signed 64-bit values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Special (read-only) per-thread registers, PTX-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within its CTA (`%tid.x`).
    TidX,
    /// CTA index within the grid (`%ctaid.x`).
    CtaIdX,
    /// Threads per CTA (`%ntid.x`).
    NTidX,
    /// CTAs in the grid (`%nctaid.x`).
    NCtaIdX,
    /// Lane index within the warp (`%laneid`).
    LaneId,
    /// Convenience: globally linearized thread id (`ctaid * ntid + tid`).
    GlobalTid,
}

/// An instruction operand: either a register or a sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a general-purpose register.
    Reg(Reg),
    /// A 64-bit immediate (stored signed, used as raw bits).
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A predicate guard: the branch is taken by threads whose predicate register
/// equals `expect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Predicate register tested.
    pub pred: PredReg,
    /// Value the predicate must have for the guard to pass.
    pub expect: bool,
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}p{}", if self.expect { "" } else { "!" }, self.pred)
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dst = a op b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = special register`.
    ReadSpecial {
        /// Destination register.
        dst: Reg,
        /// Which special register to read.
        special: Special,
    },
    /// `dst = kernel parameter[index]` (const-cache access, fixed latency).
    LdParam {
        /// Destination register.
        dst: Reg,
        /// Parameter slot index.
        index: usize,
    },
    /// `pred = a cmp b` (signed comparison).
    SetP {
        /// Destination predicate register.
        pred: PredReg,
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = mem[space][addr_reg + offset]`.
    Ld {
        /// Memory space accessed.
        space: Space,
        /// Access width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Register holding the base byte address.
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: i64,
    },
    /// `mem[space][addr_reg + offset] = src`.
    St {
        /// Memory space accessed.
        space: Space,
        /// Access width.
        width: Width,
        /// Value stored.
        src: Operand,
        /// Register holding the base byte address.
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: i64,
    },
    /// `dst = atomicAdd(&global[addr + offset], val)` returning the old value.
    AtomAdd {
        /// Access width.
        width: Width,
        /// Destination register receiving the pre-add value.
        dst: Reg,
        /// Register holding the base byte address (global space).
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: i64,
        /// Addend.
        val: Operand,
    },
    /// (Optionally predicated) branch to `target`, reconverging at
    /// `reconverge` (the branch's immediate post-dominator).
    Branch {
        /// Branch is taken by threads passing this guard (all threads if
        /// `None`).
        guard: Option<Guard>,
        /// Branch target PC.
        target: Pc,
        /// Reconvergence PC for divergent execution.
        reconverge: Pc,
    },
    /// CTA-wide barrier (`bar.sync`).
    Bar,
    /// Pipeline-visible fence separating dependent memory operations; no
    /// functional effect in this model (functional execution is in issue
    /// order already), but occupies an issue slot.
    MemBar,
    /// Terminates the executing threads.
    Exit,
}

/// Coarse functional-unit class of an instruction, used by the SM issue logic
/// to pick a pipeline and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer/logic ALU pipeline.
    IntAlu,
    /// Single-precision floating point pipeline.
    FpAlu,
    /// Special-function unit (div/rem/transcendental).
    Sfu,
    /// Load/store unit: memory in `space`, `is_store` for writes, atomics
    /// count as stores for issue purposes but also write a register.
    Mem {
        /// Memory space accessed.
        space: Space,
        /// `true` for stores and atomics.
        is_store: bool,
    },
    /// Control flow (branch handling in the front end).
    Control,
    /// CTA barrier.
    Barrier,
    /// Thread exit.
    Exit,
}

/// A uniform view of one memory reference: the per-instruction metadata
/// every address solver needs, extracted from the three memory instruction
/// shapes ([`Instr::Ld`], [`Instr::St`], [`Instr::AtomAdd`]) so analyzers
/// don't each re-match the variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Memory space accessed.
    pub space: Space,
    /// Access width.
    pub width: Width,
    /// Register holding the base byte address.
    pub addr: Reg,
    /// Constant byte offset added to the base.
    pub offset: i64,
    /// `true` for stores and atomics (they write memory).
    pub is_store: bool,
    /// `true` for atomics (read-modify-write; bypasses the L1 like the
    /// simulator's atomic path).
    pub is_atomic: bool,
}

impl Special {
    /// Per-lane stride of this special register across one warp: lane `i`
    /// reads `base + i * lane_stride()` for some warp-uniform base. The
    /// warp-uniform specials stride by zero.
    pub const fn lane_stride(self) -> i64 {
        match self {
            Special::TidX | Special::LaneId | Special::GlobalTid => 1,
            Special::CtaIdX | Special::NTidX | Special::NCtaIdX => 0,
        }
    }
}

impl Instr {
    /// The memory reference this instruction performs, if it is a load,
    /// store, or atomic.
    pub fn mem_ref(&self) -> Option<MemRef> {
        match self {
            Instr::Ld {
                space,
                width,
                addr,
                offset,
                ..
            } => Some(MemRef {
                space: *space,
                width: *width,
                addr: *addr,
                offset: *offset,
                is_store: false,
                is_atomic: false,
            }),
            Instr::St {
                space,
                width,
                addr,
                offset,
                ..
            } => Some(MemRef {
                space: *space,
                width: *width,
                addr: *addr,
                offset: *offset,
                is_store: true,
                is_atomic: false,
            }),
            Instr::AtomAdd {
                width,
                addr,
                offset,
                ..
            } => Some(MemRef {
                space: Space::Global,
                width: *width,
                addr: *addr,
                offset: *offset,
                is_store: true,
                is_atomic: true,
            }),
            _ => None,
        }
    }

    /// Returns the coarse functional-unit class.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Alu { op, .. } if op.is_sfu() => InstrClass::Sfu,
            Instr::Alu { op, .. } if op.is_float() => InstrClass::FpAlu,
            Instr::Alu { .. }
            | Instr::Mov { .. }
            | Instr::ReadSpecial { .. }
            | Instr::LdParam { .. }
            | Instr::SetP { .. } => InstrClass::IntAlu,
            Instr::Ld { space, .. } => InstrClass::Mem {
                space: *space,
                is_store: false,
            },
            Instr::St { space, .. } => InstrClass::Mem {
                space: *space,
                is_store: true,
            },
            Instr::AtomAdd { .. } => InstrClass::Mem {
                space: Space::Global,
                is_store: true,
            },
            Instr::Branch { .. } => InstrClass::Control,
            Instr::Bar => InstrClass::Barrier,
            Instr::MemBar => InstrClass::Control,
            Instr::Exit => InstrClass::Exit,
        }
    }

    /// The general-purpose register written by this instruction, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::ReadSpecial { dst, .. }
            | Instr::LdParam { dst, .. }
            | Instr::Ld { dst, .. }
            | Instr::AtomAdd { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The general-purpose registers read by this instruction, in operand
    /// order (at most two). Allocation-free: the scoreboard asks this of
    /// every blocked warp every cycle.
    pub fn use_regs(&self) -> impl Iterator<Item = Reg> {
        let reg = |o: &Operand| match o {
            Operand::Reg(r) => Some(*r),
            _ => None,
        };
        let uses = match self {
            Instr::Alu { a, b, .. } | Instr::SetP { a, b, .. } => [reg(a), reg(b)],
            Instr::Mov { src, .. } => [reg(src), None],
            Instr::Ld { addr, .. } => [Some(*addr), None],
            Instr::St { src, addr, .. } => [reg(src), Some(*addr)],
            Instr::AtomAdd { addr, val, .. } => [reg(val), Some(*addr)],
            Instr::ReadSpecial { .. }
            | Instr::LdParam { .. }
            | Instr::Branch { .. }
            | Instr::Bar
            | Instr::MemBar
            | Instr::Exit => [None, None],
        };
        uses.into_iter().flatten()
    }

    /// Returns `true` if this is a global or local memory access (the kind
    /// the paper's latency analysis traces).
    pub fn touches_memory_pipeline(&self) -> bool {
        matches!(
            self.class(),
            InstrClass::Mem {
                space: Space::Global | Space::Local,
                ..
            }
        )
    }
}

impl AluOp {
    /// Assembly mnemonic (see [`crate::asm`]).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::FAdd => "fadd",
            AluOp::FMul => "fmul",
            AluOp::FDiv => "fdiv",
        }
    }
}

impl CmpOp {
    /// Assembly mnemonic suffix (see [`crate::asm`]).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

impl Special {
    /// Assembly register name (see [`crate::asm`]).
    pub fn name(self) -> &'static str {
        match self {
            Special::TidX => "%tid.x",
            Special::CtaIdX => "%ctaid.x",
            Special::NTidX => "%ntid.x",
            Special::NCtaIdX => "%nctaid.x",
            Special::LaneId => "%laneid",
            Special::GlobalTid => "%gtid",
        }
    }
}

/// Formats a `[rN+off]` / `[rN-off]` address operand.
fn fmt_addr(f: &mut fmt::Formatter<'_>, addr: Reg, offset: i64) -> fmt::Result {
    if offset < 0 {
        write!(f, "[r{addr}{offset}]")
    } else {
        write!(f, "[r{addr}+{offset}]")
    }
}

impl fmt::Display for Instr {
    /// Canonical assembly form, re-parsable by [`crate::asm::parse_kernel`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => {
                write!(f, "{} r{dst}, {a}, {b}", op.mnemonic())
            }
            Instr::Mov { dst, src } => write!(f, "mov r{dst}, {src}"),
            Instr::ReadSpecial { dst, special } => {
                write!(f, "mov r{dst}, {}", special.name())
            }
            Instr::LdParam { dst, index } => write!(f, "ld.param r{dst}, [{index}]"),
            Instr::SetP { pred, op, a, b } => {
                write!(f, "setp.{} p{pred}, {a}, {b}", op.mnemonic())
            }
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                write!(f, "ld.{space}.u{width} r{dst}, ")?;
                fmt_addr(f, *addr, *offset)
            }
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                write!(f, "st.{space}.u{width} ")?;
                fmt_addr(f, *addr, *offset)?;
                write!(f, ", {src}")
            }
            Instr::AtomAdd {
                width,
                dst,
                addr,
                offset,
                val,
            } => {
                write!(f, "atom.add.u{width} r{dst}, ")?;
                fmt_addr(f, *addr, *offset)?;
                write!(f, ", {val}")
            }
            Instr::Branch {
                guard,
                target,
                reconverge,
            } => {
                if let Some(g) = guard {
                    write!(f, "{g} ")?;
                }
                if *reconverge == RECONV_NONE {
                    write!(f, "bra {target} (reconv none)")
                } else {
                    write!(f, "bra {target} (reconv {reconverge})")
                }
            }
            Instr::Bar => f.write_str("bar.sync"),
            Instr::MemBar => f.write_str("membar"),
            Instr::Exit => f.write_str("exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_dispatch() {
        let add = Instr::Alu {
            op: AluOp::Add,
            dst: 0,
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert_eq!(add.class(), InstrClass::IntAlu);

        let fdiv = Instr::Alu {
            op: AluOp::FDiv,
            dst: 0,
            a: Operand::Reg(1),
            b: Operand::Reg(2),
        };
        assert_eq!(fdiv.class(), InstrClass::Sfu);

        let fmul = Instr::Alu {
            op: AluOp::FMul,
            dst: 0,
            a: Operand::Reg(1),
            b: Operand::Reg(2),
        };
        assert_eq!(fmul.class(), InstrClass::FpAlu);

        let ld = Instr::Ld {
            space: Space::Global,
            width: Width::W4,
            dst: 3,
            addr: 4,
            offset: 0,
        };
        assert_eq!(
            ld.class(),
            InstrClass::Mem {
                space: Space::Global,
                is_store: false
            }
        );
        assert!(ld.touches_memory_pipeline());

        let sh = Instr::St {
            space: Space::Shared,
            width: Width::W4,
            src: Operand::Reg(1),
            addr: 2,
            offset: 0,
        };
        assert!(!sh.touches_memory_pipeline());
    }

    #[test]
    fn def_use_sets() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: 7,
            a: Operand::Reg(1),
            b: Operand::Imm(5),
        };
        assert_eq!(i.def_reg(), Some(7));
        assert_eq!(i.use_regs().collect::<Vec<_>>(), vec![1]);

        let st = Instr::St {
            space: Space::Global,
            width: Width::W8,
            src: Operand::Reg(2),
            addr: 3,
            offset: 8,
        };
        assert_eq!(st.def_reg(), None);
        assert_eq!(st.use_regs().collect::<Vec<_>>(), vec![2, 3]);

        let atom = Instr::AtomAdd {
            width: Width::W4,
            dst: 1,
            addr: 2,
            offset: 0,
            val: Operand::Reg(4),
        };
        assert_eq!(atom.def_reg(), Some(1));
        assert_eq!(atom.use_regs().collect::<Vec<_>>(), vec![4, 2]);

        assert_eq!(Instr::Exit.def_reg(), None);
        assert_eq!(Instr::Exit.use_regs().count(), 0);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(-1, 0));
        assert!(!CmpOp::Lt.eval(0, 0));
        assert!(CmpOp::Ge.eval(0, 0));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Le.eval(i64::MIN, i64::MAX));
        assert!(CmpOp::Gt.eval(3, 2));
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W4.bytes(), 4);
        assert_eq!(Width::W8.bytes(), 8);
    }

    #[test]
    fn display_forms() {
        let g = Guard {
            pred: 1,
            expect: false,
        };
        assert_eq!(g.to_string(), "@!p1");
        let b = Instr::Branch {
            guard: Some(g),
            target: 10,
            reconverge: 12,
        };
        assert_eq!(b.to_string(), "@!p1 bra 10 (reconv 12)");
        assert_eq!(AluOp::FDiv.mnemonic(), "fdiv");
        assert_eq!(CmpOp::Ge.mnemonic(), "ge");
        assert_eq!(Special::GlobalTid.name(), "%gtid");
        assert_eq!(Space::Local.to_string(), "local");
        assert_eq!(Operand::Reg(3).to_string(), "r3");
        assert_eq!(Operand::Imm(-4).to_string(), "-4");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(3u16), Operand::Reg(3));
        assert_eq!(Operand::from(-9i64), Operand::Imm(-9));
    }
}
