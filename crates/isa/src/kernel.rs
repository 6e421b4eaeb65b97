//! Kernel container, launch geometry and static validation.

use std::fmt;

use crate::builder::MAX_PREDS;
use crate::instr::{Guard, Instr, Pc, PredReg, Reg, RECONV_NONE};

/// A compiled kernel: an instruction sequence plus the resources each thread
/// and CTA needs.
///
/// Build kernels with [`crate::KernelBuilder`]; hand-assembled kernels should
/// be checked with [`Kernel::validate`] before launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instr>,
    num_regs: Reg,
    shared_bytes: u64,
    local_bytes_per_thread: u64,
}

impl Kernel {
    /// Assembles a kernel from raw parts.
    ///
    /// Prefer [`crate::KernelBuilder`], which computes `num_regs` and emits
    /// well-formed control flow. This constructor does not validate; call
    /// [`Kernel::validate`].
    pub fn from_parts(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        num_regs: Reg,
        shared_bytes: u64,
        local_bytes_per_thread: u64,
    ) -> Self {
        Kernel {
            name: name.into(),
            instrs,
            num_regs,
            shared_bytes,
            local_bytes_per_thread,
        }
    }

    /// The kernel's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn instr(&self, pc: Pc) -> &Instr {
        &self.instrs[pc]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` for an empty (invalid) kernel.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// General-purpose registers each thread needs.
    pub fn num_regs(&self) -> Reg {
        self.num_regs
    }

    /// Shared-memory bytes each CTA needs.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    /// Local-memory bytes each thread needs.
    pub fn local_bytes_per_thread(&self) -> u64 {
        self.local_bytes_per_thread
    }

    /// Statically checks the kernel for well-formedness.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the kernel is empty, does not end every
    /// path in `exit` (conservatively: last instruction must be `exit` or an
    /// unconditional branch), references a register `>= num_regs` or a
    /// predicate `>= MAX_PREDS`, or contains a branch whose
    /// target/reconvergence PC is out of range.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.instrs.is_empty() {
            return Err(ValidateError::Empty);
        }
        match self.instrs.last() {
            Some(Instr::Exit) => {}
            Some(Instr::Branch { guard: None, .. }) => {}
            _ => return Err(ValidateError::MissingExit),
        }
        for (pc, instr) in self.instrs.iter().enumerate() {
            if let Some(d) = instr.def_reg() {
                if d >= self.num_regs {
                    return Err(ValidateError::RegOutOfRange { pc, reg: d });
                }
            }
            for u in instr.use_regs() {
                if u >= self.num_regs {
                    return Err(ValidateError::RegOutOfRange { pc, reg: u });
                }
            }
            if let Instr::SetP { pred, .. }
            | Instr::Branch {
                guard: Some(Guard { pred, .. }),
                ..
            } = instr
            {
                if *pred as usize >= MAX_PREDS {
                    return Err(ValidateError::PredOutOfRange { pc, pred: *pred });
                }
            }
            if let Instr::Branch {
                target, reconverge, ..
            } = instr
            {
                if *target >= self.instrs.len() {
                    return Err(ValidateError::BadBranch {
                        pc,
                        target: *target,
                    });
                }
                if *reconverge != RECONV_NONE && *reconverge > self.instrs.len() {
                    return Err(ValidateError::BadBranch {
                        pc,
                        target: *reconverge,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Kernel {
    /// Disassembly listing in the directive form accepted by
    /// [`crate::asm::parse_kernel`] (round-trippable).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".kernel {}", self.name)?;
        writeln!(f, ".regs {}", self.num_regs)?;
        writeln!(f, ".shared {}", self.shared_bytes)?;
        writeln!(f, ".local {}", self.local_bytes_per_thread)?;
        for (pc, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:>4}: {instr}")?;
        }
        Ok(())
    }
}

/// Error returned by [`Kernel::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// The kernel has no instructions.
    Empty,
    /// Execution can fall off the end of the instruction sequence.
    MissingExit,
    /// An instruction references a register outside `0..num_regs`.
    RegOutOfRange {
        /// Offending instruction PC.
        pc: Pc,
        /// Offending register index.
        reg: Reg,
    },
    /// A `setp` or branch guard names a predicate outside `0..MAX_PREDS`.
    PredOutOfRange {
        /// Offending instruction PC.
        pc: Pc,
        /// Offending predicate register.
        pred: PredReg,
    },
    /// A branch target or reconvergence PC is out of range.
    BadBranch {
        /// Offending instruction PC.
        pc: Pc,
        /// Offending target PC.
        target: Pc,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => f.write_str("kernel has no instructions"),
            ValidateError::MissingExit => {
                f.write_str("kernel does not end in exit or an unconditional branch")
            }
            ValidateError::RegOutOfRange { pc, reg } => {
                write!(
                    f,
                    "instruction {pc} references register r{reg} out of range"
                )
            }
            ValidateError::PredOutOfRange { pc, pred } => {
                write!(
                    f,
                    "instruction {pc} references predicate p{pred} out of range"
                )
            }
            ValidateError::BadBranch { pc, target } => {
                write!(f, "branch at {pc} targets out-of-range pc {target}")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Launch geometry: a 1-D grid of 1-D CTAs.
///
/// The model keeps launch geometry one-dimensional; multi-dimensional grids
/// linearize the same way real GPUs do, so nothing in the latency analysis
/// depends on higher dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Launch {
    /// CTAs in the grid.
    pub grid_dim: u32,
    /// Threads per CTA (must be a multiple of nothing; partial warps are
    /// padded with inactive lanes).
    pub block_dim: u32,
    /// Kernel parameters, each a 64-bit value (pointers or scalars).
    pub params: Vec<u64>,
}

impl Launch {
    /// Creates a launch with the given geometry and parameters.
    ///
    /// # Panics
    ///
    /// Panics if `grid_dim` or `block_dim` is zero.
    pub fn new(grid_dim: u32, block_dim: u32, params: Vec<u64>) -> Self {
        assert!(grid_dim > 0, "grid_dim must be positive");
        assert!(block_dim > 0, "block_dim must be positive");
        Launch {
            grid_dim,
            block_dim,
            params,
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Warps per CTA for the given warp size.
    pub fn warps_per_cta(&self, warp_size: u32) -> u32 {
        self.block_dim.div_ceil(warp_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Operand};

    fn add_exit_kernel() -> Kernel {
        Kernel::from_parts(
            "k",
            vec![
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 0,
                    a: Operand::Imm(1),
                    b: Operand::Imm(2),
                },
                Instr::Exit,
            ],
            1,
            0,
            0,
        )
    }

    #[test]
    fn valid_kernel_passes() {
        assert_eq!(add_exit_kernel().validate(), Ok(()));
    }

    #[test]
    fn empty_kernel_rejected() {
        let k = Kernel::from_parts("k", vec![], 0, 0, 0);
        assert_eq!(k.validate(), Err(ValidateError::Empty));
        assert!(k.is_empty());
    }

    #[test]
    fn missing_exit_rejected() {
        let k = Kernel::from_parts(
            "k",
            vec![Instr::Mov {
                dst: 0,
                src: Operand::Imm(0),
            }],
            1,
            0,
            0,
        );
        assert_eq!(k.validate(), Err(ValidateError::MissingExit));
    }

    #[test]
    fn reg_out_of_range_rejected() {
        let k = Kernel::from_parts(
            "k",
            vec![
                Instr::Mov {
                    dst: 5,
                    src: Operand::Imm(0),
                },
                Instr::Exit,
            ],
            1,
            0,
            0,
        );
        assert_eq!(
            k.validate(),
            Err(ValidateError::RegOutOfRange { pc: 0, reg: 5 })
        );
    }

    #[test]
    fn bad_branch_rejected() {
        let k = Kernel::from_parts(
            "k",
            vec![
                Instr::Branch {
                    guard: None,
                    target: 99,
                    reconverge: RECONV_NONE,
                },
                Instr::Exit,
            ],
            0,
            0,
            0,
        );
        assert_eq!(
            k.validate(),
            Err(ValidateError::BadBranch { pc: 0, target: 99 })
        );
    }

    #[test]
    fn pred_out_of_range_rejected() {
        for (line, pred) in [("setp.lt p9, 1, 2", 9), ("@p8 bra 1 (reconv 1)", 8)] {
            let text = format!(".kernel k\n.regs 1\n.shared 0\n.local 0\n{line}\nexit\n");
            assert_eq!(
                crate::asm::parse_kernel(&text).err().map(|e| e.kind),
                Some(crate::asm::AsmErrorKind::Validation(
                    ValidateError::PredOutOfRange { pc: 0, pred }
                )),
                "{line}"
            );
        }
    }

    #[test]
    fn launch_geometry() {
        let l = Launch::new(4, 96, vec![1, 2]);
        assert_eq!(l.total_threads(), 384);
        assert_eq!(l.warps_per_cta(32), 3);
        let l2 = Launch::new(1, 33, vec![]);
        assert_eq!(l2.warps_per_cta(32), 2);
    }

    #[test]
    #[should_panic(expected = "block_dim must be positive")]
    fn zero_block_dim_panics() {
        let _ = Launch::new(1, 0, vec![]);
    }

    #[test]
    fn disassembly_lists_instructions() {
        let k = add_exit_kernel();
        let text = k.to_string();
        assert!(text.contains(".kernel k"));
        assert!(text.contains(".regs 1"));
        assert!(text.contains("0: add r0, 1, 2"));
        assert!(text.contains("1: exit"));
        assert_eq!(k.len(), 2);
        assert_eq!(k.num_regs(), 1);
    }

    #[test]
    fn validate_errors_display() {
        assert!(ValidateError::Empty.to_string().contains("no instructions"));
        assert!(ValidateError::MissingExit.to_string().contains("exit"));
    }
}
