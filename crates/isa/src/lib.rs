//! A small PTX-flavoured kernel IR with a functional SIMT executor.
//!
//! This crate is the instruction-set substrate of the `gpu-latency`
//! workspace (a reproduction of *Andersch et al., "On Latency in GPU
//! Throughput Microarchitectures", ISPASS 2015*). It provides:
//!
//! - [`Instr`] / [`Kernel`]: a register-machine IR with global/local/shared
//!   memory, atomics, barriers, and branches carrying explicit reconvergence
//!   PCs.
//! - [`KernelBuilder`]: structured construction (`if`, `if/else`, `while`)
//!   that lowers to correctly-reconverging branches.
//! - [`WarpExec`]: a functional warp executor with a GPGPU-Sim-style SIMT
//!   reconvergence stack. It updates architectural state at issue time and
//!   reports per-lane memory accesses so the timing model (`gpu-sim`) can
//!   replay them through the memory pipeline.
//!
//! # Examples
//!
//! Build and functionally run a kernel that doubles 64 numbers:
//!
//! ```
//! use gpu_isa::{KernelBuilder, Special, Width, Launch};
//!
//! let mut b = KernelBuilder::new("double");
//! let buf = b.param(0);
//! let gtid = b.special(Special::GlobalTid);
//! let off = b.shl(gtid, 2);
//! let addr = b.add(buf, off);
//! let v = b.ld_global(Width::W4, addr, 0);
//! let v2 = b.add(v, v);
//! b.st_global(Width::W4, addr, 0, v2);
//! b.exit();
//! let kernel = b.build()?;
//! let launch = Launch::new(2, 32, vec![0x1000]);
//! assert_eq!(launch.total_threads(), 64);
//! # Ok::<(), gpu_isa::ValidateError>(())
//! ```

#![forbid(unsafe_code)]

pub mod asm;
mod builder;
mod exec;
mod instr;
mod kernel;

pub use asm::{parse_kernel, AsmError, AsmErrorKind};
pub use builder::{KernelBuilder, MAX_PREDS};
pub use exec::{
    eval_alu, LaneAccess, LocalMap, MemBackend, MemOp, StepOutcome, ThreadCtx, WarpExec,
    MAX_WARP_SIZE,
};
pub use instr::{
    AluOp, CmpOp, Guard, Instr, InstrClass, MemRef, Operand, Pc, PredReg, Reg, Space, Special,
    Width, RECONV_NONE,
};
pub use kernel::{Kernel, Launch, ValidateError};
