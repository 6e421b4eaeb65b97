//! Functional SIMT execution of warps.
//!
//! [`WarpExec`] executes a warp of up to 32 threads in lock-step over a
//! [`Kernel`], handling branch divergence with a reconvergence stack
//! equivalent to GPGPU-Sim's immediate-post-dominator SIMT stack. Execution
//! is *functional only*: register values and memory contents are updated at
//! issue time, and every memory instruction leaves the per-lane accesses it
//! generated in [`WarpExec::accesses`] so a timing model (the `gpu-sim`
//! crate) can replay them through the memory pipeline.
//!
//! The warp, not the thread, is the unit of state: one register-major
//! register file (a row of lanes per register) and one lane mask per
//! predicate register, the same `u32` lane set the SIMT stack uses.
//!
//! The split mirrors GPGPU-Sim: functional state is always architecturally
//! correct, while latency, queueing and arbitration are modeled separately.

use std::fmt;
use std::sync::Arc;

use gpu_types::Addr;

use crate::builder::MAX_PREDS;
use crate::instr::{AluOp, Guard, Instr, Operand, Pc, Reg, Space, Special, Width, RECONV_NONE};
use crate::kernel::Kernel;

/// Maximum threads per warp supported by the executor (mask is a `u32`).
pub const MAX_WARP_SIZE: usize = 32;

/// Identity of one thread, used to evaluate special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Thread index within the CTA (`%tid.x`).
    pub tid: u32,
    /// CTA index within the grid (`%ctaid.x`).
    pub ctaid: u32,
    /// Threads per CTA (`%ntid.x`).
    pub ntid: u32,
    /// CTAs per grid (`%nctaid.x`).
    pub nctaid: u32,
    /// Lane within the warp.
    pub lane: u32,
}

impl ThreadCtx {
    /// Globally linearized thread id.
    pub fn global_tid(&self) -> u64 {
        self.ctaid as u64 * self.ntid as u64 + self.tid as u64
    }
}

/// How thread-private `local` addresses map into the device address space.
///
/// Real GPUs interleave local memory so that consecutive threads' same-offset
/// accesses coalesce; we use the simpler per-thread-window mapping
/// `device = base + global_tid * bytes_per_thread + offset`, which preserves
/// what matters for the paper: local accesses traverse the same cache
/// pipeline as global ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalMap {
    /// Device base address of the local-memory arena.
    pub base: Addr,
    /// Bytes of local memory per thread.
    pub bytes_per_thread: u64,
}

impl LocalMap {
    /// Translates a thread's local address to its device address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the local address is outside the thread's
    /// window.
    pub fn translate(&self, global_tid: u64, local_addr: Addr) -> Addr {
        debug_assert!(
            local_addr.get() < self.bytes_per_thread,
            "local address {local_addr} outside per-thread window of {} bytes",
            self.bytes_per_thread
        );
        self.base + global_tid * self.bytes_per_thread + local_addr.get()
    }
}

/// Backend supplying functional memory contents during execution.
///
/// The timing simulator implements this over its device memory image and the
/// executing CTA's shared-memory block. `Local` accesses are translated to
/// device addresses by the executor before reaching the backend, so backends
/// only see `Global` (device) and `Shared` (CTA-offset) addresses.
pub trait MemBackend {
    /// Loads `width` bytes at `addr`.
    fn load(&mut self, space: Space, addr: Addr, width: Width) -> u64;
    /// Stores the low `width` bytes of `value` at `addr`.
    fn store(&mut self, space: Space, addr: Addr, width: Width, value: u64);
    /// Atomically adds `value` at the global address `addr`, returning the
    /// previous value.
    fn atomic_add(&mut self, addr: Addr, width: Width, value: u64) -> u64;

    /// Loads `width` bytes at each of a warp access's lane addresses, all in
    /// `space`, into `values` (one per access, in lane order). A backend
    /// can resolve what the lanes share once; by default each lane is a
    /// [`MemBackend::load`].
    fn load_lanes(&mut self, space: Space, width: Width, lanes: &[LaneAccess], values: &mut [u64]) {
        for (a, v) in lanes.iter().zip(values) {
            *v = self.load(space, a.addr, width);
        }
    }

    /// Stores each lane's value (one per access) at its address, all in
    /// `space`, in lane order, so a later lane's bytes win. By default each
    /// lane is a [`MemBackend::store`].
    fn store_lanes(&mut self, space: Space, width: Width, lanes: &[LaneAccess], values: &[u64]) {
        for (a, &v) in lanes.iter().zip(values) {
            self.store(space, a.addr, width, v);
        }
    }
}

/// One lane's memory access, as reported to the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Lane index within the warp.
    pub lane: u32,
    /// Device address (for `Global`/`Local`) or CTA offset (for `Shared`).
    pub addr: Addr,
    /// Access width.
    pub width: Width,
}

/// A warp-level memory operation. Its per-lane accesses are
/// [`WarpExec::accesses`] until the warp's next memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Memory space (with `Local` retained for cache-policy decisions even
    /// though addresses are already device addresses).
    pub space: Space,
    /// `true` for stores and atomics.
    pub is_store: bool,
    /// `true` for atomics (stores that also return a value).
    pub is_atomic: bool,
    /// Destination register for loads/atomics (scoreboard release target).
    pub dst: Option<Reg>,
    /// Program counter of the memory instruction that generated this op.
    pub pc: Pc,
}

/// Result of executing one warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A non-memory instruction executed.
    Ready,
    /// A memory instruction executed; the timing model must replay
    /// [`WarpExec::accesses`] through the memory pipeline.
    Mem(MemOp),
    /// The warp arrived at a CTA barrier; call
    /// [`WarpExec::release_barrier`] once all warps of the CTA arrive.
    Barrier,
    /// All threads of the warp have exited.
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct StackEntry {
    pc: Pc,
    rpc: Pc,
    mask: u32,
}

/// Functional executor for one warp.
#[derive(Debug, Clone)]
pub struct WarpExec {
    kernel: Arc<Kernel>,
    params: Arc<[u64]>,
    ctxs: Vec<ThreadCtx>,
    /// Register-major: lane `l`'s register `r` is `regs[r * lanes + l]`.
    regs: Box<[u64]>,
    /// Bit `l` of `preds[p]` is lane `l`'s predicate `p`.
    preds: [u32; MAX_PREDS],
    stack: Vec<StackEntry>,
    /// The last memory instruction's accesses; kept, so a step never
    /// allocates for them.
    accesses: Vec<LaneAccess>,
    local_map: LocalMap,
    at_barrier: bool,
    instructions_executed: u64,
}

impl WarpExec {
    /// Creates an executor for a warp whose live lanes have the given thread
    /// contexts (length 1..=32; shorter vectors model partially-full warps).
    ///
    /// # Panics
    ///
    /// Panics if `ctxs` is empty or longer than [`MAX_WARP_SIZE`].
    pub fn new(
        kernel: Arc<Kernel>,
        params: Arc<[u64]>,
        ctxs: Vec<ThreadCtx>,
        local_map: LocalMap,
    ) -> Self {
        assert!(
            !ctxs.is_empty() && ctxs.len() <= MAX_WARP_SIZE,
            "warp must have 1..=32 live lanes"
        );
        let n = ctxs.len();
        WarpExec {
            regs: vec![0u64; kernel.num_regs() as usize * n].into_boxed_slice(),
            preds: [0; MAX_PREDS],
            stack: vec![StackEntry {
                pc: 0,
                rpc: RECONV_NONE,
                mask: lane_mask(n),
            }],
            accesses: Vec::with_capacity(n),
            kernel,
            params,
            ctxs,
            local_map,
            at_barrier: false,
            instructions_executed: 0,
        }
    }

    /// Returns `true` once every thread has exited.
    pub fn is_finished(&self) -> bool {
        self.stack.is_empty()
    }

    /// Returns `true` while the warp waits at a CTA barrier.
    pub fn at_barrier(&self) -> bool {
        self.at_barrier
    }

    /// Releases the warp from a barrier (the CTA-wide rendezvous is the
    /// timing model's job).
    ///
    /// # Panics
    ///
    /// Panics if the warp is not at a barrier.
    pub fn release_barrier(&mut self) {
        assert!(
            self.at_barrier,
            "release_barrier on a warp not at a barrier"
        );
        self.at_barrier = false;
    }

    /// Total dynamic instructions executed by this warp (warp-level count).
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }

    /// The next instruction to execute, with its PC, or `None` if the warp
    /// is finished. The result is stable until the next [`WarpExec::step`].
    pub fn peek(&self) -> Option<(Pc, &Instr)> {
        let top = self.stack.last()?;
        Some((top.pc, self.kernel.instr(top.pc)))
    }

    /// Currently active lane mask (of the top SIMT stack entry).
    pub fn active_mask(&self) -> u32 {
        self.stack.last().map_or(0, |e| e.mask)
    }

    /// The per-lane accesses of the last memory instruction this warp
    /// executed, in lane order, active lanes only (empty before the first).
    pub fn accesses(&self) -> &[LaneAccess] {
        &self.accesses
    }

    /// Reads a register of one lane (for tests and result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `reg` is out of range.
    pub fn reg(&self, lane: usize, reg: Reg) -> u64 {
        assert!(lane < self.ctxs.len(), "lane {lane} out of range");
        self.regs[self.at(reg, lane)]
    }

    /// Index of `lane`'s copy of register `r` in the register file.
    fn at(&self, r: Reg, lane: usize) -> usize {
        self.row(r) + lane
    }

    /// Index of lane 0's copy of register `r`: its row of lanes starts
    /// there.
    fn row(&self, r: Reg) -> usize {
        r as usize * self.ctxs.len()
    }

    /// `op` resolved once for every lane of an instruction.
    fn src(&self, op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Row(self.row(r)),
            Operand::Imm(v) => Src::Imm(v as u64),
        }
    }

    /// Executes one instruction for the warp's active lanes.
    ///
    /// # Panics
    ///
    /// Panics if called while the warp is at a barrier (check
    /// [`WarpExec::at_barrier`] first) — the timing model must release the
    /// barrier before issuing again. Calling on a finished warp returns
    /// [`StepOutcome::Finished`].
    pub fn step<B: MemBackend + ?Sized>(&mut self, backend: &mut B) -> StepOutcome {
        assert!(!self.at_barrier, "step while warp waits at barrier");
        let Some(&StackEntry { pc, mask, .. }) = self.stack.last() else {
            return StepOutcome::Finished;
        };
        self.instructions_executed += 1;
        let mem = |space, is_store, is_atomic, dst| {
            StepOutcome::Mem(MemOp {
                space,
                is_store,
                is_atomic,
                dst,
                pc,
            })
        };

        // Every field an instruction carries is `Copy`: the arms bind
        // copies, so the kernel is not borrowed past the match's head.
        let outcome = match *self.kernel.instr(pc) {
            Instr::Alu { op, dst, a, b } => {
                let (a, b, dst) = (self.src(a), self.src(b), self.row(dst));
                // The op is resolved once, outside the lane loop: each arm
                // is `eval_alu` with its op a constant.
                macro_rules! per_op {
                    ($($op:ident)*) => {
                        match op {
                            $(AluOp::$op => write_lanes(&mut self.regs, dst, mask, |r, l| {
                                eval_alu(AluOp::$op, a.read(r, l), b.read(r, l))
                            }),)*
                        }
                    };
                }
                per_op!(Add Sub Mul Div Rem Min Max And Or Xor Shl Shr FAdd FMul FDiv);
                StepOutcome::Ready
            }
            Instr::Mov { dst, src } => {
                let (src, dst) = (self.src(src), self.row(dst));
                write_lanes(&mut self.regs, dst, mask, |r, l| src.read(r, l));
                StepOutcome::Ready
            }
            Instr::ReadSpecial { dst, special } => {
                let (dst, ctxs) = (self.row(dst), &self.ctxs);
                write_lanes(&mut self.regs, dst, mask, |_, l| {
                    let ctx = ctxs[l];
                    match special {
                        Special::TidX => ctx.tid as u64,
                        Special::CtaIdX => ctx.ctaid as u64,
                        Special::NTidX => ctx.ntid as u64,
                        Special::NCtaIdX => ctx.nctaid as u64,
                        Special::LaneId => ctx.lane as u64,
                        Special::GlobalTid => ctx.global_tid(),
                    }
                });
                StepOutcome::Ready
            }
            Instr::LdParam { dst, index } => {
                let v = *self
                    .params
                    .get(index)
                    .unwrap_or_else(|| panic!("kernel parameter {index} not supplied"));
                let dst = self.row(dst);
                write_lanes(&mut self.regs, dst, mask, |_, _| v);
                StepOutcome::Ready
            }
            Instr::SetP { pred, op, a, b } => {
                let (a, b) = (self.src(a), self.src(b));
                let mut set = 0u32;
                for lane in lanes(mask) {
                    let (a, b) = (
                        a.read(&self.regs, lane) as i64,
                        b.read(&self.regs, lane) as i64,
                    );
                    set |= u32::from(op.eval(a, b)) << lane;
                }
                let p = &mut self.preds[pred as usize];
                *p = (*p & !mask) | set;
                StepOutcome::Ready
            }
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                let row = self.row(dst);
                let s = self.each_access(mask, space, addr, offset, width, |_, _, _, _| {});
                let mut values = [0u64; MAX_WARP_SIZE];
                let values = &mut values[..self.accesses.len()];
                backend.load_lanes(s, width, &self.accesses, values);
                for (a, &v) in self.accesses.iter().zip(values.iter()) {
                    self.regs[row + a.lane as usize] = v;
                }
                mem(space, false, false, Some(dst))
            }
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                let src = self.src(src);
                let mut values = [0u64; MAX_WARP_SIZE];
                let mut n = 0;
                let s = self.each_access(mask, space, addr, offset, width, |regs, lane, _, _| {
                    values[n] = src.read(regs, lane);
                    n += 1;
                });
                backend.store_lanes(s, width, &self.accesses, &values[..n]);
                mem(space, true, false, None)
            }
            Instr::AtomAdd {
                width,
                dst,
                addr,
                offset,
                val,
            } => {
                let (val, row) = (self.src(val), self.row(dst));
                self.each_access(
                    mask,
                    Space::Global,
                    addr,
                    offset,
                    width,
                    |regs, lane, _, a| {
                        regs[row + lane] = backend.atomic_add(a, width, val.read(regs, lane));
                    },
                );
                mem(Space::Global, true, true, Some(dst))
            }
            Instr::Branch {
                guard,
                target,
                reconverge,
            } => {
                self.branch(pc, mask, guard, target, reconverge);
                return StepOutcome::Ready;
            }
            Instr::Bar => {
                self.at_barrier = true;
                StepOutcome::Barrier
            }
            Instr::MemBar => StepOutcome::Ready,
            Instr::Exit => {
                // Remove the exiting threads from every stack entry.
                for entry in &mut self.stack {
                    entry.mask &= !mask;
                }
                self.normalize();
                return if self.stack.is_empty() {
                    StepOutcome::Finished
                } else {
                    StepOutcome::Ready
                };
            }
        };
        self.advance(pc);
        outcome
    }

    /// Calls `access` for every lane in `mask` with the register file, the
    /// lane, the backend's space and the address (the `base` register plus
    /// `offset`, `Local` translated into the lane's device window), and
    /// records the accesses in lane order. Returns the backend's space.
    fn each_access(
        &mut self,
        mask: u32,
        space: Space,
        base: Reg,
        offset: i64,
        width: Width,
        mut access: impl FnMut(&mut [u64], usize, Space, Addr),
    ) -> Space {
        let base = self.row(base);
        let WarpExec {
            regs,
            ctxs,
            accesses,
            local_map,
            ..
        } = self;
        accesses.clear();
        for lane in lanes(mask) {
            let raw = Addr::new((regs[base + lane] as i64 + offset) as u64);
            let (bspace, addr) = match space {
                Space::Local => (
                    Space::Global,
                    local_map.translate(ctxs[lane].global_tid(), raw),
                ),
                other => (other, raw),
            };
            access(regs, lane, bspace, addr);
            accesses.push(LaneAccess {
                lane: lane as u32,
                addr,
                width,
            });
        }
        match space {
            Space::Local => Space::Global,
            other => other,
        }
    }

    fn advance(&mut self, pc: Pc) {
        let top = self.stack.last_mut().expect("advance on empty stack");
        debug_assert_eq!(top.pc, pc);
        top.pc = pc + 1;
        self.normalize();
    }

    fn branch(&mut self, pc: Pc, mask: u32, guard: Option<Guard>, target: Pc, reconverge: Pc) {
        let taken = match guard {
            None => mask,
            Some(g) if g.expect => mask & self.preds[g.pred as usize],
            Some(g) => mask & !self.preds[g.pred as usize],
        };
        let fallthrough = mask & !taken;
        let top = self.stack.last_mut().expect("branch on empty stack");
        if taken == 0 || fallthrough == 0 {
            top.pc = if taken == 0 { pc + 1 } else { target };
        } else {
            debug_assert_ne!(
                reconverge, RECONV_NONE,
                "divergent branch without reconvergence PC at {pc}"
            );
            // The current entry becomes the join at R — unless it is
            // already a path that joins at R (a loop re-diverging), whose
            // join entry waits below it. Each path that is not R itself
            // gets an entry; the taken path is pushed last so it executes
            // first (matches GPGPU-Sim).
            if top.rpc == reconverge {
                self.stack.pop();
            } else {
                top.pc = reconverge;
            }
            for (pc, mask) in [(pc + 1, fallthrough), (target, taken)] {
                if pc != reconverge {
                    self.stack.push(StackEntry {
                        pc,
                        rpc: reconverge,
                        mask,
                    });
                }
            }
        }
        self.normalize();
    }

    /// Pops completed path entries: empty masks and paths that reached their
    /// reconvergence PC.
    fn normalize(&mut self) {
        while let Some(top) = self.stack.last() {
            if top.mask == 0 || (top.rpc != RECONV_NONE && top.pc == top.rpc) {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the warp's dynamic state: lane contexts, then each lane's
    /// registers and predicates, the SIMT stack, the local-memory mapping,
    /// barrier flag and instruction count. The kernel and launch parameters
    /// are *not* serialized — they are shared per launch (the checkpoint
    /// stores the kernel's round-trippable disassembly once) and supplied
    /// back to [`WarpExec::decode`].
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        let n = self.ctxs.len();
        e.usize(n);
        for ctx in &self.ctxs {
            e.u32(ctx.tid);
            e.u32(ctx.ctaid);
            e.u32(ctx.ntid);
            e.u32(ctx.nctaid);
            e.u32(ctx.lane);
        }
        for lane in 0..n {
            e.usize(self.regs.len() / n);
            for r in self.regs.iter().skip(lane).step_by(n) {
                e.u64(*r);
            }
            for p in self.preds {
                e.bool(p >> lane & 1 != 0);
            }
        }
        e.usize(self.stack.len());
        for entry in &self.stack {
            e.usize(entry.pc);
            e.usize(entry.rpc);
            e.u32(entry.mask);
        }
        e.u64(self.local_map.base.get());
        e.u64(self.local_map.bytes_per_thread);
        e.bool(self.at_barrier);
        e.u64(self.instructions_executed);
    }

    /// Decodes a warp written by [`WarpExec::encode_state`], re-attaching
    /// the shared `kernel` and `params`.
    ///
    /// # Errors
    ///
    /// Rejects lane counts outside `1..=32`, register files that do not
    /// match the kernel's register count, out-of-range stack PCs, and stack
    /// masks naming a lane the warp does not have.
    pub fn decode(
        d: &mut gpu_snapshot::Decoder,
        kernel: Arc<Kernel>,
        params: Arc<[u64]>,
    ) -> Result<Self, gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        let n = d.usize()?;
        if n == 0 || n > MAX_WARP_SIZE {
            return Err(InvalidValue("warp lane count out of range"));
        }
        let mut ctxs = Vec::with_capacity(n);
        for _ in 0..n {
            ctxs.push(ThreadCtx {
                tid: d.u32()?,
                ctaid: d.u32()?,
                ntid: d.u32()?,
                nctaid: d.u32()?,
                lane: d.u32()?,
            });
        }
        let num_regs = kernel.num_regs() as usize;
        let mut regs = vec![0u64; num_regs * n].into_boxed_slice();
        let mut preds = [0u32; MAX_PREDS];
        for lane in 0..n {
            if d.usize()? != num_regs {
                return Err(InvalidValue("register file size mismatch with kernel"));
            }
            for r in regs.iter_mut().skip(lane).step_by(n) {
                *r = d.u64()?;
            }
            for p in &mut preds {
                *p |= u32::from(d.bool()?) << lane;
            }
        }
        let mut stack = Vec::new();
        for _ in 0..d.usize()? {
            let pc = d.usize()?;
            let rpc = d.usize()?;
            let mask = d.u32()?;
            if pc >= kernel.len() || (rpc != RECONV_NONE && rpc > kernel.len()) {
                return Err(InvalidValue("SIMT stack PC out of kernel range"));
            }
            if mask & !lane_mask(n) != 0 {
                return Err(InvalidValue("SIMT stack mask names a lane the warp lacks"));
            }
            stack.push(StackEntry { pc, rpc, mask });
        }
        let local_map = LocalMap {
            base: Addr::new(d.u64()?),
            bytes_per_thread: d.u64()?,
        };
        Ok(WarpExec {
            kernel,
            params,
            ctxs,
            regs,
            preds,
            stack,
            accesses: Vec::with_capacity(n),
            local_map,
            at_barrier: d.bool()?,
            instructions_executed: d.u64()?,
        })
    }
}

impl fmt::Display for WarpExec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warp(kernel={}, lanes={}, finished={})",
            self.kernel.name(),
            self.ctxs.len(),
            self.is_finished()
        )
    }
}

/// An instruction operand resolved once for all of its lanes.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A register: the index of lane 0's copy ([`WarpExec::row`]).
    Row(usize),
    /// An immediate, as raw bits.
    Imm(u64),
}

impl Src {
    /// Lane `lane`'s value.
    fn read(self, regs: &[u64], lane: usize) -> u64 {
        match self {
            Src::Row(row) => regs[row + lane],
            Src::Imm(v) => v,
        }
    }
}

/// Writes `value(regs, lane)` to the register whose row starts at `row`,
/// for every lane in `mask`.
fn write_lanes(regs: &mut [u64], row: usize, mask: u32, value: impl Fn(&[u64], usize) -> u64) {
    for lane in lanes(mask) {
        let v = value(regs, lane);
        regs[row + lane] = v;
    }
}

/// Iterates over the set lane indices of a mask, lowest first.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (lane < MAX_WARP_SIZE).then_some(lane)
    })
}

/// The mask of a warp's `n` lanes (`1..=32`).
fn lane_mask(n: usize) -> u32 {
    u32::MAX >> (MAX_WARP_SIZE - n)
}

/// The ALU's semantics on raw 64-bit register values: wrapping two's
/// complement, `div 0 → 0`, `rem 0 → dividend`, shifts mod 64, float ops
/// on the low 32 bits. The one definition — the functional executor steps
/// through it and the static analyzer folds constants through it.
pub fn eval_alu(op: crate::instr::AluOp, a: u64, b: u64) -> u64 {
    use crate::instr::AluOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                0
            } else {
                a.wrapping_div(b) as u64
            }
        }
        Rem => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                a as u64
            } else {
                a.wrapping_rem(b) as u64
            }
        }
        Min => (a as i64).min(b as i64) as u64,
        Max => (a as i64).max(b as i64) as u64,
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl(b as u32 & 63),
        Shr => a.wrapping_shr(b as u32 & 63),
        FAdd => f32_op(a, b, |x, y| x + y),
        FMul => f32_op(a, b, |x, y| x * y),
        FDiv => f32_op(a, b, |x, y| x / y),
    }
}

fn f32_op(a: u64, b: u64, f: impl FnOnce(f32, f32) -> f32) -> u64 {
    let x = f32::from_bits(a as u32);
    let y = f32::from_bits(b as u32);
    f(x, y).to_bits() as u64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::{AluOp, CmpOp};
    use std::collections::HashMap;

    /// Simple flat test backend: global memory as a hashmap of words.
    #[derive(Default)]
    pub struct TestMem {
        global: HashMap<u64, u8>,
        shared: HashMap<u64, u8>,
    }

    impl TestMem {
        pub fn write_u32(&mut self, addr: u64, v: u32) {
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                self.global.insert(addr + i as u64, *b);
            }
        }
        pub fn read_u32(&self, addr: u64) -> u32 {
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = *self.global.get(&(addr + i as u64)).unwrap_or(&0);
            }
            u32::from_le_bytes(bytes)
        }
        fn map(&mut self, space: Space) -> &mut HashMap<u64, u8> {
            match space {
                Space::Shared => &mut self.shared,
                _ => &mut self.global,
            }
        }
    }

    impl MemBackend for TestMem {
        fn load(&mut self, space: Space, addr: Addr, width: Width) -> u64 {
            let m = self.map(space);
            let mut v = 0u64;
            for i in 0..width.bytes() {
                v |= (*m.get(&(addr.get() + i)).unwrap_or(&0) as u64) << (8 * i);
            }
            v
        }
        fn store(&mut self, space: Space, addr: Addr, width: Width, value: u64) {
            let m = self.map(space);
            for i in 0..width.bytes() {
                m.insert(addr.get() + i, (value >> (8 * i)) as u8);
            }
        }
        fn atomic_add(&mut self, addr: Addr, width: Width, value: u64) -> u64 {
            let old = self.load(Space::Global, addr, width);
            self.store(Space::Global, addr, width, old.wrapping_add(value));
            old
        }
    }

    fn warp_of(kernel: Kernel, n: usize, params: Vec<u64>) -> WarpExec {
        let ctxs: Vec<ThreadCtx> = (0..n as u32)
            .map(|i| ThreadCtx {
                tid: i,
                ctaid: 0,
                ntid: n as u32,
                nctaid: 1,
                lane: i,
            })
            .collect();
        WarpExec::new(
            Arc::new(kernel),
            params.into(),
            ctxs,
            LocalMap {
                base: Addr::new(1 << 40),
                bytes_per_thread: 1024,
            },
        )
    }

    fn run_to_completion(w: &mut WarpExec, mem: &mut TestMem) -> u64 {
        let mut steps = 0;
        while !w.is_finished() {
            if w.at_barrier() {
                w.release_barrier();
            }
            w.step(mem);
            steps += 1;
            assert!(steps < 1_000_000, "runaway warp");
        }
        steps
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(20));
        let y = b.add(x, Operand::Imm(22));
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 4, vec![]);
        let mut mem = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        for lane in 0..4 {
            assert_eq!(w.reg(lane, y), 42);
        }
    }

    #[test]
    fn special_registers_differ_per_lane() {
        let mut b = KernelBuilder::new("k");
        let t = b.special(Special::TidX);
        let l = b.special(Special::LaneId);
        let g = b.special(Special::GlobalTid);
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 8, vec![]);
        let mut mem = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        for lane in 0..8 {
            assert_eq!(w.reg(lane, t), lane as u64);
            assert_eq!(w.reg(lane, l), lane as u64);
            assert_eq!(w.reg(lane, g), lane as u64);
        }
    }

    #[test]
    fn params_are_broadcast() {
        let mut b = KernelBuilder::new("k");
        let p = b.param(1);
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 2, vec![7, 99]);
        let mut mem = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        assert_eq!(w.reg(0, p), 99);
        assert_eq!(w.reg(1, p), 99);
    }

    #[test]
    fn divergent_if_then_else() {
        // even lanes: r = 100; odd lanes: r = 200.
        let mut b = KernelBuilder::new("k");
        let lane = b.special(Special::LaneId);
        let parity = b.and(lane, Operand::Imm(1));
        let p = b.setp(CmpOp::Eq, parity, Operand::Imm(0));
        let r = b.reg();
        b.if_then_else(
            p,
            |b| b.mov_to(r, Operand::Imm(100)),
            |b| b.mov_to(r, Operand::Imm(200)),
        );
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 8, vec![]);
        let mut mem = TestMem::default();
        for _ in 0..4 {
            w.step(&mut mem);
        }
        // The branch's taken path (to the else arm at pc 6: the odd lanes)
        // is pushed last, so it runs first, as in GPGPU-Sim.
        assert_eq!(
            (w.peek().map(|(pc, _)| pc), w.active_mask()),
            (Some(6), 0xaa)
        );
        run_to_completion(&mut w, &mut mem);
        for lane in 0..8 {
            let expect = if lane % 2 == 0 { 100 } else { 200 };
            assert_eq!(w.reg(lane, r), expect, "lane {lane}");
        }
    }

    #[test]
    fn nested_divergence_reconverges() {
        // lanes 0..2: a=1 ; lanes 2..4: inner split on lane parity.
        let mut b = KernelBuilder::new("k");
        let lane = b.special(Special::LaneId);
        let r = b.reg();
        let outer = b.setp(CmpOp::Lt, lane, Operand::Imm(2));
        let parity = b.and(lane, Operand::Imm(1));
        let inner = b.setp(CmpOp::Eq, parity, Operand::Imm(0));
        b.if_then_else(
            outer,
            |b| b.mov_to(r, Operand::Imm(1)),
            |b| {
                b.if_then_else(
                    inner,
                    |b| b.mov_to(r, Operand::Imm(2)),
                    |b| b.mov_to(r, Operand::Imm(3)),
                );
            },
        );
        // After reconvergence every lane adds 10.
        let done = b.add(r, Operand::Imm(10));
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 4, vec![]);
        let mut mem = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        assert_eq!(w.reg(0, done), 11);
        assert_eq!(w.reg(1, done), 11);
        assert_eq!(w.reg(2, done), 12);
        assert_eq!(w.reg(3, done), 13);
    }

    #[test]
    fn divergent_loop_trip_counts() {
        // Each lane loops `lane` times; SIMT stack must stay bounded.
        let mut b = KernelBuilder::new("k");
        let lane = b.special(Special::LaneId);
        let i = b.mov(Operand::Imm(0));
        let acc = b.mov(Operand::Imm(0));
        let p = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(p, CmpOp::Lt, i, lane);
                p
            },
            |b| {
                b.alu_to(AluOp::Add, acc, acc, Operand::Imm(5));
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        let done = b.add(acc, Operand::Imm(1000));
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 8, vec![]);
        let mut mem = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        for lane in 0..8 {
            assert_eq!(w.reg(lane, done), 1000 + 5 * lane as u64, "lane {lane}");
        }
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let lane = b.special(Special::LaneId);
        let off = b.shl(lane, 2i64);
        let addr = b.add(base, off);
        let v = b.ld_global(Width::W4, addr, 0);
        let v2 = b.mul(v, Operand::Imm(3));
        b.st_global(Width::W4, addr, 256, v2);
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        for i in 0..4u64 {
            mem.write_u32(0x1000 + 4 * i, (i + 1) as u32);
        }
        let mut w = warp_of(k, 4, vec![0x1000]);
        run_to_completion(&mut w, &mut mem);
        for i in 0..4u64 {
            assert_eq!(mem.read_u32(0x1000 + 256 + 4 * i), 3 * (i as u32 + 1));
        }
    }

    #[test]
    fn mem_step_reports_accesses() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let lane = b.special(Special::LaneId);
        let off = b.shl(lane, 2i64);
        let addr = b.add(base, off);
        let dst = b.ld_global(Width::W4, addr, 0);
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 4, vec![0x2000]);
        // run until the load executes
        loop {
            let (_, instr) = w.peek().unwrap();
            let is_load = matches!(instr, Instr::Ld { .. });
            let out = w.step(&mut mem);
            if is_load {
                match out {
                    StepOutcome::Mem(op) => {
                        assert!(!op.is_store);
                        assert_eq!(op.dst, Some(dst));
                        assert_eq!(w.accesses().len(), 4);
                        assert_eq!(w.accesses()[0].addr, Addr::new(0x2000));
                        assert_eq!(w.accesses()[3].addr, Addr::new(0x200c));
                        break;
                    }
                    other => panic!("expected Mem outcome, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn local_accesses_translate_to_device_windows() {
        let mut b = KernelBuilder::new("k");
        let a = b.mov(Operand::Imm(16));
        b.st(Space::Local, Width::W4, a, 0, Operand::Imm(77));
        let v = b.ld(Space::Local, Width::W4, a, 0);
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 2, vec![]);
        let mut mem_ops = Vec::new();
        while !w.is_finished() {
            if let StepOutcome::Mem(op) = w.step(&mut mem) {
                mem_ops.push((op, w.accesses().to_vec()));
            }
        }
        assert_eq!(w.reg(0, v), 77);
        assert_eq!(w.reg(1, v), 77);
        // Lane 0 and lane 1 windows are distinct device addresses.
        let (st, accesses) = &mem_ops[0];
        assert_eq!(st.space, Space::Local);
        let base = 1u64 << 40;
        assert_eq!(accesses[0].addr, Addr::new(base + 16));
        assert_eq!(accesses[1].addr, Addr::new(base + 1024 + 16));
    }

    #[test]
    fn atomics_serialize_within_warp() {
        let mut b = KernelBuilder::new("k");
        let ctr = b.param(0);
        let old = b.atom_add(Width::W4, ctr, 0, Operand::Imm(1));
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 8, vec![0x4000]);
        run_to_completion(&mut w, &mut mem);
        // Every lane got a distinct ticket 0..8 and the counter is 8.
        let mut tickets: Vec<u64> = (0..8).map(|l| w.reg(l, old)).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..8).collect::<Vec<u64>>());
        assert_eq!(mem.read_u32(0x4000), 8);
    }

    #[test]
    fn barrier_blocks_until_released() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.bar();
        let r = b.mov(Operand::Imm(2));
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 2, vec![]);
        assert_eq!(w.step(&mut mem), StepOutcome::Ready);
        assert_eq!(w.step(&mut mem), StepOutcome::Barrier);
        assert!(w.at_barrier());
        w.release_barrier();
        assert_eq!(w.step(&mut mem), StepOutcome::Ready);
        assert!(matches!(w.step(&mut mem), StepOutcome::Finished));
        assert_eq!(w.reg(0, r), 2);
    }

    #[test]
    #[should_panic(expected = "step while warp waits at barrier")]
    fn step_at_barrier_panics() {
        let mut b = KernelBuilder::new("k");
        b.bar();
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 1, vec![]);
        w.step(&mut mem);
        w.step(&mut mem);
    }

    #[test]
    fn simt_stack_depth_stays_bounded_in_loops() {
        // A loop with divergent exit iterated many times must not grow the
        // stack (regression guard for the join-husk accumulation bug).
        let mut b = KernelBuilder::new("k");
        let lane = b.special(Special::LaneId);
        let bound = b.mul(lane, Operand::Imm(100));
        let i = b.mov(Operand::Imm(0));
        let p = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(p, CmpOp::Lt, i, bound);
                p
            },
            |b| {
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 32, vec![]);
        let mut max_depth = 0;
        while !w.is_finished() {
            w.step(&mut mem);
            max_depth = max_depth.max(w.stack.len());
        }
        assert!(
            max_depth <= 3,
            "SIMT stack grew to {max_depth} entries in a flat loop"
        );
        for lane_i in 0..32 {
            assert_eq!(w.reg(lane_i, i), 100 * lane_i as u64);
        }
    }

    #[test]
    fn peek_matches_step() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 1, vec![]);
        let (pc, instr) = w.peek().unwrap();
        assert_eq!(pc, 0);
        assert!(matches!(instr, Instr::Mov { .. }));
        assert_eq!(w.active_mask(), 1);
        w.step(&mut mem);
        let (pc, instr) = w.peek().unwrap();
        assert_eq!(pc, 1);
        assert!(matches!(instr, Instr::Exit));
        w.step(&mut mem);
        assert!(w.peek().is_none());
        assert_eq!(w.active_mask(), 0);
        assert_eq!(w.instructions_executed(), 2);
    }

    #[test]
    fn warp_codec_resumes_mid_divergence() {
        // Freeze a warp mid-way through a divergent loop, restore it against
        // a kernel re-parsed from its own disassembly, and check both copies
        // finish with identical architectural state.
        let mut b = KernelBuilder::new("k");
        let lane = b.special(Special::LaneId);
        let i = b.mov(Operand::Imm(0));
        let acc = b.mov(Operand::Imm(0));
        let p = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(p, CmpOp::Lt, i, lane);
                p
            },
            |b| {
                b.alu_to(AluOp::Add, acc, acc, Operand::Imm(5));
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        let done = b.add(acc, Operand::Imm(1000));
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 8, vec![]);
        for _ in 0..13 {
            w.step(&mut mem);
        }
        assert!(!w.is_finished(), "snapshot point must be mid-run");

        let mut e = gpu_snapshot::Encoder::new();
        w.encode_state(&mut e);
        let framed = e.finish();

        // Kernel travels as disassembly text, as the GPU checkpoint does it.
        let kernel_text = w.kernel.to_string();
        let reparsed = Arc::new(crate::asm::parse_kernel(&kernel_text).unwrap());
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        let mut restored = WarpExec::decode(&mut d, reparsed, Arc::from([])).unwrap();
        d.expect_end().unwrap();

        // Re-encode equality before divergence in execution.
        let mut e2 = gpu_snapshot::Encoder::new();
        restored.encode_state(&mut e2);
        assert_eq!(e2.finish(), framed);

        let mut mem2 = TestMem::default();
        run_to_completion(&mut w, &mut mem);
        run_to_completion(&mut restored, &mut mem2);
        assert_eq!(w.instructions_executed(), restored.instructions_executed());
        for lane_i in 0..8 {
            assert_eq!(w.reg(lane_i, done), restored.reg(lane_i, done));
        }
    }

    #[test]
    fn warp_decode_rejects_register_file_mismatch() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.exit();
        let k = b.build().unwrap();
        let w = warp_of(k, 2, vec![]);
        let mut e = gpu_snapshot::Encoder::new();
        w.encode_state(&mut e);
        let framed = e.finish();

        let mut other = KernelBuilder::new("other");
        for _ in 0..5 {
            other.mov(Operand::Imm(0)); // different register count
        }
        other.exit();
        let wrong = Arc::new(other.build().unwrap());
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            WarpExec::decode(&mut d, wrong, Arc::from([])),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    fn warp_decode_rejects_stack_mask_beyond_its_lanes() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.exit();
        let kernel = b.build().unwrap();
        let decode = |mask: u32| {
            let mut w = warp_of(kernel.clone(), 4, vec![]);
            w.stack[0].mask = mask;
            let mut e = gpu_snapshot::Encoder::new();
            w.encode_state(&mut e);
            let framed = e.finish();
            let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
            WarpExec::decode(&mut d, Arc::new(kernel.clone()), Arc::from([]))
        };
        assert!(decode(0xf).is_ok());
        for mask in [0x10, 1 << 31, u32::MAX] {
            assert!(
                matches!(
                    decode(mask),
                    Err(gpu_snapshot::SnapshotError::InvalidValue(_))
                ),
                "stack mask {mask:#x} decoded into a 4-lane warp"
            );
        }
    }

    #[test]
    fn warp_decode_does_not_trust_the_stack_depth() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.exit();
        let kernel = b.build().unwrap();
        let mut e = gpu_snapshot::Encoder::new();
        warp_of(kernel.clone(), 1, vec![]).encode_state(&mut e);
        let framed = e.finish();
        // Header, then one lane: count, context, register count, r0, preds.
        let start = gpu_snapshot::MAGIC.len() + 12;
        let depth_at = start + 8 + 20 + 8 + 8 + MAX_PREDS;
        let mut e = gpu_snapshot::Encoder::new();
        framed[start..depth_at].iter().for_each(|&b| e.u8(b));
        e.usize(usize::MAX);
        let framed = e.finish();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            WarpExec::decode(&mut d, Arc::new(kernel), Arc::from([])),
            Err(gpu_snapshot::SnapshotError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn float_ops() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(2.5f32.to_bits() as i64));
        let y = b.mov(Operand::Imm(4.0f32.to_bits() as i64));
        let s = b.alu(AluOp::FAdd, x, y);
        let m = b.alu(AluOp::FMul, x, y);
        let d = b.alu(AluOp::FDiv, y, x);
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 1, vec![]);
        run_to_completion(&mut w, &mut mem);
        assert_eq!(f32::from_bits(w.reg(0, s) as u32), 6.5);
        assert_eq!(f32::from_bits(w.reg(0, m) as u32), 10.0);
        assert_eq!(f32::from_bits(w.reg(0, d) as u32), 1.6);
    }

    #[test]
    fn div_by_zero_is_defined() {
        let mut b = KernelBuilder::new("k");
        let d = b.alu(AluOp::Div, Operand::Imm(5), Operand::Imm(0));
        let r = b.alu(AluOp::Rem, Operand::Imm(5), Operand::Imm(0));
        b.exit();
        let k = b.build().unwrap();
        let mut mem = TestMem::default();
        let mut w = warp_of(k, 1, vec![]);
        run_to_completion(&mut w, &mut mem);
        assert_eq!(w.reg(0, d), 0);
        assert_eq!(w.reg(0, r), 5);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::tests::TestMem;
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::CmpOp;

    fn warp_of(kernel: Kernel, n: usize) -> WarpExec {
        let ctxs: Vec<ThreadCtx> = (0..n as u32)
            .map(|i| ThreadCtx {
                tid: i,
                ctaid: 0,
                ntid: n as u32,
                nctaid: 1,
                lane: i,
            })
            .collect();
        WarpExec::new(Arc::new(kernel), Arc::from([]), ctxs, LocalMap::default())
    }

    #[test]
    fn predicated_early_exit_leaves_survivors_running() {
        // Odd lanes exit early inside an if; even lanes continue and must
        // still reconverge and finish.
        let mut b = KernelBuilder::new("early_exit");
        let lane = b.special(Special::LaneId);
        let parity = b.and(lane, 1);
        let p = b.setp(CmpOp::Eq, parity, 1);
        b.if_then(p, |b| b.exit());
        let r = b.mov(99i64);
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 8);
        let mut mem = TestMem::default();
        let mut steps = 0;
        while !w.is_finished() {
            w.step(&mut mem);
            steps += 1;
            assert!(steps < 100, "runaway");
        }
        for lane_i in (0..8).step_by(2) {
            assert_eq!(w.reg(lane_i, r), 99, "even lane {lane_i} must finish");
        }
    }

    #[test]
    fn all_lanes_exit_in_branch_finishes_warp() {
        let mut b = KernelBuilder::new("all_exit");
        let p = b.setp(CmpOp::Eq, 0i64, 0i64);
        b.if_then(p, |b| b.exit());
        b.exit(); // unreachable
        let k = b.build().unwrap();
        let mut w = warp_of(k, 4);
        let mut mem = TestMem::default();
        let mut steps = 0;
        while !w.is_finished() {
            w.step(&mut mem);
            steps += 1;
            assert!(steps < 100, "runaway");
        }
    }

    #[test]
    fn single_lane_warp_diverges_trivially() {
        // Divergent constructs on a 1-lane warp never actually diverge.
        let mut b = KernelBuilder::new("solo");
        let lane = b.special(Special::LaneId);
        let p = b.setp(CmpOp::Eq, lane, 0);
        let r = b.reg();
        b.if_then_else(p, |b| b.mov_to(r, 7i64), |b| b.mov_to(r, 8i64));
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 1);
        let mut mem = TestMem::default();
        while !w.is_finished() {
            w.step(&mut mem);
        }
        assert_eq!(w.reg(0, r), 7);
    }

    #[test]
    fn nested_loops_with_divergent_bounds() {
        // acc = sum_{i<lane} sum_{j<i} 1 = lane*(lane-1)/2
        let mut b = KernelBuilder::new("nested");
        let lane = b.special(Special::LaneId);
        let acc = b.mov(0i64);
        let i = b.mov(0i64);
        let pi = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(pi, CmpOp::Lt, i, lane);
                pi
            },
            |b| {
                let j = b.mov(0i64);
                let pj = b.pred();
                b.while_loop(
                    |b| {
                        b.setp_to(pj, CmpOp::Lt, j, i);
                        pj
                    },
                    |b| {
                        b.alu_to(crate::AluOp::Add, acc, acc, 1i64);
                        b.alu_to(crate::AluOp::Add, j, j, 1i64);
                    },
                );
                b.alu_to(crate::AluOp::Add, i, i, 1i64);
            },
        );
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 8);
        let mut mem = TestMem::default();
        let mut steps = 0u64;
        while !w.is_finished() {
            w.step(&mut mem);
            steps += 1;
            assert!(steps < 100_000, "runaway");
        }
        for l in 0..8u64 {
            assert_eq!(
                w.reg(l as usize, acc),
                l * l.saturating_sub(1) / 2,
                "lane {l}"
            );
        }
    }

    #[test]
    fn barrier_in_divergent_region_would_be_released_per_cta() {
        // A barrier after reconvergence works even if lanes diverged before.
        let mut b = KernelBuilder::new("bar_after_diverge");
        let lane = b.special(Special::LaneId);
        let p = b.setp(CmpOp::Lt, lane, 2);
        let r = b.reg();
        b.if_then_else(p, |b| b.mov_to(r, 1i64), |b| b.mov_to(r, 2i64));
        b.bar();
        let done = b.add(r, 10i64);
        b.exit();
        let k = b.build().unwrap();
        let mut w = warp_of(k, 4);
        let mut mem = TestMem::default();
        let mut steps = 0;
        while !w.is_finished() {
            if w.at_barrier() {
                w.release_barrier();
            }
            w.step(&mut mem);
            steps += 1;
            assert!(steps < 1000);
        }
        assert_eq!(w.reg(0, done), 11);
        assert_eq!(w.reg(3, done), 12);
    }
}
