//! Functional SIMT execution of warps.
//!
//! [`WarpExec`] executes a warp of up to 32 threads in lock-step over a
//! [`Kernel`], handling branch divergence with a reconvergence stack
//! equivalent to GPGPU-Sim's immediate-post-dominator SIMT stack. Execution
//! is *functional only*: register values and memory contents are updated at
//! issue time, and every memory instruction reports the per-lane accesses it
//! generated so a timing model (the `gpu-sim` crate) can replay them through
//! the memory pipeline.
//!
//! The split mirrors GPGPU-Sim: functional state is always architecturally
//! correct, while latency, queueing and arbitration are modeled separately.

use std::fmt;
use std::sync::Arc;

use gpu_types::Addr;

use crate::instr::{Instr, Operand, Pc, Space, Special, Width, RECONV_NONE};
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

/// A warp-level memory operation: the set of per-lane accesses generated by
/// one memory instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemOp {
    /// Memory space (with `Local` retained for cache-policy decisions even
    /// though addresses are already device addresses).
    pub space: Space,
    /// `true` for stores and atomics.
    pub is_store: bool,
    /// `true` for atomics (stores that also return a value).
    pub is_atomic: bool,
    /// Destination register for loads/atomics (scoreboard release target).
    pub dst: Option<crate::instr::Reg>,
    /// Program counter of the memory instruction that generated this op.
    pub pc: crate::instr::Pc,
    /// Per-lane accesses, in lane order, active lanes only.
    pub accesses: Vec<LaneAccess>,
}

/// Result of executing one warp instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// A non-memory instruction executed.
    Ready,
    /// A memory instruction executed; the timing model must replay these
    /// accesses through the memory pipeline.
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

#[derive(Debug, Clone)]
struct ThreadState {
    regs: Box<[u64]>,
    preds: [bool; crate::builder::MAX_PREDS],
}

/// Functional executor for one warp.
#[derive(Debug, Clone)]
pub struct WarpExec {
    kernel: Arc<Kernel>,
    params: Arc<[u64]>,
    ctxs: Vec<ThreadCtx>,
    threads: Vec<ThreadState>,
    stack: Vec<StackEntry>,
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
        let threads = (0..n)
            .map(|_| ThreadState {
                regs: vec![0u64; kernel.num_regs() as usize].into_boxed_slice(),
                preds: [false; crate::builder::MAX_PREDS],
            })
            .collect();
        let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        WarpExec {
            kernel,
            params,
            ctxs,
            threads,
            stack: vec![StackEntry {
                pc: 0,
                rpc: RECONV_NONE,
                mask,
            }],
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

    /// Reads a register of one lane (for tests and result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `reg` is out of range.
    pub fn reg(&self, lane: usize, reg: crate::instr::Reg) -> u64 {
        self.threads[lane].regs[reg as usize]
    }

    fn operand(&self, lane: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.threads[lane].regs[r as usize],
            Operand::Imm(v) => v as u64,
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
    pub fn step(&mut self, backend: &mut dyn MemBackend) -> StepOutcome {
        assert!(!self.at_barrier, "step while warp waits at barrier");
        let top = match self.stack.last().copied() {
            Some(t) => t,
            None => return StepOutcome::Finished,
        };
        let pc = top.pc;
        let mask = top.mask;
        let instr = self.kernel.instr(pc).clone();
        self.instructions_executed += 1;

        let outcome = match &instr {
            Instr::Alu { op, dst, a, b } => {
                for lane in lanes(mask) {
                    let av = self.operand(lane, *a);
                    let bv = self.operand(lane, *b);
                    let r = eval_alu(*op, av, bv);
                    self.threads[lane].regs[*dst as usize] = r;
                }
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::Mov { dst, src } => {
                for lane in lanes(mask) {
                    let v = self.operand(lane, *src);
                    self.threads[lane].regs[*dst as usize] = v;
                }
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::ReadSpecial { dst, special } => {
                for lane in lanes(mask) {
                    let ctx = self.ctxs[lane];
                    let v = match special {
                        Special::TidX => ctx.tid as u64,
                        Special::CtaIdX => ctx.ctaid as u64,
                        Special::NTidX => ctx.ntid as u64,
                        Special::NCtaIdX => ctx.nctaid as u64,
                        Special::LaneId => ctx.lane as u64,
                        Special::GlobalTid => ctx.global_tid(),
                    };
                    self.threads[lane].regs[*dst as usize] = v;
                }
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::LdParam { dst, index } => {
                let v = *self
                    .params
                    .get(*index)
                    .unwrap_or_else(|| panic!("kernel parameter {index} not supplied"));
                for lane in lanes(mask) {
                    self.threads[lane].regs[*dst as usize] = v;
                }
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::SetP { pred, op, a, b } => {
                for lane in lanes(mask) {
                    let av = self.operand(lane, *a) as i64;
                    let bv = self.operand(lane, *b) as i64;
                    self.threads[lane].preds[*pred as usize] = op.eval(av, bv);
                }
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                let mut accesses = Vec::with_capacity(mask.count_ones() as usize);
                for lane in lanes(mask) {
                    let raw =
                        Addr::new((self.threads[lane].regs[*addr as usize] as i64 + offset) as u64);
                    let (bspace, baddr) = self.resolve(lane, *space, raw);
                    let v = backend.load(bspace, baddr, *width);
                    self.threads[lane].regs[*dst as usize] = v;
                    accesses.push(LaneAccess {
                        lane: lane as u32,
                        addr: baddr,
                        width: *width,
                    });
                }
                self.advance(pc);
                StepOutcome::Mem(MemOp {
                    space: *space,
                    is_store: false,
                    is_atomic: false,
                    dst: Some(*dst),
                    pc,
                    accesses,
                })
            }
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                let mut accesses = Vec::with_capacity(mask.count_ones() as usize);
                for lane in lanes(mask) {
                    let raw =
                        Addr::new((self.threads[lane].regs[*addr as usize] as i64 + offset) as u64);
                    let v = self.operand(lane, *src);
                    let (bspace, baddr) = self.resolve(lane, *space, raw);
                    backend.store(bspace, baddr, *width, v);
                    accesses.push(LaneAccess {
                        lane: lane as u32,
                        addr: baddr,
                        width: *width,
                    });
                }
                self.advance(pc);
                StepOutcome::Mem(MemOp {
                    space: *space,
                    is_store: true,
                    is_atomic: false,
                    dst: None,
                    pc,
                    accesses,
                })
            }
            Instr::AtomAdd {
                width,
                dst,
                addr,
                offset,
                val,
            } => {
                let mut accesses = Vec::with_capacity(mask.count_ones() as usize);
                for lane in lanes(mask) {
                    let a =
                        Addr::new((self.threads[lane].regs[*addr as usize] as i64 + offset) as u64);
                    let v = self.operand(lane, *val);
                    let old = backend.atomic_add(a, *width, v);
                    self.threads[lane].regs[*dst as usize] = old;
                    accesses.push(LaneAccess {
                        lane: lane as u32,
                        addr: a,
                        width: *width,
                    });
                }
                self.advance(pc);
                StepOutcome::Mem(MemOp {
                    space: Space::Global,
                    is_store: true,
                    is_atomic: true,
                    dst: Some(*dst),
                    pc,
                    accesses,
                })
            }
            Instr::Branch {
                guard,
                target,
                reconverge,
            } => {
                self.branch(pc, mask, *guard, *target, *reconverge);
                StepOutcome::Ready
            }
            Instr::Bar => {
                self.at_barrier = true;
                self.advance(pc);
                StepOutcome::Barrier
            }
            Instr::MemBar => {
                self.advance(pc);
                StepOutcome::Ready
            }
            Instr::Exit => {
                // Remove the exiting threads from every stack entry.
                for entry in &mut self.stack {
                    entry.mask &= !mask;
                }
                self.normalize();
                if self.stack.is_empty() {
                    return StepOutcome::Finished;
                }
                StepOutcome::Ready
            }
        };
        outcome
    }

    /// Resolves a raw per-thread address to the backend's space/address,
    /// translating `Local` into its device window.
    fn resolve(&self, lane: usize, space: Space, raw: Addr) -> (Space, Addr) {
        match space {
            Space::Local => (
                Space::Global,
                self.local_map.translate(self.ctxs[lane].global_tid(), raw),
            ),
            other => (other, raw),
        }
    }

    fn advance(&mut self, pc: Pc) {
        let top = self.stack.last_mut().expect("advance on empty stack");
        debug_assert_eq!(top.pc, pc);
        top.pc = pc + 1;
        self.normalize();
    }

    fn branch(
        &mut self,
        pc: Pc,
        mask: u32,
        guard: Option<crate::instr::Guard>,
        target: Pc,
        reconverge: Pc,
    ) {
        let taken = match guard {
            None => mask,
            Some(g) => {
                let mut t = 0u32;
                for lane in lanes(mask) {
                    if self.threads[lane].preds[g.pred as usize] == g.expect {
                        t |= 1 << lane;
                    }
                }
                t
            }
        };
        let fallthrough = mask & !taken;
        let ft_pc = pc + 1;

        if taken == 0 {
            let top = self.stack.last_mut().expect("branch on empty stack");
            top.pc = ft_pc;
        } else if fallthrough == 0 {
            let top = self.stack.last_mut().expect("branch on empty stack");
            top.pc = target;
        } else {
            // Divergence.
            debug_assert_ne!(
                reconverge, RECONV_NONE,
                "divergent branch without reconvergence PC at {pc}"
            );
            let top_rpc = self.stack.last().expect("branch on empty stack").rpc;
            if reconverge == top_rpc {
                // The join entry for this reconvergence point already exists
                // below the current entry (this is a loop-style re-divergence).
                // Threads whose path *is* the reconvergence point simply wait
                // there; the rest keep executing in entries with rpc = R.
                let mut paths: Vec<(Pc, u32)> = Vec::with_capacity(2);
                if ft_pc != reconverge {
                    paths.push((ft_pc, fallthrough));
                }
                if target != reconverge {
                    paths.push((target, taken));
                }
                match paths.len() {
                    0 => {
                        // Everyone reached the reconvergence point.
                        self.stack.pop();
                    }
                    _ => {
                        let top = self.stack.last_mut().expect("branch on empty stack");
                        top.pc = paths[0].0;
                        top.mask = paths[0].1;
                        for &(p, m) in &paths[1..] {
                            self.stack.push(StackEntry {
                                pc: p,
                                rpc: reconverge,
                                mask: m,
                            });
                        }
                    }
                }
            } else {
                // Fresh divergence: current entry becomes the join at R, and
                // each path that is not R itself gets a new entry. Taken path
                // is pushed last so it executes first (matches GPGPU-Sim).
                let top = self.stack.last_mut().expect("branch on empty stack");
                top.pc = reconverge;
                if ft_pc != reconverge {
                    self.stack.push(StackEntry {
                        pc: ft_pc,
                        rpc: reconverge,
                        mask: fallthrough,
                    });
                }
                if target != reconverge {
                    self.stack.push(StackEntry {
                        pc: target,
                        rpc: reconverge,
                        mask: taken,
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

    /// Serializes the warp's dynamic state: lane contexts, register files,
    /// predicate files, the SIMT stack, the local-memory mapping, barrier
    /// flag and instruction count. The kernel and launch parameters are
    /// *not* serialized — they are shared per launch (the checkpoint stores
    /// the kernel's round-trippable disassembly once) and supplied back to
    /// [`WarpExec::decode`].
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.usize(self.ctxs.len());
        for ctx in &self.ctxs {
            e.u32(ctx.tid);
            e.u32(ctx.ctaid);
            e.u32(ctx.ntid);
            e.u32(ctx.nctaid);
            e.u32(ctx.lane);
        }
        for t in &self.threads {
            e.usize(t.regs.len());
            for r in t.regs.iter() {
                e.u64(*r);
            }
            for p in t.preds {
                e.bool(p);
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
    /// match the kernel's register count, and out-of-range stack PCs.
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
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            let num_regs = d.usize()?;
            if num_regs != kernel.num_regs() as usize {
                return Err(InvalidValue("register file size mismatch with kernel"));
            }
            let mut regs = vec![0u64; num_regs].into_boxed_slice();
            for r in regs.iter_mut() {
                *r = d.u64()?;
            }
            let mut preds = [false; crate::builder::MAX_PREDS];
            for p in &mut preds {
                *p = d.bool()?;
            }
            threads.push(ThreadState { regs, preds });
        }
        let depth = d.usize()?;
        let mut stack = Vec::with_capacity(depth);
        for _ in 0..depth {
            let pc = d.usize()?;
            let rpc = d.usize()?;
            let mask = d.u32()?;
            if pc >= kernel.len() || (rpc != RECONV_NONE && rpc > kernel.len()) {
                return Err(InvalidValue("SIMT stack PC out of kernel range"));
            }
            stack.push(StackEntry { pc, rpc, mask });
        }
        let local_map = LocalMap {
            base: Addr::new(d.u64()?),
            bytes_per_thread: d.u64()?,
        };
        let at_barrier = d.bool()?;
        let instructions_executed = d.u64()?;
        Ok(WarpExec {
            kernel,
            params,
            ctxs,
            threads,
            stack,
            local_map,
            at_barrier,
            instructions_executed,
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

/// Iterates over the set lane indices of a mask, lowest first.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..MAX_WARP_SIZE).filter(move |&l| mask & (1 << l) != 0)
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
                        assert_eq!(op.accesses.len(), 4);
                        assert_eq!(op.accesses[0].addr, Addr::new(0x2000));
                        assert_eq!(op.accesses[3].addr, Addr::new(0x200c));
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
                mem_ops.push(op);
            }
        }
        assert_eq!(w.reg(0, v), 77);
        assert_eq!(w.reg(1, v), 77);
        // Lane 0 and lane 1 windows are distinct device addresses.
        let st = &mem_ops[0];
        assert_eq!(st.space, Space::Local);
        let base = 1u64 << 40;
        assert_eq!(st.accesses[0].addr, Addr::new(base + 16));
        assert_eq!(st.accesses[1].addr, Addr::new(base + 1024 + 16));
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
