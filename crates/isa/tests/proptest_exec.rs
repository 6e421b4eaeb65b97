//! Randomized tests of the SIMT executor, driven by the workspace's
//! hermetic [`gpu_types::rng`] (fixed seeds, fully reproducible — the
//! failing seed is printed in every assertion message).
//!
//! The central property is *SIMT transparency*: lock-step execution with a
//! reconvergence stack is an implementation detail, so a warp of N threads
//! must produce exactly the per-thread results of N independent single-lane
//! warps, no matter how the threads diverge — the warp's register-major
//! register file and predicate masks against the one-lane model of each.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_isa::{
    AluOp, CmpOp, Kernel, KernelBuilder, LaneAccess, LocalMap, MemBackend, Operand, PredReg, Space,
    Special, StepOutcome, ThreadCtx, WarpExec, Width, MAX_PREDS,
};
use gpu_types::rng::Rng;
use gpu_types::Addr;

const NUM_REGS: u16 = 8;
const NUM_PREDS: u8 = 4;
/// Holds the thread's own window of [`SLOTS`] words in global memory.
const ADDR_REG: u16 = NUM_REGS;
/// First of the [`MAX_PREDS`] registers the predicates are copied into.
const PRED_COPY: u16 = NUM_REGS + 5;
const SLOTS: u8 = 4;
const WINDOW: u64 = 8 * SLOTS as u64;

/// A tiny structured AST we can both lower to the IR and randomize safely
/// (loops are bounded by construction).
#[derive(Debug, Clone)]
enum Node {
    Alu(AluOp, u16, Operand, Operand),
    SetP(PredReg, CmpOp, Operand, Operand),
    /// `if (p == expect) { body }`: both guard polarities.
    If(PredReg, bool, Vec<Node>),
    IfElse(PredReg, Vec<Node>, Vec<Node>),
    Repeat(u8, Vec<Node>),
    /// `dst = window[slot]` (8-byte global load).
    Load(u16, u8),
    /// `window[slot] = value` (8-byte global store).
    Store(u8, Operand),
}

fn gen_operand(rng: &mut Rng) -> Operand {
    if rng.gen_bool() {
        Operand::Reg(rng.gen_range_u32(0, NUM_REGS as u32) as u16)
    } else {
        Operand::Imm(rng.gen_range_i64(-50, 50))
    }
}

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::Min,
    AluOp::Max,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn gen_leaf(rng: &mut Rng) -> Node {
    let slot = |rng: &mut Rng| rng.gen_range_u32(0, SLOTS as u32) as u8;
    match rng.gen_range_u32(0, 4) {
        0 => Node::Load(rng.gen_range_u32(0, NUM_REGS as u32) as u16, slot(rng)),
        1 => Node::Store(slot(rng), gen_operand(rng)),
        _ => gen_alu_or_setp(rng),
    }
}

fn gen_alu_or_setp(rng: &mut Rng) -> Node {
    if rng.gen_bool() {
        Node::Alu(
            ALU_OPS[rng.gen_range_usize(0, ALU_OPS.len())],
            rng.gen_range_u32(0, NUM_REGS as u32) as u16,
            gen_operand(rng),
            gen_operand(rng),
        )
    } else {
        Node::SetP(
            rng.gen_range_u32(0, NUM_PREDS as u32) as u8,
            CMP_OPS[rng.gen_range_usize(0, CMP_OPS.len())],
            gen_operand(rng),
            gen_operand(rng),
        )
    }
}

fn gen_body(rng: &mut Rng, depth: u32) -> Vec<Node> {
    let len = rng.gen_range_usize(1, 4);
    (0..len).map(|_| gen_node(rng, depth)).collect()
}

fn gen_node(rng: &mut Rng, depth: u32) -> Node {
    // Weights match the original strategy: 3 leaf : 1 if : 1 if-else :
    // 1 repeat (leaves only at depth 0).
    if depth == 0 {
        return gen_leaf(rng);
    }
    match rng.gen_range_u32(0, 6) {
        0..=2 => gen_leaf(rng),
        3 => Node::If(
            rng.gen_range_u32(0, NUM_PREDS as u32) as u8,
            rng.gen_bool(),
            gen_body(rng, depth - 1),
        ),
        4 => Node::IfElse(
            rng.gen_range_u32(0, NUM_PREDS as u32) as u8,
            gen_body(rng, depth - 1),
            gen_body(rng, depth - 1),
        ),
        _ => Node::Repeat(rng.gen_range_u32(1, 4) as u8, gen_body(rng, depth - 1)),
    }
}

fn gen_program(rng: &mut Rng) -> Vec<Node> {
    let len = rng.gen_range_usize(1, 8);
    (0..len).map(|_| gen_node(rng, 2)).collect()
}

fn lower(nodes: &[Node], b: &mut KernelBuilder, loop_depth: u16) {
    for n in nodes {
        match n {
            Node::Alu(op, d, a, x) => b.alu_to(*op, *d, *a, *x),
            Node::Load(d, slot) => {
                b.ld_to(Space::Global, Width::W8, *d, ADDR_REG, 8 * i64::from(*slot));
            }
            Node::Store(slot, v) => b.st_global(Width::W8, ADDR_REG, 8 * i64::from(*slot), *v),
            Node::SetP(p, c, a, x) => b.setp_to(*p, *c, *a, *x),
            Node::If(p, expect, body) => {
                b.if_pred_then(*p, *expect, |b| lower(body, b, loop_depth));
            }
            Node::IfElse(p, t, e) => {
                b.if_then_else(*p, |b| lower(t, b, loop_depth), |b| lower(e, b, loop_depth));
            }
            Node::Repeat(n, body) => {
                // Dedicated counter register and predicate per nesting level
                // (outside the AST's reach, so nested loops never clobber
                // each other).
                let i = NUM_REGS + 1 + loop_depth;
                b.mov_to(i, 0i64);
                let pred = NUM_PREDS + loop_depth as u8;
                b.while_loop(
                    |b| {
                        b.setp_to(pred, CmpOp::Lt, i, *n as i64);
                        pred
                    },
                    |b| {
                        lower(body, b, loop_depth + 1);
                        b.alu_to(AluOp::Add, i, i, 1i64);
                    },
                );
            }
        }
    }
}

fn build(nodes: &[Node]) -> Kernel {
    let mut b = KernelBuilder::new("prop");
    // Register budget: NUM_REGS AST registers, the window address,
    // per-depth loop counters, and one copy of each predicate.
    for _ in 0..PRED_COPY + MAX_PREDS as u16 {
        b.reg();
    }
    for _ in 0..=NUM_PREDS {
        b.pred();
    }
    // Seed r0 with the thread id so lanes diverge.
    b.push(gpu_isa::Instr::ReadSpecial {
        dst: 0,
        special: Special::TidX,
    });
    // Mix the tid into a second register for more varied predicates.
    b.alu_to(AluOp::Mul, 1, Operand::Reg(0), Operand::Imm(7));
    b.alu_to(AluOp::Mul, ADDR_REG, Operand::Reg(0), WINDOW as i64);
    // Predicate p starts as `tid > p`: the first guard already diverges,
    // and a lane a branch leaves out holds live predicate bits.
    for p in 0..NUM_PREDS {
        b.setp_to(p, CmpOp::Gt, Operand::Reg(0), i64::from(p));
    }
    lower(nodes, &mut b, 0);
    for p in 0..MAX_PREDS as u8 {
        let copy = PRED_COPY + u16::from(p);
        b.mov_to(copy, 0i64);
        b.if_then(p, |b| b.mov_to(copy, 1i64));
    }
    b.exit();
    b.build().expect("generated program is structurally valid")
}

/// Word-granular global memory: an untouched word reads as a function of
/// its address, and every word written stays recorded.
#[derive(Default)]
struct RecordingMem(BTreeMap<u64, u64>);

impl MemBackend for RecordingMem {
    fn load(&mut self, space: Space, addr: Addr, width: Width) -> u64 {
        assert_eq!((space, width), (Space::Global, Width::W8));
        let a = addr.get();
        *self
            .0
            .get(&a)
            .unwrap_or(&(a.wrapping_mul(0x9E37_79B9) >> 7))
    }
    fn store(&mut self, space: Space, addr: Addr, width: Width, value: u64) {
        assert_eq!((space, width), (Space::Global, Width::W8));
        self.0.insert(addr.get(), value);
    }
    fn atomic_add(&mut self, _: Addr, _: Width, _: u64) -> u64 {
        unreachable!("generated programs have no atomics")
    }
}

/// What one thread leaves behind: its registers (predicate copies
/// included), its accesses in program order, and its memory window.
#[derive(Debug, PartialEq)]
struct ThreadResult {
    regs: Vec<u64>,
    accesses: Vec<(u64, Width)>,
    window: Vec<(u64, u64)>,
}

fn run_warp(kernel: &Arc<Kernel>, ctxs: Vec<ThreadCtx>) -> Vec<ThreadResult> {
    let mut w = WarpExec::new(
        Arc::clone(kernel),
        Arc::from([]),
        ctxs.clone(),
        LocalMap::default(),
    );
    let mut mem = RecordingMem::default();
    let mut accesses: Vec<LaneAccess> = Vec::new();
    let mut steps = 0u64;
    while !w.is_finished() {
        if w.at_barrier() {
            w.release_barrier();
        }
        if let StepOutcome::Mem(_) = w.step(&mut mem) {
            accesses.extend_from_slice(w.accesses());
        }
        steps += 1;
        assert!(steps < 200_000, "runaway generated program");
    }
    let regs = (0..NUM_REGS).chain(PRED_COPY..PRED_COPY + MAX_PREDS as u16);
    ctxs.iter()
        .enumerate()
        .map(|(lane, ctx)| {
            let base = u64::from(ctx.tid) * WINDOW;
            ThreadResult {
                regs: regs.clone().map(|r| w.reg(lane, r)).collect(),
                accesses: accesses
                    .iter()
                    .filter(|a| a.lane as usize == lane)
                    .map(|a| (a.addr.get(), a.width))
                    .collect(),
                window: mem
                    .0
                    .range(base..base + WINDOW)
                    .map(|(&a, &v)| (a, v))
                    .collect(),
            }
        })
        .collect()
}

fn ctx(tid: u32, lane: u32, ntid: u32) -> ThreadCtx {
    ThreadCtx {
        tid,
        ctaid: 0,
        ntid,
        nctaid: 1,
        lane,
    }
}

const CASES: u64 = 64;

/// SIMT transparency: a warp of N divergent threads computes exactly
/// what N single-lane warps compute.
#[test]
fn warp_matches_single_lane_execution() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51A7_0000 + case);
        let prog = gen_program(&mut rng);
        let lanes = rng.gen_range_usize(2, 9);
        let kernel = Arc::new(build(&prog));
        let warp_ctxs: Vec<ThreadCtx> =
            (0..lanes as u32).map(|i| ctx(i, i, lanes as u32)).collect();
        let together = run_warp(&kernel, warp_ctxs);
        for tid in 0..lanes as u32 {
            let alone = run_warp(&kernel, vec![ctx(tid, 0, lanes as u32)]);
            assert_eq!(
                together[tid as usize], alone[0],
                "case {case}: thread {tid} diverges from its solo run\n{prog:?}"
            );
        }
    }
}

/// Generated programs always pass static validation.
#[test]
fn generated_programs_validate() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5A11_0000 + case);
        let kernel = build(&gen_program(&mut rng));
        assert!(kernel.validate().is_ok(), "case {case}");
    }
}

/// Determinism: running the same warp twice gives identical results.
#[test]
fn execution_is_deterministic() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xDE7E_0000 + case);
        let kernel = Arc::new(build(&gen_program(&mut rng)));
        let ctxs: Vec<ThreadCtx> = (0..4u32).map(|i| ctx(i, i, 4)).collect();
        let a = run_warp(&kernel, ctxs.clone());
        let b = run_warp(&kernel, ctxs);
        assert_eq!(a, b, "case {case}");
    }
}

/// Disassemble → reassemble is the identity on every generated program.
#[test]
fn disassembly_round_trips() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xA53_0000 + case);
        let kernel = build(&gen_program(&mut rng));
        let text = kernel.to_string();
        let reparsed = gpu_isa::parse_kernel(&text)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{text}"));
        assert_eq!(kernel.instrs(), reparsed.instrs(), "case {case}");
        assert_eq!(kernel.num_regs(), reparsed.num_regs(), "case {case}");
    }
}

/// And the reassembled kernel executes identically.
#[test]
fn reassembled_kernel_executes_identically() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2EA5_0000 + case);
        let prog = gen_program(&mut rng);
        let lanes = rng.gen_range_usize(1, 5);
        let kernel = Arc::new(build(&prog));
        let reparsed = Arc::new(gpu_isa::parse_kernel(&kernel.to_string()).unwrap());
        let ctxs: Vec<ThreadCtx> = (0..lanes as u32).map(|i| ctx(i, i, lanes as u32)).collect();
        assert_eq!(
            run_warp(&kernel, ctxs.clone()),
            run_warp(&reparsed, ctxs),
            "case {case}"
        );
    }
}
