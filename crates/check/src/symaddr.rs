//! Symbolic per-warp address analysis: the solver behind the memory and
//! concurrency lints.
//!
//! Every register is tracked as a **linear expression** over a small set of
//! symbolic terms — the lane index, the warp-uniform bases of `tid`/`gtid`,
//! kernel parameters, loop iteration counters, and opaque-but-warp-uniform
//! values — so an address like `buf + 4*tid + 4*stride` solves to
//! `Param(0) + 4·TidBase + 4·Lane + 4·LoopPhi(stride)` instead of
//! collapsing to "unknown". From that form the analyzer derives:
//!
//! - the **per-lane stride** (`c1` in `base + c1·lane + c2·iter`), which
//!   feeds the exact transaction/bank-conflict prediction in
//!   [`crate::memlint`];
//! - the **per-iteration stride** (`c2`, the [`Term::Iter`] coefficient),
//!   reported as evidence alongside coalescing verdicts;
//! - **warp-uniformity of predicates**, which drives the divergence
//!   analysis the barrier and race lints in [`crate::concurrency`] rest on.
//!
//! The analysis is a forward dataflow fixpoint over the [`Cfg`] with three
//! non-standard ingredients:
//!
//! 1. **Loop widening**: at a loop head, a value that advances by a
//!    constant `c` per iteration becomes `entry + c·Iter(head)`; a value
//!    that changes non-uniformly but stays warp-uniform becomes an opaque
//!    [`Term::LoopPhi`]; anything else degrades to [`SymVal::Varying`].
//! 2. **Uniform joins preserve lane structure**: when two warp-level values
//!    with the *same* lane stride merge at a join all lanes reach together,
//!    the merge is `Phi(join) + stride·Lane` — still a predictable access
//!    pattern — rather than "unknown".
//! 3. **Iterated divergence**: a join mixes lanes only if it merges paths
//!    of a branch whose guard actually diverges. The divergent-branch set
//!    starts empty and grows monotonically: each round re-runs the fixpoint
//!    under the current set and adds branches whose guards evaluate
//!    lane-varying, until stable.

use gpu_isa::{AluOp, Instr, Kernel, MemRef, Operand, Pc, Reg, Special, MAX_PREDS, RECONV_NONE};

use crate::cfg::Cfg;

/// One symbolic term a register value can be linear in.
///
/// Every term is **warp-uniform** except [`Term::Lane`]; a [`LinExpr`]'s
/// lane behavior is therefore entirely in its `Lane` coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// The lane index within the warp (`0..warp_size`).
    Lane,
    /// Warp-uniform part of `%tid.x`: `tid = TidBase + Lane`.
    TidBase,
    /// Warp-uniform part of `%gtid`: `gtid = GtidBase + Lane`.
    GtidBase,
    /// `%ctaid.x` (uniform across the CTA).
    CtaId,
    /// `%ntid.x`.
    NTid,
    /// `%nctaid.x`.
    NCta,
    /// Kernel parameter slot.
    Param(u16),
    /// Iteration counter of the loop headed at block `b`: 0 on entry,
    /// +1 per backedge traversal.
    Iter(u32),
    /// Unknown warp-uniform loop-carried value of register `r` at the head
    /// of the loop at block `b`.
    LoopPhi(u32, Reg),
    /// Unknown warp-uniform join value of register `r` at block `b`
    /// (a join all lanes reach together).
    Phi(u32, Reg),
    /// Warp-uniform result of a non-affine operation at `pc` (division,
    /// masking, shifts by non-constants, ...).
    Opaque(u32),
}

impl Term {
    /// The block that scopes this term, if any: loop-carried and join terms
    /// are only meaningful inside the region that defines them.
    fn def_block(self) -> Option<usize> {
        match self {
            Term::Iter(b) | Term::LoopPhi(b, _) | Term::Phi(b, _) => Some(b as usize),
            _ => None,
        }
    }
}

/// A linear expression `k + Σ coeff·term` with canonical (sorted, non-zero)
/// terms. Arithmetic is wrapping 64-bit, mirroring the executor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    /// Constant part.
    pub k: i64,
    /// Sorted `(term, coefficient)` pairs, coefficients non-zero.
    pub terms: Vec<(Term, i64)>,
}

impl LinExpr {
    /// The constant `k`.
    pub fn constant(k: i64) -> Self {
        LinExpr {
            k,
            terms: Vec::new(),
        }
    }

    /// A single term with coefficient 1.
    pub fn term(t: Term) -> Self {
        LinExpr {
            k: 0,
            terms: vec![(t, 1)],
        }
    }

    /// Returns `Some(k)` when the expression is a plain constant.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.k)
    }

    /// Coefficient of `t` (zero when absent).
    pub fn coeff(&self, t: Term) -> i64 {
        self.terms
            .iter()
            .find(|(term, _)| *term == t)
            .map_or(0, |(_, c)| *c)
    }

    /// Per-lane byte stride: the coefficient of [`Term::Lane`].
    pub fn lane_coeff(&self) -> i64 {
        self.coeff(Term::Lane)
    }

    /// Per-iteration stride of the innermost loop the expression depends
    /// on, if any: the coefficient of the highest-numbered `Iter` term.
    pub fn iter_coeff(&self) -> Option<i64> {
        self.terms
            .iter()
            .rfind(|(t, _)| matches!(t, Term::Iter(_)))
            .map(|(_, c)| *c)
    }

    fn combine(&self, other: &Self, sign: i64) -> Self {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < other.terms.len() {
            let take_left = j >= other.terms.len()
                || (i < self.terms.len() && self.terms[i].0 <= other.terms[j].0);
            let take_right = i >= self.terms.len()
                || (j < other.terms.len() && other.terms[j].0 <= self.terms[i].0);
            if take_left && take_right {
                let c = self.terms[i]
                    .1
                    .wrapping_add(other.terms[j].1.wrapping_mul(sign));
                if c != 0 {
                    terms.push((self.terms[i].0, c));
                }
                i += 1;
                j += 1;
            } else if take_left {
                terms.push(self.terms[i]);
                i += 1;
            } else {
                let (t, c) = other.terms[j];
                terms.push((t, c.wrapping_mul(sign)));
                j += 1;
            }
        }
        LinExpr {
            k: self.k.wrapping_add(other.k.wrapping_mul(sign)),
            terms,
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.combine(other, 1)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.combine(other, -1)
    }

    /// `self · c`.
    pub fn mul_const(&self, c: i64) -> Self {
        if c == 0 {
            return LinExpr::constant(0);
        }
        LinExpr {
            k: self.k.wrapping_mul(c),
            terms: self
                .terms
                .iter()
                .map(|&(t, coeff)| (t, coeff.wrapping_mul(c)))
                .collect(),
        }
    }

    /// `self + c`.
    pub fn add_const(&self, c: i64) -> Self {
        LinExpr {
            k: self.k.wrapping_add(c),
            terms: self.terms.clone(),
        }
    }

    /// Returns `true` if any term is scoped to a block in `blocks`.
    fn mentions_block(&self, blocks: &[bool]) -> bool {
        self.terms.iter().any(|(t, _)| {
            t.def_block()
                .is_some_and(|b| blocks.get(b).copied().unwrap_or(false))
        })
    }
}

/// How a register varies across the warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymVal {
    /// A linear expression over warp-uniform terms plus the lane index.
    Lin(LinExpr),
    /// No linear form: lanes may hold arbitrarily different values.
    Varying,
}

impl SymVal {
    fn constant(k: i64) -> Self {
        SymVal::Lin(LinExpr::constant(k))
    }

    /// The linear form, if any.
    pub fn lin(&self) -> Option<&LinExpr> {
        match self {
            SymVal::Lin(e) => Some(e),
            SymVal::Varying => None,
        }
    }

    /// `true` when the value is identical in every lane.
    pub fn is_warp_uniform(&self) -> bool {
        self.lin().is_some_and(|e| e.lane_coeff() == 0)
    }
}

/// Where a warp-uniform predicate got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredSrc {
    /// Defined by the `SetP` at this pc.
    Def(Pc),
    /// Merged from uniform definitions at this join block.
    Join(u32),
}

/// Warp-level behavior of a predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredVal {
    /// Identical in every lane (with a provenance tag so two *different*
    /// uniform definitions don't spuriously compare equal at lane-mixing
    /// joins).
    Uniform(PredSrc),
    /// Lanes may disagree: a branch guarded on it diverges.
    Varying,
}

/// Abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Per-register symbolic values.
    pub regs: Vec<SymVal>,
    /// Per-predicate uniformity.
    pub preds: Vec<PredVal>,
}

impl Env {
    fn top(nregs: usize, npreds: usize) -> Self {
        Env {
            regs: vec![SymVal::Varying; nregs],
            preds: vec![PredVal::Varying; npreds],
        }
    }
}

/// One memory instruction with its solved address expression.
#[derive(Debug, Clone)]
pub struct SymAccess {
    /// Instruction pc.
    pub pc: Pc,
    /// Space/width/store/atomic metadata.
    pub mem: MemRef,
    /// Solved address (the instruction's constant offset already folded
    /// in), or [`SymVal::Varying`] when no linear form exists.
    pub addr: SymVal,
}

/// Result of the whole-kernel symbolic analysis.
#[derive(Debug, Clone)]
pub struct SymAnalysis {
    /// Entry environment per block (`None` for unreachable blocks).
    pub block_entry: Vec<Option<Env>>,
    /// Pcs of branches whose guard is lane-varying.
    pub divergent_branches: Vec<Pc>,
    /// Per block: `true` if the block executes under divergent control flow
    /// (it lies between some divergent branch and its reconvergence point).
    pub divergent_region: Vec<bool>,
    /// Every reachable memory access with its solved address, in pc order.
    pub accesses: Vec<SymAccess>,
}

impl SymAnalysis {
    /// The solved access at `pc`, if that pc is a reachable memory
    /// instruction.
    pub fn access_at(&self, pc: Pc) -> Option<&SymAccess> {
        self.accesses.iter().find(|a| a.pc == pc)
    }

    /// `true` when the instruction at `pc` executes under divergent
    /// control flow (so a warp may reach it with a partial lane mask).
    pub fn pc_in_divergent_region(&self, cfg: &Cfg, pc: Pc) -> bool {
        self.divergent_region
            .get(cfg.block_of(pc))
            .copied()
            .unwrap_or(false)
    }
}

fn operand_val(op: Operand, env: &Env) -> SymVal {
    match op {
        Operand::Imm(v) => SymVal::constant(v),
        Operand::Reg(r) => env.regs.get(r as usize).cloned().unwrap_or(SymVal::Varying),
    }
}

/// Constant folding through the executor's own ALU; float ops stay
/// unfolded (addresses are integers).
fn fold_const(op: AluOp, a: i64, b: i64) -> Option<i64> {
    (!op.is_float()).then(|| gpu_isa::eval_alu(op, a as u64, b as u64) as i64)
}

/// Abstract ALU transfer: linear ops stay linear, non-affine ops on
/// warp-uniform operands become an [`Term::Opaque`] tagged with the pc, and
/// everything else degrades to [`SymVal::Varying`].
pub(crate) fn eval_alu(op: AluOp, a: &SymVal, b: &SymVal, pc: Pc) -> SymVal {
    let (SymVal::Lin(ea), SymVal::Lin(eb)) = (a, b) else {
        return SymVal::Varying;
    };
    if let (Some(ka), Some(kb)) = (ea.as_const(), eb.as_const()) {
        if let Some(v) = fold_const(op, ka, kb) {
            return SymVal::constant(v);
        }
    }
    match op {
        AluOp::Add => return SymVal::Lin(ea.add(eb)),
        AluOp::Sub => return SymVal::Lin(ea.sub(eb)),
        AluOp::Mul => {
            if let Some(c) = eb.as_const() {
                return SymVal::Lin(ea.mul_const(c));
            }
            if let Some(c) = ea.as_const() {
                return SymVal::Lin(eb.mul_const(c));
            }
        }
        AluOp::Shl => {
            if let Some(c) = eb.as_const() {
                if (0..64).contains(&c) {
                    return SymVal::Lin(ea.mul_const(1i64.wrapping_shl(c as u32)));
                }
            }
        }
        _ => {}
    }
    // Non-affine: warp-uniform in, warp-uniform (opaque) out.
    if ea.lane_coeff() == 0 && eb.lane_coeff() == 0 {
        SymVal::Lin(LinExpr::term(Term::Opaque(pc as u32)))
    } else {
        SymVal::Varying
    }
}

/// Applies one instruction to the environment.
pub(crate) fn transfer(instr: &Instr, pc: Pc, env: &mut Env) {
    let set = |env: &mut Env, r: Reg, v: SymVal| {
        if let Some(slot) = env.regs.get_mut(r as usize) {
            *slot = v;
        }
    };
    match instr {
        Instr::Mov { dst, src } => {
            let v = operand_val(*src, env);
            set(env, *dst, v);
        }
        Instr::ReadSpecial { dst, special } => {
            let v = match special {
                Special::TidX => SymVal::Lin(LinExpr {
                    k: 0,
                    terms: vec![(Term::Lane, 1), (Term::TidBase, 1)],
                }),
                Special::GlobalTid => SymVal::Lin(LinExpr {
                    k: 0,
                    terms: vec![(Term::Lane, 1), (Term::GtidBase, 1)],
                }),
                Special::LaneId => SymVal::Lin(LinExpr::term(Term::Lane)),
                Special::CtaIdX => SymVal::Lin(LinExpr::term(Term::CtaId)),
                Special::NTidX => SymVal::Lin(LinExpr::term(Term::NTid)),
                Special::NCtaIdX => SymVal::Lin(LinExpr::term(Term::NCta)),
            };
            set(env, *dst, v);
        }
        Instr::LdParam { dst, index } => {
            let v = if *index <= u16::MAX as usize {
                SymVal::Lin(LinExpr::term(Term::Param(*index as u16)))
            } else {
                SymVal::Varying
            };
            set(env, *dst, v);
        }
        Instr::Alu { op, dst, a, b } => {
            let va = operand_val(*a, env);
            let vb = operand_val(*b, env);
            set(env, *dst, eval_alu(*op, &va, &vb, pc));
        }
        Instr::SetP { pred, a, b, .. } => {
            let va = operand_val(*a, env);
            let vb = operand_val(*b, env);
            let v = if va.is_warp_uniform() && vb.is_warp_uniform() {
                PredVal::Uniform(PredSrc::Def(pc))
            } else {
                PredVal::Varying
            };
            if let Some(slot) = env.preds.get_mut(*pred as usize) {
                *slot = v;
            }
        }
        Instr::Ld { dst, .. } | Instr::AtomAdd { dst, .. } => set(env, *dst, SymVal::Varying),
        _ => {}
    }
}

/// Canonical `Phi(block)/LoopPhi(block)` form preserving the lane stride.
fn phi_val(t: Term, lane: i64) -> SymVal {
    let mut terms = Vec::with_capacity(2);
    if lane != 0 {
        terms.push((Term::Lane, lane));
    }
    terms.push((t, 1));
    terms.sort_unstable_by_key(|&(t, _)| t);
    SymVal::Lin(LinExpr { k: 0, terms })
}

/// Is `cur` exactly the canonical `phi + s·Lane` for this phi term?
fn is_phi_form(cur: &SymVal, t: Term) -> bool {
    cur.lin().is_some_and(|e| {
        e.k == 0
            && e.coeff(t) == 1
            && e.terms
                .iter()
                .all(|&(term, _)| term == t || term == Term::Lane)
    })
}

/// Merge at a join all lanes reach together. Differing linear values with a
/// common lane stride keep that stride behind an opaque `Phi`.
fn merge_uniform(cur: &SymVal, new: &SymVal, block: usize, r: Reg) -> SymVal {
    if cur == new {
        return cur.clone();
    }
    let phi = Term::Phi(block as u32, r);
    let (Some(ec), Some(en)) = (cur.lin(), new.lin()) else {
        return SymVal::Varying;
    };
    if ec.lane_coeff() != en.lane_coeff() {
        return SymVal::Varying;
    }
    if is_phi_form(cur, phi) {
        return cur.clone();
    }
    phi_val(phi, ec.lane_coeff())
}

/// Merge at a join that may mix lanes from divergent paths: only identical
/// values survive.
fn merge_mixing(cur: &SymVal, new: &SymVal) -> SymVal {
    if cur == new {
        cur.clone()
    } else {
        SymVal::Varying
    }
}

/// Widening at a loop head: constant per-iteration drift becomes an
/// `Iter(head)` term, non-constant warp-uniform drift a `LoopPhi`, and
/// anything else `Varying`.
fn widen(cur: &SymVal, back: &SymVal, head: usize, r: Reg) -> SymVal {
    if cur == back {
        return cur.clone();
    }
    let (Some(ec), Some(eb)) = (cur.lin(), back.lin()) else {
        return SymVal::Varying;
    };
    if ec.lane_coeff() != eb.lane_coeff() {
        return SymVal::Varying;
    }
    let loopphi = Term::LoopPhi(head as u32, r);
    if is_phi_form(cur, loopphi) {
        return cur.clone();
    }
    let iter = Term::Iter(head as u32);
    let diff = eb.sub(ec);
    if let Some(c) = diff.as_const() {
        if ec.coeff(iter) == c {
            // Already widened with exactly this drift: stable.
            return cur.clone();
        }
        if ec.coeff(iter) == 0 && c != 0 {
            return SymVal::Lin(ec.add(&LinExpr::term(iter).mul_const(c)));
        }
    }
    phi_val(loopphi, ec.lane_coeff())
}

/// Merge an *entry* (forward-edge) value into a loop head that may already
/// hold a widened value: an entry value matching the widened value modulo
/// this head's own loop terms is absorbed.
fn merge_into_head(cur: &SymVal, new: &SymVal, head: usize, r: Reg) -> SymVal {
    if cur == new {
        return cur.clone();
    }
    let loopphi = Term::LoopPhi(head as u32, r);
    if is_phi_form(cur, loopphi) {
        if let Some(en) = new.lin() {
            if en.lane_coeff() == cur.lin().expect("phi form is linear").lane_coeff() {
                return cur.clone();
            }
        }
        return SymVal::Varying;
    }
    if let (Some(ec), Some(en)) = (cur.lin(), new.lin()) {
        let diff = ec.sub(en);
        let only_own_terms = diff.k == 0
            && diff.terms.iter().all(
                |(t, _)| matches!(t, Term::Iter(b) | Term::LoopPhi(b, _) if *b as usize == head),
            );
        if only_own_terms {
            return cur.clone();
        }
        if ec.lane_coeff() == en.lane_coeff() {
            return phi_val(loopphi, ec.lane_coeff());
        }
    }
    SymVal::Varying
}

fn merge_pred(cur: PredVal, new: PredVal, mixing: bool, block: usize) -> PredVal {
    if cur == new {
        return cur;
    }
    match (cur, new) {
        (PredVal::Uniform(_), PredVal::Uniform(_)) if !mixing => {
            PredVal::Uniform(PredSrc::Join(block as u32))
        }
        _ => PredVal::Varying,
    }
}

/// Natural-loop membership for the loop headed at `head`: `head` plus every
/// block that reaches a backedge source without passing through `head`.
fn natural_loop(cfg: &Cfg, head: usize, back_srcs: &[usize]) -> Vec<bool> {
    let n = cfg.blocks().len();
    let mut in_loop = vec![false; n];
    in_loop[head] = true;
    let mut stack: Vec<usize> = Vec::new();
    for &s in back_srcs {
        if !in_loop[s] {
            in_loop[s] = true;
            stack.push(s);
        }
    }
    while let Some(b) = stack.pop() {
        for &p in &cfg.blocks()[b].preds {
            if !in_loop[p] {
                in_loop[p] = true;
                stack.push(p);
            }
        }
    }
    in_loop
}

/// Blocks reachable from the successors of divergent branch block `b`
/// without passing through the reconvergence block.
fn divergent_region_of(cfg: &Cfg, b: usize, reconv_block: Option<usize>) -> Vec<usize> {
    let mut seen = vec![false; cfg.blocks().len()];
    let mut stack: Vec<usize> = Vec::new();
    for &s in &cfg.blocks()[b].succs {
        if Some(s) != reconv_block && !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    let mut out = Vec::new();
    while let Some(x) = stack.pop() {
        out.push(x);
        for &s in &cfg.blocks()[x].succs {
            if Some(s) != reconv_block && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    out
}

struct LoopInfo {
    head: usize,
    body: Vec<bool>,
}

/// Runs the whole-kernel symbolic analysis.
pub fn analyze(kernel: &Kernel, cfg: &Cfg) -> SymAnalysis {
    let instrs = kernel.instrs();
    let nb = cfg.blocks().len();
    let nregs = kernel.num_regs() as usize;
    let npreds = MAX_PREDS;
    if nb == 0 {
        return SymAnalysis {
            block_entry: Vec::new(),
            divergent_branches: Vec::new(),
            divergent_region: Vec::new(),
            accesses: Vec::new(),
        };
    }

    // Loop structure from backedges (builder CFGs are reducible with heads
    // at lower block indices; hand-written irreducible flow degrades
    // conservatively because widening still applies at the merge target).
    let mut loops: Vec<LoopInfo> = Vec::new();
    for (u, block) in cfg.blocks().iter().enumerate() {
        for &v in &block.succs {
            if v <= u {
                if let Some(l) = loops.iter_mut().find(|l| l.head == v) {
                    let extra = natural_loop(cfg, v, &[u]);
                    for (slot, add) in l.body.iter_mut().zip(extra) {
                        *slot |= add;
                    }
                } else {
                    loops.push(LoopInfo {
                        head: v,
                        body: natural_loop(cfg, v, &[u]),
                    });
                }
            }
        }
    }
    let is_head = |b: usize| loops.iter().any(|l| l.head == b);

    // Iterated divergence: grow the divergent-branch set until stable.
    let mut divergent: Vec<bool> = vec![false; nb]; // per branch *block*
    let (envs, divergent_branches, region) = loop {
        // Divergent regions and mixing blocks under the current set.
        let mut region = vec![false; nb];
        let mut div_pcs: Vec<Pc> = Vec::new();
        for (b, &div) in divergent.iter().enumerate() {
            if !div {
                continue;
            }
            let last = cfg.blocks()[b].end - 1;
            div_pcs.push(last);
            let reconv = match &instrs[last] {
                Instr::Branch { reconverge, .. } if *reconverge != RECONV_NONE => {
                    (*reconverge < instrs.len()).then(|| cfg.block_of(*reconverge))
                }
                _ => None,
            };
            for x in divergent_region_of(cfg, b, reconv) {
                region[x] = true;
            }
        }
        // Divergent loops: lanes may leave at different trip counts, so
        // values carrying the loop's own terms are meaningless (and
        // lane-varying) outside the loop.
        let mut divergent_loop: Vec<bool> = vec![false; loops.len()];
        for (li, l) in loops.iter().enumerate() {
            for (b, &inside) in l.body.iter().enumerate() {
                if !inside || !divergent[b] {
                    continue;
                }
                // An exit-controlling divergent branch: one successor
                // outside the body.
                if cfg.blocks()[b].succs.iter().any(|&s| !l.body[s]) {
                    divergent_loop[li] = true;
                }
            }
        }

        // A block whose entry merge may mix lanes: some predecessor sits in
        // a divergent region (the merge reunites divergent paths).
        let mixing = |b: usize| cfg.blocks()[b].preds.iter().any(|&p| region[p]);

        // Forward fixpoint with per-edge caching: a block's entry is
        // re-folded from its predecessors' latest edge values, so a stale
        // earlier propagation along the *same* edge never masquerades as a
        // second joining path. Loop heads instead *accumulate* (their
        // previous entry is the widening history).
        //
        // Iteration order matters more than usual: the builder emits blocks
        // in reverse post order, and full in-order sweeps keep sibling
        // edges into a join synchronized to the same sweep. A FIFO worklist
        // can deliver two different *transient* widening stages of one loop
        // value to a lane-mixing join, whose `Varying` verdict would then
        // latch permanently in the head's widening accumulator.
        let initial = Env {
            regs: vec![SymVal::Varying; nregs],
            preds: vec![PredVal::Varying; npreds],
        };
        let mut envs: Vec<Option<Env>> = vec![None; nb];
        envs[0] = Some(initial.clone());
        let mut edge_vals: std::collections::HashMap<(usize, usize), Env> =
            std::collections::HashMap::new();
        // Each widening chain is short (precise → Iter → LoopPhi → stable),
        // so structured CFGs settle in a handful of sweeps per loop-nest
        // level; the cap only guards pathological irreducible flow.
        let max_sweeps = 8 + 4 * nb;
        let mut settled = false;
        for _ in 0..max_sweeps {
            let mut changed = false;
            for bi in 0..nb {
                let Some(entry) = envs[bi].clone() else {
                    continue;
                };
                let mut env = entry;
                let block = &cfg.blocks()[bi];
                for (pc, instr) in instrs.iter().enumerate().take(block.end).skip(block.start) {
                    transfer(instr, pc, &mut env);
                }
                for &s in &block.succs {
                    // Values leaving a divergent loop lose that loop's own terms.
                    let mut out = env.clone();
                    for (li, l) in loops.iter().enumerate() {
                        if divergent_loop[li]
                            && l.body[bi]
                            && !l.body.get(s).copied().unwrap_or(false)
                        {
                            for v in &mut out.regs {
                                if matches!(v, SymVal::Lin(e) if e.mentions_block(&l.body)) {
                                    *v = SymVal::Varying;
                                }
                            }
                        }
                    }
                    if edge_vals.get(&(bi, s)) == Some(&out) {
                        continue;
                    }
                    edge_vals.insert((bi, s), out);

                    // Refold the successor's entry.
                    let mix = mixing(s);
                    let merged = if is_head(s) {
                        // Accumulate: previous entry is the widening history.
                        let mut forward: Vec<&Env> = Vec::new();
                        let mut back: Vec<&Env> = Vec::new();
                        for &p in &cfg.blocks()[s].preds {
                            if let Some(v) = edge_vals.get(&(p, s)) {
                                if s <= p {
                                    back.push(v);
                                } else {
                                    forward.push(v);
                                }
                            }
                        }
                        let cur = envs[s].clone().or_else(|| {
                            if s == 0 {
                                Some(initial.clone())
                            } else {
                                forward.first().map(|e| (*e).clone())
                            }
                        });
                        let Some(mut cur) = cur else { continue };
                        for e in &forward {
                            for r in 0..nregs {
                                cur.regs[r] =
                                    merge_into_head(&cur.regs[r], &e.regs[r], s, r as Reg);
                            }
                            for pi in 0..npreds {
                                cur.preds[pi] = merge_pred(cur.preds[pi], e.preds[pi], mix, s);
                            }
                        }
                        for e in &back {
                            for r in 0..nregs {
                                cur.regs[r] = widen(&cur.regs[r], &e.regs[r], s, r as Reg);
                            }
                            for pi in 0..npreds {
                                cur.preds[pi] = merge_pred(cur.preds[pi], e.preds[pi], mix, s);
                            }
                        }
                        cur
                    } else {
                        // Fresh fold over predecessor edge values (sorted pred
                        // order keeps the fold deterministic and idempotent).
                        let mut ps: Vec<usize> = cfg.blocks()[s].preds.clone();
                        ps.sort_unstable();
                        let mut acc: Option<Env> = None;
                        for p in ps {
                            let Some(e) = edge_vals.get(&(p, s)) else {
                                continue;
                            };
                            acc = Some(match acc {
                                None => e.clone(),
                                Some(mut cur) => {
                                    for r in 0..nregs {
                                        cur.regs[r] = if mix {
                                            merge_mixing(&cur.regs[r], &e.regs[r])
                                        } else {
                                            merge_uniform(&cur.regs[r], &e.regs[r], s, r as Reg)
                                        };
                                    }
                                    for pi in 0..npreds {
                                        cur.preds[pi] =
                                            merge_pred(cur.preds[pi], e.preds[pi], mix, s);
                                    }
                                    cur
                                }
                            });
                        }
                        let Some(acc) = acc else { continue };
                        acc
                    };
                    if envs[s].as_ref() != Some(&merged) {
                        envs[s] = Some(merged);
                        changed = true;
                    }
                }
            }
            if !changed {
                settled = true;
                break;
            }
        }
        if !settled {
            // Pathological irreducible flow: give up soundly.
            for env in envs.iter_mut().flatten() {
                *env = Env::top(nregs, npreds);
            }
        }

        // Re-derive the divergent-branch set under the computed envs.
        let mut grew = false;
        for (bi, block) in cfg.blocks().iter().enumerate() {
            if divergent[bi] {
                continue;
            }
            let Some(entry) = &envs[bi] else { continue };
            let last = block.end - 1;
            let Instr::Branch { guard: Some(g), .. } = &instrs[last] else {
                continue;
            };
            let mut env = entry.clone();
            for (pc, instr) in instrs.iter().enumerate().take(last).skip(block.start) {
                transfer(instr, pc, &mut env);
            }
            let varying = !matches!(env.preds.get(g.pred as usize), Some(PredVal::Uniform(_)));
            if varying {
                divergent[bi] = true;
                grew = true;
            }
        }
        if !grew {
            break (envs, div_pcs, region);
        }
    };

    // Solve every reachable memory access under the final environments.
    let mut accesses = Vec::new();
    for (bi, block) in cfg.blocks().iter().enumerate() {
        let Some(entry) = &envs[bi] else { continue };
        let mut env = entry.clone();
        for (pc, instr) in instrs.iter().enumerate().take(block.end).skip(block.start) {
            if let Some(mem) = instr.mem_ref() {
                let addr = match env.regs.get(mem.addr as usize) {
                    Some(SymVal::Lin(e)) => SymVal::Lin(e.add_const(mem.offset)),
                    _ => SymVal::Varying,
                };
                accesses.push(SymAccess { pc, mem, addr });
            }
            transfer(instr, pc, &mut env);
        }
    }
    accesses.sort_by_key(|a| a.pc);

    SymAnalysis {
        block_entry: envs,
        divergent_branches,
        divergent_region: region,
        accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{CmpOp, KernelBuilder, Space, Special, Width};

    fn solved(kernel: &Kernel) -> SymAnalysis {
        let cfg = Cfg::build(kernel);
        analyze(kernel, &cfg)
    }

    fn lane_stride(a: &SymAccess) -> Option<i64> {
        a.addr.lin().map(LinExpr::lane_coeff)
    }

    #[test]
    fn tid_decomposes_into_base_plus_lane() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::TidX);
        let off = b.shl(t, 2);
        let a = b.add(base, off);
        b.ld_global(Width::W4, a, 8);
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        let acc = &s.accesses[0];
        let e = acc.addr.lin().unwrap();
        assert_eq!(e.lane_coeff(), 4);
        assert_eq!(e.coeff(Term::TidBase), 4);
        assert_eq!(e.coeff(Term::Param(0)), 1);
        assert_eq!(e.k, 8, "instruction offset folded into the expression");
    }

    #[test]
    fn for_range_counter_becomes_iter_term() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        b.for_range(Operand::Imm(0), Operand::Imm(8), 1, |b, i| {
            let row = b.mul(i, 1024i64);
            let col = b.shl(t, 2);
            let idx = b.add(row, col);
            let a = b.add(base, idx);
            b.ld_global(Width::W4, a, 0);
        });
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        let e = s.accesses[0].addr.lin().unwrap();
        assert_eq!(e.lane_coeff(), 4);
        assert_eq!(e.iter_coeff(), Some(1024), "per-iteration stride solved");
    }

    #[test]
    fn uniform_join_preserves_lane_stride() {
        // Double-buffer selection: both branches produce `buf + 4*tid`
        // with different warp-uniform bases under a *uniform* predicate.
        let mut b = KernelBuilder::new("k");
        let pa = b.param(0);
        let pb = b.param(1);
        let n = b.param(2);
        let t = b.special(Special::TidX);
        let off = b.shl(t, 2);
        let sel = b.setp(CmpOp::Lt, n, 100i64);
        let src = b.reg();
        b.if_then_else(
            sel,
            |b| {
                let a = b.add(pa, off);
                b.mov_to(src, a);
            },
            |b| {
                let a = b.add(pb, off);
                b.mov_to(src, a);
            },
        );
        b.ld_global(Width::W4, src, 0);
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        let acc = s.accesses.last().unwrap();
        assert_eq!(lane_stride(acc), Some(4), "phi join kept the stride");
    }

    #[test]
    fn divergent_join_degrades_to_varying() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let p = b.setp(CmpOp::Lt, t, 8i64); // lane-varying predicate
        let r = b.mov(0i64);
        b.if_then_else(p, |b| b.mov_to(r, 4i64), |b| b.mov_to(r, 8i64));
        let off = b.mul(t, r);
        let a = b.add(base, off);
        b.ld_global(Width::W4, a, 0);
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        assert!(!s.divergent_branches.is_empty());
        assert_eq!(s.accesses[0].addr, SymVal::Varying);
    }

    #[test]
    fn loop_carried_uniform_value_stays_uniform() {
        // reduce-style: stride halves every round (non-affine update), but
        // remains warp-uniform, so `sdata + 4*(tid+stride)` keeps lane
        // stride 4.
        let mut b = KernelBuilder::new("k");
        b.alloc_shared(1024);
        let t = b.special(Special::TidX);
        let stride = b.mov(128i64);
        let lp = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(lp, CmpOp::Gt, stride, 0i64);
                lp
            },
            |b| {
                let peer = b.add(t, stride);
                let off = b.shl(peer, 2);
                b.ld(Space::Shared, Width::W4, off, 0);
                b.bar();
                b.alu_to(AluOp::Shr, stride, stride, Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        let shared_loads: Vec<_> = s
            .accesses
            .iter()
            .filter(|a| a.mem.space == Space::Shared)
            .collect();
        assert_eq!(shared_loads.len(), 1);
        assert_eq!(lane_stride(shared_loads[0]), Some(4));
        // The loop itself is uniform: no divergent branches.
        assert!(s.divergent_branches.is_empty());
    }

    #[test]
    fn divergent_loop_poisons_its_exports() {
        // Trip count depends on a loaded (lane-varying) value: anything
        // carried by the loop is meaningless after it.
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off4 = b.shl(t, 2);
        let a0 = b.add(base, off4);
        let bound = b.ld_global(Width::W4, a0, 0);
        let i = b.mov(0i64);
        let lp = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(lp, CmpOp::Lt, i, bound);
                lp
            },
            |b| {
                b.alu_to(AluOp::Add, i, i, Operand::Imm(1));
            },
        );
        let off = b.shl(i, 2);
        let addr = b.add(base, off);
        b.ld_global(Width::W4, addr, 0);
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        assert!(!s.divergent_branches.is_empty());
        let last = s.accesses.last().unwrap();
        assert_eq!(last.addr, SymVal::Varying, "`i` died at the loop exit");
    }

    #[test]
    fn opaque_ops_preserve_warp_uniformity() {
        let mut b = KernelBuilder::new("k");
        let n = b.param(0);
        let base = b.param(1);
        let q = b.alu(AluOp::Div, n, 7i64); // non-affine, warp-uniform
        let t = b.special(Special::TidX);
        let o = b.shl(t, 2);
        let row = b.mul(q, 0i64); // folds to 0 via mul_const
        let x = b.add(o, row);
        let qb = b.add(base, q);
        let addr = b.add(qb, x);
        b.ld_global(Width::W4, addr, 0);
        b.exit();
        let k = b.build().unwrap();
        let s = solved(&k);
        let e = s.accesses[0].addr.lin().unwrap();
        assert_eq!(e.lane_coeff(), 4, "opaque uniform base keeps the stride");
    }

    #[test]
    fn divergent_region_marks_guarded_block() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let p = b.setp(CmpOp::Lt, t, 8i64);
        b.if_then(p, |b| {
            let off = b.shl(t, 2);
            let a = b.add(base, off);
            b.ld_global(Width::W4, a, 0);
        });
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let s = analyze(&k, &cfg);
        let ld_pc = s.accesses[0].pc;
        assert!(s.pc_in_divergent_region(&cfg, ld_pc));
        assert!(
            !s.pc_in_divergent_region(&cfg, k.len() - 1),
            "exit is reconverged"
        );
    }

    #[test]
    fn linexpr_algebra() {
        let a = LinExpr {
            k: 3,
            terms: vec![(Term::Lane, 4), (Term::TidBase, 4)],
        };
        let b = LinExpr {
            k: 1,
            terms: vec![(Term::Lane, 4)],
        };
        let d = a.sub(&b);
        assert_eq!(d.k, 2);
        assert_eq!(d.lane_coeff(), 0);
        assert_eq!(d.coeff(Term::TidBase), 4);
        assert_eq!(a.mul_const(0).as_const(), Some(0));
        assert_eq!(a.add(&b).lane_coeff(), 8);
        assert_eq!(b.add_const(7).k, 8);
    }

    /// The analyzer's constant fold is the executor's ALU: every integer op
    /// over the operands where the two used to be able to drift (zero
    /// divisors, `i64::MIN / -1`, shift counts past the register width)
    /// folds to the value a one-instruction kernel really computes.
    #[test]
    fn constant_folds_match_the_functional_executor() {
        use gpu_isa::{LocalMap, MemBackend, ThreadCtx, WarpExec};
        use gpu_types::Addr;
        use std::sync::Arc;

        struct NoMem;
        impl MemBackend for NoMem {
            fn load(&mut self, _: Space, _: Addr, _: Width) -> u64 {
                0
            }
            fn store(&mut self, _: Space, _: Addr, _: Width, _: u64) {}
            fn atomic_add(&mut self, _: Addr, _: Width, _: u64) -> u64 {
                0
            }
        }

        use AluOp::*;
        let int_ops = [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr];
        let edges = [0, 1, -1, 7, 63, 64, 65, i64::MIN, i64::MAX];
        let thread = ThreadCtx {
            tid: 0,
            ctaid: 0,
            ntid: 1,
            nctaid: 1,
            lane: 0,
        };
        for op in int_ops {
            for (a, b) in edges.iter().flat_map(|&a| edges.map(|b| (a, b))) {
                let mut kb = KernelBuilder::new("fold");
                let r = kb.alu(op, a, b);
                kb.ld_global(Width::W4, r, 0);
                kb.exit();
                let k = kb.build().unwrap();
                let folded = solved(&k).accesses[0]
                    .addr
                    .lin()
                    .and_then(LinExpr::as_const);

                let ctxs = vec![thread];
                let mut w = WarpExec::new(Arc::new(k), Arc::from([]), ctxs, LocalMap::default());
                w.step(&mut NoMem);
                assert_eq!(folded, Some(w.reg(0, r) as i64), "{op:?}({a}, {b})");
            }
        }
        assert_eq!(fold_const(AluOp::FAdd, 1, 2), None, "floats stay unfolded");
    }
}
