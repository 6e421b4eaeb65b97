//! The executor's heap traffic is per warp, not per thread or per
//! instruction: a warp's register file is one allocation whatever its lane
//! count, and once a warp has grown its SIMT stack, stepping it — ALU,
//! predicates, divergent branches, memory instructions — allocates nothing.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;

use std::sync::Arc;

use gpu_isa::{
    AluOp, CmpOp, Kernel, KernelBuilder, LocalMap, MemBackend, Space, Special, StepOutcome,
    ThreadCtx, WarpExec, Width,
};
use gpu_types::Addr;

/// Flat global memory of 8-byte words at byte addresses below its length.
struct FlatMem(Vec<u64>);

impl MemBackend for FlatMem {
    fn load(&mut self, _: Space, addr: Addr, _: Width) -> u64 {
        self.0[addr.get() as usize / 8]
    }
    fn store(&mut self, _: Space, addr: Addr, _: Width, value: u64) {
        self.0[addr.get() as usize / 8] = value;
    }
    fn atomic_add(&mut self, addr: Addr, _: Width, value: u64) -> u64 {
        let old = self.0[addr.get() as usize / 8];
        self.0[addr.get() as usize / 8] = old.wrapping_add(value);
        old
    }
}

fn ctxs(lanes: u32) -> Vec<ThreadCtx> {
    (0..lanes)
        .map(|i| ThreadCtx {
            tid: i,
            ctaid: 0,
            ntid: lanes,
            nctaid: 1,
            lane: i,
        })
        .collect()
}

/// Lane `l` loops `l` times, loading and storing its own word each time.
fn divergent_load_loop() -> Kernel {
    let mut b = KernelBuilder::new("divergent_load_loop");
    let lane = b.special(Special::LaneId);
    let addr = b.shl(lane, 3);
    let i = b.mov(0i64);
    let p = b.pred();
    b.while_loop(
        |b| {
            b.setp_to(p, CmpOp::Lt, i, lane);
            p
        },
        |b| {
            let v = b.ld_global(Width::W8, addr, 0);
            b.alu_to(AluOp::Add, v, v, i);
            b.st_global(Width::W8, addr, 0, v);
            b.alu_to(AluOp::Add, i, i, 1i64);
        },
    );
    b.exit();
    b.build().expect("valid kernel")
}

#[test]
fn a_new_warp_allocates_alike_for_one_lane_and_thirty_two() {
    let kernel = Arc::new(divergent_load_loop());
    let params: Arc<[u64]> = Arc::from([]);
    let allocations_for = |lanes: u32| {
        let (kernel, params, ctxs) = (Arc::clone(&kernel), Arc::clone(&params), ctxs(lanes));
        let before = common::allocations();
        let warp = WarpExec::new(kernel, params, ctxs, LocalMap::default());
        let allocated = common::allocations() - before;
        drop(warp);
        allocated
    };
    assert_eq!(allocations_for(1), allocations_for(32));
}

#[test]
fn steps_after_the_first_iteration_allocate_nothing() {
    let mut warp = WarpExec::new(
        Arc::new(divergent_load_loop()),
        Arc::from([]),
        ctxs(32),
        LocalMap::default(),
    );
    let mut mem = FlatMem(vec![0; 32]);
    // Up to the second load: lane 0 has left the loop, and every branch
    // shape the loop makes (fresh divergence, re-divergence at the head,
    // the back edge) has been taken once.
    let mut loads = 0;
    while loads < 2 {
        if let StepOutcome::Mem(op) = warp.step(&mut mem) {
            loads += u32::from(!op.is_store);
        }
    }
    let (before, mut steps) = (common::allocations(), 0u64);
    while !warp.is_finished() {
        warp.step(&mut mem);
        steps += 1;
    }
    assert_eq!(common::allocations() - before, 0, "{steps} steps allocated");
    assert!(steps > 200, "only {steps} steps measured");
    let expect = |l: u64| l * l.saturating_sub(1) / 2;
    assert!((0..32).all(|l| mem.0[l as usize] == expect(l)));
}
