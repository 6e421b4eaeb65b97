//! Every bounded container on the machine commits its storage on first use:
//! a new `BoundedQueue`, `DelayQueue`, `MshrTable` or `DramController`
//! allocates nothing, its first push (or restore) reserves the whole bound
//! in one step, and filling it to the bound, draining it and filling it
//! again costs no further allocation.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;

use gpu_mem::{
    AccessKind, AddressMap, DramConfig, DramController, DramSched, DramTiming, MemRequest,
    MshrConfig, MshrTable, PipelineSpace, RequestId,
};
use gpu_snapshot::{Decoder, Encoder};
use gpu_types::{Addr, BoundedQueue, Cycle, DelayQueue, SmId};

/// Allocations the calling thread makes inside `f`, and what `f` returns.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = common::allocations();
    let out = f();
    (common::allocations() - before, out)
}

const BOUND: usize = 16;

#[test]
fn a_bounded_queue_allocates_once_in_its_life() {
    let (n, mut q) = allocations(|| BoundedQueue::<u64>::new(BOUND));
    assert_eq!(n, 0, "construction");
    assert_eq!(q.capacity(), BOUND);
    for round in 0..3 {
        let (n, ()) = allocations(|| {
            for i in 0..BOUND as u64 {
                q.push(i).unwrap();
            }
            assert!(q.push(99).is_err());
            while q.pop().is_some() {}
        });
        assert_eq!(n, u64::from(round == 0), "fill and drain, round {round}");
    }
}

#[test]
fn a_delay_queue_allocates_once_in_its_life() {
    let (n, mut q) = allocations(|| DelayQueue::<u64>::new(BOUND, 3));
    assert_eq!(n, 0, "construction");
    for round in 0..3u64 {
        let (n, ()) = allocations(|| {
            let now = Cycle::new(round * 100);
            for i in 0..BOUND as u64 {
                q.push(now, i).unwrap();
            }
            assert!(q.is_full());
            while q.pop_ready(now + 3).is_some() {}
        });
        assert_eq!(n, u64::from(round == 0), "fill and drain, round {round}");
    }
}

#[test]
fn a_restored_delay_queue_allocates_once() {
    let mut q = DelayQueue::<u64>::new(BOUND, 3);
    let (n, ()) = allocations(|| {
        for i in 0..BOUND as u64 {
            q.push_with_ready_at(Cycle::new(i), i).unwrap();
        }
        while q.pop_ready(Cycle::new(BOUND as u64)).is_some() {}
        for i in 0..BOUND as u64 {
            q.push_with_ready_at(Cycle::new(i), i).unwrap();
        }
    });
    assert_eq!(n, 1);
}

fn mshr() -> MshrTable<u64> {
    MshrTable::new(MshrConfig {
        entries: BOUND,
        max_merged: 4,
    })
}

fn line(i: usize) -> Addr {
    Addr::new(0x1000 + 128 * i as u64)
}

#[test]
fn an_mshr_table_reserves_its_map_once() {
    let (n, mut m) = allocations(mshr);
    assert_eq!(n, 0, "construction");
    for round in 0..3 {
        let (n, ()) = allocations(|| {
            for i in 0..BOUND {
                assert!(m.allocate(line(i)));
                m.try_merge(line(i), i as u64).unwrap();
            }
            assert!(!m.can_allocate());
            for i in 0..BOUND {
                m.fill_with(line(i), drop);
            }
        });
        // The map once, each line slot's merge list once and the stack of
        // emptied lists once: refills reuse the emptied lists.
        let first = 2 + BOUND as u64;
        assert_eq!(n, if round == 0 { first } else { 0 }, "round {round}");
    }
}

#[test]
fn a_restored_mshr_table_reserves_its_map_once() {
    let mut full = mshr();
    for i in 0..BOUND {
        assert!(full.allocate(line(i)));
    }
    let mut e = Encoder::new();
    full.encode_state_with(&mut e, |w, e| e.u64(*w));
    let bytes = e.finish();

    let mut m = mshr();
    let (n, ()) = allocations(|| {
        let mut d = Decoder::open(&bytes).unwrap();
        m.restore_state_with(&mut d, |d| d.u64()).unwrap();
    });
    // Lines without merged waiters restore with empty lists: only the map
    // takes storage.
    assert_eq!(n, 1, "restore into a fresh table");
    assert_eq!(m.len(), BOUND);
    let (n, ()) = allocations(|| {
        let mut d = Decoder::open(&bytes).unwrap();
        m.restore_state_with(&mut d, |d| d.u64()).unwrap();
    });
    assert_eq!(n, 0, "restore into a table that has its storage");
}

fn controller() -> DramController {
    DramController::new(
        DramConfig {
            timing: DramTiming {
                t_rcd: 10,
                t_rp: 10,
                t_cl: 15,
                burst: 4,
            },
            queue_capacity: BOUND,
            sched: DramSched::FrFcfs,
        },
        AddressMap::new(1, 256, 4, 1024),
    )
}

fn request(i: usize) -> MemRequest {
    MemRequest::new(
        RequestId::new(i as u64),
        Addr::new(0x400 * i as u64),
        128,
        AccessKind::Load,
        PipelineSpace::Global,
        SmId::new(0),
        0,
        Cycle::ZERO,
    )
}

/// Ticks `c` until nothing is queued or in service, collecting completions
/// into `done`; returns the cycle after the last tick.
fn drain(c: &mut DramController, mut now: Cycle, done: &mut Vec<MemRequest>) -> Cycle {
    while c.queued() + c.in_service() > 0 {
        c.tick_with(now, |r| done.push(r));
        now += 1;
    }
    done.clear();
    now
}

#[test]
fn a_dram_queue_allocates_once_in_its_life() {
    let (n, mut c) = allocations(controller);
    assert_eq!(n, 1, "construction: the bank array, no queue");

    let mut done = Vec::with_capacity(BOUND);
    let (n, ()) = allocations(|| {
        for i in 0..BOUND {
            c.enqueue(request(i), Cycle::ZERO);
        }
    });
    assert!(!c.can_accept());
    assert_eq!(n, 1, "first fill");
    // The first drain grows the in-service list, which is not the queue.
    let now = drain(&mut c, Cycle::ZERO, &mut done);
    let (n, ()) = allocations(|| {
        for i in 0..BOUND {
            c.enqueue(request(i), now);
        }
        drain(&mut c, now, &mut done);
    });
    assert_eq!(n, 0, "refill and drain");
}

#[test]
fn a_restored_dram_queue_allocates_once() {
    let mut full = controller();
    for i in 0..BOUND {
        full.enqueue(request(i), Cycle::ZERO);
    }
    let mut e = Encoder::new();
    full.encode_state(&mut e);
    let bytes = e.finish();

    let mut c = controller();
    let (n, ()) = allocations(|| {
        let mut d = Decoder::open(&bytes).unwrap();
        c.restore_state(&mut d).unwrap();
    });
    assert_eq!(n, 1, "restore into a fresh controller");
    assert_eq!(c.queued(), BOUND);
    let (n, ()) = allocations(|| {
        let mut d = Decoder::open(&bytes).unwrap();
        c.restore_state(&mut d).unwrap();
    });
    assert_eq!(n, 0, "restore into a controller that has its storage");
}
