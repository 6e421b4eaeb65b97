//! Direct unit tests of the memory-partition pipeline: ROP delay, L2
//! hit/miss handling, MSHR merging, DRAM interaction and stamp placement —
//! driven request by request, without SMs or networks. The partition holds
//! handles into a request table; each test hands requests in through its
//! `Bench` and reads returned timelines out of it.

use gpu_mem::{AccessKind, MemRequest, PipelineSpace, RequestId, Stamp};
use gpu_sim::{GpuConfig, Partition, RequestTable, TraceConfig, Tracer};
use gpu_types::{Addr, Cycle, PartitionId, SmId};

fn config() -> GpuConfig {
    GpuConfig::fermi_gf100()
}

/// A disabled tracer for call sites that don't care about events.
fn no_trace() -> Tracer {
    Tracer::new(TraceConfig::default())
}

/// A partition and the request table its queues hold handles into.
struct Bench {
    part: Partition,
    reqs: RequestTable,
}

impl Bench {
    fn can_accept(&self) -> bool {
        self.part.can_accept()
    }

    fn accept(&mut self, req: MemRequest, now: Cycle) {
        let h = self.reqs.insert(req);
        self.part.accept(h, now, &mut self.reqs);
    }

    fn tick(&mut self, now: Cycle, tracer: &mut Tracer) {
        self.part.tick(now, &mut self.reqs, tracer);
    }

    /// The oldest response, out of the table.
    fn pop_return(&mut self) -> Option<MemRequest> {
        self.part.pop_return().map(|h| self.reqs.remove(h))
    }

    fn is_idle(&self) -> bool {
        self.part.is_idle()
    }

    fn stores_completed(&self) -> u64 {
        self.part.stores_completed()
    }

    fn dram_stats(&self) -> gpu_mem::DramStats {
        self.part.dram_stats()
    }

    fn l2_counts(&self) -> Option<(u64, u64)> {
        self.part.l2_counts()
    }
}

fn partition(cfg: &GpuConfig) -> Bench {
    // Single-partition map so partition-local == device addresses.
    let map = gpu_mem::AddressMap::new(1, cfg.partition_chunk, cfg.dram_banks, cfg.dram_row_bytes);
    Bench {
        part: Partition::new(PartitionId::new(0), cfg, map),
        reqs: RequestTable::new(),
    }
}

fn load(id: u64, addr: u64, now: Cycle) -> MemRequest {
    MemRequest::new(
        RequestId::new(id),
        Addr::new(addr),
        128,
        AccessKind::Load,
        PipelineSpace::Global,
        SmId::new(0),
        id,
        now,
    )
}

fn store(id: u64, addr: u64, now: Cycle) -> MemRequest {
    MemRequest::new(
        RequestId::new(id),
        Addr::new(addr),
        128,
        AccessKind::Store,
        PipelineSpace::Global,
        SmId::new(0),
        u64::MAX,
        now,
    )
}

/// Drives the partition until `want` responses have been produced.
fn drain(p: &mut Bench, mut now: Cycle, want: usize, limit: u64) -> (Vec<MemRequest>, Cycle) {
    let mut out = Vec::new();
    for _ in 0..limit {
        p.tick(now, &mut no_trace());
        while let Some(r) = p.pop_return() {
            out.push(r);
        }
        if out.len() >= want {
            return (out, now);
        }
        now.tick();
    }
    panic!("partition did not produce {want} responses within {limit} cycles");
}

#[test]
fn cold_load_goes_to_dram_with_full_stamp_chain() {
    let cfg = config();
    let mut p = partition(&cfg);
    let t0 = Cycle::new(100);
    assert!(p.can_accept());
    p.accept(load(1, 0x8000, t0), t0);
    let (done, _) = drain(&mut p, t0, 1, 10_000);
    let tl = &done[0].timeline;
    // Every partition-side stamp must be present and ordered.
    let rop = tl.get(Stamp::RopEnter).unwrap();
    let l2q = tl.get(Stamp::L2QueueEnter).unwrap();
    let dq = tl.get(Stamp::DramQueueEnter).unwrap();
    let ds = tl.get(Stamp::DramScheduled).unwrap();
    let dd = tl.get(Stamp::DramDone).unwrap();
    assert_eq!(rop, t0);
    assert_eq!(l2q.since(rop), cfg.rop_latency, "ROP is a fixed pipeline");
    assert!(dq >= l2q && ds >= dq && dd > ds);
    // Unloaded: conflict-free closed-row access.
    assert_eq!(
        dd.since(ds),
        cfg.dram.timing.row_closed() + cfg.dram.timing.burst
    );
    assert_eq!(p.dram_stats().serviced, 1);
    assert_eq!(p.l2_counts().unwrap(), (0, 1));
}

#[test]
fn second_load_hits_l2_and_skips_dram() {
    let cfg = config();
    let mut p = partition(&cfg);
    let t0 = Cycle::new(0);
    p.accept(load(1, 0x8000, t0), t0);
    let (_, t1) = drain(&mut p, t0, 1, 10_000);
    let t2 = t1 + 10;
    p.accept(load(2, 0x8000, t2), t2);
    let (done, _) = drain(&mut p, t2, 1, 10_000);
    let tl = &done[0].timeline;
    assert_eq!(
        tl.get(Stamp::DramQueueEnter),
        None,
        "L2 hit must not touch DRAM"
    );
    assert_eq!(p.dram_stats().serviced, 1);
    assert_eq!(p.l2_counts().unwrap().0, 1, "one L2 hit");
    // Hit latency: l2 queue entry -> response exactly hit_latency later
    // (plus the single-cycle queue hop).
    let l2q = tl.get(Stamp::L2QueueEnter).unwrap();
    assert!(l2q.get() > 0);
    // Returned is an SM-side stamp; a partition-only drain never sets it.
    assert_eq!(tl.get(Stamp::Returned), None);
}

#[test]
fn concurrent_same_line_loads_merge_at_l2_mshr() {
    let cfg = config();
    let mut p = partition(&cfg);
    let t0 = Cycle::new(0);
    p.accept(load(1, 0x4000, t0), t0);
    p.accept(load(2, 0x4000, t0), t0);
    p.accept(load(3, 0x4040, t0), t0); // same line, different offset
    let (done, _) = drain(&mut p, t0, 3, 20_000);
    assert_eq!(done.len(), 3);
    assert_eq!(
        p.dram_stats().serviced,
        1,
        "one DRAM fetch serves all three requests"
    );
    // Merged waiters carry DramScheduled/DramDone stamps from the fill.
    for r in &done {
        assert!(r.timeline.get(Stamp::DramDone).is_some());
    }
}

#[test]
fn stores_write_through_and_are_counted() {
    let cfg = config();
    let mut p = partition(&cfg);
    let t0 = Cycle::new(0);
    // Warm the line, then store to it: the line must be invalidated and the
    // store must reach DRAM.
    p.accept(load(1, 0x2000, t0), t0);
    let (_, t1) = drain(&mut p, t0, 1, 10_000);
    let before = p.stores_completed();
    let t2 = t1 + 1;
    p.accept(store(2, 0x2000, t2), t2);
    // Stores produce no response; run until the store retires.
    let mut now = t2;
    for _ in 0..10_000 {
        p.tick(now, &mut no_trace());
        if p.stores_completed() > before {
            break;
        }
        now.tick();
    }
    assert_eq!(p.stores_completed(), before + 1);
    // The invalidated line now misses again.
    let t3 = now + 1;
    p.accept(load(3, 0x2000, t3), t3);
    let (done, _) = drain(&mut p, t3, 1, 10_000);
    assert!(
        done[0].timeline.get(Stamp::DramQueueEnter).is_some(),
        "write-evict store must have invalidated the L2 line"
    );
}

#[test]
fn rop_queue_backpressures_accept() {
    let cfg = config();
    let mut p = partition(&cfg);
    let t0 = Cycle::new(0);
    for i in 0..cfg.rop_queue as u64 {
        assert!(p.can_accept(), "slot {i} available");
        p.accept(load(i, i * 128, t0), t0);
    }
    assert!(!p.can_accept(), "ROP full must back-pressure the network");
    // After a tick at rop_latency, one entry moves into the L2 queue.
    let later = t0 + cfg.rop_latency;
    p.tick(later, &mut no_trace());
    assert!(p.can_accept());
}

#[test]
fn cacheless_partition_routes_straight_to_dram() {
    let mut cfg = config();
    cfg.l2 = None;
    let mut p = partition(&cfg);
    let t0 = Cycle::new(0);
    p.accept(load(1, 0x1000, t0), t0);
    let (done, _) = drain(&mut p, t0, 1, 10_000);
    let tl = &done[0].timeline;
    assert!(tl.get(Stamp::DramQueueEnter).is_some());
    assert!(p.l2_counts().is_none());
    // Repeat access also goes to DRAM (nothing caches it).
    let t2 = Cycle::new(5000);
    p.accept(load(2, 0x1000, t2), t2);
    drain(&mut p, t2, 1, 10_000);
    assert_eq!(p.dram_stats().serviced, 2);
}

#[test]
fn is_idle_reflects_in_flight_state() {
    let cfg = config();
    let mut p = partition(&cfg);
    assert!(p.is_idle());
    let t0 = Cycle::new(0);
    p.accept(load(1, 0, t0), t0);
    assert!(!p.is_idle());
    drain(&mut p, t0, 1, 10_000);
    assert!(p.is_idle(), "drained partition must be idle");
}

mod write_back {
    use super::*;
    use gpu_sim::WritePolicy;

    fn wb_partition() -> (GpuConfig, Bench) {
        let mut cfg = config();
        cfg.l2.as_mut().unwrap().write_policy = WritePolicy::WriteBack;
        let p = partition(&cfg);
        (cfg, p)
    }

    #[test]
    fn store_hit_retires_at_l2_without_dram() {
        let (_, mut p) = wb_partition();
        let t0 = Cycle::new(0);
        // Warm the line with a load, then store to it.
        p.accept(load(1, 0x6000, t0), t0);
        let (_, t1) = drain(&mut p, t0, 1, 10_000);
        let dram_before = p.dram_stats().serviced;
        let t2 = t1 + 1;
        p.accept(store(2, 0x6000, t2), t2);
        let mut now = t2;
        for _ in 0..10_000 {
            p.tick(now, &mut no_trace());
            if p.stores_completed() > 0 {
                break;
            }
            now.tick();
        }
        assert_eq!(p.stores_completed(), 1, "store retires at the L2");
        assert_eq!(
            p.dram_stats().serviced,
            dram_before,
            "write-back store hit must not touch DRAM"
        );
        // The dirtied line still serves loads.
        let t3 = now + 1;
        p.accept(load(3, 0x6000, t3), t3);
        let (done, _) = drain(&mut p, t3, 1, 10_000);
        assert_eq!(done[0].timeline.get(Stamp::DramQueueEnter), None);
    }

    #[test]
    fn store_miss_write_allocates() {
        let (_, mut p) = wb_partition();
        let t0 = Cycle::new(0);
        p.accept(store(1, 0x7000, t0), t0);
        let mut now = t0;
        for _ in 0..10_000 {
            p.tick(now, &mut no_trace());
            if p.stores_completed() > 0 {
                break;
            }
            now.tick();
        }
        assert_eq!(p.stores_completed(), 1);
        assert_eq!(p.dram_stats().serviced, 0, "no fetch-on-write, no DRAM yet");
        // A subsequent load of the written line hits the allocated entry.
        let t1 = now + 1;
        p.accept(load(2, 0x7000, t1), t1);
        let (done, _) = drain(&mut p, t1, 1, 10_000);
        assert_eq!(done[0].timeline.get(Stamp::DramQueueEnter), None, "L2 hit");
    }

    #[test]
    fn dirty_eviction_writes_back_to_dram() {
        // Fill one set's ways with dirty lines, then push more lines through
        // it: evicted dirty victims must reach DRAM as writes while the
        // partition stays consistent and drains to idle.
        let (cfg, mut p) = wb_partition();
        let ways = cfg.l2.as_ref().unwrap().cache.ways as u64;
        let sets = cfg.l2.as_ref().unwrap().cache.sets as u64;
        let set_stride = sets * cfg.line_size; // same set, new tag
        let mut now = Cycle::new(0);
        // `ways + 2` dirty stores to the same set force >= 2 dirty evictions.
        for k in 0..ways + 2 {
            p.accept(store(k, k * set_stride, now), now);
            // Let each store land before the next (queue capacity is small).
            for _ in 0..200 {
                p.tick(now, &mut no_trace());
                now.tick();
            }
        }
        // Drain until fully idle.
        for _ in 0..100_000 {
            p.tick(now, &mut no_trace());
            while p.pop_return().is_some() {}
            if p.is_idle() {
                break;
            }
            now.tick();
        }
        assert!(p.is_idle(), "write-back partition must drain");
        assert_eq!(p.stores_completed(), ways + 2, "all stores retired at L2");
        assert!(
            p.dram_stats().serviced >= 2,
            "dirty evictions must reach DRAM: {:?}",
            p.dram_stats()
        );
    }
}
