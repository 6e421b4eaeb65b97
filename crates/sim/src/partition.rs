//! Memory-partition timing model: ROP pipeline → L2 slice(s) → DRAM channel.
//!
//! Each partition owns the stages behind the interconnect for its slice of
//! the address space. The stamps recorded here delimit the paper's
//! `ICNTtoROP`, `ROPtoL2Q`, `L2QtoDRAMQ`, `DRAM(QtoSch)` and `DRAM(SchToA)`
//! latency components and the L2's part of `Fetch2SM` (`L2Served`). A
//! store or writeback ends here: its timeline goes to the tracer.
//!
//! The partition's queues hold handles into the GPU's [`RequestTable`];
//! the DRAM channel takes requests by value, so the access stage lends a
//! record out of the table when it enqueues it and the completion stage
//! takes it back.
//!
//! Modern-generation descriptions hash-interleave the L2 across several
//! independent slices behind the partition's shared ROP and DRAM channel
//! (see [`gpu_arch::slice_of`]); each slice owns its own input queue, tag
//! array, MSHR table and hit pipe, and the slices tick in index order so
//! multi-slice runs stay deterministic. A single-slice partition is
//! bit-identical to the historical monolithic model.

use std::collections::VecDeque;

use gpu_arch::{slice_of, LevelDesc, LevelKind};
use gpu_mem::{
    AccessKind, AddressMap, Cache, DramController, DramEventKind, MemRequest, MshrTable, RequestId,
    Stamp,
};
use gpu_snapshot::{Decoder, Encoder, SnapshotError};
use gpu_trace::{EventKind, TraceEvent, TraceSite, Tracer};
use gpu_types::{BoundedQueue, Cycle, DelayQueue, PartitionId};

use crate::codec;
use crate::config::{GpuConfig, WritePolicy};
use crate::requests::{ReqHandle, RequestTable};
use crate::sanitizer::{Sanitizer, Site, Violation, ROP_QUEUE};

/// Token marking internally-generated dirty-eviction writebacks (they are
/// not among the requests the GPU counts in flight).
const EVICTION_TOKEN: u64 = u64::MAX - 1;

/// Slots in each L2 slice's hit pipe: the most L2 hits one slice holds in
/// flight for their `hit_latency` at once. The access stage pushes at most
/// one hit a cycle and does not check for room: a hit that finds all the
/// slots taken panics.
const L2_HIT_PIPE_SLOTS: usize = 64;

/// One independent L2 bank: input queue, tag array, MSHRs and hit pipe.
/// A classic monolithic L2 is exactly one of these.
#[derive(Debug)]
struct L2Slice {
    queue: BoundedQueue<ReqHandle>,
    cache: Option<Cache>,
    mshr: MshrTable<ReqHandle>,
    hit_pipe: DelayQueue<ReqHandle>,
}

/// Where the access stage sends the head of an L2 slice's input queue
/// ([`Partition::l2_route`]), beside the SM's `L1Route`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Route {
    /// Nothing moves: the queue is empty, or its head waits on the DRAM
    /// queue, the MSHR table, its line's merge list or, for a write-back
    /// store or a primary miss, a way of its set that an in-flight fill
    /// holds. Only the DRAM channel's next schedule or completion clears a
    /// wait.
    Wait,
    /// No L2, or a write-through store (which evicts its line): on to the
    /// DRAM queue.
    Dram,
    /// A write-back store: marks its line dirty, write-allocating it on a
    /// miss, and retires.
    StoreBack,
    /// An L2 hit: into the hit pipe.
    Hit,
    /// A miss on a line already in flight: parks on its MSHR entry.
    Merge,
    /// A primary miss with an MSHR entry, a way and a DRAM slot to go to:
    /// reserves the way.
    Miss,
}

/// One memory partition (ROP + L2 slices + DRAM channel).
#[derive(Debug)]
pub struct Partition {
    id: PartitionId,
    line_size: u64,
    /// Machine-wide memory-transaction granule (sector size when sectored,
    /// else the line size); cache lines and MSHR entries are keyed by it.
    granule: u64,
    /// The partition-side cache-level descriptor (cached at construction;
    /// structural, not serialized). Audit labels derive from its kind.
    l2_desc: LevelDesc,
    write_policy: WritePolicy,
    next_eviction_id: u64,
    rop: DelayQueue<ReqHandle>,
    slices: Vec<L2Slice>,
    dram: DramController,
    /// This cycle's DRAM completions, back in the table (scratch, empty
    /// between ticks; kept for its capacity).
    dram_done: Vec<ReqHandle>,
    returns: VecDeque<ReqHandle>,
    stores_completed_total: u64,
    evictions_in_flight: u64,
}

impl Partition {
    /// Creates a partition per the configuration.
    pub fn new(id: PartitionId, cfg: &GpuConfig, map: AddressMap) -> Self {
        let l2_desc = cfg.level_desc(LevelKind::L2);
        let slices = (0..l2_desc.slices.max(1))
            .map(|_| {
                let (cache, hit_latency) = match l2_desc.geom {
                    Some(g) => (
                        Some(Cache::with_sectors(g.cache, g.sector_bytes)),
                        g.hit_latency,
                    ),
                    None => (None, 0),
                };
                L2Slice {
                    queue: BoundedQueue::new(l2_desc.queue),
                    cache,
                    mshr: MshrTable::new(l2_desc.mshr_config()),
                    hit_pipe: DelayQueue::new(L2_HIT_PIPE_SLOTS, hit_latency),
                }
            })
            .collect();
        Partition {
            id,
            line_size: cfg.line_size,
            granule: cfg.transaction_granule(),
            l2_desc,
            write_policy: l2_desc.write_policy,
            next_eviction_id: 0,
            rop: DelayQueue::new(cfg.rop_queue, cfg.rop_latency),
            slices,
            dram: DramController::new(cfg.dram, map),
            dram_done: Vec::new(),
            returns: VecDeque::new(),
            stores_completed_total: 0,
            evictions_in_flight: 0,
        }
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The slice serving `addr` (always 0 on a single-slice partition).
    fn slice_index(&self, addr: gpu_types::Addr) -> usize {
        slice_of(addr.get(), self.line_size, self.slices.len())
    }

    /// Returns `true` if the ROP pipeline can accept another request from
    /// the interconnect.
    pub fn can_accept(&self) -> bool {
        !self.rop.is_full()
    }

    /// Accepts a request ejected from the request network.
    ///
    /// # Panics
    ///
    /// Panics if the ROP queue is full; check [`Partition::can_accept`].
    pub fn accept(&mut self, h: ReqHandle, now: Cycle, reqs: &mut RequestTable) {
        reqs[h].timeline.record(Stamp::RopEnter, now);
        self.rop
            .push(now, h)
            .unwrap_or_else(|_| panic!("ROP overflow; can_accept not checked"));
    }

    /// Enables or disables the DRAM controller's command event log (drained
    /// into the tracer each tick).
    pub fn set_event_log(&mut self, on: bool) {
        self.dram.set_event_log(on);
    }

    // ---- counter gauges --------------------------------------------------

    /// Requests in the ROP pipeline (counter gauge).
    pub fn rop_depth(&self) -> usize {
        self.rop.len()
    }

    /// Requests in the L2 input queues, summed over slices (counter gauge).
    pub fn l2_queue_depth(&self) -> usize {
        self.slices.iter().map(|s| s.queue.len()).sum()
    }

    /// Occupied L2 MSHR entries, summed over slices (counter gauge).
    pub fn l2_mshr_occupancy(&self) -> usize {
        self.slices.iter().map(|s| s.mshr.len()).sum()
    }

    /// Requests waiting in the DRAM controller queue (counter gauge).
    pub fn dram_queue_depth(&self) -> usize {
        self.dram.queued()
    }

    /// L2 hit/miss counts summed over slices, if an L2 exists.
    pub fn l2_counts(&self) -> Option<(u64, u64)> {
        if self.slices.iter().all(|s| s.cache.is_none()) {
            return None;
        }
        let mut hits = 0;
        let mut misses = 0;
        for c in self.slices.iter().filter_map(|s| s.cache.as_ref()) {
            hits += c.hits();
            misses += c.misses();
        }
        Some((hits, misses))
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> gpu_mem::DramStats {
        self.dram.stats()
    }

    /// Total store requests retired at this partition.
    pub fn stores_completed(&self) -> u64 {
        self.stores_completed_total
    }

    /// Oldest response waiting to enter the reply network.
    pub fn peek_return(&self) -> Option<ReqHandle> {
        self.returns.front().copied()
    }

    /// Removes the oldest response for reply-network injection.
    pub fn pop_return(&mut self) -> Option<ReqHandle> {
        self.returns.pop_front()
    }

    /// Returns `true` when nothing is queued, in cache flight, in DRAM, or
    /// awaiting return.
    pub fn is_idle(&self) -> bool {
        self.rop.is_empty()
            && self.slices.iter().all(|s| {
                s.queue.is_empty()
                    && s.cache.as_ref().is_none_or(|c| c.pending_writebacks() == 0)
                    && s.hit_pipe.is_empty()
                    && s.mshr.is_empty()
            })
            && self.dram.is_idle()
            && self.returns.is_empty()
    }

    /// When the request at the head of the ROP pipe is ready to leave it
    /// (`None` with the pipe empty).
    pub fn rop_head_ready(&self) -> Option<Cycle> {
        self.rop.next_ready()
    }

    /// The earliest cycle at which ticking this partition could change its
    /// state, given that nothing arrives from the request network before
    /// then (the run loop holds the arrivals), that the partition is awake
    /// (a sleeper's answer is the wake cycle the run loop stored), and
    /// leaving out its returns: they leave when the reply network takes
    /// them, which the run loop's reply stage decides. `now` while an L2
    /// slice's input-queue head has a route other than [`L2Route::Wait`] or
    /// a dirty victim awaits a DRAM queue slot it would get; otherwise the
    /// ROP and hit-pipe heads and the DRAM channel each store the cycle
    /// they next act. A waiting slice head, and a ready ROP head behind a
    /// full input queue, wait for the DRAM channel: only its next schedule
    /// frees a queue slot and only its next completion fills a line and
    /// frees an MSHR entry, a merge slot or a reserved way. [`Cycle::MAX`]
    /// when idle.
    pub fn next_event(&self, now: Cycle, reqs: &RequestTable) -> Cycle {
        let drains = |s: &L2Slice| s.cache.as_ref().is_some_and(|c| c.pending_writebacks() > 0);
        if (self.dram.can_accept() && self.slices.iter().any(drains))
            || (0..self.slices.len()).any(|i| self.l2_route(i, reqs) != L2Route::Wait)
        {
            return now;
        }
        let rop = self.rop.entries().next().and_then(|(at, &head)| {
            let blocked = at <= now
                && self.slices[self.slice_index(reqs[head].addr)]
                    .queue
                    .is_full();
            (!blocked).then_some(at)
        });
        let pipes = self
            .slices
            .iter()
            .filter_map(|s| s.hit_pipe.next_ready())
            .chain(rop)
            .min()
            .map_or(Cycle::MAX, |at| at.max(now));
        if pipes <= now {
            return now;
        }
        pipes.min(self.dram.next_event(now))
    }

    /// Where the access stage sends slice `idx`'s input-queue head in the
    /// partition's state now. Pure: [`Partition::tick_l2_slice`] acts on it,
    /// and [`Partition::next_event`] asks it whether the head waits.
    fn l2_route(&self, idx: usize, reqs: &RequestTable) -> L2Route {
        let slice = &self.slices[idx];
        let Some(&head) = slice.queue.front() else {
            return L2Route::Wait;
        };
        let head = &reqs[head];
        // MSHR entries and cache lines are keyed at the transaction granule
        // (the sector on sectored machines, else the line); the coalescer
        // always sends aligned transactions, but align defensively.
        let addr = head.addr.align_down(self.granule);
        let route = match &slice.cache {
            None => L2Route::Dram,
            Some(l2) if head.kind == AccessKind::Store => match self.write_policy {
                WritePolicy::WriteThrough => L2Route::Dram,
                WritePolicy::WriteBack if l2.has_way(addr) => L2Route::StoreBack,
                WritePolicy::WriteBack => L2Route::Wait,
            },
            Some(l2) if l2.probe(addr) => L2Route::Hit,
            Some(_) if slice.mshr.can_merge(addr) => L2Route::Merge,
            Some(l2)
                if slice.mshr.is_pending(addr)
                    || !slice.mshr.can_allocate()
                    || !l2.has_way(addr) =>
            {
                L2Route::Wait
            }
            Some(_) => L2Route::Miss,
        };
        // What goes on to the DRAM queue waits for a slot there.
        if matches!(route, L2Route::Dram | L2Route::Miss) && !self.dram.can_accept() {
            L2Route::Wait
        } else {
            route
        }
    }

    // ---- sanitizer hooks -------------------------------------------------

    /// SM-originated memory requests currently inside this partition: ROP
    /// pipe, L2 input queues, hit pipes, MSHR merge lists, DRAM controller
    /// and the return queue. Internally-generated eviction writebacks share
    /// the DRAM queue but are not among the requests the GPU counts in
    /// flight, so they are subtracted out.
    pub fn in_flight_requests(&self) -> u64 {
        let sliced: usize = self
            .slices
            .iter()
            .map(|s| s.queue.len() + s.hit_pipe.len() + s.mshr.waiters())
            .sum();
        (self.rop.len() + sliced + self.returns.len()) as u64 + self.dram_held()
    }

    /// SM-originated requests the DRAM channel holds, lent out of the
    /// request table: its queue and its accesses in service, less the
    /// eviction writebacks among them.
    pub(crate) fn dram_held(&self) -> u64 {
        (self.dram.queued() + self.dram.in_service()) as u64 - self.evictions_in_flight
    }

    /// Whether any of the partition's structures holds `h`. A debug check:
    /// a lent record's handle must be held nowhere.
    fn holds(&self, h: ReqHandle) -> bool {
        self.rop.entries().any(|(_, &x)| x == h)
            || self.slices.iter().any(|s| {
                s.queue.iter().any(|&x| x == h)
                    || s.hit_pipe.entries().any(|(_, &x)| x == h)
                    || s.mshr.iter_waiters().any(|&x| x == h)
            })
            || self.returns.contains(&h)
            || self.dram_done.contains(&h)
    }

    /// Lends `h`'s record to the DRAM channel: it enqueues the request by
    /// value, and the handle dies with the loan.
    fn enqueue_dram(&mut self, h: ReqHandle, now: Cycle, reqs: &mut RequestTable) {
        debug_assert!(!self.holds(h), "a lent request's handle is still held");
        self.dram.enqueue(reqs.lend(h), now);
    }

    /// Per-cycle structural audit: queue occupancies against their
    /// capacities, MSHR occupancy against its configuration. A single-slice
    /// partition reports under the legacy level labels; slices of a
    /// multi-slice L2 report under their own static labels.
    pub fn audit(&self, san: &mut Sanitizer) {
        let site = Site::Partition(self.id.index());
        san.check_queue(site, ROP_QUEUE, self.rop.len(), self.rop.capacity());
        let sliced = self.slices.len() > 1;
        for (i, slice) in self.slices.iter().enumerate() {
            let (queue_label, hit_label) = if sliced {
                (
                    self.l2_desc.kind.sliced_queue_label(i),
                    self.l2_desc.kind.sliced_hit_pipe_label(i),
                )
            } else {
                (
                    self.l2_desc.kind.queue_label(),
                    self.l2_desc.kind.hit_pipe_label(),
                )
            };
            san.check_queue(site, queue_label, slice.queue.len(), slice.queue.capacity());
            san.check_queue(
                site,
                hit_label,
                slice.hit_pipe.len(),
                slice.hit_pipe.capacity(),
            );
            san.check_mshr_occupancy(
                site,
                slice.mshr.len(),
                slice
                    .mshr
                    .longest_over(slice.mshr.config().max_merged)
                    .unwrap_or(0),
                slice.mshr.config(),
            );
        }
    }

    /// End-of-run audit: a drained partition may hold no MSHR entries. The
    /// idle check already covers this (a leak here hangs the run as a
    /// timeout), but on timeout the audit names the leaked lines.
    pub fn audit_drained(&self, san: &mut Sanitizer) {
        for slice in &self.slices {
            if !slice.mshr.is_empty() {
                san.record(Violation::MshrLeak {
                    site: Site::Partition(self.id.index()),
                    lines: slice.mshr.pending_lines(),
                });
            }
        }
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the partition's complete dynamic state: the ROP pipe with
    /// absolute ready times, then per slice (in index order) the input
    /// queue, cache arrays, MSHR table and hit pipe, then the DRAM
    /// controller (banks, scheduler queue, stats) and the return queue.
    /// Structural configuration is *not* serialized — the GPU checkpoint
    /// stores the full config once and rebuilds each partition from it
    /// before restoring.
    pub fn encode_state(&self, e: &mut Encoder, reqs: &RequestTable) {
        e.u64(self.next_eviction_id);
        codec::encode_req_queue(e, &self.rop, reqs);
        for slice in &self.slices {
            codec::encode_req_fifo(e, &slice.queue, reqs);
            match &slice.cache {
                None => e.bool(false),
                Some(c) => {
                    e.bool(true);
                    c.encode_state(e);
                }
            }
            slice
                .mshr
                .encode_state_with(e, |&h, e| reqs[h].encode_state(e));
            codec::encode_req_queue(e, &slice.hit_pipe, reqs);
        }
        self.dram.encode_state(e);
        e.usize(self.returns.len());
        for &h in &self.returns {
            reqs[h].encode_state(e);
        }
        e.u64(self.stores_completed_total);
        // The format's count of stores retired mid-tick: between ticks,
        // where every snapshot is taken, none.
        e.u64(0);
        e.u64(self.evictions_in_flight);
    }

    /// Overwrites this partition's dynamic state with a decoded checkpoint,
    /// storing each decoded request in `reqs` (a fresh partition's: the
    /// handles it held before are dropped, not freed). The DRAM channel
    /// decodes its own requests: the caller counts them as lent.
    ///
    /// # Errors
    ///
    /// Rejects structural mismatches with this partition's configuration
    /// (queue capacities, L2 presence, cache geometry), a store count
    /// taken mid-tick, more eviction writebacks than the DRAM channel
    /// holds, and propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut Decoder,
        reqs: &mut RequestTable,
    ) -> Result<(), SnapshotError> {
        use SnapshotError::InvalidValue;
        self.next_eviction_id = d.u64()?;
        codec::restore_req_queue(
            &mut self.rop,
            d,
            reqs,
            "ROP pipe occupancy exceeds capacity",
        )?;
        for slice in &mut self.slices {
            codec::restore_req_fifo(
                &mut slice.queue,
                d,
                reqs,
                "L2 input queue occupancy exceeds capacity",
            )?;
            match (d.bool()?, &mut slice.cache) {
                (true, Some(c)) => c.restore_state(d)?,
                (false, None) => {}
                _ => return Err(InvalidValue("L2 presence mismatch with configuration")),
            }
            slice
                .mshr
                .restore_state_with(d, |d| codec::decode_req(d, reqs))?;
            codec::restore_req_queue(
                &mut slice.hit_pipe,
                d,
                reqs,
                "L2 hit pipe occupancy exceeds capacity",
            )?;
        }
        self.dram.restore_state(d)?;
        self.returns.clear();
        for _ in 0..d.usize()? {
            self.returns.push_back(codec::decode_req(d, reqs)?);
        }
        self.stores_completed_total = d.u64()?;
        if d.u64()? != 0 {
            return Err(InvalidValue("partition store count taken mid-tick"));
        }
        self.evictions_in_flight = d.u64()?;
        if self.evictions_in_flight > (self.dram.queued() + self.dram.in_service()) as u64 {
            return Err(InvalidValue(
                "more eviction writebacks than the DRAM channel holds",
            ));
        }
        Ok(())
    }

    /// Advances the partition one cycle. Returns the cycle until which
    /// further ticks are the identity, unless a request is accepted first:
    /// the one place a partition's wake cycle is planned (the run loop
    /// stores it).
    pub fn tick(&mut self, now: Cycle, reqs: &mut RequestTable, tracer: &mut Tracer) -> Cycle {
        let site = TraceSite::Partition(self.id.get());

        // 0. Dirty victims of the (write-back) L2 become DRAM writes,
        //    drained slice by slice in index order.
        for i in 0..self.slices.len() {
            let Some(l2) = self.slices[i].cache.as_mut() else {
                continue;
            };
            while self.dram.can_accept() {
                let Some(line) = l2.pop_writeback() else {
                    break;
                };
                let id = RequestId::new((u64::from(self.id.get()) << 32) | self.next_eviction_id);
                self.next_eviction_id += 1;
                let wb = MemRequest::new(
                    id,
                    line,
                    self.line_size as u32,
                    AccessKind::Store,
                    gpu_mem::PipelineSpace::Global,
                    gpu_types::SmId::new(0),
                    EVICTION_TOKEN,
                    now,
                );
                self.dram.enqueue(wb, now);
                self.evictions_in_flight += 1;
            }
        }

        // 1. DRAM completions: stores retire; loads fill their slice's L2,
        //    wake MSHR waiters, and join the return flow. Each completion
        //    comes back into the table; an eviction writeback, never lent,
        //    enters it here to leave it again in the same order.
        let mut dram_done = std::mem::take(&mut self.dram_done);
        self.dram.tick_with(now, |req| {
            let h = if req.token == EVICTION_TOKEN {
                reqs.insert(req)
            } else {
                reqs.reclaim(req)
            };
            dram_done.push(h);
        });
        if tracer.enabled() {
            for e in self.dram.drain_events() {
                let kind = match e.kind {
                    DramEventKind::Activate => EventKind::RowActivate {
                        bank: e.bank,
                        row: e.row,
                    },
                    DramEventKind::Precharge => EventKind::RowPrecharge {
                        bank: e.bank,
                        row: e.row,
                    },
                };
                tracer.record(TraceEvent {
                    cycle: e.at.get(),
                    site,
                    kind,
                });
            }
        }
        for h in dram_done.drain(..) {
            if reqs[h].kind == AccessKind::Store {
                let req = reqs.remove(h);
                if req.token != EVICTION_TOKEN {
                    self.stores_completed_total += 1;
                } else {
                    self.evictions_in_flight -= 1;
                }
                tracer.retire_write(self.id.get(), req.timeline);
                continue;
            }
            let addr = reqs[h].addr;
            let idx = self.slice_index(addr);
            let slice = &mut self.slices[idx];
            if let Some(l2) = slice.cache.as_mut() {
                let line = addr.align_down(self.granule);
                l2.fill(line);
                let returns = &mut self.returns;
                slice.mshr.fill_with(line, |w| {
                    // Merged waiters "ride along" with the primary fetch;
                    // their DRAM wait is attributed to scheduling time.
                    let timeline = &mut reqs[w].timeline;
                    timeline.record(Stamp::DramScheduled, now);
                    timeline.record(Stamp::DramDone, now);
                    returns.push_back(w);
                });
            }
            self.returns.push_back(h);
        }
        self.dram_done = dram_done;

        // 2. Hit pipes: one data return per slice per cycle (a multi-slice
        //    L2 has genuinely more return bandwidth).
        for i in 0..self.slices.len() {
            if let Some(h) = self.slices[i].hit_pipe.pop_ready(now) {
                reqs[h].timeline.record(Stamp::L2Served, now);
                self.returns.push_back(h);
            }
        }

        // 3. L2 access stage: one request per slice per cycle from each
        //    input queue, in slice index order (DRAM acceptance is
        //    arbitrated by that order, keeping runs deterministic).
        for i in 0..self.slices.len() {
            self.tick_l2_slice(i, now, reqs, tracer);
        }

        // 4. ROP pipeline exit into the serving slice's input queue.
        if let Some(&head) = self.rop.front_ready(now) {
            let idx = self.slice_index(reqs[head].addr);
            if !self.slices[idx].queue.is_full() {
                let h = self.rop.pop_ready(now).expect("front was ready");
                reqs[h].timeline.record(Stamp::L2QueueEnter, now);
                self.slices[idx].queue.push(h).expect("space checked");
            }
        }

        // Sleep until the next cycle a tick can act. The returns are the
        // reply stage's to plan; the ejection stage after it only `accept`s
        // a request, which lowers the wake cycle.
        self.next_event(now + 1, reqs)
    }

    /// The L2 access stage of slice `idx`: acts on its input-queue head
    /// as [`Partition::l2_route`] routes it.
    fn tick_l2_slice(
        &mut self,
        idx: usize,
        now: Cycle,
        reqs: &mut RequestTable,
        tracer: &mut Tracer,
    ) {
        let route = self.l2_route(idx, reqs);
        if route == L2Route::Wait {
            return;
        }
        let slice = &mut self.slices[idx];
        let head = *slice.queue.front().expect("a routed head");
        let addr = reqs[head].addr.align_down(self.granule);
        let site = TraceSite::Partition(self.id.get());
        match route {
            L2Route::Wait => unreachable!("a waiting head stays in the queue"),
            L2Route::Dram => {
                // Write-through, no-allocate, write-evict; a load reaches
                // here only with no L2 (Tesla-style).
                if let Some(l2) = slice.cache.as_mut() {
                    l2.store_invalidate(addr);
                }
                let h = slice.queue.pop().expect("head exists");
                self.enqueue_dram(h, now, reqs);
            }
            L2Route::StoreBack => {
                // Write-allocate (tag-only, no fetch): the store completes
                // here; dirty victims join the writeback queue drained in
                // `tick`.
                let l2 = slice.cache.as_mut().expect("routed by the L2");
                if !l2.store_mark_dirty(addr) {
                    assert!(l2.allocate_dirty(addr), "a way was checked");
                }
                let mut req = reqs.remove(slice.queue.pop().expect("head exists"));
                req.timeline.record(Stamp::L2Served, now);
                tracer.retire_write(self.id.get(), req.timeline);
                self.stores_completed_total += 1;
            }
            L2Route::Hit => {
                let l2 = slice.cache.as_mut().expect("routed by the L2");
                let h = slice.queue.pop().expect("head exists");
                let _ = l2.load(addr); // records the hit
                slice
                    .hit_pipe
                    .push(now, h)
                    .expect("hit pipe sized for the input queue");
            }
            L2Route::Merge => {
                let l2 = slice.cache.as_mut().expect("routed by the L2");
                let h = slice.queue.pop().expect("head exists");
                let _ = l2.load(addr); // records the miss
                reqs[h].timeline.record(Stamp::DramQueueEnter, now);
                slice.mshr.try_merge(addr, h).expect("merge space checked");
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: EventKind::MshrMerge { line: addr.get() },
                    });
                }
            }
            L2Route::Miss => {
                let l2 = slice.cache.as_mut().expect("routed by the L2");
                assert!(l2.reserve(addr), "a way was checked");
                let h = slice.queue.pop().expect("head exists");
                let _ = l2.load(addr); // records the miss
                assert!(slice.mshr.allocate(addr), "capacity checked");
                self.enqueue_dram(h, now, reqs);
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: EventKind::MshrAllocate { line: addr.get() },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::PipelineSpace;
    use gpu_trace::TraceConfig;
    use gpu_types::{Addr, SmId};

    /// A gf100 partition whose L2 slices are one two-way set behind
    /// `entries` MSHR entries and a two-slot DRAM queue; `sectored` makes
    /// it two slices of 32-byte sectors.
    fn small_l2(policy: WritePolicy, entries: usize, sectored: bool) -> GpuConfig {
        let mut cfg = GpuConfig::fermi_gf100();
        let l2 = cfg.l2.as_mut().expect("gf100 has an L2");
        l2.cache.sets = 1;
        l2.cache.ways = 2;
        l2.mshr.entries = entries;
        l2.write_policy = policy;
        if sectored {
            l2.sector_bytes = Some(32);
            l2.slices = 2;
        }
        cfg.dram.queue_capacity = 2;
        cfg
    }

    fn encoded(p: &Partition, reqs: &RequestTable) -> Vec<u8> {
        let mut e = Encoder::new();
        p.encode_state(&mut e, reqs);
        e.finish()
    }

    /// `l2_route` is `Wait` exactly when the access stage leaves the
    /// partition's encoded state byte-identical — `next_event` lets a
    /// partition sleep on that. A primary miss whose set has every way
    /// reserved waits, as a write-back store there does. Random accepts and
    /// ticks on small L2 slices reach every route, write-back and
    /// write-through, and such a miss.
    #[test]
    fn an_l2_head_waits_exactly_when_the_access_stage_moves_nothing() {
        let mut full_set_misses = 0;
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            for (entries, sectored) in [(2, false), (2, true), (4, false)] {
                let cfg = small_l2(policy, entries, sectored);
                let map =
                    AddressMap::new(1, cfg.partition_chunk, cfg.dram_banks, cfg.dram_row_bytes);
                let id = PartitionId::new(0);
                let mut p = Partition::new(id, &cfg, map);
                let mut reqs = RequestTable::new();
                let mut tracer = Tracer::new(TraceConfig::default());
                let mut seen = [false; 6];
                let mut seed = 0x9e37_79b9_7f4a_7c15u64;
                let mut now = Cycle::ZERO;
                for n in 0..3000 {
                    for i in 0..p.slices.len() {
                        let before = encoded(&p, &reqs);
                        let mut copy = Partition::new(id, &cfg, map);
                        let mut copy_reqs = RequestTable::new();
                        copy.restore_state(&mut Decoder::open(&before).unwrap(), &mut copy_reqs)
                            .unwrap();
                        assert_eq!(encoded(&copy, &copy_reqs), before, "restore is exact");
                        let route = copy.l2_route(i, &copy_reqs);
                        seen[route as usize] = true;
                        let slice = &copy.slices[i];
                        let full_set_miss = slice.queue.front().is_some_and(|&h| {
                            let req = &copy_reqs[h];
                            let addr = req.addr.align_down(copy.granule);
                            req.kind == AccessKind::Load
                                && slice
                                    .cache
                                    .as_ref()
                                    .is_some_and(|l2| !l2.probe(addr) && !l2.has_way(addr))
                                && !slice.mshr.is_pending(addr)
                                && slice.mshr.can_allocate()
                                && copy.dram.can_accept()
                        });
                        if full_set_miss {
                            assert_eq!(route, L2Route::Wait, "a miss with no way to take");
                            full_set_misses += 1;
                        }
                        copy.tick_l2_slice(i, now, &mut copy_reqs, &mut tracer);
                        let moved = encoded(&copy, &copy_reqs) != before;
                        assert_eq!(
                            route == L2Route::Wait,
                            !moved,
                            "{policy:?}, {entries} entries, sectored {sectored}, \
                             cycle {now}, slice {i}: {route:?}"
                        );
                    }
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if !seed.is_multiple_of(3) && p.can_accept() {
                        let sector = if sectored { (seed >> 16) % 4 * 32 } else { 0 };
                        let kind = if (seed >> 20).is_multiple_of(4) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        let req = MemRequest::new(
                            RequestId::new(n),
                            Addr::new((seed >> 8) % 3 * 128 + sector),
                            32,
                            kind,
                            PipelineSpace::Global,
                            SmId::new(0),
                            n,
                            now,
                        );
                        p.accept(reqs.insert(req), now, &mut reqs);
                    }
                    p.tick(now, &mut reqs, &mut tracer);
                    while let Some(h) = p.pop_return() {
                        reqs.remove(h);
                    }
                    now.tick();
                }
                let (store, other) = match policy {
                    WritePolicy::WriteThrough => (L2Route::Dram, L2Route::StoreBack),
                    WritePolicy::WriteBack => (L2Route::StoreBack, L2Route::Dram),
                };
                for route in [
                    L2Route::Wait,
                    store,
                    L2Route::Hit,
                    L2Route::Merge,
                    L2Route::Miss,
                ] {
                    assert!(
                        seen[route as usize],
                        "{policy:?}, {entries}: {route:?} never seen"
                    );
                }
                assert!(!seen[other as usize], "{policy:?}: {other:?}");
            }
        }
        assert!(full_set_misses > 0, "no miss found every way reserved");
    }
}
