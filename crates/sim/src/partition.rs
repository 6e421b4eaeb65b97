//! Memory-partition timing model: ROP pipeline → L2 slice(s) → DRAM channel.
//!
//! Each partition owns the stages behind the interconnect for its slice of
//! the address space. The stamps recorded here delimit the paper's
//! `ICNTtoROP`, `ROPtoL2Q`, `L2QtoDRAMQ`, `DRAM(QtoSch)` and `DRAM(SchToA)`
//! latency components.
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
use gpu_trace::{EventKind, QueueKind, TraceEvent, TraceSite, Tracer};
use gpu_types::{BoundedQueue, Cycle, DelayQueue, PartitionId};

use crate::codec;
use crate::config::{GpuConfig, WritePolicy};
use crate::sanitizer::{Sanitizer, Site, Violation};

/// Token marking internally-generated dirty-eviction writebacks (they are
/// not tracked in the GPU's outstanding-request accounting).
const EVICTION_TOKEN: u64 = u64::MAX - 1;

/// One independent L2 bank: input queue, tag array, MSHRs and hit pipe.
/// A classic monolithic L2 is exactly one of these.
#[derive(Debug)]
struct L2Slice {
    queue: BoundedQueue<MemRequest>,
    cache: Option<Cache>,
    mshr: MshrTable<MemRequest>,
    hit_pipe: DelayQueue<MemRequest>,
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
    rop: DelayQueue<MemRequest>,
    slices: Vec<L2Slice>,
    dram: DramController,
    /// This cycle's DRAM completions (scratch, empty between ticks; kept
    /// for its capacity).
    dram_done: Vec<MemRequest>,
    returns: VecDeque<MemRequest>,
    stores_completed_total: u64,
    stores_retired_here: u64,
    evictions_in_flight: u64,
    /// Host-side sleep state (never serialized, never read by the model):
    /// until this cycle [`Partition::tick`] is the identity, unless
    /// [`Partition::accept`] hands the partition a request first. Set only
    /// at the end of `tick`.
    wake_at: Cycle,
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
                    hit_pipe: DelayQueue::new(64, hit_latency),
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
            stores_retired_here: 0,
            evictions_in_flight: 0,
            wake_at: Cycle::ZERO,
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
    pub fn accept(&mut self, mut req: MemRequest, now: Cycle, tracer: &mut Tracer) {
        req.timeline.record(Stamp::RopEnter, now);
        if tracer.enabled() {
            tracer.record(TraceEvent {
                cycle: now.get(),
                site: TraceSite::Partition(self.id.get()),
                kind: EventKind::QueueEnter {
                    queue: QueueKind::Rop,
                    req: req.id.get(),
                },
            });
        }
        self.rop
            .push(now, req)
            .unwrap_or_else(|_| panic!("ROP overflow; can_accept not checked"));
        self.wake_at = Cycle::ZERO;
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
    pub fn peek_return(&self) -> Option<&MemRequest> {
        self.returns.front()
    }

    /// Removes the oldest response for reply-network injection.
    pub fn pop_return(&mut self) -> Option<MemRequest> {
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

    /// The earliest cycle at which ticking this partition could change its
    /// state, given that nothing arrives from the request network before
    /// then (the crossbar reports its own arrivals): a sleeper's stored
    /// wake cycle, else [`Partition::horizon`].
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.asleep(now) {
            return self.wake_at;
        }
        self.horizon(now)
    }

    /// Whether a tick at `now` would be the identity and may be left out.
    pub(crate) fn asleep(&self, now: Cycle) -> bool {
        self.wake_at > now
    }

    /// [`Partition::next_event`] derived from the queues. Work that moves
    /// on demand rather than at a stored time — responses awaiting reply
    /// injection, an L2 input-queue head, dirty victims awaiting DRAM —
    /// answers `now` (conservative: the head may be structurally blocked);
    /// otherwise the ROP and hit-pipe heads and the DRAM channel each store
    /// the cycle they next act. [`Cycle::MAX`] when idle.
    fn horizon(&self, now: Cycle) -> Cycle {
        let on_demand = |s: &L2Slice| {
            !s.queue.is_empty() || s.cache.as_ref().is_some_and(|c| c.pending_writebacks() > 0)
        };
        if !self.returns.is_empty() || self.slices.iter().any(on_demand) {
            return now;
        }
        let pipes = self
            .slices
            .iter()
            .filter_map(|s| s.hit_pipe.next_ready())
            .chain(self.rop.next_ready())
            .min()
            .map_or(Cycle::MAX, |at| at.max(now));
        if pipes <= now {
            return now;
        }
        pipes.min(self.dram.next_event(now))
    }

    // ---- sanitizer hooks -------------------------------------------------

    /// SM-originated memory requests currently inside this partition: ROP
    /// pipe, L2 input queues, hit pipes, MSHR merge lists, DRAM controller
    /// and the return queue. Internally-generated eviction writebacks share
    /// the DRAM queue but are not part of the GPU's outstanding accounting,
    /// so they are subtracted out.
    pub fn in_flight_requests(&self) -> u64 {
        let sliced: usize = self
            .slices
            .iter()
            .map(|s| s.queue.len() + s.hit_pipe.len() + s.mshr.waiters())
            .sum();
        (self.rop.len() + sliced + self.dram.queued() + self.dram.in_service() + self.returns.len())
            as u64
            - self.evictions_in_flight
    }

    /// Per-cycle structural audit: queue occupancies against their
    /// capacities, MSHR occupancy against its configuration. A single-slice
    /// partition reports under the legacy level labels; slices of a
    /// multi-slice L2 report under their own static labels.
    pub fn audit(&self, san: &mut Sanitizer) {
        let site = Site::Partition(self.id.index());
        san.check_queue(site, "rop", self.rop.len(), self.rop.capacity());
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
                slice.mshr.max_list_len(),
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
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u64(self.next_eviction_id);
        codec::encode_req_queue(e, &self.rop);
        for slice in &self.slices {
            e.usize(slice.queue.len());
            for req in slice.queue.iter() {
                req.encode_state(e);
            }
            match &slice.cache {
                None => e.bool(false),
                Some(c) => {
                    e.bool(true);
                    c.encode_state(e);
                }
            }
            slice
                .mshr
                .encode_state_with(e, |req, e| req.encode_state(e));
            codec::encode_req_queue(e, &slice.hit_pipe);
        }
        self.dram.encode_state(e);
        e.usize(self.returns.len());
        for req in &self.returns {
            req.encode_state(e);
        }
        e.u64(self.stores_completed_total);
        e.u64(self.stores_retired_here);
        e.u64(self.evictions_in_flight);
    }

    /// Overwrites this partition's dynamic state with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects structural mismatches with this partition's configuration
    /// (queue capacities, L2 presence, cache geometry) and propagates
    /// decoder errors.
    pub fn restore_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        use SnapshotError::InvalidValue;
        self.next_eviction_id = d.u64()?;
        codec::restore_req_queue(&mut self.rop, d, "ROP pipe occupancy exceeds capacity")?;
        for slice in &mut self.slices {
            let mut queue = BoundedQueue::new(slice.queue.capacity());
            for _ in 0..d.usize()? {
                queue
                    .push(MemRequest::decode(d)?)
                    .map_err(|_| InvalidValue("L2 input queue occupancy exceeds capacity"))?;
            }
            slice.queue = queue;
            match (d.bool()?, &mut slice.cache) {
                (true, Some(c)) => c.restore_state(d)?,
                (false, None) => {}
                _ => return Err(InvalidValue("L2 presence mismatch with configuration")),
            }
            slice.mshr.restore_state_with(d, MemRequest::decode)?;
            codec::restore_req_queue(
                &mut slice.hit_pipe,
                d,
                "L2 hit pipe occupancy exceeds capacity",
            )?;
        }
        self.dram.restore_state(d)?;
        self.returns.clear();
        for _ in 0..d.usize()? {
            self.returns.push_back(MemRequest::decode(d)?);
        }
        self.stores_completed_total = d.u64()?;
        self.stores_retired_here = d.u64()?;
        self.evictions_in_flight = d.u64()?;
        Ok(())
    }

    /// Advances the partition one cycle. Returns the number of store
    /// requests that retired this cycle (for global outstanding tracking).
    pub fn tick(&mut self, now: Cycle, tracer: &mut Tracer) -> u64 {
        let mut stores_done = 0;
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
        //    wake MSHR waiters, and join the return flow.
        let mut dram_done = std::mem::take(&mut self.dram_done);
        self.dram.tick_into(now, &mut dram_done);
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
                    DramEventKind::Schedule => EventKind::QueueLeave {
                        queue: QueueKind::DramController,
                        req: e.id.map_or(0, |id| id.get()),
                    },
                };
                tracer.record(TraceEvent {
                    cycle: e.at.get(),
                    site,
                    kind,
                });
            }
        }
        for req in dram_done.drain(..) {
            if req.kind == AccessKind::Store {
                if req.token != EVICTION_TOKEN {
                    stores_done += 1;
                } else {
                    self.evictions_in_flight -= 1;
                }
                continue;
            }
            let idx = self.slice_index(req.addr);
            let granule = self.granule;
            let slice = &mut self.slices[idx];
            if let Some(l2) = slice.cache.as_mut() {
                let line = req.addr.align_down(granule);
                l2.fill(line);
                let returns = &mut self.returns;
                slice.mshr.fill_with(line, |mut w| {
                    // Merged waiters "ride along" with the primary fetch;
                    // their DRAM wait is attributed to scheduling time.
                    w.timeline.record(Stamp::DramScheduled, now);
                    w.timeline.record(Stamp::DramDone, now);
                    returns.push_back(w);
                });
            }
            self.returns.push_back(req);
        }
        self.dram_done = dram_done;

        // 2. Hit pipes: one data return per slice per cycle (a multi-slice
        //    L2 has genuinely more return bandwidth).
        for i in 0..self.slices.len() {
            if let Some(req) = self.slices[i].hit_pipe.pop_ready(now) {
                self.returns.push_back(req);
            }
        }

        // 3. L2 access stage: one request per slice per cycle from each
        //    input queue, in slice index order (DRAM acceptance is
        //    arbitrated by that order, keeping runs deterministic).
        for i in 0..self.slices.len() {
            self.tick_l2_slice(i, now, tracer);
        }

        // 4. ROP pipeline exit into the serving slice's input queue.
        if let Some(head) = self.rop.front_ready(now) {
            let idx = self.slice_index(head.addr);
            if !self.slices[idx].queue.is_full() {
                let mut req = self.rop.pop_ready(now).expect("front was ready");
                req.timeline.record(Stamp::L2QueueEnter, now);
                if tracer.enabled() {
                    let id = req.id.get();
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: EventKind::QueueLeave {
                            queue: QueueKind::Rop,
                            req: id,
                        },
                    });
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: EventKind::QueueEnter {
                            queue: QueueKind::L2Input,
                            req: id,
                        },
                    });
                }
                self.slices[idx].queue.push(req).expect("space checked");
            }
        }

        // Stores retired at a write-back L2 this cycle (stage 3) are
        // reported in the same tick so the global outstanding counter never
        // sees a retired-but-unreported request.
        stores_done += std::mem::take(&mut self.stores_retired_here);
        self.stores_completed_total += stores_done;
        // Sleep until the next cycle a tick can act (the next one, if any
        // work moves on demand). Later stages of this cycle only take
        // responses away or `accept` a request, which wakes.
        self.wake_at = self.horizon(now + 1);
        stores_done
    }

    fn tick_l2_slice(&mut self, idx: usize, now: Cycle, tracer: &mut Tracer) {
        let granule = self.granule;
        let write_policy = self.write_policy;
        let slice = &mut self.slices[idx];
        let Some(head) = slice.queue.front() else {
            return;
        };
        let site = TraceSite::Partition(self.id.get());
        // MSHR entries and cache lines are keyed at the transaction granule
        // (the sector on sectored machines, else the line); the coalescer
        // always sends aligned transactions, but align defensively.
        let addr = head.addr.align_down(granule);
        let kind = head.kind;
        let head_id = head.id.get();
        // Emitted once a branch below actually pops the head.
        let leave = EventKind::QueueLeave {
            queue: QueueKind::L2Input,
            req: head_id,
        };
        let dram_enter = EventKind::QueueEnter {
            queue: QueueKind::DramController,
            req: head_id,
        };

        let Some(l2) = slice.cache.as_mut() else {
            // No L2 (Tesla-style): straight to DRAM.
            if self.dram.can_accept() {
                let req = slice.queue.pop().expect("head exists");
                self.dram.enqueue(req, now);
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: leave,
                    });
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: dram_enter,
                    });
                }
            }
            return;
        };

        if kind == AccessKind::Store {
            match write_policy {
                WritePolicy::WriteThrough => {
                    // Write-through, no-allocate, write-evict.
                    if self.dram.can_accept() {
                        l2.store_invalidate(addr);
                        let req = slice.queue.pop().expect("head exists");
                        self.dram.enqueue(req, now);
                        if tracer.enabled() {
                            tracer.record(TraceEvent {
                                cycle: now.get(),
                                site,
                                kind: leave,
                            });
                            tracer.record(TraceEvent {
                                cycle: now.get(),
                                site,
                                kind: dram_enter,
                            });
                        }
                    }
                }
                WritePolicy::WriteBack => {
                    // Write-allocate (tag-only, no fetch): the store
                    // completes here; dirty victims join the writeback
                    // queue drained in `tick`.
                    if !l2.store_mark_dirty(addr) && !l2.allocate_dirty(addr) {
                        return; // all ways reserved: retry next cycle
                    }
                    let _ = slice.queue.pop().expect("head exists");
                    self.stores_retired_here += 1;
                    if tracer.enabled() {
                        tracer.record(TraceEvent {
                            cycle: now.get(),
                            site,
                            kind: leave,
                        });
                    }
                }
            }
            return;
        }

        if l2.probe(addr) {
            let req = slice.queue.pop().expect("head exists");
            let _ = l2.load(addr); // records the hit
            slice
                .hit_pipe
                .push(now, req)
                .expect("hit pipe sized for the input queue");
            if tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site,
                    kind: leave,
                });
            }
        } else if slice.mshr.is_pending(addr) {
            if slice.mshr.can_merge(addr) {
                let mut req = slice.queue.pop().expect("head exists");
                let _ = l2.load(addr); // records the miss
                req.timeline.record(Stamp::DramQueueEnter, now);
                slice
                    .mshr
                    .try_merge(addr, req)
                    .expect("merge space checked");
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: leave,
                    });
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site,
                        kind: EventKind::MshrMerge { line: addr.get() },
                    });
                }
            }
        } else {
            if !slice.mshr.can_allocate() || !self.dram.can_accept() {
                return;
            }
            if !l2.reserve(addr) {
                return;
            }
            let req = slice.queue.pop().expect("head exists");
            let _ = l2.load(addr); // records the miss
            assert!(slice.mshr.allocate(addr), "capacity checked");
            self.dram.enqueue(req, now);
            if tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site,
                    kind: leave,
                });
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site,
                    kind: EventKind::MshrAllocate { line: addr.get() },
                });
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site,
                    kind: dram_enter,
                });
            }
        }
    }
}
