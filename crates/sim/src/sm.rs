//! Streaming-multiprocessor timing model.
//!
//! An [`Sm`] owns warp slots (each wrapping a functional
//! [`gpu_isa::WarpExec`]), a scoreboard, ALU/SFU writeback tracking, and the
//! in-SM half of the memory pipeline: the front-end (address
//! generation/coalescing, the head of the paper's "SM Base" component), the
//! L1 data cache with MSHRs, the L1 miss queue toward the interconnect (the
//! paper's "L1toICNT" queue), and the response fill/writeback path (the tail
//! of "Fetch2SM").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use gpu_arch::{LevelDesc, LevelKind, Routing};
use gpu_isa::{
    InstrClass, Kernel, Launch, LocalMap, MemBackend, Pc, Reg, Space, StepOutcome, ThreadCtx,
    WarpExec,
};
use gpu_mem::{AccessKind, Cache, MemRequest, MshrTable, PipelineSpace, RequestId, Stamp};
use gpu_trace::{EventKind, StallBreakdown, StallReason, TraceEvent, TraceSite, Tracer};
use gpu_types::{Addr, BoundedQueue, CtaId, Cycle, DelayQueue, SmId};

use gpu_snapshot::{Decoder, Encoder, SnapshotError};

use crate::coalesce::coalesce_into;
use crate::codec;
use crate::config::{GpuConfig, SchedPolicy};
use crate::sanitizer::{Sanitizer, Site, Violation, FILL_QUEUE, FRONT_QUEUE};
use crate::scoreboard::Scoreboard;
use crate::stats::{self, CompletedRequest, LoadInstrRecord, SmStats, TraceSink};

/// Token value for requests with no pending-load entry (stores).
const NO_TOKEN: u64 = u64::MAX;

#[derive(Debug)]
struct WarpSlot {
    exec: WarpExec,
    cta_index: usize,
    age: u64,
    pending_ops: u32,
}

#[derive(Debug)]
struct CtaRt {
    shared: Vec<u8>,
    slots: Vec<usize>,
    live: usize,
    arrived: usize,
}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    warp: usize,
    dst: Option<Reg>,
    pc: Pc,
    remaining: u32,
    lines: u32,
    issue: Cycle,
    stalls_at_issue: u64,
    stall_reasons_at_issue: StallBreakdown,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: SmId,
    cfg: Arc<GpuConfig>,
    slots: Vec<Option<WarpSlot>>,
    /// Occupied entries of `slots`, kept rather than recounted: dispatch
    /// adds a CTA's warps, [`Sm::maintain`] takes a retired CTA's away, and
    /// a restore recounts. Derived, so never serialized.
    occupied: usize,
    ctas: Vec<Option<CtaRt>>,
    scoreboard: Scoreboard,
    alu_wb: BinaryHeap<Reverse<(u64, usize, Reg)>>,
    front: DelayQueue<MemRequest>,
    /// The SM-side level descriptor (cached at construction; structural, not
    /// serialized). Audit labels derive from its kind.
    l1_desc: LevelDesc,
    /// Effective routing of the SM-side level, precomputed so the per-access
    /// hot path is a field read, not a descriptor walk.
    l1_routing: Routing,
    /// Machine-wide memory-transaction granule (sector size when any level
    /// is sectored, else the line size), cached at construction. The
    /// coalescer, L1/MSHR keys and request sizes all use it.
    granule: u64,
    l1_cache: Option<Cache>,
    l1_mshr: MshrTable<MemRequest>,
    l1_hit_pipe: DelayQueue<MemRequest>,
    miss_queue: BoundedQueue<MemRequest>,
    fill_pipe: DelayQueue<MemRequest>,
    /// The loads awaiting their last line, oldest token first. Tokens are
    /// handed out ascending, so a new load is appended and the codec's
    /// token order is the deque's own; a returning line finds its load by
    /// binary search over the live ones. (A slab indexed by token offset
    /// would need room for the whole span between the oldest live token
    /// and the newest, and a decoded checkpoint chooses that span.)
    pending_loads: VecDeque<(u64, PendingLoad)>,
    next_token: u64,
    next_req_id: u64,
    last_issued: usize,
    greedy: Option<usize>,
    /// Warps that already issued in the current issue stage (at most
    /// `issue_width` entries; empty between ticks, so not serialized).
    issued: Vec<usize>,
    /// The issuing access's transaction addresses (scratch, empty between
    /// issues; kept for its capacity).
    lines: Vec<Addr>,
    /// Host-side hint for [`Sm::next_event`]: the last issue stage issued
    /// something, so the next one probably can too. Spares a busy machine
    /// the ready-warp scan; never serialized, never read by the model.
    issued_last_tick: bool,
    /// Host-side sleep state, of the same standing as `issued_last_tick`:
    /// until this cycle a tick of this SM is the identity plus one stall
    /// credit, unless a reply becomes deliverable at its port first (the
    /// run loop looks). Set only by [`Sm::end_tick`], at the end of a full
    /// tick; zeroed by everything that hands the SM work.
    wake_at: Cycle,
    /// What each slept cycle's issue stage would have counted: the stall
    /// reason the SM's state votes for, `None` with no warp resident. Kept
    /// by every full tick that issues nothing; meaningful only while
    /// asleep.
    sleep_stall: Option<StallReason>,
    age_counter: u64,
    stats: SmStats,
}

impl Sm {
    /// Creates an SM per the configuration.
    pub fn new(id: SmId, cfg: Arc<GpuConfig>) -> Self {
        let slots = cfg.max_warps_per_sm;
        let l1_desc = cfg.level_desc(LevelKind::L1);
        let (l1_cache, l1_hit_latency) = match l1_desc.geom {
            Some(g) => (
                Some(Cache::with_sectors(g.cache, g.sector_bytes)),
                g.hit_latency,
            ),
            None => (None, 0),
        };
        Sm {
            id,
            slots: (0..slots).map(|_| None).collect(),
            occupied: 0,
            ctas: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            scoreboard: Scoreboard::new(slots),
            alu_wb: BinaryHeap::new(),
            front: DelayQueue::new(cfg.lsu_queue, cfg.sm_base_latency),
            l1_desc,
            l1_routing: l1_desc.effective_routing(),
            granule: cfg.transaction_granule(),
            l1_cache,
            l1_mshr: MshrTable::new(l1_desc.mshr_config()),
            l1_hit_pipe: DelayQueue::new(cfg.lsu_queue, l1_hit_latency),
            miss_queue: BoundedQueue::new(l1_desc.queue),
            fill_pipe: DelayQueue::new(512, cfg.fill_latency),
            pending_loads: VecDeque::new(),
            next_token: 0,
            next_req_id: 0,
            last_issued: 0,
            greedy: None,
            issued: Vec::with_capacity(cfg.issue_width),
            lines: Vec::new(),
            issued_last_tick: false,
            wake_at: Cycle::ZERO,
            sleep_stall: None,
            age_counter: 0,
            stats: SmStats::default(),
            cfg,
        }
    }

    /// This SM's id.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Per-SM statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// L1 hit/miss counts, if an L1 exists.
    pub fn l1_counts(&self) -> Option<(u64, u64)> {
        self.l1_cache.as_ref().map(|c| (c.hits(), c.misses()))
    }

    /// Number of occupied warp slots.
    pub fn live_warps(&self) -> usize {
        debug_assert_eq!(
            self.occupied,
            self.slots.iter().filter(|s| s.is_some()).count()
        );
        self.occupied
    }

    // ---- counter gauges --------------------------------------------------

    /// Transactions in the memory front-end pipe (counter gauge).
    pub fn front_depth(&self) -> usize {
        self.front.len()
    }

    /// Requests waiting in the L1 miss queue (counter gauge).
    pub fn miss_queue_depth(&self) -> usize {
        self.miss_queue.len()
    }

    /// Occupied L1 MSHR entries (counter gauge).
    pub fn l1_mshr_occupancy(&self) -> usize {
        self.l1_mshr.len()
    }

    /// Returns `true` when the SM holds no warps and no in-flight memory
    /// state.
    pub fn is_idle(&self) -> bool {
        self.live_warps() == 0
            && self.pending_loads.is_empty()
            && self.front.is_empty()
            && self.miss_queue.is_empty()
            && self.l1_hit_pipe.is_empty()
            && self.fill_pipe.is_empty()
    }

    // ---- sanitizer hooks -------------------------------------------------

    /// Memory requests currently inside this SM: front-end pipe, hit pipe,
    /// miss queue, fill pipe, and waiters parked in L1 MSHR merge lists
    /// (primary misses travel downstream and are counted wherever they are).
    pub fn in_flight_requests(&self) -> u64 {
        (self.front.len()
            + self.l1_hit_pipe.len()
            + self.miss_queue.len()
            + self.fill_pipe.len()
            + self.l1_mshr.waiters()) as u64
    }

    /// Per-cycle structural audit: queue occupancies against their
    /// capacities, MSHR occupancy against its configuration.
    pub fn audit(&self, san: &mut Sanitizer) {
        let site = Site::Sm(self.id.index());
        san.check_queue(site, FRONT_QUEUE, self.front.len(), self.front.capacity());
        san.check_queue(
            site,
            self.l1_desc.kind.hit_pipe_label(),
            self.l1_hit_pipe.len(),
            self.l1_hit_pipe.capacity(),
        );
        san.check_queue(
            site,
            self.l1_desc.kind.queue_label(),
            self.miss_queue.len(),
            self.miss_queue.capacity(),
        );
        san.check_queue(
            site,
            FILL_QUEUE,
            self.fill_pipe.len(),
            self.fill_pipe.capacity(),
        );
        san.check_mshr_occupancy(
            site,
            self.l1_mshr.len(),
            self.l1_mshr.max_list_len(),
            self.l1_mshr.config(),
        );
    }

    /// End-of-run audit: after a drained run nothing may linger in the MSHR
    /// table or the pending-load map. The idle check deliberately ignores
    /// the MSHR table (a leaked entry blocks no queue), so this is the only
    /// place such a leak becomes visible.
    pub fn audit_drained(&self, san: &mut Sanitizer) {
        let site = Site::Sm(self.id.index());
        if !self.l1_mshr.is_empty() {
            san.record(Violation::MshrLeak {
                site,
                lines: self.l1_mshr.pending_lines(),
            });
        }
        if !self.pending_loads.is_empty() {
            san.record(Violation::PendingLoadLeak {
                site,
                entries: self.pending_loads.len(),
            });
        }
    }

    /// Test hook: allocates an L1 MSHR entry that no fill will ever release,
    /// modeling the classic lost-fill bug. The run still drains (the entry
    /// holds no queue slot), so only the sanitizer's end-of-run audit can
    /// catch it.
    pub fn debug_seed_mshr_leak(&mut self, line: gpu_types::Addr) {
        assert!(
            self.l1_mshr.allocate(line),
            "seeding requires a free MSHR entry"
        );
        // MSHR occupancy feeds the stall attribution a sleeper has cached.
        self.wake_at = Cycle::ZERO;
    }

    /// Returns `true` if a CTA of `warps_needed` warps can be dispatched.
    pub fn can_dispatch(&self, warps_needed: usize) -> bool {
        self.slots.len() - self.live_warps() >= warps_needed
            && self.ctas.iter().any(|c| c.is_none())
    }

    /// Dispatches one CTA onto this SM.
    ///
    /// # Panics
    ///
    /// Panics if capacity is insufficient; check [`Sm::can_dispatch`].
    pub fn dispatch(
        &mut self,
        cta: CtaId,
        kernel: &Arc<Kernel>,
        params: &Arc<[u64]>,
        launch: &Launch,
        local_map: LocalMap,
    ) {
        let cta_index = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("no free CTA slot");
        let warp_size = self.cfg.warp_size;
        let warps_needed = launch.warps_per_cta(warp_size) as usize;
        let mut slot_ids = Vec::with_capacity(warps_needed);
        let mut tid = 0u32;
        for _ in 0..warps_needed {
            let slot = self
                .slots
                .iter()
                .position(|s| s.is_none())
                .expect("no free warp slot");
            let lanes = (launch.block_dim - tid).min(warp_size);
            let ctxs: Vec<ThreadCtx> = (0..lanes)
                .map(|lane| ThreadCtx {
                    tid: tid + lane,
                    ctaid: cta.get(),
                    ntid: launch.block_dim,
                    nctaid: launch.grid_dim,
                    lane,
                })
                .collect();
            tid += lanes;
            let exec = WarpExec::new(Arc::clone(kernel), Arc::clone(params), ctxs, local_map);
            self.age_counter += 1;
            self.slots[slot] = Some(WarpSlot {
                exec,
                cta_index,
                age: self.age_counter,
                pending_ops: 0,
            });
            slot_ids.push(slot);
        }
        self.occupied += slot_ids.len();
        self.ctas[cta_index] = Some(CtaRt {
            shared: vec![0u8; kernel.shared_bytes() as usize],
            live: slot_ids.len(),
            slots: slot_ids,
            arrived: 0,
        });
        self.wake_at = Cycle::ZERO;
    }

    /// Retires CTAs whose warps have all exited and drained their pending
    /// memory operations; returns the number retired.
    pub fn maintain(&mut self) -> u64 {
        let mut retired = 0;
        for ci in 0..self.ctas.len() {
            let done = match &self.ctas[ci] {
                Some(c) => {
                    c.live == 0
                        && c.slots.iter().all(|&s| {
                            self.slots[s]
                                .as_ref()
                                .is_none_or(|slot| slot.pending_ops == 0)
                        })
                }
                None => false,
            };
            if done {
                let c = self.ctas[ci].take().expect("checked above");
                for s in c.slots {
                    if self.slots[s].take().is_some() {
                        self.occupied -= 1;
                    }
                    self.scoreboard.clear(s);
                }
                self.stats.ctas_retired += 1;
                retired += 1;
            }
        }
        retired
    }

    // ---- response path --------------------------------------------------

    /// Returns `true` if the fill pipe can accept a network response (plus
    /// any MSHR waiters it may wake).
    pub fn fill_space(&self) -> bool {
        // A response can wake up to `max_merged` waiters.
        self.fill_pipe.capacity() - self.fill_pipe.len() > self.l1_mshr.config().max_merged
    }

    /// Accepts a response ejected from the reply network: fills the L1 (if
    /// this space is cached), wakes MSHR waiters, and queues everything for
    /// writeback.
    pub fn accept_response(&mut self, req: MemRequest, now: Cycle, tracer: &mut Tracer) {
        let fills_l1 = req.is_load() && !req.bypass_l1 && self.l1_routing.serves(req.space);
        let line = req.addr.align_down(self.granule);
        self.fill_pipe
            .push(now, req)
            .unwrap_or_else(|_| panic!("fill pipe overflow; fill_space not checked"));
        if !fills_l1 {
            return;
        }
        if let Some(l1) = self.l1_cache.as_mut() {
            l1.fill(line);
            let fill_pipe = &mut self.fill_pipe;
            let waiters = self.l1_mshr.fill_with(line, |w| {
                fill_pipe
                    .push(now, w)
                    .unwrap_or_else(|_| panic!("fill pipe overflow on MSHR wake"));
            });
            if tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site: TraceSite::Sm(self.id.get()),
                    kind: EventKind::MshrFill {
                        line: line.get(),
                        waiters: waiters as u32,
                    },
                });
            }
        }
    }

    /// Writeback stage: releases completed ALU results and retires returned
    /// memory responses. Returns the number of memory requests retired.
    /// When the sanitizer is active, every retired request's timeline is
    /// audited on its way out.
    pub fn tick_writeback(
        &mut self,
        now: Cycle,
        sink: &mut TraceSink,
        mut sanitizer: Option<&mut Sanitizer>,
    ) -> u64 {
        while let Some(&Reverse((c, w, r))) = self.alu_wb.peek() {
            if c > now.get() {
                break;
            }
            self.alu_wb.pop();
            self.scoreboard.release(w, r);
        }
        let mut retired = 0;
        // Two writeback ports: returned fills and L1 hits.
        for _ in 0..2 {
            match self.fill_pipe.pop_ready(now) {
                Some(req) => {
                    self.complete_response(req, now, sink, sanitizer.as_deref_mut());
                    retired += 1;
                }
                None => break,
            }
        }
        if let Some(req) = self.l1_hit_pipe.pop_ready(now) {
            self.complete_response(req, now, sink, sanitizer);
            retired += 1;
        }
        retired
    }

    fn complete_response(
        &mut self,
        mut req: MemRequest,
        now: Cycle,
        sink: &mut TraceSink,
        sanitizer: Option<&mut Sanitizer>,
    ) {
        // L1 hits reach writeback without an L1Access stamp; set it here so
        // their whole lifetime is attributed to the SM Base component.
        req.timeline.record(Stamp::L1Access, now);
        req.timeline.record(Stamp::Returned, now);
        if let Some(san) = sanitizer {
            san.check_retired(&req);
        }
        if !req.is_load() {
            return;
        }
        if !req.l1_merged {
            sink.record_request(CompletedRequest {
                timeline: req.timeline,
                space: req.space,
                sm: self.id,
            });
        }
        if req.token == NO_TOKEN {
            return;
        }
        let Ok(at) = self
            .pending_loads
            .binary_search_by_key(&req.token, |&(token, _)| token)
        else {
            panic!("response for unknown load token {}", req.token);
        };
        let pl = &mut self.pending_loads[at].1;
        pl.remaining -= 1;
        if pl.remaining > 0 {
            return;
        }
        let (_, pl) = self.pending_loads.remove(at).expect("found above");
        if let Some(d) = pl.dst {
            self.scoreboard.release(pl.warp, d);
        }
        if let Some(slot) = self.slots[pl.warp].as_mut() {
            slot.pending_ops -= 1;
        }
        let exposed = self.stats.stall_cycles - pl.stalls_at_issue;
        // The SM can stall at most once per cycle, so the exposure
        // counted against a load can never exceed its lifetime.
        debug_assert!(
            exposed <= now.since(pl.issue),
            "exposed {} exceeds load lifetime {}",
            exposed,
            now.since(pl.issue)
        );
        sink.record_load(LoadInstrRecord {
            sm: self.id,
            pc: pl.pc,
            issue: pl.issue,
            complete: now,
            exposed,
            lines: pl.lines,
            stall_reasons: self.stats.stalls.since(&pl.stall_reasons_at_issue),
        });
    }

    // ---- L1 stage --------------------------------------------------------

    /// L1 access stage: moves at most one transaction from the front-end
    /// pipe into the hit pipe or the miss queue.
    pub fn tick_memory(&mut self, now: Cycle, tracer: &mut Tracer) {
        let Some(head) = self.front.front_ready(now) else {
            return;
        };
        // Cache lines and MSHR entries are keyed by the transaction granule
        // (the sector on sectored machines, else the line); the coalescer
        // always sends aligned transactions, but align defensively.
        let addr = head.addr.align_down(self.granule);
        let kind = head.kind;
        let bypass = head.bypass_l1;
        let space = head.space;
        // Effective routing is masked by cache presence, so `served` implies
        // the L1 exists.
        let served = !bypass && self.l1_routing.serves(space);

        if kind == AccessKind::Store {
            if self.miss_queue.is_full() {
                return;
            }
            let mut req = self.front.pop_ready(now).expect("front head ready");
            req.timeline.record(Stamp::L1Access, now);
            if served {
                self.l1_cache
                    .as_mut()
                    .expect("served implies L1")
                    .store_invalidate(addr);
            }
            self.miss_queue.push(req).expect("capacity checked");
            return;
        }

        if !served {
            if self.miss_queue.is_full() {
                return;
            }
            let mut req = self.front.pop_ready(now).expect("front head ready");
            req.timeline.record(Stamp::L1Access, now);
            self.miss_queue.push(req).expect("capacity checked");
            return;
        }

        let l1 = self.l1_cache.as_mut().expect("served implies L1");
        if l1.probe(addr) {
            let req = self.front.pop_ready(now).expect("front head ready");
            // No stamp here: a hit never leaves the SM, so its entire
            // lifetime counts as "SM Base" (the L1Access stamp is set at
            // writeback; see `complete_response`), matching the paper's
            // all-SM-Base short-latency buckets.
            let _ = l1.load(addr); // records the hit
            self.l1_hit_pipe
                .push(now, req)
                .expect("hit pipe sized like the front pipe");
        } else if self.l1_mshr.is_pending(addr) {
            if !self.l1_mshr.can_merge(addr) {
                return; // merge list full: stall
            }
            let mut req = self.front.pop_ready(now).expect("front head ready");
            req.timeline.record(Stamp::L1Access, now);
            req.l1_merged = true;
            let _ = l1.load(addr); // records the miss
            self.l1_mshr
                .try_merge(addr, req)
                .expect("merge space checked");
            if tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site: TraceSite::Sm(self.id.get()),
                    kind: EventKind::MshrMerge { line: addr.get() },
                });
            }
        } else {
            if !self.l1_mshr.can_allocate() || self.miss_queue.is_full() {
                return; // structural stall
            }
            if !l1.reserve(addr) {
                return; // every way reserved by in-flight fills
            }
            let mut req = self.front.pop_ready(now).expect("front head ready");
            req.timeline.record(Stamp::L1Access, now);
            let _ = l1.load(addr); // records the miss
            assert!(self.l1_mshr.allocate(addr), "capacity checked");
            self.miss_queue.push(req).expect("capacity checked");
            if tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: now.get(),
                    site: TraceSite::Sm(self.id.get()),
                    kind: EventKind::MshrAllocate { line: addr.get() },
                });
            }
        }
    }

    /// Oldest request waiting to enter the interconnect, if any.
    pub fn peek_miss(&self) -> Option<&MemRequest> {
        self.miss_queue.front()
    }

    /// Removes the oldest miss-queue request for network injection.
    pub fn pop_miss(&mut self) -> Option<MemRequest> {
        self.miss_queue.pop()
    }

    // ---- issue stage ------------------------------------------------------

    /// Issue stage: schedules up to `issue_width` ready warps and executes
    /// one instruction each. Returns the number of new memory requests
    /// created (the caller tracks global outstanding counts).
    pub fn tick_issue(
        &mut self,
        now: Cycle,
        device: &mut gpu_mem::DeviceMemory,
        tracer: &mut Tracer,
    ) -> u64 {
        let mut new_requests = 0;
        let mut lsu_used = false;
        for _ in 0..self.cfg.issue_width {
            let Some(w) = self.pick_warp(lsu_used) else {
                break;
            };
            self.issued.push(w);
            new_requests += self.issue_warp(w, now, device, tracer, &mut lsu_used);
        }
        let issued = self.issued.len() as u64;
        self.issued.clear();
        self.issued_last_tick = issued > 0;
        if issued > 0 {
            self.stats.active_cycles += 1;
            self.stats.instructions += issued;
        } else {
            self.sleep_stall = self.stall_vote();
            self.count_stall(self.sleep_stall, now, tracer);
        }
        new_requests
    }

    /// The reason a zero-issue cycle in the SM's current state stalls for;
    /// `None` when no warp is resident (such a cycle counts nothing).
    fn stall_vote(&self) -> Option<StallReason> {
        (self.live_warps() > 0).then(|| self.classify_stall())
    }

    /// Books the zero-issue cycle `now`: one stall cycle against `reason`
    /// and, with the tracer on, its `Stall` event.
    fn count_stall(&mut self, reason: Option<StallReason>, now: Cycle, tracer: &mut Tracer) {
        let Some(reason) = reason else {
            return;
        };
        self.stats.stall_cycles += 1;
        self.stats.stalls.bump_by(reason, 1);
        if tracer.enabled() {
            tracer.record(TraceEvent {
                cycle: now.get(),
                site: TraceSite::Sm(self.id.get()),
                kind: EventKind::Stall { reason },
            });
        }
    }

    /// Counts `cycles` zero-issue cycles from `now` on against this SM, all
    /// attributed to the reason its current state stalls for, and returns
    /// that reason; `None` (and nothing counted) when no warp is resident.
    /// The run loop calls it with the length of a skipped quiescent
    /// interval, over which the state — and so the reason — cannot change.
    /// A sleeper has that reason cached in `sleep_stall`; only an SM that
    /// is awake (a restored one, say) votes again.
    pub fn credit_stall(&mut self, now: Cycle, cycles: u64) -> Option<StallReason> {
        let reason = if self.asleep(now) {
            debug_assert_eq!(self.sleep_stall, self.stall_vote());
            self.sleep_stall
        } else {
            self.stall_vote()
        }?;
        self.stats.stall_cycles += cycles;
        self.stats.stalls.bump_by(reason, cycles);
        Some(reason)
    }

    // ---- sleeping ---------------------------------------------------------

    /// The first cycle an ALU/shared writeback or a memory-pipe head
    /// matures ([`Cycle::MAX`] with none in flight). A matured head that is
    /// structurally blocked answers a cycle already past.
    fn next_maturity(&self) -> Cycle {
        let writeback = self
            .alu_wb
            .peek()
            .map(|&Reverse((at, _, _))| Cycle::new(at));
        [
            writeback,
            self.front.next_ready(),
            self.l1_hit_pipe.next_ready(),
            self.fill_pipe.next_ready(),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Cycle::MAX)
    }

    /// Ends the SM's full tick at `now`: retires drained CTAs, then decides
    /// how long the SM may sleep — the one place the wake cycle is set. An
    /// SM that issued nothing and holds no miss for the interconnect has no
    /// ready warp (the issue stage just looked, and retirement readies
    /// none), so until its next maturity every tick is the identity plus
    /// one stall credit. The issue stage left its vote in `sleep_stall`;
    /// the slept cycles' issue stages would vote on the state *after*
    /// retirement, so a retirement means asking again.
    pub(crate) fn end_tick(&mut self, now: Cycle) {
        let retired = self.maintain();
        self.wake_at = if self.issued_last_tick || !self.miss_queue.is_empty() {
            Cycle::ZERO
        } else {
            self.next_maturity()
        };
        if retired > 0 && self.wake_at > now + 1 {
            self.sleep_stall = self.stall_vote();
        }
    }

    /// Whether a tick at `now` may be replaced by [`Sm::sleep_through`],
    /// provided no reply is deliverable at this SM's port.
    pub(crate) fn asleep(&self, now: Cycle) -> bool {
        self.wake_at > now
    }

    /// Everything a full tick of a sleeping SM at `now` would have done.
    pub(crate) fn sleep_through(&mut self, now: Cycle, tracer: &mut Tracer) {
        self.count_stall(self.sleep_stall, now, tracer);
    }

    /// The earliest cycle at which ticking this SM could change its state,
    /// given that nothing arrives from the reply network before then (the
    /// crossbar reports its own arrivals): a sleeper's stored wake cycle;
    /// else `now` while any warp can issue (assumed, without looking, right
    /// after a cycle that issued) or a miss waits for the interconnect,
    /// else the first ALU/shared writeback or memory-pipe head to mature.
    /// A matured head that is structurally blocked also answers `now` —
    /// conservative, always legal. [`Cycle::MAX`] when nothing is pending.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.asleep(now) {
            return self.wake_at;
        }
        if self.issued_last_tick || !self.miss_queue.is_empty() {
            return now;
        }
        let matures = self.next_maturity().max(now);
        // The ready-warp scan is the expensive question; ask it last.
        if matures > now && (0..self.slots.len()).any(|w| self.warp_ready(w, false)) {
            return now;
        }
        matures
    }

    /// The warp in slot `w`, unless it is absent or has drained and only
    /// waits for its CTA to retire — such warps neither issue nor vote.
    fn live_warp(&self, w: usize) -> Option<&WarpSlot> {
        self.slots[w].as_ref().filter(|s| !s.exec.is_finished())
    }

    /// The one issue predicate: the first condition keeping live warp `w`
    /// from issuing, or `None` when it could issue now. `lsu_used` says the
    /// LSU port is already taken this tick (a structural conflict, so
    /// [`StallReason::Other`]). The scheduler, the idle-skip horizon and the
    /// stall attribution all ask this, so they cannot disagree.
    fn blocked_by(&self, w: usize, slot: &WarpSlot, lsu_used: bool) -> Option<StallReason> {
        if slot.exec.at_barrier() {
            return Some(StallReason::Barrier);
        }
        let Some((_, instr)) = slot.exec.peek() else {
            return Some(StallReason::Other);
        };
        if !self.scoreboard.can_issue(w, instr) {
            return Some(StallReason::Scoreboard);
        }
        if let InstrClass::Mem { space, .. } = instr.class() {
            if lsu_used {
                return Some(StallReason::Other);
            }
            // Worst case: one line per lane plus one boundary crossing.
            let need = self.cfg.warp_size as usize + 1;
            if space != Space::Shared && self.front.capacity() - self.front.len() < need {
                return Some(if !self.l1_mshr.can_allocate() {
                    StallReason::MshrFull
                } else if self.miss_queue.is_full() {
                    StallReason::IcntBackpressure
                } else {
                    StallReason::Other
                });
            }
        }
        None
    }

    /// Names the dominant reason this SM issued nothing despite live warps:
    /// every live warp votes for the first condition that blocks it, and
    /// the reason with the most votes wins (ties break in
    /// [`StallReason::ALL`] order). This refines the paper's Fig. 2
    /// exposed/hidden split — a zero-issue cycle becomes exposed *because
    /// of* something.
    fn classify_stall(&self) -> StallReason {
        let mut votes = [0u64; StallReason::COUNT];
        for w in 0..self.slots.len() {
            if let Some(slot) = self.live_warp(w) {
                let reason = self
                    .blocked_by(w, slot, false)
                    .unwrap_or(StallReason::Other);
                votes[reason.index()] += 1;
            }
        }
        let mut best = StallReason::Other;
        let mut best_votes = 0u64;
        for r in StallReason::ALL {
            if votes[r.index()] > best_votes {
                best = r;
                best_votes = votes[r.index()];
            }
        }
        best
    }

    fn warp_ready(&self, w: usize, lsu_used: bool) -> bool {
        !self.issued.contains(&w)
            && self
                .live_warp(w)
                .is_some_and(|slot| self.blocked_by(w, slot, lsu_used).is_none())
    }

    fn pick_warp(&mut self, lsu_used: bool) -> Option<usize> {
        let n = self.slots.len();
        match self.cfg.scheduler {
            SchedPolicy::Lrr => {
                for off in 1..=n {
                    let w = (self.last_issued + off) % n;
                    if self.warp_ready(w, lsu_used) {
                        self.last_issued = w;
                        return Some(w);
                    }
                }
                None
            }
            SchedPolicy::Gto => {
                if let Some(g) = self.greedy {
                    if self.warp_ready(g, lsu_used) {
                        return Some(g);
                    }
                }
                let oldest = (0..n)
                    .filter(|&w| self.warp_ready(w, lsu_used))
                    .min_by_key(|&w| self.slots[w].as_ref().expect("ready implies live").age);
                if let Some(w) = oldest {
                    self.greedy = Some(w);
                }
                oldest
            }
        }
    }

    fn issue_warp(
        &mut self,
        w: usize,
        now: Cycle,
        device: &mut gpu_mem::DeviceMemory,
        tracer: &mut Tracer,
        lsu_used: &mut bool,
    ) -> u64 {
        let mut slot = self.slots[w].take().expect("scheduler picked a live warp");
        let cta_index = slot.cta_index;
        let (_, instr) = slot.exec.peek().expect("scheduler checked peek");
        let class = instr.class();
        let dst = instr.def_reg();

        let outcome = {
            let cta = self.ctas[cta_index]
                .as_mut()
                .expect("warp belongs to a live CTA");
            slot.exec.step(&mut IssueBackend {
                device,
                shared: &mut cta.shared,
            })
        };

        let mut new_requests = 0;
        match outcome {
            StepOutcome::Ready => {
                let lat = match class {
                    InstrClass::IntAlu => Some(self.cfg.alu_latency),
                    InstrClass::FpAlu => Some(self.cfg.fp_latency),
                    InstrClass::Sfu => Some(self.cfg.sfu_latency),
                    _ => None,
                };
                if let (Some(d), Some(lat)) = (dst, lat) {
                    self.scoreboard.reserve(w, d);
                    self.alu_wb.push(Reverse((now.get() + lat, w, d)));
                }
            }
            StepOutcome::Mem(op) => {
                *lsu_used = true;
                if op.space == Space::Shared {
                    if let Some(d) = op.dst {
                        self.scoreboard.reserve(w, d);
                        self.alu_wb
                            .push(Reverse((now.get() + self.cfg.shared_latency, w, d)));
                    }
                } else {
                    // Atomics are read-modify-writes: each lane's operation
                    // is a separate transaction that serializes at the
                    // memory partition (same-address atomics do not
                    // coalesce, unlike plain loads/stores).
                    let mut lines = std::mem::take(&mut self.lines);
                    if op.is_atomic {
                        let granule = self.granule;
                        lines.extend(op.accesses.iter().map(|a| a.addr.align_down(granule)));
                    } else {
                        coalesce_into(&op.accesses, self.granule, &mut lines);
                    }
                    self.stats.transactions += lines.len() as u64;
                    if tracer.enabled() {
                        tracer.record(TraceEvent {
                            cycle: now.get(),
                            site: TraceSite::Sm(self.id.get()),
                            kind: EventKind::Coalesce {
                                warp: w as u32,
                                accesses: op.accesses.len() as u32,
                                lines: lines.len() as u32,
                            },
                        });
                    }
                    let pspace = match op.space {
                        Space::Global => PipelineSpace::Global,
                        Space::Local => PipelineSpace::Local,
                        Space::Shared => unreachable!("handled above"),
                    };
                    // Atomics need a response (they release a register), so
                    // they ride the load path; plain stores are fire-and-
                    // forget write-throughs.
                    let kind = if op.is_store && !op.is_atomic {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let token = if kind == AccessKind::Load {
                        let token = self.next_token;
                        self.next_token += 1;
                        if let Some(d) = op.dst {
                            self.scoreboard.reserve(w, d);
                        }
                        self.pending_loads.push_back((
                            token,
                            PendingLoad {
                                warp: w,
                                dst: op.dst,
                                pc: op.pc,
                                remaining: lines.len() as u32,
                                lines: lines.len() as u32,
                                issue: now,
                                stalls_at_issue: self.stats.stall_cycles,
                                stall_reasons_at_issue: self.stats.stalls,
                            },
                        ));
                        slot.pending_ops += 1;
                        self.stats.global_loads += 1;
                        token
                    } else {
                        self.stats.global_stores += 1;
                        NO_TOKEN
                    };
                    for line in lines.drain(..) {
                        let id = RequestId::new(((self.id.get() as u64) << 40) | self.next_req_id);
                        self.next_req_id += 1;
                        let mut req = MemRequest::new(
                            id,
                            line,
                            self.granule as u32,
                            kind,
                            pspace,
                            self.id,
                            token,
                            now,
                        );
                        req.bypass_l1 = op.is_atomic;
                        self.front
                            .push(now, req)
                            .unwrap_or_else(|_| panic!("front capacity checked at ready"));
                        new_requests += 1;
                    }
                    self.lines = lines;
                }
            }
            StepOutcome::Barrier => {
                let release = {
                    let cta = self.ctas[cta_index].as_mut().expect("live CTA");
                    cta.arrived += 1;
                    cta.arrived >= cta.live
                };
                if release {
                    self.release_cta_barrier(cta_index, w, &mut slot);
                }
            }
            StepOutcome::Finished => {
                let release = {
                    let cta = self.ctas[cta_index].as_mut().expect("live CTA");
                    cta.live -= 1;
                    cta.live > 0 && cta.arrived >= cta.live
                };
                if release {
                    self.release_cta_barrier(cta_index, w, &mut slot);
                }
            }
        }
        self.slots[w] = Some(slot);
        new_requests
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the SM's complete dynamic state: warp slots (each warp's
    /// functional state via [`WarpExec::encode_state`]), CTA runtimes with
    /// their shared-memory contents, the scoreboard, ALU writeback heap (in
    /// sorted order — the heap's internal layout is not deterministic), all
    /// memory-pipeline queues with absolute ready times, the MSHR table,
    /// pending-load bookkeeping (in token order) and statistics. Structural
    /// configuration (capacities, latencies) is *not* serialized — the GPU
    /// checkpoint stores the full [`GpuConfig`] once and rebuilds each SM
    /// from it before restoring.
    pub fn encode_state(&self, e: &mut Encoder) {
        e.usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                None => e.bool(false),
                Some(s) => {
                    e.bool(true);
                    s.exec.encode_state(e);
                    e.usize(s.cta_index);
                    e.u64(s.age);
                    e.u32(s.pending_ops);
                }
            }
        }
        e.usize(self.ctas.len());
        for cta in &self.ctas {
            match cta {
                None => e.bool(false),
                Some(c) => {
                    e.bool(true);
                    e.bytes(&c.shared);
                    e.usize(c.slots.len());
                    for &s in &c.slots {
                        e.usize(s);
                    }
                    e.usize(c.live);
                    e.usize(c.arrived);
                }
            }
        }
        self.scoreboard.encode_state(e);
        let mut wb: Vec<(u64, usize, Reg)> = self.alu_wb.iter().map(|r| r.0).collect();
        wb.sort_unstable();
        e.usize(wb.len());
        for (at, warp, reg) in wb {
            e.u64(at);
            e.usize(warp);
            e.u32(u32::from(reg));
        }
        codec::encode_req_queue(e, &self.front);
        match &self.l1_cache {
            None => e.bool(false),
            Some(c) => {
                e.bool(true);
                c.encode_state(e);
            }
        }
        self.l1_mshr
            .encode_state_with(e, |req, e| req.encode_state(e));
        codec::encode_req_queue(e, &self.l1_hit_pipe);
        codec::encode_req_fifo(e, &self.miss_queue);
        codec::encode_req_queue(e, &self.fill_pipe);
        e.usize(self.pending_loads.len());
        for (token, pl) in &self.pending_loads {
            e.u64(*token);
            e.usize(pl.warp);
            e.opt_u64(pl.dst.map(u64::from));
            e.usize(pl.pc);
            e.u32(pl.remaining);
            e.u32(pl.lines);
            e.u64(pl.issue.get());
            e.u64(pl.stalls_at_issue);
            stats::encode_breakdown(e, &pl.stall_reasons_at_issue);
        }
        e.u64(self.next_token);
        e.u64(self.next_req_id);
        e.usize(self.last_issued);
        e.opt_u64(self.greedy.map(|g| g as u64));
        e.u64(self.age_counter);
        self.stats.encode_state(e);
    }

    /// Overwrites this SM's dynamic state with a decoded checkpoint.
    /// `kernel` supplies the shared kernel and parameters live warps
    /// re-attach to (`None` when the checkpoint holds no launch, in which
    /// case any live warp is rejected).
    ///
    /// # Errors
    ///
    /// Rejects structural mismatches with this SM's configuration (slot and
    /// CTA counts, queue capacities, L1 presence), out-of-range indices and
    /// duplicate tokens, and propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut Decoder,
        kernel: Option<(&Arc<Kernel>, &Arc<[u64]>)>,
    ) -> Result<(), SnapshotError> {
        use SnapshotError::InvalidValue;
        let n_slots = self.slots.len();
        let n_ctas = self.ctas.len();
        if d.usize()? != n_slots {
            return Err(InvalidValue("warp slot count mismatch"));
        }
        for i in 0..n_slots {
            self.slots[i] = if d.bool()? {
                let Some((k, p)) = kernel else {
                    return Err(InvalidValue("live warp state without a launched kernel"));
                };
                let exec = WarpExec::decode(d, Arc::clone(k), Arc::clone(p))?;
                let cta_index = d.usize()?;
                if cta_index >= n_ctas {
                    return Err(InvalidValue("warp CTA index out of range"));
                }
                Some(WarpSlot {
                    exec,
                    cta_index,
                    age: d.u64()?,
                    pending_ops: d.u32()?,
                })
            } else {
                None
            };
        }
        if d.usize()? != n_ctas {
            return Err(InvalidValue("CTA slot count mismatch"));
        }
        for i in 0..n_ctas {
            self.ctas[i] = if d.bool()? {
                let shared = d.bytes()?.to_vec();
                let mut slot_ids = Vec::new();
                for _ in 0..d.usize()? {
                    let s = d.usize()?;
                    if s >= n_slots {
                        return Err(InvalidValue("CTA warp-slot index out of range"));
                    }
                    slot_ids.push(s);
                }
                let live = d.usize()?;
                let arrived = d.usize()?;
                if live > slot_ids.len() {
                    return Err(InvalidValue("CTA live-warp count exceeds its slots"));
                }
                Some(CtaRt {
                    shared,
                    slots: slot_ids,
                    live,
                    arrived,
                })
            } else {
                None
            };
        }
        self.occupied = self.slots.iter().filter(|s| s.is_some()).count();
        // Only a running kernel's instructions reserve registers.
        let num_regs = kernel.map_or(0, |(k, _)| k.num_regs());
        self.scoreboard.restore_state(d, num_regs)?;
        self.alu_wb.clear();
        for _ in 0..d.usize()? {
            let at = d.u64()?;
            let warp = d.usize()?;
            if warp >= n_slots {
                return Err(InvalidValue("writeback warp index out of range"));
            }
            let reg =
                Reg::try_from(d.u32()?).map_err(|_| InvalidValue("register number overflow"))?;
            self.alu_wb.push(Reverse((at, warp, reg)));
        }
        codec::restore_req_queue(&mut self.front, d, "front pipe occupancy exceeds capacity")?;
        match (d.bool()?, &mut self.l1_cache) {
            (true, Some(c)) => c.restore_state(d)?,
            (false, None) => {}
            _ => return Err(InvalidValue("L1 presence mismatch with configuration")),
        }
        self.l1_mshr.restore_state_with(d, MemRequest::decode)?;
        codec::restore_req_queue(
            &mut self.l1_hit_pipe,
            d,
            "L1 hit pipe occupancy exceeds capacity",
        )?;
        codec::restore_req_fifo(
            &mut self.miss_queue,
            d,
            "miss queue occupancy exceeds capacity",
        )?;
        codec::restore_req_queue(
            &mut self.fill_pipe,
            d,
            "fill pipe occupancy exceeds capacity",
        )?;
        let mut pending_loads: Vec<(u64, PendingLoad)> = Vec::new();
        for _ in 0..d.usize()? {
            let token = d.u64()?;
            let warp = d.usize()?;
            if warp >= n_slots {
                return Err(InvalidValue("pending-load warp index out of range"));
            }
            let dst = match d.opt_u64()? {
                None => None,
                Some(v) => {
                    Some(Reg::try_from(v).map_err(|_| InvalidValue("register number overflow"))?)
                }
            };
            let pl = PendingLoad {
                warp,
                dst,
                pc: d.usize()?,
                remaining: d.u32()?,
                lines: d.u32()?,
                issue: Cycle::new(d.u64()?),
                stalls_at_issue: d.u64()?,
                stall_reasons_at_issue: stats::decode_breakdown(d)?,
            };
            pending_loads.push((token, pl));
        }
        self.next_token = d.u64()?;
        pending_loads.sort_unstable_by_key(|&(token, _)| token);
        if pending_loads.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(InvalidValue("duplicate pending-load token"));
        }
        // A live token the SM has yet to hand out would be handed out again.
        if pending_loads
            .last()
            .is_some_and(|&(token, _)| token >= self.next_token)
        {
            return Err(InvalidValue("pending-load token not yet issued"));
        }
        self.pending_loads = pending_loads.into();
        self.next_req_id = d.u64()?;
        let last_issued = d.usize()?;
        if last_issued >= n_slots {
            return Err(InvalidValue("scheduler rotation index out of range"));
        }
        self.last_issued = last_issued;
        self.greedy = match d.opt_u64()? {
            None => None,
            Some(g) => {
                let g = g as usize;
                if g >= n_slots {
                    return Err(InvalidValue("greedy warp index out of range"));
                }
                Some(g)
            }
        };
        self.age_counter = d.u64()?;
        self.stats = SmStats::decode(d)?;
        Ok(())
    }

    /// Releases every warp of the CTA waiting at the barrier. `current` (the
    /// warp being issued, temporarily taken out of `slots`) is handled via
    /// its moved-out slot.
    fn release_cta_barrier(&mut self, cta_index: usize, current: usize, slot: &mut WarpSlot) {
        let cta = self.ctas[cta_index].as_mut().expect("live CTA");
        cta.arrived = 0;
        for &s in &cta.slots {
            let exec = if s == current {
                &mut slot.exec
            } else if let Some(other) = self.slots[s].as_mut() {
                &mut other.exec
            } else {
                continue;
            };
            if exec.at_barrier() {
                exec.release_barrier();
            }
        }
    }
}

/// Functional memory backend used during issue: global space resolves to
/// device memory, shared space to the executing CTA's scratchpad.
struct IssueBackend<'a> {
    device: &'a mut gpu_mem::DeviceMemory,
    shared: &'a mut [u8],
}

impl MemBackend for IssueBackend<'_> {
    fn load(&mut self, space: Space, addr: gpu_types::Addr, width: gpu_isa::Width) -> u64 {
        match space {
            Space::Shared => {
                let mut v = 0u64;
                for i in 0..width.bytes() {
                    let idx = (addr.get() + i) as usize;
                    v |= (*self.shared.get(idx).unwrap_or(&0) as u64) << (8 * i);
                }
                v
            }
            _ => self.device.read_le(addr, width.bytes()),
        }
    }

    fn store(&mut self, space: Space, addr: gpu_types::Addr, width: gpu_isa::Width, value: u64) {
        match space {
            Space::Shared => {
                for i in 0..width.bytes() {
                    let idx = (addr.get() + i) as usize;
                    if let Some(b) = self.shared.get_mut(idx) {
                        *b = (value >> (8 * i)) as u8;
                    }
                }
            }
            _ => self.device.write_le(addr, width.bytes(), value),
        }
    }

    fn atomic_add(&mut self, addr: gpu_types::Addr, width: gpu_isa::Width, value: u64) -> u64 {
        self.device.fetch_add(addr, width.bytes(), value)
    }
}
