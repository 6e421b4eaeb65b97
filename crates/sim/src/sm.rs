//! Streaming-multiprocessor timing model.
//!
//! An [`Sm`] owns warp slots (each wrapping a functional
//! [`gpu_isa::WarpExec`]), a scoreboard, ALU/SFU writeback tracking, and the
//! in-SM half of the memory pipeline: the front-end (address
//! generation/coalescing, the head of the paper's "SM Base" component), the
//! L1 data cache with MSHRs, the L1 miss queue toward the interconnect (the
//! paper's "L1toICNT" queue), and the response fill/writeback path (the tail
//! of "Fetch2SM"). Its pipes and MSHR merge lists hold handles into the
//! GPU's [`RequestTable`], where a request's record is created at issue and
//! leaves at writeback.

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
use crate::ready::{slot_bit, Open, ReadySet, WarpClass};
use crate::requests::{ReqHandle, RequestTable};
use crate::sanitizer::{Sanitizer, Site, Violation, FILL_QUEUE, FRONT_QUEUE};
use crate::scoreboard::Scoreboard;
use crate::stats::{self, CompletedRequest, LoadInstrRecord, SmStats, TraceSink};

/// Token value for requests with no pending-load entry (stores).
const NO_TOKEN: u64 = u64::MAX;

/// Slots in an SM's fill pipe: the most responses and woken MSHR waiters on
/// their way from the reply network to the register file at once. A
/// response is admitted only while more than its level's `max_merged`
/// slots are free ([`Sm::fill_space`]), so it and every waiter it wakes
/// always fit.
const FILL_PIPE_SLOTS: usize = 512;

#[derive(Debug)]
struct WarpSlot {
    exec: WarpExec,
    cta_index: usize,
    age: u64,
    pending_ops: u32,
}

/// Where the L1 stage sends the transaction at the front-end pipe's head
/// ([`Sm::l1_route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1Route {
    /// A structural stall: the miss queue, the MSHR table or the line's
    /// merge list is full, or every way of its set is reserved for an
    /// in-flight fill. Only an injection (which pops the miss queue) or a
    /// fill (which frees MSHR entries and reservations) clears one, and
    /// both happen in the SM's own full tick.
    Stall,
    /// A store, or an access the L1 does not serve: on to the miss queue.
    Forward,
    /// An L1 hit: into the hit pipe.
    Hit,
    /// A miss on a line already in flight: parks on its MSHR entry.
    Merge,
    /// A primary miss: reserves a way, allocates an MSHR entry and queues.
    Allocate,
}

#[derive(Debug)]
struct CtaRt {
    shared: Vec<u8>,
    slots: Vec<usize>,
    live: usize,
    arrived: usize,
}

/// A stall interval still open: from `start` on, every cycle is one on
/// which the SM issues nothing, for `reason`. Its cycles before `credited`
/// are in the counters already; the rest are credited when something reads
/// them (a full tick, [`Sm::stats`], a snapshot) or the interval closes.
#[derive(Debug, Clone, Copy)]
struct StallRun {
    reason: StallReason,
    start: Cycle,
    credited: Cycle,
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
    /// `cfg.max_warps_per_sm` warp slots — or none before the SM's first
    /// dispatch or restore ([`Sm::commit_slots`]); `ready` and `issued`
    /// take their storage with them. An SM no CTA reaches reads as all
    /// slots free. A warp stays in its slot from dispatch to retirement:
    /// the issue stage steps it there.
    slots: Vec<Option<WarpSlot>>,
    /// Occupied entries of `slots`, kept rather than recounted: dispatch
    /// adds a CTA's warps, [`Sm::maintain`] takes a retired CTA's away, and
    /// a restore recounts. Derived, so never serialized.
    occupied: usize,
    /// The ready set: one slot mask per [`WarpClass`], a slot's bit set
    /// in its warp's class while the warp is unfinished. Derived like
    /// `occupied`, so never serialized: [`Sm::reclassify`] keeps it on
    /// every event that can change a class, and a restore recomputes it.
    /// The scheduler, the stall vote and "can anything issue" read it with
    /// word operations, never visiting a warp.
    ready: ReadySet,
    ctas: Vec<Option<CtaRt>>,
    /// Resident CTAs whose warps have all exited (`live == 0`), waiting
    /// for their memory operations to drain before they retire: the only
    /// ones [`Sm::maintain`] can retire, so with none it looks at no CTA.
    drained: usize,
    scoreboard: Scoreboard,
    alu_wb: BinaryHeap<Reverse<(u64, usize, Reg)>>,
    front: DelayQueue<ReqHandle>,
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
    l1_mshr: MshrTable<ReqHandle>,
    l1_hit_pipe: DelayQueue<ReqHandle>,
    miss_queue: BoundedQueue<ReqHandle>,
    fill_pipe: DelayQueue<ReqHandle>,
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
    /// Warps that already issued in the current issue stage, one bit per
    /// slot in the words of `ready` (zero between ticks, so not
    /// serialized).
    issued: Vec<u64>,
    /// The issuing access's transaction addresses (scratch, empty between
    /// issues; kept for its capacity).
    lines: Vec<Addr>,
    /// Host-side: the last issue stage issued something. [`Sm::end_tick`]
    /// then asks the ready set whether a warp can issue next cycle, and the
    /// run loop re-votes an SM that issued and sleeps. Never serialized,
    /// never read by the model.
    issued_last_tick: bool,
    /// The open stall interval: `None` after a cycle the SM issued on or
    /// while it holds no warp. Its reason is what the SM's state votes for,
    /// so a cycle the run loop does not tick — the SM asleep, or the whole
    /// machine skipped — stalls for it, and only a full tick (or a re-vote
    /// after a CTA retires or arrives) changes it. Derived like `class`, so
    /// never serialized: a restore opens it with a fresh vote.
    stall_run: Option<StallRun>,
    age_counter: u64,
    stats: SmStats,
}

impl Sm {
    /// Creates an SM per the configuration.
    pub fn new(id: SmId, cfg: Arc<GpuConfig>) -> Self {
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
            slots: Vec::new(),
            occupied: 0,
            ready: ReadySet::default(),
            ctas: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            drained: 0,
            scoreboard: Scoreboard::new(cfg.max_warps_per_sm),
            alu_wb: BinaryHeap::new(),
            front: DelayQueue::new(cfg.lsu_queue, cfg.sm_base_latency),
            l1_desc,
            l1_routing: l1_desc.effective_routing(),
            granule: cfg.transaction_granule(),
            l1_cache,
            l1_mshr: MshrTable::new(l1_desc.mshr_config()),
            l1_hit_pipe: DelayQueue::new(cfg.lsu_queue, l1_hit_latency),
            miss_queue: BoundedQueue::new(l1_desc.queue),
            fill_pipe: DelayQueue::new(FILL_PIPE_SLOTS, cfg.fill_latency),
            pending_loads: VecDeque::new(),
            next_token: 0,
            next_req_id: 0,
            last_issued: 0,
            greedy: None,
            issued: Vec::new(),
            lines: Vec::new(),
            issued_last_tick: false,
            stall_run: None,
            age_counter: 0,
            stats: SmStats::default(),
            cfg,
        }
    }

    /// This SM's id.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Per-SM statistics, the open stall interval credited through the
    /// cycle before `now`.
    pub fn stats(&self, now: Cycle) -> SmStats {
        let mut stats = self.stats;
        if let Some((reason, cycles)) = self.owed(now) {
            stats.add_stall(reason, cycles);
        }
        stats
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
            self.l1_mshr
                .longest_over(self.l1_mshr.config().max_merged)
                .unwrap_or(0),
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
    /// catch it. MSHR occupancy feeds the stall vote, so the caller must
    /// wake the SM and re-vote its open stall interval.
    pub fn debug_seed_mshr_leak(&mut self, line: gpu_types::Addr) {
        assert!(
            self.l1_mshr.allocate(line),
            "seeding requires a free MSHR entry"
        );
    }

    /// Returns `true` if a CTA of `warps_needed` warps can be dispatched.
    pub fn can_dispatch(&self, warps_needed: usize) -> bool {
        self.cfg.max_warps_per_sm - self.live_warps() >= warps_needed
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
        self.commit_slots();
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
            self.reclassify(slot);
            slot_ids.push(slot);
        }
        self.occupied += slot_ids.len();
        self.ctas[cta_index] = Some(CtaRt {
            shared: vec![0u8; kernel.shared_bytes() as usize],
            live: slot_ids.len(),
            slots: slot_ids,
            arrived: 0,
        });
    }

    /// Gives the warp slots, the ready set and the issued mask their
    /// storage, all slots free, if they have none.
    fn commit_slots(&mut self) {
        if self.slots.is_empty() {
            let slots = self.cfg.max_warps_per_sm;
            self.slots = (0..slots).map(|_| None).collect();
            self.ready = ReadySet::new(slots);
            self.issued = vec![0; self.ready.words()];
        }
    }

    /// Retires CTAs whose warps have all exited and drained their pending
    /// memory operations.
    pub fn maintain(&mut self) {
        debug_assert_eq!(
            self.drained,
            self.ctas.iter().flatten().filter(|c| c.live == 0).count(),
            "drained CTAs"
        );
        if self.drained == 0 {
            return;
        }
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
                    debug_assert_eq!(self.ready.class_of(s), None, "a retired warp is not live");
                    if self.slots[s].take().is_some() {
                        self.occupied -= 1;
                    }
                    self.scoreboard.clear(s);
                }
                self.drained -= 1;
                self.stats.ctas_retired += 1;
            }
        }
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
    pub fn accept_response(
        &mut self,
        h: ReqHandle,
        now: Cycle,
        reqs: &RequestTable,
        tracer: &mut Tracer,
    ) {
        let req = &reqs[h];
        let fills_l1 = req.is_load() && !req.bypass_l1 && self.l1_routing.serves(req.space);
        let line = req.addr.align_down(self.granule);
        self.fill_pipe
            .push(now, h)
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
    /// memory responses, each leaving the request table here.
    /// When the sanitizer is active, every retired request's timeline is
    /// audited on its way out.
    pub fn tick_writeback(
        &mut self,
        now: Cycle,
        reqs: &mut RequestTable,
        sink: &mut TraceSink,
        mut sanitizer: Option<&mut Sanitizer>,
    ) {
        while let Some(&Reverse((c, w, r))) = self.alu_wb.peek() {
            if c > now.get() {
                break;
            }
            self.alu_wb.pop();
            self.scoreboard.release(w, r);
            self.reclassify(w);
        }
        // Two writeback ports: returned fills and L1 hits.
        for _ in 0..2 {
            match self.fill_pipe.pop_ready(now) {
                Some(h) => {
                    let req = reqs.remove(h);
                    self.complete_response(req, now, sink, sanitizer.as_deref_mut());
                }
                None => break,
            }
        }
        if let Some(h) = self.l1_hit_pipe.pop_ready(now) {
            let req = reqs.remove(h);
            self.complete_response(req, now, sink, sanitizer);
        }
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
            self.reclassify(pl.warp);
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

    /// Where the L1 stage would send `head`, the front-end pipe's head, in
    /// the SM's state now. Pure: [`Sm::tick_memory`] acts on it, and the
    /// wake planner asks it whether the head is stalled.
    fn l1_route(&self, head: &MemRequest) -> L1Route {
        if head.kind == AccessKind::Store || !self.l1_serves(head) {
            return if self.miss_queue.is_full() {
                L1Route::Stall
            } else {
                L1Route::Forward
            };
        }
        // Cache lines and MSHR entries are keyed by the transaction granule
        // (the sector on sectored machines, else the line); the coalescer
        // always sends aligned transactions, but align defensively.
        let addr = head.addr.align_down(self.granule);
        let l1 = self.l1_cache.as_ref().expect("served implies L1");
        if l1.probe(addr) {
            L1Route::Hit
        } else if self.l1_mshr.is_pending(addr) {
            if self.l1_mshr.can_merge(addr) {
                L1Route::Merge
            } else {
                L1Route::Stall // merge list full
            }
        } else if !self.l1_mshr.can_allocate() || self.miss_queue.is_full() || !l1.has_way(addr) {
            L1Route::Stall // every way reserved by in-flight fills, or full
        } else {
            L1Route::Allocate
        }
    }

    /// Whether the L1 serves `req`'s space (effective routing is masked by
    /// cache presence, so `true` implies the L1 exists).
    fn l1_serves(&self, req: &MemRequest) -> bool {
        !req.bypass_l1 && self.l1_routing.serves(req.space)
    }

    /// L1 access stage: moves at most one transaction from the front-end
    /// pipe into the hit pipe or the miss queue.
    pub fn tick_memory(&mut self, now: Cycle, reqs: &mut RequestTable, tracer: &mut Tracer) {
        let Some(&head) = self.front.front_ready(now) else {
            return;
        };
        let route = self.l1_route(&reqs[head]);
        if route == L1Route::Stall {
            return;
        }
        let h = self.front.pop_ready(now).expect("front head ready");
        let req = &mut reqs[h];
        let addr = req.addr.align_down(self.granule);
        match route {
            L1Route::Stall => unreachable!("a stalled head stays in the pipe"),
            L1Route::Forward => {
                req.timeline.record(Stamp::L1Access, now);
                if req.kind == AccessKind::Store && self.l1_serves(req) {
                    self.l1_cache
                        .as_mut()
                        .expect("served implies L1")
                        .store_invalidate(addr);
                }
                self.miss_queue.push(h).expect("capacity checked");
            }
            L1Route::Hit => {
                // No stamp here: a hit never leaves the SM, so its entire
                // lifetime counts as "SM Base" (the L1Access stamp is set
                // at writeback; see `complete_response`), matching the
                // paper's all-SM-Base short-latency buckets.
                let l1 = self.l1_cache.as_mut().expect("served implies L1");
                let _ = l1.load(addr); // records the hit
                self.l1_hit_pipe
                    .push(now, h)
                    .expect("hit pipe sized like the front pipe");
            }
            L1Route::Merge => {
                req.timeline.record(Stamp::L1Access, now);
                req.l1_merged = true;
                let l1 = self.l1_cache.as_mut().expect("served implies L1");
                let _ = l1.load(addr); // records the miss
                self.l1_mshr
                    .try_merge(addr, h)
                    .expect("merge space checked");
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site: TraceSite::Sm(self.id.get()),
                        kind: EventKind::MshrMerge { line: addr.get() },
                    });
                }
            }
            L1Route::Allocate => {
                let l1 = self.l1_cache.as_mut().expect("served implies L1");
                assert!(l1.reserve(addr), "a free way checked");
                req.timeline.record(Stamp::L1Access, now);
                let _ = l1.load(addr); // records the miss
                assert!(self.l1_mshr.allocate(addr), "capacity checked");
                self.miss_queue.push(h).expect("capacity checked");
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        cycle: now.get(),
                        site: TraceSite::Sm(self.id.get()),
                        kind: EventKind::MshrAllocate { line: addr.get() },
                    });
                }
            }
        }
    }

    /// Oldest request waiting to enter the interconnect, if any.
    pub fn peek_miss(&self) -> Option<ReqHandle> {
        self.miss_queue.front().copied()
    }

    /// Removes the oldest miss-queue request for network injection.
    pub fn pop_miss(&mut self) -> Option<ReqHandle> {
        self.miss_queue.pop()
    }

    // ---- issue stage ------------------------------------------------------

    /// Issue stage: schedules up to `issue_width` ready warps and executes
    /// one instruction each; a memory instruction's requests enter the
    /// request table here.
    pub fn tick_issue(
        &mut self,
        now: Cycle,
        reqs: &mut RequestTable,
        device: &mut gpu_mem::DeviceMemory,
        tracer: &mut Tracer,
    ) {
        let mut lsu_used = false;
        let mut issued = 0;
        // Only a memory issue fills the front pipe, and it takes the LSU
        // port with it: once asked, the answer holds for the whole stage.
        let front = self.front_block();
        for _ in 0..self.cfg.issue_width {
            let Some(w) = self.pick_warp(lsu_used, front) else {
                break;
            };
            let (i, bit) = slot_bit(w);
            self.issued[i] |= bit;
            issued += 1;
            self.issue_warp(w, now, reqs, device, tracer, &mut lsu_used);
        }
        self.issued_last_tick = issued > 0;
        if issued > 0 {
            // In place, not through a `memset` call: the mask is a word or
            // two.
            for m in &mut self.issued {
                if *m != 0 {
                    *m = 0;
                }
            }
            self.stats.active_cycles += 1;
            self.stats.instructions += issued;
            self.vote_run(None, now, tracer);
        } else {
            self.vote_run(self.stall_vote(), now, tracer);
        }
    }

    /// The reason a zero-issue cycle in the SM's current state stalls for;
    /// `None` when no warp is resident (such a cycle counts nothing).
    fn stall_vote(&self) -> Option<StallReason> {
        (self.live_warps() > 0).then(|| self.classify_stall())
    }

    /// The open stall interval's reason and how many of its cycles before
    /// `at` the counters lack.
    fn owed(&self, at: Cycle) -> Option<(StallReason, u64)> {
        self.stall_run
            .filter(|run| at > run.credited)
            .map(|run| (run.reason, at.since(run.credited)))
    }

    /// Credits the open stall interval's cycles before `at` to the counters.
    fn credit_run(&mut self, at: Cycle) {
        if let Some((reason, cycles)) = self.owed(at) {
            self.stats.add_stall(reason, cycles);
            self.stall_run.as_mut().expect("owed").credited = at;
        }
    }

    /// From cycle `at` on, the SM stalls for `vote` (`None`: it issues, or
    /// holds no warp). The open interval goes on if that is its reason;
    /// otherwise it closes at `at` — credited in full and, with the tracer
    /// on, recorded as one `Stall` event stamped `at` — and an interval for
    /// `vote` opens there.
    fn vote_run(&mut self, vote: Option<StallReason>, at: Cycle, tracer: &mut Tracer) {
        if self.stall_run.map(|run| run.reason) == vote {
            return;
        }
        self.credit_run(at);
        if let Some(run) = self.stall_run.take() {
            let cycles = at.since(run.start);
            if cycles > 0 && tracer.enabled() {
                tracer.record(TraceEvent {
                    cycle: at.get(),
                    site: TraceSite::Sm(self.id.get()),
                    kind: EventKind::Stall {
                        reason: run.reason,
                        cycles,
                    },
                });
            }
        }
        self.stall_run = vote.map(|reason| StallRun {
            reason,
            start: at,
            credited: at,
        });
    }

    /// Votes again for the cycles from `at` on, after something other than
    /// the issue stage changed what the SM waits on: its last CTA retired
    /// (no warp, so no vote), a CTA arrived, or a restore rebuilt it. The
    /// run loop calls it once no more events of the cycle before `at` can
    /// be recorded, so a closing interval keeps the trace in cycle order.
    pub(crate) fn revote(&mut self, at: Cycle, tracer: &mut Tracer) {
        self.vote_run(self.stall_vote(), at, tracer);
    }

    /// Closes the open stall interval at `at` and opens its continuation
    /// there: the trace gets the interval so far (a checkpoint, or the
    /// trace being taken), and the SM goes on stalling for the same reason.
    pub(crate) fn cut_run(&mut self, at: Cycle, tracer: &mut Tracer) {
        let reason = self.stall_run.map(|run| run.reason);
        self.vote_run(None, at, tracer);
        self.vote_run(reason, at, tracer);
    }

    /// Opens the SM's full tick at `now`: the open stall interval's cycles
    /// so far go into the counters first, so what the tick reads of them —
    /// a load's exposure at writeback — counts every cycle before `now`.
    pub(crate) fn begin_tick(&mut self, now: Cycle) {
        debug_assert!(
            self.stall_run
                .is_none_or(|run| Some(run.reason) == self.stall_vote()),
            "SM {}: the state changed under an open stall interval",
            self.id.get()
        );
        self.credit_run(now);
    }

    // ---- sleeping ---------------------------------------------------------

    /// The first cycle after `now` an ALU/shared writeback or a
    /// memory-pipe head matures ([`Cycle::MAX`] with none in flight), or
    /// a cycle already past for a matured head still to be taken. A
    /// matured front-end head the L1 stage stalls ([`L1Route::Stall`]) is
    /// no maturity: only an injection or a fill clears its stall, and each
    /// is part of a full tick of this SM — one the SM is due for anyway,
    /// by its port registration or its reply port — after which the wake
    /// is planned again.
    fn next_maturity(&self, now: Cycle, reqs: &RequestTable) -> Cycle {
        let mut next = Cycle::MAX;
        if let Some(&Reverse((at, _, _))) = self.alu_wb.peek() {
            next = Cycle::new(at);
        }
        if let Some((at, &head)) = self.front.entries().next() {
            if at < next && (at > now || self.l1_route(&reqs[head]) != L1Route::Stall) {
                next = at;
            }
        }
        for pipe in [&self.l1_hit_pipe, &self.fill_pipe] {
            if let Some(at) = pipe.next_ready() {
                next = next.min(at);
            }
        }
        next
    }

    /// Ends the SM's full tick at `now`: retires drained CTAs, then plans
    /// how long the SM may sleep and returns that wake cycle — the one
    /// place it is planned (the run loop stores it). `port_blocked` says
    /// the miss queue's head waits on a full request-network queue (not
    /// merely on this cycle's injection budget): only an ejection at that
    /// port frees a slot, and the run loop wakes the SM for it. An SM that
    /// issued nothing and holds no miss that could inject next cycle has
    /// no ready warp (the issue stage just looked, and retirement readies
    /// none), so until its next maturity every tick is the identity: each
    /// such cycle stalls for the open interval's reason, and nothing calls
    /// the SM for it. Retirement removes only finished warps, which cast
    /// no vote, so it changes the vote only by emptying the SM; the run
    /// loop then re-votes ([`Sm::revote`]). An SM that issued sleeps the
    /// same way when the ready set says no warp can issue next cycle; its
    /// issue closed its stall interval, so the run loop re-votes it too,
    /// opening the interval its next cycle would.
    pub(crate) fn end_tick(
        &mut self,
        now: Cycle,
        port_blocked: bool,
        reqs: &RequestTable,
    ) -> Cycle {
        self.maintain();
        let miss_waits = !self.miss_queue.is_empty() && !port_blocked;
        if miss_waits || (self.issued_last_tick && self.issuable(false, self.front_block())) {
            Cycle::ZERO
        } else {
            self.next_maturity(now, reqs)
        }
    }

    /// Whether the SM's last full tick issued an instruction.
    pub(crate) fn issued_last_tick(&self) -> bool {
        self.issued_last_tick
    }

    // ---- the ready set ----------------------------------------------------

    /// Slot `w`'s class as its warp's state says now; `None` when the slot
    /// is empty or its warp has drained and only waits for its CTA to
    /// retire — such warps neither issue nor vote.
    fn fresh_class(&self, w: usize) -> Option<WarpClass> {
        let slot = self.slots[w].as_ref().filter(|s| !s.exec.is_finished())?;
        if slot.exec.at_barrier() {
            return Some(WarpClass::Barrier);
        }
        let Some((_, instr)) = slot.exec.peek() else {
            return Some(WarpClass::Stuck);
        };
        if !self.scoreboard.can_issue(w, instr) {
            return Some(WarpClass::Scoreboard);
        }
        Some(match instr.class() {
            InstrClass::Mem {
                space: Space::Shared,
                ..
            } => WarpClass::Shared,
            InstrClass::Mem { .. } => WarpClass::Global,
            _ => WarpClass::Ready,
        })
    }

    /// Brings slot `w`'s bit in the ready set up to date with the slot's
    /// state. Every event that can change a warp's class calls it: the
    /// warp's dispatch, its own issue (which also finishes it), a
    /// scoreboard release on it, and its CTA's barrier release. A slot
    /// with no live warp before and after is a no-op.
    fn reclassify(&mut self, w: usize) {
        let class = self.fresh_class(w);
        self.ready.set(w, class);
    }

    /// Recomputes the whole ready set from the warps (a restore: it is
    /// derived, so a checkpoint does not carry it).
    fn rebuild_ready_set(&mut self) {
        self.ready.clear();
        for w in 0..self.slots.len() {
            self.reclassify(w);
        }
    }

    /// Recounts the ready set from the warps and panics on any drift: each
    /// slot's bit must be set in exactly the class its warp's state says
    /// now (in none for a free slot or a finished warp), and in no other.
    /// Run (in debug builds) wherever the set is read.
    fn assert_ready_set(&self) {
        self.ready.assert_well_formed(self.slots.len());
        for w in 0..self.slots.len() {
            assert_eq!(
                self.ready.class_of(w),
                self.fresh_class(w),
                "SM {} slot {w}: stale class",
                self.id.get()
            );
        }
    }

    /// Whether the front-end pipe lacks room for a global or local access —
    /// worst case one line per lane plus one boundary crossing — and, if
    /// so, the stall reason the back-pressure behind it names. SM-wide
    /// state: asked once for every [`WarpClass::Global`] warp at once.
    fn front_block(&self) -> Option<StallReason> {
        let need = self.cfg.warp_size as usize + 1;
        (self.front.capacity() - self.front.len() < need).then(|| {
            if !self.l1_mshr.can_allocate() {
                StallReason::MshrFull
            } else if self.miss_queue.is_full() {
                StallReason::IcntBackpressure
            } else {
                StallReason::Other
            }
        })
    }

    /// Whether a live warp could issue given the LSU port and the front
    /// pipe — those that already issued this tick included.
    fn issuable(&self, lsu_used: bool, front: Option<StallReason>) -> bool {
        if cfg!(debug_assertions) {
            self.assert_ready_set();
        }
        self.ready.any(&Open::new(lsu_used, front))
    }

    /// Every live warp's vote at the start of a tick — the first condition
    /// keeping it from issuing, [`StallReason::Other`] for a warp that
    /// could issue — tallied from the class masks' popcounts, without
    /// visiting a warp. The votes total the SM's unfinished warps.
    pub fn stall_votes(&self) -> StallBreakdown {
        if cfg!(debug_assertions) {
            self.assert_ready_set();
        }
        let front = self.front_block();
        let mut votes = StallBreakdown::new();
        for (c, n) in WarpClass::ALL.into_iter().zip(self.ready.counts()) {
            let reason = c.blocked_by(false, front).unwrap_or(StallReason::Other);
            votes.bump_by(reason, n);
        }
        votes
    }

    /// Names the dominant reason this SM issued nothing despite live warps:
    /// every live warp votes ([`Sm::stall_votes`]), and the reason with the
    /// most votes wins (ties break in [`StallReason::ALL`] order). This
    /// refines the paper's Fig. 2 exposed/hidden split — a zero-issue cycle
    /// becomes exposed *because of* something.
    fn classify_stall(&self) -> StallReason {
        let votes = self.stall_votes();
        let mut best = StallReason::Other;
        let mut best_votes = 0u64;
        for r in StallReason::ALL {
            if votes.get(r) > best_votes {
                best = r;
                best_votes = votes.get(r);
            }
        }
        best
    }

    /// The scheduler: the next warp to issue, found by word operations on
    /// the ready set — the open classes' masks, less the warps that issued
    /// this stage. LRR takes the lowest candidate above the last issued,
    /// else the lowest; GTO its greedy warp if that is a candidate, else
    /// the oldest candidate (equal ages, which a decoded checkpoint can
    /// hold, go to the lowest slot).
    fn pick_warp(&mut self, lsu_used: bool, front: Option<StallReason>) -> Option<usize> {
        debug_assert!(lsu_used || front == self.front_block());
        if cfg!(debug_assertions) {
            self.assert_ready_set();
        }
        let open = Open::new(lsu_used, front);
        match self.cfg.scheduler {
            SchedPolicy::Lrr => {
                let picked = self.ready.lrr(&open, &self.issued, self.last_issued);
                if let Some(w) = picked {
                    self.last_issued = w;
                }
                picked
            }
            SchedPolicy::Gto => {
                let slots = &self.slots;
                let age = |w: usize| slots[w].as_ref().expect("live").age;
                let picked = self.ready.gto(&open, &self.issued, self.greedy, age);
                if picked.is_some() {
                    self.greedy = picked;
                }
                picked
            }
        }
    }

    fn issue_warp(
        &mut self,
        w: usize,
        now: Cycle,
        reqs: &mut RequestTable,
        device: &mut gpu_mem::DeviceMemory,
        tracer: &mut Tracer,
        lsu_used: &mut bool,
    ) {
        // The warp steps where it sits: `slot` borrows its slot, and the
        // rest of the SM is reached through its other fields.
        let slot = self.slots[w]
            .as_mut()
            .expect("scheduler picked a live warp");
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
                    let accesses = slot.exec.accesses();
                    if op.is_atomic {
                        let granule = self.granule;
                        lines.extend(accesses.iter().map(|a| a.addr.align_down(granule)));
                    } else {
                        coalesce_into(accesses, self.granule, &mut lines);
                    }
                    self.stats.transactions += lines.len() as u64;
                    if tracer.enabled() {
                        tracer.record(TraceEvent {
                            cycle: now.get(),
                            site: TraceSite::Sm(self.id.get()),
                            kind: EventKind::Coalesce {
                                warp: w as u32,
                                accesses: accesses.len() as u32,
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
                            .push(now, reqs.insert(req))
                            .unwrap_or_else(|_| panic!("front capacity checked at ready"));
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
                    self.release_cta_barrier(cta_index);
                }
            }
            StepOutcome::Finished => {
                let release = {
                    let cta = self.ctas[cta_index].as_mut().expect("live CTA");
                    cta.live -= 1;
                    if cta.live == 0 {
                        self.drained += 1;
                    }
                    cta.live > 0 && cta.arrived >= cta.live
                };
                if release {
                    self.release_cta_barrier(cta_index);
                }
            }
        }
        self.reclassify(w);
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the SM's complete dynamic state: warp slots (each warp's
    /// functional state via [`WarpExec::encode_state`]), CTA runtimes with
    /// their shared-memory contents, the scoreboard, ALU writeback heap (in
    /// sorted order — the heap's internal layout is not deterministic), all
    /// memory-pipeline queues with absolute ready times, the MSHR table,
    /// pending-load bookkeeping (in token order) and statistics, credited
    /// through the cycle before `now` ([`Sm::stats`]). Structural
    /// configuration (capacities, latencies) is *not* serialized — the GPU
    /// checkpoint stores the full [`GpuConfig`] once and rebuilds each SM
    /// from it before restoring.
    pub fn encode_state(&self, e: &mut Encoder, now: Cycle, reqs: &RequestTable) {
        let n_slots = self.cfg.max_warps_per_sm;
        e.usize(n_slots);
        for i in 0..n_slots {
            match self.slots.get(i).and_then(Option::as_ref) {
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
        codec::encode_req_queue(e, &self.front, reqs);
        match &self.l1_cache {
            None => e.bool(false),
            Some(c) => {
                e.bool(true);
                c.encode_state(e);
            }
        }
        self.l1_mshr
            .encode_state_with(e, |&h, e| reqs[h].encode_state(e));
        codec::encode_req_queue(e, &self.l1_hit_pipe, reqs);
        codec::encode_req_fifo(e, &self.miss_queue, reqs);
        codec::encode_req_queue(e, &self.fill_pipe, reqs);
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
        self.stats(now).encode_state(e);
    }

    /// Overwrites this SM's dynamic state with a decoded checkpoint.
    /// `kernel` supplies the shared kernel and parameters live warps
    /// re-attach to (`None` when the checkpoint holds no launch, in which
    /// case any live warp is rejected); each decoded request is stored in
    /// `reqs` (a fresh SM's: the handles it held before are dropped, not
    /// freed).
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
        reqs: &mut RequestTable,
    ) -> Result<(), SnapshotError> {
        use SnapshotError::InvalidValue;
        self.commit_slots();
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
        self.drained = self.ctas.iter().flatten().filter(|c| c.live == 0).count();
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
        codec::restore_req_queue(
            &mut self.front,
            d,
            reqs,
            "front pipe occupancy exceeds capacity",
        )?;
        match (d.bool()?, &mut self.l1_cache) {
            (true, Some(c)) => c.restore_state(d)?,
            (false, None) => {}
            _ => return Err(InvalidValue("L1 presence mismatch with configuration")),
        }
        self.l1_mshr
            .restore_state_with(d, |d| codec::decode_req(d, reqs))?;
        codec::restore_req_queue(
            &mut self.l1_hit_pipe,
            d,
            reqs,
            "L1 hit pipe occupancy exceeds capacity",
        )?;
        codec::restore_req_fifo(
            &mut self.miss_queue,
            d,
            reqs,
            "miss queue occupancy exceeds capacity",
        )?;
        codec::restore_req_queue(
            &mut self.fill_pipe,
            d,
            reqs,
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
        self.rebuild_ready_set();
        Ok(())
    }

    /// Releases every warp of the CTA waiting at the barrier and
    /// reclassifies each.
    fn release_cta_barrier(&mut self, cta_index: usize) {
        let cta = self.ctas[cta_index].as_mut().expect("live CTA");
        cta.arrived = 0;
        let members = std::mem::take(&mut cta.slots);
        for &s in &members {
            if let Some(warp) = self.slots[s].as_mut().filter(|w| w.exec.at_barrier()) {
                warp.exec.release_barrier();
                self.reclassify(s);
            }
        }
        self.ctas[cta_index].as_mut().expect("live CTA").slots = members;
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

    fn load_lanes(
        &mut self,
        space: Space,
        width: gpu_isa::Width,
        lanes: &[gpu_isa::LaneAccess],
        values: &mut [u64],
    ) {
        match space {
            Space::Shared => {
                for (a, v) in lanes.iter().zip(values) {
                    *v = self.load(space, a.addr, width);
                }
            }
            _ => self
                .device
                .read_lanes(width.bytes(), lanes.iter().map(|a| a.addr), values),
        }
    }

    fn store_lanes(
        &mut self,
        space: Space,
        width: gpu_isa::Width,
        lanes: &[gpu_isa::LaneAccess],
        values: &[u64],
    ) {
        match space {
            Space::Shared => {
                for (a, &v) in lanes.iter().zip(values) {
                    self.store(space, a.addr, width, v);
                }
            }
            _ => self.device.write_lanes(
                width.bytes(),
                lanes.iter().zip(values).map(|(a, &v)| (a.addr, v)),
            ),
        }
    }

    fn atomic_add(&mut self, addr: gpu_types::Addr, width: gpu_isa::Width, value: u64) -> u64 {
        self.device.fetch_add(addr, width.bytes(), value)
    }
}
