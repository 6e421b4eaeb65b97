//! DRAM channel timing model with pluggable request scheduling.
//!
//! Models one GDDR channel per memory partition: a finite controller queue,
//! per-bank row-buffer state with activate/precharge/CAS timing, a shared
//! data bus, and a scheduler. Two schedulers are provided:
//!
//! - [`DramSched::FrFcfs`]: first-ready, first-come-first-served — prefers
//!   row-buffer hits, falling back to the oldest request. This is the
//!   arbitration whose queue-wait shows up as the paper's `DRAM(QtoSch)`
//!   component.
//! - [`DramSched::Fcfs`]: strict arrival order, the ablation baseline for the
//!   paper's suggestion that "request latency could potentially be reduced
//!   through usage of a different DRAM scheduling algorithm".

use std::collections::VecDeque;

use gpu_types::Cycle;

use crate::mapping::AddressMap;
use crate::request::{MemRequest, RequestId, Stamp};

/// DRAM core timing parameters, in hot-clock cycles.
///
/// A single clock domain is used for the whole model (see DESIGN.md), so
/// these values are already scaled to core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row-activate to column-access delay (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Column-access (CAS) latency (tCL).
    pub t_cl: u64,
    /// Data-burst duration on the bus per request.
    pub burst: u64,
}

impl DramTiming {
    /// Latency from scheduling to data for a row hit.
    pub fn row_hit(&self) -> u64 {
        self.t_cl
    }

    /// Latency for a bank whose open row differs (precharge + activate +
    /// CAS).
    pub fn row_conflict(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cl
    }

    /// Latency for a bank with no open row (activate + CAS).
    pub fn row_closed(&self) -> u64 {
        self.t_rcd + self.t_cl
    }
}

/// DRAM request scheduling algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramSched {
    /// First-ready FCFS: oldest row-hit first, then oldest overall.
    FrFcfs,
    /// Strict FCFS: only the oldest request is considered.
    Fcfs,
}

/// Configuration of one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Core timing.
    pub timing: DramTiming,
    /// Controller queue capacity.
    pub queue_capacity: usize,
    /// Scheduling algorithm.
    pub sched: DramSched,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// What a logged DRAM command did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramEventKind {
    /// A row was activated (opened) in a bank.
    Activate,
    /// A bank's open row was precharged (closed) ahead of a conflicting
    /// access.
    Precharge,
    /// A queued request was selected for service.
    Schedule,
}

/// One logged DRAM command, emitted when event logging is enabled (see
/// [`DramController::set_event_log`]). The tracing layer drains these into
/// its own event stream; keeping the log here avoids a dependency from the
/// memory model on the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramEvent {
    /// Cycle the command happened.
    pub at: Cycle,
    /// What happened.
    pub kind: DramEventKind,
    /// Bank index within this channel.
    pub bank: u32,
    /// Row the command refers to (for `Precharge`, the row that was open).
    pub row: u64,
    /// The request that triggered the command, when one did.
    pub id: Option<RequestId>,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub serviced: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer conflicts (different row open).
    pub row_conflicts: u64,
    /// Accesses to banks with no open row.
    pub row_closed: u64,
    /// Sum over requests of cycles spent waiting in the controller queue.
    pub queue_wait_cycles: u64,
}

/// One DRAM channel: queue + banks + data bus + scheduler.
pub struct DramController {
    config: DramConfig,
    map: AddressMap,
    queue: VecDeque<MemRequest>,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    in_service: Vec<(Cycle, MemRequest)>,
    stats: DramStats,
    log_events: bool,
    events: Vec<DramEvent>,
}

impl std::fmt::Debug for DramController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramController")
            .field("queued", &self.queue.len())
            .field("in_service", &self.in_service.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DramController {
    /// Creates a channel for the partition described by `map`.
    ///
    /// # Panics
    ///
    /// Panics if the queue capacity is zero.
    pub fn new(config: DramConfig, map: AddressMap) -> Self {
        assert!(
            config.queue_capacity > 0,
            "DRAM queue capacity must be positive"
        );
        DramController {
            config,
            map,
            queue: VecDeque::with_capacity(config.queue_capacity),
            banks: vec![Bank::default(); map.banks()],
            bus_free_at: Cycle::ZERO,
            in_service: Vec::new(),
            stats: DramStats::default(),
            log_events: false,
            events: Vec::new(),
        }
    }

    /// Enables or disables the command event log. Disabled (the default)
    /// costs nothing; enabled, every schedule/activate/precharge is
    /// appended for [`DramController::drain_events`] to collect.
    pub fn set_event_log(&mut self, on: bool) {
        self.log_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Takes the logged events accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<DramEvent> {
        std::mem::take(&mut self.events)
    }

    /// Returns `true` if the controller queue can accept a request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.config.queue_capacity
    }

    /// Requests waiting to be scheduled.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently in service (scheduled, data pending).
    pub fn in_service(&self) -> usize {
        self.in_service.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Enqueues a request at time `now`, stamping its `DramQueueEnter`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; check [`DramController::can_accept`].
    pub fn enqueue(&mut self, mut req: MemRequest, now: Cycle) {
        assert!(self.can_accept(), "DRAM queue overflow");
        req.timeline.record(Stamp::DramQueueEnter, now);
        self.queue.push_back(req);
    }

    /// Advances the channel one cycle: schedules at most one request and
    /// returns the requests whose data completed this cycle (stamped
    /// `DramDone`).
    pub fn tick(&mut self, now: Cycle) -> Vec<MemRequest> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// [`DramController::tick`] appending the completed requests to a
    /// caller-owned sink, so a per-cycle caller allocates nothing.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<MemRequest>) {
        self.try_schedule(now);
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].0 <= now {
                let (_, mut req) = self.in_service.swap_remove(i);
                req.timeline.record(Stamp::DramDone, now);
                done.push(req);
            } else {
                i += 1;
            }
        }
    }

    /// Returns `true` when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_empty()
    }

    /// The earliest cycle at which ticking this channel can change its
    /// state: the first in-service completion, or the first cycle a queued
    /// request the scheduler considers can start. Bank and bus state only
    /// move when a request is scheduled, so between `now` and that cycle
    /// every tick is a no-op. [`Cycle::MAX`] when idle.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let considered = match self.config.sched {
            DramSched::Fcfs => 1,
            DramSched::FrFcfs => self.queue.len(),
        };
        let start = self
            .queue
            .iter()
            .take(considered)
            .map(|r| self.start_time(r));
        let done = self.in_service.iter().map(|(at, _)| *at);
        start.chain(done).min().map_or(Cycle::MAX, |at| at.max(now))
    }

    /// The first cycle `req` can start service under the current bank and
    /// bus state: its bank accepts a command and the data bus will be free
    /// by the time its access completes (commands pipeline up to one access
    /// depth; anything beyond waits *in the queue*, which is what the
    /// paper's `DRAM(QtoSch)` component measures).
    fn start_time(&self, req: &MemRequest) -> Cycle {
        let bank = &self.banks[self.map.bank_of(req.addr)];
        let access = match bank.open_row {
            Some(open) if open == self.map.row_of(req.addr) => self.config.timing.row_hit(),
            Some(_) => self.config.timing.row_conflict(),
            None => self.config.timing.row_closed(),
        };
        let bus_allows = Cycle::new(self.bus_free_at.get().saturating_sub(access));
        bank.ready_at.max(bus_allows)
    }

    fn can_start(&self, req: &MemRequest, now: Cycle) -> bool {
        self.start_time(req) <= now
    }

    fn try_schedule(&mut self, now: Cycle) {
        if self.queue.is_empty() {
            return;
        }
        let pick = match self.config.sched {
            DramSched::Fcfs => {
                if self.can_start(&self.queue[0], now) {
                    Some(0)
                } else {
                    None
                }
            }
            DramSched::FrFcfs => {
                let mut fallback = None;
                let mut row_hit = None;
                for (i, req) in self.queue.iter().enumerate() {
                    if !self.can_start(req, now) {
                        continue;
                    }
                    if fallback.is_none() {
                        fallback = Some(i);
                    }
                    let bank = self.map.bank_of(req.addr);
                    if self.banks[bank].open_row == Some(self.map.row_of(req.addr)) {
                        row_hit = Some(i);
                        break; // oldest ready row-hit
                    }
                }
                row_hit.or(fallback)
            }
        };
        let Some(idx) = pick else { return };
        let mut req = self.queue.remove(idx).expect("picked index in range");
        let bank_idx = self.map.bank_of(req.addr);
        let row = self.map.row_of(req.addr);
        let t = &self.config.timing;
        // `access` is the pipeline *latency* to data; `busy` is how long the
        // bank is occupied before it can accept the next command. Column
        // accesses pipeline (a row hit only holds the bank for its burst),
        // while precharge/activate serialize on the bank.
        let open = self.banks[bank_idx].open_row;
        let (access, busy) = match open {
            Some(o) if o == row => {
                self.stats.row_hits += 1;
                (t.row_hit(), t.burst)
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                (t.row_conflict(), t.t_rp + t.t_rcd + t.burst)
            }
            None => {
                self.stats.row_closed += 1;
                (t.row_closed(), t.t_rcd + t.burst)
            }
        };
        if self.log_events {
            let bank = bank_idx as u32;
            let id = Some(req.id);
            match open {
                Some(o) if o == row => {}
                Some(o) => {
                    self.events.push(DramEvent {
                        at: now,
                        kind: DramEventKind::Precharge,
                        bank,
                        row: o,
                        id,
                    });
                    self.events.push(DramEvent {
                        at: now,
                        kind: DramEventKind::Activate,
                        bank,
                        row,
                        id,
                    });
                }
                None => {
                    self.events.push(DramEvent {
                        at: now,
                        kind: DramEventKind::Activate,
                        bank,
                        row,
                        id,
                    });
                }
            }
            self.events.push(DramEvent {
                at: now,
                kind: DramEventKind::Schedule,
                bank,
                row,
                id,
            });
        }
        req.timeline.record(Stamp::DramScheduled, now);
        if let Some(entered) = req.timeline.get(Stamp::DramQueueEnter) {
            self.stats.queue_wait_cycles += now.since(entered);
        }
        self.stats.serviced += 1;
        // Data burst serializes on the shared bus after the column access.
        let data_start = (now + access).max(self.bus_free_at);
        let done = data_start + t.burst;
        self.bus_free_at = done;
        let bank = &mut self.banks[bank_idx];
        bank.open_row = Some(row);
        bank.ready_at = now + busy;
        self.in_service.push((done, req));
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the controller queue, per-bank row state, bus occupancy,
    /// in-service requests, statistics and the (possibly undrained) command
    /// event log. Configuration and address map are not serialized; a
    /// restore target must be constructed identically.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.usize(self.queue.len());
        for req in &self.queue {
            req.encode_state(e);
        }
        e.usize(self.banks.len());
        for bank in &self.banks {
            e.opt_u64(bank.open_row);
            e.u64(bank.ready_at.get());
        }
        e.u64(self.bus_free_at.get());
        e.usize(self.in_service.len());
        for (done, req) in &self.in_service {
            e.u64(done.get());
            req.encode_state(e);
        }
        e.u64(self.stats.serviced);
        e.u64(self.stats.row_hits);
        e.u64(self.stats.row_conflicts);
        e.u64(self.stats.row_closed);
        e.u64(self.stats.queue_wait_cycles);
        e.bool(self.log_events);
        e.usize(self.events.len());
        for ev in &self.events {
            e.u64(ev.at.get());
            e.u8(match ev.kind {
                DramEventKind::Activate => 0,
                DramEventKind::Precharge => 1,
                DramEventKind::Schedule => 2,
            });
            e.u32(ev.bank);
            e.u64(ev.row);
            e.opt_u64(ev.id.map(RequestId::get));
        }
    }

    /// Overwrites this controller's dynamic state with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose queue exceeds this controller's capacity or
    /// whose bank count disagrees, and propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        let n = d.usize()?;
        if n > self.config.queue_capacity {
            return Err(InvalidValue("DRAM queue exceeds configured capacity"));
        }
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(MemRequest::decode(d)?);
        }
        if d.usize()? != self.banks.len() {
            return Err(InvalidValue("DRAM bank count mismatch"));
        }
        for bank in &mut self.banks {
            bank.open_row = d.opt_u64()?;
            bank.ready_at = Cycle::new(d.u64()?);
        }
        self.bus_free_at = Cycle::new(d.u64()?);
        self.in_service.clear();
        for _ in 0..d.usize()? {
            let done = Cycle::new(d.u64()?);
            self.in_service.push((done, MemRequest::decode(d)?));
        }
        self.stats.serviced = d.u64()?;
        self.stats.row_hits = d.u64()?;
        self.stats.row_conflicts = d.u64()?;
        self.stats.row_closed = d.u64()?;
        self.stats.queue_wait_cycles = d.u64()?;
        self.log_events = d.bool()?;
        self.events.clear();
        for _ in 0..d.usize()? {
            let at = Cycle::new(d.u64()?);
            let kind = match d.u8()? {
                0 => DramEventKind::Activate,
                1 => DramEventKind::Precharge,
                2 => DramEventKind::Schedule,
                _ => return Err(InvalidValue("unknown DramEventKind tag")),
            };
            let bank = d.u32()?;
            let row = d.u64()?;
            let id = d.opt_u64()?.map(RequestId::new);
            self.events.push(DramEvent {
                at,
                kind,
                bank,
                row,
                id,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessKind, PipelineSpace, RequestId};
    use gpu_types::{Addr, SmId};

    fn timing() -> DramTiming {
        DramTiming {
            t_rcd: 10,
            t_rp: 10,
            t_cl: 15,
            burst: 4,
        }
    }

    fn controller(sched: DramSched) -> DramController {
        DramController::new(
            DramConfig {
                timing: timing(),
                queue_capacity: 16,
                sched,
            },
            AddressMap::new(1, 256, 4, 1024),
        )
    }

    fn req(id: u64, addr: u64, now: u64) -> MemRequest {
        MemRequest::new(
            RequestId::new(id),
            Addr::new(addr),
            128,
            AccessKind::Load,
            PipelineSpace::Global,
            SmId::new(0),
            0,
            Cycle::new(now),
        )
    }

    fn run_until_done(
        c: &mut DramController,
        mut now: Cycle,
        limit: u64,
    ) -> Vec<(u64, MemRequest)> {
        let mut out = Vec::new();
        for _ in 0..limit {
            for r in c.tick(now) {
                out.push((now.get(), r));
            }
            if c.is_idle() {
                break;
            }
            now.tick();
        }
        out
    }

    #[test]
    fn closed_row_access_latency() {
        let mut c = controller(DramSched::FrFcfs);
        c.enqueue(req(1, 0, 0), Cycle::new(0));
        let done = run_until_done(&mut c, Cycle::new(0), 1000);
        assert_eq!(done.len(), 1);
        // scheduled at cycle 0: closed row = tRCD + tCL = 25, + burst 4 = 29.
        assert_eq!(done[0].0, 29);
        assert_eq!(c.stats().row_closed, 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        // Same row twice, then a different row in the same bank.
        let mut c = controller(DramSched::FrFcfs);
        c.enqueue(req(1, 0, 0), Cycle::new(0));
        c.enqueue(req(2, 128, 0), Cycle::new(0)); // same row 0 of bank 0
        let done = run_until_done(&mut c, Cycle::new(0), 10_000);
        assert_eq!(done.len(), 2);
        let s = c.stats();
        assert_eq!(s.row_closed, 1);
        assert_eq!(s.row_hits, 1);
        // Conflict: bank 0 row 1 lives at local 4096 (4 banks * 1024).
        let mut c2 = controller(DramSched::FrFcfs);
        c2.enqueue(req(1, 0, 0), Cycle::new(0));
        c2.enqueue(req(2, 4096, 0), Cycle::new(0));
        run_until_done(&mut c2, Cycle::new(0), 10_000);
        assert_eq!(c2.stats().row_conflicts, 1);
    }

    #[test]
    fn frfcfs_reorders_for_row_hits_fcfs_does_not() {
        // Queue: A(row0), B(row1 same bank), C(row0). FR-FCFS serves C before B.
        let order = |sched| {
            let mut c = controller(sched);
            c.enqueue(req(1, 0, 0), Cycle::new(0)); // row 0
            c.enqueue(req(2, 4096, 0), Cycle::new(0)); // row 1, bank 0
            c.enqueue(req(3, 64, 0), Cycle::new(0)); // row 0
            let done = run_until_done(&mut c, Cycle::new(0), 100_000);
            done.iter().map(|(_, r)| r.id.get()).collect::<Vec<_>>()
        };
        assert_eq!(order(DramSched::FrFcfs), vec![1, 3, 2]);
        assert_eq!(order(DramSched::Fcfs), vec![1, 2, 3]);
    }

    #[test]
    fn banks_overlap_but_bus_serializes_bursts() {
        // Two requests to different banks issued together: accesses overlap,
        // bursts serialize (4 cycles apart at completion).
        let mut c = controller(DramSched::FrFcfs);
        c.enqueue(req(1, 0, 0), Cycle::new(0)); // bank 0
        c.enqueue(req(2, 1024, 0), Cycle::new(0)); // bank 1
        let done = run_until_done(&mut c, Cycle::new(0), 10_000);
        assert_eq!(done.len(), 2);
        let t1 = done[0].0;
        let t2 = done[1].0;
        // First: scheduled cycle 0, done 29. Second: scheduled cycle 1,
        // access done 26 but bus busy until 29 -> done 33.
        assert_eq!(t1, 29);
        assert_eq!(t2, 33);
    }

    #[test]
    fn next_event_names_the_first_cycle_a_tick_changes_state() {
        // Conflicting rows in one bank plus a second bank: between events
        // the controller must be inert, and at each event it must move.
        for sched in [DramSched::FrFcfs, DramSched::Fcfs] {
            let mut c = controller(sched);
            assert_eq!(c.next_event(Cycle::new(7)), Cycle::MAX);
            c.enqueue(req(1, 0, 0), Cycle::new(0));
            c.enqueue(req(2, 4096, 0), Cycle::new(0));
            c.enqueue(req(3, 1024, 0), Cycle::new(0));
            let fingerprint = |c: &DramController| {
                let mut e = gpu_snapshot::Encoder::new();
                c.encode_state(&mut e);
                e.finish()
            };
            let mut now = Cycle::new(0);
            let mut events = 0;
            while !c.is_idle() {
                let at = c.next_event(now);
                assert!(at >= now && at != Cycle::MAX);
                let before = fingerprint(&c);
                while now < at {
                    assert!(c.tick(now).is_empty());
                    now.tick();
                }
                assert_eq!(fingerprint(&c), before, "state moved before {at}");
                c.tick(now);
                assert_ne!(fingerprint(&c), before, "nothing happened at {at}");
                now.tick();
                events += 1;
            }
            // Three schedules and three completions, none coinciding.
            assert_eq!(events, 6);
        }
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut c = DramController::new(
            DramConfig {
                timing: timing(),
                queue_capacity: 1,
                sched: DramSched::Fcfs,
            },
            AddressMap::new(1, 256, 4, 1024),
        );
        assert!(c.can_accept());
        c.enqueue(req(1, 0, 0), Cycle::new(0));
        assert!(!c.can_accept());
    }

    #[test]
    fn stamps_are_recorded() {
        let mut c = controller(DramSched::FrFcfs);
        c.enqueue(req(1, 0, 5), Cycle::new(5));
        let mut now = Cycle::new(5);
        let done = loop {
            let d = c.tick(now);
            if !d.is_empty() {
                break d;
            }
            now.tick();
        };
        let tl = &done[0].timeline;
        assert_eq!(tl.get(Stamp::DramQueueEnter), Some(Cycle::new(5)));
        assert_eq!(tl.get(Stamp::DramScheduled), Some(Cycle::new(5)));
        assert_eq!(tl.get(Stamp::DramDone), Some(now));
        assert!(c.stats().queue_wait_cycles == 0);
    }

    #[test]
    fn event_log_records_row_commands() {
        let mut c = controller(DramSched::Fcfs);
        c.set_event_log(true);
        c.enqueue(req(1, 0, 0), Cycle::new(0)); // closed bank: Activate
        c.enqueue(req(2, 128, 0), Cycle::new(0)); // row hit: Schedule only
        c.enqueue(req(3, 4096, 0), Cycle::new(0)); // conflict: Precharge+Activate
        run_until_done(&mut c, Cycle::new(0), 100_000);
        let events = c.drain_events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DramEventKind::Activate,
                DramEventKind::Schedule,
                DramEventKind::Schedule,
                DramEventKind::Precharge,
                DramEventKind::Activate,
                DramEventKind::Schedule,
            ]
        );
        assert_eq!(events[0].id, Some(RequestId::new(1)));
        assert_eq!(events[3].row, 0); // precharged row was row 0
        assert_eq!(events[4].row, 1);
        // Drain empties the log; once disabled, nothing is recorded.
        assert!(c.drain_events().is_empty());
        c.set_event_log(false);
        c.enqueue(req(4, 0, 0), Cycle::new(500));
        run_until_done(&mut c, Cycle::new(500), 100_000);
        assert!(c.drain_events().is_empty());
    }

    #[test]
    fn event_log_disabled_by_default() {
        let mut c = controller(DramSched::FrFcfs);
        c.enqueue(req(1, 0, 0), Cycle::new(0));
        run_until_done(&mut c, Cycle::new(0), 1000);
        assert!(c.drain_events().is_empty());
    }

    #[test]
    fn dram_codec_round_trips_mid_flight() {
        // Freeze the controller with work queued, a request in service and
        // row state established, restore into a fresh controller, and check
        // both finish identically.
        let mut c = controller(DramSched::FrFcfs);
        c.set_event_log(true);
        c.enqueue(req(1, 0, 0), Cycle::new(0));
        c.enqueue(req(2, 4096, 0), Cycle::new(0));
        c.enqueue(req(3, 128, 0), Cycle::new(0));
        let mut now = Cycle::new(0);
        for _ in 0..3 {
            c.tick(now);
            now.tick();
        }
        assert!(!c.is_idle(), "test wants a mid-flight snapshot");

        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();

        let mut restored = controller(DramSched::FrFcfs);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();

        // Re-encode equality.
        let mut e2 = gpu_snapshot::Encoder::new();
        restored.encode_state(&mut e2);
        assert_eq!(e2.finish(), framed);

        // Both controllers drain to the same completions and stats.
        let a = run_until_done(&mut c, now, 100_000);
        let b = run_until_done(&mut restored, now, 100_000);
        let ids =
            |v: &[(u64, MemRequest)]| v.iter().map(|(t, r)| (*t, r.id.get())).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(c.stats(), restored.stats());
        assert_eq!(c.drain_events(), restored.drain_events());
    }

    #[test]
    fn dram_restore_rejects_bank_mismatch() {
        let c = controller(DramSched::Fcfs);
        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();
        let mut wrong = DramController::new(
            DramConfig {
                timing: timing(),
                queue_capacity: 16,
                sched: DramSched::Fcfs,
            },
            AddressMap::new(1, 256, 8, 1024), // 8 banks, snapshot has 4
        );
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            wrong.restore_state(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    fn queue_wait_accumulates_under_load() {
        let mut c = controller(DramSched::Fcfs);
        for i in 0..8 {
            // All to the same bank, different rows: serialized conflicts.
            c.enqueue(req(i, i * 4096, 0), Cycle::new(0));
        }
        run_until_done(&mut c, Cycle::new(0), 100_000);
        assert!(c.stats().queue_wait_cycles > 0);
        assert_eq!(c.stats().serviced, 8);
    }

    /// EXPERIMENTS.md E5's synthetic ablation, asserted: 2 000 requests
    /// ping-ponging between two rows of one bank on the GF100 timing.
    /// FR-FCFS batches each row into hits; strict FCFS pays a row conflict
    /// on every request and takes ~18x longer.
    #[test]
    fn row_ping_pong_ablation_matches_the_recorded_result() {
        let drain = |sched| {
            let mut ctrl = DramController::new(
                DramConfig {
                    timing: DramTiming {
                        t_rcd: 80,
                        t_rp: 80,
                        t_cl: 321,
                        burst: 8,
                    },
                    queue_capacity: 64,
                    sched,
                },
                AddressMap::new(1, 256, 16, 2048),
            );
            let (n, mut next, mut done) = (2000u64, 0u64, 0u64);
            let mut now = Cycle::ZERO;
            while done < n {
                while next < n && ctrl.can_accept() {
                    let (row, col) = (next % 2, (next / 2) % 16);
                    ctrl.enqueue(req(next, row * 32768 + col * 128, 0), now);
                    next += 1;
                }
                done += ctrl.tick(now).len() as u64;
                now.tick();
            }
            (now.get(), ctrl.stats().row_hits)
        };
        assert_eq!(drain(DramSched::FrFcfs), (18_962, 1_983));
        assert_eq!(drain(DramSched::Fcfs), (336_242, 0));
    }
}
