//! The explicit tick schedule and the [`ClockedComponent`] trait.
//!
//! Historically the per-cycle stage wiring lived as hand-ordered code spread
//! across `gpu.rs`, `sm.rs` and `partition.rs`. It now lives in one place: a
//! [`TickSchedule`] derived from the machine description lists the stages a
//! cycle executes, in order, and [`crate::Gpu::tick`] is a plain interpreter
//! over that list (the run loop interprets the same list, leaving out the
//! ticks of sleeping components). The order encodes the same-cycle
//! visibility rules of the model (partitions drain DRAM before replies
//! inject; SMs eject replies before issuing; the audit sees the machine
//! between cycles), so the schedule is deterministic by construction — two
//! GPUs built from the same description execute identical stage sequences.
//!
//! [`ClockedComponent`] is the uniform surface the cycle loop and the
//! sanitizer use to treat SMs, memory partitions and the two crossbar
//! networks alike: idleness, request occupancy, the next-event horizon that
//! idle-cycle skipping jumps to, and the structural audits.
//! Adding a component kind to the machine means implementing this trait and
//! placing its stage in the schedule — not editing three files.

use gpu_icnt::Crossbar;
use gpu_mem::MemRequest;
use gpu_types::Cycle;

use crate::config::GpuConfig;
use crate::partition::Partition;
use crate::sanitizer::Sanitizer;
use crate::sm::Sm;

/// One stage of the per-cycle schedule. Stages are `Copy` and carry no
/// payload: the schedule is pure control flow, all state lives on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickStage {
    /// Open both crossbar cycles (per-port injection budgets reset).
    BeginNetworks,
    /// Tick every memory partition: DRAM completions, L2 access, ROP exit.
    TickPartitions,
    /// Inject partition returns into the reply network.
    InjectReplies,
    /// Eject the request network into partition ROP pipelines.
    EjectRequests,
    /// Tick every SM: writeback, reply ejection, L1 access, miss injection,
    /// issue, CTA retirement.
    TickSms,
    /// Dispatch pending CTAs onto free SMs (round-robin).
    DispatchCtas,
    /// Cycle-level invariant sweep (present only when the sanitizer is on).
    AuditInvariants,
    /// Counter sampling at the tracer's interval (the stage is always
    /// scheduled; whether a sample fires is the tracer's runtime decision,
    /// since event tracing can be toggled mid-run).
    SampleCounters,
    /// Advance the global cycle counter. Always last.
    AdvanceClock,
}

/// The deterministic per-cycle stage list, derived from the machine
/// description at construction and fixed for the GPU's lifetime.
#[derive(Debug, Clone)]
pub struct TickSchedule {
    stages: Vec<TickStage>,
}

impl TickSchedule {
    /// Derives the schedule for a machine. The stage order is structural —
    /// it encodes the model's same-cycle visibility rules — while the
    /// description decides which optional stages exist (the invariant audit
    /// runs only on sanitizing machines; `sanitize` is fixed at
    /// construction, unlike tracing).
    pub fn derive(cfg: &GpuConfig) -> Self {
        let mut stages = vec![
            TickStage::BeginNetworks,
            TickStage::TickPartitions,
            TickStage::InjectReplies,
            TickStage::EjectRequests,
            TickStage::TickSms,
            TickStage::DispatchCtas,
        ];
        if cfg.sanitize {
            stages.push(TickStage::AuditInvariants);
        }
        stages.push(TickStage::SampleCounters);
        stages.push(TickStage::AdvanceClock);
        TickSchedule { stages }
    }

    /// Number of stages per cycle.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the schedule has no stages (never the case for a
    /// derived schedule).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> TickStage {
        self.stages[i]
    }

    /// The full stage list, in execution order.
    pub fn stages(&self) -> &[TickStage] {
        &self.stages
    }
}

/// A clocked hardware component the cycle loop and the sanitizer can treat
/// uniformly: it can be empty, it holds some number of in-flight
/// SM-originated requests, and it can be audited per-cycle and at drain.
pub trait ClockedComponent {
    /// Returns `true` when the component holds no work.
    fn is_idle(&self) -> bool;

    /// SM-originated memory requests currently inside this component
    /// (feeds the global conservation check).
    fn in_flight_requests(&self) -> u64;

    /// The earliest cycle at which ticking this component could change its
    /// state, assuming no other component hands it work before then (each
    /// reports its own hand-offs, and the run loop takes the minimum):
    /// `now` if it could act right away *or is unsure*, [`Cycle::MAX`] if
    /// nothing is pending. The run loop jumps the clock over the cycles
    /// before the machine-wide minimum instead of ticking them (DESIGN.md,
    /// "Idle-cycle skipping"), so an answer may be early but never late.
    ///
    /// An SM or partition that went to sleep at the end of its last full
    /// tick answers the wake cycle it stored then, without looking at its
    /// queues again (DESIGN.md, "Sleeping components"): the same horizon,
    /// derived once, and still valid because everything that hands a
    /// sleeper work zeroes the stored cycle.
    fn next_event(&self, now: Cycle) -> Cycle;

    /// Per-cycle structural audit (queue and MSHR capacity checks).
    /// Components without audited structures keep the default no-op.
    fn audit(&self, _san: &mut Sanitizer) {}

    /// End-of-run audit after a drained run (leak detection). Components
    /// that cannot leak keep the default no-op.
    fn audit_drained(&self, _san: &mut Sanitizer) {}
}

impl ClockedComponent for Sm {
    fn is_idle(&self) -> bool {
        Sm::is_idle(self)
    }

    fn in_flight_requests(&self) -> u64 {
        Sm::in_flight_requests(self)
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        Sm::next_event(self, now)
    }

    fn audit(&self, san: &mut Sanitizer) {
        Sm::audit(self, san);
    }

    fn audit_drained(&self, san: &mut Sanitizer) {
        Sm::audit_drained(self, san);
    }
}

impl ClockedComponent for Partition {
    fn is_idle(&self) -> bool {
        Partition::is_idle(self)
    }

    fn in_flight_requests(&self) -> u64 {
        Partition::in_flight_requests(self)
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        Partition::next_event(self, now)
    }

    fn audit(&self, san: &mut Sanitizer) {
        Partition::audit(self, san);
    }

    fn audit_drained(&self, san: &mut Sanitizer) {
        Partition::audit_drained(self, san);
    }
}

// The crossbars participate in idleness and conservation; their capacity
// bounds are enforced by `can_inject`, so the audits stay no-ops.
impl ClockedComponent for Crossbar<MemRequest> {
    fn is_idle(&self) -> bool {
        Crossbar::is_idle(self)
    }

    fn in_flight_requests(&self) -> u64 {
        self.in_flight() as u64
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        Crossbar::next_event(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_includes_audit_only_when_sanitizing() {
        let mut cfg = GpuConfig::fermi_gf100();
        cfg.sanitize = true;
        let with = TickSchedule::derive(&cfg);
        assert!(with.stages().contains(&TickStage::AuditInvariants));
        cfg.sanitize = false;
        let without = TickSchedule::derive(&cfg);
        assert!(!without.stages().contains(&TickStage::AuditInvariants));
        assert_eq!(with.len(), without.len() + 1);
    }

    #[test]
    fn schedule_order_is_structural() {
        let s = TickSchedule::derive(&GpuConfig::fermi_gf100());
        assert_eq!(s.stage(0), TickStage::BeginNetworks);
        assert_eq!(s.stage(s.len() - 1), TickStage::AdvanceClock);
        let pos = |t: TickStage| s.stages().iter().position(|&x| x == t).unwrap();
        // Partitions drain before replies inject; SMs run after ejection;
        // the audit sees the machine after all components moved.
        assert!(pos(TickStage::TickPartitions) < pos(TickStage::InjectReplies));
        assert!(pos(TickStage::EjectRequests) < pos(TickStage::TickSms));
        assert!(pos(TickStage::TickSms) < pos(TickStage::AuditInvariants));
    }
}
