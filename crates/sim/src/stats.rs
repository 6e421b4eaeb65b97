//! Simulation statistics and the latency trace types consumed by the
//! dynamic-latency analysis in `latency-core`.

use gpu_isa::Pc;
use gpu_mem::{PipelineSpace, Timeline};
use gpu_snapshot::{Decoder, Encoder, SnapshotError};
use gpu_trace::{MetricsReport, StallBreakdown, StallReason};
use gpu_types::{Cycle, SmId};

/// A completed, traced memory request (one line fetch), with its full stamp
/// timeline — the unit of the paper's Figure 1 breakdown.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Stamps collected over the request's lifetime.
    pub timeline: Timeline,
    /// Global or local space.
    pub space: PipelineSpace,
    /// Issuing SM.
    pub sm: SmId,
}

impl CompletedRequest {
    /// Serializes this record.
    pub fn encode_state(&self, e: &mut Encoder) {
        self.timeline.encode_state(e);
        e.u8(match self.space {
            PipelineSpace::Global => 0,
            PipelineSpace::Local => 1,
        });
        e.u32(self.sm.get());
    }

    /// Decodes a record written by [`CompletedRequest::encode_state`].
    ///
    /// # Errors
    ///
    /// Rejects unknown space tags and propagates decoder errors.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let timeline = Timeline::decode(d)?;
        let space = match d.u8()? {
            0 => PipelineSpace::Global,
            1 => PipelineSpace::Local,
            _ => return Err(SnapshotError::InvalidValue("unknown pipeline-space tag")),
        };
        let sm = SmId::new(d.u32()?);
        Ok(CompletedRequest {
            timeline,
            space,
            sm,
        })
    }
}

/// A completed warp-level load instruction — the unit of the paper's
/// Figure 2 exposed/hidden analysis.
#[derive(Debug, Clone, Copy)]
pub struct LoadInstrRecord {
    /// Issuing SM.
    pub sm: SmId,
    /// Program counter of the load instruction in its kernel, tying the
    /// dynamic record back to the static analyzer's per-PC predictions.
    pub pc: Pc,
    /// Cycle the load issued.
    pub issue: Cycle,
    /// Cycle its last line returned and the destination was released.
    pub complete: Cycle,
    /// Cycles during the load's lifetime in which its SM issued no
    /// instruction at all (exposed latency).
    pub exposed: u64,
    /// Number of line transactions the access coalesced into.
    pub lines: u32,
    /// The SM's stall cycles during this load's lifetime, attributed to
    /// named reasons — the explainable refinement of `exposed`.
    pub stall_reasons: StallBreakdown,
}

impl LoadInstrRecord {
    /// Total latency in cycles.
    pub fn total(&self) -> u64 {
        self.complete.since(self.issue)
    }

    /// Hidden cycles (total − exposed).
    pub fn hidden(&self) -> u64 {
        self.total().saturating_sub(self.exposed)
    }

    /// Exposed fraction, clamped to `[0, 1]` (zero for zero-latency
    /// records). The raw counter can nominally exceed the lifetime only
    /// through an attribution bug; a debug assertion guards the record
    /// site, and the clamp keeps release-build analysis sane regardless.
    pub fn exposed_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.exposed as f64 / t as f64).clamp(0.0, 1.0)
        }
    }

    /// Serializes this record.
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u32(self.sm.get());
        e.usize(self.pc);
        e.u64(self.issue.get());
        e.u64(self.complete.get());
        e.u64(self.exposed);
        e.u32(self.lines);
        encode_breakdown(e, &self.stall_reasons);
    }

    /// Decodes a record written by [`LoadInstrRecord::encode_state`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(LoadInstrRecord {
            sm: SmId::new(d.u32()?),
            pc: d.usize()?,
            issue: Cycle::new(d.u64()?),
            complete: Cycle::new(d.u64()?),
            exposed: d.u64()?,
            lines: d.u32()?,
            stall_reasons: decode_breakdown(d)?,
        })
    }
}

/// Serializes a stall breakdown as its per-reason counters in
/// [`StallReason::ALL`] order.
pub(crate) fn encode_breakdown(e: &mut Encoder, b: &StallBreakdown) {
    for v in b.to_array() {
        e.u64(v);
    }
}

/// Decodes a stall breakdown written by [`encode_breakdown`].
pub(crate) fn decode_breakdown(d: &mut Decoder) -> Result<StallBreakdown, SnapshotError> {
    let mut counts = [0u64; StallReason::COUNT];
    for c in &mut counts {
        *c = d.u64()?;
    }
    Ok(StallBreakdown::from_array(counts))
}

/// Collects latency traces during a run. Collection is off by default; the
/// latency lab enables it for instrumented runs.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// Whether traces are recorded.
    pub enabled: bool,
    /// Completed line fetches (Figure 1 input).
    pub requests: Vec<CompletedRequest>,
    /// Completed load instructions (Figure 2 input).
    pub loads: Vec<LoadInstrRecord>,
}

impl TraceSink {
    /// Records a completed request if collection is enabled.
    pub fn record_request(&mut self, req: CompletedRequest) {
        if self.enabled {
            self.requests.push(req);
        }
    }

    /// Records a completed load instruction if collection is enabled.
    pub fn record_load(&mut self, load: LoadInstrRecord) {
        if self.enabled {
            self.loads.push(load);
        }
    }

    /// Serializes the enable flag and every collected record.
    pub fn encode_state(&self, e: &mut Encoder) {
        e.bool(self.enabled);
        e.usize(self.requests.len());
        for r in &self.requests {
            r.encode_state(e);
        }
        e.usize(self.loads.len());
        for l in &self.loads {
            l.encode_state(e);
        }
    }

    /// Overwrites this sink with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates decoder errors.
    pub fn restore_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        self.enabled = d.bool()?;
        self.requests.clear();
        for _ in 0..d.usize()? {
            self.requests.push(CompletedRequest::decode(d)?);
        }
        self.loads.clear();
        for _ in 0..d.usize()? {
            self.loads.push(LoadInstrRecord::decode(d)?);
        }
        Ok(())
    }
}

/// Per-SM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions issued.
    pub instructions: u64,
    /// Cycles in which the SM issued at least one instruction.
    pub active_cycles: u64,
    /// Cycles with live warps in which the SM issued nothing (the cumulative
    /// stall counter used for exposure attribution).
    pub stall_cycles: u64,
    /// `stall_cycles` split by dominant reason (scoreboard, MSHR-full,
    /// icnt-backpressure, barrier, other). Its total always equals
    /// `stall_cycles`.
    pub stalls: StallBreakdown,
    /// Warp-level global/local load instructions issued.
    pub global_loads: u64,
    /// Warp-level global/local store instructions issued.
    pub global_stores: u64,
    /// Line transactions generated.
    pub transactions: u64,
    /// CTAs retired on this SM.
    pub ctas_retired: u64,
}

impl SmStats {
    /// Counts `cycles` stall cycles against `reason`.
    pub(crate) fn add_stall(&mut self, reason: StallReason, cycles: u64) {
        self.stall_cycles += cycles;
        self.stalls.bump_by(reason, cycles);
    }

    /// Serializes these statistics.
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u64(self.instructions);
        e.u64(self.active_cycles);
        e.u64(self.stall_cycles);
        encode_breakdown(e, &self.stalls);
        e.u64(self.global_loads);
        e.u64(self.global_stores);
        e.u64(self.transactions);
        e.u64(self.ctas_retired);
    }

    /// Decodes statistics written by [`SmStats::encode_state`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        Ok(SmStats {
            instructions: d.u64()?,
            active_cycles: d.u64()?,
            stall_cycles: d.u64()?,
            stalls: decode_breakdown(d)?,
            global_loads: d.u64()?,
            global_stores: d.u64()?,
            transactions: d.u64()?,
            ctas_retired: d.u64()?,
        })
    }
}

/// Whole-GPU run summary returned by `Gpu::run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total warp instructions issued across SMs.
    pub instructions: u64,
    /// Total L1 data-cache hits (all SMs).
    pub l1_hits: u64,
    /// Total L1 data-cache misses (all SMs).
    pub l1_misses: u64,
    /// Total L2 hits (all partitions).
    pub l2_hits: u64,
    /// Total L2 misses (all partitions).
    pub l2_misses: u64,
    /// DRAM requests serviced.
    pub dram_serviced: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// CTAs executed.
    pub ctas: u64,
    /// Invariant violations the sanitizer detected (zero when the sanitizer
    /// is disabled — see `GpuConfig::sanitize`).
    pub sanitizer_violations: u64,
    /// Stable hash of everything that determines this run's simulated
    /// timing: the timing-relevant configuration fields, the kernel program,
    /// the launch geometry and parameters, and the device-memory contents at
    /// launch. Chained across launches on the same GPU. Identical inputs
    /// produce identical hashes across processes and platforms, so this
    /// doubles as the content-addressed sweep-cache key. Excludes the
    /// config's display name and the trace/sanitize switches, which cannot
    /// change simulated timing.
    pub content_hash: u64,
    /// Observability metrics: counter summaries, stall attribution and host
    /// throughput. `metrics.host_nanos` is the summary's only
    /// non-deterministic field — normalise it before comparing summaries
    /// for run-identity.
    pub metrics: MetricsReport,
}

impl RunSummary {
    /// Instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Simulated cycles per host second for this run.
    pub fn cycles_per_second(&self) -> f64 {
        self.metrics.cycles_per_second(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(issue: u64, complete: u64, exposed: u64) -> LoadInstrRecord {
        LoadInstrRecord {
            sm: SmId::new(0),
            pc: 0,
            issue: Cycle::new(issue),
            complete: Cycle::new(complete),
            exposed,
            lines: 1,
            stall_reasons: StallBreakdown::default(),
        }
    }

    #[test]
    fn load_record_math() {
        let r = LoadInstrRecord {
            lines: 3,
            ..record(100, 500, 100)
        };
        assert_eq!(r.total(), 400);
        assert_eq!(r.hidden(), 300);
        assert!((r.exposed_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_latency_record_has_zero_fraction() {
        let r = record(5, 5, 0);
        assert_eq!(r.exposed_fraction(), 0.0);
    }

    #[test]
    fn exposed_fraction_clamps_to_unit_interval() {
        // A corrupted counter larger than the lifetime must not escape [0, 1].
        let r = record(0, 10, 25);
        assert_eq!(r.exposed_fraction(), 1.0);
        assert_eq!(r.hidden(), 0);
    }

    #[test]
    fn sink_respects_enable_flag() {
        let mut s = TraceSink::default();
        s.record_load(record(0, 1, 0));
        assert!(s.loads.is_empty());
        s.enabled = true;
        s.record_load(record(0, 1, 0));
        assert_eq!(s.loads.len(), 1);
    }

    #[test]
    fn ipc() {
        let s = RunSummary {
            cycles: 100,
            instructions: 250,
            ..RunSummary::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(RunSummary::default().ipc(), 0.0);
    }

    #[test]
    fn throughput_derives_from_metrics() {
        let s = RunSummary {
            cycles: 1_000,
            metrics: MetricsReport {
                host_nanos: 500_000_000,
                ..MetricsReport::default()
            },
            ..RunSummary::default()
        };
        assert!((s.cycles_per_second() - 2_000.0).abs() < 1e-9);
    }
}
