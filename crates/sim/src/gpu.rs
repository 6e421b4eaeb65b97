//! Whole-GPU simulation: SMs + interconnect + memory partitions, a CTA
//! dispatcher, and the cycle loop.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpu_icnt::Crossbar;
use gpu_isa::{Kernel, Launch, LocalMap, ValidateError};
use gpu_mem::{AddressMap, DeviceMemory, MemRequest, Stamp};
use gpu_snapshot::{store, Decoder, Encoder, SnapshotError, StableHasher};
use gpu_trace::profile::{self, ProfCounter, ProfSpan};
use gpu_trace::{
    CounterKind, EventKind, NetDir, StallReason, TraceData, TraceEvent, TraceSite, Tracer,
};
use gpu_types::{Addr, CtaId, Cycle, PartitionId, SmId};

use crate::config::GpuConfig;
use crate::partition::Partition;
use crate::sanitizer::{Sanitizer, Violation};
use crate::sm::Sm;
use crate::stats::{CompletedRequest, LoadInstrRecord, RunSummary, SmStats, TraceSink};

/// Minimum host time between self-profiler snapshots (the host-clock
/// Perfetto tracks' resolution): 10 ms keeps a multi-second run well under
/// the profiler's retention cap while still resolving phase changes.
const PROFILE_SAMPLE_GAP_NANOS: u64 = 10_000_000;

/// Error launching or running a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel failed static validation.
    InvalidKernel(ValidateError),
    /// A CTA needs more warp slots than an SM has.
    BlockTooLarge {
        /// Warps the CTA needs.
        needed: usize,
        /// Warp slots per SM.
        available: usize,
    },
    /// `run` hit its cycle limit before the grid drained.
    Timeout {
        /// The limit that was hit.
        max_cycles: u64,
    },
    /// `run` called with no kernel launched.
    NothingLaunched,
    /// The kernel reads more parameter slots than the launch supplies.
    MissingParams {
        /// Highest parameter slot the kernel reads, plus one.
        needed: usize,
        /// Parameters supplied by the launch.
        supplied: usize,
    },
    /// A periodic checkpoint could not be written (the message names the
    /// target path and the I/O failure).
    Checkpoint(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            SimError::BlockTooLarge { needed, available } => {
                write!(f, "CTA needs {needed} warp slots, SM has {available}")
            }
            SimError::Timeout { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::NothingLaunched => f.write_str("no kernel launched"),
            SimError::MissingParams { needed, supplied } => {
                write!(
                    f,
                    "kernel reads {needed} parameters, launch supplies {supplied}"
                )
            }
            SimError::Checkpoint(msg) => write!(f, "checkpoint write failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ValidateError> for SimError {
    fn from(e: ValidateError) -> Self {
        SimError::InvalidKernel(e)
    }
}

/// [`SimError::MissingParams`] unless `supplied` parameters cover every
/// slot the kernel reads.
fn check_params(kernel: &Kernel, supplied: usize) -> Result<(), SimError> {
    let needed = kernel
        .instrs()
        .iter()
        .filter_map(|i| match i {
            gpu_isa::Instr::LdParam { index, .. } => Some(index.saturating_add(1)),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if needed > supplied {
        return Err(SimError::MissingParams { needed, supplied });
    }
    Ok(())
}

struct LaunchState {
    kernel: Arc<Kernel>,
    params: Arc<[u64]>,
    launch: Launch,
    local_map: LocalMap,
    next_cta: u32,
}

/// Where and how often [`Gpu::run_checkpointed`] writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Write a checkpoint at every cycle that is a positive multiple of
    /// this interval (0 disables periodic checkpoints). The cycle the run
    /// started (or resumed) at never re-checkpoints, so an uninterrupted
    /// run and a kill-and-resume run write the same checkpoint set and
    /// record identical trace-event streams.
    pub every: u64,
    /// Directory checkpoint files are written into.
    pub dir: PathBuf,
    /// Deterministic kill switch for resume testing: stop before ticking
    /// this absolute cycle and return [`RunOutcome::Killed`] — the
    /// cycle-accurate stand-in for `kill -9` mid-run. The run's first
    /// (or resumed-at) cycle never triggers the kill, so re-running with
    /// the same policy after a resume makes progress.
    pub kill_at: Option<u64>,
}

impl CheckpointPolicy {
    /// A policy that checkpoints every `every` cycles into `dir`, with no
    /// kill switch.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            every,
            dir: dir.into(),
            kill_at: None,
        }
    }

    /// The null policy: no periodic checkpoints, no kill switch. Every
    /// plain run, at every layer, is its checkpointed twin under this.
    pub fn none() -> Self {
        CheckpointPolicy::new(0, PathBuf::new())
    }

    /// Whether this policy never writes a checkpoint and never kills.
    pub fn is_none(&self) -> bool {
        self.every == 0 && self.kill_at.is_none()
    }
}

/// How a checkpointed run ended. `T` is what a finished run yields: the
/// summary here, a driver's own result in the layers above.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome<T = RunSummary> {
    /// The grid drained; the summary is the same one [`Gpu::run`] returns.
    Completed(Box<T>),
    /// The run stopped at [`CheckpointPolicy::kill_at`] without finishing.
    Killed {
        /// The cycle the run stopped at.
        at: u64,
    },
}

/// How much of a run the cycle loop left out: the same three values it
/// hands the self-profiler (`CyclesSkipped`, `SmTicksSlept`,
/// `PartitionTicksSlept`), kept per [`Gpu`] so a run can pin its own
/// coverage whichever thread it ran on. Host-side: never serialized, so a
/// restored GPU counts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleCounts {
    /// Idle cycles [`Gpu::run`] jumped over instead of ticking.
    pub skipped_cycles: u64,
    /// SM ticks the ticked cycles left out because the SM was asleep.
    pub sm_ticks_slept: u64,
    /// Partition ticks left out likewise.
    pub partition_ticks_slept: u64,
}

/// The simulated GPU.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Gpu, GpuConfig};
/// use gpu_isa::{KernelBuilder, Launch, Special, Width};
///
/// let mut gpu = Gpu::new(GpuConfig::fermi_gf100());
/// let buf = gpu.alloc(4 * 64, 128);
///
/// let mut b = KernelBuilder::new("fill");
/// let base = b.param(0);
/// let gtid = b.special(Special::GlobalTid);
/// let off = b.shl(gtid, 2);
/// let addr = b.add(base, off);
/// b.st_global(Width::W4, addr, 0, gtid);
/// b.exit();
/// let kernel = b.build()?;
///
/// gpu.launch(kernel, Launch::new(2, 32, vec![buf.get()]))?;
/// gpu.run(1_000_000)?;
/// assert_eq!(gpu.device().read_u32(buf + 4 * 63), 63);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Gpu {
    cfg: Arc<GpuConfig>,
    map: AddressMap,
    device: DeviceMemory,
    sms: Vec<Sm>,
    partitions: Vec<Partition>,
    req_net: Crossbar<MemRequest>,
    reply_net: Crossbar<MemRequest>,
    now: Cycle,
    outstanding: u64,
    sink: TraceSink,
    tracer: Tracer,
    host_nanos: u64,
    sanitizer: Sanitizer,
    launch: Option<LaunchState>,
    content_hash: u64,
    host_tag: Vec<u8>,
    /// Distinct names of the kernels launched, in first-launch order.
    /// Host-side bookkeeping: never serialized.
    launched: Vec<String>,
    idle: IdleCounts,
}

impl Gpu {
    /// Builds a GPU from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid.
    pub fn new(config: GpuConfig) -> Self {
        config.assert_valid();
        let cfg = Arc::new(config);
        let map = cfg.address_map();
        let sms = (0..cfg.num_sms)
            .map(|i| Sm::new(SmId::new(i as u32), Arc::clone(&cfg)))
            .collect();
        let mut partitions: Vec<Partition> = (0..cfg.num_partitions)
            .map(|i| Partition::new(PartitionId::new(i as u32), &cfg, map))
            .collect();
        let tracer = Tracer::new(cfg.trace);
        if tracer.enabled() {
            for p in &mut partitions {
                p.set_event_log(true);
            }
        }
        let req_net = Crossbar::new(cfg.num_sms, cfg.num_partitions, cfg.icnt);
        let reply_net = Crossbar::new(cfg.num_partitions, cfg.num_sms, cfg.icnt);
        Gpu {
            map,
            device: DeviceMemory::new(),
            sms,
            partitions,
            req_net,
            reply_net,
            now: Cycle::ZERO,
            outstanding: 0,
            sink: TraceSink::default(),
            tracer,
            host_nanos: 0,
            sanitizer: Sanitizer::new(),
            launch: None,
            content_hash: 0,
            host_tag: Vec::new(),
            launched: Vec::new(),
            idle: IdleCounts::default(),
            cfg,
        }
    }

    /// Frozen no-op shim: the parallel tick executor is gone and every run
    /// ticks on the one serial loop. `benchmark/` (frozen, see
    /// BENCHMARK.json) still calls this once; DESIGN.md, "Frozen
    /// signatures", says when it goes.
    pub fn set_tick_threads(&mut self, _n: usize) {}

    /// The configuration this GPU was built from.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Functional device memory (for result readback).
    pub fn device(&self) -> &DeviceMemory {
        &self.device
    }

    /// Mutable functional device memory (for input upload).
    pub fn device_mut(&mut self) -> &mut DeviceMemory {
        &mut self.device
    }

    /// Allocates device memory.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        self.device.alloc(bytes, align)
    }

    /// Enables or disables latency-trace collection.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.sink.enabled = enabled;
    }

    /// Enables or disables micro-architectural event tracing and counter
    /// sampling at run time, overriding [`crate::GpuConfig::trace`].
    pub fn set_event_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
        for p in &mut self.partitions {
            p.set_event_log(enabled);
        }
    }

    /// The event tracer (for inspecting counts without draining it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Takes the recorded event trace and counter samples, leaving the
    /// tracer empty. Call [`Gpu::run`] (or read the summary) first if the
    /// counter summaries in [`crate::RunSummary::metrics`] are wanted —
    /// taking resets them.
    pub fn take_trace(&mut self) -> TraceData {
        self.tracer.take()
    }

    /// Takes the collected traces (completed line fetches, completed load
    /// instructions), leaving the sink empty.
    pub fn take_traces(&mut self) -> (Vec<CompletedRequest>, Vec<LoadInstrRecord>) {
        (
            std::mem::take(&mut self.sink.requests),
            std::mem::take(&mut self.sink.loads),
        )
    }

    /// Per-SM statistics.
    pub fn sm_stats(&self) -> Vec<SmStats> {
        self.sms.iter().map(|s| s.stats()).collect()
    }

    /// Launches a kernel. The previous kernel must have drained (via
    /// [`Gpu::run`]) first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidKernel`] for malformed kernels,
    /// [`SimError::BlockTooLarge`] when a CTA cannot fit on an SM, and
    /// [`SimError::MissingParams`] when the kernel reads a parameter slot
    /// the launch does not supply.
    pub fn launch(&mut self, kernel: Kernel, launch: Launch) -> Result<(), SimError> {
        kernel.validate()?;
        check_params(&kernel, launch.params.len())?;
        let warps_needed = launch.warps_per_cta(self.cfg.warp_size) as usize;
        if warps_needed > self.cfg.max_warps_per_sm {
            return Err(SimError::BlockTooLarge {
                needed: warps_needed,
                available: self.cfg.max_warps_per_sm,
            });
        }
        // Fold this launch into the run's content hash: the timing-relevant
        // config, the kernel program (via its round-trippable disassembly),
        // the launch geometry and parameters, and the device-memory contents
        // at launch. Chaining on the previous hash makes multi-launch hosts
        // (e.g. iterative BFS) hash their whole launch sequence.
        let mut h = StableHasher::new();
        h.u64(self.content_hash);
        self.cfg.hash_timing(&mut h);
        h.str(&kernel.to_string());
        h.u32(launch.grid_dim);
        h.u32(launch.block_dim);
        h.usize(launch.params.len());
        for &p in &launch.params {
            h.u64(p);
        }
        self.device.hash_state(&mut h);
        self.content_hash = h.finish();
        let local_map = if kernel.local_bytes_per_thread() > 0 {
            let bytes = launch.total_threads() * kernel.local_bytes_per_thread();
            LocalMap {
                base: self.device.alloc(bytes, self.cfg.line_size),
                bytes_per_thread: kernel.local_bytes_per_thread(),
            }
        } else {
            LocalMap::default()
        };
        if !self.launched.iter().any(|n| n == kernel.name()) {
            self.launched.push(kernel.name().to_string());
        }
        let params: Arc<[u64]> = launch.params.clone().into();
        self.launch = Some(LaunchState {
            kernel: Arc::new(kernel),
            params,
            launch,
            local_map,
            next_cta: 0,
        });
        Ok(())
    }

    /// Runs until the launched grid fully drains (all CTAs retired, all
    /// memory traffic completed) or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] at the cycle limit and
    /// [`SimError::NothingLaunched`] if no kernel was launched.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        match self.run_checkpointed(max_cycles, &CheckpointPolicy::none())? {
            RunOutcome::Completed(summary) => Ok(*summary),
            RunOutcome::Killed { .. } => unreachable!("the null policy has no kill switch"),
        }
    }

    /// Distinct names of the kernels launched on this GPU, in first-launch
    /// order — what a workload really ran, for checking against what its
    /// descriptor says it runs. Not part of a snapshot: a restored GPU
    /// lists only what was launched since.
    pub fn launched_kernels(&self) -> &[String] {
        &self.launched
    }

    /// The cycles and component ticks the run loop has left out on this
    /// GPU so far. [`Gpu::tick`] leaves nothing out.
    pub fn idle_counts(&self) -> IdleCounts {
        self.idle
    }

    /// The invariant sanitizer's accumulated findings. Populated only when
    /// [`GpuConfig::sanitize`] is set.
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Test hook: plants an L1 MSHR entry on SM 0 that no fill will ever
    /// release. The run still drains normally — only the sanitizer's
    /// end-of-run audit notices. Used to prove the sanitizer catches real
    /// leaks (and that nothing else does).
    pub fn debug_seed_mshr_leak(&mut self, line: Addr) {
        self.sms[0].debug_seed_mshr_leak(line.align_down(self.cfg.line_size));
    }

    fn is_done(&self) -> bool {
        let dispatched_all = match &self.launch {
            Some(l) => l.next_cta >= l.launch.grid_dim,
            None => true,
        };
        dispatched_all
            && self.outstanding == 0
            && self.sms.iter().all(Sm::is_idle)
            && self.partitions.iter().all(Partition::is_idle)
            && self.req_net.is_idle()
            && self.reply_net.is_idle()
    }

    /// The cumulative run summary so far (the same value [`Gpu::run`]
    /// returns on success). Counters are never reset between launches.
    pub fn summary(&self) -> RunSummary {
        let mut s = RunSummary {
            cycles: self.now.get(),
            ..RunSummary::default()
        };
        for sm in &self.sms {
            let st = sm.stats();
            s.instructions += st.instructions;
            s.ctas += st.ctas_retired;
            s.metrics.stalls.merge(&st.stalls);
            if let Some((h, m)) = sm.l1_counts() {
                s.l1_hits += h;
                s.l1_misses += m;
            }
        }
        s.metrics.capture_from(&self.tracer);
        s.metrics.host_nanos = self.host_nanos;
        for p in &self.partitions {
            if let Some((h, m)) = p.l2_counts() {
                s.l2_hits += h;
                s.l2_misses += m;
            }
            let d = p.dram_stats();
            s.dram_serviced += d.serviced;
            s.dram_row_hits += d.row_hits;
        }
        s.sanitizer_violations = self.sanitizer.total();
        s.content_hash = self.content_hash;
        s
    }

    // ---- checkpoint / restore ----------------------------------------------

    /// The run's content hash so far (see [`RunSummary::content_hash`]).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Attaches an opaque host-side tag that rides inside every checkpoint.
    /// Multi-launch drivers (e.g. the iterative BFS host loop) store their
    /// own loop state here so a resumed process can pick up mid-iteration.
    pub fn set_host_tag(&mut self, tag: Vec<u8>) {
        self.host_tag = tag;
    }

    /// The host-side tag carried by this GPU (empty unless a driver set one
    /// or a checkpoint restored one).
    pub fn host_tag(&self) -> &[u8] {
        &self.host_tag
    }

    /// Serializes the complete simulator state — configuration, cycle
    /// counter, device memory, the in-flight launch (kernel program as its
    /// round-trippable disassembly), every SM and partition, both crossbar
    /// networks, the latency-trace sink, the event tracer and the sanitizer
    /// — into a framed, versioned, checksummed byte stream that
    /// [`Gpu::restore`] turns back into a bit-identical simulator.
    ///
    /// Snapshots are taken at cycle boundaries (between [`Gpu::tick`]s);
    /// mid-tick state never exists in a checkpoint.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.cfg.encode_state(&mut e);
        e.u64(self.now.get());
        e.u64(self.outstanding);
        e.u64(self.host_nanos);
        e.u64(self.content_hash);
        e.bytes(&self.host_tag);
        self.device.encode_state(&mut e);
        match &self.launch {
            None => e.bool(false),
            Some(l) => {
                e.bool(true);
                e.str(&l.kernel.to_string());
                e.u32(l.launch.grid_dim);
                e.u32(l.launch.block_dim);
                e.usize(l.launch.params.len());
                for &p in &l.launch.params {
                    e.u64(p);
                }
                e.u64(l.local_map.base.get());
                e.u64(l.local_map.bytes_per_thread);
                e.u32(l.next_cta);
            }
        }
        for sm in &self.sms {
            sm.encode_state(&mut e);
        }
        for p in &self.partitions {
            p.encode_state(&mut e);
        }
        self.req_net
            .encode_state_with(&mut e, |req, e| req.encode_state(e));
        self.reply_net
            .encode_state_with(&mut e, |req, e| req.encode_state(e));
        self.sink.encode_state(&mut e);
        self.tracer.encode_state(&mut e);
        self.sanitizer.encode_state(&mut e);
        e.finish()
    }

    /// Rebuilds a GPU from a [`Gpu::snapshot`] byte stream. The restored
    /// simulator continues cycle-identically to the one that was snapshotted
    /// — same [`RunSummary`], same trace events, same sanitizer findings.
    ///
    /// # Errors
    ///
    /// Rejects corrupted, truncated or wrong-version streams (framing),
    /// unknown tags, structural inconsistencies between the embedded
    /// configuration and the serialized state, kernels that fail to
    /// re-parse, and kernels that read a parameter the launch lacks. Never
    /// panics on malformed input.
    pub fn restore(bytes: &[u8]) -> Result<Gpu, SnapshotError> {
        use SnapshotError::InvalidValue;
        let mut d = Decoder::open(bytes)?;
        let cfg = GpuConfig::decode(&mut d)?;
        cfg.validate()
            .map_err(|_| InvalidValue("configuration fails structural validation"))?;
        let mut gpu = Gpu::new(cfg);
        gpu.now = Cycle::new(d.u64()?);
        gpu.outstanding = d.u64()?;
        gpu.host_nanos = d.u64()?;
        gpu.content_hash = d.u64()?;
        gpu.host_tag = d.bytes()?.to_vec();
        gpu.device.restore_state(&mut d)?;
        gpu.launch = if d.bool()? {
            let text = d.str()?;
            let kernel = gpu_isa::parse_kernel(text)
                .map_err(|_| InvalidValue("checkpoint kernel fails to parse"))?;
            kernel
                .validate()
                .map_err(|_| InvalidValue("checkpoint kernel fails validation"))?;
            let grid_dim = d.u32()?;
            let block_dim = d.u32()?;
            if grid_dim == 0 || block_dim == 0 {
                return Err(InvalidValue("launch dimensions must be nonzero"));
            }
            let mut params = Vec::new();
            for _ in 0..d.usize()? {
                params.push(d.u64()?);
            }
            let local_map = LocalMap {
                base: Addr::new(d.u64()?),
                bytes_per_thread: d.u64()?,
            };
            let next_cta = d.u32()?;
            check_params(&kernel, params.len()).map_err(|_| {
                InvalidValue("checkpoint kernel reads a parameter the launch lacks")
            })?;
            let launch = Launch {
                grid_dim,
                block_dim,
                params: params.clone(),
            };
            if launch.warps_per_cta(gpu.cfg.warp_size) as usize > gpu.cfg.max_warps_per_sm {
                return Err(InvalidValue("checkpoint CTA exceeds SM warp capacity"));
            }
            Some(LaunchState {
                kernel: Arc::new(kernel),
                params: params.into(),
                launch,
                local_map,
                next_cta,
            })
        } else {
            None
        };
        let kp = gpu.launch.as_ref().map(|l| (&l.kernel, &l.params));
        for sm in &mut gpu.sms {
            sm.restore_state(&mut d, kp)?;
        }
        for p in &mut gpu.partitions {
            p.restore_state(&mut d)?;
        }
        gpu.req_net.restore_state_with(&mut d, MemRequest::decode)?;
        gpu.reply_net
            .restore_state_with(&mut d, MemRequest::decode)?;
        gpu.sink.restore_state(&mut d)?;
        gpu.tracer.restore_state(&mut d)?;
        gpu.sanitizer.restore_state(&mut d)?;
        d.expect_end()?;
        Ok(gpu)
    }

    /// Records a checkpoint event and writes a full snapshot atomically into
    /// `dir`, named after the current cycle. The event is recorded *before*
    /// the snapshot is encoded so it lands inside the serialized tracer
    /// state: a run resumed from this checkpoint replays the identical event
    /// stream an uninterrupted run records. Returns the snapshot size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the file cannot be written.
    pub fn write_checkpoint(&mut self, dir: &Path) -> Result<u64, SimError> {
        if self.tracer.enabled() {
            // The snapshot size is unknowable before encoding, and encoding
            // must happen after this event is recorded; 0 marks "pending".
            self.tracer.record(TraceEvent {
                cycle: self.now.get(),
                site: TraceSite::Gpu,
                kind: EventKind::Checkpoint { bytes: 0 },
            });
        }
        let bytes = self.snapshot();
        let path = store::checkpoint_path(dir, self.now.get());
        store::write_atomic(&path, &bytes)
            .map_err(|e| SimError::Checkpoint(format!("{}: {e}", path.display())))?;
        Ok(bytes.len() as u64)
    }

    /// Restores the GPU from the newest checkpoint in `dir`, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory/file I/O errors and checkpoint-format errors.
    pub fn resume_latest(dir: &Path) -> Result<Option<Gpu>, SnapshotError> {
        match store::latest_checkpoint(dir)? {
            None => Ok(None),
            Some((_, path)) => {
                let bytes = std::fs::read(path)?;
                Ok(Some(Gpu::restore(&bytes)?))
            }
        }
    }

    /// Like [`Gpu::run`], but writes periodic checkpoints per `policy` and
    /// honors its deterministic kill switch. With `policy.every == 0` and no
    /// `kill_at` this is exactly [`Gpu::run`] (which is that call).
    ///
    /// This is the one run loop. Before each tick it asks every component
    /// for its next event and, when the whole machine is quiescent until
    /// some later cycle, jumps the clock there instead of ticking the idle
    /// cycles one by one (`skip_idle` below; DESIGN.md, "Idle-cycle
    /// skipping"). On the cycles it does tick, an SM or partition whose own
    /// wake cycle is still ahead is not ticked (DESIGN.md, "Sleeping
    /// components"). The result is bit-identical to stepping with
    /// [`Gpu::tick`], which does neither.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] at the cycle limit,
    /// [`SimError::NothingLaunched`] if no kernel was launched, and
    /// [`SimError::Checkpoint`] when a checkpoint cannot be written.
    pub fn run_checkpointed(
        &mut self,
        max_cycles: u64,
        policy: &CheckpointPolicy,
    ) -> Result<RunOutcome, SimError> {
        if self.launch.is_none() {
            return Err(SimError::NothingLaunched);
        }
        let _run_span = profile::span(ProfSpan::Run);
        let start = self.now;
        let wall = std::time::Instant::now();
        loop {
            {
                // The loop control outside the tick stages, metered so the
                // stage totals account for the whole run span.
                let _g = profile::span(ProfSpan::DrainCheck);
                if self.is_done() {
                    break;
                }
                self.skip_idle(start, max_cycles, policy);
            }
            if self.now.since(start) >= max_cycles {
                self.host_nanos += wall.elapsed().as_nanos() as u64;
                if self.cfg.sanitize {
                    // Name what is stuck on either side before reporting
                    // the hang: L1 MSHR lines and pending loads on the SMs,
                    // L2 MSHR lines in the partitions. Counted, never a
                    // panic — a timeout is already an error.
                    self.audit_drained();
                }
                return Err(SimError::Timeout { max_cycles });
            }
            let cycle = self.now.get();
            if policy.every > 0 && cycle > start.get() && cycle.is_multiple_of(policy.every) {
                self.write_checkpoint(&policy.dir)?;
            }
            if policy.kill_at == Some(cycle) && cycle > start.get() {
                self.host_nanos += wall.elapsed().as_nanos() as u64;
                return Ok(RunOutcome::Killed { at: cycle });
            }
            self.tick_cycle(true);
        }
        self.host_nanos += wall.elapsed().as_nanos() as u64;
        self.launch = None;
        if self.cfg.sanitize {
            self.audit_drained();
            // Violations fail loudly in debug builds (which `cargo test`
            // uses); release builds keep the report queryable instead of
            // aborting long experiments.
            if cfg!(debug_assertions) && !self.sanitizer.is_clean() {
                panic!("{}", self.sanitizer.report());
            }
        }
        Ok(RunOutcome::Completed(Box::new(self.summary())))
    }

    /// The earliest cycle at which a tick could change the machine's state:
    /// `now` while CTAs wait for an SM that could take one, else the
    /// minimum over the `next_event` of both crossbars, every partition
    /// and every SM.
    ///
    /// The contract each of those `next_event`s keeps: the earliest cycle
    /// at which ticking the component could change its state, assuming no
    /// other component hands it work before then (each reports its own
    /// hand-offs, and the minimum is taken here) — `now` if it could act
    /// right away *or is unsure*, [`Cycle::MAX`] if nothing is pending. The
    /// run loop jumps the clock over the cycles before the minimum instead
    /// of ticking them (DESIGN.md, "Idle-cycle skipping"), so an answer may
    /// be early but never late. An SM or partition that went to sleep at
    /// the end of its last full tick answers the wake cycle it stored then,
    /// without looking at its queues again (DESIGN.md, "Sleeping
    /// components"): the same horizon, derived once, and still valid
    /// because everything that hands a sleeper work zeroes the stored
    /// cycle. So only the awake ones re-derive anything; components are
    /// asked cheapest first (networks, partitions, SMs) and the scan stops
    /// at the first that can act now.
    fn next_event(&self) -> Cycle {
        let now = self.now;
        let mut at = Cycle::MAX;
        let nets = [&self.req_net, &self.reply_net].into_iter();
        let nets = nets.map(|n| n.next_event(now));
        let partitions = self.partitions.iter().map(|p| p.next_event(now));
        let sms = self.sms.iter().map(|s| s.next_event(now));
        for next in nets.chain(partitions).chain(sms) {
            at = at.min(next);
            if at <= now {
                return now;
            }
        }
        if let Some(l) = &self.launch {
            let warps_needed = l.launch.warps_per_cta(self.cfg.warp_size) as usize;
            if l.next_cta < l.launch.grid_dim
                && self.sms.iter().any(|sm| sm.can_dispatch(warps_needed))
            {
                return now;
            }
        }
        at
    }

    /// Idle-cycle skipping: if no component can change state before some
    /// later cycle — every SM and partition asleep, nothing arriving from
    /// either network — advance the clock straight there, crediting exactly
    /// what the skipped ticks would have recorded.
    ///
    /// Over a quiescent interval every tick is the identity on the machine
    /// except for three observations, all constant across the interval
    /// because the state is: each SM with resident warps counts one stall
    /// cycle for the reason [`Sm::credit_stall`] names, the tracer (when
    /// on) gets one `Stall` event per such SM per cycle, and the counter
    /// registry samples at its interval. The sanitizer needs nothing: an
    /// audit of unchanged state finds what the last one found, so a clean
    /// machine stays clean — and an unclean one is never skipped, because
    /// its per-cycle findings would have to be replayed.
    ///
    /// The jump stops short at every cycle where the run loop itself acts:
    /// the `max_cycles` deadline, the next multiple of the checkpoint
    /// interval, and the kill switch (the run's first cycle triggers
    /// neither of the last two, exactly as in the loop).
    fn skip_idle(&mut self, start: Cycle, max_cycles: u64, policy: &CheckpointPolicy) {
        if !self.sanitizer.is_clean() {
            return;
        }
        let now = self.now.get();
        let mut target = self.next_event().get();
        if target <= now {
            return;
        }
        target = target.min(start.get().saturating_add(max_cycles));
        let first_acting = now.max(start.get() + 1);
        if policy.every > 0 {
            target = target.min(first_acting.next_multiple_of(policy.every));
        }
        if let Some(kill) = policy.kill_at.filter(|&k| k >= first_acting) {
            target = target.min(kill);
        }
        if target <= now {
            return;
        }
        let skipped = target - now;
        let tracing = self.tracer.enabled();
        let mut stalled: Vec<(u32, StallReason)> = Vec::new();
        for sm in &mut self.sms {
            if let Some(reason) = sm.credit_stall(self.now, skipped) {
                if tracing {
                    stalled.push((sm.id().get(), reason));
                }
            }
        }
        if tracing {
            for cycle in now..target {
                for &(sm, reason) in &stalled {
                    self.tracer.record(TraceEvent {
                        cycle,
                        site: TraceSite::Sm(sm),
                        kind: EventKind::Stall { reason },
                    });
                }
                if self.tracer.should_sample(cycle) {
                    self.sample_counters(Cycle::new(cycle));
                }
            }
        }
        self.now = Cycle::new(target);
        self.idle.skipped_cycles += skipped;
        profile::add(ProfCounter::CyclesSkipped, skipped);
        profile::add(ProfCounter::IdleJumps, 1);
    }

    /// Advances the GPU by one cycle. Always exactly one cycle, every
    /// component ticked in full — idle-cycle skipping and component sleep
    /// live in the run loop, so stepping with `tick` is the reference both
    /// are tested against.
    pub fn tick(&mut self) {
        self.tick_cycle(false);
    }

    /// One cycle: the stages below, in this order, on every machine. The
    /// order is the model's same-cycle visibility rules, so it is code, not
    /// data (DESIGN.md, "The cycle's stage order"): the networks open
    /// before anyone injects; partitions tick before their returns inject,
    /// so a reply produced this cycle can enter the reply network this
    /// cycle, and before the request network ejects into them, so a
    /// request accepted this cycle is first worked on next cycle; SMs tick
    /// after both networks moved and eject replies before they issue; CTAs
    /// dispatch onto the slots that tick freed; the audit (sanitizing
    /// machines only — `sanitize` is fixed at construction) and the
    /// counter sample see the machine between cycles, every live request in
    /// exactly one structure; the clock advances last.
    ///
    /// The run loop passes `honour_sleep`, so an SM or partition whose wake
    /// cycle is still ahead is not ticked; [`Gpu::tick`] does not, and
    /// ticks every component in full. Every other stage, the audit
    /// included, visits everything either way.
    ///
    /// With the self-profiler on, the host clock is read once *between*
    /// stages, so the per-stage deltas tile the cycle exactly (n+1 clock
    /// reads for n stages, no metering gaps); with it off, no clock is read.
    fn tick_cycle(&mut self, honour_sleep: bool) {
        let now = self.now;
        let mut clock = profile::enabled().then(std::time::Instant::now);
        let mut done = |stage: ProfSpan| {
            if let Some(prev) = &mut clock {
                let at = std::time::Instant::now();
                profile::span_add(stage, (at - *prev).as_nanos() as u64);
                *prev = at;
            }
        };
        self.begin_networks();
        done(ProfSpan::BeginNetworks);
        self.tick_partitions(now, honour_sleep);
        done(ProfSpan::TickPartitions);
        self.inject_replies(now);
        done(ProfSpan::InjectReplies);
        self.eject_requests(now);
        done(ProfSpan::EjectRequests);
        self.tick_sms(now, honour_sleep);
        done(ProfSpan::TickSms);
        self.dispatch_ctas();
        done(ProfSpan::DispatchCtas);
        if self.cfg.sanitize {
            self.audit_cycle(now);
            done(ProfSpan::AuditInvariants);
        }
        self.sample_stage(now);
        done(ProfSpan::SampleCounters);
        self.now.tick();
        done(ProfSpan::AdvanceClock);
        profile::add(ProfCounter::CyclesTicked, 1);
    }

    /// Opens both crossbar cycles (per-port injection budgets reset).
    fn begin_networks(&mut self) {
        let _g = profile::span(ProfSpan::CrossbarTick);
        self.req_net.begin_cycle();
        self.reply_net.begin_cycle();
    }

    /// Ticks every memory partition: DRAM completions, L2 access, ROP exit.
    fn tick_partitions(&mut self, now: Cycle, honour_sleep: bool) {
        let mut slept = 0;
        for p in &mut self.partitions {
            if honour_sleep && p.asleep(now) {
                slept += 1;
                continue;
            }
            let _g = profile::span(ProfSpan::PartitionTick);
            let stores_done = p.tick(now, &mut self.tracer);
            self.outstanding -= stores_done;
        }
        self.idle.partition_ticks_slept += slept;
        profile::add(ProfCounter::PartitionTicksSlept, slept);
    }

    /// Injects partition returns into the reply network.
    fn inject_replies(&mut self, now: Cycle) {
        for (pi, p) in self.partitions.iter_mut().enumerate() {
            while let Some(head) = p.peek_return() {
                let dst = head.sm.index();
                if !self.reply_net.can_inject(pi, dst) {
                    break;
                }
                let req = p.pop_return().expect("peeked");
                let rid = req.id.get();
                self.reply_net
                    .try_inject(pi, dst, req, now)
                    .expect("can_inject checked");
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        cycle: now.get(),
                        site: TraceSite::Gpu,
                        kind: EventKind::IcntInject {
                            net: NetDir::Reply,
                            req: rid,
                            port: pi as u32,
                        },
                    });
                }
            }
        }
    }

    /// Ejects the request network into partition ROP pipelines.
    fn eject_requests(&mut self, now: Cycle) {
        for (pi, p) in self.partitions.iter_mut().enumerate() {
            while p.can_accept() {
                match self.req_net.eject(pi, now) {
                    Some(req) => {
                        if self.tracer.enabled() {
                            self.tracer.record(TraceEvent {
                                cycle: now.get(),
                                site: TraceSite::Gpu,
                                kind: EventKind::IcntEject {
                                    net: NetDir::Request,
                                    req: req.id.get(),
                                    port: pi as u32,
                                },
                            });
                        }
                        p.accept(req, now, &mut self.tracer);
                    }
                    None => break,
                }
            }
        }
    }

    /// Ticks every SM: writeback, reply ejection, L1 access, miss
    /// injection, issue, CTA retirement.
    fn tick_sms(&mut self, now: Cycle, honour_sleep: bool) {
        let sanitize = self.cfg.sanitize;
        let mut slept = 0;
        for si in 0..self.sms.len() {
            let sm = &mut self.sms[si];
            // A deliverable reply wakes a sleeper; dispatch and the leak
            // hook zero its wake cycle themselves.
            if honour_sleep && sm.asleep(now) && self.reply_net.peek(si, now).is_none() {
                sm.sleep_through(now, &mut self.tracer);
                slept += 1;
                continue;
            }
            let _g = profile::span(ProfSpan::SmTick);
            let retired =
                sm.tick_writeback(now, &mut self.sink, sanitize.then_some(&mut self.sanitizer));
            self.outstanding -= retired;

            while sm.fill_space() {
                match self.reply_net.eject(si, now) {
                    Some(req) => {
                        if self.tracer.enabled() {
                            self.tracer.record(TraceEvent {
                                cycle: now.get(),
                                site: TraceSite::Gpu,
                                kind: EventKind::IcntEject {
                                    net: NetDir::Reply,
                                    req: req.id.get(),
                                    port: si as u32,
                                },
                            });
                        }
                        sm.accept_response(req, now, &mut self.tracer);
                    }
                    None => break,
                }
            }

            sm.tick_memory(now, &mut self.tracer);

            while let Some(head) = sm.peek_miss() {
                let dst = self.map.partition_of(head.addr).index();
                if !self.req_net.can_inject(si, dst) {
                    break;
                }
                let mut req = sm.pop_miss().expect("peeked");
                req.timeline.record(Stamp::IcntInject, now);
                let rid = req.id.get();
                self.req_net
                    .try_inject(si, dst, req, now)
                    .expect("can_inject checked");
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent {
                        cycle: now.get(),
                        site: TraceSite::Gpu,
                        kind: EventKind::IcntInject {
                            net: NetDir::Request,
                            req: rid,
                            port: si as u32,
                        },
                    });
                }
            }

            let created = sm.tick_issue(now, &mut self.device, &mut self.tracer);
            self.outstanding += created;
            sm.end_tick(now);
        }
        self.idle.sm_ticks_slept += slept;
        profile::add(ProfCounter::SmTicksSlept, slept);
    }

    /// Counter sampling at the tracer's interval (whether a sample fires is
    /// the tracer's runtime decision, since event tracing can be toggled
    /// mid-run).
    fn sample_stage(&mut self, now: Cycle) {
        if self.tracer.should_sample(now.get()) {
            self.sample_counters(now);
        }
        // Host-clock self-profile sampling rides the same stage: publish
        // the outstanding gauge and, at a bounded host-time interval,
        // snapshot the profiler tables for the Perfetto host tracks. Both
        // are one relaxed atomic when profiling is off.
        profile::set(ProfCounter::Outstanding, self.outstanding);
        profile::sample_at_interval(PROFILE_SAMPLE_GAP_NANOS);
    }

    /// Reads the per-cycle gauges into one counter sample. Gauges are summed
    /// across SMs / partitions; the row-hit rate is cumulative, in permille.
    fn sample_counters(&mut self, now: Cycle) {
        let mut values = [0u64; CounterKind::COUNT];
        for sm in &self.sms {
            values[CounterKind::L1MshrOccupancy.index()] += sm.l1_mshr_occupancy() as u64;
            values[CounterKind::FrontDepth.index()] += sm.front_depth() as u64;
            values[CounterKind::MissQueueDepth.index()] += sm.miss_queue_depth() as u64;
        }
        let mut serviced = 0u64;
        let mut row_hits = 0u64;
        for p in &self.partitions {
            values[CounterKind::RopQueueDepth.index()] += p.rop_depth() as u64;
            values[CounterKind::L2QueueDepth.index()] += p.l2_queue_depth() as u64;
            values[CounterKind::L2MshrOccupancy.index()] += p.l2_mshr_occupancy() as u64;
            values[CounterKind::DramQueueDepth.index()] += p.dram_queue_depth() as u64;
            let d = p.dram_stats();
            serviced += d.serviced;
            row_hits += d.row_hits;
        }
        values[CounterKind::IcntInFlight.index()] =
            (self.req_net.in_flight() + self.reply_net.in_flight()) as u64;
        values[CounterKind::Outstanding.index()] = self.outstanding;
        values[CounterKind::DramRowHitPermille.index()] = row_hits * 1000 / serviced.max(1);
        self.tracer.sample(now.get(), values);
    }

    /// Per-cycle sanitizer sweep: between ticks every live request must sit
    /// in exactly one pipeline structure, so the global outstanding counter
    /// must equal the sum of all per-component occupancies; each component's
    /// queues and MSHR tables must respect their configured capacities.
    fn audit_cycle(&mut self, now: Cycle) {
        let san = &mut self.sanitizer;
        // The crossbars hold requests but have no audited structure: their
        // capacity bounds are enforced by `can_inject`.
        let mut in_flight = (self.req_net.in_flight() + self.reply_net.in_flight()) as u64;
        for sm in &self.sms {
            sm.audit(san);
            in_flight += sm.in_flight_requests();
        }
        for p in &self.partitions {
            p.audit(san);
            in_flight += p.in_flight_requests();
        }
        if in_flight != self.outstanding {
            san.record(Violation::Conservation {
                cycle: now,
                outstanding: self.outstanding,
                in_flight,
            });
        }
    }

    /// Leak audit of a machine that should hold nothing: MSHR lines and
    /// pending loads still on the SMs, MSHR lines still in the partitions
    /// (the crossbars cannot leak — `is_done` sees their every packet).
    fn audit_drained(&mut self) {
        for sm in &self.sms {
            sm.audit_drained(&mut self.sanitizer);
        }
        for p in &self.partitions {
            p.audit_drained(&mut self.sanitizer);
        }
    }

    /// Dispatches pending CTAs onto free SMs (round-robin).
    fn dispatch_ctas(&mut self) {
        let Some(l) = self.launch.as_mut() else {
            return;
        };
        let warps_needed = l.launch.warps_per_cta(self.cfg.warp_size) as usize;
        let n_sms = self.sms.len();
        while l.next_cta < l.launch.grid_dim {
            let start = l.next_cta as usize % n_sms;
            let target = (0..n_sms)
                .map(|o| (start + o) % n_sms)
                .find(|&s| self.sms[s].can_dispatch(warps_needed));
            match target {
                Some(s) => {
                    self.sms[s].dispatch(
                        CtaId::new(l.next_cta),
                        &l.kernel,
                        &l.params,
                        &l.launch,
                        l.local_map,
                    );
                    l.next_cta += 1;
                }
                None => break,
            }
        }
    }
}
