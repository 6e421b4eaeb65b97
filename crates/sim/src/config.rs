//! GPU configuration: every latency, queue depth and structural parameter of
//! the modeled machine.
//!
//! A [`GpuConfig`] fully describes one simulated GPU. It is interconvertible
//! with the declarative [`ArchDesc`] from `gpu-arch`
//! ([`GpuConfig::from_arch`] / [`GpuConfig::arch_desc`]): the description is
//! the authoritative per-generation data table (the presets in
//! `latency-core` are built as descriptions), while the config is the flat
//! working form the simulator components read. Validation, the typed
//! [`ConfigError`], and the generic unloaded-latency walks all live on the
//! description; this module only defines the knobs and a neutral
//! Fermi-GF100-like default, mirroring how GPGPU-Sim separates the simulator
//! from its config files.

use gpu_arch::{ArchDesc, CacheGeom, FabricDesc, LevelDesc, LevelKind, MemDesc, Routing, SmDesc};
use gpu_icnt::IcntConfig;
use gpu_mem::{CacheConfig, DramConfig, DramSched, DramTiming, MshrConfig, Replacement};
use gpu_snapshot::{Decoder, Encoder, SnapshotError, StableHasher};
use gpu_trace::TraceConfig;

pub use gpu_arch::{ConfigError, SchedPolicy, WritePolicy};

/// L1 data-cache configuration, including which memory spaces it serves —
/// the per-generation policy at the heart of the paper's §II discussion
/// (Fermi: global+local; Kepler: local only; Maxwell: removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Tag-array geometry.
    pub cache: CacheConfig,
    /// MSHR table.
    pub mshr: MshrConfig,
    /// Hit latency: probe-to-data, in cycles.
    pub hit_latency: u64,
    /// Miss-queue capacity between the L1 and the interconnect injection
    /// port (the paper's `L1toICNT` queue).
    pub miss_queue: usize,
    /// Does the L1 cache global-space accesses?
    pub serve_global: bool,
    /// Does the L1 cache local-space accesses?
    pub serve_local: bool,
    /// Fill/tag granularity in bytes (`None` = classic unsectored lines).
    pub sector_bytes: Option<u64>,
}

/// L2 slice configuration (one slice per memory partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Tag-array geometry (per slice).
    pub cache: CacheConfig,
    /// MSHR table (per slice).
    pub mshr: MshrConfig,
    /// Hit latency: probe-to-data, in cycles.
    pub hit_latency: u64,
    /// Input queue between the ROP pipeline and the L2 access stage
    /// (per slice).
    pub input_queue: usize,
    /// Store handling policy.
    pub write_policy: WritePolicy,
    /// Fill/tag granularity in bytes (`None` = classic unsectored lines).
    pub sector_bytes: Option<u64>,
    /// Hash-interleaved slices per partition (1 = the classic monolithic
    /// bank); `cache` describes ONE slice.
    pub slices: usize,
}

/// Fallback capacity of the structural queue a level keeps even when its
/// cache is absent (a Tesla partition still has an input queue in front of
/// its DRAM path).
const ABSENT_LEVEL_QUEUE: usize = 8;

/// Complete description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name ("GF100-like", …) used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (≤ 32).
    pub warp_size: u32,
    /// Warp slots per SM.
    pub max_warps_per_sm: usize,
    /// Maximum concurrent CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// Instructions issued per SM per cycle (distinct warps).
    pub issue_width: usize,
    /// Warp scheduler policy.
    pub scheduler: SchedPolicy,
    /// Integer-ALU result latency.
    pub alu_latency: u64,
    /// FP32 result latency.
    pub fp_latency: u64,
    /// SFU (div/transcendental) result latency.
    pub sfu_latency: u64,
    /// Shared-memory access latency.
    pub shared_latency: u64,
    /// Fixed in-SM front-end time for a memory access: decode, address
    /// generation, coalescing, up to the L1 tag probe (the head of the
    /// paper's "SM Base" component).
    pub sm_base_latency: u64,
    /// Capacity of the in-SM memory front-end pipeline (coalesced
    /// transactions in flight before the L1).
    pub lsu_queue: usize,
    /// Cache-line / memory-transaction size in bytes.
    pub line_size: u64,
    /// L1 data cache, if the architecture has one.
    pub l1: Option<L1Config>,
    /// Interconnect (applied to both request and reply networks).
    pub icnt: IcntConfig,
    /// Fixed raster-operations pipeline latency in front of the L2.
    pub rop_latency: u64,
    /// ROP pipeline slot capacity.
    pub rop_queue: usize,
    /// L2 cache, if the architecture has one.
    pub l2: Option<L2Config>,
    /// DRAM channel config (per partition).
    pub dram: DramConfig,
    /// Number of memory partitions.
    pub num_partitions: usize,
    /// Partition interleave chunk in bytes.
    pub partition_chunk: u64,
    /// DRAM banks per partition.
    pub dram_banks: usize,
    /// DRAM row size in bytes.
    pub dram_row_bytes: u64,
    /// Response-side writeback latency at the SM (reply ejection to register
    /// writeback; tail of the paper's "Fetch2SM" component).
    pub fill_latency: u64,
    /// Run the cycle-level invariant sanitizer (see [`crate::Sanitizer`]):
    /// request conservation, MSHR leak detection, queue-capacity audits and
    /// per-request timeline checks. On by default; debug builds (including
    /// `cargo test`) panic at the end of a run with violations.
    pub sanitize: bool,
    /// Event tracing and counter sampling (see `gpu-trace`). Disabled by
    /// default; a disabled tracer records nothing and leaves simulated
    /// timing bit-identical.
    pub trace: TraceConfig,
}

impl GpuConfig {
    /// A neutral GF100 (Fermi)-like configuration: 15 SMs, 48 warps/SM,
    /// 16 KB L1 (global+local), 6 partitions with 128 KB L2 slices, FR-FCFS
    /// GDDR5 timing. Latencies are calibrated so the unloaded global-memory
    /// pipeline matches the paper's Fermi column of Table I
    /// (L1 ≈ 45, L2 ≈ 310, DRAM ≈ 685 cycles).
    pub fn fermi_gf100() -> Self {
        GpuConfig {
            name: "GF100-like (Fermi)".to_string(),
            num_sms: 15,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            issue_width: 2,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 18,
            fp_latency: 18,
            sfu_latency: 40,
            shared_latency: 30,
            sm_base_latency: 28,
            lsu_queue: 34,
            line_size: 128,
            l1: Some(L1Config {
                cache: CacheConfig {
                    sets: 32,
                    ways: 4,
                    line_size: 128,
                    replacement: Replacement::Lru,
                },
                mshr: MshrConfig {
                    entries: 32,
                    max_merged: 8,
                },
                hit_latency: 17,
                miss_queue: 8,
                serve_global: true,
                serve_local: true,
                sector_bytes: None,
            }),
            icnt: IcntConfig {
                latency: 48,
                output_queue: 8,
                inject_per_src: 1,
                eject_per_dst: 1,
            },
            rop_latency: 60,
            rop_queue: 16,
            l2: Some(L2Config {
                cache: CacheConfig {
                    sets: 128,
                    ways: 8,
                    line_size: 128,
                    replacement: Replacement::Lru,
                },
                mshr: MshrConfig {
                    entries: 32,
                    max_merged: 8,
                },
                hit_latency: 115,
                input_queue: 8,
                write_policy: WritePolicy::WriteThrough,
                sector_bytes: None,
                slices: 1,
            }),
            dram: DramConfig {
                timing: DramTiming {
                    t_rcd: 80,
                    t_rp: 80,
                    t_cl: 321,
                    burst: 8,
                },
                queue_capacity: 128,
                sched: DramSched::FrFcfs,
            },
            num_partitions: 6,
            partition_chunk: 256,
            dram_banks: 16,
            dram_row_bytes: 2048,
            fill_latency: 10,
            sanitize: true,
            trace: TraceConfig::default(),
        }
    }

    // ---- ArchDesc interconversion -----------------------------------------

    /// Builds a validated config from a declarative architecture
    /// description. The sanitizer defaults on and tracing off, exactly as
    /// in [`GpuConfig::fermi_gf100`] — observability switches are run
    /// settings, not part of the architecture.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant of the description.
    pub fn from_arch(desc: &ArchDesc) -> Result<Self, ConfigError> {
        desc.validate()?;
        let l1 = desc.level(LevelKind::L1).and_then(|level| {
            level.geom.map(|g| L1Config {
                cache: g.cache,
                mshr: g.mshr,
                hit_latency: g.hit_latency,
                miss_queue: level.queue,
                serve_global: level.routing.global,
                serve_local: level.routing.local,
                sector_bytes: g.sector_bytes,
            })
        });
        let l2 = desc.level(LevelKind::L2).and_then(|level| {
            level.geom.map(|g| L2Config {
                cache: g.cache,
                mshr: g.mshr,
                hit_latency: g.hit_latency,
                input_queue: level.queue,
                write_policy: level.write_policy,
                sector_bytes: g.sector_bytes,
                slices: level.slices,
            })
        });
        let dram_queue = desc
            .level(LevelKind::DramFront)
            .expect("validated topology lists the DRAM front")
            .queue;
        Ok(GpuConfig {
            name: desc.name.clone(),
            num_sms: desc.num_sms,
            warp_size: desc.sm.warp_size,
            max_warps_per_sm: desc.sm.max_warps,
            max_ctas_per_sm: desc.sm.max_ctas,
            issue_width: desc.sm.issue_width,
            scheduler: desc.sm.scheduler,
            alu_latency: desc.sm.alu_latency,
            fp_latency: desc.sm.fp_latency,
            sfu_latency: desc.sm.sfu_latency,
            shared_latency: desc.sm.shared_latency,
            sm_base_latency: desc.sm.base_latency,
            lsu_queue: desc.sm.lsu_queue,
            line_size: desc.line_size,
            l1,
            icnt: desc.fabric.icnt,
            rop_latency: desc.fabric.rop_latency,
            rop_queue: desc.fabric.rop_queue,
            l2,
            dram: DramConfig {
                timing: desc.mem.timing,
                queue_capacity: dram_queue,
                sched: desc.mem.sched,
            },
            num_partitions: desc.mem.num_partitions,
            partition_chunk: desc.mem.partition_chunk,
            dram_banks: desc.mem.banks,
            dram_row_bytes: desc.mem.row_bytes,
            fill_latency: desc.sm.fill_latency,
            sanitize: true,
            trace: TraceConfig::default(),
        })
    }

    /// The declarative description of this machine. Round-trips through
    /// [`GpuConfig::from_arch`] up to the structural queue defaults of
    /// absent cache levels (an absent L1/L2 reconstructs with the fallback
    /// queue capacity and [`Routing::NONE`]).
    pub fn arch_desc(&self) -> ArchDesc {
        ArchDesc {
            name: self.name.clone(),
            num_sms: self.num_sms,
            line_size: self.line_size,
            sm: SmDesc {
                warp_size: self.warp_size,
                max_warps: self.max_warps_per_sm,
                max_ctas: self.max_ctas_per_sm,
                issue_width: self.issue_width,
                scheduler: self.scheduler,
                alu_latency: self.alu_latency,
                fp_latency: self.fp_latency,
                sfu_latency: self.sfu_latency,
                shared_latency: self.shared_latency,
                base_latency: self.sm_base_latency,
                lsu_queue: self.lsu_queue,
                fill_latency: self.fill_latency,
            },
            levels: self.level_descs().to_vec(),
            fabric: FabricDesc {
                icnt: self.icnt,
                rop_latency: self.rop_latency,
                rop_queue: self.rop_queue,
            },
            mem: MemDesc {
                timing: self.dram.timing,
                sched: self.dram.sched,
                num_partitions: self.num_partitions,
                partition_chunk: self.partition_chunk,
                banks: self.dram_banks,
                row_bytes: self.dram_row_bytes,
            },
        }
    }

    /// The memory hierarchy as level descriptors, in pipeline order. Built
    /// on the stack (no allocation) so simulator constructors and hot
    /// audits can walk the hierarchy freely; absent caches keep their
    /// structural entry with no geometry.
    pub fn level_descs(&self) -> [LevelDesc; 3] {
        let l1 = match &self.l1 {
            Some(l1) => LevelDesc {
                kind: LevelKind::L1,
                geom: Some(CacheGeom {
                    cache: l1.cache,
                    mshr: l1.mshr,
                    hit_latency: l1.hit_latency,
                    sector_bytes: l1.sector_bytes,
                }),
                queue: l1.miss_queue,
                routing: Routing {
                    global: l1.serve_global,
                    local: l1.serve_local,
                },
                // The modeled L1 is always write-through write-evict; only
                // the L2 has a configurable store policy.
                write_policy: WritePolicy::WriteThrough,
                slices: 1,
            },
            None => LevelDesc {
                kind: LevelKind::L1,
                geom: None,
                queue: ABSENT_LEVEL_QUEUE,
                routing: Routing::NONE,
                write_policy: WritePolicy::WriteThrough,
                slices: 1,
            },
        };
        let l2 = match &self.l2 {
            Some(l2) => LevelDesc {
                kind: LevelKind::L2,
                geom: Some(CacheGeom {
                    cache: l2.cache,
                    mshr: l2.mshr,
                    hit_latency: l2.hit_latency,
                    sector_bytes: l2.sector_bytes,
                }),
                queue: l2.input_queue,
                routing: Routing::ALL,
                write_policy: l2.write_policy,
                slices: l2.slices,
            },
            None => LevelDesc {
                kind: LevelKind::L2,
                geom: None,
                queue: ABSENT_LEVEL_QUEUE,
                routing: Routing::NONE,
                write_policy: WritePolicy::WriteThrough,
                slices: 1,
            },
        };
        let dram = LevelDesc {
            kind: LevelKind::DramFront,
            geom: None,
            queue: self.dram.queue_capacity,
            routing: Routing::ALL,
            write_policy: WritePolicy::WriteThrough,
            slices: 1,
        };
        [l1, l2, dram]
    }

    /// The descriptor of one hierarchy level (stack-built, no allocation).
    pub fn level_desc(&self, kind: LevelKind) -> LevelDesc {
        let idx = match kind {
            LevelKind::L1 => 0,
            LevelKind::L2 => 1,
            LevelKind::DramFront => 2,
        };
        self.level_descs()[idx]
    }

    /// Builds the address map implied by this config.
    pub fn address_map(&self) -> gpu_mem::AddressMap {
        gpu_mem::AddressMap::new(
            self.num_partitions,
            self.partition_chunk,
            self.dram_banks,
            self.dram_row_bytes,
        )
    }

    /// Validates structural invariants, returning the first problem found:
    /// zero SMs/partitions, warp size outside 1..=32, mismatched or
    /// non-power-of-two line sizes, any zero-capacity queue (a pipeline
    /// stage that can never hold a request deadlocks the machine), empty
    /// MSHR tables, or an L1 that is slower than the L2 behind it. The
    /// structural checks are [`ArchDesc::validate`] applied to this
    /// config's description; only the trace sampling knob is checked here.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.arch_desc().validate()?;
        if self.trace.sample_interval == 0 {
            return Err(ConfigError::TraceSampleInterval);
        }
        Ok(())
    }

    /// Validates structural invariants (see [`GpuConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics with the violated invariant's description.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    // ---- snapshot codec and content hashing --------------------------------

    /// Serializes the complete configuration into a checkpoint: the
    /// versioned [`ArchDesc`] frame, then the trace/sanitize switches — a
    /// restored GPU must be indistinguishable from the one that was
    /// checkpointed.
    pub fn encode_state(&self, e: &mut Encoder) {
        self.arch_desc().encode_state(e);
        e.bool(self.sanitize);
        e.bool(self.trace.enabled);
        e.u64(self.trace.sample_interval);
        e.usize(self.trace.max_events);
        e.usize(self.trace.counter_capacity);
    }

    /// Decodes a configuration written by [`GpuConfig::encode_state`]:
    /// the architecture-description frame is decoded, structurally
    /// validated and lowered via [`GpuConfig::from_arch`].
    ///
    /// # Errors
    ///
    /// Rejects unknown frame versions and enum tags, and descriptions that
    /// fail structural validation — always a typed error, never a panic.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let desc = ArchDesc::decode(d)?;
        let mut cfg = GpuConfig::from_arch(&desc).map_err(|_| {
            SnapshotError::InvalidValue("configuration fails structural validation")
        })?;
        cfg.sanitize = d.bool()?;
        cfg.trace = TraceConfig {
            enabled: d.bool()?,
            sample_interval: d.u64()?,
            max_events: d.usize()?,
            counter_capacity: d.usize()?,
        };
        Ok(cfg)
    }

    /// Feeds every field that can change simulated timing into `h`, in a
    /// fixed order. Deliberately excludes the display `name` and the
    /// `sanitize`/`trace` switches: observability must not change a run's
    /// content hash (the traced-vs-untraced identity guarantee), and
    /// renaming a preset must not invalidate its cached results.
    ///
    /// The byte stream is pinned by the preset golden test — it feeds
    /// `RunSummary::content_hash` — so it keeps the flat historical field
    /// order rather than delegating to [`ArchDesc::hash_desc`].
    pub fn hash_timing(&self, h: &mut StableHasher) {
        h.usize(self.num_sms);
        h.u32(self.warp_size);
        h.usize(self.max_warps_per_sm);
        h.usize(self.max_ctas_per_sm);
        h.usize(self.issue_width);
        h.u8(match self.scheduler {
            SchedPolicy::Lrr => 0,
            SchedPolicy::Gto => 1,
        });
        h.u64(self.alu_latency);
        h.u64(self.fp_latency);
        h.u64(self.sfu_latency);
        h.u64(self.shared_latency);
        h.u64(self.sm_base_latency);
        h.usize(self.lsu_queue);
        h.u64(self.line_size);
        h.bool(self.l1.is_some());
        if let Some(l1) = &self.l1 {
            hash_cache_cfg(h, &l1.cache);
            h.usize(l1.mshr.entries);
            h.usize(l1.mshr.max_merged);
            h.u64(l1.hit_latency);
            h.usize(l1.miss_queue);
            h.bool(l1.serve_global);
            h.bool(l1.serve_local);
        }
        h.u64(self.icnt.latency);
        h.usize(self.icnt.output_queue);
        h.usize(self.icnt.inject_per_src);
        h.usize(self.icnt.eject_per_dst);
        h.u64(self.rop_latency);
        h.usize(self.rop_queue);
        h.bool(self.l2.is_some());
        if let Some(l2) = &self.l2 {
            hash_cache_cfg(h, &l2.cache);
            h.usize(l2.mshr.entries);
            h.usize(l2.mshr.max_merged);
            h.u64(l2.hit_latency);
            h.usize(l2.input_queue);
            h.u8(match l2.write_policy {
                WritePolicy::WriteThrough => 0,
                WritePolicy::WriteBack => 1,
            });
        }
        h.u64(self.dram.timing.t_rcd);
        h.u64(self.dram.timing.t_rp);
        h.u64(self.dram.timing.t_cl);
        h.u64(self.dram.timing.burst);
        h.usize(self.dram.queue_capacity);
        h.u8(match self.dram.sched {
            DramSched::FrFcfs => 0,
            DramSched::Fcfs => 1,
        });
        h.usize(self.num_partitions);
        h.u64(self.partition_chunk);
        h.usize(self.dram_banks);
        h.u64(self.dram_row_bytes);
        h.u64(self.fill_latency);
        // The v2 geometry contributes only when it deviates from the
        // pre-sector defaults, so every unsectored single-slice config keeps
        // its historical content hash (tag bytes prevent stream aliasing).
        if let Some(sector) = self.l1.as_ref().and_then(|l1| l1.sector_bytes) {
            h.u8(0xA1);
            h.u64(sector);
        }
        if let Some(sector) = self.l2.as_ref().and_then(|l2| l2.sector_bytes) {
            h.u8(0xA2);
            h.u64(sector);
        }
        if let Some(l2) = &self.l2 {
            if l2.slices > 1 {
                h.u8(0xA3);
                h.usize(l2.slices);
            }
        }
    }

    /// The machine-wide memory-transaction granule: the smallest sector any
    /// cache level declares, or the full line when nothing is sectored (see
    /// [`ArchDesc::transaction_granule`]).
    pub fn transaction_granule(&self) -> u64 {
        self.l1
            .as_ref()
            .and_then(|l1| l1.sector_bytes)
            .into_iter()
            .chain(self.l2.as_ref().and_then(|l2| l2.sector_bytes))
            .min()
            .unwrap_or(self.line_size)
    }
}

fn hash_cache_cfg(h: &mut StableHasher, c: &CacheConfig) {
    h.usize(c.sets);
    h.usize(c.ways);
    h.u64(c.line_size);
    h.u8(match c.replacement {
        Replacement::Lru => 0,
        Replacement::Fifo => 1,
    });
}

// `GpuConfig` is shared by reference across the `latency-core` worker pool
// (each experiment point clones it into its own `Gpu`), so it must stay
// `Clone + Send + Sync`; adding a non-thread-safe field breaks this build.
const _: () = {
    const fn pool_shareable<T: Clone + Send + Sync>() {}
    pool_shareable::<GpuConfig>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::PipelineSpace;

    #[test]
    fn gf100_is_valid() {
        let c = GpuConfig::fermi_gf100();
        c.assert_valid();
        assert!(c.arch_desc().serves(LevelKind::L1, PipelineSpace::Global));
        assert!(c.arch_desc().serves(LevelKind::L1, PipelineSpace::Local));
    }

    #[test]
    fn gf100_unloaded_latencies_near_table1() {
        let d = GpuConfig::fermi_gf100().arch_desc();
        let l1 = d.unloaded_latency(LevelKind::L1).unwrap();
        let l2 = d.unloaded_latency(LevelKind::L2).unwrap();
        let dram = d.unloaded_latency(LevelKind::DramFront).unwrap();
        // Fermi column of Table I: 45 / 310 / 685.
        assert!((40..=50).contains(&l1), "L1 {l1}");
        assert!((300..=320).contains(&l2), "L2 {l2}");
        assert!((670..=700).contains(&dram), "DRAM {dram}");
    }

    #[test]
    fn l1_service_respects_absence() {
        let mut c = GpuConfig::fermi_gf100();
        c.l1 = None;
        let d = c.arch_desc();
        assert!(!d.serves(LevelKind::L1, PipelineSpace::Global));
        assert!(!d.serves(LevelKind::L1, PipelineSpace::Local));
        assert_eq!(d.unloaded_latency(LevelKind::L1), None);
    }

    #[test]
    fn address_map_matches_partitions() {
        let c = GpuConfig::fermi_gf100();
        assert_eq!(c.address_map().partitions(), c.num_partitions);
    }

    #[test]
    fn sanitizer_is_on_by_default() {
        assert!(GpuConfig::fermi_gf100().sanitize);
    }

    #[test]
    fn tracing_is_off_by_default() {
        assert!(!GpuConfig::fermi_gf100().trace.enabled);
    }

    #[test]
    fn arch_desc_roundtrips_through_from_arch() {
        let c = GpuConfig::fermi_gf100();
        let back = GpuConfig::from_arch(&c.arch_desc()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn sectored_sliced_config_roundtrips_and_hashes_apart() {
        let base = GpuConfig::fermi_gf100();
        let mut modern = base.clone();
        modern.l1.as_mut().unwrap().sector_bytes = Some(32);
        let l2 = modern.l2.as_mut().unwrap();
        l2.sector_bytes = Some(32);
        l2.slices = 4;
        modern.assert_valid();
        let back = GpuConfig::from_arch(&modern.arch_desc()).unwrap();
        assert_eq!(back, modern);
        assert_eq!(modern.transaction_granule(), 32);
        assert_eq!(base.transaction_granule(), 128);
        let digest = |c: &GpuConfig| {
            let mut h = StableHasher::new();
            c.hash_timing(&mut h);
            h.finish()
        };
        assert_ne!(digest(&base), digest(&modern));
    }

    #[test]
    fn cacheless_config_roundtrips_with_structural_defaults() {
        let mut c = GpuConfig::fermi_gf100();
        c.l1 = None;
        c.l2 = None;
        let back = GpuConfig::from_arch(&c.arch_desc()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn from_arch_rejects_invalid_descriptions() {
        let mut desc = GpuConfig::fermi_gf100().arch_desc();
        desc.fabric.rop_queue = 0;
        assert_eq!(GpuConfig::from_arch(&desc), Err(ConfigError::RopQueue));
    }

    #[test]
    fn validate_reports_typed_errors() {
        let mut c = GpuConfig::fermi_gf100();
        c.num_sms = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoSms));
        let mut c = GpuConfig::fermi_gf100();
        c.trace.sample_interval = 0;
        assert_eq!(c.validate(), Err(ConfigError::TraceSampleInterval));
    }

    #[test]
    fn unloaded_walk_matches_historical_formulas() {
        let c = GpuConfig::fermi_gf100();
        let l1 = c.l1.as_ref().unwrap();
        let l2 = c.l2.as_ref().unwrap();
        let d = c.arch_desc();
        assert_eq!(
            d.unloaded_latency(LevelKind::L1),
            Some(c.sm_base_latency + l1.hit_latency)
        );
        assert_eq!(
            d.unloaded_latency(LevelKind::L2),
            Some(
                c.sm_base_latency
                    + 2 * c.icnt.latency
                    + c.rop_latency
                    + l2.hit_latency
                    + c.fill_latency
                    + 1
            )
        );
        assert_eq!(
            d.unloaded_latency(LevelKind::DramFront),
            Some(
                c.sm_base_latency
                    + 2 * c.icnt.latency
                    + c.rop_latency
                    + c.dram.timing.row_conflict()
                    + c.dram.timing.burst
                    + c.fill_latency
                    + 2
            )
        );
    }

    #[test]
    #[should_panic(expected = "trace sample interval")]
    fn zero_sample_interval_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.trace.sample_interval = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "ROP queue capacity")]
    fn zero_rop_queue_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.rop_queue = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "DRAM controller queue")]
    fn zero_dram_queue_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.dram.queue_capacity = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "LSU queue")]
    fn undersized_lsu_queue_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.lsu_queue = c.warp_size as usize; // one short of a worst-case warp
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "L1 miss queue")]
    fn zero_l1_miss_queue_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.l1.as_mut().unwrap().miss_queue = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "L2 input queue")]
    fn zero_l2_input_queue_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.l2.as_mut().unwrap().input_queue = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "L1 MSHR merge depth")]
    fn zero_l1_merge_depth_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.l1.as_mut().unwrap().mshr.max_merged = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "L1 hit latency")]
    fn l1_slower_than_l2_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.l1.as_mut().unwrap().hit_latency = c.l2.as_ref().unwrap().hit_latency;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_is_rejected() {
        let mut c = GpuConfig::fermi_gf100();
        c.line_size = 96;
        c.assert_valid();
    }

    #[test]
    fn missing_cache_levels_skip_their_checks() {
        // A Tesla-style config (no caches) must not trip the L1/L2 checks.
        let mut c = GpuConfig::fermi_gf100();
        c.l1 = None;
        c.l2 = None;
        c.assert_valid();
    }
}
