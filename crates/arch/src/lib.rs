//! Declarative GPU architecture descriptions.
//!
//! The paper's central observation (§II, Table I) is that latency *structure*
//! varies by generation: which cache levels exist, which address spaces each
//! serves (Tesla: uncached global; Kepler: L1 local-only; Maxwell: no L1),
//! and how deep the queues between them are. An [`ArchDesc`] captures that
//! structure as data — an ordered list of [`LevelDesc`] entries plus SM,
//! fabric and DRAM timing — so a new generation is a new table, not new
//! `match` arms scattered across the simulator.
//!
//! The `gpu-sim` crate constructs its `GpuConfig` *from* a description
//! (`GpuConfig::from_arch`) and can reconstruct the description from any
//! config (`GpuConfig::arch_desc`); the two forms are interconvertible.
//! Validation lives here ([`ArchDesc::validate`], typed [`ConfigError`]),
//! as does the generic level-list walk for unloaded latencies
//! ([`ArchDesc::unloaded_latency`]).

#![forbid(unsafe_code)]

use std::fmt;

use gpu_icnt::IcntConfig;
use gpu_mem::{CacheConfig, DramSched, DramTiming, MshrConfig, PipelineSpace, Replacement};
use gpu_snapshot::{Decoder, Encoder, SnapshotError, StableHasher};

/// Version tag of the [`ArchDesc`] snapshot frame. Bumped whenever the
/// encoded field set changes; [`ArchDesc::decode`] rejects mismatches with a
/// typed error instead of misreading the stream.
///
/// Version 2 adds the modern-generation geometry: an optional per-level
/// sector size ([`CacheGeom::sector_bytes`]) and a per-level slice count
/// ([`LevelDesc::slices`]). Version-1 frames are still accepted and
/// up-convert losslessly (unsectored = no sector, one slice); any other
/// version is rejected with a typed error.
pub const ARCH_DESC_VERSION: u32 = 2;

/// Upper bound on [`LevelDesc::slices`]. Static so the per-slice sanitizer
/// queue labels can live in `&'static str` tables (the violation codec
/// round-trips labels by table index).
pub const MAX_L2_SLICES: usize = 8;

/// Warp scheduling policy of an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Loose round-robin: rotate priority one slot past the last issuer.
    Lrr,
    /// Greedy-then-oldest: keep issuing the same warp until it stalls, then
    /// fall back to the oldest ready warp.
    Gto,
}

/// How a cache level handles stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-through, no-allocate, write-evict: every store goes to DRAM
    /// (the workspace default, and the policy the Table-I calibration
    /// assumes).
    WriteThrough,
    /// Write-back with write-allocate (no fetch-on-write): stores complete
    /// at the cache and dirty victims are written back on eviction — closer
    /// to real Fermi's L2 and available as an ablation (experiment E8).
    WriteBack,
}

/// The position a level occupies in the memory pipeline. The kind fixes a
/// level's structural role (where its queues sit, which stamps delimit it);
/// everything tunable about it lives in its [`LevelDesc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelKind {
    /// Per-SM first-level cache, probed before the interconnect.
    L1,
    /// Per-partition second-level slice behind the ROP pipeline.
    L2,
    /// The DRAM channel front: controller queue + banked timing. Always the
    /// last level; never carries a tag array.
    DramFront,
}

impl LevelKind {
    /// Every kind, in pipeline order.
    pub const ALL: [LevelKind; 3] = [LevelKind::L1, LevelKind::L2, LevelKind::DramFront];

    /// Display label used in error messages and derived stage names.
    pub const fn label(self) -> &'static str {
        match self {
            LevelKind::L1 => "L1",
            LevelKind::L2 => "L2",
            LevelKind::DramFront => "DRAM",
        }
    }

    /// Sanitizer label of the bounded queue feeding this level (the L1's
    /// miss queue toward the interconnect, the L2's input queue from the
    /// ROP, the DRAM controller queue). These are `&'static str` so the
    /// sanitizer's violation codec can round-trip them by table index.
    pub const fn queue_label(self) -> &'static str {
        match self {
            LevelKind::L1 => "miss",
            LevelKind::L2 => "l2-input",
            LevelKind::DramFront => "dram",
        }
    }

    /// Sanitizer label of this level's hit-return pipe.
    pub const fn hit_pipe_label(self) -> &'static str {
        match self {
            LevelKind::L1 => "l1-hit",
            LevelKind::L2 => "l2-hit",
            LevelKind::DramFront => "dram-return",
        }
    }

    /// Sanitizer label of the input queue of one slice of this level. Only
    /// the L2 slices ([`MAX_L2_SLICES`] at most), so only it has per-slice
    /// labels; a single-slice level keeps the legacy [`Self::queue_label`]
    /// so existing traces and goldens are untouched.
    pub const fn sliced_queue_label(self, slice: usize) -> &'static str {
        const LABELS: [&str; MAX_L2_SLICES] = [
            "l2-input.0",
            "l2-input.1",
            "l2-input.2",
            "l2-input.3",
            "l2-input.4",
            "l2-input.5",
            "l2-input.6",
            "l2-input.7",
        ];
        match self {
            LevelKind::L2 if slice < MAX_L2_SLICES => LABELS[slice],
            _ => self.queue_label(),
        }
    }

    /// Sanitizer label of the hit-return pipe of one slice of this level
    /// (see [`Self::sliced_queue_label`]).
    pub const fn sliced_hit_pipe_label(self, slice: usize) -> &'static str {
        const LABELS: [&str; MAX_L2_SLICES] = [
            "l2-hit.0", "l2-hit.1", "l2-hit.2", "l2-hit.3", "l2-hit.4", "l2-hit.5", "l2-hit.6",
            "l2-hit.7",
        ];
        match self {
            LevelKind::L2 if slice < MAX_L2_SLICES => LABELS[slice],
            _ => self.hit_pipe_label(),
        }
    }

    fn tag(self) -> u8 {
        match self {
            LevelKind::L1 => 0,
            LevelKind::L2 => 1,
            LevelKind::DramFront => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(LevelKind::L1),
            1 => Ok(LevelKind::L2),
            2 => Ok(LevelKind::DramFront),
            _ => Err(SnapshotError::InvalidValue("unknown level-kind tag")),
        }
    }
}

impl fmt::Display for LevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which pipeline address spaces a cache level serves — the per-generation
/// routing table at the heart of the paper's §II discussion (Fermi L1:
/// global+local; Kepler L1: local only; GK110 read-only path: global too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routing {
    /// Serve global-space accesses?
    pub global: bool,
    /// Serve local-space accesses?
    pub local: bool,
}

impl Routing {
    /// Serves every pipeline space.
    pub const ALL: Routing = Routing {
        global: true,
        local: true,
    };
    /// Serves nothing (the routing of an absent cache).
    pub const NONE: Routing = Routing {
        global: false,
        local: false,
    };

    /// Returns `true` if accesses of `space` are routed through this level.
    pub fn serves(self, space: PipelineSpace) -> bool {
        match space {
            PipelineSpace::Global => self.global,
            PipelineSpace::Local => self.local,
        }
    }
}

/// Tag-array geometry of a cache level: the part of a [`LevelDesc`] that
/// exists only when the level actually has a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Set/way/line geometry.
    pub cache: CacheConfig,
    /// MSHR table (entries × merge depth).
    pub mshr: MshrConfig,
    /// Hit latency: probe-to-data, in cycles.
    pub hit_latency: u64,
    /// Fill/tag granularity in bytes. `None` models the classic unsectored
    /// line (fills move whole lines — equivalently, one sector per line);
    /// `Some(s)` models a sectored cache à la Pascal and later, where a miss
    /// only fetches the `s`-byte sectors a warp touched, tags track per-sector
    /// validity, and miss traffic is counted in sectors. Must be a power of
    /// two strictly dividing the line size.
    pub sector_bytes: Option<u64>,
}

impl CacheGeom {
    /// The memory-transaction granule of this level: the sector size when
    /// sectored, else the full line.
    pub fn granule(&self) -> u64 {
        self.sector_bytes.unwrap_or(self.cache.line_size)
    }

    /// Sectors per line (1 for an unsectored cache).
    pub fn sectors_per_line(&self) -> usize {
        match self.sector_bytes {
            Some(s) if s > 0 => (self.cache.line_size / s) as usize,
            _ => 1,
        }
    }
}

/// One level of the memory hierarchy. The simulator instantiates the level's
/// structural skeleton (its bounded queue, its hit pipe) whether or not the
/// tag array exists — a Tesla partition still has an input queue in front of
/// its DRAM path — so `queue` and the labels are always meaningful, while
/// `geom` and `routing` matter only for levels that cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDesc {
    /// Structural role of this level.
    pub kind: LevelKind,
    /// Tag array, MSHRs and hit latency; `None` for generations without
    /// this cache (and always `None` for the DRAM front).
    pub geom: Option<CacheGeom>,
    /// Capacity of the bounded queue feeding this level: the L1's miss
    /// queue toward the interconnect (the paper's `L1toICNT` queue), the
    /// L2's input queue behind the ROP, the DRAM controller queue.
    pub queue: usize,
    /// Address spaces this level serves ([`Routing::NONE`] when `geom` is
    /// absent).
    pub routing: Routing,
    /// Store handling at this level (meaningful for the L2).
    pub write_policy: WritePolicy,
    /// Number of independent slices this level is hash-interleaved across
    /// (1 = the classic monolithic bank). Only the L2 may exceed 1, up to
    /// [`MAX_L2_SLICES`]; each slice owns its own input queue, tag array,
    /// MSHR table and hit pipe behind the partition's shared ROP, and `geom`
    /// then describes ONE slice (total capacity = `slices` × slice capacity).
    /// Addresses map to slices via [`slice_of`].
    pub slices: usize,
}

impl LevelDesc {
    /// The MSHR configuration to size this level's table with: the real one
    /// when a cache exists, or a 1×1 placeholder for the always-empty table
    /// of a cacheless level (the simulator instantiates the table either
    /// way so the fill path is uniform).
    pub fn mshr_config(&self) -> MshrConfig {
        self.geom.map_or(
            MshrConfig {
                entries: 1,
                max_merged: 1,
            },
            |g| g.mshr,
        )
    }

    /// This level's routing, masked by cache presence: an absent cache
    /// serves nothing regardless of what the routing table says.
    pub fn effective_routing(&self) -> Routing {
        if self.geom.is_some() {
            self.routing
        } else {
            Routing::NONE
        }
    }
}

/// SM core timing and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmDesc {
    /// Threads per warp (≤ 32).
    pub warp_size: u32,
    /// Warp slots per SM.
    pub max_warps: usize,
    /// Maximum concurrent CTAs per SM.
    pub max_ctas: usize,
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
    /// Fixed in-SM front-end time for a memory access (the head of the
    /// paper's "SM Base" component).
    pub base_latency: u64,
    /// Capacity of the in-SM memory front-end pipeline.
    pub lsu_queue: usize,
    /// Response-side writeback latency at the SM (tail of "Fetch2SM").
    pub fill_latency: u64,
}

/// Interconnect and ROP timing between the SMs and the partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricDesc {
    /// Crossbar configuration (applied to both request and reply networks).
    pub icnt: IcntConfig,
    /// Fixed raster-operations pipeline latency in front of the L2.
    pub rop_latency: u64,
    /// ROP pipeline slot capacity.
    pub rop_queue: usize,
}

/// DRAM channel timing and the partition-interleaved address map geometry.
/// The controller queue capacity lives in the [`LevelKind::DramFront`]
/// level's `queue`, with the rest of the hierarchy's queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDesc {
    /// Channel timing (per partition).
    pub timing: DramTiming,
    /// Request scheduling algorithm.
    pub sched: DramSched,
    /// Number of memory partitions.
    pub num_partitions: usize,
    /// Partition interleave chunk in bytes.
    pub partition_chunk: u64,
    /// DRAM banks per partition.
    pub banks: usize,
    /// DRAM row size in bytes.
    pub row_bytes: u64,
}

/// Complete declarative description of one GPU generation.
///
/// # Examples
///
/// Walk a description's hierarchy:
///
/// ```
/// use gpu_arch::{ArchDesc, LevelKind};
/// # fn demo(desc: &ArchDesc) {
/// for level in &desc.levels {
///     println!("{}: queue {}", level.kind, level.queue);
/// }
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchDesc {
    /// Human-readable name ("GF100-like (Fermi)", …) used in reports.
    /// Excluded from [`ArchDesc::hash_desc`] — renaming a generation must
    /// not invalidate cached results.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Cache-line / memory-transaction size in bytes, shared by every level.
    pub line_size: u64,
    /// SM core timing.
    pub sm: SmDesc,
    /// The memory hierarchy, in pipeline order: L1, L2, DRAM front. Levels
    /// whose cache a generation lacks keep their entry (the structural
    /// queues still exist) with `geom: None`.
    pub levels: Vec<LevelDesc>,
    /// Interconnect and ROP timing.
    pub fabric: FabricDesc,
    /// DRAM channel timing and address-map geometry.
    pub mem: MemDesc,
}

impl ArchDesc {
    /// The level of the given kind, if the description lists it.
    pub fn level(&self, kind: LevelKind) -> Option<&LevelDesc> {
        self.levels.iter().find(|l| l.kind == kind)
    }

    /// Returns `true` if the level of `kind` exists, has a cache, and its
    /// routing serves `space`.
    pub fn serves(&self, kind: LevelKind, space: PipelineSpace) -> bool {
        self.level(kind)
            .is_some_and(|l| l.effective_routing().serves(space))
    }

    /// The hierarchy levels at which an access of `space` can be *served*
    /// (hit, or reach DRAM), in pipeline order: the L1 when it exists and
    /// its routing covers the space (and the access does not bypass it, as
    /// atomics do), the L2 when it carries a tag array, and always the DRAM
    /// front. This is the static counterpart of the per-request level span
    /// the tracer records — a traced request can only ever be served at one
    /// of these levels.
    pub fn feasible_levels(&self, space: PipelineSpace, bypass_l1: bool) -> Vec<LevelKind> {
        let mut out = Vec::with_capacity(3);
        if !bypass_l1 && self.serves(LevelKind::L1, space) {
            out.push(LevelKind::L1);
        }
        if self.level(LevelKind::L2).is_some_and(|l| l.geom.is_some()) {
            out.push(LevelKind::L2);
        }
        out.push(LevelKind::DramFront);
        out
    }

    /// The first level an access of `space` can be served at — the shallowest
    /// entry of [`ArchDesc::feasible_levels`].
    pub fn entry_level(&self, space: PipelineSpace, bypass_l1: bool) -> LevelKind {
        self.feasible_levels(space, bypass_l1)[0]
    }

    /// Analytic unloaded-latency floor for an access of `space`: the
    /// [`ArchDesc::unloaded_latency`] of its entry level (the best case — a
    /// hit at the first level that can serve it). No traced access of this
    /// space can complete faster.
    pub fn unloaded_floor(&self, space: PipelineSpace, bypass_l1: bool) -> u64 {
        self.unloaded_latency(self.entry_level(space, bypass_l1))
            .expect("entry level is always servable")
    }

    /// The microbenchmark transform: the same machine shrunk to one SM and
    /// one partition. Every pipeline latency, queue depth and cache
    /// geometry is untouched, so a single-threaded pointer chase measures
    /// identical per-access latencies while the simulator does a fraction
    /// of the work. This is the documented relationship between
    /// `ArchPreset::config()` and `ArchPreset::config_microbench()`: one
    /// description, two machine sizes.
    pub fn microbench(&self) -> ArchDesc {
        let mut d = self.clone();
        d.num_sms = 1;
        d.mem.num_partitions = 1;
        d
    }

    /// The machine-wide memory-transaction granule: the smallest sector any
    /// cached level declares, or the full line when nothing is sectored.
    /// The coalescer, the MSHR keyspace and per-warp miss-traffic accounting
    /// all work at this granularity, so an unsectored machine behaves
    /// exactly as before (granule == line).
    pub fn transaction_granule(&self) -> u64 {
        self.levels
            .iter()
            .filter_map(|l| l.geom.as_ref().and_then(|g| g.sector_bytes))
            .min()
            .unwrap_or(self.line_size)
    }

    /// Validates structural invariants, returning the first problem found
    /// in a fixed order: machine geometry, SM front-end, fabric queues,
    /// then each level in pipeline order.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant as a typed [`ConfigError`] (its
    /// `Display` text names the problem).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_topology()?;
        if self.num_sms == 0 {
            return Err(ConfigError::NoSms);
        }
        if self.mem.num_partitions == 0 {
            return Err(ConfigError::NoPartitions);
        }
        if !(1..=32).contains(&self.sm.warp_size) {
            return Err(ConfigError::WarpSize);
        }
        if self.sm.issue_width == 0 {
            return Err(ConfigError::IssueWidth);
        }
        if self.sm.max_warps == 0 {
            return Err(ConfigError::NoWarpSlots);
        }
        if self.sm.max_ctas == 0 {
            return Err(ConfigError::NoCtaSlots);
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(ConfigError::LineSize);
        }
        // The coalescer emits up to warp_size + 1 transactions per access
        // and the issue stage requires that much free space, so a smaller
        // front-end pipe could never issue a memory instruction.
        if self.sm.lsu_queue <= self.sm.warp_size as usize {
            return Err(ConfigError::LsuQueue);
        }
        if self.fabric.rop_queue == 0 {
            return Err(ConfigError::RopQueue);
        }
        if self.fabric.icnt.output_queue == 0 {
            return Err(ConfigError::IcntQueue);
        }
        // A zero-capacity queue is a pipeline stage that can never hold a
        // request: the machine deadlocks. The DRAM front's queue is checked
        // first (matching the historical check order); cache levels follow
        // in pipeline order.
        let dram = self.level(LevelKind::DramFront).expect("topology checked");
        if dram.queue == 0 {
            return Err(ConfigError::LevelQueue(LevelKind::DramFront));
        }
        for level in &self.levels {
            let Some(geom) = &level.geom else { continue };
            if geom.cache.line_size != self.line_size {
                return Err(ConfigError::LevelLineSize(level.kind));
            }
            if level.queue == 0 {
                return Err(ConfigError::LevelQueue(level.kind));
            }
            if geom.mshr.entries == 0 {
                return Err(ConfigError::MshrEntries(level.kind));
            }
            if geom.mshr.max_merged == 0 {
                return Err(ConfigError::MshrMergeDepth(level.kind));
            }
            if let Some(sector) = geom.sector_bytes {
                // An unsectored line is expressed as `None`, so a declared
                // sector must be a strict subdivision of the line.
                if !sector.is_power_of_two() || sector >= geom.cache.line_size {
                    return Err(ConfigError::SectorSize(level.kind));
                }
            }
        }
        for level in &self.levels {
            if level.slices == 0 || level.slices > MAX_L2_SLICES {
                return Err(ConfigError::LevelSlices(level.kind));
            }
            if level.slices > 1 && level.kind != LevelKind::L2 {
                return Err(ConfigError::SlicedLevel(level.kind));
            }
        }
        // Adjacent cache levels must be ordered: a hit further out can
        // never be faster than a hit closer in.
        let caches: Vec<&LevelDesc> = self.levels.iter().filter(|l| l.geom.is_some()).collect();
        for pair in caches.windows(2) {
            let (upper, lower) = (pair[0], pair[1]);
            let (ug, lg) = (upper.geom.expect("filtered"), lower.geom.expect("filtered"));
            if ug.hit_latency >= lg.hit_latency {
                return Err(ConfigError::LevelOrdering {
                    upper: upper.kind,
                    upper_hit: ug.hit_latency,
                    lower: lower.kind,
                    lower_hit: lg.hit_latency,
                });
            }
        }
        Ok(())
    }

    /// The level list must name each kind exactly once, in pipeline order,
    /// and the DRAM front can never carry a tag array — the shape the
    /// simulator's component skeleton is built around.
    fn validate_topology(&self) -> Result<(), ConfigError> {
        if self.levels.len() != LevelKind::ALL.len()
            || self
                .levels
                .iter()
                .zip(LevelKind::ALL)
                .any(|(l, k)| l.kind != k)
        {
            return Err(ConfigError::UnsupportedTopology(
                "level list must name L1, L2 and the DRAM front exactly once, in pipeline order",
            ));
        }
        let dram = self.level(LevelKind::DramFront).expect("length checked");
        if dram.geom.is_some() {
            return Err(ConfigError::UnsupportedTopology(
                "the DRAM front never carries a tag array",
            ));
        }
        Ok(())
    }

    // ---- generic latency walks --------------------------------------------

    /// Analytic unloaded (zero-contention) latency of a hit at the level of
    /// the given kind, as one generic walk over the level list:
    ///
    /// - The first (SM-side) level resolves hits locally over the direct
    ///   writeback path: `base + hit`.
    /// - A miss is detected by a same-cycle tag probe, and the miss queue
    ///   drains into interconnect injection without a residency cycle, so
    ///   leaving the SM costs the fabric alone: request traversal + ROP +
    ///   reply traversal.
    /// - Every partition-side level is entered through a bounded queue that
    ///   costs one cycle of residency whether or not its tag array exists
    ///   (a Tesla partition still queues in front of its DRAM path).
    /// - The target level's access cost is its hit latency — or, for the
    ///   DRAM front, the steady-state row-*conflict* path plus the data
    ///   burst (a pointer-chase ring revisits each bank with a new row).
    /// - Responses re-enter the SM through the fill stage.
    ///
    /// Returns `None` when the target level has no cache (and is not the
    /// DRAM front), or is not listed.
    pub fn unloaded_latency(&self, target: LevelKind) -> Option<u64> {
        let mut levels = self.levels.iter();
        let mut cost = self.sm.base_latency;
        if let Some(first) = levels.next() {
            if first.kind == target {
                return Some(cost + first.geom?.hit_latency);
            }
        }
        cost += 2 * self.fabric.icnt.latency + self.fabric.rop_latency;
        for level in levels {
            cost += 1;
            if level.kind != target {
                continue;
            }
            let access = match level.kind {
                LevelKind::DramFront => self.mem.timing.row_conflict() + self.mem.timing.burst,
                _ => level.geom?.hit_latency,
            };
            return Some(cost + access + self.sm.fill_latency);
        }
        None
    }

    // ---- hashing and snapshot codec ---------------------------------------

    /// Feeds every timing- and structure-relevant field into `h`, in a
    /// fixed order. Deliberately excludes the display `name`: renaming a
    /// generation must not invalidate cached results keyed on the
    /// description.
    pub fn hash_desc(&self, h: &mut StableHasher) {
        h.usize(self.num_sms);
        h.u64(self.line_size);
        h.u32(self.sm.warp_size);
        h.usize(self.sm.max_warps);
        h.usize(self.sm.max_ctas);
        h.usize(self.sm.issue_width);
        h.u8(sched_tag(self.sm.scheduler));
        h.u64(self.sm.alu_latency);
        h.u64(self.sm.fp_latency);
        h.u64(self.sm.sfu_latency);
        h.u64(self.sm.shared_latency);
        h.u64(self.sm.base_latency);
        h.usize(self.sm.lsu_queue);
        h.u64(self.sm.fill_latency);
        h.usize(self.levels.len());
        for level in &self.levels {
            h.u8(level.kind.tag());
            h.bool(level.geom.is_some());
            if let Some(g) = &level.geom {
                h.usize(g.cache.sets);
                h.usize(g.cache.ways);
                h.u64(g.cache.line_size);
                h.u8(replacement_tag(g.cache.replacement));
                h.usize(g.mshr.entries);
                h.usize(g.mshr.max_merged);
                h.u64(g.hit_latency);
            }
            h.usize(level.queue);
            h.bool(level.routing.global);
            h.bool(level.routing.local);
            h.u8(write_policy_tag(level.write_policy));
            // The v2 geometry contributes to the digest only when it
            // deviates from the v1 defaults (unsectored, one slice), so
            // every pre-sector description keeps its historical hash and
            // the preset goldens stay bit-identical. The tag bytes keep a
            // sectored stream from aliasing an unsectored one.
            if let Some(sector) = level.geom.as_ref().and_then(|g| g.sector_bytes) {
                h.u8(0xA1);
                h.u64(sector);
            }
            if level.slices > 1 {
                h.u8(0xA2);
                h.usize(level.slices);
            }
        }
        h.u64(self.fabric.icnt.latency);
        h.usize(self.fabric.icnt.output_queue);
        h.usize(self.fabric.icnt.inject_per_src);
        h.usize(self.fabric.icnt.eject_per_dst);
        h.u64(self.fabric.rop_latency);
        h.usize(self.fabric.rop_queue);
        h.u64(self.mem.timing.t_rcd);
        h.u64(self.mem.timing.t_rp);
        h.u64(self.mem.timing.t_cl);
        h.u64(self.mem.timing.burst);
        h.u8(dram_sched_tag(self.mem.sched));
        h.usize(self.mem.num_partitions);
        h.u64(self.mem.partition_chunk);
        h.usize(self.mem.banks);
        h.u64(self.mem.row_bytes);
    }

    /// Serializes the description as a self-versioned frame (the
    /// [`ARCH_DESC_VERSION`] tag first, then every field).
    pub fn encode_state(&self, e: &mut Encoder) {
        e.u32(ARCH_DESC_VERSION);
        e.str(&self.name);
        e.usize(self.num_sms);
        e.u64(self.line_size);
        e.u32(self.sm.warp_size);
        e.usize(self.sm.max_warps);
        e.usize(self.sm.max_ctas);
        e.usize(self.sm.issue_width);
        e.u8(sched_tag(self.sm.scheduler));
        e.u64(self.sm.alu_latency);
        e.u64(self.sm.fp_latency);
        e.u64(self.sm.sfu_latency);
        e.u64(self.sm.shared_latency);
        e.u64(self.sm.base_latency);
        e.usize(self.sm.lsu_queue);
        e.u64(self.sm.fill_latency);
        e.usize(self.levels.len());
        for level in &self.levels {
            e.u8(level.kind.tag());
            match &level.geom {
                None => e.bool(false),
                Some(g) => {
                    e.bool(true);
                    e.usize(g.cache.sets);
                    e.usize(g.cache.ways);
                    e.u64(g.cache.line_size);
                    e.u8(replacement_tag(g.cache.replacement));
                    e.usize(g.mshr.entries);
                    e.usize(g.mshr.max_merged);
                    e.u64(g.hit_latency);
                    e.bool(g.sector_bytes.is_some());
                    if let Some(sector) = g.sector_bytes {
                        e.u64(sector);
                    }
                }
            }
            e.usize(level.queue);
            e.bool(level.routing.global);
            e.bool(level.routing.local);
            e.u8(write_policy_tag(level.write_policy));
            e.usize(level.slices);
        }
        e.u64(self.fabric.icnt.latency);
        e.usize(self.fabric.icnt.output_queue);
        e.usize(self.fabric.icnt.inject_per_src);
        e.usize(self.fabric.icnt.eject_per_dst);
        e.u64(self.fabric.rop_latency);
        e.usize(self.fabric.rop_queue);
        e.u64(self.mem.timing.t_rcd);
        e.u64(self.mem.timing.t_rp);
        e.u64(self.mem.timing.t_cl);
        e.u64(self.mem.timing.burst);
        e.u8(dram_sched_tag(self.mem.sched));
        e.usize(self.mem.num_partitions);
        e.u64(self.mem.partition_chunk);
        e.usize(self.mem.banks);
        e.u64(self.mem.row_bytes);
    }

    /// Decodes a description written by [`ArchDesc::encode_state`].
    ///
    /// # Errors
    ///
    /// Rejects unknown frame versions and enum tags (typed
    /// [`SnapshotError`], never a panic) and propagates decoder errors.
    pub fn decode(d: &mut Decoder) -> Result<Self, SnapshotError> {
        let version = d.u32()?;
        if version != 1 && version != ARCH_DESC_VERSION {
            return Err(SnapshotError::InvalidValue(
                "unsupported architecture-description frame version",
            ));
        }
        let name = d.str()?.to_string();
        let num_sms = d.usize()?;
        let line_size = d.u64()?;
        let sm = SmDesc {
            warp_size: d.u32()?,
            max_warps: d.usize()?,
            max_ctas: d.usize()?,
            issue_width: d.usize()?,
            scheduler: sched_from_tag(d.u8()?)?,
            alu_latency: d.u64()?,
            fp_latency: d.u64()?,
            sfu_latency: d.u64()?,
            shared_latency: d.u64()?,
            base_latency: d.u64()?,
            lsu_queue: d.usize()?,
            fill_latency: d.u64()?,
        };
        let mut levels = Vec::new();
        for _ in 0..d.usize()? {
            let kind = LevelKind::from_tag(d.u8()?)?;
            let geom = if d.bool()? {
                Some(CacheGeom {
                    cache: CacheConfig {
                        sets: d.usize()?,
                        ways: d.usize()?,
                        line_size: d.u64()?,
                        replacement: replacement_from_tag(d.u8()?)?,
                    },
                    mshr: MshrConfig {
                        entries: d.usize()?,
                        max_merged: d.usize()?,
                    },
                    hit_latency: d.u64()?,
                    // v1 frames predate sectoring: up-convert to the
                    // unsectored line they always meant.
                    sector_bytes: if version >= 2 {
                        if d.bool()? {
                            Some(d.u64()?)
                        } else {
                            None
                        }
                    } else {
                        None
                    },
                })
            } else {
                None
            };
            levels.push(LevelDesc {
                kind,
                geom,
                queue: d.usize()?,
                routing: Routing {
                    global: d.bool()?,
                    local: d.bool()?,
                },
                write_policy: write_policy_from_tag(d.u8()?)?,
                // v1 levels are always monolithic single-bank levels.
                slices: if version >= 2 { d.usize()? } else { 1 },
            });
        }
        let fabric = FabricDesc {
            icnt: IcntConfig {
                latency: d.u64()?,
                output_queue: d.usize()?,
                inject_per_src: d.usize()?,
                eject_per_dst: d.usize()?,
            },
            rop_latency: d.u64()?,
            rop_queue: d.usize()?,
        };
        let mem = MemDesc {
            timing: DramTiming {
                t_rcd: d.u64()?,
                t_rp: d.u64()?,
                t_cl: d.u64()?,
                burst: d.u64()?,
            },
            sched: dram_sched_from_tag(d.u8()?)?,
            num_partitions: d.usize()?,
            partition_chunk: d.u64()?,
            banks: d.usize()?,
            row_bytes: d.u64()?,
        };
        Ok(ArchDesc {
            name,
            num_sms,
            line_size,
            sm,
            levels,
            fabric,
            mem,
        })
    }
}

fn sched_tag(s: SchedPolicy) -> u8 {
    match s {
        SchedPolicy::Lrr => 0,
        SchedPolicy::Gto => 1,
    }
}

fn sched_from_tag(tag: u8) -> Result<SchedPolicy, SnapshotError> {
    match tag {
        0 => Ok(SchedPolicy::Lrr),
        1 => Ok(SchedPolicy::Gto),
        _ => Err(SnapshotError::InvalidValue("unknown scheduler tag")),
    }
}

fn write_policy_tag(w: WritePolicy) -> u8 {
    match w {
        WritePolicy::WriteThrough => 0,
        WritePolicy::WriteBack => 1,
    }
}

fn write_policy_from_tag(tag: u8) -> Result<WritePolicy, SnapshotError> {
    match tag {
        0 => Ok(WritePolicy::WriteThrough),
        1 => Ok(WritePolicy::WriteBack),
        _ => Err(SnapshotError::InvalidValue("unknown write-policy tag")),
    }
}

fn replacement_tag(r: Replacement) -> u8 {
    match r {
        Replacement::Lru => 0,
        Replacement::Fifo => 1,
    }
}

fn replacement_from_tag(tag: u8) -> Result<Replacement, SnapshotError> {
    match tag {
        0 => Ok(Replacement::Lru),
        1 => Ok(Replacement::Fifo),
        _ => Err(SnapshotError::InvalidValue("unknown replacement tag")),
    }
}

fn dram_sched_tag(s: DramSched) -> u8 {
    match s {
        DramSched::FrFcfs => 0,
        DramSched::Fcfs => 1,
    }
}

fn dram_sched_from_tag(tag: u8) -> Result<DramSched, SnapshotError> {
    match tag {
        0 => Ok(DramSched::FrFcfs),
        1 => Ok(DramSched::Fcfs),
        _ => Err(SnapshotError::InvalidValue("unknown DRAM scheduler tag")),
    }
}

/// Deterministic address-to-slice hash for a multi-slice level: XOR-folds
/// the line index in 3-bit groups (3 = log2 [`MAX_L2_SLICES`]) and reduces
/// modulo `slices`. The fold mixes high index bits into the low ones, so
/// power-of-two strides spread across slices instead of camping on one; a
/// single-slice level always maps to slice 0.
pub fn slice_of(addr: u64, line_size: u64, slices: usize) -> usize {
    if slices <= 1 {
        return 0;
    }
    let mut line = addr / line_size.max(1);
    let mut folded = 0u64;
    while line != 0 {
        folded ^= line;
        line >>= 3;
    }
    (folded % slices as u64) as usize
}

/// A violated structural invariant of an [`ArchDesc`] (or of the
/// `GpuConfig` built from one). The `Display` text is stable — downstream
/// panics and tests match on it — and reproduces the historical
/// string-error messages verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine has no SMs.
    NoSms,
    /// The machine has no memory partitions.
    NoPartitions,
    /// Warp size outside `1..=32`.
    WarpSize,
    /// Zero issue width.
    IssueWidth,
    /// No warp slots per SM.
    NoWarpSlots,
    /// No CTA slots per SM.
    NoCtaSlots,
    /// Line size zero or not a power of two.
    LineSize,
    /// LSU front-end pipe too small for a worst-case warp.
    LsuQueue,
    /// Zero-capacity ROP pipeline.
    RopQueue,
    /// Zero-capacity interconnect output queue.
    IcntQueue,
    /// A level's cache line size disagrees with the machine line size.
    LevelLineSize(LevelKind),
    /// A level's feeding queue has zero capacity.
    LevelQueue(LevelKind),
    /// A level's MSHR table has no entries.
    MshrEntries(LevelKind),
    /// A level's MSHR merge depth is zero.
    MshrMergeDepth(LevelKind),
    /// An outer cache level is not slower than the level before it.
    LevelOrdering {
        /// The closer-to-the-SM level.
        upper: LevelKind,
        /// Its hit latency.
        upper_hit: u64,
        /// The further-from-the-SM level.
        lower: LevelKind,
        /// Its hit latency.
        lower_hit: u64,
    },
    /// A level declares a sector size that is not a power of two strictly
    /// below its line size.
    SectorSize(LevelKind),
    /// A level's slice count is zero or above [`MAX_L2_SLICES`].
    LevelSlices(LevelKind),
    /// A level other than the L2 declares multiple slices.
    SlicedLevel(LevelKind),
    /// Zero trace sample interval (checked at the `GpuConfig` layer, where
    /// the observability knobs live).
    TraceSampleInterval,
    /// The level list does not describe a hierarchy the simulator can
    /// instantiate.
    UnsupportedTopology(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoSms => f.write_str("need at least one SM"),
            ConfigError::NoPartitions => f.write_str("need at least one partition"),
            ConfigError::WarpSize => f.write_str("warp size must be 1..=32"),
            ConfigError::IssueWidth => f.write_str("issue width must be positive"),
            ConfigError::NoWarpSlots => f.write_str("need at least one warp slot"),
            ConfigError::NoCtaSlots => f.write_str("need at least one CTA slot"),
            ConfigError::LineSize => f.write_str("line size must be a nonzero power of two"),
            ConfigError::LsuQueue => {
                f.write_str("LSU queue must hold a worst-case warp's transactions (> warp_size)")
            }
            ConfigError::RopQueue => f.write_str("ROP queue capacity must be positive"),
            ConfigError::IcntQueue => {
                f.write_str("interconnect output queue capacity must be positive")
            }
            ConfigError::LevelLineSize(k) => write!(f, "{k} line size mismatch"),
            ConfigError::LevelQueue(LevelKind::L1) => {
                f.write_str("L1 miss queue capacity must be positive")
            }
            ConfigError::LevelQueue(LevelKind::L2) => {
                f.write_str("L2 input queue capacity must be positive")
            }
            ConfigError::LevelQueue(LevelKind::DramFront) => {
                f.write_str("DRAM controller queue capacity must be positive")
            }
            ConfigError::MshrEntries(k) => write!(f, "{k} MSHR table needs entries"),
            ConfigError::MshrMergeDepth(k) => write!(f, "{k} MSHR merge depth must be positive"),
            ConfigError::LevelOrdering {
                upper,
                upper_hit,
                lower,
                lower_hit,
            } => write!(
                f,
                "{upper} hit latency ({upper_hit}) must be below {lower} hit latency ({lower_hit})"
            ),
            ConfigError::SectorSize(k) => write!(
                f,
                "{k} sector size must be a power of two strictly below the line size"
            ),
            ConfigError::LevelSlices(k) => {
                write!(f, "{k} slice count must be between 1 and {MAX_L2_SLICES}")
            }
            ConfigError::SlicedLevel(k) => {
                write!(
                    f,
                    "{k} cannot be sliced (only the L2 may have multiple slices)"
                )
            }
            ConfigError::TraceSampleInterval => {
                f.write_str("trace sample interval must be positive")
            }
            ConfigError::UnsupportedTopology(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fermi-GF100-shaped description used by the unit tests.
    fn fermi() -> ArchDesc {
        ArchDesc {
            name: "test (Fermi)".to_string(),
            num_sms: 15,
            line_size: 128,
            sm: SmDesc {
                warp_size: 32,
                max_warps: 48,
                max_ctas: 8,
                issue_width: 2,
                scheduler: SchedPolicy::Lrr,
                alu_latency: 18,
                fp_latency: 18,
                sfu_latency: 40,
                shared_latency: 30,
                base_latency: 28,
                lsu_queue: 34,
                fill_latency: 10,
            },
            levels: vec![
                LevelDesc {
                    kind: LevelKind::L1,
                    geom: Some(CacheGeom {
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
                        sector_bytes: None,
                    }),
                    queue: 8,
                    routing: Routing::ALL,
                    write_policy: WritePolicy::WriteThrough,
                    slices: 1,
                },
                LevelDesc {
                    kind: LevelKind::L2,
                    geom: Some(CacheGeom {
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
                        sector_bytes: None,
                    }),
                    queue: 8,
                    routing: Routing::ALL,
                    write_policy: WritePolicy::WriteThrough,
                    slices: 1,
                },
                LevelDesc {
                    kind: LevelKind::DramFront,
                    geom: None,
                    queue: 128,
                    routing: Routing::ALL,
                    write_policy: WritePolicy::WriteThrough,
                    slices: 1,
                },
            ],
            fabric: FabricDesc {
                icnt: IcntConfig {
                    latency: 48,
                    output_queue: 8,
                    inject_per_src: 1,
                    eject_per_dst: 1,
                },
                rop_latency: 60,
                rop_queue: 16,
            },
            mem: MemDesc {
                timing: DramTiming {
                    t_rcd: 80,
                    t_rp: 80,
                    t_cl: 321,
                    burst: 8,
                },
                sched: DramSched::FrFcfs,
                num_partitions: 6,
                partition_chunk: 256,
                banks: 16,
                row_bytes: 2048,
            },
        }
    }

    fn level_mut(d: &mut ArchDesc, kind: LevelKind) -> &mut LevelDesc {
        d.levels.iter_mut().find(|l| l.kind == kind).unwrap()
    }

    #[test]
    fn fermi_description_is_valid() {
        fermi().validate().unwrap();
    }

    #[test]
    fn unloaded_walk_reproduces_fermi_formulas() {
        let d = fermi();
        // sm_base + l1_hit.
        assert_eq!(d.unloaded_latency(LevelKind::L1), Some(28 + 17));
        // sm_base + 2*icnt + rop + 1 (L2 input-queue hop) + hit + fill.
        assert_eq!(
            d.unloaded_latency(LevelKind::L2),
            Some(28 + 2 * 48 + 60 + 1 + 115 + 10)
        );
        // sm_base + 2*icnt + rop + 2 hops + row conflict + burst + fill.
        assert_eq!(
            d.unloaded_latency(LevelKind::DramFront),
            Some(28 + 2 * 48 + 60 + 2 + (80 + 80 + 321) + 8 + 10)
        );
    }

    #[test]
    fn unloaded_walk_skips_absent_caches() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1).geom = None;
        level_mut(&mut d, LevelKind::L2).geom = None;
        assert_eq!(d.unloaded_latency(LevelKind::L1), None);
        assert_eq!(d.unloaded_latency(LevelKind::L2), None);
        // The structural queues of the absent levels still cost their hops.
        assert_eq!(
            d.unloaded_latency(LevelKind::DramFront),
            Some(28 + 2 * 48 + 60 + 2 + (80 + 80 + 321) + 8 + 10)
        );
    }

    #[test]
    fn routing_masks_absent_caches() {
        let mut d = fermi();
        assert!(d.serves(LevelKind::L1, PipelineSpace::Global));
        level_mut(&mut d, LevelKind::L1).geom = None;
        assert!(!d.serves(LevelKind::L1, PipelineSpace::Global));
        assert!(!d.serves(LevelKind::L1, PipelineSpace::Local));
    }

    #[test]
    fn microbench_shrinks_machine_only() {
        let d = fermi();
        let m = d.microbench();
        assert_eq!(m.num_sms, 1);
        assert_eq!(m.mem.num_partitions, 1);
        assert_eq!(m.levels, d.levels);
        assert_eq!(m.sm, d.sm);
        assert_eq!(m.fabric, d.fabric);
        assert_eq!(
            m.unloaded_latency(LevelKind::DramFront),
            d.unloaded_latency(LevelKind::DramFront)
        );
    }

    #[test]
    fn hash_ignores_name_but_sees_structure() {
        let d = fermi();
        let digest = |d: &ArchDesc| {
            let mut h = StableHasher::new();
            d.hash_desc(&mut h);
            h.finish()
        };
        let mut renamed = d.clone();
        renamed.name = "same machine, new name".to_string();
        assert_eq!(digest(&d), digest(&renamed));
        let mut rerouted = d.clone();
        level_mut(&mut rerouted, LevelKind::L1).routing.global = false;
        assert_ne!(digest(&d), digest(&rerouted));
        let mut retimed = d.clone();
        retimed.mem.timing.t_cl += 1;
        assert_ne!(digest(&d), digest(&retimed));
    }

    #[test]
    fn codec_roundtrips() {
        let d = fermi();
        let mut e = Encoder::new();
        d.encode_state(&mut e);
        let bytes = e.finish();
        let mut dec = Decoder::open(&bytes).unwrap();
        let back = ArchDesc::decode(&mut dec).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn codec_rejects_wrong_frame_version() {
        let d = fermi();
        let mut e = Encoder::new();
        e.u32(ARCH_DESC_VERSION + 1);
        d.encode_state(&mut e); // payload after a bogus version tag
        let bytes = e.finish();
        let mut dec = Decoder::open(&bytes).unwrap();
        assert!(matches!(
            ArchDesc::decode(&mut dec),
            Err(SnapshotError::InvalidValue(_))
        ));
    }

    /// Hand-writes the historical version-1 frame layout (no sector flag,
    /// no slice count) for an unsectored description.
    fn encode_v1(d: &ArchDesc, e: &mut Encoder) {
        e.u32(1);
        e.str(&d.name);
        e.usize(d.num_sms);
        e.u64(d.line_size);
        e.u32(d.sm.warp_size);
        e.usize(d.sm.max_warps);
        e.usize(d.sm.max_ctas);
        e.usize(d.sm.issue_width);
        e.u8(sched_tag(d.sm.scheduler));
        e.u64(d.sm.alu_latency);
        e.u64(d.sm.fp_latency);
        e.u64(d.sm.sfu_latency);
        e.u64(d.sm.shared_latency);
        e.u64(d.sm.base_latency);
        e.usize(d.sm.lsu_queue);
        e.u64(d.sm.fill_latency);
        e.usize(d.levels.len());
        for level in &d.levels {
            e.u8(level.kind.tag());
            match &level.geom {
                None => e.bool(false),
                Some(g) => {
                    e.bool(true);
                    e.usize(g.cache.sets);
                    e.usize(g.cache.ways);
                    e.u64(g.cache.line_size);
                    e.u8(replacement_tag(g.cache.replacement));
                    e.usize(g.mshr.entries);
                    e.usize(g.mshr.max_merged);
                    e.u64(g.hit_latency);
                }
            }
            e.usize(level.queue);
            e.bool(level.routing.global);
            e.bool(level.routing.local);
            e.u8(write_policy_tag(level.write_policy));
        }
        e.u64(d.fabric.icnt.latency);
        e.usize(d.fabric.icnt.output_queue);
        e.usize(d.fabric.icnt.inject_per_src);
        e.usize(d.fabric.icnt.eject_per_dst);
        e.u64(d.fabric.rop_latency);
        e.usize(d.fabric.rop_queue);
        e.u64(d.mem.timing.t_rcd);
        e.u64(d.mem.timing.t_rp);
        e.u64(d.mem.timing.t_cl);
        e.u64(d.mem.timing.burst);
        e.u8(dram_sched_tag(d.mem.sched));
        e.usize(d.mem.num_partitions);
        e.u64(d.mem.partition_chunk);
        e.usize(d.mem.banks);
        e.u64(d.mem.row_bytes);
    }

    fn digest(d: &ArchDesc) -> u64 {
        let mut h = StableHasher::new();
        d.hash_desc(&mut h);
        h.finish()
    }

    #[test]
    fn codec_up_converts_v1_frames_to_the_same_hash() {
        // A v1 frame decodes to exactly the hand-written v2 equivalent
        // (unsectored lines, one slice) — same struct, same hash_desc — so
        // every pre-sector snapshot and cache key survives the bump.
        let v2 = fermi();
        let mut e = Encoder::new();
        encode_v1(&v2, &mut e);
        let bytes = e.finish();
        let mut dec = Decoder::open(&bytes).unwrap();
        let up = ArchDesc::decode(&mut dec).unwrap();
        assert_eq!(up, v2);
        assert_eq!(digest(&up), digest(&v2));
    }

    /// The fermi fixture with 32 B sectors on both caches and a four-slice
    /// L2 — the shape of a modern-generation description.
    fn sectored_fermi() -> ArchDesc {
        let mut d = fermi();
        for kind in [LevelKind::L1, LevelKind::L2] {
            level_mut(&mut d, kind).geom.as_mut().unwrap().sector_bytes = Some(32);
        }
        level_mut(&mut d, LevelKind::L2).slices = 4;
        d
    }

    #[test]
    fn sectored_sliced_description_is_valid_and_roundtrips() {
        let d = sectored_fermi();
        d.validate().unwrap();
        let mut e = Encoder::new();
        d.encode_state(&mut e);
        let bytes = e.finish();
        let mut dec = Decoder::open(&bytes).unwrap();
        assert_eq!(ArchDesc::decode(&mut dec).unwrap(), d);
    }

    #[test]
    fn hash_sees_sectors_and_slices() {
        let base = fermi();
        let mut sectored = base.clone();
        level_mut(&mut sectored, LevelKind::L1)
            .geom
            .as_mut()
            .unwrap()
            .sector_bytes = Some(32);
        let mut sliced = base.clone();
        level_mut(&mut sliced, LevelKind::L2).slices = 2;
        assert_ne!(digest(&base), digest(&sectored));
        assert_ne!(digest(&base), digest(&sliced));
        assert_ne!(digest(&sectored), digest(&sliced));
    }

    #[test]
    fn transaction_granule_is_smallest_sector_or_line() {
        assert_eq!(fermi().transaction_granule(), 128);
        assert_eq!(sectored_fermi().transaction_granule(), 32);
        let mut l2_only = fermi();
        level_mut(&mut l2_only, LevelKind::L2)
            .geom
            .as_mut()
            .unwrap()
            .sector_bytes = Some(64);
        assert_eq!(l2_only.transaction_granule(), 64);
    }

    #[test]
    fn sectors_per_line_and_granule() {
        let d = sectored_fermi();
        let g = d.level(LevelKind::L1).unwrap().geom.unwrap();
        assert_eq!(g.granule(), 32);
        assert_eq!(g.sectors_per_line(), 4);
        let plain = fermi().level(LevelKind::L1).unwrap().geom.unwrap();
        assert_eq!(plain.granule(), 128);
        assert_eq!(plain.sectors_per_line(), 1);
    }

    #[test]
    fn slice_hash_is_deterministic_in_range_and_spreads_strides() {
        // Single slice: everything maps to 0.
        assert_eq!(slice_of(0x1234_5678, 128, 1), 0);
        // Deterministic and in range.
        for addr in (0..1024u64).map(|i| i * 128) {
            let s = slice_of(addr, 128, 4);
            assert!(s < 4);
            assert_eq!(s, slice_of(addr, 128, 4));
        }
        // A power-of-two stride (512 B on 128 B lines) must still reach
        // every slice of a 4-slice L2, not camp on one.
        let mut seen = [false; 4];
        for i in 0..64u64 {
            seen[slice_of(i * 512, 128, 4)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn sliced_labels_are_stable_and_fall_back() {
        assert_eq!(LevelKind::L2.sliced_queue_label(0), "l2-input.0");
        assert_eq!(LevelKind::L2.sliced_queue_label(7), "l2-input.7");
        assert_eq!(LevelKind::L2.sliced_hit_pipe_label(3), "l2-hit.3");
        // Out-of-range slices and non-L2 levels fall back to the legacy
        // labels, so single-slice machines are indistinguishable from v1.
        assert_eq!(LevelKind::L2.sliced_queue_label(8), "l2-input");
        assert_eq!(LevelKind::L1.sliced_queue_label(2), "miss");
        assert_eq!(LevelKind::L1.sliced_hit_pipe_label(2), "l1-hit");
    }

    #[test]
    fn error_sector_size() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1)
            .geom
            .as_mut()
            .unwrap()
            .sector_bytes = Some(48);
        assert_eq!(d.validate(), Err(ConfigError::SectorSize(LevelKind::L1)));
        // A "sector" covering the whole line must be spelled None.
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L2)
            .geom
            .as_mut()
            .unwrap()
            .sector_bytes = Some(128);
        assert_eq!(d.validate(), Err(ConfigError::SectorSize(LevelKind::L2)));
        assert_eq!(
            ConfigError::SectorSize(LevelKind::L1).to_string(),
            "L1 sector size must be a power of two strictly below the line size"
        );
    }

    #[test]
    fn error_level_slices() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L2).slices = 0;
        assert_eq!(d.validate(), Err(ConfigError::LevelSlices(LevelKind::L2)));
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L2).slices = MAX_L2_SLICES + 1;
        assert_eq!(d.validate(), Err(ConfigError::LevelSlices(LevelKind::L2)));
        assert_eq!(
            ConfigError::LevelSlices(LevelKind::L2).to_string(),
            "L2 slice count must be between 1 and 8"
        );
    }

    #[test]
    fn error_sliced_level() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1).slices = 2;
        assert_eq!(d.validate(), Err(ConfigError::SlicedLevel(LevelKind::L1)));
        assert_eq!(
            ConfigError::SlicedLevel(LevelKind::L1).to_string(),
            "L1 cannot be sliced (only the L2 may have multiple slices)"
        );
    }

    // ---- one test per ConfigError variant ---------------------------------

    #[test]
    fn error_no_sms() {
        let mut d = fermi();
        d.num_sms = 0;
        assert_eq!(d.validate(), Err(ConfigError::NoSms));
        assert_eq!(ConfigError::NoSms.to_string(), "need at least one SM");
    }

    #[test]
    fn error_no_partitions() {
        let mut d = fermi();
        d.mem.num_partitions = 0;
        assert_eq!(d.validate(), Err(ConfigError::NoPartitions));
        assert_eq!(
            ConfigError::NoPartitions.to_string(),
            "need at least one partition"
        );
    }

    #[test]
    fn error_warp_size() {
        let mut d = fermi();
        d.sm.warp_size = 33;
        assert_eq!(d.validate(), Err(ConfigError::WarpSize));
        assert_eq!(
            ConfigError::WarpSize.to_string(),
            "warp size must be 1..=32"
        );
    }

    #[test]
    fn error_issue_width() {
        let mut d = fermi();
        d.sm.issue_width = 0;
        assert_eq!(d.validate(), Err(ConfigError::IssueWidth));
        assert_eq!(
            ConfigError::IssueWidth.to_string(),
            "issue width must be positive"
        );
    }

    #[test]
    fn error_no_warp_slots() {
        let mut d = fermi();
        d.sm.max_warps = 0;
        assert_eq!(d.validate(), Err(ConfigError::NoWarpSlots));
        assert_eq!(
            ConfigError::NoWarpSlots.to_string(),
            "need at least one warp slot"
        );
    }

    #[test]
    fn error_no_cta_slots() {
        let mut d = fermi();
        d.sm.max_ctas = 0;
        assert_eq!(d.validate(), Err(ConfigError::NoCtaSlots));
        assert_eq!(
            ConfigError::NoCtaSlots.to_string(),
            "need at least one CTA slot"
        );
    }

    #[test]
    fn error_line_size() {
        let mut d = fermi();
        d.line_size = 96;
        assert_eq!(d.validate(), Err(ConfigError::LineSize));
        assert_eq!(
            ConfigError::LineSize.to_string(),
            "line size must be a nonzero power of two"
        );
    }

    #[test]
    fn error_lsu_queue() {
        let mut d = fermi();
        d.sm.lsu_queue = d.sm.warp_size as usize;
        assert_eq!(d.validate(), Err(ConfigError::LsuQueue));
        assert_eq!(
            ConfigError::LsuQueue.to_string(),
            "LSU queue must hold a worst-case warp's transactions (> warp_size)"
        );
    }

    #[test]
    fn error_rop_queue() {
        let mut d = fermi();
        d.fabric.rop_queue = 0;
        assert_eq!(d.validate(), Err(ConfigError::RopQueue));
        assert_eq!(
            ConfigError::RopQueue.to_string(),
            "ROP queue capacity must be positive"
        );
    }

    #[test]
    fn error_icnt_queue() {
        let mut d = fermi();
        d.fabric.icnt.output_queue = 0;
        assert_eq!(d.validate(), Err(ConfigError::IcntQueue));
        assert_eq!(
            ConfigError::IcntQueue.to_string(),
            "interconnect output queue capacity must be positive"
        );
    }

    #[test]
    fn error_level_line_size() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1)
            .geom
            .as_mut()
            .unwrap()
            .cache
            .line_size = 64;
        assert_eq!(d.validate(), Err(ConfigError::LevelLineSize(LevelKind::L1)));
        assert_eq!(
            ConfigError::LevelLineSize(LevelKind::L2).to_string(),
            "L2 line size mismatch"
        );
    }

    #[test]
    fn error_level_queue() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1).queue = 0;
        assert_eq!(d.validate(), Err(ConfigError::LevelQueue(LevelKind::L1)));
        assert_eq!(
            ConfigError::LevelQueue(LevelKind::L1).to_string(),
            "L1 miss queue capacity must be positive"
        );
        assert_eq!(
            ConfigError::LevelQueue(LevelKind::L2).to_string(),
            "L2 input queue capacity must be positive"
        );
        let mut d = fermi();
        level_mut(&mut d, LevelKind::DramFront).queue = 0;
        assert_eq!(
            d.validate(),
            Err(ConfigError::LevelQueue(LevelKind::DramFront))
        );
        assert_eq!(
            ConfigError::LevelQueue(LevelKind::DramFront).to_string(),
            "DRAM controller queue capacity must be positive"
        );
    }

    #[test]
    fn error_mshr_entries() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L2)
            .geom
            .as_mut()
            .unwrap()
            .mshr
            .entries = 0;
        assert_eq!(d.validate(), Err(ConfigError::MshrEntries(LevelKind::L2)));
        assert_eq!(
            ConfigError::MshrEntries(LevelKind::L2).to_string(),
            "L2 MSHR table needs entries"
        );
    }

    #[test]
    fn error_mshr_merge_depth() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1)
            .geom
            .as_mut()
            .unwrap()
            .mshr
            .max_merged = 0;
        assert_eq!(
            d.validate(),
            Err(ConfigError::MshrMergeDepth(LevelKind::L1))
        );
        assert_eq!(
            ConfigError::MshrMergeDepth(LevelKind::L1).to_string(),
            "L1 MSHR merge depth must be positive"
        );
    }

    #[test]
    fn error_level_ordering() {
        let mut d = fermi();
        level_mut(&mut d, LevelKind::L1)
            .geom
            .as_mut()
            .unwrap()
            .hit_latency = 115;
        assert_eq!(
            d.validate(),
            Err(ConfigError::LevelOrdering {
                upper: LevelKind::L1,
                upper_hit: 115,
                lower: LevelKind::L2,
                lower_hit: 115,
            })
        );
        let msg = ConfigError::LevelOrdering {
            upper: LevelKind::L1,
            upper_hit: 17,
            lower: LevelKind::L2,
            lower_hit: 15,
        }
        .to_string();
        assert_eq!(msg, "L1 hit latency (17) must be below L2 hit latency (15)");
    }

    #[test]
    fn error_trace_sample_interval_text() {
        // The invariant itself is checked at the GpuConfig layer (the trace
        // knobs are not part of the description); the variant and its text
        // live here with the rest of the enum.
        assert_eq!(
            ConfigError::TraceSampleInterval.to_string(),
            "trace sample interval must be positive"
        );
    }

    #[test]
    fn error_unsupported_topology() {
        let mut d = fermi();
        d.levels.swap(0, 1);
        let err = d.validate().unwrap_err();
        assert!(matches!(err, ConfigError::UnsupportedTopology(_)));
        assert!(err.to_string().contains("pipeline order"));

        let mut d = fermi();
        d.levels.remove(1);
        assert!(matches!(
            d.validate(),
            Err(ConfigError::UnsupportedTopology(_))
        ));

        let mut d = fermi();
        level_mut(&mut d, LevelKind::DramFront).geom = level_mut(&mut d, LevelKind::L1).geom;
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("tag array"));
    }

    #[test]
    fn absent_levels_size_placeholder_mshrs() {
        let mut d = fermi();
        let l1 = level_mut(&mut d, LevelKind::L1);
        l1.geom = None;
        assert_eq!(
            l1.mshr_config(),
            MshrConfig {
                entries: 1,
                max_merged: 1
            }
        );
        assert_eq!(d.level(LevelKind::L2).unwrap().mshr_config().entries, 32);
    }
}
