//! Per-generation GPU presets reproducing the machines of the paper's
//! Table I, expressed as declarative [`ArchDesc`] data tables.
//!
//! Each preset encodes the *structure* the paper attributes to its
//! generation — which cache levels exist and which memory spaces they serve
//! — with stage latencies calibrated so that the pointer-chase microbenchmark
//! ([`crate::chase`]) recovers the paper's measured latencies:
//!
//! | Unit  | GT200 | GF106 | GK104 | GM107 |
//! |-------|-------|-------|-------|-------|
//! | L1 D$ | —     | 45    | 30 (local only) | — |
//! | L2 D$ | —     | 310   | 175   | 194   |
//! | DRAM  | 440   | 685   | 300   | 350   |
//!
//! A preset is nothing but an [`ArchDesc`]: [`ArchPreset::desc`] returns the
//! description and [`ArchPreset::config`] lowers it through
//! [`GpuConfig::from_arch`]. Adding a generation means writing one more data
//! table (see the GK110 entry, which reuses GK104's geometry with the
//! read-only global path routed through the L1 per Mei & Chu's Kepler study)
//! — no simulator code changes.
//!
//! Beyond the paper's Table I, two modern-generation presets exercise the
//! v2 description schema: GV100 (Volta-class) and GA102 (Ampere-class),
//! calibrated against the microbenchmark dissections of arXiv:2208.11174
//! (Volta/Turing/Ampere) and arXiv:2507.10789. Both use 32-byte sectored
//! caches and hash-interleaved L2 slices; GA102's twelve memory partitions
//! prove the partition count is not restricted to powers of two.

use gpu_icnt::IcntConfig;
use gpu_mem::{CacheConfig, DramSched, DramTiming, MshrConfig, Replacement};
use gpu_sim::{
    ArchDesc, CacheGeom, FabricDesc, GpuConfig, LevelDesc, LevelKind, MemDesc, Routing,
    SchedPolicy, SmDesc, WritePolicy,
};

/// The paper's expected Table I latencies for one architecture (hot-clock
/// cycles). `None` means the unit does not exist (or is bypassed for global
/// accesses and thus not reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// L1 data-cache hit latency.
    pub l1: Option<u64>,
    /// L2 data-cache hit latency.
    pub l2: Option<u64>,
    /// DRAM access latency.
    pub dram: u64,
}

/// A GPU generation analyzed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchPreset {
    /// NVIDIA Tesla GT200: global memory uncached (values from Wong et
    /// al.'s GT200 study, as cited by the paper).
    TeslaGt200,
    /// NVIDIA Fermi GF106: two cache levels, L1 serves global and local.
    FermiGf106,
    /// NVIDIA Fermi GF100: the GPGPU-Sim configuration used for the paper's
    /// dynamic analysis (§III); same pipeline latencies as GF106.
    FermiGf100,
    /// NVIDIA Kepler GK104: L1 serves only local accesses; global loads see
    /// L2 at best.
    KeplerGk104,
    /// NVIDIA Kepler GK110: GK104's geometry with global loads routed
    /// through the L1 (the read-only data path measured by Mei & Chu).
    KeplerGk110,
    /// NVIDIA Maxwell GM107: L1 data cache removed; L2 and DRAM slower than
    /// Kepler's.
    MaxwellGm107,
    /// NVIDIA Volta GV100: 32-byte sectored caches, two hash-interleaved L2
    /// slices per partition (arXiv:2208.11174 dissection).
    VoltaGv100,
    /// NVIDIA Ampere GA102: 32-byte sectored caches, four L2 slices per
    /// partition and twelve memory partitions (arXiv:2507.10789).
    AmpereGa102,
}

impl ArchPreset {
    /// All presets in generation order.
    pub const ALL: [ArchPreset; 8] = [
        ArchPreset::TeslaGt200,
        ArchPreset::FermiGf106,
        ArchPreset::FermiGf100,
        ArchPreset::KeplerGk104,
        ArchPreset::KeplerGk110,
        ArchPreset::MaxwellGm107,
        ArchPreset::VoltaGv100,
        ArchPreset::AmpereGa102,
    ];

    /// The four presets appearing as columns of the paper's Table I.
    pub const TABLE1: [ArchPreset; 4] = [
        ArchPreset::TeslaGt200,
        ArchPreset::FermiGf106,
        ArchPreset::KeplerGk104,
        ArchPreset::MaxwellGm107,
    ];

    /// Short display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ArchPreset::TeslaGt200 => "GT200 (Tesla)",
            ArchPreset::FermiGf106 => "GF106 (Fermi)",
            ArchPreset::FermiGf100 => "GF100 (Fermi)",
            ArchPreset::KeplerGk104 => "GK104 (Kepler)",
            ArchPreset::KeplerGk110 => "GK110 (Kepler)",
            ArchPreset::MaxwellGm107 => "GM107 (Maxwell)",
            ArchPreset::VoltaGv100 => "GV100 (Volta)",
            ArchPreset::AmpereGa102 => "GA102 (Ampere)",
        }
    }

    /// Canonical lower-case chip token, as the command-line binaries and the
    /// serve spec accept it. `parse(p.token())` always round-trips.
    pub fn token(self) -> &'static str {
        match self {
            ArchPreset::TeslaGt200 => "gt200",
            ArchPreset::FermiGf106 => "gf106",
            ArchPreset::FermiGf100 => "gf100",
            ArchPreset::KeplerGk104 => "gk104",
            ArchPreset::KeplerGk110 => "gk110",
            ArchPreset::MaxwellGm107 => "gm107",
            ArchPreset::VoltaGv100 => "gv100",
            ArchPreset::AmpereGa102 => "ga102",
        }
    }

    /// Every accepted chip token, comma-separated in generation order — the
    /// single source of truth for "unknown preset" error messages across the
    /// binaries and the serve spec.
    pub fn valid_tokens() -> String {
        let tokens: Vec<&str> = ArchPreset::ALL.iter().map(|p| p.token()).collect();
        tokens.join(", ")
    }

    /// Parses a user-facing preset name as `--preset` accepts
    /// it: a chip name (`gk104`) or a generation name (`kepler`, which maps
    /// to the generation's Table I representative). Case-insensitive.
    pub fn parse(s: &str) -> Option<ArchPreset> {
        match s.to_ascii_lowercase().as_str() {
            "tesla" | "gt200" => Some(ArchPreset::TeslaGt200),
            "fermi" | "gf106" => Some(ArchPreset::FermiGf106),
            "gf100" => Some(ArchPreset::FermiGf100),
            "kepler" | "gk104" => Some(ArchPreset::KeplerGk104),
            "gk110" => Some(ArchPreset::KeplerGk110),
            "maxwell" | "gm107" => Some(ArchPreset::MaxwellGm107),
            "volta" | "gv100" => Some(ArchPreset::VoltaGv100),
            "ampere" | "ga102" => Some(ArchPreset::AmpereGa102),
            _ => None,
        }
    }

    /// The paper's Table I values for this architecture. The GK110 preset is
    /// not a Table I column; its expectations are GK104's timings with the
    /// L1 row observable from the global pipeline.
    pub fn table1_expected(self) -> Table1Row {
        match self {
            ArchPreset::TeslaGt200 => Table1Row {
                l1: None,
                l2: None,
                dram: 440,
            },
            ArchPreset::FermiGf106 | ArchPreset::FermiGf100 => Table1Row {
                l1: Some(45),
                l2: Some(310),
                dram: 685,
            },
            ArchPreset::KeplerGk104 => Table1Row {
                l1: Some(30), // local accesses only
                l2: Some(175),
                dram: 300,
            },
            ArchPreset::KeplerGk110 => Table1Row {
                l1: Some(30), // read-only global path through the L1
                l2: Some(175),
                dram: 300,
            },
            ArchPreset::MaxwellGm107 => Table1Row {
                l1: None,
                l2: Some(194),
                dram: 350,
            },
            // The modern presets are not Table I columns; their expectations
            // come from the calibration targets of the validation harness
            // (`gpu-bench`'s reference tables, after arXiv:2208.11174 and
            // arXiv:2507.10789).
            ArchPreset::VoltaGv100 => Table1Row {
                l1: Some(28),
                l2: Some(193),
                dram: 472,
            },
            ArchPreset::AmpereGa102 => Table1Row {
                l1: Some(33),
                l2: Some(212),
                dram: 466,
            },
        }
    }

    /// The declarative machine description for this generation — the
    /// authoritative data table everything else (config, tick schedule,
    /// sweep cache keys, trace stage labels) derives from.
    pub fn desc(self) -> ArchDesc {
        match self {
            ArchPreset::TeslaGt200 => tesla_gt200(),
            ArchPreset::FermiGf106 => fermi(4, 2, "GF106 (Fermi)"),
            ArchPreset::FermiGf100 => fermi(15, 6, "GF100 (Fermi)"),
            ArchPreset::KeplerGk104 => kepler(false, "GK104 (Kepler)"),
            ArchPreset::KeplerGk110 => kepler(true, "GK110 (Kepler)"),
            ArchPreset::MaxwellGm107 => maxwell_gm107(),
            ArchPreset::VoltaGv100 => volta_gv100(),
            ArchPreset::AmpereGa102 => ampere_ga102(),
        }
    }

    /// Builds the full simulated machine for this generation.
    ///
    /// # Panics
    ///
    /// Panics if the preset fails description validation — presets are
    /// hand-written data tables, so a structural mistake (a zero queue, an
    /// L1 slower than its L2) should fail at construction, not as a mystery
    /// deadlock deep in a run.
    pub fn config(self) -> GpuConfig {
        GpuConfig::from_arch(&self.desc()).expect("preset data tables are structurally valid")
    }

    /// A single-SM, single-partition variant with identical pipeline
    /// latencies, used by the static-latency microbenchmarks: a lone thread
    /// cannot create contention, so shrinking the machine changes nothing
    /// but simulation speed. This is [`ArchDesc::microbench`] applied to the
    /// same description that [`ArchPreset::config`] lowers.
    pub fn config_microbench(self) -> GpuConfig {
        GpuConfig::from_arch(&self.desc().microbench())
            .expect("shrinking a valid description keeps it valid")
    }
}

/// Tag/MSHR geometry shared by every paper-era cache: 128-byte unsectored
/// lines, LRU, a 32-entry MSHR table merging up to 8 accesses per line.
fn geom(sets: usize, ways: usize, hit_latency: u64) -> CacheGeom {
    CacheGeom {
        cache: CacheConfig {
            sets,
            ways,
            line_size: 128,
            replacement: Replacement::Lru,
        },
        mshr: MshrConfig {
            entries: 32,
            max_merged: 8,
        },
        hit_latency,
        sector_bytes: None,
    }
}

/// Modern sectored geometry: 128-byte lines filled in 32-byte sectors, a
/// deeper MSHR file (misses are tracked per sector, so more entries are in
/// flight for the same line footprint).
fn sectored_geom(sets: usize, ways: usize, hit_latency: u64) -> CacheGeom {
    CacheGeom {
        cache: CacheConfig {
            sets,
            ways,
            line_size: 128,
            replacement: Replacement::Lru,
        },
        mshr: MshrConfig {
            entries: 64,
            max_merged: 8,
        },
        hit_latency,
        sector_bytes: Some(32),
    }
}

/// An L1 level: 4-way, 8-deep miss queue (the paper's `L1toICNT` queue).
fn l1_level(sets: usize, hit_latency: u64, routing: Routing) -> LevelDesc {
    LevelDesc {
        kind: LevelKind::L1,
        geom: Some(geom(sets, 4, hit_latency)),
        queue: 8,
        routing,
        write_policy: WritePolicy::WriteThrough,
        slices: 1,
    }
}

/// A modern sectored L1: same queueing as [`l1_level`], 32-byte sectors.
fn sectored_l1_level(sets: usize, hit_latency: u64, routing: Routing) -> LevelDesc {
    LevelDesc {
        kind: LevelKind::L1,
        geom: Some(sectored_geom(sets, 4, hit_latency)),
        queue: 8,
        routing,
        write_policy: WritePolicy::WriteThrough,
        slices: 1,
    }
}

/// An L2 slice level: 8-way, 8-deep input queue, serving both spaces.
fn l2_level(sets: usize, hit_latency: u64) -> LevelDesc {
    LevelDesc {
        kind: LevelKind::L2,
        geom: Some(geom(sets, 8, hit_latency)),
        queue: 8,
        routing: Routing::ALL,
        write_policy: WritePolicy::WriteThrough,
        slices: 1,
    }
}

/// A modern L2: sectored, write-back, hash-interleaved across `slices`
/// independent banks per partition. `sets` describes ONE slice.
fn sectored_l2_level(sets: usize, hit_latency: u64, slices: usize) -> LevelDesc {
    LevelDesc {
        kind: LevelKind::L2,
        geom: Some(sectored_geom(sets, 8, hit_latency)),
        queue: 8,
        routing: Routing::ALL,
        write_policy: WritePolicy::WriteBack,
        slices,
    }
}

/// A cache level the generation does not have: no geometry, no routing,
/// only the structural queue every level keeps.
fn absent_level(kind: LevelKind) -> LevelDesc {
    LevelDesc {
        kind,
        geom: None,
        queue: 8,
        routing: Routing::NONE,
        write_policy: WritePolicy::WriteThrough,
        slices: 1,
    }
}

/// The DRAM front: a 128-deep controller queue, no cache geometry.
fn dram_front() -> LevelDesc {
    LevelDesc {
        kind: LevelKind::DramFront,
        geom: None,
        queue: 128,
        routing: Routing::ALL,
        write_policy: WritePolicy::WriteThrough,
        slices: 1,
    }
}

/// GDDR timing shared across the tables except for the four paper-visible
/// parameters.
fn mem(t_rcd: u64, t_rp: u64, t_cl: u64, burst: u64, num_partitions: usize) -> MemDesc {
    MemDesc {
        timing: DramTiming {
            t_rcd,
            t_rp,
            t_cl,
            burst,
        },
        sched: DramSched::FrFcfs,
        num_partitions,
        partition_chunk: 256,
        banks: 16,
        row_bytes: 2048,
    }
}

fn fabric(latency: u64, rop_latency: u64) -> FabricDesc {
    FabricDesc {
        icnt: IcntConfig {
            latency,
            output_queue: 8,
            inject_per_src: 1,
            eject_per_dst: 1,
        },
        rop_latency,
        rop_queue: 16,
    }
}

/// Tesla GT200: 30 SMs, 8 partitions, no data caches for global memory.
/// Target: DRAM 440.
fn tesla_gt200() -> ArchDesc {
    ArchDesc {
        name: "GT200 (Tesla)".to_string(),
        num_sms: 30,
        line_size: 128,
        sm: SmDesc {
            warp_size: 32,
            max_warps: 32,
            max_ctas: 8,
            issue_width: 1,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 24,
            fp_latency: 24,
            sfu_latency: 48,
            shared_latency: 38,
            base_latency: 24,
            lsu_queue: 34,
            fill_latency: 10,
        },
        levels: vec![
            absent_level(LevelKind::L1),
            absent_level(LevelKind::L2),
            dram_front(),
        ],
        fabric: fabric(40, 45),
        mem: mem(60, 60, 151, 8, 8),
    }
}

/// Fermi GF100/GF106: two-level hierarchy, L1 serves global and local.
/// Targets: L1 45, L2 310, DRAM 685.
fn fermi(num_sms: usize, num_partitions: usize, name: &str) -> ArchDesc {
    ArchDesc {
        name: name.to_string(),
        num_sms,
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
            l1_level(32, 17, Routing::ALL), // 16 KB
            l2_level(128, 115),             // 128 KB per slice
            dram_front(),
        ],
        fabric: fabric(48, 60),
        mem: mem(80, 80, 321, 8, num_partitions),
    }
}

/// Kepler GK104/GK110: identical geometry; the chips differ only in the L1
/// routing table — GK104 caches local accesses only, GK110's read-only
/// global path goes through the L1 as well.
/// Targets: L1 30, L2 175, DRAM 300.
fn kepler(l1_serves_global: bool, name: &str) -> ArchDesc {
    ArchDesc {
        name: name.to_string(),
        num_sms: 8,
        line_size: 128,
        sm: SmDesc {
            warp_size: 32,
            max_warps: 64,
            max_ctas: 16,
            issue_width: 2,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 11,
            fp_latency: 11,
            sfu_latency: 30,
            shared_latency: 26,
            base_latency: 14,
            lsu_queue: 34,
            fill_latency: 9,
        },
        levels: vec![
            l1_level(
                32, // 16 KB
                16,
                Routing {
                    global: l1_serves_global,
                    local: true,
                },
            ),
            l2_level(128, 71), // 128 KB per slice
            dram_front(),
        ],
        fabric: fabric(25, 30),
        mem: mem(28, 28, 129, 10, 4),
    }
}

/// Maxwell GM107: no L1 data cache; larger but slower L2 than Kepler.
/// Targets: L2 194, DRAM 350.
fn maxwell_gm107() -> ArchDesc {
    ArchDesc {
        name: "GM107 (Maxwell)".to_string(),
        num_sms: 5,
        line_size: 128,
        sm: SmDesc {
            warp_size: 32,
            max_warps: 64,
            max_ctas: 32,
            issue_width: 2,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 6,
            fp_latency: 6,
            sfu_latency: 20,
            shared_latency: 24,
            base_latency: 16,
            lsu_queue: 34,
            fill_latency: 9,
        },
        levels: vec![
            absent_level(LevelKind::L1),
            l2_level(1024, 78), // 1 MB per slice (2 MB total)
            dram_front(),
        ],
        fabric: fabric(28, 34),
        mem: mem(36, 36, 150, 11, 2),
    }
}

/// Volta GV100: 80 SMs, sectored caches, two L2 slices per partition.
/// Targets (arXiv:2208.11174 calibration): L1 28, L2 193, DRAM 472.
fn volta_gv100() -> ArchDesc {
    ArchDesc {
        name: "GV100 (Volta)".to_string(),
        num_sms: 80,
        line_size: 128,
        sm: SmDesc {
            warp_size: 32,
            max_warps: 64,
            max_ctas: 32,
            issue_width: 2,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 4,
            fp_latency: 4,
            sfu_latency: 14,
            shared_latency: 19,
            base_latency: 12,
            lsu_queue: 34,
            fill_latency: 10,
        },
        levels: vec![
            sectored_l1_level(64, 16, Routing::ALL), // 32 KB of a 128 KB unified SRAM
            sectored_l2_level(256, 94, 2),           // 256 KB per slice, 2 slices
            dram_front(),
        ],
        fabric: fabric(24, 28),
        mem: mem(45, 45, 270, 12, 8), // HBM2: long CL in hot clocks, 8 stacks-as-partitions
    }
}

/// Ampere GA102: 84 SMs, sectored caches, four L2 slices per partition and
/// twelve partitions (GDDR6X's 384-bit bus = twelve 32-bit channels).
/// Targets (arXiv:2507.10789 calibration): L1 33, L2 212, DRAM 466.
fn ampere_ga102() -> ArchDesc {
    ArchDesc {
        name: "GA102 (Ampere)".to_string(),
        num_sms: 84,
        line_size: 128,
        sm: SmDesc {
            warp_size: 32,
            max_warps: 48,
            max_ctas: 16,
            issue_width: 2,
            scheduler: SchedPolicy::Lrr,
            alu_latency: 4,
            fp_latency: 4,
            sfu_latency: 14,
            shared_latency: 19,
            base_latency: 14,
            lsu_queue: 34,
            fill_latency: 10,
        },
        levels: vec![
            sectored_l1_level(64, 19, Routing::ALL), // 32 KB of the unified SRAM
            sectored_l2_level(128, 105, 4),          // 128 KB per slice, 4 slices
            dram_front(),
        ],
        fabric: fabric(26, 30),
        mem: mem(48, 48, 250, 12, 12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::PipelineSpace;

    #[test]
    fn all_presets_build_valid_configs() {
        for p in ArchPreset::ALL {
            p.config().assert_valid();
            p.config_microbench().assert_valid();
        }
    }

    #[test]
    fn configs_roundtrip_to_their_descriptions() {
        // `from_arch` and `arch_desc` are inverses on the preset tables, so
        // nothing is lost (or silently defaulted) in the lowering.
        for p in ArchPreset::ALL {
            let desc = p.desc();
            let cfg = p.config();
            assert_eq!(cfg.arch_desc(), desc, "{}", p.name());
        }
    }

    #[test]
    fn presets_validate_at_construction() {
        // `config()` routes through description validation, so a corrupted
        // preset can only escape as a panic — prove the rejection paths fire
        // on the exact classes of mistakes the validator covers.
        for p in ArchPreset::ALL {
            let c = p.config();
            assert!(c.sanitize, "{}: sanitizer must default on", p.name());
            if let (Some(l1), Some(l2)) = (&c.l1, &c.l2) {
                assert!(l1.hit_latency < l2.hit_latency, "{}", p.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "ROP queue capacity")]
    fn corrupted_preset_zero_queue_is_rejected() {
        let mut c = ArchPreset::FermiGf100.config();
        c.rop_queue = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "L1 hit latency")]
    fn corrupted_preset_l1_slower_than_l2_is_rejected() {
        let mut c = ArchPreset::KeplerGk104.config();
        c.l1.as_mut().unwrap().hit_latency = 400;
        c.assert_valid();
    }

    #[test]
    fn generation_structure_matches_paper() {
        // Tesla: uncached global pipeline.
        let t = ArchPreset::TeslaGt200.config();
        assert!(t.l1.is_none() && t.l2.is_none());
        // Fermi: L1 serves global and local.
        let f = ArchPreset::FermiGf106.config();
        assert!(f.l1_serves(PipelineSpace::Global));
        assert!(f.l1_serves(PipelineSpace::Local));
        // Kepler GK104: L1 local-only.
        let k = ArchPreset::KeplerGk104.config();
        assert!(!k.l1_serves(PipelineSpace::Global));
        assert!(k.l1_serves(PipelineSpace::Local));
        // Kepler GK110: the global read path goes through the L1 too.
        let k110 = ArchPreset::KeplerGk110.config();
        assert!(k110.l1_serves(PipelineSpace::Global));
        assert!(k110.l1_serves(PipelineSpace::Local));
        // Maxwell: L1 gone.
        let m = ArchPreset::MaxwellGm107.config();
        assert!(m.l1.is_none());
        assert!(m.l2.is_some());
    }

    #[test]
    fn gk110_differs_from_gk104_only_in_l1_routing() {
        let mut base = ArchPreset::KeplerGk104.desc();
        let gk110 = ArchPreset::KeplerGk110.desc();
        base.name = gk110.name.clone();
        base.levels[0].routing = Routing::ALL;
        assert_eq!(base, gk110);
    }

    #[test]
    fn expected_rows_match_paper_table() {
        assert_eq!(ArchPreset::TeslaGt200.table1_expected().dram, 440);
        let fermi = ArchPreset::FermiGf106.table1_expected();
        assert_eq!((fermi.l1, fermi.l2, fermi.dram), (Some(45), Some(310), 685));
        let kepler = ArchPreset::KeplerGk104.table1_expected();
        assert_eq!(
            (kepler.l1, kepler.l2, kepler.dram),
            (Some(30), Some(175), 300)
        );
        let maxwell = ArchPreset::MaxwellGm107.table1_expected();
        assert_eq!(
            (maxwell.l1, maxwell.l2, maxwell.dram),
            (None, Some(194), 350)
        );
    }

    #[test]
    fn microbench_config_shrinks_machine_only() {
        for p in ArchPreset::ALL {
            let full = p.config();
            let micro = p.config_microbench();
            assert_eq!(micro.num_sms, 1);
            assert_eq!(micro.num_partitions, 1);
            assert_eq!(micro.sm_base_latency, full.sm_base_latency);
            assert_eq!(micro.icnt.latency, full.icnt.latency);
            assert_eq!(micro.dram.timing, full.dram.timing);
        }
    }

    #[test]
    fn parse_accepts_chip_and_generation_names() {
        assert_eq!(ArchPreset::parse("tesla"), Some(ArchPreset::TeslaGt200));
        assert_eq!(ArchPreset::parse("GT200"), Some(ArchPreset::TeslaGt200));
        assert_eq!(ArchPreset::parse("fermi"), Some(ArchPreset::FermiGf106));
        assert_eq!(ArchPreset::parse("gf100"), Some(ArchPreset::FermiGf100));
        assert_eq!(ArchPreset::parse("kepler"), Some(ArchPreset::KeplerGk104));
        assert_eq!(ArchPreset::parse("gk110"), Some(ArchPreset::KeplerGk110));
        assert_eq!(ArchPreset::parse("maxwell"), Some(ArchPreset::MaxwellGm107));
        assert_eq!(ArchPreset::parse("volta"), Some(ArchPreset::VoltaGv100));
        assert_eq!(ArchPreset::parse("GV100"), Some(ArchPreset::VoltaGv100));
        assert_eq!(ArchPreset::parse("ampere"), Some(ArchPreset::AmpereGa102));
        assert_eq!(ArchPreset::parse("ga102"), Some(ArchPreset::AmpereGa102));
        assert_eq!(ArchPreset::parse("hopper"), None);
    }

    #[test]
    fn tokens_roundtrip_and_enumerate() {
        for p in ArchPreset::ALL {
            assert_eq!(ArchPreset::parse(p.token()), Some(p), "{}", p.name());
        }
        let listing = ArchPreset::valid_tokens();
        for p in ArchPreset::ALL {
            assert!(listing.contains(p.token()), "{} missing", p.token());
        }
        assert_eq!(
            listing,
            "gt200, gf106, gf100, gk104, gk110, gm107, gv100, ga102"
        );
    }

    #[test]
    fn modern_presets_are_sectored_and_sliced() {
        for (p, slices, partitions) in [
            (ArchPreset::VoltaGv100, 2, 8),
            (ArchPreset::AmpereGa102, 4, 12),
        ] {
            let desc = p.desc();
            for level in &desc.levels {
                if let Some(g) = &level.geom {
                    assert_eq!(g.sector_bytes, Some(32), "{}", p.name());
                    assert_eq!(g.sectors_per_line(), 4, "{}", p.name());
                }
                if level.kind == LevelKind::L2 {
                    assert_eq!(level.slices, slices, "{}", p.name());
                }
            }
            assert_eq!(desc.transaction_granule(), 32, "{}", p.name());
            assert_eq!(desc.mem.num_partitions, partitions, "{}", p.name());
            p.config().assert_valid();
        }
        // GA102's partition count is deliberately not a power of two.
        assert!(!ArchPreset::AmpereGa102
            .desc()
            .mem
            .num_partitions
            .is_power_of_two());
    }

    #[test]
    fn maxwell_slower_than_kepler_everywhere() {
        // The paper's §II observation: Maxwell's pipeline is slower than
        // Kepler's at every level.
        let k = ArchPreset::KeplerGk104.table1_expected();
        let m = ArchPreset::MaxwellGm107.table1_expected();
        assert!(m.l2.unwrap() > k.l2.unwrap());
        assert!(m.dram > k.dram);
    }
}
