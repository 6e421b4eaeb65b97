//! Arch-aware static cost model: per-load level assignment and
//! unloaded-latency lower bounds, derived from an [`ArchDesc`].
//!
//! For every global/local load (and atomic) the model combines the symbolic
//! access pattern from [`crate::memlint`] with the machine description:
//!
//! - **Feasible levels** — the hierarchy levels the access can be *served*
//!   at ([`ArchDesc::feasible_levels`]): on a Fermi GF100 a cached global
//!   load can hit in L1, L2, or go to DRAM; on Kepler/Maxwell global loads
//!   skip the L1; on Tesla GT200 every load walks to the DRAM front; atomics
//!   bypass the L1 everywhere.
//! - **Unloaded floor** — the analytic best case
//!   ([`ArchDesc::unloaded_floor`]): a hit at the shallowest feasible level
//!   with empty queues. It claims that no dynamic execution of this load
//!   completes faster.
//! - **Transactions per warp** — line and sector fan-out of a fully active
//!   warp, from the symbolic access pattern, with what may loosen it: a
//!   loop stride and divergent control flow.
//!
//! What the experiment list holds against runs today
//! (`latency_bench::validate`, `latency_bench::reference`): contract A
//! checks this module's per-warp transaction count at the transaction
//! granule ([`LoadCost::sectors`]) against every traced single-kernel run;
//! contract B checks the level set ([`ArchDesc::feasible_levels`]) against
//! every traced run; contract C checks each level's floor only against
//! that level's unloaded pointer-chase point, never against a loaded run.

use std::fmt::Write as _;

use gpu_arch::{ArchDesc, LevelKind};
use gpu_isa::{Kernel, Pc, Space};
use gpu_mem::PipelineSpace;

use crate::cfg::Cfg;
use crate::memlint::{self, AccessPattern};
use crate::{symaddr, AnalysisConfig};

/// Static cost prediction for one global/local load or atomic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadCost {
    /// Instruction pc.
    pub pc: Pc,
    /// Memory space (global or local).
    pub space: Space,
    /// `true` for atomics (which bypass the L1 on every generation).
    pub is_atomic: bool,
    /// Inferred per-lane address pattern.
    pub pattern: AccessPattern,
    /// Predicted line transactions per fully-active warp, when the pattern
    /// is known.
    pub lines: Option<usize>,
    /// Predicted memory transactions per fully-active warp at the machine's
    /// transaction granule ([`ArchDesc::transaction_granule`]). Equal to
    /// `lines` on unsectored machines; on sectored machines this is the
    /// sector traffic the miss path actually carries (≥ `lines`).
    pub sectors: Option<usize>,
    /// Per-iteration byte stride of the innermost enclosing loop, when the
    /// address is affine in that loop's counter: a stride off the granule
    /// lets a later iteration straddle one more transaction.
    pub iter_stride: Option<i64>,
    /// `true` when the access sits under divergent control flow, so a warp
    /// may reach it with a partial lane mask and fewer transactions.
    pub divergent: bool,
    /// Levels this access can be served at, in pipeline order.
    pub feasible: Vec<LevelKind>,
    /// Shallowest feasible level.
    pub entry: LevelKind,
    /// Analytic unloaded-latency lower bound in core cycles: a hit at the
    /// entry level with empty queues.
    pub floor: u64,
}

/// Whole-kernel static cost prediction against one machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCost {
    /// Analyzed kernel name.
    pub kernel: String,
    /// Machine description name.
    pub arch: String,
    /// Per-load predictions, in pc order.
    pub loads: Vec<LoadCost>,
}

impl KernelCost {
    /// Renders the prediction table as human-readable text.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {}: {} memory operation(s)",
            self.kernel,
            self.arch,
            self.loads.len()
        );
        for l in &self.loads {
            let levels: Vec<&str> = l.feasible.iter().map(|k| k.label()).collect();
            let lines = l.lines.map_or("?".to_string(), |n| n.to_string());
            let what = if l.is_atomic { "atomic" } else { "load" };
            let sectors = match (l.sectors, l.lines) {
                (Some(s), Some(n)) if s != n => format!(" ({s} sector(s))"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  pc {:>3}: {} {what}: levels [{}], floor {} cyc @ {}, \
                 {} line(s)/warp{}",
                l.pc,
                l.space,
                levels.join(", "),
                l.floor,
                l.entry.label(),
                lines,
                sectors,
            );
        }
        out
    }
}

/// The pipeline space a global/local instruction travels in.
fn pipeline_space(space: Space) -> Option<PipelineSpace> {
    match space {
        Space::Global => Some(PipelineSpace::Global),
        Space::Local => Some(PipelineSpace::Local),
        Space::Shared => None,
    }
}

/// Predicts per-load costs for `kernel` against the machine `desc`.
pub fn kernel_cost(kernel: &Kernel, desc: &ArchDesc) -> KernelCost {
    let cfg = Cfg::build(kernel);
    let sym = symaddr::analyze(kernel, &cfg);
    let config = AnalysisConfig {
        line_size: desc.line_size,
        warp_size: desc.sm.warp_size,
        ..AnalysisConfig::default()
    };
    // On sectored machines the coalescer emits granule-sized transactions;
    // a second pass at the granule predicts the sector traffic the miss
    // path carries (identical to the line pass when unsectored).
    let granule = desc.transaction_granule();
    let sector_pass: Option<Vec<_>> = (granule != desc.line_size).then(|| {
        let sector_config = AnalysisConfig {
            line_size: granule,
            ..config
        };
        memlint::predict_from(&sym, &sector_config)
    });
    let mut loads = Vec::new();
    for (i, p) in memlint::predict_from(&sym, &config).into_iter().enumerate() {
        // Stores never produce a completed-load record and shared accesses
        // never leave the SM: only loads and atomics have a dynamic ground
        // truth to predict.
        if p.is_store && !p.is_atomic {
            continue;
        }
        let Some(space) = pipeline_space(p.space) else {
            continue;
        };
        let sectors = match &sector_pass {
            Some(pass) => {
                debug_assert_eq!(pass[i].pc, p.pc, "passes walk the same accesses");
                pass[i].lines_per_warp
            }
            None => p.lines_per_warp,
        };
        let feasible = desc.feasible_levels(space, p.is_atomic);
        let entry = desc.entry_level(space, p.is_atomic);
        let floor = desc.unloaded_floor(space, p.is_atomic);
        loads.push(LoadCost {
            pc: p.pc,
            space: p.space,
            is_atomic: p.is_atomic,
            pattern: p.pattern,
            lines: p.lines_per_warp,
            sectors,
            iter_stride: p.iter_stride,
            divergent: sym.pc_in_divergent_region(&cfg, p.pc),
            feasible,
            entry,
            floor,
        });
    }
    KernelCost {
        kernel: kernel.name().to_string(),
        arch: desc.name.clone(),
        loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{KernelBuilder, Special, Width};

    fn strided_kernel(stride: i64) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off = b.mul(t, stride);
        let a = b.add(base, off);
        b.ld_global(Width::W4, a, 0);
        b.exit();
        b.build().unwrap()
    }

    // A Fermi-class description (L1 serves global loads) without depending
    // on latency-core, which would be a dependency cycle; the full preset
    // matrix is exercised by the differential harness in `gpu-bench`.
    fn desc_with_l1() -> ArchDesc {
        gpu_sim::GpuConfig::fermi_gf100().arch_desc()
    }

    #[test]
    fn coalesced_load_is_scoreboard_bound() {
        let cost = kernel_cost(&strided_kernel(4), &desc_with_l1());
        assert_eq!(cost.loads.len(), 1);
        let l = &cost.loads[0];
        assert_eq!(l.lines, Some(1), "the warp waits on one transaction");
        assert_eq!(l.entry, l.feasible[0]);
        assert!(l.floor > 0);
        assert_eq!(
            Some(l.floor),
            desc_with_l1().unloaded_latency(l.entry),
            "floor is the entry-level unloaded latency"
        );
    }

    #[test]
    fn fully_strided_load_saturates_mshrs() {
        let desc = desc_with_l1();
        let cost = kernel_cost(&strided_kernel(128), &desc);
        let l = &cost.loads[0];
        assert_eq!(l.lines, Some(32));
        let mshrs = desc.level(l.entry).unwrap().mshr_config().entries;
        assert!(32 >= mshrs, "32 lines fill the {mshrs}-entry MSHR table");
    }

    #[test]
    fn atomics_bypass_the_l1() {
        let desc = desc_with_l1();
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        let t = b.special(Special::GlobalTid);
        let off = b.shl(t, 2);
        let a = b.add(base, off);
        b.atom_add(Width::W4, a, 0, 1i64);
        b.exit();
        let k = b.build().unwrap();
        let cost = kernel_cost(&k, &desc);
        assert_eq!(cost.loads.len(), 1);
        let l = &cost.loads[0];
        assert!(l.is_atomic);
        assert!(
            !l.feasible.contains(&LevelKind::L1),
            "atomics never hit in L1: {:?}",
            l.feasible
        );
        assert!(l.feasible.contains(&LevelKind::DramFront));
        assert!(
            l.floor > desc.unloaded_floor(PipelineSpace::Global, false),
            "bypassing the L1 raises the floor on a cached-L1 machine"
        );
    }

    #[test]
    fn human_rendering_lists_each_load() {
        let cost = kernel_cost(&strided_kernel(4), &desc_with_l1());
        let text = cost.to_human();
        assert!(text.contains("1 memory operation(s)"), "{text}");
        assert!(text.contains("1 line(s)/warp"), "{text}");
    }

    /// The same Fermi-class machine with 32-byte sectors on both caches.
    fn sectored_desc() -> ArchDesc {
        let mut desc = desc_with_l1();
        for level in &mut desc.levels {
            if let Some(g) = &mut level.geom {
                g.sector_bytes = Some(32);
            }
        }
        desc.validate().expect("sectored variant stays valid");
        desc
    }

    #[test]
    fn sectors_match_lines_on_unsectored_machines() {
        for stride in [4, 32, 128] {
            let cost = kernel_cost(&strided_kernel(stride), &desc_with_l1());
            let l = &cost.loads[0];
            assert_eq!(l.sectors, l.lines, "stride {stride}");
        }
    }

    #[test]
    fn sectored_machine_forecasts_sector_traffic() {
        // Stride 32 with 4-byte lanes: 32 lanes touch 8 distinct 128-byte
        // lines but 32 distinct 32-byte sectors.
        let cost = kernel_cost(&strided_kernel(32), &sectored_desc());
        let l = &cost.loads[0];
        assert_eq!(l.lines, Some(8));
        assert_eq!(l.sectors, Some(32));
        // A dense coalesced access still spans one line = four sectors.
        let dense = kernel_cost(&strided_kernel(4), &sectored_desc());
        let d = &dense.loads[0];
        assert_eq!(d.lines, Some(1));
        assert_eq!(d.sectors, Some(4));
        // The rendering surfaces the divergence.
        assert!(
            cost.to_human().contains("(32 sector(s))"),
            "{}",
            cost.to_human()
        );
    }
}
