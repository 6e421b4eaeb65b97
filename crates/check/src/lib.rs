//! Static analyzer for `gpu-isa` kernels.
//!
//! `latency-check` complements the timing model with compile-time
//! correctness and performance lints, so latency attributions (paper
//! Fig. 1/2) rest on kernels whose dataflow is known-sound:
//!
//! - **Structure**: [`gpu_isa::Kernel::validate`] findings as diagnostics.
//! - **Undef reads**: registers read before any (or every) path writes them.
//! - **Dead writes**: register writes no later instruction observes.
//! - **Unreachable code**: blocks no path from entry executes.
//! - **Constant guards**: predicate guards that statically always fail.
//! - **Coalescing**: per-warp global/local transaction prediction from the
//!   symbolic address analysis ([`symaddr`]), computed with the simulator's
//!   own [`gpu_sim::coalesce`] rules.
//! - **Bank conflicts**: shared-memory conflict-degree estimation.
//! - **Shared races**: intra-block shared-memory write/write and read/write
//!   overlap between barriers ([`concurrency`]).
//! - **Barrier divergence**: `bar.sync` reachable under a lane-varying
//!   branch, including data-dependent loops.
//!
//! Beyond the lints, [`kernel_cost`] predicts per-load feasible service
//! levels, transactions per warp and unloaded-latency floors against any
//! [`gpu_arch::ArchDesc`]; the `latency-bench` crate differentially
//! validates these predictions against instrumented simulator runs.
//!
//! # Examples
//!
//! ```
//! use gpu_isa::{KernelBuilder, Special, Width};
//! use latency_check::{analyze, AnalysisConfig};
//!
//! let mut b = KernelBuilder::new("copy");
//! let src = b.param(0);
//! let dst = b.param(1);
//! let t = b.special(Special::GlobalTid);
//! let off = b.shl(t, 2);
//! let pa = b.add(src, off);
//! let pb = b.add(dst, off);
//! let v = b.ld_global(Width::W4, pa, 0);
//! b.st_global(Width::W4, pb, 0, v);
//! b.exit();
//! let kernel = b.build().unwrap();
//!
//! let report = analyze(&kernel, &AnalysisConfig::default());
//! assert!(report.is_clean());
//! // Two fully-coalesced accesses are reported as advisory findings.
//! assert_eq!(report.count(latency_check::Severity::Info), 2);
//! ```

#![forbid(unsafe_code)]

pub mod cfg;
pub mod concurrency;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod memlint;
pub mod symaddr;

use gpu_isa::Kernel;

pub use cfg::{Block, Cfg};
pub use cost::{kernel_cost, KernelCost, LoadCost};
pub use diag::{to_sarif, Diagnostic, Pass, Report, Severity};
pub use memlint::{AccessPattern, MemPrediction};
pub use symaddr::{SymAnalysis, SymVal};

/// Machine parameters the memory-access lints predict against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Cache-line / memory-transaction size in bytes.
    pub line_size: u64,
    /// Lanes per warp.
    pub warp_size: u32,
    /// Shared-memory banks.
    pub shared_banks: u32,
    /// Bank word width in bytes.
    pub bank_bytes: u64,
}

impl Default for AnalysisConfig {
    /// Fermi-class defaults: 128 B lines, 32-lane warps, 32 x 4 B banks.
    fn default() -> Self {
        AnalysisConfig {
            line_size: 128,
            warp_size: 32,
            shared_banks: 32,
            bank_bytes: 4,
        }
    }
}

/// Runs every analyzer pass over `kernel` and returns the sorted report.
pub fn analyze(kernel: &Kernel, config: &AnalysisConfig) -> Report {
    let mut report = Report {
        kernel: kernel.name().to_string(),
        diagnostics: Vec::new(),
    };
    if let Err(e) = kernel.validate() {
        report.diagnostics.push(Diagnostic::kernel_level(
            Severity::Error,
            Pass::Structure,
            e.to_string(),
        ));
        if kernel.is_empty() {
            return report;
        }
    }
    let g = Cfg::build(kernel);
    dataflow::undef_read_pass(kernel, &g, &mut report.diagnostics);
    dataflow::dead_write_pass(kernel, &g, &mut report.diagnostics);
    dataflow::unreachable_pass(&g, &mut report.diagnostics);
    dataflow::guard_const_pass(kernel, &g, &mut report.diagnostics);
    // One symbolic solve feeds both the memory and the concurrency lints.
    let sym = symaddr::analyze(kernel, &g);
    for p in memlint::predict_from(&sym, config) {
        memlint::push_memory_diags(&p, config, &mut report.diagnostics);
    }
    concurrency::concurrency_pass(kernel, &g, &sym, &mut report.diagnostics);
    report.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::{Instr, KernelBuilder, Operand};

    #[test]
    fn empty_kernel_yields_structure_error_only() {
        let k = Kernel::from_parts("e", vec![], 0, 0, 0);
        let r = analyze(&k, &AnalysisConfig::default());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].pass, Pass::Structure);
        assert!(!r.is_clean());
    }

    #[test]
    fn invalid_register_still_gets_full_analysis() {
        let k = Kernel::from_parts(
            "bad",
            vec![
                Instr::Mov {
                    dst: 9, // out of range for num_regs = 1
                    src: Operand::Imm(0),
                },
                Instr::Exit,
            ],
            1,
            0,
            0,
        );
        let r = analyze(&k, &AnalysisConfig::default());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.pass == Pass::Structure && d.severity == Severity::Error));
    }

    #[test]
    fn clean_kernel_reports_no_errors() {
        let mut b = KernelBuilder::new("k");
        let r = b.mov(Operand::Imm(1));
        let s = b.add(r, r);
        let base = b.param(0);
        let a = b.add(base, s);
        b.st_global(gpu_isa::Width::W4, a, 0, s);
        b.exit();
        let k = b.build().unwrap();
        let rep = analyze(&k, &AnalysisConfig::default());
        assert!(rep.is_clean(), "{}", rep.to_human());
    }

    #[test]
    fn report_is_sorted_by_pc() {
        let mut b = KernelBuilder::new("k");
        let base = b.param(0);
        b.ld_global(gpu_isa::Width::W4, base, 0); // dead load (info)
        b.mov(Operand::Imm(3)); // dead write (warning)
        b.exit();
        let k = b.build().unwrap();
        let rep = analyze(&k, &AnalysisConfig::default());
        let pcs: Vec<_> = rep.diagnostics.iter().map(|d| d.pc).collect();
        let mut sorted = pcs.clone();
        sorted.sort();
        assert_eq!(pcs, sorted);
    }
}
