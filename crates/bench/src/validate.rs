//! Differential validation of the static analyzer against the simulator.
//!
//! The static analyzer (`latency-check`) makes three falsifiable claims
//! about every kernel, and this module checks each one against a real
//! instrumented run of the same kernel on the same machine description:
//!
//! - **Transactions** (contract A): the symbolic coalescing prediction
//!   (`lines_per_warp`, evaluated at the machine's transaction granule —
//!   the sector size on sectored presets, the line size otherwise) must
//!   match the per-warp transaction counts the simulator's own coalescer
//!   produced ([`gpu_sim::stats::LoadInstrRecord::lines`], keyed by pc).
//!   Outside divergent control flow the match is *exact* for a fully-active
//!   warp; under divergence (or a loop whose per-iteration stride is not
//!   granule-aligned) the static count is an upper bound.
//! - **Levels** (contract B): every completed request's service level,
//!   derived from its [`Timeline`] stamps, must lie in the level set the
//!   machine description declares feasible for that space
//!   ([`gpu_arch::ArchDesc::feasible_levels`]).
//! - **Floor** (contract C): the analytic unloaded latency of each level
//!   ([`gpu_arch::ArchDesc::unloaded_latency`]) must not exceed the
//!   pointer-chase-measured latency of the same level — the static floor
//!   really is a floor. It is one rule of the published-reference check
//!   ([`crate::reference`]), which every Table I chase point is held to.
//!
//! Contract A/B run per (preset, workload) cell via [`validate_run`]. The
//! `static_vs_dynamic` integration test sweeps the full Table-I matrix,
//! and `lint --validate` prints the same reports (and contract C's floor
//! lines) from the command line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gpu_arch::{ArchDesc, LevelKind};
use gpu_mem::{PipelineSpace, Stamp, Timeline};
use gpu_sim::{GpuConfig, SimError};
use gpu_workloads::Workload;
use latency_check::{AnalysisConfig, Cfg};
use latency_core::ArchPreset;

use crate::experiments::run_workload_traced;

/// One statically-predicted load compared against its dynamic records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadCheck {
    /// Instruction pc.
    pub pc: gpu_isa::Pc,
    /// Predicted line transactions per fully-active warp.
    pub predicted_lines: usize,
    /// Largest per-warp line count any dynamic record produced.
    pub max_observed_lines: u32,
    /// Number of dynamic records at this pc.
    pub records: usize,
    /// `true` when the access executes under divergent control flow, so
    /// the static count is only an upper bound.
    pub divergent: bool,
    /// `true` when the exact-match contract applied (and held).
    pub exact: bool,
}

/// Contract A + B verdict for one (machine, workload) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Machine description name.
    pub arch: String,
    /// Workload name.
    pub workload: &'static str,
    /// Per-load transaction comparisons (predictions with a known pattern
    /// that produced dynamic records).
    pub loads: Vec<LoadCheck>,
    /// Completed requests per derived service level.
    pub level_counts: BTreeMap<&'static str, usize>,
    /// Total completed requests inspected.
    pub requests: usize,
    /// Contract violations, empty when the cell validates.
    pub violations: Vec<String>,
}

impl ValidationReport {
    /// `true` when every contract held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the cell verdict as human-readable text.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        let levels: Vec<String> = self
            .level_counts
            .iter()
            .map(|(k, n)| format!("{k}:{n}"))
            .collect();
        let _ = writeln!(
            out,
            "{} x {}: {} load pc(s) compared, {} request(s) [{}] -> {}",
            self.workload,
            self.arch,
            self.loads.len(),
            self.requests,
            levels.join(" "),
            if self.ok() { "ok" } else { "FAIL" },
        );
        for v in &self.violations {
            let _ = writeln!(out, "  violation: {v}");
        }
        out
    }
}

/// Scales a preset down (like the determinism suite) so full-matrix
/// validation stays fast; pipeline latencies are untouched.
fn small_cfg(preset: ArchPreset) -> GpuConfig {
    let mut cfg = preset.config();
    cfg.num_sms = cfg.num_sms.min(4);
    cfg.num_partitions = cfg.num_partitions.min(2);
    cfg
}

/// Derives the level that served a request from its timeline stamps: a
/// request that never crossed the interconnect was served at the L1; one
/// that entered the L2 queue but never the DRAM queue hit in L2; one that
/// entered the DRAM queue was served by DRAM. Returns `None` for a
/// physically impossible stamp combination.
pub fn derived_level(t: &Timeline) -> Option<LevelKind> {
    if t.get(Stamp::DramQueueEnter).is_some() {
        Some(LevelKind::DramFront)
    } else if t.get(Stamp::L2QueueEnter).is_some() {
        Some(LevelKind::L2)
    } else if t.get(Stamp::IcntInject).is_none() {
        Some(LevelKind::L1)
    } else {
        None
    }
}

/// The levels a request of `space` may legitimately be served at: the
/// union over both bypass modes (the request trace does not record whether
/// an access was an atomic).
fn allowed_levels(desc: &ArchDesc, space: PipelineSpace) -> Vec<LevelKind> {
    let mut v = desc.feasible_levels(space, false);
    for k in desc.feasible_levels(space, true) {
        if !v.contains(&k) {
            v.push(k);
        }
    }
    v
}

/// Runs `workload` on a scaled-down `preset` machine and checks contracts
/// A (transaction counts) and B (service levels) against the traces.
///
/// # Errors
///
/// Propagates simulator failures; contract violations are reported in the
/// returned [`ValidationReport`], not as errors.
///
/// # Panics
///
/// Panics on a multi-kernel workload: contract A keys dynamic loads by pc,
/// which only names an instruction within one kernel.
pub fn validate_run(preset: ArchPreset, workload: &Workload) -> Result<ValidationReport, SimError> {
    let cfg = small_cfg(preset);
    let desc = cfg.arch_desc();
    // The descriptor lists what the run below launches
    // (tests/workload_table.rs holds it to that).
    let kernels = (workload.kernels)();
    let [kernel] = kernels.as_slice() else {
        panic!("{} launches {} kernels", workload.name, kernels.len());
    };
    let kcfg = Cfg::build(kernel);
    let sym = latency_check::symaddr::analyze(kernel, &kcfg);
    // Contract A compares *transaction* counts, which on a sectored machine
    // means sectors: the simulator's coalescer emits granule-sized
    // transactions, so the static prediction must count at the same granule
    // (identical to the line size on the paper-era presets).
    let acfg = AnalysisConfig {
        line_size: desc.transaction_granule(),
        warp_size: desc.sm.warp_size,
        ..AnalysisConfig::default()
    };
    let preds = latency_check::memlint::predict_from(&sym, &acfg);
    let run = run_workload_traced(cfg, workload)?;

    let mut violations = Vec::new();

    // Contract A: per-pc line counts.
    let mut by_pc: BTreeMap<gpu_isa::Pc, Vec<u32>> = BTreeMap::new();
    for r in &run.loads {
        by_pc.entry(r.pc).or_default().push(r.lines);
    }
    for pc in by_pc.keys() {
        if sym.access_at(*pc).is_none() {
            violations.push(format!(
                "dynamic load at pc {pc} has no static access prediction"
            ));
        }
    }
    let mut loads = Vec::new();
    for p in &preds {
        let Some(n) = p.lines_per_warp else {
            continue; // unknown pattern: the analyzer claimed nothing
        };
        let Some(obs) = by_pc.get(&p.pc) else {
            continue; // access never executed (e.g. guarded off)
        };
        let divergent = sym.pc_in_divergent_region(&kcfg, p.pc);
        // A loop stride that is not line-aligned shifts the window across
        // line boundaries, so later iterations may straddle one extra line
        // relative to the iteration-0 prediction.
        let iter_slack = usize::from(
            p.iter_stride
                .is_some_and(|s| s.unsigned_abs() % acfg.line_size != 0),
        );
        let max_obs = obs.iter().copied().max().unwrap_or(0);
        if max_obs as usize > n + iter_slack {
            violations.push(format!(
                "pc {}: observed {} line(s)/warp exceeds predicted {} (+{} slack)",
                p.pc, max_obs, n, iter_slack
            ));
        }
        let exact = !divergent && iter_slack == 0;
        if exact && max_obs as usize != n {
            violations.push(format!(
                "pc {}: predicted exactly {} line(s)/warp outside divergence, observed {}",
                p.pc, n, max_obs
            ));
        }
        loads.push(LoadCheck {
            pc: p.pc,
            predicted_lines: n,
            max_observed_lines: max_obs,
            records: obs.len(),
            divergent,
            exact,
        });
    }
    // Contract B: derived service levels.
    let allowed_global = allowed_levels(&desc, PipelineSpace::Global);
    let allowed_local = allowed_levels(&desc, PipelineSpace::Local);
    let mut level_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for req in &run.requests {
        match derived_level(&req.timeline) {
            Some(level) => {
                *level_counts.entry(level.label()).or_insert(0) += 1;
                let allowed = match req.space {
                    PipelineSpace::Global => &allowed_global,
                    PipelineSpace::Local => &allowed_local,
                };
                if !allowed.contains(&level) {
                    violations.push(format!(
                        "request served at {} but {:?} space only allows {:?}",
                        level.label(),
                        req.space,
                        allowed.iter().map(|k| k.label()).collect::<Vec<_>>(),
                    ));
                }
            }
            None => violations.push(
                "request crossed the interconnect but entered neither the L2 nor the DRAM queue"
                    .to_string(),
            ),
        }
    }

    Ok(ValidationReport {
        arch: desc.name.clone(),
        workload: workload.name,
        loads,
        level_counts,
        requests: run.requests.len(),
        violations,
    })
}
