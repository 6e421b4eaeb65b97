//! The static analyzer held against every traced run of the experiment list.
//!
//! The static analyzer (`latency-check`) makes three falsifiable claims
//! about a kernel on a machine. [`check`], a pure function of a finished
//! [`TracedRun`], holds it to the first two; the plan calls it on every
//! traced run after the sanitizer gate, so a broken claim fails the list:
//!
//! - **Transactions** (contract A): the symbolic coalescing prediction
//!   (`lines_per_warp`, at the machine's transaction granule — the sector
//!   size on sectored presets, the line size otherwise) must match the
//!   per-warp transaction counts the simulator's coalescer produced
//!   ([`gpu_sim::stats::LoadInstrRecord::lines`], keyed by pc): exactly for
//!   a fully-active warp outside divergent control flow, as an upper bound
//!   under divergence or a loop stride that is not granule-aligned. A pc
//!   only names an instruction within one kernel, so BFS, which launches
//!   two, is held to contract B alone.
//! - **Levels** (contract B): every completed request's service level,
//!   derived from its [`Timeline`] stamps, must lie in the level set the
//!   description declares feasible for its space
//!   ([`gpu_arch::ArchDesc::feasible_levels`]).
//! - **Floor** (contract C): each level's analytic unloaded latency must not
//!   exceed its chase measurement, one rule of [`crate::reference`].
//!
//! The `static_vs_dynamic` row prints E4's and `arch_dynamic`'s reports.

use std::collections::BTreeMap;

use gpu_arch::{ArchDesc, LevelKind};
use gpu_isa::Kernel;
use gpu_mem::{PipelineSpace, Stamp, Timeline};
use gpu_sim::{CompletedRequest, GpuConfig, LoadInstrRecord};
use gpu_trace::json::Writer;
use gpu_workloads::Workload;
use latency_check::{AnalysisConfig, Cfg};

use crate::experiments::TracedRun;

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
}

/// What a traced run that held contracts A and B was checked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Machine description name.
    pub arch: String,
    /// Workload name.
    pub workload: &'static str,
    /// Kernels the workload launches; contract A applies only to one.
    pub kernels: usize,
    /// Per-load transaction comparisons (predictions with a known pattern
    /// that produced dynamic records).
    pub loads: Vec<LoadCheck>,
    /// Completed requests per derived service level.
    pub level_counts: BTreeMap<&'static str, usize>,
    /// Total completed requests inspected.
    pub requests: usize,
}

impl ValidationReport {
    /// Renders the verdict as one line.
    pub fn to_human(&self) -> String {
        let loads = match self.kernels {
            1 => format!("{} load pc(s) compared", self.loads.len()),
            n => format!("contract A n/a ({n} kernels)"),
        };
        let levels = self.level_counts.iter().map(|(k, n)| format!("{k}:{n}"));
        let levels = levels.collect::<Vec<_>>().join(" ");
        let (name, arch, requests) = (self.workload, &self.arch, self.requests);
        format!("{name} x {arch}: {loads}, {requests} request(s) [{levels}] -> ok\n")
    }

    /// Writes the integers behind [`Self::to_human`]'s line as one object.
    pub fn write_pins(&self, w: &mut Writer) {
        w.object().field("workload", self.workload);
        w.field("arch", &self.arch).field("kernels", self.kernels);
        w.key("loads").array();
        for l in &self.loads {
            w.object().field("pc", l.pc);
            w.field("predicted", l.predicted_lines);
            w.field("observed", l.max_observed_lines);
            w.field("records", l.records).end();
        }
        w.end().field("requests", self.requests).key("levels");
        w.object();
        for (level, n) in &self.level_counts {
            w.field(level, n);
        }
        w.end().end();
    }
}

/// Derives the level that served a request from its timeline stamps: a
/// request that never crossed the interconnect was served at the L1; one
/// that entered the L2 queue but never the DRAM queue hit in L2; one that
/// entered the DRAM queue was served by DRAM. Returns `None` for a
/// physically impossible stamp combination.
fn derived_level(t: &Timeline) -> Option<LevelKind> {
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

/// Holds `run` — `workload` on `config` — to contracts A (transaction
/// counts, where the workload launches one kernel) and B (service levels);
/// errs with every violation, each naming its pc or level.
pub fn check(
    config: &GpuConfig,
    workload: &Workload,
    run: &TracedRun,
) -> Result<ValidationReport, Vec<String>> {
    let desc = config.arch_desc();
    // What the run launched: tests/workload_table.rs holds the table to it.
    let kernels = (workload.kernels)();
    let mut violations = Vec::new();
    let loads = match kernels.as_slice() {
        [kernel] => transactions(kernel, &desc, &run.loads, &mut violations),
        _ => Vec::new(),
    };
    let level_counts = levels(&desc, &run.requests, &mut violations);
    if !violations.is_empty() {
        return Err(violations);
    }
    Ok(ValidationReport {
        arch: desc.name.clone(),
        workload: workload.name,
        kernels: kernels.len(),
        loads,
        level_counts,
        requests: run.requests.len(),
    })
}

/// Contract A: `kernel`'s per-pc line counts in `records` against the
/// analyzer's prediction on `desc`.
fn transactions(
    kernel: &Kernel,
    desc: &ArchDesc,
    records: &[LoadInstrRecord],
    violations: &mut Vec<String>,
) -> Vec<LoadCheck> {
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
    let mut by_pc: BTreeMap<gpu_isa::Pc, Vec<u32>> = BTreeMap::new();
    for r in records {
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
        if !divergent && iter_slack == 0 && max_obs as usize != n {
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
        });
    }
    loads
}

/// Contract B: counts `requests` per derived service level; each kind of
/// request `desc` does not allow is one violation, with its count.
fn levels(
    desc: &ArchDesc,
    requests: &[CompletedRequest],
    violations: &mut Vec<String>,
) -> BTreeMap<&'static str, usize> {
    // Bypassing the L1, as an atomic does, only removes a level, so the
    // non-bypassing set allows every request (the trace does not record
    // which ones were atomics).
    let spaces = [PipelineSpace::Global, PipelineSpace::Local];
    let [global, local] = spaces.map(|s| desc.feasible_levels(s, false));
    let (mut counts, mut broken) = (BTreeMap::new(), BTreeMap::new());
    for req in requests {
        let allowed = match req.space {
            PipelineSpace::Global => &global,
            PipelineSpace::Local => &local,
        };
        let what = match derived_level(&req.timeline) {
            Some(level) => {
                *counts.entry(level.label()).or_insert(0) += 1;
                if allowed.contains(&level) {
                    continue;
                }
                let allowed: Vec<&str> = allowed.iter().map(|k| k.label()).collect();
                let (level, space) = (level.label(), req.space);
                format!("served at {level} but {space:?} space only allows {allowed:?}")
            }
            None => "crossed the interconnect but entered neither the L2 nor the DRAM queue".into(),
        };
        *broken.entry(what).or_insert(0) += 1;
    }
    for (what, n) in broken {
        violations.push(format!("{n} request(s) {what}"));
    }
    counts
}
