//! Trace-bundle export: the on-disk artifact of an instrumented run.
//!
//! A bundle directory holds the Perfetto-loadable Chrome trace
//! (`trace.json`), the raw event stream (`events.jsonl`), sampled counters
//! (`counters.csv`), the Figure-1/2 analyses (`breakdown.csv`,
//! `exposure.csv`), a clipped latency histogram (`latency_hist.csv`) and a
//! human-readable `metrics.txt` with counter summaries, stall attribution
//! and host throughput.
//!
//! The `LATENCY_TRACE` environment variable turns instrumented experiment
//! drivers into bundle writers without code changes: `1`/`true`/`on`
//! enables event collection only; any other non-empty value names a
//! directory under which every run also writes its bundle, each into its
//! own `<content hash>/` subdirectory ([`TraceBundle::env_dir`]) — a driver
//! may make many runs, some concurrently (best effort — export failures are
//! reported on stderr, never fatal).

use std::io;
use std::path::{Path, PathBuf};

use gpu_sim::{GpuConfig, LevelKind, StallReason};
use gpu_trace::{
    counters_csv, events_jsonl, ChromeTraceBuilder, CounterKind, ProfileReport, TrackNames,
};
use latency_core::{breakdown_csv, exposure_csv, Bucketing, ExposureAnalysis, LatencyBreakdown};

use crate::experiments::TracedRun;

/// Tracing behaviour requested through the `LATENCY_TRACE` environment
/// variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvTrace {
    /// Variable unset, empty, or `0`: no event tracing.
    Off,
    /// `1`, `true` or `on`: collect events in memory only.
    Collect,
    /// Any other value: collect events and write each run's bundle under
    /// this directory.
    Bundle(PathBuf),
}

impl EnvTrace {
    /// Whether event tracing should be switched on.
    pub fn enabled(&self) -> bool {
        *self != EnvTrace::Off
    }
}

/// Reads the `LATENCY_TRACE` environment variable.
pub fn env_request() -> EnvTrace {
    match std::env::var("LATENCY_TRACE") {
        Err(_) => EnvTrace::Off,
        Ok(v) => match v.trim() {
            "" | "0" => EnvTrace::Off,
            "1" | "true" | "on" => EnvTrace::Collect,
            dir => EnvTrace::Bundle(PathBuf::from(dir)),
        },
    }
}

/// One instrumented run, borrowed for export, plus how to draw its machine.
#[derive(Debug)]
pub struct TraceBundle<'a> {
    /// The run: traces, metrics, cycle count and content hash (two bundles
    /// with equal hashes came from identical simulations).
    pub run: &'a TracedRun,
    /// SMs in the simulated machine (Perfetto track layout).
    pub num_sms: u32,
    /// Memory partitions in the simulated machine.
    pub num_partitions: u32,
    /// Process/thread/counter display names for the Perfetto tracks,
    /// derived from the architecture description (see [`track_names_for`]).
    pub track_names: TrackNames,
    /// Host-side self-profile of the run (`LATENCY_PROFILE`), exported as
    /// `profile.txt`/`profile.json` and merged into `trace.json` as
    /// host-clock tracks. `None` when profiling was off.
    pub profile: Option<ProfileReport>,
}

/// Perfetto track display names for a machine. What a description can vary
/// is its display name (on the process tracks) and its L2 slice count (on
/// the L2 queue track); the counter tracks are otherwise spelled with the
/// fixed level and queue labels (`LevelKind::label`/`queue_label`).
pub fn track_names_for(cfg: &GpuConfig) -> TrackNames {
    let desc = cfg.arch_desc();
    let [l1, l2, dram] = [LevelKind::L1, LevelKind::L2, LevelKind::DramFront].map(LevelKind::label);
    let mut counters = CounterKind::ALL.map(|k| k.name().to_string());
    counters[CounterKind::L1MshrOccupancy.index()] = format!("{l1} MSHR occupancy");
    counters[CounterKind::FrontDepth.index()] = "SM front-end depth".to_string();
    counters[CounterKind::MissQueueDepth.index()] =
        format!("{l1} queue ({})", LevelKind::L1.queue_label());
    counters[CounterKind::RopQueueDepth.index()] = "ROP queue".to_string();
    // On a sliced L2 the depth counter aggregates every slice's input
    // queue; the track name says so, matching the sanitizer's per-slice
    // `l2-input.N` labels.
    let l2_slices = desc.level(LevelKind::L2).map_or(1, |l| l.slices.max(1));
    counters[CounterKind::L2QueueDepth.index()] = if l2_slices > 1 {
        format!(
            "{l2} queue ({} x{l2_slices} slices)",
            LevelKind::L2.queue_label()
        )
    } else {
        format!("{l2} queue ({})", LevelKind::L2.queue_label())
    };
    counters[CounterKind::L2MshrOccupancy.index()] = format!("{l2} MSHR occupancy");
    counters[CounterKind::DramQueueDepth.index()] =
        format!("{dram} queue ({})", LevelKind::DramFront.queue_label());
    counters[CounterKind::IcntInFlight.index()] = "crossbar in-flight".to_string();
    counters[CounterKind::Outstanding.index()] = "outstanding requests".to_string();
    counters[CounterKind::DramRowHitPermille.index()] = format!("{dram} row-hit permille");
    TrackNames {
        sms_process: format!("{} SMs", desc.name),
        partitions_process: format!("{} memory partitions", desc.name),
        gpu_process: format!("{} GPU", desc.name),
        host_process: format!("Host self-profile ({})", desc.name),
        sm_prefix: "SM".to_string(),
        partition_prefix: "Partition".to_string(),
        counters,
    }
}

impl<'a> TraceBundle<'a> {
    /// The bundle of a finished run on `cfg`'s machine: shape and track
    /// names are derived from the configuration, and the host-side
    /// self-profile is included when the profiler is recording.
    pub fn of(run: &'a TracedRun, cfg: &GpuConfig) -> Self {
        TraceBundle {
            run,
            num_sms: cfg.num_sms as u32,
            num_partitions: cfg.num_partitions as u32,
            track_names: track_names_for(cfg),
            profile: gpu_trace::profile::enabled().then(gpu_trace::profile::report),
        }
    }

    /// Where this run's bundle goes under a `LATENCY_TRACE` directory:
    /// `<root>/<content hash as 16 hex digits>/`. One directory per run
    /// keeps a driver's many runs from writing over each other; two runs
    /// with equal hashes are identical simulations, so sharing one is
    /// harmless.
    pub fn env_dir(&self, root: &Path) -> PathBuf {
        root.join(format!("{:016x}", self.run.content_hash))
    }

    /// Renders the Chrome trace-event JSON: one track per SM / partition,
    /// one async span per traced request tiled into its pipeline stages,
    /// instants for events and counter tracks for samples.
    pub fn chrome_json(&self) -> String {
        let mut b = ChromeTraceBuilder::with_names(
            self.num_sms,
            self.num_partitions,
            self.track_names.clone(),
        );
        for (i, r) in self.run.requests.iter().enumerate() {
            b.add_request_span(r.sm.get(), i as u64, &r.timeline);
        }
        for e in &self.run.trace.events {
            b.add_event(e);
        }
        for s in &self.run.trace.samples {
            b.add_counter_sample(s);
        }
        if let Some(p) = &self.profile {
            b.add_host_profile(p);
        }
        b.finish()
    }

    /// Renders `metrics.txt`: counter summaries and stall attribution in a
    /// stable `key = value` / table format. Every line is a pure function
    /// of the simulation, so the file hashes the same on any host; host
    /// time is on `latency trace`'s `throughput:` stdout line.
    pub fn metrics_text(&self) -> String {
        let (run, m) = (self.run, &self.run.metrics);
        let mut out = String::new();
        out.push_str(&format!("cycles = {}\n", run.cycles));
        out.push_str(&format!("content_hash = {:016x}\n", run.content_hash));
        out.push_str(&format!("events_recorded = {}\n", m.events_recorded));
        out.push_str(&format!("events_dropped = {}\n", m.events_dropped));
        out.push_str(&format!("counter_samples = {}\n", m.samples));
        out.push_str("\n[stalls]\n");
        for r in StallReason::ALL {
            out.push_str(&format!("{} = {}\n", r.name(), m.stalls.get(r)));
        }
        out.push_str("\n[counters]  # name min mean max\n");
        for kind in CounterKind::ALL {
            let s = m.counter(kind);
            if s.samples == 0 {
                continue;
            }
            out.push_str(&format!(
                "{} {} {:.1} {}\n",
                kind.name(),
                s.min,
                s.mean(),
                s.max
            ));
        }
        out
    }

    /// Renders `latency_hist.csv`: quantile-clipped request-latency
    /// histogram (`lo,hi,count` per bucket plus an `overflow` row).
    pub fn latency_hist_csv(&self) -> String {
        let bucketing = Bucketing::from_totals(
            self.run
                .requests
                .iter()
                .filter_map(|r| r.timeline.total_latency()),
            32,
            0.999,
        );
        let mut out = String::from("lo,hi,count\n");
        let b = bucketing.buckets();
        for i in 0..b.len() {
            let (lo, hi) = b.range(i);
            out.push_str(&format!("{lo},{hi},{}\n", b.count(i)));
        }
        out.push_str(&format!("overflow,,{}\n", bucketing.overflow()));
        out
    }

    /// Writes the full bundle into `dir`, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("trace.json"), self.chrome_json())?;
        let run = self.run;
        std::fs::write(dir.join("events.jsonl"), events_jsonl(&run.trace.events))?;
        std::fs::write(dir.join("counters.csv"), counters_csv(&run.trace.samples))?;
        let (breakdown, _) = LatencyBreakdown::from_requests_clipped(&run.requests, 48, 0.999);
        std::fs::write(dir.join("breakdown.csv"), breakdown_csv(&breakdown))?;
        let (exposure, _) = ExposureAnalysis::from_loads_clipped(&run.loads, 24, 0.999);
        std::fs::write(dir.join("exposure.csv"), exposure_csv(&exposure))?;
        std::fs::write(dir.join("latency_hist.csv"), self.latency_hist_csv())?;
        std::fs::write(dir.join("metrics.txt"), self.metrics_text())?;
        if let Some(p) = &self.profile {
            std::fs::write(dir.join("profile.txt"), p.text())?;
            std::fs::write(dir.join("profile.json"), p.json())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_bfs_traced;
    use crate::BfsExperiment;
    use gpu_sim::GpuConfig;

    #[test]
    fn bundle_writes_all_files_and_valid_chrome_json() {
        let mut cfg = GpuConfig::fermi_gf100();
        cfg.num_sms = 2;
        cfg.num_partitions = 2;
        cfg.trace.enabled = true;
        let exp = BfsExperiment {
            nodes: 256,
            degree: 4,
            seed: 7,
            block_dim: 64,
        };
        let track_names = track_names_for(&cfg);
        assert_eq!(track_names.sms_process, "GF100-like (Fermi) SMs");
        assert!(track_names
            .counters
            .iter()
            .any(|c| c == "L1 MSHR occupancy"));
        let run = run_bfs_traced(cfg, &exp).unwrap();
        let bundle = TraceBundle {
            run: &run,
            num_sms: 2,
            num_partitions: 2,
            track_names,
            profile: None,
        };

        let json = bundle.chrome_json();
        let doc = gpu_trace::json::parse(&json).expect("valid chrome trace json");
        let verified = gpu_trace::check_span_sums(&doc).expect("stage sums tile lifetimes");
        assert!(verified > 0);

        let dir = std::env::temp_dir().join(format!("gpu-trace-bundle-{}", std::process::id()));
        bundle.write(&dir).expect("bundle written");
        for f in [
            "trace.json",
            "events.jsonl",
            "counters.csv",
            "breakdown.csv",
            "exposure.csv",
            "latency_hist.csv",
            "metrics.txt",
        ] {
            assert!(dir.join(f).is_file(), "missing bundle file {f}");
        }
        let metrics = std::fs::read_to_string(dir.join("metrics.txt")).unwrap();
        assert!(metrics.contains("[stalls]"));
        assert!(
            !metrics.contains("host_nanos") && !metrics.contains("per_second"),
            "metrics.txt must not carry host time:\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("content_hash = {:016x}", run.content_hash)),
            "metrics.txt must carry the run's content hash"
        );
        assert_ne!(run.content_hash, 0, "BFS run must hash its content");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_bundles_land_in_one_directory_per_distinct_run() {
        // `hiding_sweep` and the ablations make several runs under one
        // LATENCY_TRACE directory, some concurrently: each must get its own
        // subdirectory, and only identical simulations may share one.
        let exp = BfsExperiment {
            nodes: 128,
            degree: 4,
            seed: 7,
            block_dim: 64,
        };
        let mut small = GpuConfig::fermi_gf100();
        small.num_sms = 2;
        small.num_partitions = 2;
        let mut other = small.clone();
        other.dram.sched = gpu_mem::DramSched::Fcfs;

        let root = Path::new("trace-root");
        let dir_of = |cfg: &GpuConfig| {
            let run = run_bfs_traced(cfg.clone(), &exp).unwrap();
            let dir = TraceBundle::of(&run, cfg).env_dir(root);
            assert_eq!(dir, root.join(format!("{:016x}", run.content_hash)));
            dir
        };
        let (a, b) = (dir_of(&small), dir_of(&other));
        assert_ne!(a, b, "distinct simulations must not share a bundle");
        assert_eq!(a, dir_of(&small), "identical simulations share one");
    }

    #[test]
    fn sliced_l2_names_its_aggregated_queue_track() {
        // The modern sectored presets have a sliced L2: the depth counter
        // sums every slice's input queue, and the Perfetto track name must
        // say so instead of pretending the L2 has one monolithic queue.
        let modern = track_names_for(&latency_core::ArchPreset::VoltaGv100.config());
        assert!(
            modern
                .counters
                .iter()
                .any(|c| c == "L2 queue (l2-input x2 slices)"),
            "GV100 L2 queue track not slice-aware: {:?}",
            modern.counters
        );
        // Paper-era machines keep the legacy single-queue spelling.
        let legacy = track_names_for(&GpuConfig::fermi_gf100());
        assert!(
            legacy.counters.iter().any(|c| c == "L2 queue (l2-input)"),
            "GF100 L2 queue track changed spelling: {:?}",
            legacy.counters
        );
    }

    #[test]
    fn env_values_parse() {
        // No env mutation: exercise the match arms via the public type.
        assert!(!EnvTrace::Off.enabled());
        assert!(EnvTrace::Collect.enabled());
        assert!(EnvTrace::Bundle(PathBuf::from("x")).enabled());
    }
}
