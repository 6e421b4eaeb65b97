//! `latency` — the one executable of the workspace: every table, figure,
//! ablation and harness of the reproduction is a subcommand.
//!
//! ```text
//! latency <subcommand> [--preset NAME] [--threads N] [--cache DIR]
//!     [subcommand flags]
//! ```
//!
//! The shared flags are parsed once, here, by [`latency_core::cli`] — along
//! with the `LATENCY_THREADS` and `LATENCY_TRACE` start-up checks and the
//! `LATENCY_PROFILE` opt-in — before the subcommand's module sees what is
//! left. Every usage error, from any layer, leaves through one
//! [`exit_usage`] call with status 2.

#![forbid(unsafe_code)]

use latency_bench::{Experiment, Plan, EXPERIMENTS};
use latency_core::cli::{self, exit_usage, or_exit, print, Cursor, UsageError};
use latency_core::ArchPreset;

mod cmd {
    pub mod bench;
    pub mod lint;
    pub mod trace;
}
use cmd::*;

/// What a subcommand reads from the command line beyond the shared
/// `--threads` / `--cache`.
#[derive(Clone, Copy)]
enum Run {
    /// Nothing: one row of the experiment list.
    Experiment(&'static Experiment),
    /// Its own flags, on fixed machines.
    Flags(fn(&mut Cursor) -> Result<(), UsageError>),
    /// At most one `--preset` and its own flags.
    Preset(fn(Option<ArchPreset>, &mut Cursor) -> Result<(), UsageError>),
}

/// The tools: `(name, flag synopsis, entry point)`.
const SUBCOMMANDS: [(&str, &str, Run); 3] = [
    ("trace", trace::FLAGS, Run::Preset(trace::run)),
    ("lint", lint::FLAGS, Run::Flags(lint::run)),
    ("bench", bench::FLAGS, Run::Flags(bench::run)),
];

/// Every subcommand in the order `--help` lists them: the tools, then the
/// experiment list.
fn subcommands() -> impl Iterator<Item = (&'static str, &'static str, Run)> {
    let rows = EXPERIMENTS.iter().map(|e| (e.name, "", Run::Experiment(e)));
    SUBCOMMANDS.into_iter().chain(rows)
}

fn top_usage() -> String {
    let names: Vec<&str> = subcommands().map(|(name, ..)| name).collect();
    format!(
        "latency <subcommand> [--preset NAME] [--threads N] [--cache DIR] [subcommand flags]\n\
         subcommands: {}\n\
         {}\n\
         `latency <subcommand> --help` prints that subcommand's flags",
        names.join(" "),
        cli::valid_presets()
    )
}

fn dispatch(run: &Run, args: &mut Cursor) -> Result<(), UsageError> {
    if args.wants_help() {
        return Err(UsageError::help());
    }
    cli::check_env()?;
    latency_bench::env_bundle_root()?;
    let shared = args.shared()?;
    if !matches!(run, Run::Preset(_)) && shared.preset.is_some() {
        return Err(UsageError("this subcommand takes no --preset".into()));
    }
    shared.apply();
    // LATENCY_PROFILE=1 observes host time only; the simulated results are
    // bit-identical either way.
    if gpu_sim::profile::env_requested() {
        gpu_sim::profile::set_enabled(true);
    }
    match run {
        Run::Experiment(row) => {
            args.finish()?;
            let plan = Plan::paper([*row]);
            let records = or_exit(plan.execute(), format_args!("{} failed", row.name));
            let (records, _): (Vec<_>, Vec<_>) = records.into_iter().unzip();
            print(&plan.render(&records)[0].1);
            Ok(())
        }
        Run::Flags(f) => f(args),
        Run::Preset(f) => f(shared.preset, args),
    }
}

/// Prints the process's peak resident set (`VmHWM`, where the host has a
/// `/proc/self/status`) as `{prefix}host: peak RSS N MiB`: the last line
/// of `bench` and of `trace`.
fn print_peak_rss(prefix: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(mib) = peak_rss_kib(&status).map(|kib| (kib + 512) / 1024) {
        print(format_args!("{prefix}host: peak RSS {mib} MiB\n"));
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
fn peak_rss_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn main() {
    let mut args = Cursor::new(std::env::args().skip(1).collect());
    let Some(name) = args.next_arg().filter(|a| !a.starts_with('-')) else {
        // No subcommand: a bare `latency`, `--help`, or a stray flag.
        exit_usage(&UsageError::help(), &top_usage());
    };
    let Some((_, flags, run)) = subcommands().find(|(n, ..)| *n == name) else {
        let err = UsageError(format!("unknown subcommand '{name}'"));
        exit_usage(&err, &top_usage());
    };
    if let Err(err) = dispatch(&run, &mut args) {
        // `trace` lists the workload table's names in its synopsis.
        let names: Vec<&str> = latency_bench::Workload::all()
            .iter()
            .map(|w| w.name)
            .collect();
        let flags = flags.replace("{workloads}", &names.join("|"));
        exit_usage(&err, format!("latency {name} {flags}").trim_end());
    }
}
