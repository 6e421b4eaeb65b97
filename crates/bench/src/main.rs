//! `latency` — the one executable of the workspace: every table, figure,
//! ablation and harness of the reproduction is a subcommand.
//!
//! ```text
//! latency <subcommand> [--preset NAME] [--threads N] [--cache DIR]
//!     [subcommand flags]
//! ```
//!
//! The shared flags are parsed once, here, by [`latency_core::cli`] — along
//! with the `LATENCY_THREADS` start-up check and the `LATENCY_PROFILE`
//! opt-in — before the subcommand's module sees what is left. Every usage
//! error, from any layer, leaves through one [`exit_usage`] call with
//! status 2.

#![forbid(unsafe_code)]

use latency_core::cli::{self, exit_usage, Cursor, UsageError};
use latency_core::ArchPreset;

mod cmd {
    pub mod arch_dynamic;
    pub mod bench;
    pub mod dram_sched_ablation;
    pub mod fig1;
    pub mod fig2;
    pub mod hiding_sweep;
    pub mod lint;
    pub mod loaded_latency;
    pub mod other_workloads;
    pub mod sweep;
    pub mod table1;
    pub mod trace;
    pub mod validate;
    pub mod write_policy_ablation;
}
use cmd::*;

/// What a subcommand reads from the command line beyond the shared
/// `--threads` / `--cache`.
enum Run {
    /// Nothing: one fixed experiment.
    Fixed(fn()),
    /// Its own flags, on fixed machines.
    Flags(fn(&mut Cursor) -> Result<(), UsageError>),
    /// `--preset` and its own flags.
    Presets(fn(&[ArchPreset], &mut Cursor) -> Result<(), UsageError>),
}

/// `(name, flag synopsis, entry point)`, in the order `--help` lists them.
const SUBCOMMANDS: [(&str, &str, Run); 14] = [
    ("table1", table1::FLAGS, Run::Presets(table1::run)),
    ("sweep", sweep::FLAGS, Run::Presets(sweep::run)),
    ("trace", trace::FLAGS, Run::Presets(trace::run)),
    ("validate", validate::FLAGS, Run::Presets(validate::run)),
    ("lint", lint::FLAGS, Run::Flags(lint::run)),
    ("bench", bench::FLAGS, Run::Flags(bench::run)),
    ("fig1", "", Run::Fixed(fig1::run)),
    ("fig2", "", Run::Fixed(fig2::run)),
    ("other_workloads", "", Run::Fixed(other_workloads::run)),
    (
        "dram_sched_ablation",
        "",
        Run::Fixed(dram_sched_ablation::run),
    ),
    ("hiding_sweep", "", Run::Fixed(hiding_sweep::run)),
    ("loaded_latency", "", Run::Fixed(loaded_latency::run)),
    (
        "write_policy_ablation",
        "",
        Run::Fixed(write_policy_ablation::run),
    ),
    ("arch_dynamic", "", Run::Fixed(arch_dynamic::run)),
];

fn top_usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, ..)| *name).collect();
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
    let shared = args.shared()?;
    if !matches!(run, Run::Presets(_)) && !shared.presets.is_empty() {
        return Err(UsageError("this subcommand takes no --preset".into()));
    }
    shared.apply();
    // LATENCY_PROFILE=1 observes host time only; the simulated results are
    // bit-identical either way.
    if gpu_sim::profile::env_requested() {
        gpu_sim::profile::set_enabled(true);
    }
    match run {
        Run::Fixed(f) => {
            args.finish()?;
            f();
            Ok(())
        }
        Run::Flags(f) => f(args),
        Run::Presets(f) => f(&shared.presets, args),
    }
}

fn main() {
    let mut args = Cursor::new(std::env::args().skip(1).collect());
    let Some(name) = args.next_arg().filter(|a| !a.starts_with('-')) else {
        // No subcommand: a bare `latency`, `--help`, or a stray flag.
        exit_usage(&UsageError::help(), &top_usage());
    };
    let Some((_, flags, run)) = SUBCOMMANDS.iter().find(|(n, ..)| *n == name) else {
        let err = UsageError(format!("unknown subcommand '{name}'"));
        exit_usage(&err, &top_usage());
    };
    if let Err(err) = dispatch(run, &mut args) {
        // `trace` lists the workload table's names in its synopsis.
        let names: Vec<&str> = latency_bench::Workload::all()
            .iter()
            .map(|w| w.name)
            .collect();
        let flags = flags.replace("{workloads}", &names.join("|"));
        exit_usage(&err, format!("latency {name} {flags}").trim_end());
    }
}
