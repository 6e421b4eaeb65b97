//! The one argument layer behind the `latency`, `serve` and `serve-client`
//! executables: a flag [`Cursor`], the [`Shared`] flags every `latency`
//! subcommand accepts, the start-up environment check, and the single
//! usage-error exit path. Std only.
//!
//! Everything here returns [`UsageError`] instead of exiting, so the parsing
//! rules are unit-testable; a binary's `main` hands the error to
//! [`exit_usage`], the only place a bad command line ends the process.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use crate::parallel::{env_worker_count, parse_thread_count, ThreadCountError};
use crate::ArchPreset;

/// A command line this program cannot run; [`exit_usage`] turns it into
/// exit status 2. An empty message means the user asked for `--help`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl UsageError {
    /// A `--help` request: usage only, no complaint.
    pub fn help() -> Self {
        UsageError(String::new())
    }

    /// The error for a token no parser recognised.
    pub fn unknown(arg: &str) -> Self {
        UsageError(format!("unknown argument '{arg}'"))
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl From<ThreadCountError> for UsageError {
    fn from(e: ThreadCountError) -> Self {
        UsageError(e.to_string())
    }
}

/// Prints `err` (unless it is a bare `--help` request) and `usage` to
/// stderr, then exits with status 2.
pub fn exit_usage(err: &UsageError, usage: &str) -> ! {
    if !err.0.is_empty() {
        eprintln!("{err}");
    }
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// The run-time twin of [`exit_usage`]: unwraps `result`, or prints
/// `{what}: {error}` to stderr and exits with status 1.
pub fn or_exit<T, E: fmt::Display>(result: Result<T, E>, what: impl fmt::Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

/// `valid presets: gt200, gf106, …` — the one place the preset registry's
/// tokens reach an error message, so adding a generation updates the CLI
/// and the serve protocol at once.
pub fn valid_presets() -> String {
    format!("valid presets: {}", ArchPreset::valid_tokens())
}

/// Refuses a zero or garbled `LATENCY_THREADS`, which the forgiving
/// library reader would otherwise silently ignore. Binaries call this once
/// at start-up.
///
/// # Errors
///
/// The [`ThreadCountError`] of a set-but-invalid variable.
pub fn check_env() -> Result<(), UsageError> {
    env_worker_count()?;
    Ok(())
}

/// The flags every `latency` subcommand accepts, split off the command line
/// by [`Cursor::shared`] before dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shared {
    /// Every `--preset NAME`, in command-line order.
    pub presets: Vec<ArchPreset>,
    /// `--threads N`: measurement-pool workers.
    pub threads: Option<usize>,
    /// `--cache DIR`: content-addressed chase-measurement cache.
    pub cache: Option<PathBuf>,
}

impl Shared {
    /// Installs the process-wide settings (`--preset` stays with the
    /// subcommand, which knows what a preset means to it).
    pub fn apply(&self) {
        if let Some(n) = self.threads {
            crate::set_worker_count(n);
        }
        if let Some(dir) = &self.cache {
            crate::set_cache_dir(dir);
        }
    }
}

/// A forward-only cursor over command-line arguments.
#[derive(Debug)]
pub struct Cursor {
    args: std::vec::IntoIter<String>,
}

impl Cursor {
    /// A cursor over `args` (the program name already stripped).
    pub fn new(args: Vec<String>) -> Self {
        Cursor {
            args: args.into_iter(),
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// True when any remaining argument is `--help` or `-h`.
    pub fn wants_help(&self) -> bool {
        self.args
            .as_slice()
            .iter()
            .any(|a| a == "--help" || a == "-h")
    }

    /// The value following flag `name`.
    ///
    /// # Errors
    ///
    /// The command line ended after `name`.
    pub fn value(&mut self, name: &str) -> Result<String, UsageError> {
        self.args
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {name}")))
    }

    /// The value following flag `name`, parsed as `T`.
    ///
    /// # Errors
    ///
    /// The value is missing or does not parse.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<T, UsageError> {
        let raw = self.value(name)?;
        raw.parse()
            .map_err(|_| UsageError(format!("bad value for {name}: '{raw}'")))
    }

    /// The positive thread count following flag `name`.
    ///
    /// # Errors
    ///
    /// The value is missing, zero or not an unsigned integer.
    pub fn threads(&mut self, name: &'static str) -> Result<usize, UsageError> {
        let raw = self.value(name)?;
        Ok(parse_thread_count(&raw, name)?)
    }

    /// The architecture preset following flag `name`.
    ///
    /// # Errors
    ///
    /// The value is missing or names no registered preset; the message
    /// lists every valid token.
    pub fn preset(&mut self, name: &str) -> Result<ArchPreset, UsageError> {
        let raw = self.value(name)?;
        ArchPreset::parse(&raw)
            .ok_or_else(|| UsageError(format!("unknown preset: {raw} ({})", valid_presets())))
    }

    /// Splits the [`Shared`] flags off the remaining arguments; everything
    /// else stays on the cursor, in order, for the subcommand.
    ///
    /// # Errors
    ///
    /// A shared flag's value is missing or invalid.
    pub fn shared(&mut self) -> Result<Shared, UsageError> {
        let mut shared = Shared::default();
        let mut rest = Vec::new();
        while let Some(arg) = self.next_arg() {
            match arg.as_str() {
                "--preset" => shared.presets.push(self.preset("--preset")?),
                "--threads" => shared.threads = Some(self.threads("--threads")?),
                "--cache" => shared.cache = Some(PathBuf::from(self.value("--cache")?)),
                _ => rest.push(arg),
            }
        }
        self.args = rest.into_iter();
        Ok(shared)
    }

    /// Ends parsing for a subcommand that takes no further arguments.
    ///
    /// # Errors
    ///
    /// An argument is left over.
    pub fn finish(&mut self) -> Result<(), UsageError> {
        match self.next_arg() {
            Some(arg) => Err(UsageError::unknown(&arg)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(args: &[&str]) -> Cursor {
        Cursor::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_and_parsed_walk_the_arguments() {
        let mut c = cursor(&["--out", "dir", "--nodes", "512", "--json"]);
        assert_eq!(c.next_arg().as_deref(), Some("--out"));
        assert_eq!(c.value("--out"), Ok("dir".to_string()));
        assert_eq!(c.next_arg().as_deref(), Some("--nodes"));
        assert_eq!(c.parsed::<u32>("--nodes"), Ok(512));
        assert_eq!(c.next_arg().as_deref(), Some("--json"));
        assert_eq!(c.next_arg(), None);
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn missing_and_garbled_values_are_usage_errors() {
        let missing = cursor(&[]).value("--out").unwrap_err();
        assert_eq!(missing.to_string(), "missing value for --out");
        let garbled = cursor(&["many"]).parsed::<u32>("--nodes").unwrap_err();
        assert_eq!(garbled.to_string(), "bad value for --nodes: 'many'");
        assert_eq!(
            cursor(&["stray"]).finish(),
            Err(UsageError::unknown("stray"))
        );
    }

    #[test]
    fn thread_flags_reject_zero_and_garbled() {
        for flag in ["--threads", "--workers"] {
            assert_eq!(cursor(&["4"]).threads(flag), Ok(4));
            let zero = cursor(&["0"]).threads(flag).unwrap_err();
            assert_eq!(
                zero.to_string(),
                format!("{flag} must be a positive integer, got 0")
            );
            let garbled = cursor(&["lots"]).threads(flag).unwrap_err();
            assert_eq!(
                garbled.to_string(),
                format!("{flag} must be a positive integer, got 'lots'")
            );
            assert!(cursor(&[]).threads(flag).is_err());
        }
    }

    #[test]
    fn unknown_preset_lists_every_token() {
        assert_eq!(
            cursor(&["GK110"]).preset("--preset"),
            Ok(ArchPreset::KeplerGk110)
        );
        let err = cursor(&["h100"]).preset("--preset").unwrap_err().0;
        assert!(err.starts_with("unknown preset: h100"), "{err}");
        for preset in ArchPreset::ALL {
            assert!(err.contains(preset.token()), "{err}");
        }
    }

    #[test]
    fn shared_flags_split_off_in_any_position() {
        let mut c = cursor(&[
            "--json",
            "--preset",
            "gf100",
            "--threads",
            "3",
            "--out",
            "x",
            "--preset",
            "kepler",
            "--cache",
            "/tmp/c",
        ]);
        let shared = c.shared().expect("valid shared flags");
        assert_eq!(
            shared,
            Shared {
                presets: vec![ArchPreset::FermiGf100, ArchPreset::KeplerGk104],
                threads: Some(3),
                cache: Some(PathBuf::from("/tmp/c")),
            }
        );
        let rest: Vec<String> = std::iter::from_fn(|| c.next_arg()).collect();
        assert_eq!(rest, ["--json", "--out", "x"]);
    }

    #[test]
    fn shared_flags_fail_before_dispatch() {
        assert!(cursor(&["--threads", "0"]).shared().is_err());
        assert!(cursor(&["--json", "--cache"]).shared().is_err());
        assert!(cursor(&["--preset", "h100"]).shared().is_err());
    }

    #[test]
    fn help_is_seen_anywhere_and_prints_no_message() {
        assert!(cursor(&["--nodes", "4", "-h"]).wants_help());
        assert!(cursor(&["--help"]).wants_help());
        assert!(!cursor(&["--nodes", "4"]).wants_help());
    }
}
