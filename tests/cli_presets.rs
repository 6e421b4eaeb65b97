//! The usage-error contract of the `latency` executable, as one table over
//! `(subcommand, args)`: every row must exit 2 — before simulating
//! anything — and name what was wrong on stderr. All rows go through the
//! one argument layer (`latency_core::cli`), so an unknown preset
//! enumerates every valid token ([`ArchPreset::valid_tokens`]) on every
//! subcommand, and adding a generation updates every error at once.

use std::process::{Command, Stdio};

use latency_core::ArchPreset;

/// Every subcommand: the names of the bins `latency` replaced, verbatim,
/// then the rows added to the experiment list since.
const SUBCOMMANDS: [&str; 15] = [
    "table1",
    "sweep",
    "trace",
    "validate",
    "lint",
    "bench",
    "fig1",
    "fig2",
    "other_workloads",
    "dram_sched_ablation",
    "hiding_sweep",
    "loaded_latency",
    "write_policy_ablation",
    "arch_dynamic",
    "static_vs_dynamic",
];

/// The subcommands that run on a caller-chosen machine.
const PRESET_SUBCOMMANDS: [&str; 1] = ["trace"];

/// Runs `latency args…` under `env` and asserts exit code 2 with every
/// needle on stderr.
fn assert_usage_error(args: &[&str], env: &[(&str, &str)], needles: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_latency"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn latency");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "latency {args:?} {env:?} should exit 2, stderr:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "latency {args:?} printed results before failing"
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "latency {args:?} {env:?} does not mention {needle:?}:\n{stderr}"
        );
    }
}

/// Every subcommand parses `--preset` before deciding whether it takes one.
fn rejects_unknown_preset(subcommand: &str) {
    let mut needles = vec!["unknown preset: h100"];
    needles.extend(ArchPreset::ALL.iter().map(|p| p.token()));
    assert_usage_error(&[subcommand, "--preset", "h100"], &[], &needles);
}

#[test]
fn trace_rejects_unknown_preset_and_lists_tokens() {
    rejects_unknown_preset("trace");
}

#[test]
fn table1_rejects_unknown_preset_and_lists_tokens() {
    rejects_unknown_preset("table1");
}

#[test]
fn sweep_rejects_unknown_preset_and_lists_tokens() {
    rejects_unknown_preset("sweep");
    // The preset is a flag like everywhere else, never a bare token.
    assert_usage_error(&["sweep", "gf106"], &[], &["unknown argument 'gf106'"]);
    // A row of the experiment list: every preset, no knobs.
    let usage = "usage: latency sweep";
    let no_preset = ["this subcommand takes no --preset", usage];
    assert_usage_error(&["sweep", "--preset", "gf106"], &[], &no_preset);
    let no_json = ["unknown argument '--json'", usage];
    assert_usage_error(&["sweep", "--json"], &[], &no_json);
}

#[test]
fn validate_rejects_unknown_preset_and_lists_tokens() {
    rejects_unknown_preset("validate");
}

#[test]
fn a_repeated_preset_is_a_usage_error() {
    for sub in PRESET_SUBCOMMANDS {
        let args = [sub, "--preset", "gt200", "--preset", "gm107"];
        assert_usage_error(&args, &[], &["--preset given more than once"]);
    }
}

#[test]
fn fixed_machine_subcommands_take_no_preset() {
    for sub in SUBCOMMANDS {
        if !PRESET_SUBCOMMANDS.contains(&sub) {
            assert_usage_error(&[sub, "--preset", "gf100"], &[], &["takes no --preset"]);
        }
    }
}

#[test]
fn unknown_subcommand_lists_every_subcommand() {
    // `tick` was a bin once, then a bench suite; it is neither now, and
    // not an alias.
    let mut needles = vec!["unknown subcommand"];
    needles.extend(SUBCOMMANDS);
    for bogus in ["tick", "table2"] {
        assert_usage_error(&[bogus], &[], &needles);
    }
}

#[test]
fn help_prints_usage_and_exits_2() {
    let mut needles = vec!["usage: latency <subcommand>"];
    needles.extend(SUBCOMMANDS);
    let tops: [&[&str]; 3] = [&[], &["--help"], &["-h"]];
    for top in tops {
        assert_usage_error(top, &[], &needles);
    }
    for sub in SUBCOMMANDS {
        let usage = format!("usage: latency {sub}");
        assert_usage_error(&[sub, "--help"], &[], &[&usage]);
        assert_usage_error(&[sub, "--out", "x", "-h"], &[], &[&usage]);
    }
}

#[test]
fn shared_flags_are_validated_on_every_subcommand() {
    let rows: [(&[&str], &str); 6] = [
        (
            &["--threads", "0"],
            "--threads must be a positive integer, got 0",
        ),
        (
            &["--threads", "lots"],
            "--threads must be a positive integer, got 'lots'",
        ),
        // The parallel tick executor and its flag are gone, not deprecated.
        (
            &["--tick-threads", "2"],
            "unknown argument '--tick-threads'",
        ),
        (&["--threads"], "missing value for --threads"),
        (&["--cache"], "missing value for --cache"),
        (&["--preset"], "missing value for --preset"),
    ];
    for sub in SUBCOMMANDS {
        let usage = format!("usage: latency {sub}");
        for (flags, message) in rows {
            let args: Vec<&str> = std::iter::once(sub).chain(flags.iter().copied()).collect();
            assert_usage_error(&args, &[], &[message, &usage]);
        }
    }
}

#[test]
fn thread_environment_is_validated_at_startup() {
    let rows = [
        (
            "LATENCY_THREADS",
            "0",
            "LATENCY_THREADS must be a positive integer, got 0",
        ),
        (
            "LATENCY_THREADS",
            "lots",
            "LATENCY_THREADS must be a positive integer, got 'lots'",
        ),
    ];
    for sub in SUBCOMMANDS {
        for (var, value, message) in rows {
            assert_usage_error(&[sub], &[(var, value)], &[message]);
        }
    }
}

/// `--tick-threads` and `LATENCY_TICK_THREADS` went with the parallel tick
/// executor: the flag is an unknown argument to `serve` as it is to every
/// `latency` subcommand (row above), no usage text offers it, and the
/// variable is read by nothing — a value that used to refuse start-up no
/// longer does.
#[test]
fn tick_threads_flag_and_variable_are_gone() {
    let latency = env!("CARGO_BIN_EXE_latency");
    // `serve` lands beside `latency` (a workspace `cargo test` builds both
    // before running either package's tests).
    let serve = std::path::Path::new(latency).with_file_name("serve");
    let out = Command::new(&serve)
        .args(["--tick-threads", "2"])
        .output()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", serve.display()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument '--tick-threads'"),
        "{stderr}"
    );

    let mut helps = vec![
        (serve.as_path(), vec!["--help"]),
        (latency.as_ref(), vec![]),
    ];
    helps.extend(SUBCOMMANDS.map(|sub| (latency.as_ref(), vec![sub, "--help"])));
    for (exe, args) in helps {
        let out = Command::new(exe).args(&args).output().expect("spawn");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.contains("usage: "), "{args:?}: {usage}");
        assert!(!usage.contains("tick-threads"), "{args:?}: {usage}");
    }

    let out = Command::new(latency)
        .args(["lint", "--deny", "all"])
        .env("LATENCY_TICK_THREADS", "0")
        .output()
        .expect("spawn latency");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn subcommand_flags_are_validated_before_running() {
    let positive = "--nodes, --degree and --block-dim must be positive";
    let rows: [(&[&str], &str); 15] = [
        (&["table1", "--json"], "unknown argument '--json'"),
        (&["fig1", "extra"], "unknown argument 'extra'"),
        (
            &["sweep", "--bench-out", "f"],
            "unknown argument '--bench-out'",
        ),
        (
            &["trace", "--nodes", "many"],
            "bad value for --nodes: 'many'",
        ),
        // Each of these reached a panic (exit 101, backtrace) in the graph
        // builder, the launch or `Gpu::new` before it was checked here.
        (&["trace", "--nodes", "0"], positive),
        (&["trace", "--degree", "0"], positive),
        (&["trace", "--block-dim", "0"], positive),
        (&["trace", "--sms", "0"], "need at least one SM"),
        (
            &["trace", "--partitions", "0"],
            "need at least one partition",
        ),
        (&["trace", "--out"], "missing value for --out"),
        (&["trace", "--workload", "nbody"], "unknown workload: nbody"),
        (
            &["trace", "--workload", "vecadd", "--kill-at", "5"],
            "only supported for --workload bfs",
        ),
        (&["lint", "--deny", "nonsense"], "unknown lint 'nonsense'"),
        // The contracts are checked on the experiment list's own runs
        // (`latency static_vs_dynamic`); lint runs no simulation.
        (&["lint", "--validate"], "unknown argument '--validate'"),
        // One pin check: the experiment list; the serve daemon's cold and
        // warm race is a test of gpu-serve.
        (
            &["bench", "--suites", "experiments"],
            "unknown argument '--suites'",
        ),
    ];
    for (args, message) in rows {
        let usage = format!("usage: latency {}", args[0]);
        assert_usage_error(args, &[], &[message, &usage]);
    }
}

/// A run-time failure, unlike a usage error, exits 1 through `or_exit`.
#[test]
fn a_failed_sarif_write_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_latency"))
        .args(["lint", "--sarif", "/nonexistent-dir/x.sarif"])
        .output()
        .expect("spawn latency");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write SARIF to '/nonexistent-dir/x.sarif': "),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// A reader that closes the pipe early (`latency table1 | head -n 1`) ends
/// the output: the process exits 0 quietly instead of panicking on the
/// broken pipe.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let out_dir = std::env::temp_dir().join(format!("latency-pipe-{}", std::process::id()));
    let out = out_dir.to_str().expect("utf-8 temp dir");
    let trace = [
        "trace",
        "--sms",
        "2",
        "--workload",
        "bfs",
        "--nodes",
        "128",
        "--out",
        out,
    ];
    for args in [&trace[..], &["table1"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_latency"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn latency");
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("wait for latency");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(0), "latency {args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "latency {args:?}:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn every_valid_token_parses_in_every_spelling() {
    // The tokens the errors advertise must actually round-trip through the
    // same parser the binary uses, in any case.
    for preset in ArchPreset::ALL {
        let token = preset.token();
        assert_eq!(ArchPreset::parse(token), Some(preset), "{token}");
        assert_eq!(
            ArchPreset::parse(&token.to_ascii_uppercase()),
            Some(preset),
            "{token}"
        );
    }
}
