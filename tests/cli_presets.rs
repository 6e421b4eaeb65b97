//! The usage-error contract of the `latency` executable, as one table over
//! `(subcommand, args)`: every row must exit 2 — before simulating
//! anything — and name what was wrong on stderr. All rows go through the
//! one argument layer (`latency_core::cli`), so an unknown preset
//! enumerates every valid token ([`ArchPreset::valid_tokens`]) on every
//! subcommand, and adding a generation updates every error at once.

use std::process::Command;

use latency_core::ArchPreset;

/// Every subcommand: the names of the bins `latency` replaced, verbatim.
const SUBCOMMANDS: [&str; 14] = [
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
];

/// The subcommands that run on a caller-chosen machine.
const PRESET_SUBCOMMANDS: [&str; 4] = ["table1", "sweep", "trace", "validate"];

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

fn rejects_unknown_preset(subcommand: &str) {
    assert!(PRESET_SUBCOMMANDS.contains(&subcommand));
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
}

#[test]
fn validate_rejects_unknown_preset_and_lists_tokens() {
    rejects_unknown_preset("validate");
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
    // `tick` was a bin once; it is `bench --suites tick` now, not an alias.
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
    let rows: [(&[&str], &str); 14] = [
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
        (&["bench", "--suites", "tick,bogus"], "unknown suite: bogus"),
    ];
    for (args, message) in rows {
        let usage = format!("usage: latency {}", args[0]);
        assert_usage_error(args, &[], &[message, &usage]);
    }
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
