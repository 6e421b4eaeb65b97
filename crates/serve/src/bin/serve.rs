//! The `serve` daemon bin.
//!
//! ```text
//! serve [--listen ADDR] [--stdio] [--state DIR] [--workers N]
//! ```
//!
//! Defaults to TCP on `127.0.0.1:4780`; `--listen 127.0.0.1:0` picks an
//! ephemeral port. Either way the bound address is published to
//! `STATE/serve.addr` so clients and scripts can find it. `--stdio` serves
//! exactly one session over stdin/stdout (the mode the malformed-spec tests
//! drive).
//!
//! Boot order matters for crash recovery: the state tree is scanned and
//! unfinished jobs re-enqueued *before* the first connection is accepted,
//! so a client watching a job killed mid-flight reattaches to work that is
//! already running again.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use gpu_serve::server::{serve_session, Server, ServerConfig, ServerHandle};
use latency_core::cli::{self, exit_usage, or_exit, Cursor, UsageError};

struct Args {
    listen: String,
    stdio: bool,
    state: PathBuf,
    workers: usize,
}

const USAGE: &str = "serve [--listen ADDR] [--stdio] [--state DIR] [--workers N]";

fn parse_args(args: &mut Cursor) -> Result<Args, UsageError> {
    if args.wants_help() {
        return Err(UsageError::help());
    }
    // A garbled LATENCY_THREADS would silently fall back to a default;
    // refuse it up front like a bad flag.
    cli::check_env()?;
    let mut parsed = Args {
        listen: "127.0.0.1:4780".to_string(),
        stdio: false,
        state: PathBuf::from("serve-state"),
        workers: latency_core::worker_count(),
    };
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--listen" => parsed.listen = args.value("--listen")?,
            "--stdio" => parsed.stdio = true,
            "--state" => parsed.state = PathBuf::from(args.value("--state")?),
            "--workers" => parsed.workers = args.threads("--workers")?,
            other => return Err(UsageError::unknown(other)),
        }
    }
    Ok(parsed)
}

fn main() {
    let mut cursor = Cursor::new(std::env::args().skip(1).collect());
    let args = parse_args(&mut cursor).unwrap_or_else(|e| exit_usage(&e, USAGE));
    let cfg = ServerConfig {
        state_dir: args.state.clone(),
        workers: args.workers,
    };

    if args.stdio {
        let server = or_exit(
            Server::new(cfg),
            format_args!("serve: state dir {}", args.state.display()),
        );
        let recovered = server.recover();
        if recovered > 0 {
            eprintln!("serve: recovered {recovered} unfinished job(s)");
        }
        let workers = server.start_workers();
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = serve_session(&server, stdin.lock(), stdout.lock()) {
            eprintln!("serve: stdio session: {e}");
        }
        server.shutdown();
        for t in workers {
            let _ = t.join();
        }
        return;
    }

    // Remove any stale address file first: clients poll for it, and a
    // leftover from a killed daemon must not point them at a dead port.
    let _ = std::fs::remove_file(args.state.join("serve.addr"));
    let handle = or_exit(
        ServerHandle::spawn(cfg, &args.listen),
        format_args!("serve: binding {}", args.listen),
    );
    if handle.recovered > 0 {
        eprintln!("serve: recovered {} unfinished job(s)", handle.recovered);
    }
    eprintln!(
        "serve: listening on {} (state {})",
        handle.addr,
        args.state.display()
    );
    // Park until a client issues `shutdown`.
    let server = handle.server().clone();
    while !server.is_shutdown() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.shutdown();
}
