//! The `serve-client` bin: submit, status, cancel, watch, stats, shutdown.
//!
//! ```text
//! serve-client [--connect ADDR | --addr-file PATH] CMD ...
//!
//! CMDs:
//!   submit [--preset NAME | --arch-frame HEX] [--microbench BOOL]
//!          (--footprints A,B,.. --strides A,B,.. [--space global|local]
//!           | --workload bfs --nodes N --degree N [--seed N]
//!             --block-dim N --checkpoint-every N
//!           | --spec JSON)
//!          [--watch] [--quiet]
//!   status JOB          one-line state query
//!   watch JOB [--quiet] stream events until the terminal line
//!   cancel JOB
//!   stats
//!   shutdown
//! ```
//!
//! `--quiet` prints only the terminal line, which is what the CI smoke job
//! byte-diffs across two concurrent clients. Exit status: 0 when the
//! terminal event is a successful `result` (or the one-shot command
//! succeeded), 1 on `failed`/`cancelled`/`error`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

use gpu_serve::client::Client;
use gpu_serve::proto::{is_terminal_event, request_line, submit_line};
use gpu_trace::json::{parse, Value, Writer};
use latency_core::cli::{exit_usage, or_exit, Cursor, UsageError};

const USAGE: &str = "serve-client [--connect ADDR | --addr-file PATH] CMD ...\n\
     CMDs: submit | status JOB | watch JOB | cancel JOB | stats | shutdown\n\
     submit: [--preset NAME | --arch-frame HEX] [--microbench true|false]\n\
     \x20       --footprints A,B --strides A,B [--space global|local]\n\
     \x20       | --workload bfs --nodes N --degree N [--seed N] --block-dim N\n\
     \x20         --checkpoint-every N | --spec JSON\n\
     \x20       [--watch] [--quiet]";

enum Connect {
    Tcp(String),
    AddrFile(PathBuf),
}

fn connect(how: &Connect) -> Client {
    let result = match how {
        Connect::Tcp(addr) => Client::connect_tcp(addr),
        Connect::AddrFile(path) => Client::connect_addr_file(path),
    };
    or_exit(result, "serve-client: connect")
}

/// True when a terminal line reports success.
fn is_ok_terminal(line: &str) -> bool {
    match parse(line) {
        Ok(v) => {
            v.get("event").and_then(Value::as_str) == Some("result")
                && v.get("status").and_then(Value::as_str) == Some("done")
        }
        Err(_) => false,
    }
}

fn stream_to_stdout(client: &mut Client, first_request: &str, quiet: bool) -> ! {
    or_exit(client.send(first_request), "serve-client: send");
    loop {
        match or_exit(client.recv(), "serve-client: recv") {
            Some(line) => {
                let terminal = is_terminal_event(&line);
                if !quiet || terminal {
                    println!("{line}");
                }
                if terminal {
                    exit(if is_ok_terminal(&line) { 0 } else { 1 });
                }
            }
            None => {
                eprintln!("serve-client: daemon closed the stream early");
                exit(1);
            }
        }
    }
}

fn one_shot(client: &mut Client, request: &str) -> ! {
    let line = or_exit(client.request(request), "serve-client");
    println!("{line}");
    let failed = parse(&line)
        .ok()
        .and_then(|v| v.get("event").and_then(Value::as_str).map(str::to_string))
        == Some("error".to_string());
    exit(if failed { 1 } else { 0 });
}

/// A comma-separated `--footprints`/`--strides` list.
struct U64List(Vec<u64>);

impl FromStr for U64List {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.split(',')
            .map(|x| x.trim().parse())
            .collect::<Result<_, _>>()
            .map(U64List)
    }
}

#[derive(Default)]
struct SubmitFlags {
    preset: Option<String>,
    arch_frame: Option<String>,
    microbench: Option<bool>,
    footprints: Option<U64List>,
    strides: Option<U64List>,
    space: Option<String>,
    workload: Option<String>,
    nodes: Option<u64>,
    degree: Option<u64>,
    seed: Option<u64>,
    block_dim: Option<u64>,
    checkpoint_every: Option<u64>,
    spec: Option<String>,
    watch: bool,
    quiet: bool,
}

/// The spec object for the flags: strings escaped, numbers already parsed,
/// so no flag value can change the document's shape. `--spec` is the one
/// pass-through, for submitting deliberately malformed specs.
fn build_spec(f: &SubmitFlags) -> Result<String, UsageError> {
    if let Some(spec) = &f.spec {
        return Ok(spec.clone());
    }
    let mut w = Writer::compact();
    w.object();
    match (&f.preset, &f.arch_frame) {
        (Some(p), None) => w.field("preset", p),
        (None, Some(a)) => w.field("arch", a),
        _ => {
            return Err(UsageError(
                "submit wants exactly one of --preset / --arch-frame".into(),
            ))
        }
    };
    if let Some(m) = f.microbench {
        w.field("microbench", m);
    }
    match f.workload.as_deref() {
        None => {
            let (Some(footprints), Some(strides)) = (&f.footprints, &f.strides) else {
                return Err(UsageError(
                    "a sweep wants --footprints and --strides".into(),
                ));
            };
            w.key("sweep").object();
            w.field("footprints", &footprints.0[..]);
            w.field("strides", &strides.0[..]);
            if let Some(space) = &f.space {
                w.field("space", space);
            }
        }
        Some("bfs") => {
            let (Some(nodes), Some(degree), Some(block_dim), Some(every)) =
                (f.nodes, f.degree, f.block_dim, f.checkpoint_every)
            else {
                return Err(UsageError(
                    "bfs wants --nodes, --degree, --block-dim, --checkpoint-every".into(),
                ));
            };
            w.key("bfs").object();
            w.field("nodes", nodes).field("degree", degree);
            w.field("seed", f.seed.unwrap_or(0));
            w.field("block_dim", block_dim);
            w.field("checkpoint_every", every);
        }
        Some(other) => {
            return Err(UsageError(format!(
                "unknown workload {other:?} (only \"bfs\")"
            )))
        }
    }
    Ok(w.finish())
}

fn parse_submit(args: &mut Cursor) -> Result<SubmitFlags, UsageError> {
    let mut f = SubmitFlags::default();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--preset" => f.preset = Some(args.value("--preset")?),
            "--arch-frame" => f.arch_frame = Some(args.value("--arch-frame")?),
            "--microbench" => f.microbench = Some(args.parsed("--microbench")?),
            "--footprints" => f.footprints = Some(args.parsed("--footprints")?),
            "--strides" => f.strides = Some(args.parsed("--strides")?),
            "--space" => f.space = Some(args.value("--space")?),
            "--workload" => f.workload = Some(args.value("--workload")?),
            "--nodes" => f.nodes = Some(args.parsed("--nodes")?),
            "--degree" => f.degree = Some(args.parsed("--degree")?),
            "--seed" => f.seed = Some(args.parsed("--seed")?),
            "--block-dim" => f.block_dim = Some(args.parsed("--block-dim")?),
            "--checkpoint-every" => f.checkpoint_every = Some(args.parsed("--checkpoint-every")?),
            "--spec" => f.spec = Some(args.value("--spec")?),
            "--watch" => f.watch = true,
            "--quiet" => f.quiet = true,
            other => return Err(UsageError::unknown(other)),
        }
    }
    Ok(f)
}

/// Parses the command line and runs the command; every successful path
/// ends the process with the command's own exit status, so returning at
/// all means a usage error.
fn run(args: &mut Cursor) -> Result<(), UsageError> {
    if args.wants_help() {
        return Err(UsageError::help());
    }
    let mut connect_how = Connect::AddrFile(PathBuf::from("serve-state/serve.addr"));
    let cmd = loop {
        let arg = args.next_arg().ok_or_else(UsageError::help)?;
        match arg.as_str() {
            "--connect" => connect_how = Connect::Tcp(args.value("--connect")?),
            "--addr-file" => {
                connect_how = Connect::AddrFile(PathBuf::from(args.value("--addr-file")?));
            }
            _ => break arg,
        }
    };
    let job_request = |args: &mut Cursor| -> Result<String, UsageError> {
        let job = args.next_arg().ok_or_else(UsageError::help)?;
        Ok(request_line(&cmd, Some(&job)))
    };
    match cmd.as_str() {
        "submit" => {
            let f = parse_submit(args)?;
            let spec = build_spec(&f)?;
            let mut client = connect(&connect_how);
            let request = submit_line(&spec, f.watch);
            if f.watch {
                stream_to_stdout(&mut client, &request, f.quiet)
            } else {
                one_shot(&mut client, &request)
            }
        }
        "status" | "cancel" => {
            let request = job_request(args)?;
            args.finish()?;
            one_shot(&mut connect(&connect_how), &request)
        }
        "watch" => {
            let request = job_request(args)?;
            let quiet = match args.next_arg().as_deref() {
                None => false,
                Some("--quiet") => true,
                Some(other) => return Err(UsageError::unknown(other)),
            };
            stream_to_stdout(&mut connect(&connect_how), &request, quiet)
        }
        "stats" | "shutdown" => {
            args.finish()?;
            one_shot(&mut connect(&connect_how), &request_line(&cmd, None))
        }
        other => Err(UsageError::unknown(other)),
    }
}

fn main() {
    let mut args = Cursor::new(std::env::args().skip(1).collect());
    if let Err(e) = run(&mut args) {
        exit_usage(&e, USAGE);
    }
}
