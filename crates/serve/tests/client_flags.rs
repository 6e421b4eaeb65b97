//! `serve-client` builds its request lines through the JSON writer: string
//! flags arrive at the daemon escaped, numeric flags are parsed before
//! anything is sent, and only `--spec` passes text through untouched. The
//! client runs as a process against an in-process daemon.

use std::process::{Command, Output};

use gpu_serve::{ServerConfig, ServerHandle};
use gpu_trace::json::{parse, Value};

fn client(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve-client"))
        .args(["--connect", addr])
        .args(args)
        .output()
        .expect("run serve-client")
}

/// The one event line a one-shot command printed.
fn event(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    parse(text.trim()).unwrap_or_else(|e| panic!("stdout is not one JSON line ({e}): {text}"))
}

#[test]
fn flags_cannot_change_the_shape_of_the_request() {
    let state = std::env::temp_dir().join(format!("serve-client-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let cfg = ServerConfig {
        state_dir: state.clone(),
        workers: 1,
    };
    let daemon = ServerHandle::spawn(cfg, "127.0.0.1:0").expect("spawn daemon");
    let addr = daemon.addr.to_string();
    let sweep = ["--footprints", "2048", "--strides", "256"];

    // Strings are JSON-escaped: a control character or a quote in a preset
    // name reaches the daemon as that name (`{:?}` spelled it `\u{1}`,
    // which is not JSON, and the daemon answered `bad_json`).
    for preset in ["\u{1}", "a\"b\\c", "gf106\",\"microbench\":false,\"x\":\""] {
        let out = client(
            &addr,
            &[&["submit", "--preset", preset], &sweep[..]].concat(),
        );
        let v = event(&out);
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some("unknown_preset"),
            "{v:?}"
        );
        let message = v.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains(&format!("{preset:?}")), "{message}");
    }

    // Numbers and lists are parsed first: garbage is a usage error (exit 2,
    // nothing sent), not a field injected into the spec.
    let bfs = |nodes: &'static str| {
        let mut args = vec!["submit", "--preset", "gf106", "--workload", "bfs"];
        args.extend(["--nodes", nodes, "--degree", "4", "--block-dim", "32"]);
        args.extend(["--checkpoint-every", "1000"]);
        args
    };
    let injected = client(&addr, &bfs("1,\"x\":2"));
    assert_eq!(injected.status.code(), Some(2));
    assert!(injected.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&injected.stderr);
    assert!(stderr.contains("bad value for --nodes"), "{stderr}");
    let list = ["submit", "--preset", "gf106", "--strides", "256"];
    let bad_list = client(
        &addr,
        &[&list[..], &["--footprints", "2048],\"x\":[1"]].concat(),
    );
    assert_eq!(bad_list.status.code(), Some(2));
    assert!(bad_list.stdout.is_empty());

    // `--spec` stays a raw pass-through, so a deliberately malformed spec
    // still earns the daemon's own typed error.
    let raw = client(&addr, &["submit", "--spec", "{\"preset\":"]);
    assert_eq!(raw.status.code(), Some(1));
    assert_eq!(
        event(&raw).get("code").and_then(Value::as_str),
        Some("bad_json")
    );

    // And well-formed flags still run: a sweep to its result, a BFS accepted.
    let args = [
        &["submit", "--preset", "gf106"],
        &sweep[..],
        &["--watch", "--quiet"],
    ]
    .concat();
    let done = client(&addr, &args);
    assert_eq!(done.status.code(), Some(0));
    assert_eq!(
        event(&done).get("status").and_then(Value::as_str),
        Some("done")
    );
    let accepted = client(&addr, &bfs("64"));
    assert_eq!(accepted.status.code(), Some(0));
    assert_eq!(
        event(&accepted).get("event").and_then(Value::as_str),
        Some("accepted")
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}
