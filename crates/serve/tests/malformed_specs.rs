//! Satellite: malformed job specs — garbage JSON, unknown commands, unknown
//! presets, corrupt `ArchDesc` frames, zero-point grids, and oversized
//! request lines — must each come back as a typed JSON error event, and none
//! of them may kill the daemon or its connection loop. The pin: after every
//! bad line on the *same* connection, a valid submit still runs to a result.

use std::io::Write;
use std::process::{Command, Stdio};

use gpu_trace::json::{parse, Value};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-malformed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn typed_errors_never_kill_the_session() {
    let state = tmp_dir("stdio");
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdio", "--state"])
        .arg(&state)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --stdio");

    let garbage_frame = "00112233445566778899aabbccddeeff";
    let oversized = format!("{{\"cmd\":\"submit\",\"pad\":\"{}\"}}", "x".repeat(2 << 20));
    let requests = [
        // (line, expected error code or "" for success)
        ("this is not json", "bad_json"),
        ("{\"no\":\"cmd\"}", "missing_cmd"),
        ("{\"cmd\":\"fly\"}", "unknown_cmd"),
        ("{\"cmd\":\"submit\"}", "missing_spec"),
        (
            "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"gtx9000\",\
             \"sweep\":{\"footprints\":[4096],\"strides\":[128]}}}",
            "unknown_preset",
        ),
        (
            "{\"cmd\":\"submit\",\"spec\":{\"arch\":\"zz\",\
             \"sweep\":{\"footprints\":[4096],\"strides\":[128]}}}",
            "bad_arch_frame",
        ),
        (
            // Valid hex, but the bytes are not an ArchDesc frame.
            "{\"cmd\":\"submit\",\"spec\":{\"arch\":\"GARBAGE\",\
             \"sweep\":{\"footprints\":[4096],\"strides\":[128]}}}",
            "bad_arch_frame",
        ),
        (
            // Every candidate point has a chain shorter than two elements.
            "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"gf106\",\
             \"sweep\":{\"footprints\":[1024],\"strides\":[2048]}}}",
            "empty_grid",
        ),
        (
            "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"gf106\",\
             \"sweep\":{\"footprints\":[4096],\"strides\":[100]}}}",
            "bad_field",
        ),
        (
            "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"gf106\",\
             \"bfs\":{\"nodes\":0,\"degree\":4,\"seed\":1,\"block_dim\":32,\
             \"checkpoint_every\":1000}}}",
            "bad_field",
        ),
        (
            // 2^53 + 1 would arrive as 2^53 and take that seed's job id.
            "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"gf106\",\
             \"bfs\":{\"nodes\":64,\"degree\":4,\"seed\":9007199254740993,\
             \"block_dim\":32,\"checkpoint_every\":1000}}}",
            "bad_field",
        ),
        (oversized.as_str(), "oversized_request"),
        ("{\"cmd\":\"status\",\"job\":\"nothex\"}", "bad_job_id"),
        (
            "{\"cmd\":\"status\",\"job\":\"0000000000000000\"}",
            "unknown_job",
        ),
    ];

    let mut stdin = child.stdin.take().unwrap();
    let mut input = String::new();
    for (line, _) in &requests {
        input.push_str(line.replace("GARBAGE", garbage_frame).as_str());
        input.push('\n');
    }
    // The survival pin: a real job after all that abuse, watched to its
    // terminal line.
    input.push_str(
        "{\"cmd\":\"submit\",\"watch\":true,\"spec\":{\"preset\":\"gf106\",\
         \"sweep\":{\"footprints\":[2048],\"strides\":[256]}}}\n",
    );
    // Writer thread: the oversized line is larger than any pipe buffer, so
    // feed the daemon concurrently with collecting its output.
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
        drop(stdin);
    });
    let out = child.wait_with_output().expect("serve exited");
    writer.join().unwrap();
    assert!(out.status.success(), "daemon died: {:?}", out.status);

    let lines: Vec<&str> = std::str::from_utf8(&out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    for (i, (request, code)) in requests.iter().enumerate() {
        let v = parse(lines[i]).unwrap_or_else(|e| panic!("line {i} not JSON ({e}): {}", lines[i]));
        assert_eq!(
            v.get("event").and_then(Value::as_str),
            Some("error"),
            "request {request:?} should error, got {}",
            lines[i]
        );
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some(*code),
            "request {request:?}"
        );
    }
    // After all the errors: accepted, then a done result.
    let tail = &lines[requests.len()..];
    let accepted = parse(tail[0]).unwrap();
    assert_eq!(
        accepted.get("event").and_then(Value::as_str),
        Some("accepted")
    );
    let last = parse(tail.last().unwrap()).unwrap();
    assert_eq!(last.get("event").and_then(Value::as_str), Some("result"));
    assert_eq!(last.get("status").and_then(Value::as_str), Some("done"));

    let _ = std::fs::remove_dir_all(&state);
}

/// Half a megabyte of `[` is a legal request line (under the 1 MiB cap)
/// that used to recurse the parser off the end of its thread's stack and
/// abort the whole daemon. It must be one more `bad_json`, and the same
/// connection must go on to answer `stats`.
#[test]
fn deep_nesting_is_bad_json_not_a_dead_daemon() {
    let state = tmp_dir("deep");
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdio", "--state"])
        .arg(&state)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --stdio");
    let mut stdin = child.stdin.take().unwrap();
    let input = format!("{}\n{{\"cmd\":\"stats\"}}\n", "[".repeat(512 << 10));
    let writer = std::thread::spawn(move || {
        stdin.write_all(input.as_bytes()).unwrap();
    });
    let out = child.wait_with_output().expect("serve exited");
    writer.join().unwrap();
    assert!(out.status.success(), "daemon died: {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<_> = text
        .lines()
        .map(|l| parse(l).expect("event is JSON"))
        .collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(
        lines[0].get("code").and_then(Value::as_str),
        Some("bad_json")
    );
    assert_eq!(lines[1].get("event").and_then(Value::as_str), Some("stats"));
    let _ = std::fs::remove_dir_all(&state);
}
