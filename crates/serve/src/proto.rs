//! The newline-delimited JSON wire protocol.
//!
//! Requests are single JSON objects, one per line, with a `"cmd"` field:
//!
//! ```text
//! {"cmd":"submit","spec":{...},"watch":true}
//! {"cmd":"status","job":"00f3ab..."}
//! {"cmd":"watch","job":"00f3ab..."}
//! {"cmd":"cancel","job":"00f3ab..."}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses are JSONL events; each request yields at least one line, and
//! `submit`/`watch` with streaming enabled yields `progress` events followed
//! by exactly one terminal `result`/`cancelled` line. Errors are themselves
//! events (`{"event":"error","code":...,"message":...}`) and never tear down
//! the connection: the daemon keeps reading the next line.

use std::io::{BufRead, ErrorKind, Read};

use gpu_trace::json::{Raw, Value, Writer};

use crate::spec::{JobSpec, SpecError};

/// Hard cap on one request line. Anything longer is drained and answered
/// with a typed `oversized_request` error; the connection stays up.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; with `watch`, stream events until the terminal line.
    Submit {
        /// The validated job.
        spec: Box<JobSpec>,
        /// Stream progress + result instead of returning after `accepted`.
        watch: bool,
    },
    /// One-shot job state query.
    Status(u64),
    /// Attach to a job's event stream until it reaches a terminal state.
    Watch(u64),
    /// Cancel a queued or running job.
    Cancel(u64),
    /// Daemon-wide counters (dedup, execution, cache, recovery).
    Stats,
    /// Graceful shutdown of the daemon.
    Shutdown,
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line was not valid JSON.
    BadJson(String),
    /// No `"cmd"` string field.
    MissingCmd,
    /// `"cmd"` named no known command.
    UnknownCmd(String),
    /// `submit` without a `"spec"` object.
    MissingSpec,
    /// A job-addressed command without a valid 16-hex `"job"` id.
    BadJobId(String),
    /// The spec itself was malformed.
    Spec(SpecError),
    /// The line exceeded [`MAX_REQUEST_BYTES`].
    Oversized(usize),
}

impl RequestError {
    /// Stable machine-readable code for the JSON error event.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadJson(_) => "bad_json",
            RequestError::MissingCmd => "missing_cmd",
            RequestError::UnknownCmd(_) => "unknown_cmd",
            RequestError::MissingSpec => "missing_spec",
            RequestError::BadJobId(_) => "bad_job_id",
            RequestError::Spec(e) => e.code(),
            RequestError::Oversized(_) => "oversized_request",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadJson(e) => write!(f, "request is not valid JSON: {e}"),
            RequestError::MissingCmd => write!(f, "request needs a \"cmd\" string"),
            RequestError::UnknownCmd(c) => write!(f, "unknown cmd {c:?}"),
            RequestError::MissingSpec => write!(f, "submit needs a \"spec\" object"),
            RequestError::BadJobId(j) => write!(f, "bad job id {j:?} (want 16 hex digits)"),
            RequestError::Spec(e) => write!(f, "{e}"),
            RequestError::Oversized(n) => {
                write!(f, "request of {n}+ bytes exceeds limit {MAX_REQUEST_BYTES}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Renders a job id the way every event spells it.
pub fn format_job_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a job id as spelled by [`format_job_id`].
pub fn parse_job_id(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn job_field(obj: &Value) -> Result<u64, RequestError> {
    let raw = obj
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| RequestError::BadJobId("<missing>".to_string()))?;
    parse_job_id(raw).ok_or_else(|| RequestError::BadJobId(raw.to_string()))
}

/// Parses one request line.
///
/// # Errors
///
/// Every malformed line maps to a typed [`RequestError`]; the caller answers
/// with an error event and keeps the connection alive.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = gpu_trace::json::parse(line).map_err(RequestError::BadJson)?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or(RequestError::MissingCmd)?;
    match cmd {
        "submit" => {
            let spec_v = v.get("spec").ok_or(RequestError::MissingSpec)?;
            let spec = JobSpec::parse(spec_v).map_err(RequestError::Spec)?;
            let watch = matches!(v.get("watch"), Some(Value::Bool(true)));
            Ok(Request::Submit {
                spec: Box::new(spec),
                watch,
            })
        }
        "status" => Ok(Request::Status(job_field(&v)?)),
        "watch" => Ok(Request::Watch(job_field(&v)?)),
        "cancel" => Ok(Request::Cancel(job_field(&v)?)),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(RequestError::UnknownCmd(other.to_string())),
    }
}

/// Opens a wire line: `{<head>:<name>`, then `"job":<job>` when the line
/// is about one job.
fn open_line(head: &str, name: &str, job: Option<&str>) -> Writer {
    let mut w = Writer::compact();
    w.object().field(head, name);
    if let Some(job) = job {
        w.field("job", job);
    }
    w
}

/// Builds a `status`/`watch`/`cancel` (with `job`) or `stats`/`shutdown`
/// request line.
pub fn request_line(cmd: &str, job: Option<&str>) -> String {
    open_line("cmd", cmd, job).finish()
}

/// Builds a `submit` request line around the client's spec text, spliced
/// in verbatim: a deliberately malformed spec must reach the daemon as
/// typed, and earn its typed error there.
pub fn submit_line(spec_json: &str, watch: bool) -> String {
    let mut w = open_line("cmd", "submit", None);
    if watch {
        w.field("watch", true);
    }
    w.field("spec", Raw(spec_json));
    w.finish()
}

/// Opens an event line (`job` spelled by [`format_job_id`]); the caller adds
/// the event's own fields and finishes it.
pub(crate) fn event(name: &str, job: Option<u64>) -> Writer {
    open_line("event", name, job.map(format_job_id).as_deref())
}

/// Builds an `error` event line (no trailing newline).
pub fn error_event(code: &str, message: &str) -> String {
    let mut w = event("error", None);
    w.field("code", code).field("message", message);
    w.finish()
}

/// Builds the `accepted` event answering a submit.
pub fn accepted_event(job: u64, state: &str, total: usize, deduped: bool) -> String {
    let mut w = event("accepted", Some(job));
    w.field("state", state).field("points", total);
    w.field("deduped", deduped);
    w.finish()
}

/// Builds a `progress` event.
pub fn progress_event(job: u64, done: usize, total: usize) -> String {
    let mut w = event("progress", Some(job));
    w.field("done", done).field("total", total);
    w.finish()
}

/// Builds a `status` event.
pub fn status_event(job: u64, state: &str, done: usize, total: usize) -> String {
    let mut w = event("status", Some(job));
    w.field("state", state);
    w.field("done", done).field("total", total);
    w.finish()
}

/// Builds the terminal `cancelled` event.
pub fn cancelled_event(job: u64) -> String {
    event("cancelled", Some(job)).finish()
}

/// True when an event line ends a submit/watch stream: a terminal `result`
/// or `cancelled`, or an `error` (the request failed outright).
pub fn is_terminal_event(line: &str) -> bool {
    let Ok(v) = gpu_trace::json::parse(line) else {
        return true;
    };
    matches!(
        v.get("event").and_then(Value::as_str),
        Some("result") | Some("cancelled") | Some("error") | None
    )
}

/// Reads one `\n`-terminated line with a hard byte cap.
///
/// Returns `Ok(None)` on EOF. An overlong line is drained through its
/// newline and reported as `Some(Err(Oversized))`, so the caller can answer
/// with a typed error and keep serving the same connection.
///
/// # Errors
///
/// Only transport I/O failures propagate as `Err`.
pub fn read_line_capped<R: BufRead>(
    r: &mut R,
) -> std::io::Result<Option<Result<String, RequestError>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            if buf.is_empty() && !overflow {
                return Ok(None);
            }
            break;
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if !overflow {
            let room = MAX_REQUEST_BYTES.saturating_sub(buf.len());
            if take > room + 1 {
                overflow = true;
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        r.consume(take);
        if done {
            break;
        }
    }
    if overflow || buf.len() > MAX_REQUEST_BYTES {
        return Ok(Some(Err(RequestError::Oversized(MAX_REQUEST_BYTES))));
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Some(Ok(s))),
        Err(_) => Ok(Some(Err(RequestError::BadJson(
            "request is not UTF-8".to_string(),
        )))),
    }
}

/// Reads capped lines from a reader, skipping blank lines, until EOF.
pub struct LineReader<R: BufRead> {
    inner: R,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        LineReader { inner }
    }

    /// Next non-blank line (or oversize/encoding error), `None` at EOF.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors.
    pub fn next_line(&mut self) -> std::io::Result<Option<Result<String, RequestError>>> {
        loop {
            match read_line_capped(&mut self.inner)? {
                None => return Ok(None),
                Some(Ok(line)) if line.trim().is_empty() => continue,
                Some(other) => return Ok(Some(other)),
            }
        }
    }

    /// The wrapped reader (for handing the stream back).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// Marker impl so generic bounds can say "any bidirectional byte stream".
pub trait Transport: Read + std::io::Write {}
impl<T: Read + std::io::Write> Transport for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_submit_with_watch() {
        let req = parse_request(
            "{\"cmd\":\"submit\",\"watch\":true,\"spec\":{\"preset\":\"gf106\",\
             \"sweep\":{\"footprints\":[4096],\"strides\":[128]}}}",
        )
        .unwrap();
        match req {
            Request::Submit { watch, .. } => assert!(watch),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn request_errors_are_typed() {
        assert_eq!(parse_request("not json").unwrap_err().code(), "bad_json");
        assert_eq!(parse_request("{}").unwrap_err().code(), "missing_cmd");
        assert_eq!(
            parse_request("{\"cmd\":\"fly\"}").unwrap_err().code(),
            "unknown_cmd"
        );
        assert_eq!(
            parse_request("{\"cmd\":\"submit\"}").unwrap_err().code(),
            "missing_spec"
        );
        assert_eq!(
            parse_request("{\"cmd\":\"status\",\"job\":\"xyz\"}")
                .unwrap_err()
                .code(),
            "bad_job_id"
        );
        assert_eq!(
            parse_request(
                "{\"cmd\":\"submit\",\"spec\":{\"preset\":\"nope\",\
                 \"sweep\":{\"footprints\":[4096],\"strides\":[128]}}}"
            )
            .unwrap_err()
            .code(),
            "unknown_preset"
        );
    }

    #[test]
    fn job_id_roundtrip() {
        let id = 0x00ab_cdef_1234_5678u64;
        assert_eq!(parse_job_id(&format_job_id(id)), Some(id));
        assert_eq!(parse_job_id("123"), None);
    }

    /// The wire format is also the persisted one (`result.json` is a
    /// terminal event line): these bytes are those of every earlier build.
    #[test]
    fn event_and_request_lines_are_pinned_byte_for_byte() {
        let pins = [
            (
                error_event("bad_json", "oops \"quoted\"\n\u{1}"),
                r#"{"event":"error","code":"bad_json","message":"oops \"quoted\"\n\u0001"}"#,
            ),
            (
                accepted_event(0xab, "running", 10, false),
                r#"{"event":"accepted","job":"00000000000000ab","state":"running","points":10,"deduped":false}"#,
            ),
            (
                progress_event(0xab, 3, 10),
                r#"{"event":"progress","job":"00000000000000ab","done":3,"total":10}"#,
            ),
            (
                status_event(0xab, "done", 10, 10),
                r#"{"event":"status","job":"00000000000000ab","state":"done","done":10,"total":10}"#,
            ),
            (
                cancelled_event(0xab),
                r#"{"event":"cancelled","job":"00000000000000ab"}"#,
            ),
            (event("shutdown", None).finish(), r#"{"event":"shutdown"}"#),
            (request_line("stats", None), r#"{"cmd":"stats"}"#),
            (
                request_line("status", Some("a\"b")),
                r#"{"cmd":"status","job":"a\"b"}"#,
            ),
            (
                submit_line("{\"preset\":", false),
                r#"{"cmd":"submit","spec":{"preset":}"#,
            ),
            (
                submit_line("{}", true),
                r#"{"cmd":"submit","watch":true,"spec":{}}"#,
            ),
        ];
        for (line, want) in pins {
            assert_eq!(line, want);
        }
    }

    #[test]
    fn events_are_valid_json() {
        for line in [
            error_event("bad_json", "oops \"quoted\""),
            accepted_event(42, "queued", 10, false),
            progress_event(42, 3, 10),
            status_event(42, "running", 3, 10),
            cancelled_event(42),
        ] {
            let v = gpu_trace::json::parse(&line).unwrap();
            assert!(v.get("event").is_some(), "{line}");
        }
    }

    #[test]
    fn terminal_detection() {
        assert!(is_terminal_event(&cancelled_event(1)));
        assert!(is_terminal_event(&error_event("x", "y")));
        assert!(is_terminal_event("{\"event\":\"result\",\"job\":\"0\"}"));
        assert!(!is_terminal_event(&progress_event(1, 0, 1)));
        assert!(!is_terminal_event(&accepted_event(1, "queued", 1, false)));
    }

    #[test]
    fn oversized_line_is_drained_not_fatal() {
        let big = "x".repeat(MAX_REQUEST_BYTES + 100);
        let input = format!("{big}\n{{\"cmd\":\"stats\"}}\n");
        let mut r = LineReader::new(BufReader::new(input.as_bytes()));
        let first = r.next_line().unwrap().unwrap().unwrap_err();
        assert_eq!(first.code(), "oversized_request");
        // The connection survives: the next line parses normally.
        let second = r.next_line().unwrap().unwrap().unwrap();
        assert_eq!(parse_request(&second).unwrap(), Request::Stats);
        assert!(r.next_line().unwrap().is_none());
    }

    #[test]
    fn capped_reader_handles_eof_without_newline() {
        let mut r = BufReader::new("{\"cmd\":\"stats\"}".as_bytes());
        let line = read_line_capped(&mut r).unwrap().unwrap().unwrap();
        assert_eq!(line, "{\"cmd\":\"stats\"}");
        assert!(read_line_capped(&mut r).unwrap().is_none());
    }
}
