//! The benchmark's own tracing: spans around its calls into each crate's
//! public functions, kept in memory during the traced pass and written at
//! exit as Chrome trace-event JSON (`trace-<workload>.json`, opens in
//! Perfetto next to the repo's own bundles).
//!
//! Per-layer host times are *not* kept in separate counters: the traced
//! pass re-parses the file it wrote with `gpu_trace::json` and computes each
//! span name's self time (duration minus the part its child spans cover)
//! from that, so the numbers and the artifact cannot disagree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gpu_sim::profile::{self, ProfSpan};
use gpu_trace::json::{self, Value};

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`; the part before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unique within the trace.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
    /// Round of the pass the span was recorded in.
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Recorder::begin`]; give it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Host nanoseconds the self-profiler has attributed so far to the run
/// loop, its drain check and the nine tick stages.
type SimClock = [u64; 11];

/// The self-profiler sites the benchmark turns into spans, with their span
/// names.
pub const SIM_SPANS: [(ProfSpan, &str); 11] = [
    (ProfSpan::Run, "sim.run"),
    (ProfSpan::DrainCheck, "sim.drain_check"),
    (ProfSpan::BeginNetworks, "sim.begin_networks"),
    (ProfSpan::TickPartitions, "sim.tick_partitions"),
    (ProfSpan::InjectReplies, "sim.inject_replies"),
    (ProfSpan::EjectRequests, "sim.eject_requests"),
    (ProfSpan::TickSms, "sim.tick_sms"),
    (ProfSpan::DispatchCtas, "sim.dispatch_ctas"),
    (ProfSpan::AuditInvariants, "sim.audit_invariants"),
    (ProfSpan::SampleCounters, "sim.sample_counters"),
    (ProfSpan::AdvanceClock, "sim.advance_clock"),
];

fn sim_clock() -> SimClock {
    let report = profile::report();
    SIM_SPANS.map(|(span, _)| report.span(span).nanos)
}

/// In-memory span recorder for one thread. Disabled (the untraced pass and
/// the untraced rounds of the traced pass) it records nothing and only
/// reads the clock.
pub struct Recorder {
    pub enabled: bool,
    /// Stamped on every span; the runner sets it before each round.
    pub round: u64,
    origin: Instant,
    /// High bits of every id this recorder hands out, so per-thread
    /// recorders merge without collisions.
    lane: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(origin: Instant, lane: u64) -> Self {
        Recorder {
            enabled: false,
            round: 0,
            origin,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A recorder for another thread of the same trace.
    pub fn fork(&self, lane: u64) -> Recorder {
        let mut r = Recorder::new(self.origin, lane);
        r.enabled = self.enabled;
        r.round = self.round;
        r
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        (self.lane << 40) | (self.spans.len() as u64 + 1)
    }

    /// Starts a new operation: spans begun from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        if !self.enabled {
            return Open {
                index: None,
                started,
            };
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns(started);
        self.spans.push(Span {
            name,
            id: self.next_id(),
            parent,
            op: (self.lane << 40) | self.op,
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
        Open {
            index: Some(self.spans.len() - 1),
            started,
        }
    }

    /// Closes `open` and returns its duration in seconds (measured whether
    /// or not the recorder is enabled).
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            self.spans[index].end_ns = self.now_ns(ended);
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Reads the self-profiler before a call into the simulator; pair with
    /// [`Recorder::sim_children`].
    pub fn sim_before(&self) -> Option<SimClock> {
        self.enabled.then(sim_clock)
    }

    /// Records what the self-profiler attributed to the simulator since
    /// `before` as child spans of the innermost open span: one `sim.run`
    /// for the run loop and, inside it, one span per tick stage and the
    /// drain check. The profiler only keeps totals, so the children are
    /// laid end to end from the parent's start — their durations are
    /// measured, their offsets are not.
    pub fn sim_children(&mut self, before: Option<SimClock>) {
        let (Some(before), Some(&parent)) = (before, self.stack.last()) else {
            return;
        };
        let after = sim_clock();
        let delta: Vec<u64> = after
            .iter()
            .zip(before)
            .map(|(a, b)| a.saturating_sub(b))
            .collect();
        let (parent_id, op, round, start) = {
            let p = &self.spans[parent];
            (p.id, p.op, p.round, p.start_ns)
        };
        let run_id = self.next_id();
        self.spans.push(Span {
            name: SIM_SPANS[0].1,
            id: run_id,
            parent: parent_id,
            op,
            round,
            start_ns: start,
            end_ns: start + delta[0],
        });
        let mut cursor = start;
        for (&(_, name), &nanos) in SIM_SPANS.iter().zip(&delta).skip(1) {
            self.spans.push(Span {
                name,
                id: self.next_id(),
                parent: run_id,
                op,
                round,
                start_ns: cursor,
                end_ns: cursor + nanos,
            });
            cursor += nanos;
        }
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.stack.is_empty(), "absorbing a recorder mid-span");
        self.spans.extend(other.spans);
    }

    /// Renders the spans as Chrome trace-event JSON: one complete (`X`)
    /// event per span with microsecond `ts`/`dur`, the layer as category,
    /// and `id`/`parent`/`op`/`round` under `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            out.push_str("{\"name\":");
            json::escape_into(&mut out, s.name);
            out.push_str(",\"cat\":");
            json::escape_into(&mut out, layer);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"round\":{}}}}}",
                s.id >> 40,
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.id,
                s.parent,
                s.op,
                s.round,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What the trace says about one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus children), seconds.
    pub self_s: f64,
}

struct Row {
    name: String,
    id: u64,
    parent: u64,
    round: u64,
    dur_s: f64,
}

/// A trace file read back with `gpu_trace::json`.
pub struct ParsedTrace {
    rows: Vec<Row>,
}

impl ParsedTrace {
    /// Parses Chrome trace JSON written by [`Recorder::chrome_json`].
    ///
    /// # Errors
    ///
    /// Returns the parser's message, or a description of the first event
    /// that lacks a field.
    pub fn parse(text: &str) -> Result<ParsedTrace, String> {
        let doc = json::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("trace lacks a traceEvents array")?;
        let mut rows = Vec::with_capacity(events.len());
        for e in events {
            let field = |obj: &Value, key: &str| {
                obj.get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("trace event lacks numeric {key:?}"))
            };
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("trace event lacks a name")?;
            let args = e.get("args").ok_or("trace event lacks args")?;
            rows.push(Row {
                name: name.to_string(),
                id: field(args, "id")? as u64,
                parent: field(args, "parent")? as u64,
                round: field(args, "round")? as u64,
                dur_s: field(e, "dur")? / 1e6,
            });
        }
        Ok(ParsedTrace { rows })
    }

    pub fn span_count(&self) -> usize {
        self.rows.len()
    }

    /// Count, duration and self time (duration minus the part child spans
    /// cover) per span name, over the spans of `round`.
    pub fn totals(&self, round: u64) -> BTreeMap<&str, NameTotals> {
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for row in self.rows.iter().filter(|r| r.parent != 0) {
            *child_time.entry(row.parent).or_default() += row.dur_s;
        }
        let mut totals: BTreeMap<&str, NameTotals> = BTreeMap::new();
        for row in self.rows.iter().filter(|r| r.round == round) {
            let t = totals.entry(&row.name).or_default();
            t.count += 1;
            t.total_s += row.dur_s;
            t.self_s += (row.dur_s - child_time.get(&row.id).copied().unwrap_or(0.0)).max(0.0);
        }
        totals
    }

    /// Durations (seconds) of every span called `name`, over all rounds, in
    /// file order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            round: if id == 5 { 3 } else { 1 },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        // In round 1: outer 0..1000 us with two sibling children (100 and
        // 300 us), one of which has its own child (50 us). In round 3: a
        // childless outer of 500 us.
        rec.spans = vec![
            span("a.outer", 1, 0, 0, 1_000_000),
            span("b.first", 2, 1, 0, 100_000),
            span("b.second", 3, 1, 100_000, 400_000),
            span("c.inner", 4, 3, 100_000, 150_000),
            span("a.outer", 5, 0, 2_000_000, 2_500_000),
        ];
        let trace = ParsedTrace::parse(&rec.chrome_json()).expect("own output parses");
        assert_eq!(trace.span_count(), 5);
        let first = trace.totals(1);
        let outer = first["a.outer"];
        assert_eq!(outer.count, 1);
        assert!((outer.total_s - 1e-3).abs() < 1e-12);
        // 1000 - (100 + 300): siblings both count, the grandchild does not.
        assert!((outer.self_s - 6e-4).abs() < 1e-12);
        assert!((first["b.first"].self_s - 1e-4).abs() < 1e-12);
        assert!((first["b.second"].self_s - 2.5e-4).abs() < 1e-12);
        assert!((first["c.inner"].self_s - 5e-5).abs() < 1e-12);
        let third = trace.totals(3);
        assert_eq!(third.len(), 1);
        assert!((third["a.outer"].self_s - 5e-4).abs() < 1e-12);
        assert!(trace.totals(2).is_empty());
        assert_eq!(trace.durations("a.outer"), vec![1e-3, 5e-4]);
    }

    #[test]
    fn begin_end_nest_and_share_the_op() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.enabled = true;
        rec.round = 4;
        rec.next_op();
        let outer = rec.begin("x.outer");
        let inner = rec.begin("y.inner");
        rec.end(inner);
        rec.end(outer);
        let s = &rec.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, s[0].id);
        assert_eq!(s[0].op, s[1].op);
        assert_eq!((s[0].round, s[1].round), (4, 4));
        assert_eq!(s[0].id >> 40, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let open = rec.begin("x.y");
        assert!(rec.end(open) >= 0.0);
        assert!(rec.spans.is_empty());
        assert!(rec.sim_before().is_none());
    }
}
