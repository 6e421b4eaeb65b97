//! Chrome trace-event JSON export (Perfetto-loadable).
//!
//! The bundle's `trace.json` uses the legacy Chrome trace-event format,
//! which Perfetto's UI imports directly:
//!
//! * process 1 holds one thread ("track") per SM, process 2 one per memory
//!   partition, process 3 the whole-GPU counters;
//! * every traced request becomes one *nestable async* span (`ph` `b`/`e`,
//!   keyed by `cat`+`id`) on its SM's track — a retired store or writeback
//!   on its partition's — with one nested child slice per stage of
//!   `Timeline::stages`, named from `Stamp::stage_label` — the child
//!   durations tile the parent exactly, reproducing the Figure-1 stage
//!   decomposition per request, with Fetch2SM in its parts;
//! * a stall interval becomes one complete `ph` `"X"` slice on its SM's
//!   track, spanning the cycles it covers; every other [`TraceEvent`]
//!   becomes a thread-scoped instant (`ph` `"i"`);
//! * counter samples become `ph` `"C"` counter tracks;
//! * process 4 (present only when [`ChromeTraceBuilder::add_host_profile`]
//!   is called) carries the *host-clock* self-profile: complete `ph` `"X"`
//!   slices laying the span-total tree out as a flame view.
//!
//! Timestamps on the simulated processes are cycles written as integer `ts`
//! values (Perfetto displays them as microseconds; the scale is irrelevant
//! for inspection). The host process uses real microseconds — the two clock
//! domains share a file but never a track.
//!
//! Track display names come from [`TrackNames`]; bundle writers derive them
//! from the machine's `ArchDesc` so the UI reads in the description's own
//! vocabulary rather than hard-coded strings.

use std::collections::BTreeMap;
use std::io::BufRead;

use gpu_mem::{Stamp, Timeline};

use crate::event::{EventKind, TraceEvent, TraceSite};
use crate::json::{self, Value, Writer};
use crate::profile::{ProfSpan, ProfileReport};
use crate::tracer::{CounterKind, CounterSample};

const PID_SMS: u32 = 1;
const PID_PARTITIONS: u32 = 2;
const PID_GPU: u32 = 3;
const PID_HOST: u32 = 4;

/// Display names for the Perfetto track hierarchy. The default reproduces
/// the builder's historical hard-coded strings; bundle writers derive an
/// instance from the machine's `ArchDesc` (process names carry the
/// description's display name, counter tracks its level/queue labels) so
/// every generation's trace reads in its own vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackNames {
    /// Process-name for the per-SM track group.
    pub sms_process: String,
    /// Process-name for the per-partition track group.
    pub partitions_process: String,
    /// Process-name for the whole-GPU counter/instant track group.
    pub gpu_process: String,
    /// Process-name for the host-clock self-profile track group.
    pub host_process: String,
    /// Per-SM thread names are `"{sm_prefix} {i}"`.
    pub sm_prefix: String,
    /// Per-partition thread names are `"{partition_prefix} {i}"`.
    pub partition_prefix: String,
    /// Display names for the sampled-counter tracks, indexed by
    /// [`CounterKind::index`].
    pub counters: [String; CounterKind::COUNT],
}

impl Default for TrackNames {
    fn default() -> Self {
        TrackNames {
            sms_process: "SMs".to_string(),
            partitions_process: "Memory partitions".to_string(),
            gpu_process: "GPU".to_string(),
            host_process: "Host self-profile".to_string(),
            sm_prefix: "SM".to_string(),
            partition_prefix: "Partition".to_string(),
            counters: CounterKind::ALL.map(|k| k.name().to_string()),
        }
    }
}

fn site_coords(site: TraceSite) -> (u32, u32) {
    match site {
        TraceSite::Sm(i) => (PID_SMS, i),
        TraceSite::Partition(i) => (PID_PARTITIONS, i),
        TraceSite::Gpu => (PID_GPU, 0),
    }
}

/// Opens the next event object with the two members every kind but
/// metadata leads with.
fn begin<'w>(w: &'w mut Writer, cat: &str, ph: &str) -> &'w mut Writer {
    w.object().field("cat", cat).field("ph", ph)
}

/// One `ph` `"M"` metadata event naming a process (`tid` `None`) or thread.
fn metadata(w: &mut Writer, pid: u32, tid: Option<u32>, what: &str, name: &str) {
    w.object().field("ph", "M").field("name", what);
    w.field("pid", pid);
    if let Some(tid) = tid {
        w.field("tid", tid);
    }
    w.key("args").object().field("name", name).end().end();
}

/// One edge (`ph` `b`/`e`) of request `id`'s nestable async span `name`
/// on track `(pid, tid)`.
fn async_edge(w: &mut Writer, ph: &str, (pid, tid): (u32, u32), id: u64, name: &str, ts: u64) {
    begin(w, "request", ph).field("id", id).field("name", name);
    w.field("pid", pid).field("tid", tid);
    w.field("ts", ts).end();
}

/// One `ph` `"C"` counter event on thread 0 of `pid`.
fn counter(w: &mut Writer, cat: &str, name: &str, pid: u32, ts: u64, value: u64) {
    begin(w, cat, "C").field("name", name).field("pid", pid);
    w.field("tid", 0u32).field("ts", ts);
    w.key("args").object().field("value", value).end().end();
}

/// Incrementally builds a Chrome trace-event document.
#[derive(Debug)]
pub struct ChromeTraceBuilder {
    w: Writer,
    track_names: TrackNames,
}

impl ChromeTraceBuilder {
    /// Starts a trace document with name metadata for `num_sms` SM tracks
    /// and `num_partitions` partition tracks, using the default track names.
    pub fn new(num_sms: u32, num_partitions: u32) -> Self {
        ChromeTraceBuilder::with_names(num_sms, num_partitions, TrackNames::default())
    }

    /// Starts a trace document whose process/thread/counter tracks carry
    /// the given display names (typically derived from an `ArchDesc`).
    pub fn with_names(num_sms: u32, num_partitions: u32, names: TrackNames) -> Self {
        let mut w = Writer::rows();
        w.object().key("traceEvents").array();
        metadata(&mut w, PID_SMS, None, "process_name", &names.sms_process);
        let partitions = &names.partitions_process;
        metadata(&mut w, PID_PARTITIONS, None, "process_name", partitions);
        metadata(&mut w, PID_GPU, None, "process_name", &names.gpu_process);
        metadata(&mut w, PID_GPU, Some(0), "thread_name", "cycle loop");
        for i in 0..num_sms {
            let name = format!("{} {i}", names.sm_prefix);
            metadata(&mut w, PID_SMS, Some(i), "thread_name", &name);
        }
        for i in 0..num_partitions {
            let name = format!("{} {i}", names.partition_prefix);
            metadata(&mut w, PID_PARTITIONS, Some(i), "thread_name", &name);
        }
        ChromeTraceBuilder {
            w,
            track_names: names,
        }
    }

    /// Adds one traced request as a nestable async span on `site`'s track
    /// (its SM's for a load, its partition's for a retired write): an outer
    /// `req{id}` slice from issue to [`Timeline::end`], with one child slice
    /// per stage of [`Timeline::stages`]. A timeline with nothing stamped
    /// after issue is skipped.
    pub fn add_request_span(&mut self, site: TraceSite, id: u64, timeline: &Timeline) {
        let (Some(stages), Some(issue), Some(last)) = (
            timeline.stages(),
            timeline.get(Stamp::Issue),
            timeline.end(),
        ) else {
            return;
        };
        let (w, outer, track) = (&mut self.w, format!("req{id}"), site_coords(site));
        async_edge(w, "b", track, id, &outer, issue.get());
        for (stamp, start, end) in stages {
            let label = stamp.stage_label().expect("a stage ends after Issue");
            async_edge(w, "b", track, id, label, start.get());
            async_edge(w, "e", track, id, label, end.get());
        }
        async_edge(w, "e", track, id, &outer, last.get());
    }

    /// Adds one event on its site's track, with the payload spelled out in
    /// `args`: a stall interval as a complete slice over the cycles it
    /// covers (`cycle - cycles .. cycle`), anything else as a
    /// thread-scoped instant.
    pub fn add_event(&mut self, event: &TraceEvent) {
        let (pid, tid) = site_coords(event.site);
        let w = match event.kind {
            EventKind::Stall { cycles, .. } => {
                let w = begin(&mut self.w, "event", "X").field("name", event.kind.name());
                w.field("pid", pid).field("tid", tid);
                w.field("ts", event.cycle.saturating_sub(cycles))
                    .field("dur", cycles)
            }
            _ => {
                let w = begin(&mut self.w, "event", "i").field("s", "t");
                w.field("name", event.kind.name());
                w.field("pid", pid).field("tid", tid);
                w.field("ts", event.cycle)
            }
        };
        event.kind.write_fields(w.key("args").object());
        w.end().end();
    }

    /// Adds one counter sample as `ph` `"C"` counter events on the GPU
    /// process (one per counter kind, so each gets its own Perfetto track,
    /// named from the builder's [`TrackNames`]).
    pub fn add_counter_sample(&mut self, sample: &CounterSample) {
        for kind in CounterKind::ALL {
            let name = &self.track_names.counters[kind.index()];
            let value = sample.values[kind.index()];
            counter(&mut self.w, "counter", name, PID_GPU, sample.cycle, value);
        }
    }

    /// Merges a host-clock self-profile into the document on its own
    /// process (pid 4, named from [`TrackNames::host_process`]): one
    /// complete `ph` `"X"` slice per entered span, laid out in
    /// attribution-tree order (children tile from their parent's start, one
    /// thread per tree depth) so the process reads as a flame view of where
    /// host time went.
    ///
    /// Timestamps here are host *microseconds*; the simulated processes use
    /// cycles. They share the file, never a track.
    pub fn add_host_profile(&mut self, report: &ProfileReport) {
        let w = &mut self.w;
        let host_process = &self.track_names.host_process;
        metadata(w, PID_HOST, None, "process_name", host_process);
        metadata(w, PID_HOST, Some(0), "thread_name", "span totals");
        metadata(
            w,
            PID_HOST,
            Some(1),
            "thread_name",
            "span totals (children)",
        );
        let grandchildren = "span totals (grandchildren)";
        metadata(w, PID_HOST, Some(2), "thread_name", grandchildren);

        // Flame layout: roots tile [0, ..) in table order; every child
        // tiles from its parent's start. A slice sits on the thread for its
        // tree depth.
        let mut cursor = [0u64; ProfSpan::COUNT];
        let mut next_root = 0u64;
        for s in ProfSpan::ALL {
            let stat = report.span(s);
            let at = match s.parent() {
                None => {
                    let at = next_root;
                    next_root += stat.nanos;
                    at
                }
                Some(p) => {
                    let at = cursor[p.index()];
                    cursor[p.index()] += stat.nanos;
                    at
                }
            };
            cursor[s.index()] = at;
            if stat.count == 0 {
                continue;
            }
            let path = s.path();
            begin(w, "host", "X").field("name", &path);
            w.field("pid", PID_HOST);
            w.field("tid", path.matches('/').count());
            w.field("ts", at / 1_000).field("dur", stat.nanos / 1_000);
            w.key("args").object().field("count", stat.count);
            w.field("nanos", stat.nanos).end().end();
        }
    }

    /// Writes the rows added since the last call to `out`, so a large
    /// document streams instead of being held whole; [`finish`] then
    /// returns only what follows them.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s write error.
    ///
    /// [`finish`]: ChromeTraceBuilder::finish
    pub fn write_rows(&mut self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        self.w.drain_into(out)
    }

    /// Serialises the document in the rows layout [`check_span_sums`]
    /// reads: the line `{"traceEvents":[`, one event per line, `]}` — or,
    /// after [`ChromeTraceBuilder::write_rows`], the rest of it.
    pub fn finish(self) -> String {
        self.w.finish()
    }
}

/// Validates the request spans of a Chrome trace in the rows layout
/// [`ChromeTraceBuilder::finish`] writes, one row at a time (it holds the
/// open spans and a sum per request, never the document): for every async
/// span pair (`ph` `b`/`e`, `cat` `"request"`), the child stage durations
/// must sum exactly to the outer `req{id}` span's duration — the same
/// stage-sum invariant the simulator's sanitizer enforces on timelines.
///
/// Returns the number of verified request spans, or a description of the
/// first violation; a row that does not parse or breaks the framing (a
/// comma after every row but the last) is named by its line.
pub fn check_span_sums(trace: impl BufRead) -> Result<u64, String> {
    let mut lines = trace.lines();
    if !matches!(lines.next(), Some(Ok(first)) if first == r#"{"traceEvents":["#) {
        return Err("missing traceEvents array".into());
    }
    // (id, name) -> begin ts; spans never repeat a (id, stage) pair because
    // timelines stamp each point once. Ends pair with their begin via the
    // map, and closed spans fold straight into a per-id (outer duration,
    // stage sum) accumulator.
    let mut begins: BTreeMap<(u64, String), u64> = BTreeMap::new();
    let mut per_id: BTreeMap<u64, (Option<u64>, u64)> = BTreeMap::new();
    // Whether the row before ended in a comma (`None` before the first),
    // and whether `]}` was read.
    let (mut comma, mut closed) = (None, false);
    for (line, at) in lines.zip(2..) {
        let line = line.map_err(|e| format!("line {at}: {e}"))?;
        if closed {
            return Err(format!("line {at}: text after the closing `]}}`"));
        } else if line == "]}" && comma != Some(true) {
            closed = true;
            continue;
        } else if comma == Some(false) {
            let prev = at - 1;
            return Err(format!(
                "line {at}: a row after the last (line {prev} lacks its comma)"
            ));
        }
        let row = line.strip_suffix(',');
        comma = Some(row.is_some());
        let ev = json::parse(row.unwrap_or(&line)).map_err(|e| format!("line {at}: {e}"))?;
        if ev.get("cat").and_then(Value::as_str) != Some("request") {
            continue;
        }
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let missing = |key| format!("request event without {key}");
        let num = |key| {
            ev.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| missing(key))
        };
        let id = num("id")? as u64;
        let name = ev.get("name").and_then(Value::as_str);
        let name = name.ok_or_else(|| missing("name"))?.to_string();
        let ts = num("ts")? as u64;
        match ph {
            "b" => {
                begins.insert((id, name), ts);
            }
            "e" => {
                let key = (id, name);
                let begin_ts = begins
                    .remove(&key)
                    .ok_or_else(|| format!("end without begin: req {} {:?}", key.0, key.1))?;
                if ts < begin_ts {
                    return Err(format!("span {key:?} ends before it begins"));
                }
                let (id, name) = key;
                let is_outer = name
                    .strip_prefix("req")
                    .is_some_and(|s| s.parse::<u64>().ok() == Some(id));
                let entry = per_id.entry(id).or_insert((None, 0));
                if is_outer {
                    if entry.0.replace(ts - begin_ts).is_some() {
                        return Err(format!("duplicate outer span for req{id}"));
                    }
                } else {
                    entry.1 += ts - begin_ts;
                }
            }
            other => return Err(format!("unexpected request ph {other:?}")),
        }
    }
    if !closed {
        return Err("trace ends before its closing `]}`".into());
    }
    if let Some(((id, name), _)) = begins.iter().next() {
        return Err(format!("unclosed span: req {id} {name:?}"));
    }

    let mut checked = 0u64;
    for (id, (outer, stage_sum)) in per_id {
        let outer = outer.ok_or_else(|| format!("no outer span for req{id}"))?;
        if stage_sum != outer {
            return Err(format!(
                "stage sum {stage_sum} != lifetime {outer} for req{id}"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallReason;
    use gpu_types::Cycle;

    fn dram_timeline(issue: u64) -> Timeline {
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(issue));
        t.record(Stamp::L1Access, Cycle::new(issue + 30));
        t.record(Stamp::IcntInject, Cycle::new(issue + 80));
        t.record(Stamp::RopEnter, Cycle::new(issue + 140));
        t.record(Stamp::L2QueueEnter, Cycle::new(issue + 200));
        t.record(Stamp::DramQueueEnter, Cycle::new(issue + 320));
        t.record(Stamp::DramScheduled, Cycle::new(issue + 520));
        t.record(Stamp::DramDone, Cycle::new(issue + 620));
        t.record(Stamp::ReplyInject, Cycle::new(issue + 640));
        t.record(Stamp::ReplyEject, Cycle::new(issue + 690));
        t.record(Stamp::Returned, Cycle::new(issue + 700));
        t
    }

    /// The event rows of a document in the rows layout, each parsed on its
    /// own — the way [`check_span_sums`] reads them.
    fn rows(text: &str) -> Vec<Value> {
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(r#"{"traceEvents":["#), "{text}");
        assert_eq!(lines.next_back(), Some("]}"), "{text}");
        lines
            .map(|l| json::parse(l.strip_suffix(',').unwrap_or(l)).expect("a row parses"))
            .collect()
    }

    #[test]
    fn spans_tile_the_lifetime_and_validate() {
        let mut b = ChromeTraceBuilder::new(2, 2);
        b.add_request_span(TraceSite::Sm(0), 7, &dram_timeline(100));
        b.add_request_span(TraceSite::Sm(1), 8, &dram_timeline(0));
        // A store the write-back L2 absorbed, on its partition's track.
        let mut store = Timeline::new();
        store.record(Stamp::Issue, Cycle::new(10));
        store.record(Stamp::L2QueueEnter, Cycle::new(90));
        store.record(Stamp::L2Served, Cycle::new(91));
        b.add_request_span(TraceSite::Partition(1), 9, &store);
        let text = b.finish();
        // Children are named from the one legend beside `Stamp`.
        for stamp in [Stamp::DramDone, Stamp::ReplyEject, Stamp::L2Served] {
            let label = stamp.stage_label().unwrap();
            assert!(text.contains(&format!("\"{label}\"")), "{text}");
        }
        assert_eq!(check_span_sums(text.as_bytes()).unwrap(), 3);
        let store_edges: Vec<_> = rows(&text)
            .iter()
            .filter(|e| e.get("id").and_then(Value::as_num) == Some(9.0))
            .map(|e| {
                (
                    e.get("pid").and_then(Value::as_num),
                    e.get("tid").and_then(Value::as_num),
                )
            })
            .collect();
        assert_eq!(store_edges, [(Some(2.0), Some(1.0)); 6]);
    }

    #[test]
    fn incomplete_timelines_are_skipped() {
        let mut b = ChromeTraceBuilder::new(1, 1);
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(5));
        b.add_request_span(TraceSite::Sm(0), 1, &t);
        assert_eq!(b.finish(), ChromeTraceBuilder::new(1, 1).finish());
    }

    #[test]
    fn validator_rejects_bad_stage_sums() {
        // A hand-built document whose stage slices do not tile the span.
        let doc = r#"{"traceEvents":[
{"cat":"request","ph":"b","id":1,"name":"req1","pid":1,"tid":0,"ts":0},
{"cat":"request","ph":"b","id":1,"name":"SM Base","pid":1,"tid":0,"ts":0},
{"cat":"request","ph":"e","id":1,"name":"SM Base","pid":1,"tid":0,"ts":40},
{"cat":"request","ph":"e","id":1,"name":"req1","pid":1,"tid":0,"ts":100}
]}
"#;
        let err = check_span_sums(doc.as_bytes()).unwrap_err();
        assert!(err.contains("stage sum 40 != lifetime 100"), "{err}");
    }

    /// The streamed check refuses a broken span and a broken frame alike:
    /// each case edits the lines of a valid document (req7's edges, then
    /// req8's, then a counter sample) and must fail naming what broke.
    #[test]
    fn the_streamed_check_rejects_bad_input() {
        let mut b = ChromeTraceBuilder::new(1, 1);
        b.add_request_span(TraceSite::Sm(0), 7, &dram_timeline(100));
        b.add_request_span(TraceSite::Sm(0), 8, &dram_timeline(0));
        b.add_counter_sample(&CounterSample {
            cycle: 64,
            values: [1; CounterKind::COUNT],
        });
        let text = b.finish();
        assert_eq!(check_span_sums(text.as_bytes()), Ok(2));
        let lines: Vec<&str> = text.lines().collect();
        let find = |ph: &str, name: &str| {
            let edge = format!(r#""ph":"{ph}","id":7,"name":"{name}""#);
            lines.iter().position(|l| l.contains(&edge)).unwrap()
        };
        let stage = Stamp::DramDone.stage_label().unwrap();
        let (outer_begin, outer_end, stage_end) =
            (find("b", "req7"), find("e", "req7"), find("e", stage));
        type Edit = Box<dyn Fn(&mut Vec<String>)>;
        let cases: [(&str, Edit, &str); 6] = [
            (
                "one stage end a cycle late",
                Box::new(move |l| {
                    l[stage_end] = l[stage_end].replace(r#""ts":720}"#, r#""ts":721}"#)
                }),
                "for req7",
            ),
            (
                "no closing brackets",
                Box::new(|l| drop(l.pop())),
                "closing `]}`",
            ),
            (
                "a row without its comma",
                Box::new(move |l| {
                    l[stage_end].pop();
                }),
                "lacks its comma",
            ),
            (
                "a row split over two lines",
                Box::new(move |l| l[stage_end] = l[stage_end].replacen(',', ",\n", 1)),
                &format!("line {}:", stage_end + 1),
            ),
            (
                "an unclosed span",
                Box::new(move |l| drop(l.remove(outer_end))),
                "unclosed span: req 7",
            ),
            (
                "a duplicate outer span",
                Box::new(move |l| {
                    let pair = [l[outer_begin].clone(), l[outer_end].clone()];
                    l.splice(outer_end + 1..outer_end + 1, pair);
                }),
                "duplicate outer span for req7",
            ),
        ];
        for (what, edit, expected) in cases {
            let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            edit(&mut edited);
            let doc = edited.join("\n") + "\n";
            let err = check_span_sums(doc.as_bytes()).expect_err(what);
            assert!(err.contains(expected), "{what}: {err}");
        }
    }

    #[test]
    fn instants_and_counters_serialise_to_valid_json() {
        let mut b = ChromeTraceBuilder::new(1, 1);
        for kind in [
            EventKind::Coalesce {
                warp: 3,
                accesses: 32,
                lines: 5,
            },
            EventKind::MshrAllocate { line: 0x1280 },
            EventKind::MshrFill {
                line: 0x1280,
                waiters: 2,
            },
            EventKind::RowActivate { bank: 5, row: 900 },
            EventKind::RowPrecharge { bank: 5, row: 900 },
        ] {
            b.add_event(&TraceEvent {
                cycle: 50,
                site: TraceSite::Partition(0),
                kind,
            });
        }
        b.add_counter_sample(&CounterSample {
            cycle: 64,
            values: [9; CounterKind::COUNT],
        });
        let text = b.finish();
        assert!(rows(&text).len() >= 5 + CounterKind::COUNT);
        // No request spans: the validator trivially passes with 0.
        assert_eq!(check_span_sums(text.as_bytes()).unwrap(), 0);
    }

    #[test]
    fn a_stall_interval_is_one_slice_over_the_cycles_it_covers() {
        let mut b = ChromeTraceBuilder::new(2, 1);
        b.add_event(&TraceEvent {
            cycle: 50,
            site: TraceSite::Sm(1),
            kind: EventKind::Stall {
                reason: StallReason::MshrFull,
                cycles: 12,
            },
        });
        let text = b.finish();
        let stall = rows(&text)
            .into_iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("stall"))
            .unwrap_or_else(|| panic!("no stall slice in {text}"));
        let num = |k: &str| stall.get(k).and_then(Value::as_num);
        assert_eq!(stall.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!((num("ts"), num("dur")), (Some(38.0), Some(12.0)));
        assert_eq!((num("pid"), num("tid")), (Some(1.0), Some(1.0)));
        let args = stall.get("args").unwrap();
        assert_eq!(
            args.get("reason").and_then(Value::as_str),
            Some("mshr_full")
        );
        assert_eq!(args.get("cycles").and_then(Value::as_num), Some(12.0));
    }

    /// One event per [`EventKind`] variant, exercising every payload shape.
    fn one_event_per_kind() -> Vec<TraceEvent> {
        let event = |cycle, site, kind| TraceEvent { cycle, site, kind };
        let line = 0x00de_ad00;
        vec![
            event(
                3,
                TraceSite::Sm(3),
                EventKind::Stall {
                    reason: StallReason::MshrFull,
                    cycles: 2,
                },
            ),
            event(
                2,
                TraceSite::Sm(0),
                EventKind::Coalesce {
                    warp: 5,
                    accesses: 32,
                    lines: 4,
                },
            ),
            event(3, TraceSite::Sm(1), EventKind::MshrAllocate { line }),
            event(4, TraceSite::Sm(1), EventKind::MshrMerge { line }),
            event(
                5,
                TraceSite::Sm(1),
                EventKind::MshrFill { line, waiters: 7 },
            ),
            event(
                10,
                TraceSite::Partition(0),
                EventKind::RowActivate { bank: 1, row: 42 },
            ),
            event(
                11,
                TraceSite::Partition(2),
                EventKind::RowPrecharge { bank: 1, row: 42 },
            ),
            event(12, TraceSite::Gpu, EventKind::Checkpoint { bytes: 4096 }),
            event(13, TraceSite::Gpu, EventKind::CacheHit { key: 77 }),
        ]
    }

    /// Reads an event back from its `trace.json` row alone: the site from
    /// `pid`/`tid`, the cycle from `ts` (`ts + dur` for a stall slice),
    /// the kind from `name` and its payload from `args`.
    fn event_of(row: &Value) -> TraceEvent {
        let num = |v: &Value, key: &str| {
            let n = v.get(key).and_then(Value::as_num);
            n.unwrap_or_else(|| panic!("no number {key} in {row:?}")) as u64
        };
        let args = row.get("args").expect("an event row carries args");
        let arg = |key| num(args, key);
        let small = |key| u32::try_from(arg(key)).unwrap();
        let tid = num(row, "tid") as u32;
        let site = match num(row, "pid") as u32 {
            PID_SMS => TraceSite::Sm(tid),
            PID_PARTITIONS => TraceSite::Partition(tid),
            PID_GPU => TraceSite::Gpu,
            pid => panic!("event on pid {pid}"),
        };
        let kind = match row.get("name").and_then(Value::as_str).unwrap() {
            "stall" => {
                let reason = args.get("reason").and_then(Value::as_str);
                EventKind::Stall {
                    reason: *StallReason::ALL
                        .iter()
                        .find(|r| Some(r.name()) == reason)
                        .unwrap(),
                    cycles: arg("cycles"),
                }
            }
            "coalesce" => EventKind::Coalesce {
                warp: small("warp"),
                accesses: small("accesses"),
                lines: small("lines"),
            },
            "mshr_alloc" => EventKind::MshrAllocate { line: arg("line") },
            "mshr_merge" => EventKind::MshrMerge { line: arg("line") },
            "mshr_fill" => EventKind::MshrFill {
                line: arg("line"),
                waiters: small("waiters"),
            },
            "row_activate" => EventKind::RowActivate {
                bank: small("bank"),
                row: arg("row"),
            },
            "row_precharge" => EventKind::RowPrecharge {
                bank: small("bank"),
                row: arg("row"),
            },
            "checkpoint" => EventKind::Checkpoint {
                bytes: arg("bytes"),
            },
            "cache_hit" => EventKind::CacheHit { key: arg("key") },
            other => panic!("unknown event name {other:?}"),
        };
        let end = match kind {
            EventKind::Stall { .. } => num(row, "dur"),
            _ => 0,
        };
        TraceEvent {
            cycle: num(row, "ts") + end,
            site,
            kind,
        }
    }

    /// Every [`EventKind`] survives in its `trace.json` row — site, cycle
    /// and payload — so a diff of `trace.json` covers every event a run
    /// records, and the row's `args` hold exactly the payload.
    #[test]
    fn every_event_kind_round_trips_through_its_row() {
        let events = one_event_per_kind();
        let mut b = ChromeTraceBuilder::new(4, 3);
        for ev in &events {
            b.add_event(ev);
        }
        let rows = rows(&b.finish());
        let exported: Vec<_> = rows
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("event"))
            .collect();
        assert_eq!(exported.len(), events.len());
        for (row, ev) in exported.into_iter().zip(&events) {
            assert_eq!(&event_of(row), ev, "{row:?}");
            let mut payload = Writer::compact();
            ev.kind.write_fields(payload.object());
            let payload = json::parse(&payload.finish()).unwrap();
            assert_eq!(row.get("args"), Some(&payload), "{row:?}");
        }
    }

    #[test]
    fn custom_track_names_rename_processes_and_counters() {
        let mut names = TrackNames {
            sms_process: "GF100-like (Fermi) SMs".to_string(),
            sm_prefix: "SM (GF100-like)".to_string(),
            ..TrackNames::default()
        };
        names.counters[CounterKind::L1MshrOccupancy.index()] = "L1 MSHR occupancy".to_string();
        let mut b = ChromeTraceBuilder::with_names(1, 1, names);
        b.add_counter_sample(&CounterSample {
            cycle: 10,
            values: [1; CounterKind::COUNT],
        });
        let text = b.finish();
        assert!(text.contains("\"GF100-like (Fermi) SMs\""), "{text}");
        assert!(text.contains("\"SM (GF100-like) 0\""), "{text}");
        assert!(text.contains("\"L1 MSHR occupancy\""), "{text}");
        assert!(!text.contains("\"l1_mshr\""), "{text}");
        rows(&text);
    }

    #[test]
    fn host_profile_emits_flame_slices() {
        use crate::profile::{ProfileReport, SpanStat};
        let mut spans: Vec<SpanStat> = ProfSpan::ALL
            .iter()
            .map(|&span| SpanStat {
                span,
                count: 0,
                nanos: 0,
            })
            .collect();
        spans[ProfSpan::Run.index()] = SpanStat {
            span: ProfSpan::Run,
            count: 1,
            nanos: 10_000_000,
        };
        spans[ProfSpan::TickSms.index()] = SpanStat {
            span: ProfSpan::TickSms,
            count: 100,
            nanos: 6_000_000,
        };
        spans[ProfSpan::SmTick.index()] = SpanStat {
            span: ProfSpan::SmTick,
            count: 100,
            nanos: 2_500_000,
        };
        let report = ProfileReport {
            total_nanos: 10_000_000,
            spans,
        };
        let mut b = ChromeTraceBuilder::new(1, 1);
        b.add_host_profile(&report);
        let text = b.finish();
        let events = rows(&text);
        // The flame view: run at depth 0, tick_sms nested at depth 1 from
        // run's start, sm_tick at depth 2 from tick_sms's start.
        let slice = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("name").and_then(Value::as_str) == Some(name)
                })
                .unwrap_or_else(|| panic!("no X slice named {name:?} in {text}"))
        };
        let run = slice("run");
        assert_eq!(run.get("ts").and_then(Value::as_num), Some(0.0));
        assert_eq!(run.get("dur").and_then(Value::as_num), Some(10_000.0));
        assert_eq!(run.get("tid").and_then(Value::as_num), Some(0.0));
        let sms = slice("run/tick_sms");
        assert_eq!(sms.get("tid").and_then(Value::as_num), Some(1.0));
        let sm_tick = slice("run/tick_sms/sm_tick");
        assert_eq!(sm_tick.get("tid").and_then(Value::as_num), Some(2.0));
        // tick_sms tiles after the stages preceding it in the schedule
        // (all zero here except drain_check, also zero) — from run's start.
        assert_eq!(sms.get("ts").and_then(Value::as_num), Some(0.0));
        assert_eq!(sm_tick.get("ts").and_then(Value::as_num), Some(0.0));
        // Span totals only: no host-clock counter tracks.
        assert!(!text.contains("\"ph\":\"C\""), "{text}");
        assert!(text.contains("\"Host self-profile\""), "{text}");
    }
}
