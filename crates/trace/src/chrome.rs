//! Chrome trace-event JSON export (Perfetto-loadable).
//!
//! The bundle's `trace.json` uses the legacy Chrome trace-event format,
//! which Perfetto's UI imports directly:
//!
//! * process 1 holds one thread ("track") per SM, process 2 one per memory
//!   partition, process 3 the whole-GPU counters;
//! * every traced request becomes one *nestable async* span (`ph` `b`/`e`,
//!   keyed by `cat`+`id`) on its SM's track, with one nested child slice
//!   per stage of `Timeline::stages`, named from `Stamp::stage_label` — the
//!   child durations tile the parent exactly, reproducing the Figure-1
//!   stage decomposition per request;
//! * discrete [`TraceEvent`]s become thread-scoped instants (`ph` `"i"`);
//! * counter samples become `ph` `"C"` counter tracks;
//! * process 4 (present only when [`ChromeTraceBuilder::add_host_profile`]
//!   is called) carries the *host-clock* self-profile: complete `ph` `"X"`
//!   slices laying the span-total tree out as a flame view, plus counter
//!   tracks of per-interval host time from the profiler's sample ring.
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

use gpu_mem::{Stamp, Timeline};

use crate::event::{TraceEvent, TraceSite};
use crate::json::{Value, Writer};
use crate::profile::{ProfCounter, ProfSpan, ProfileReport};
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

/// One edge (`ph` `b`/`e`) of request `id`'s nestable async span `name`.
fn async_edge(w: &mut Writer, ph: &str, sm: u32, id: u64, name: &str, ts: u64) {
    begin(w, "request", ph).field("id", id).field("name", name);
    w.field("pid", PID_SMS).field("tid", sm);
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

    /// Adds one traced request as a nestable async span on SM `sm`'s track:
    /// an outer `req{id}` slice from issue to return, with one child slice
    /// per stage of [`Timeline::stages`]. Incomplete timelines are skipped.
    pub fn add_request_span(&mut self, sm: u32, id: u64, timeline: &Timeline) {
        let (Some(stages), Some(issue), Some(returned)) = (
            timeline.stages(),
            timeline.get(Stamp::Issue),
            timeline.get(Stamp::Returned),
        ) else {
            return;
        };
        let (w, outer) = (&mut self.w, format!("req{id}"));
        async_edge(w, "b", sm, id, &outer, issue.get());
        for (stamp, start, end) in stages {
            let label = stamp.stage_label().expect("a stage ends after Issue");
            async_edge(w, "b", sm, id, label, start.get());
            async_edge(w, "e", sm, id, label, end.get());
        }
        async_edge(w, "e", sm, id, &outer, returned.get());
    }

    /// Adds one discrete event as a thread-scoped instant on its site's
    /// track, with the payload spelled out in `args`.
    pub fn add_event(&mut self, event: &TraceEvent) {
        let (pid, tid) = site_coords(event.site);
        let w = begin(&mut self.w, "event", "i").field("s", "t");
        w.field("name", event.kind.name());
        w.field("pid", pid).field("tid", tid);
        w.field("ts", event.cycle);
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
    /// process (pid 4, named from [`TrackNames::host_process`]):
    ///
    /// * **span totals** — one complete `ph` `"X"` slice per entered span,
    ///   laid out in attribution-tree order (children tile from their
    ///   parent's start, one thread per tree depth) so the process reads as
    ///   a flame view of where host time went;
    /// * **sampled tracks** — per-interval `ph` `"C"` deltas of the nine
    ///   tick-stage spans, the worker busy/idle spans and the profiler
    ///   counters, over host time, from the profiler's sample ring.
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
        let mut start = [0u64; ProfSpan::COUNT];
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
            start[s.index()] = at;
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

        // Sampled tracks (the tick stages, then the grid-worker span):
        // cumulative snapshots become per-interval deltas.
        let mut prev_spans = [0u64; ProfSpan::COUNT];
        let mut prev_counters = [0u64; ProfCounter::COUNT];
        for sample in &report.samples {
            let ts = sample.host_nanos / 1_000;
            for s in ProfSpan::STAGES
                .into_iter()
                .chain([ProfSpan::GridWorkerBusy])
            {
                let delta = sample.span_nanos[s.index()].saturating_sub(prev_spans[s.index()]);
                let name = format!("host us: {}", s.path());
                counter(w, "host", &name, PID_HOST, ts, delta / 1_000);
            }
            for c in ProfCounter::ALL {
                // Gauges are plotted raw; monotonic counts as deltas.
                let v = sample.counters[c.index()];
                let value = match c {
                    ProfCounter::Outstanding => v,
                    _ => v.saturating_sub(prev_counters[c.index()]),
                };
                let name = format!("host: {}", c.label());
                counter(w, "host", &name, PID_HOST, ts, value);
            }
            prev_spans = sample.span_nanos;
            prev_counters = sample.counters;
        }
    }

    /// Serialises the document: `{"traceEvents": [...]}`.
    pub fn finish(self) -> String {
        self.w.finish()
    }
}

/// Validates the request spans of a parsed Chrome trace: for every async
/// span pair (`ph` `b`/`e`, `cat` `"request"`), the child stage durations
/// must sum exactly to the outer `req{id}` span's duration — the same
/// stage-sum invariant the simulator's sanitizer enforces on timelines.
///
/// Returns the number of verified request spans, or a description of the
/// first violation.
pub fn check_span_sums(doc: &Value) -> Result<u64, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;

    // (id, name) -> begin ts; spans never repeat a (id, stage) pair because
    // timelines stamp each point once. Single pass: ends pair with their
    // begin via the map, and closed spans fold straight into a per-id
    // (outer duration, stage sum) accumulator.
    let mut begins: BTreeMap<(u64, String), u64> = BTreeMap::new();
    let mut per_id: BTreeMap<u64, (Option<u64>, u64)> = BTreeMap::new();
    for ev in events {
        if ev.get("cat").and_then(Value::as_str) != Some("request") {
            continue;
        }
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let id = ev
            .get("id")
            .and_then(Value::as_num)
            .ok_or("request event without id")? as u64;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or("request event without name")?
            .to_string();
        let ts = ev
            .get("ts")
            .and_then(Value::as_num)
            .ok_or("request event without ts")? as u64;
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
    use crate::event::{EventKind, NetDir, QueueKind, StallReason};
    use crate::json;
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
        t.record(Stamp::Returned, Cycle::new(issue + 700));
        t
    }

    #[test]
    fn spans_tile_the_lifetime_and_validate() {
        let mut b = ChromeTraceBuilder::new(2, 2);
        b.add_request_span(0, 7, &dram_timeline(100));
        b.add_request_span(1, 8, &dram_timeline(0));
        let text = b.finish();
        // Children are named from the one legend beside `Stamp`.
        let label = Stamp::DramDone.stage_label().unwrap();
        assert!(text.contains(&format!("\"{label}\"")), "{text}");
        let doc = json::parse(&text).unwrap();
        assert_eq!(check_span_sums(&doc).unwrap(), 2);
    }

    #[test]
    fn incomplete_timelines_are_skipped() {
        let mut b = ChromeTraceBuilder::new(1, 1);
        let mut t = Timeline::new();
        t.record(Stamp::Issue, Cycle::new(5));
        b.add_request_span(0, 1, &t);
        assert_eq!(b.finish(), ChromeTraceBuilder::new(1, 1).finish());
    }

    #[test]
    fn validator_rejects_bad_stage_sums() {
        // Hand-build a document whose stage slices do not tile the span.
        let doc = json::parse(
            r#"{"traceEvents":[
            {"cat":"request","ph":"b","id":1,"name":"req1","pid":1,"tid":0,"ts":0},
            {"cat":"request","ph":"b","id":1,"name":"SM Base","pid":1,"tid":0,"ts":0},
            {"cat":"request","ph":"e","id":1,"name":"SM Base","pid":1,"tid":0,"ts":40},
            {"cat":"request","ph":"e","id":1,"name":"req1","pid":1,"tid":0,"ts":100}
            ]}"#,
        )
        .unwrap();
        let err = check_span_sums(&doc).unwrap_err();
        assert!(err.contains("stage sum 40 != lifetime 100"), "{err}");
    }

    #[test]
    fn instants_and_counters_serialise_to_valid_json() {
        let mut b = ChromeTraceBuilder::new(1, 1);
        for kind in [
            EventKind::Stall {
                reason: StallReason::MshrFull,
            },
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
            EventKind::IcntInject {
                net: NetDir::Request,
                req: 12,
                port: 0,
            },
            EventKind::QueueLeave {
                queue: QueueKind::Rop,
                req: 12,
            },
            EventKind::RowActivate { bank: 5, row: 900 },
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
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 7 + CounterKind::COUNT);
        // No request spans: the validator trivially passes with 0.
        assert_eq!(check_span_sums(&doc).unwrap(), 0);
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
        json::parse(&text).unwrap();
    }

    #[test]
    fn host_profile_emits_flame_slices_and_sample_tracks() {
        use crate::profile::{ProfCounter, ProfSample, ProfileReport, SpanStat};
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
        let mut sample = ProfSample {
            host_nanos: 5_000_000,
            span_nanos: [0; ProfSpan::COUNT],
            counters: [0; ProfCounter::COUNT],
        };
        sample.span_nanos[ProfSpan::TickSms.index()] = 3_000_000;
        sample.counters[ProfCounter::CyclesTicked.index()] = 50;
        let report = ProfileReport {
            total_nanos: 10_000_000,
            spans,
            counters: [0; ProfCounter::COUNT],
            samples: vec![sample],
            samples_dropped: 0,
        };
        let mut b = ChromeTraceBuilder::new(1, 1);
        b.add_host_profile(&report);
        let text = b.finish();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
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
        // The sample ring became host-clock counter tracks.
        assert!(text.contains("\"host us: run/tick_sms\""), "{text}");
        assert!(text.contains("\"host: cycles_ticked\""), "{text}");
        assert!(text.contains("\"Host self-profile\""), "{text}");
    }
}
