//! Scripting-friendly exporters: one JSON object per line for events, CSV
//! for counter samples. Both are plain-text sidecars of the Chrome trace so
//! ad-hoc analysis does not need a trace viewer.

use crate::event::{TraceEvent, TraceSite};
use crate::json::Writer;
use crate::tracer::{CounterKind, CounterSample};

/// Serialises events as JSONL: one compact object per line with `cycle`,
/// `site`, `index`, `kind` and the payload fields flattened in.
pub fn events_jsonl(events: &[TraceEvent]) -> String {
    let mut w = Writer::compact();
    for ev in events {
        let (site, index) = match ev.site {
            TraceSite::Sm(i) => ("sm", i),
            TraceSite::Partition(i) => ("partition", i),
            TraceSite::Gpu => ("gpu", 0),
        };
        w.object().field("cycle", ev.cycle).field("site", site);
        w.field("index", index).field("kind", ev.kind.name());
        ev.kind.write_fields(&mut w);
        w.end();
    }
    let mut out = w.finish();
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Serialises counter samples as CSV: a `cycle` column followed by one
/// column per counter, in [`CounterKind::ALL`] order.
pub fn counters_csv(samples: &[CounterSample]) -> String {
    let mut out = String::from("cycle");
    for kind in CounterKind::ALL {
        out.push(',');
        out.push_str(kind.name());
    }
    out.push('\n');
    for s in samples {
        out.push_str(&s.cycle.to_string());
        for v in s.values {
            out.push(',');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, QueueKind, StallReason};
    use crate::json;

    #[test]
    fn jsonl_lines_parse_individually() {
        let events = [
            TraceEvent {
                cycle: 10,
                site: TraceSite::Sm(2),
                kind: EventKind::Stall {
                    reason: StallReason::Scoreboard,
                },
            },
            TraceEvent {
                cycle: 11,
                site: TraceSite::Partition(1),
                kind: EventKind::QueueEnter {
                    queue: QueueKind::L2Input,
                    req: 44,
                },
            },
        ];
        let text = events_jsonl(&events);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = json::parse(lines[0]).unwrap();
        assert_eq!(v.get("cycle").unwrap().as_num(), Some(10.0));
        assert_eq!(v.get("site").unwrap().as_str(), Some("sm"));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("scoreboard"));
        let v = json::parse(lines[1]).unwrap();
        assert_eq!(v.get("queue").unwrap().as_str(), Some("l2_input"));
        assert_eq!(v.get("req").unwrap().as_num(), Some(44.0));
    }

    /// One event per [`EventKind`] variant, exercising every payload shape.
    fn one_event_per_kind() -> Vec<TraceEvent> {
        use crate::event::NetDir;
        vec![
            TraceEvent {
                cycle: 1,
                site: TraceSite::Sm(3),
                kind: EventKind::Stall {
                    reason: StallReason::MshrFull,
                },
            },
            TraceEvent {
                cycle: 2,
                site: TraceSite::Sm(0),
                kind: EventKind::Coalesce {
                    warp: 5,
                    accesses: 32,
                    lines: 4,
                },
            },
            TraceEvent {
                cycle: 3,
                site: TraceSite::Sm(1),
                kind: EventKind::MshrAllocate { line: 0x00de_ad00 },
            },
            TraceEvent {
                cycle: 4,
                site: TraceSite::Sm(1),
                kind: EventKind::MshrMerge { line: 0x00de_ad00 },
            },
            TraceEvent {
                cycle: 5,
                site: TraceSite::Sm(1),
                kind: EventKind::MshrFill {
                    line: 0x00de_ad00,
                    waiters: 7,
                },
            },
            TraceEvent {
                cycle: 6,
                site: TraceSite::Gpu,
                kind: EventKind::IcntInject {
                    net: NetDir::Request,
                    req: 9,
                    port: 2,
                },
            },
            TraceEvent {
                cycle: 7,
                site: TraceSite::Gpu,
                kind: EventKind::IcntEject {
                    net: NetDir::Reply,
                    req: 9,
                    port: 0,
                },
            },
            TraceEvent {
                cycle: 8,
                site: TraceSite::Partition(2),
                kind: EventKind::QueueEnter {
                    queue: QueueKind::DramController,
                    req: 11,
                },
            },
            TraceEvent {
                cycle: 9,
                site: TraceSite::Partition(2),
                kind: EventKind::QueueLeave {
                    queue: QueueKind::Rop,
                    req: 11,
                },
            },
            TraceEvent {
                cycle: 10,
                site: TraceSite::Partition(0),
                kind: EventKind::RowActivate { bank: 1, row: 42 },
            },
            TraceEvent {
                cycle: 11,
                site: TraceSite::Partition(0),
                kind: EventKind::RowPrecharge { bank: 1, row: 42 },
            },
            TraceEvent {
                cycle: 12,
                site: TraceSite::Gpu,
                kind: EventKind::Checkpoint { bytes: 4096 },
            },
            TraceEvent {
                cycle: 13,
                site: TraceSite::Gpu,
                kind: EventKind::CacheHit { key: 77 },
            },
        ]
    }

    fn num(v: &json::Value, key: &str) -> u64 {
        v.get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .as_num()
            .unwrap_or_else(|| panic!("{key} not a number")) as u64
    }

    fn text<'a>(v: &'a json::Value, key: &str) -> &'a str {
        v.get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .as_str()
            .unwrap_or_else(|| panic!("{key} not a string"))
    }

    /// Both exporters spell a payload through `EventKind::write_fields`:
    /// for every variant the Chrome event's `args` object must hold exactly
    /// the members the JSONL row carries after its four fixed ones.
    #[test]
    fn chrome_args_and_jsonl_rows_carry_the_same_payload() {
        let events = one_event_per_kind();
        let mut chrome = crate::ChromeTraceBuilder::new(0, 0);
        for ev in &events {
            chrome.add_event(ev);
        }
        let doc = json::parse(&chrome.finish()).unwrap();
        let instants: Vec<_> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").and_then(json::Value::as_str) == Some("event"))
            .collect();
        let jsonl = events_jsonl(&events);
        assert_eq!(instants.len(), events.len());
        for ((instant, line), ev) in instants.iter().zip(jsonl.lines()).zip(&events) {
            let json::Value::Obj(row) = json::parse(line).unwrap() else {
                panic!("row is not an object: {line}");
            };
            let keys: Vec<_> = row[..4].iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["cycle", "site", "index", "kind"]);
            assert_eq!(text(instant, "name"), ev.kind.name());
            let args = instant.get("args").unwrap();
            assert_eq!(args, &json::Value::Obj(row[4..].to_vec()), "{line}");
        }
    }

    /// Every variant's JSONL line re-parses through `gpu_trace::json` with
    /// every payload field equal to the source event's — catching both a
    /// broken serializer and a field silently dropped from one arm.
    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = one_event_per_kind();
        let serialized = events_jsonl(&events);
        let lines: Vec<_> = serialized.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, ev) in lines.iter().zip(&events) {
            let v = json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            assert_eq!(num(&v, "cycle"), ev.cycle);
            let (site, index) = match ev.site {
                TraceSite::Sm(i) => ("sm", u64::from(i)),
                TraceSite::Partition(i) => ("partition", u64::from(i)),
                TraceSite::Gpu => ("gpu", 0),
            };
            assert_eq!(text(&v, "site"), site);
            assert_eq!(num(&v, "index"), index);
            assert_eq!(text(&v, "kind"), ev.kind.name());
            match ev.kind {
                EventKind::Stall { reason } => assert_eq!(text(&v, "reason"), reason.name()),
                EventKind::Coalesce {
                    warp,
                    accesses,
                    lines,
                } => {
                    assert_eq!(num(&v, "warp"), u64::from(warp));
                    assert_eq!(num(&v, "accesses"), u64::from(accesses));
                    assert_eq!(num(&v, "lines"), u64::from(lines));
                }
                EventKind::MshrAllocate { line } | EventKind::MshrMerge { line } => {
                    assert_eq!(num(&v, "line"), line);
                }
                EventKind::MshrFill { line, waiters } => {
                    assert_eq!(num(&v, "line"), line);
                    assert_eq!(num(&v, "waiters"), u64::from(waiters));
                }
                EventKind::IcntInject { net, req, port }
                | EventKind::IcntEject { net, req, port } => {
                    assert_eq!(text(&v, "net"), net.name());
                    assert_eq!(num(&v, "req"), req);
                    assert_eq!(num(&v, "port"), u64::from(port));
                }
                EventKind::QueueEnter { queue, req } | EventKind::QueueLeave { queue, req } => {
                    assert_eq!(text(&v, "queue"), queue.name());
                    assert_eq!(num(&v, "req"), req);
                }
                EventKind::RowActivate { bank, row } | EventKind::RowPrecharge { bank, row } => {
                    assert_eq!(num(&v, "bank"), u64::from(bank));
                    assert_eq!(num(&v, "row"), row);
                }
                EventKind::Checkpoint { bytes } => assert_eq!(num(&v, "bytes"), bytes),
                EventKind::CacheHit { key } => assert_eq!(num(&v, "key"), key),
            }
        }
    }

    /// CSV rows re-parse to exactly the sampled values, column for column,
    /// with the header naming every counter in table order.
    #[test]
    fn csv_round_trips_field_for_field() {
        let mut values = [0u64; CounterKind::COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as u64 + 1) * 3;
        }
        let samples = [
            CounterSample { cycle: 64, values },
            CounterSample {
                cycle: 128,
                values: values.map(|v| v * 10),
            },
        ];
        let serialized = counters_csv(&samples);
        let mut lines = serialized.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header[0], "cycle");
        for (i, kind) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(header[i + 1], kind.name());
        }
        for (line, sample) in lines.zip(&samples) {
            let cols: Vec<u64> = line.split(',').map(|c| c.parse().unwrap()).collect();
            assert_eq!(cols[0], sample.cycle);
            assert_eq!(&cols[1..], sample.values.as_slice());
        }
    }

    /// The escaping edge cases: quotes, backslashes, the named control
    /// escapes, `\uXXXX` controls and non-ASCII survive a full
    /// escape → parse round trip unchanged.
    #[test]
    fn escaping_survives_a_json_round_trip() {
        let nasty = "quote \" backslash \\ newline \n cr \r tab \t nul-ish \u{1} snow ☃";
        let mut serialized = String::new();
        json::escape_into(&mut serialized, nasty);
        assert!(serialized.contains("\\u0001"), "{serialized}");
        let v = json::parse(&serialized).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn csv_has_header_and_full_rows() {
        let samples = [CounterSample {
            cycle: 128,
            values: [7; CounterKind::COUNT],
        }];
        let text = counters_csv(&samples);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("cycle,l1_mshr,"));
        assert_eq!(header.split(',').count(), 1 + CounterKind::COUNT);
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 1 + CounterKind::COUNT);
        assert!(row.starts_with("128,7,"));
    }
}
