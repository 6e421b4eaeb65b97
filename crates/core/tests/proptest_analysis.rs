//! Randomized tests of the dynamic-latency analyses, driven by the
//! workspace's hermetic [`gpu_types::rng`] (fixed seeds, fully
//! reproducible): for arbitrary (well-formed) request timelines and load
//! records, the breakdown must partition time exactly, every consumer of
//! the Figure-1 stage cut must agree on it, and the exposure fractions must
//! stay coherent.

use std::collections::BTreeMap;

use gpu_mem::{AccessKind, MemRequest, PipelineSpace, RequestId, Stamp, Timeline};
use gpu_sim::{CompletedRequest, LoadInstrRecord, Sanitizer};
use gpu_trace::json::{self, Value};
use gpu_trace::{check_span_sums, ChromeTraceBuilder, TraceSite};
use gpu_types::rng::Rng;
use gpu_types::{Addr, Cycle, SmId};
use latency_core::{components_of, Component, ExposureAnalysis, LatencyBreakdown};

/// A monotone timeline visiting `Issue`, a random subset of the interior
/// stamps (in pipeline order), and `Returned`.
fn gen_timeline(rng: &mut Rng) -> Timeline {
    let mut t = Timeline::new();
    let mut now = Cycle::new(rng.gen_range_u64(0, 10_000));
    t.record(Stamp::Issue, now);
    let interior = [
        Stamp::L1Access,
        Stamp::IcntInject,
        Stamp::RopEnter,
        Stamp::L2QueueEnter,
        Stamp::DramQueueEnter,
        Stamp::DramScheduled,
        Stamp::DramDone,
        Stamp::L2Served,
        Stamp::ReplyInject,
        Stamp::ReplyEject,
    ];
    for stamp in interior {
        if rng.gen_bool() {
            now += rng.gen_range_u64(0, 500);
            t.record(stamp, now);
        }
    }
    now += rng.gen_range_u64(1, 500);
    t.record(Stamp::Returned, now);
    t
}

fn gen_request(rng: &mut Rng) -> CompletedRequest {
    CompletedRequest {
        timeline: gen_timeline(rng),
        space: PipelineSpace::Global,
        sm: SmId::new(0),
    }
}

fn gen_requests(rng: &mut Rng, min: usize, max: usize) -> Vec<CompletedRequest> {
    let n = rng.gen_range_usize(min, max);
    (0..n).map(|_| gen_request(rng)).collect()
}

fn gen_load_record(rng: &mut Rng) -> LoadInstrRecord {
    let issue = rng.gen_range_u64(0, 100_000);
    let total = rng.gen_range_u64(1, 5_000);
    LoadInstrRecord {
        sm: SmId::new(0),
        pc: 0,
        issue: Cycle::new(issue),
        complete: Cycle::new(issue + total),
        exposed: rng.gen_range_u64(0, 6_000),
        lines: rng.gen_range_u32(1, 33),
        stall_reasons: gpu_sim::StallBreakdown::default(),
    }
}

const CASES: u64 = 256;

/// The eight components always partition the total latency exactly.
#[test]
fn components_partition_total() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x713E_0000 + case);
        let t = gen_timeline(&mut rng);
        let parts = components_of(&t).expect("timeline is complete");
        assert_eq!(
            parts.iter().sum::<u64>(),
            t.total_latency().expect("complete"),
            "case {case}"
        );
    }
}

fn timeline_of(stamps: &[(Stamp, u64)]) -> Timeline {
    let mut t = Timeline::new();
    for &(stamp, at) in stamps {
        t.record(stamp, Cycle::new(at));
    }
    t
}

/// Checks one complete timeline against every consumer of the Figure-1 cut
/// and returns its per-component durations: the shared walk
/// (`Timeline::stages`) tiles `[Issue, Returned]`; `components_of` and the
/// child slices `add_request_span` emits carry the same per-stage sums; and
/// the sanitizer, which walks the stamps on its own, finds nothing.
fn assert_consumers_agree(t: &Timeline, what: &str) -> [u64; 8] {
    let (issue, returned) = (t.get(Stamp::Issue), t.get(Stamp::Returned));
    let mut at = issue.expect("complete");
    let mut last = Stamp::Issue;
    for (stamp, start, end) in t.stages().expect("complete") {
        assert!(stamp > last, "{what}: {stamp:?} out of pipeline order");
        assert_eq!(start, at, "{what}: gap or overlap before {stamp:?}");
        assert!(end >= start, "{what}: {stamp:?} runs backwards");
        (last, at) = (stamp, end);
    }
    assert_eq!(Some(at), returned, "{what}: walk stops short of Returned");

    let parts = components_of(t).expect("complete");

    let mut b = ChromeTraceBuilder::new(1, 1);
    b.add_request_span(TraceSite::Sm(0), 7, t);
    let text = b.finish();
    assert_eq!(check_span_sums(text.as_bytes()), Ok(1), "{what}");
    let doc = json::parse(&text).expect("valid chrome trace json");
    let mut slices: BTreeMap<&str, i64> = BTreeMap::new();
    for ev in doc.get("traceEvents").and_then(Value::as_arr).unwrap() {
        let field = |k| ev.get(k).and_then(Value::as_str);
        let (Some("request"), Some(ph), Some(name)) = (field("cat"), field("ph"), field("name"))
        else {
            continue;
        };
        let ts = ev.get("ts").and_then(Value::as_num).unwrap() as i64;
        *slices.entry(name).or_default() += if ph == "e" { ts } else { -ts };
    }
    assert_eq!(slices.remove("req7"), t.total_latency().map(|d| d as i64));
    // Each child slice is one stage, named for its part; the parts of a
    // column (Fetch2SM's four) sum to that column.
    let mut columns = [0i64; 8];
    for stamp in &Stamp::ALL[1..] {
        if let Some(slice) = slices.remove(stamp.stage_label().unwrap()) {
            columns[stamp.column().unwrap()] += slice;
        }
    }
    for c in Component::ALL {
        let label = c.label();
        assert_eq!(
            columns[c.index()],
            parts[c.index()] as i64,
            "{what}: {label}"
        );
    }
    assert!(slices.is_empty(), "{what}: unexpected slices {slices:?}");

    let mut req = MemRequest::new(
        RequestId::new(7),
        Addr::new(0x80),
        128,
        AccessKind::Load,
        PipelineSpace::Global,
        SmId::new(0),
        0,
        Cycle::ZERO,
    );
    req.timeline = *t;
    let mut san = Sanitizer::new();
    san.check_retired(&req);
    assert!(san.is_clean(), "{what}: {}", san.report());
    parts
}

/// The walk, `components_of`, the chrome exporter and the sanitizer agree on
/// every random sparse timeline.
#[test]
fn stage_cut_consumers_agree() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x57A6_0000 + case);
        assert_consumers_agree(&gen_timeline(&mut rng), &format!("case {case}"));
    }
}

/// A stage the request skipped folds into the next one it reached.
#[test]
fn sparse_timelines_fold_into_the_next_present_stage() {
    // An L2 hit has no DRAM stamps: its post-L2Q time lands in Fetch2SM.
    let l2_hit = timeline_of(&[
        (Stamp::Issue, 0),
        (Stamp::L1Access, 30),
        (Stamp::IcntInject, 60),
        (Stamp::RopEnter, 110),
        (Stamp::L2QueueEnter, 170),
        (Stamp::Returned, 310),
    ]);
    let parts = assert_consumers_agree(&l2_hit, "L2 hit");
    assert_eq!(parts.iter().sum::<u64>(), 310);
    assert_eq!(parts[Component::Fetch2Sm.index()], 140);
    assert_eq!(parts[Component::DramQToSch.index()], 0);

    // An L1 hit only probes the L1 on its way back.
    let l1_hit = timeline_of(&[
        (Stamp::Issue, 0),
        (Stamp::L1Access, 30),
        (Stamp::Returned, 90),
    ]);
    let parts = assert_consumers_agree(&l1_hit, "L1 hit");
    assert_eq!(parts[Component::SmBase.index()], 30);
    assert_eq!(parts[Component::Fetch2Sm.index()], 60);
}

/// Bucketizing never loses or duplicates requests, and per-bucket
/// percentages are non-negative and sum to ~100 for non-empty buckets.
#[test]
fn breakdown_conserves_requests() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xB2EA_0000 + case);
        let reqs = gen_requests(&mut rng, 1, 100);
        let n_buckets = rng.gen_range_usize(1, 32);
        let b = LatencyBreakdown::from_requests(&reqs, n_buckets);
        assert_eq!(b.total_requests(), reqs.len() as u64, "case {case}");
        let mut counted = 0u64;
        for i in 0..b.buckets().len() {
            counted += b.count(i);
            if b.count(i) > 0 {
                let p = b.percentages(i);
                let sum: f64 = p.iter().sum();
                assert!(
                    p.iter().all(|&x| (0.0..=100.0 + 1e-6).contains(&x)),
                    "case {case}"
                );
                assert!(
                    (sum - 100.0).abs() < 1e-6,
                    "case {case}: bucket {i} sums to {sum}"
                );
            }
        }
        assert_eq!(counted, reqs.len() as u64, "case {case}");
        // Overall shares also sum to ~100.
        let overall: f64 = b.overall_percentages().iter().sum();
        assert!((overall - 100.0).abs() < 1e-6, "case {case}");
    }
}

/// Clipping splits the population exactly into kept + overflow, the
/// clipped breakdown never covers a larger range than the unclipped one,
/// and the overflow's kept sums give back the unclipped totals exactly —
/// for fetches and for loads.
#[test]
fn clipping_is_a_partition() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC11_0000 + case);
        let reqs = gen_requests(&mut rng, 2, 100);
        let quantile = 0.1 + 0.9 * rng.gen_f64();
        let (clipped, overflow) = LatencyBreakdown::from_requests_clipped(&reqs, 16, quantile);
        assert_eq!(
            clipped.total_requests() + overflow,
            reqs.len() as u64,
            "case {case}"
        );
        assert_eq!(clipped.overflow(), overflow, "case {case}");
        let full = LatencyBreakdown::from_requests(&reqs, 16);
        let (_, full_hi) = full.buckets().range(15);
        let (_, clipped_hi) = clipped.buckets().range(15);
        assert!(clipped_hi <= full_hi, "case {case}");
        assert_eq!(
            clipped.unclipped_percentages(),
            full.overall_percentages(),
            "case {case}"
        );

        let loads: Vec<LoadInstrRecord> =
            (0..reqs.len()).map(|_| gen_load_record(&mut rng)).collect();
        let (clipped, overflow) = ExposureAnalysis::from_loads_clipped(&loads, 12, quantile);
        assert_eq!(clipped.overflow(), overflow, "case {case}");
        let full = ExposureAnalysis::from_loads(&loads, 12).overall_exposed_fraction();
        assert_eq!(clipped.unclipped_exposed_fraction(), full, "case {case}");
    }
}

/// Exposure fractions stay in [0, 1] per bucket and overall, and the
/// overall fraction is the cycle-weighted mean of the buckets.
#[test]
fn exposure_fractions_are_coherent() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xE870_0000 + case);
        let n = rng.gen_range_usize(1, 100);
        let loads: Vec<LoadInstrRecord> = (0..n).map(|_| gen_load_record(&mut rng)).collect();
        let a = ExposureAnalysis::from_loads(&loads, 12);
        assert_eq!(a.total_loads(), loads.len() as u64, "case {case}");
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for i in 0..a.buckets().len() {
            let f = a.exposed_fraction(i);
            assert!(
                (0.0..=1.0).contains(&f),
                "case {case}: bucket {i} fraction {f}"
            );
            assert!((f + a.hidden_fraction(i) - 1.0).abs() < 1e-9, "case {case}");
            // Reconstruct the bucket's total cycles from its loads.
            let (lo, hi) = a.buckets().range(i);
            let cyc: u64 = loads
                .iter()
                .map(|l| l.total())
                .filter(|&t| t >= lo && t <= hi)
                .sum();
            weighted += f * cyc as f64;
            weight += cyc as f64;
        }
        if weight > 0.0 {
            assert!(
                (a.overall_exposed_fraction() - weighted / weight).abs() < 1e-9,
                "case {case}"
            );
        }
        assert!(
            (0.0..=1.0).contains(&a.overall_exposed_fraction()),
            "case {case}"
        );
        assert!(
            (0.0..=1.0).contains(&a.buckets_exceeding(0.5)),
            "case {case}"
        );
    }
}
