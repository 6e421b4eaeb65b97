//! `--progress`: a bounded-interval heartbeat for the long-running subcommands.
//!
//! The heartbeat is a background thread that polls the host-side
//! self-profiler's counters (`gpu_sim::profile`) and the sweep cache's
//! global statistics, and prints one status line to stderr at a bounded
//! interval — simulated cycles and throughput, the in-flight request gauge,
//! cache hits, and (when the caller declared a goal) an ETA. It observes
//! only process-global atomics, so it needs no plumbing through the run
//! paths: any subcommand can wrap any workload with [`ProgressHeartbeat::start`].
//! Those counters count only while the profiler records, so a running
//! heartbeat keeps the profiler on, and puts it back as it found it when
//! it stops; the profiler never changes the simulation.
//!
//! Groundwork for the job-server roadmap item: the same counters a human
//! watches here are what a scheduler would poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::profile::{self, ProfCounter};

/// Minimum time between heartbeat lines. Two seconds keeps even a long
/// sweep's stderr to a screenful while still showing liveness.
const BEAT_INTERVAL: Duration = Duration::from_secs(2);

/// Poll granularity for the stop flag, so dropping the heartbeat never
/// blocks a subcommand for a full beat interval.
const POLL: Duration = Duration::from_millis(100);

/// A running heartbeat; printing stops (and the thread joins) on drop.
#[derive(Debug)]
pub struct ProgressHeartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Whether the profiler was on before this heartbeat switched it on.
    was_profiling: bool,
}

impl ProgressHeartbeat {
    /// Starts a heartbeat tagged `tag` with no completion goal (no ETA —
    /// a single simulated run's cycle count is open-ended).
    pub fn start(tag: &str) -> Self {
        Self::with_goal(tag, None)
    }

    /// Starts a heartbeat that also reports progress toward `goal` =
    /// `(counter, total)` — e.g. `(ProfCounter::GridTasks, points)` for a
    /// sweep — and estimates time to completion from the counter's rate.
    pub fn with_goal(tag: &str, goal: Option<(ProfCounter, u64)>) -> Self {
        let was_profiling = profile::enabled();
        profile::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let tag = tag.to_string();
        let handle = std::thread::Builder::new()
            .name("progress-heartbeat".to_string())
            .spawn(move || beat_loop(&tag, goal, &flag))
            .expect("spawn progress heartbeat");
        ProgressHeartbeat {
            stop,
            handle: Some(handle),
            was_profiling,
        }
    }
}

impl Drop for ProgressHeartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        profile::set_enabled(self.was_profiling);
    }
}

fn beat_loop(tag: &str, goal: Option<(ProfCounter, u64)>, stop: &AtomicBool) {
    let started = Instant::now();
    let mut last_beat = started;
    let mut last_cycles = cycles_simulated();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(POLL);
        let now = Instant::now();
        if now.duration_since(last_beat) < BEAT_INTERVAL {
            continue;
        }
        let cycles = cycles_simulated();
        let rate = (cycles - last_cycles) as f64 / now.duration_since(last_beat).as_secs_f64();
        last_beat = now;
        last_cycles = cycles;
        eprintln!(
            "[{tag}] {}",
            status_line(
                started.elapsed(),
                cycles,
                rate,
                profile::value(ProfCounter::Outstanding),
                latency_core::cache_stats(),
                goal.map(|(c, total)| (profile::value(c), total)),
            )
        );
    }
}

/// Simulated cycles so far: the ones the cycle loop ticked plus the idle
/// ones it jumped over — progress is simulated time, however it was reached.
fn cycles_simulated() -> u64 {
    profile::value(ProfCounter::CyclesTicked) + profile::value(ProfCounter::CyclesSkipped)
}

/// Renders one heartbeat line. Pure, so the format is unit-testable:
/// elapsed wall time, cycles simulated with current throughput, the
/// in-flight request gauge, sweep-cache hit/miss counts, and — when a goal
/// is declared — `done/total` with a rate-extrapolated ETA.
fn status_line(
    elapsed: Duration,
    cycles: u64,
    cycles_per_sec: f64,
    in_flight: u64,
    cache: latency_core::CacheStats,
    goal: Option<(u64, u64)>,
) -> String {
    let mut line = format!(
        "{:>6.1}s  {} cycles ({}/s)  {in_flight} in flight  cache {}/{} hit",
        elapsed.as_secs_f64(),
        group_thousands(cycles),
        group_thousands(cycles_per_sec as u64),
        cache.hits,
        cache.hits + cache.misses,
    );
    if let Some((done, total)) = goal {
        line.push_str(&format!("  {done}/{total} tasks"));
        if done > 0 && done < total {
            let eta = elapsed.as_secs_f64() * (total - done) as f64 / done as f64;
            line.push_str(&format!("  ETA {eta:.0}s"));
        }
    }
    line
}

/// `1234567` → `"1,234,567"`: keeps nine-digit cycle counts readable.
fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1_000), "1,000");
        assert_eq!(group_thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn status_line_has_every_field() {
        let cache = latency_core::CacheStats {
            hits: 3,
            misses: 5,
            stores: 5,
        };
        let line = status_line(
            Duration::from_secs(10),
            2_000_000,
            500_000.0,
            42,
            cache,
            Some((4, 16)),
        );
        assert!(line.contains("2,000,000 cycles"), "{line}");
        assert!(line.contains("(500,000/s)"), "{line}");
        assert!(line.contains("42 in flight"), "{line}");
        assert!(line.contains("cache 3/8 hit"), "{line}");
        assert!(line.contains("4/16 tasks"), "{line}");
        // 4 done in 10s -> 12 left at 2.5s each.
        assert!(line.contains("ETA 30s"), "{line}");
    }

    #[test]
    fn heartbeat_starts_and_stops_quickly() {
        let t0 = Instant::now();
        let hb = ProgressHeartbeat::start("test");
        drop(hb);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
