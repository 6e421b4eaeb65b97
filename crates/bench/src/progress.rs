//! `--progress`: a bounded-interval heartbeat for the long-running subcommands.
//!
//! The heartbeat is a background thread that polls two process-global
//! counts — simulated cycles ([`gpu_sim::cycles_simulated`]) and the sweep
//! cache's statistics — and prints one status line to stderr at a bounded
//! interval: elapsed time, cycles simulated and their rate, cache hits. It
//! needs no plumbing through the run paths, so any subcommand can wrap any
//! workload with [`ProgressHeartbeat::start`]. Both counts are kept whether
//! or not anyone watches, so the heartbeat leaves the self-profiler alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::cycles_simulated;

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
}

impl ProgressHeartbeat {
    /// Starts a heartbeat whose lines are tagged `tag`.
    pub fn start(tag: &str) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let tag = tag.to_string();
        let handle = std::thread::Builder::new()
            .name("progress-heartbeat".to_string())
            .spawn(move || beat_loop(&tag, &flag))
            .expect("spawn progress heartbeat");
        ProgressHeartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressHeartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn beat_loop(tag: &str, stop: &AtomicBool) {
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
            status_line(started.elapsed(), cycles, rate, latency_core::cache_stats())
        );
    }
}

/// Renders one heartbeat line. Pure, so the format is unit-testable:
/// elapsed wall time, cycles simulated with current throughput, and
/// sweep-cache hit/lookup counts.
fn status_line(
    elapsed: Duration,
    cycles: u64,
    cycles_per_sec: f64,
    cache: latency_core::CacheStats,
) -> String {
    format!(
        "{:>6.1}s  {} cycles ({}/s)  cache {}/{} hit",
        elapsed.as_secs_f64(),
        group_thousands(cycles),
        group_thousands(cycles_per_sec as u64),
        cache.hits,
        cache.hits + cache.misses,
    )
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
        let line = status_line(Duration::from_secs(10), 2_000_000, 500_000.0, cache);
        assert!(line.starts_with("  10.0s"), "{line}");
        assert!(line.contains("2,000,000 cycles"), "{line}");
        assert!(line.contains("(500,000/s)"), "{line}");
        assert!(line.contains("cache 3/8 hit"), "{line}");
    }

    #[test]
    fn heartbeat_starts_and_stops_quickly() {
        let t0 = Instant::now();
        let hb = ProgressHeartbeat::start("test");
        drop(hb);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
