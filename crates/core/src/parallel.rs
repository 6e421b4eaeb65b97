//! A small scoped-thread work pool for embarrassingly parallel experiment
//! grids.
//!
//! Every measurement in this workspace — a chase grid point, a Table I row,
//! a latency-hiding sweep cell — builds its own [`gpu_sim::Gpu`] and runs it
//! to completion, so experiment points share no mutable state and can run on
//! any number of threads. This module provides the one primitive all of them
//! use: [`par_map`], an index-ordered parallel map built on
//! [`std::thread::scope`] (std only, no external dependencies).
//!
//! # Determinism
//!
//! Workers pull indices from a shared atomic counter (self-scheduling, so an
//! expensive point never stalls the whole chunk), but every result is
//! written back into the slot of its *input index*. The output `Vec` is
//! therefore always in input order, bit-identical to what a serial loop
//! produces, regardless of worker count or OS scheduling. The serial
//! reference paths (`Sweep::run_serial`, `Table1::measure_serial`, …) exist
//! so the equivalence is testable, not because they ever differ.
//!
//! # Worker count
//!
//! [`worker_count`] resolves, in order:
//!
//! 1. a process-wide programmatic override ([`set_worker_count`], used by
//!    the `latency` binary's `--threads` flag),
//! 2. the `LATENCY_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 short-circuits to a plain serial loop on the
//! calling thread — no pool, no overhead.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count (a positive integer).
pub const THREADS_ENV: &str = "LATENCY_THREADS";

/// Why a requested thread count was rejected.
///
/// Produced by [`parse_thread_count`] and [`env_worker_count`] so the
/// binaries can refuse `--threads 0` and `LATENCY_THREADS=0` with a
/// specific message instead of silently falling back to a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadCountError {
    /// The value parsed but was zero; zero threads cannot run anything.
    Zero {
        /// Which knob carried the value (flag name or env var name).
        source: &'static str,
    },
    /// The value was not an unsigned integer.
    Malformed {
        /// Which knob carried the value (flag name or env var name).
        source: &'static str,
        /// The offending text.
        value: String,
    },
}

impl fmt::Display for ThreadCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadCountError::Zero { source } => {
                write!(f, "{source} must be a positive integer, got 0")
            }
            ThreadCountError::Malformed { source, value } => {
                write!(f, "{source} must be a positive integer, got '{value}'")
            }
        }
    }
}

impl std::error::Error for ThreadCountError {}

/// Parses a thread count from CLI or environment text, rejecting zero and
/// non-numeric values with a typed error naming `source`.
///
/// # Errors
///
/// [`ThreadCountError::Zero`] for `0`, [`ThreadCountError::Malformed`] for
/// anything that is not an unsigned integer.
pub fn parse_thread_count(value: &str, source: &'static str) -> Result<usize, ThreadCountError> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(ThreadCountError::Zero { source }),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadCountError::Malformed {
            source,
            value: value.to_string(),
        }),
    }
}

/// Validates [`THREADS_ENV`], returning the configured worker count (`None`
/// when the variable is unset and the CPU count decides).
///
/// [`worker_count`] itself stays forgiving (library callers deep inside a
/// sweep cannot usefully abort), so binaries call this once at startup to
/// turn a nonsensical environment into a typed usage error.
///
/// # Errors
///
/// Propagates [`parse_thread_count`] rejections for a set-but-invalid
/// variable.
pub fn env_worker_count() -> Result<Option<usize>, ThreadCountError> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_thread_count(&v, THREADS_ENV).map(Some),
        Err(_) => Ok(None),
    }
}

/// Process-wide programmatic override; 0 means "unset".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the pool to `n` workers for the rest of the process (e.g. from a
/// `--threads N` CLI flag). `n = 1` forces fully serial execution. Takes
/// precedence over [`THREADS_ENV`] and the detected CPU count.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_worker_count(n: usize) {
    assert!(n > 0, "worker count must be positive");
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears a previous [`set_worker_count`] override.
pub fn clear_worker_count() {
    WORKER_OVERRIDE.store(0, Ordering::Relaxed);
}

/// The number of workers a parallel region will use: the programmatic
/// override if set, else `LATENCY_THREADS` if set to a positive integer,
/// else the machine's available parallelism (1 if undetectable).
pub fn worker_count() -> usize {
    let forced = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Frozen no-op shim: there is no intra-run tick-thread count to set since
/// the parallel tick executor was deleted. `benchmark/` (frozen, see
/// BENCHMARK.json) still calls this once; DESIGN.md, "Frozen signatures",
/// says when it goes.
pub fn set_tick_threads(_n: usize) {}

/// Applies `f` to every item, possibly in parallel, returning results in
/// input order.
///
/// `f` receives `(index, &item)` and must be pure with respect to ordering:
/// the contract (upheld by every caller in this workspace, where each call
/// simulates an isolated GPU) is that results do not depend on execution
/// order, so the gathered output equals the serial
/// `items.iter().enumerate().map(..).collect()`.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use gpu_sim::profile::{self, ProfCounter, ProfSpan};
    let n = items.len();
    let workers = worker_count().min(n);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let _g = profile::span(ProfSpan::GridWorkerBusy);
                profile::add(ProfCounter::GridTasks, 1);
                f(i, t)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _g = profile::span(ProfSpan::GridWorkerBusy);
                profile::add(ProfCounter::GridTasks, 1);
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// [`par_map`] over fallible work: runs every item, then returns either all
/// results (input order) or the error of the *lowest-indexed* failing item —
/// exactly the error a serial left-to-right loop would surface, so parallel
/// and serial callers report identical failures.
///
/// # Errors
///
/// The first (by input index) error produced by `f`.
pub fn try_par_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in par_map(items, f) {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that mutate the process-wide override serialize on this lock
    /// so the default multi-threaded test runner cannot interleave them.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let got = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_par_map_returns_lowest_indexed_error() {
        let items: Vec<u32> = (0..64).collect();
        let r: Result<Vec<u32>, u32> =
            try_par_map(&items, |_, &x| if x % 10 == 3 { Err(x) } else { Ok(x) });
        // 3, 13, 23, ... all fail; the serial-equivalent error is 3.
        assert_eq!(r, Err(3));
        let ok: Result<Vec<u32>, u32> = try_par_map(&items, |_, &x| Ok(x * 2));
        assert_eq!(ok.unwrap()[5], 10);
    }

    #[test]
    fn worker_count_override_wins() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_worker_count(3);
        assert_eq!(worker_count(), 3);
        set_worker_count(1);
        assert_eq!(worker_count(), 1);
        clear_worker_count();
        assert!(worker_count() >= 1);
    }

    #[test]
    fn thread_count_requests_are_validated() {
        assert_eq!(parse_thread_count("4", "--threads"), Ok(4));
        assert_eq!(parse_thread_count(" 2 ", "--threads"), Ok(2));
        let zero = parse_thread_count("0", "--threads");
        assert_eq!(
            zero,
            Err(ThreadCountError::Zero {
                source: "--threads"
            })
        );
        assert_eq!(
            zero.unwrap_err().to_string(),
            "--threads must be a positive integer, got 0"
        );
        assert!(matches!(
            parse_thread_count("many", "--threads"),
            Err(ThreadCountError::Malformed { .. })
        ));
    }

    #[test]
    fn env_worker_count_rejects_zero_and_garbled_but_allows_unset() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        std::env::remove_var(THREADS_ENV);
        assert_eq!(env_worker_count(), Ok(None));
        std::env::set_var(THREADS_ENV, "6");
        assert_eq!(env_worker_count(), Ok(Some(6)));
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(
            env_worker_count(),
            Err(ThreadCountError::Zero {
                source: THREADS_ENV
            })
        );
        std::env::set_var(THREADS_ENV, "lots");
        let garbled = env_worker_count().unwrap_err();
        assert_eq!(
            garbled.to_string(),
            "LATENCY_THREADS must be a positive integer, got 'lots'"
        );
        // The library reader stays forgiving; only start-up validation is strict.
        assert!(worker_count() >= 1);
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn forced_parallel_equals_serial_on_nontrivial_grid() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        // Run the same map with 1 and 8 workers; outputs must be identical.
        let items: Vec<u64> = (0..100).map(|i| i * 17 % 31).collect();
        set_worker_count(1);
        let serial = par_map(&items, |i, &x| (i as u64) ^ x.wrapping_mul(0x9E37));
        set_worker_count(8);
        let parallel = par_map(&items, |i, &x| (i as u64) ^ x.wrapping_mul(0x9E37));
        clear_worker_count();
        assert_eq!(serial, parallel);
    }
}
