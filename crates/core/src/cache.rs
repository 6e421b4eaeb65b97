//! Content-addressed on-disk cache for chase measurements.
//!
//! Every grid point of a [`crate::Sweep`] or [`crate::Table1`] run is a pure
//! function of the GPU configuration's timing parameters and the chase
//! parameters: same inputs, same simulated cycles, bit for bit. The cache
//! exploits that purity — each point is keyed by a stable hash of
//! (timing configuration, chase parameters, format version) and its
//! [`ChaseMeasurement`] is stored as one small framed file under the cache
//! directory. A repeated sweep then completes from disk without simulating
//! a single grid point, while editing one preset's timing invalidates only
//! that preset's points (its hash changes; every other key is untouched).
//!
//! The cache is off unless a directory is configured, either through the
//! [`CACHE_ENV`] environment variable or programmatically
//! ([`set_cache_dir`], used by the shared `--cache DIR` flag).
//! Lookups tolerate anything: a missing, truncated, corrupted or
//! wrong-version entry is simply a miss and gets recomputed and rewritten.
//! Writes are atomic (temp file + rename), so concurrent sweep workers — or
//! concurrent processes — can share one directory safely.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpu_sim::GpuConfig;
use gpu_snapshot::{store, Decoder, Encoder, SnapshotError, StableHasher};
use gpu_types::json::{ToJson, Writer};

use crate::chase::{ChaseMeasurement, ChaseParams, ChasePattern, ChaseSpace};

/// Environment variable naming the cache directory. Unset or empty = off.
pub const CACHE_ENV: &str = "LATENCY_CACHE";

/// Version of the key derivation *and* the value encoding. Bump it whenever
/// either changes (or whenever the simulator's timing model changes in a way
/// the architecture-description hash cannot see); old entries then miss
/// instead of serving stale values.
///
/// Version 2: keys hash the declarative [`gpu_sim::ArchDesc`]
/// (via [`GpuConfig::arch_desc`]) instead of the flat config fields.
///
/// Version 3: the v2 description schema (sectored caches, sliced L2)
/// changed the timing model's fill granularity and the L2 tick schedule;
/// entries computed by the unsectored model must not be replayed.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Process-wide override of the cache directory:
/// `None` = no override (consult [`CACHE_ENV`]),
/// `Some(None)` = forced off, `Some(Some(dir))` = forced on at `dir`.
static DIR_OVERRIDE: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);

/// Forces the cache to `dir` for the rest of the process, taking precedence
/// over [`CACHE_ENV`].
pub fn set_cache_dir(dir: impl Into<PathBuf>) {
    *DIR_OVERRIDE.lock().expect("cache override poisoned") = Some(Some(dir.into()));
}

/// Forces the cache off for the rest of the process, even if [`CACHE_ENV`]
/// is set.
pub fn disable_cache() {
    *DIR_OVERRIDE.lock().expect("cache override poisoned") = Some(None);
}

/// Clears a previous [`set_cache_dir`] / [`disable_cache`] override,
/// returning control to [`CACHE_ENV`].
pub fn clear_cache_dir() {
    *DIR_OVERRIDE.lock().expect("cache override poisoned") = None;
}

/// The cache directory measurements will consult, if any: the programmatic
/// override if one is set, else a non-empty [`CACHE_ENV`].
pub fn cache_dir() -> Option<PathBuf> {
    if let Some(forced) = DIR_OVERRIDE
        .lock()
        .expect("cache override poisoned")
        .clone()
    {
        return forced;
    }
    match std::env::var(CACHE_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Cumulative cache traffic of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Entries written back after a miss.
    pub stores: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (1.0 for zero lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The `{"hits":…,"misses":…,"stores":…}` object of every document that
/// reports cache traffic (`serve` stats, `sweep --json`, the bench suites).
impl ToJson for CacheStats {
    fn write_json(&self, w: &mut Writer) {
        w.object().field("hits", self.hits);
        w.field("misses", self.misses);
        w.field("stores", self.stores).end();
    }
}

/// This process's cache hit/miss/store counters so far.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters (e.g. between the cold and warm passes of a
/// benchmark).
pub fn reset_cache_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
}

/// The content address of one chase grid point: a stable hash over the
/// format version, the config's architecture description (its display name
/// and observability switches are excluded — see
/// [`gpu_sim::ArchDesc::hash_desc`]) and the full chase parameters.
pub fn chase_key(config: &GpuConfig, params: &ChaseParams) -> u64 {
    let mut h = StableHasher::new();
    h.u32(CACHE_FORMAT_VERSION);
    config.arch_desc().hash_desc(&mut h);
    h.u64(params.footprint);
    h.u64(params.stride);
    h.u8(match params.space {
        ChaseSpace::Global => 0,
        ChaseSpace::Local => 1,
    });
    match params.pattern {
        ChasePattern::Sequential => h.u8(0),
        ChasePattern::Shuffled { seed } => {
            h.u8(1);
            h.u64(seed);
        }
    }
    h.finish()
}

fn encode_measurement(m: &ChaseMeasurement) -> Vec<u8> {
    let mut e = Encoder::new();
    e.f64(m.per_access);
    e.u64(m.accesses);
    e.u64(m.cycles_short);
    e.u64(m.cycles_long);
    e.finish()
}

fn decode_measurement(bytes: &[u8]) -> Result<ChaseMeasurement, SnapshotError> {
    let mut d = Decoder::open(bytes)?;
    let m = ChaseMeasurement {
        per_access: d.f64()?,
        accesses: d.u64()?,
        cycles_short: d.u64()?,
        cycles_long: d.u64()?,
    };
    d.expect_end()?;
    Ok(m)
}

/// Looks `key` up in `dir`, counting a hit or a miss. Any problem with the
/// entry — absent, unreadable, truncated, corrupted, wrong version — is a
/// miss; the caller recomputes and overwrites it.
pub fn lookup_chase(dir: &Path, key: u64) -> Option<ChaseMeasurement> {
    let m = store::cache_load(dir, key).and_then(|framed| decode_measurement(&framed).ok());
    match m {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    m
}

/// Writes `m` under `key` in `dir`, atomically. Best-effort: a cache-write
/// failure (full disk, permissions) must not fail the measurement that
/// produced the value, so errors are swallowed and only successful writes
/// count as stores.
pub fn store_chase(dir: &Path, key: u64, m: &ChaseMeasurement) {
    if store::cache_store(dir, key, &encode_measurement(m)).is_ok() {
        STORES.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ArchPreset;

    /// Tests that mutate the process-wide override serialize on this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn sample() -> ChaseMeasurement {
        ChaseMeasurement {
            per_access: 45.25,
            accesses: 8192,
            cycles_short: 123_456,
            cycles_long: 493_824,
        }
    }

    #[test]
    fn measurement_roundtrips() {
        let m = sample();
        assert_eq!(decode_measurement(&encode_measurement(&m)).unwrap(), m);
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_gets_overwritten() {
        let dir = std::env::temp_dir().join(format!("latcache-corrupt-{}", std::process::id()));
        let key = 0xDEAD_BEEF_u64;
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(store::cache_path(&dir, key), b"garbage").unwrap();
        assert_eq!(lookup_chase(&dir, key), None);
        store_chase(&dir, key, &sample());
        assert_eq!(lookup_chase(&dir, key), Some(sample()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_separate_configs_and_params() {
        let fermi = ArchPreset::FermiGf106.config_microbench();
        let kepler = ArchPreset::KeplerGk104.config_microbench();
        let a = ChaseParams::global(4096, 128);
        let b = ChaseParams::global(4096, 256);
        assert_ne!(chase_key(&fermi, &a), chase_key(&kepler, &a));
        assert_ne!(chase_key(&fermi, &a), chase_key(&fermi, &b));
        assert_eq!(chase_key(&fermi, &a), chase_key(&fermi, &a));
    }

    #[test]
    fn key_ignores_name_but_sees_timing() {
        let base = ArchPreset::FermiGf106.config_microbench();
        let params = ChaseParams::global(4096, 128);
        let mut renamed = base.clone();
        renamed.name = "some other label".into();
        assert_eq!(chase_key(&base, &params), chase_key(&renamed, &params));
        let mut slower = base.clone();
        slower.dram.timing.t_cl += 1;
        assert_ne!(chase_key(&base, &params), chase_key(&slower, &params));
    }

    #[test]
    fn concurrent_same_key_collision_is_last_writer_wins_bit_identical() {
        // The serve daemon's point dedup means same-key collisions are
        // normally prevented in-process, but two daemons (or a daemon and a
        // one-shot bin) can still race the same key on disk. Because every
        // writer of a given key encodes the *same* measurement (the key is
        // content-addressed over config + params), last-writer-wins must be
        // indistinguishable from first-writer-wins: the surviving bytes are
        // bit-identical to a fresh encode, and concurrent readers only ever
        // see a complete entry or a miss.
        let dir = std::env::temp_dir().join(format!("latcache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = 0xC0117_u64;
        let expected = sample();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let dir = &dir;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..50 {
                        store_chase(dir, key, expected);
                    }
                });
            }
            for _ in 0..4 {
                let dir = &dir;
                scope.spawn(move || {
                    for _ in 0..200 {
                        match lookup_chase(dir, key) {
                            None => {} // NotFound race before the first rename
                            Some(m) => assert_eq!(m, expected, "torn or foreign entry"),
                        }
                    }
                });
            }
        });
        // Whoever renamed last, the bytes on disk are exactly one encode.
        let raw = store::cache_load(&dir, key).expect("entry survives the race");
        assert_eq!(raw, encode_measurement(&expected));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn override_beats_env_and_clears() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_cache_dir("/tmp/somewhere");
        assert_eq!(cache_dir(), Some(PathBuf::from("/tmp/somewhere")));
        disable_cache();
        assert_eq!(cache_dir(), None);
        clear_cache_dir();
        // Back to the environment (whatever it says).
    }
}
