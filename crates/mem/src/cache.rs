//! Set-associative cache timing model (tag array only — data lives in
//! [`crate::DeviceMemory`], since functional and timing state are split).
//!
//! Used for both the per-SM L1 data caches and the per-partition L2 slices.
//! Stores follow the Fermi-style global-store policy: write-through,
//! no-allocate, and *write-evict* (a store invalidates a matching line so
//! stale data is never served); a write-back L2 marks lines dirty instead
//! and write-allocates on a miss.
//!
//! Every access looks a line up one of two ways: the way holding the
//! touched sector valid (a hit), or the way that *owns* the line (some
//! sector valid or awaiting a fill). Every access that places a line —
//! `reserve`, `fill`, `allocate_dirty` — takes the owner, or else one
//! victim chosen by one rule (`Cache::replace`). The pure
//! [`Cache::has_way`] asks the same helpers, so the planners that call it
//! cannot drift from the accesses they plan around. A set owns each line at
//! most once: debug builds check it after every access that places a line,
//! and a restore rejects a snapshot that breaks it.

use gpu_types::Addr;

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used (default on all modeled GPUs).
    Lru,
    /// FIFO by fill time (available for ablations).
    Fifo,
}

/// Static cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if sets/line size are not powers of two or ways is zero.
    pub fn assert_valid(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(self.ways > 0, "ways must be positive");
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
    }
}

/// Result of probing the cache with a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Line present.
    Hit,
    /// Line absent; a fill must be requested. `reserved` reports whether a
    /// way could be reserved for the incoming fill.
    Miss,
}

/// One tag-array entry. State is tracked per sector as bitmasks (bit `i` =
/// sector `i` of the line); an unsectored cache has exactly one sector per
/// line, so the masks degenerate to the classic whole-line booleans and the
/// behavior is bit-identical to the pre-sector model.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// Sectors holding data.
    valid: u32,
    /// Sectors reserved for in-flight fills (prevents double-allocation
    /// while the MSHR tracks the outstanding request).
    reserved: u32,
    /// Sectors holding data newer than memory (write-back caches only).
    dirty: u32,
    stamp: u64,
}

/// Whether two ways of `set` own one line (see [`Line::present`]).
fn owns_a_line_twice(set: &[Line]) -> bool {
    set.iter()
        .enumerate()
        .any(|(i, a)| a.present() && set[i + 1..].iter().any(|b| b.present() && b.tag == a.tag))
}

impl Line {
    const EMPTY: Line = Line {
        tag: 0,
        valid: 0,
        reserved: 0,
        dirty: 0,
        stamp: 0,
    };

    /// The line owns its tag while any sector is valid or awaiting a fill.
    fn present(&self) -> bool {
        self.valid != 0 || self.reserved != 0
    }
}

/// A set-associative tag array.
///
/// # Examples
///
/// ```
/// use gpu_mem::{Cache, CacheConfig, Replacement, LoadOutcome};
/// use gpu_types::Addr;
///
/// let mut l1 = Cache::new(CacheConfig {
///     sets: 32,
///     ways: 4,
///     line_size: 128,
///     replacement: Replacement::Lru,
/// });
/// assert_eq!(l1.load(Addr::new(0x1000)), LoadOutcome::Miss);
/// l1.fill(Addr::new(0x1000));
/// assert_eq!(l1.load(Addr::new(0x1000)), LoadOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Sector size in bytes; equals `config.line_size` when unsectored.
    sector_bytes: u64,
    /// Sectors per line (1 = classic unsectored line).
    sectors_per_line: u32,
    /// `config.sets * config.ways` entries, set-major — or none before the
    /// first access that may change one ([`Cache::commit`]): a tag array
    /// nobody has touched reads as all [`Line::EMPTY`].
    lines: Vec<Line>,
    writebacks: std::collections::VecDeque<Addr>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty *unsectored* cache with the given geometry (fills
    /// move whole lines).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::assert_valid`]).
    pub fn new(config: CacheConfig) -> Self {
        Cache::with_sectors(config, None)
    }

    /// Creates an empty cache that fills and tags at `sector_bytes`
    /// granularity (`None` = unsectored, whole-line fills). The tag array
    /// takes its storage at the first access that may change it. A probe hits
    /// only when the touched *sector* is valid; fills and reservations
    /// cover one sector, so miss traffic is naturally counted in sectors.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid, or if the sector size is not a
    /// power of two dividing the line size into at most 32 sectors.
    pub fn with_sectors(config: CacheConfig, sector_bytes: Option<u64>) -> Self {
        config.assert_valid();
        let sector = sector_bytes.unwrap_or(config.line_size);
        assert!(
            sector.is_power_of_two() && sector <= config.line_size,
            "sector size must be a power of two no larger than the line"
        );
        let sectors_per_line = (config.line_size / sector) as u32;
        assert!(
            sectors_per_line <= 32,
            "at most 32 sectors per line (mask width)"
        );
        Cache {
            config,
            sector_bytes: sector,
            sectors_per_line,
            lines: Vec::new(),
            writebacks: std::collections::VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Sectors per line (1 for an unsectored cache).
    pub fn sectors_per_line(&self) -> u32 {
        self.sectors_per_line
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Gives the tag array its storage, all lines empty, if it has none.
    /// Every `&mut self` access that reads or writes a line calls this
    /// first; the `&self` ones read a tag array with no storage as all
    /// empty lines ([`Cache::set`], [`Cache::line`]).
    fn commit(&mut self) {
        if self.lines.is_empty() {
            self.lines = vec![Line::EMPTY; self.config.sets * self.config.ways];
        }
    }

    /// Line `i`, [`Line::EMPTY`] while the tag array has no storage.
    fn line(&self, i: usize) -> Line {
        self.lines.get(i).copied().unwrap_or(Line::EMPTY)
    }

    // Line size, set count, sector size and sectors per line are powers of
    // two (checked at construction), so the address splits with shifts and
    // masks rather than divisions.

    /// `addr`'s line number.
    fn line_number(&self, addr: Addr) -> u64 {
        addr.get() >> self.config.line_size.trailing_zeros()
    }

    fn set_index(&self, addr: Addr) -> usize {
        (self.line_number(addr) as usize) & (self.config.sets - 1)
    }

    fn tag(&self, addr: Addr) -> u64 {
        self.line_number(addr) >> self.config.sets.trailing_zeros()
    }

    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let s = self.set_index(addr);
        s * self.config.ways..(s + 1) * self.config.ways
    }

    /// The mask bit of the sector `addr` falls in (always bit 0 when
    /// unsectored).
    fn sector_bit(&self, addr: Addr) -> u32 {
        let sector = addr.get() >> self.sector_bytes.trailing_zeros();
        1 << (sector as u32 & (self.sectors_per_line - 1))
    }

    /// The index of the first way of `addr`'s set, and the set's lines:
    /// none while the tag array has no storage.
    fn set(&self, addr: Addr) -> (usize, &[Line]) {
        let range = self.set_range(addr);
        (range.start, self.lines.get(range).unwrap_or(&[]))
    }

    /// The way of `addr`'s set holding `addr`'s sector valid: the hit
    /// `load`, `probe` and the stores look up.
    fn valid_way(&self, addr: Addr) -> Option<usize> {
        let tag = self.tag(addr);
        let bit = self.sector_bit(addr);
        let (first, set) = self.set(addr);
        let way = set.iter().position(|l| l.valid & bit != 0 && l.tag == tag);
        way.map(|w| first + w)
    }

    /// The way of `addr`'s set that owns `addr`'s line: the one with its
    /// tag and some sector valid or awaiting a fill. A set owns each line
    /// at most once.
    fn owner(&self, addr: Addr) -> Option<usize> {
        let tag = self.tag(addr);
        let (first, set) = self.set(addr);
        let way = set.iter().position(|l| l.tag == tag && l.present());
        way.map(|w| first + w)
    }

    /// The way a line new to `addr`'s set replaces: among the ways that
    /// await no fill, an empty one first, then the lowest stamp (least
    /// recently used under LRU, oldest fill under FIFO). `None` when every
    /// way awaits a fill.
    fn victim(&self, addr: Addr) -> Option<usize> {
        let (first, set) = self.set(addr);
        let ways = set.iter().enumerate().filter(|(_, l)| l.reserved == 0);
        let way = ways.min_by_key(|(_, l)| (l.valid != 0, l.stamp));
        way.map(|(w, _)| first + w)
    }

    /// The way that holds `addr`'s line from now on: its owner, or else the
    /// victim, emptied for it and stamped now (a dirty line it evicts joins
    /// the writeback queue). `None` when neither exists.
    fn replace(&mut self, addr: Addr) -> Option<usize> {
        if let Some(i) = self.owner(addr) {
            return Some(i);
        }
        let i = self.victim(addr)?;
        let fresh = Line {
            tag: self.tag(addr),
            stamp: self.tick,
            ..Line::EMPTY
        };
        let old = std::mem::replace(&mut self.lines[i], fresh);
        if old.valid != 0 && old.dirty != 0 {
            self.push_writeback(old.tag, addr);
        }
        Some(i)
    }

    /// Whether `addr`'s set can take `addr`'s line: the set owns it, or a
    /// way awaits no fill. Pure: it is exactly when [`Cache::reserve`] and
    /// [`Cache::allocate_dirty`] succeed, and a store hit
    /// ([`Cache::probe`]) is such a line.
    pub fn has_way(&self, addr: Addr) -> bool {
        // A tag array with no storage is all empty ways.
        self.lines.is_empty() || self.owner(addr).is_some() || self.victim(addr).is_some()
    }

    /// Panics, in debug builds, if two ways of `addr`'s set own one line.
    fn debug_assert_owned_once(&self, addr: Addr) {
        if cfg!(debug_assertions) {
            let (_, set) = self.set(addr);
            assert!(
                !owns_a_line_twice(set),
                "a cache set owns a line twice: {set:?}"
            );
        }
    }

    /// Probes for a load at `addr`. A hit requires the touched *sector* to
    /// be valid — a sectored cache misses on a resident line whose sector
    /// has not been fetched yet.
    ///
    /// On a hit the line's recency is updated. On a miss nothing is
    /// allocated — call [`Cache::reserve`] (on MSHR allocation) and
    /// [`Cache::fill`] (when data returns) to complete the miss.
    pub fn load(&mut self, addr: Addr) -> LoadOutcome {
        self.commit();
        self.tick += 1;
        let Some(i) = self.valid_way(addr) else {
            self.misses += 1;
            return LoadOutcome::Miss;
        };
        if self.config.replacement == Replacement::Lru {
            self.lines[i].stamp = self.tick;
        }
        self.hits += 1;
        LoadOutcome::Hit
    }

    /// Probes without updating recency or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.valid_way(addr).is_some()
    }

    /// Reserves `addr`'s sector for an in-flight fill, evicting a victim
    /// line if the set does not own the line (a sector miss on a resident
    /// line needs no eviction). Returns `false` if every way is already
    /// reserved for other in-flight fills (the miss must stall).
    pub fn reserve(&mut self, addr: Addr) -> bool {
        self.commit();
        self.tick += 1;
        let bit = self.sector_bit(addr);
        let Some(i) = self.replace(addr) else {
            return false;
        };
        let line = &mut self.lines[i];
        if line.valid & bit == 0 {
            line.reserved |= bit;
        }
        self.debug_assert_owned_once(addr);
        true
    }

    /// Fills `addr`'s sector (fill-on-return). Clears any reservation for
    /// that sector; allocates a victim way if the line was not resident.
    pub fn fill(&mut self, addr: Addr) {
        self.commit();
        self.tick += 1;
        let bit = self.sector_bit(addr);
        // With every way reserved the fill is dropped; the reserved ways'
        // own fills will bring their data. (Cannot happen when reserve() is
        // required before the downstream request, which is how the pipeline
        // uses this type.)
        if let Some(i) = self.replace(addr) {
            let line = &mut self.lines[i];
            line.valid |= bit;
            line.reserved &= !bit;
            line.stamp = self.tick;
            self.debug_assert_owned_once(addr);
        }
    }

    /// Applies the write-evict store policy: invalidates the sector
    /// containing `addr` if present (stores are write-through and never
    /// allocate). On an unsectored cache the single sector is the line, so
    /// the whole line dies — the historical behavior.
    pub fn store_invalidate(&mut self, addr: Addr) {
        self.commit();
        let bit = self.sector_bit(addr);
        if let Some(i) = self.valid_way(addr) {
            let line = &mut self.lines[i];
            line.valid &= !bit;
            line.dirty &= !bit;
        }
    }

    // ---- write-back support -------------------------------------------

    /// Write-back store: marks the line dirty on a hit. Returns `true` on a
    /// hit; on a miss nothing changes (caller decides between
    /// write-allocate via [`Cache::allocate_dirty`] or bypass).
    pub fn store_mark_dirty(&mut self, addr: Addr) -> bool {
        self.commit();
        self.tick += 1;
        let Some(i) = self.valid_way(addr) else {
            self.misses += 1;
            return false;
        };
        let bit = self.sector_bit(addr);
        let line = &mut self.lines[i];
        line.dirty |= bit;
        if self.config.replacement == Replacement::Lru {
            line.stamp = self.tick;
        }
        self.hits += 1;
        true
    }

    /// Write-allocates a dirty sector for a store miss (no fetch: the model
    /// is tag-only and the store overwrites the relevant bytes
    /// functionally at issue) in the way that owns the line — one whose
    /// fill is still in flight included — or else in a victim way, whose
    /// dirty line joins the writeback queue. Returns `false` if the set
    /// does not own the line and every way is reserved for in-flight fills.
    pub fn allocate_dirty(&mut self, addr: Addr) -> bool {
        self.commit();
        self.tick += 1;
        let bit = self.sector_bit(addr);
        let Some(i) = self.replace(addr) else {
            return false;
        };
        let line = &mut self.lines[i];
        line.valid |= bit;
        line.dirty |= bit;
        line.stamp = self.tick;
        self.debug_assert_owned_once(addr);
        true
    }

    /// Reconstructs the line-aligned address of an evicted line from its tag
    /// and a sibling address in the same set, then queues it for writeback.
    fn push_writeback(&mut self, victim_tag: u64, sibling: Addr) {
        let set = self.set_index(sibling) as u64;
        let line_addr = (victim_tag * self.config.sets as u64 + set) * self.config.line_size;
        self.writebacks.push_back(Addr::new(line_addr));
    }

    /// Takes the next dirty victim awaiting writeback to memory, if any.
    pub fn pop_writeback(&mut self) -> Option<Addr> {
        self.writebacks.pop_front()
    }

    /// Dirty victims currently awaiting writeback.
    pub fn pending_writebacks(&self) -> usize {
        self.writebacks.len()
    }

    /// Invalidates everything (e.g. between kernel launches when modeling
    /// non-persistent L1s).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::EMPTY;
        }
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the tag array, writeback queue, LRU tick and statistics.
    /// Only the sector count is serialized of the geometry; a restore
    /// target must be constructed with the same [`CacheConfig`] and sector
    /// size.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.u32(self.sectors_per_line);
        let n = self.config.sets * self.config.ways;
        e.usize(n);
        for line in (0..n).map(|i| self.line(i)) {
            e.u64(line.tag);
            e.u32(line.valid);
            e.u32(line.reserved);
            e.u32(line.dirty);
            e.u64(line.stamp);
        }
        e.usize(self.writebacks.len());
        for wb in &self.writebacks {
            e.u64(wb.get());
        }
        e.u64(self.tick);
        e.u64(self.hits);
        e.u64(self.misses);
    }

    /// Overwrites this cache's dynamic state with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects a snapshot whose line count disagrees with this cache's
    /// geometry or with a set that owns a line twice, and propagates
    /// decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        if d.u32()? != self.sectors_per_line {
            return Err(gpu_snapshot::SnapshotError::InvalidValue(
                "cache geometry mismatch",
            ));
        }
        let n = d.usize()?;
        if n != self.config.sets * self.config.ways {
            return Err(gpu_snapshot::SnapshotError::InvalidValue(
                "cache geometry mismatch",
            ));
        }
        self.commit();
        for line in &mut self.lines {
            line.tag = d.u64()?;
            line.valid = d.u32()?;
            line.reserved = d.u32()?;
            line.dirty = d.u32()?;
            line.stamp = d.u64()?;
        }
        if self.lines.chunks(self.config.ways).any(owns_a_line_twice) {
            return Err(gpu_snapshot::SnapshotError::InvalidValue(
                "cache set owns a line twice",
            ));
        }
        self.writebacks.clear();
        for _ in 0..d.usize()? {
            self.writebacks.push_back(Addr::new(d.u64()?));
        }
        self.tick = d.u64()?;
        self.hits = d.u64()?;
        self.misses = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize) -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways,
            line_size: 128,
            replacement: Replacement::Lru,
        })
    }

    /// Address that maps to `set` with a distinct tag `k`.
    fn addr(set: u64, k: u64) -> Addr {
        Addr::new((k * 2 + set) * 128)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2);
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Miss);
        c.fill(addr(0, 0));
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Hit);
        assert_eq!(c.load(addr(0, 0) + 64), LoadOutcome::Hit, "same line");
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2);
        c.fill(addr(0, 0));
        c.fill(addr(0, 1));
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Hit);
        c.fill(addr(0, 2)); // evicts line 1
        assert!(c.probe(addr(0, 0)));
        assert!(!c.probe(addr(0, 1)));
        assert!(c.probe(addr(0, 2)));
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let mut c = Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_size: 128,
            replacement: Replacement::Fifo,
        });
        c.fill(addr(0, 0));
        c.fill(addr(0, 1));
        // Touching line 0 does not refresh its FIFO stamp.
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Hit);
        c.fill(addr(0, 2)); // evicts line 0 (oldest fill)
        assert!(!c.probe(addr(0, 0)));
        assert!(c.probe(addr(0, 1)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small_cache(1);
        c.fill(addr(0, 0));
        c.fill(addr(1, 0));
        assert!(c.probe(addr(0, 0)));
        assert!(c.probe(addr(1, 0)));
        c.fill(addr(0, 1)); // evicts only in set 0
        assert!(!c.probe(addr(0, 0)));
        assert!(c.probe(addr(1, 0)));
    }

    #[test]
    fn reserve_blocks_when_all_ways_reserved() {
        let mut c = small_cache(2);
        assert!(c.reserve(addr(0, 0)));
        assert!(c.has_way(addr(0, 1)));
        assert!(c.reserve(addr(0, 1)));
        assert!(!c.has_way(addr(0, 2)));
        assert!(!c.reserve(addr(0, 2)), "set exhausted by in-flight fills");
        // Re-reserving an already reserved line succeeds (MSHR merge case).
        assert!(c.has_way(addr(0, 0)));
        assert!(c.reserve(addr(0, 0)));
        // Fill completes the reservation and frees nothing else.
        c.fill(addr(0, 0));
        assert!(c.probe(addr(0, 0)));
        assert!(c.has_way(addr(0, 2)));
        assert!(
            c.reserve(addr(0, 2)),
            "way freed after fill (evicts line 0)"
        );
    }

    #[test]
    fn reserved_line_is_not_a_hit() {
        let mut c = small_cache(2);
        c.reserve(addr(0, 0));
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Miss);
    }

    #[test]
    fn store_invalidates_line() {
        let mut c = small_cache(2);
        c.fill(addr(0, 0));
        c.store_invalidate(addr(0, 0) + 4);
        assert!(!c.probe(addr(0, 0)));
        // Invalidating an absent line is a no-op.
        c.store_invalidate(addr(1, 5));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache(2);
        c.fill(addr(0, 0));
        c.fill(addr(1, 1));
        c.flush();
        assert!(!c.probe(addr(0, 0)));
        assert!(!c.probe(addr(1, 1)));
    }

    #[test]
    fn capacity_math() {
        let cfg = CacheConfig {
            sets: 64,
            ways: 6,
            line_size: 128,
            replacement: Replacement::Lru,
        };
        assert_eq!(cfg.capacity(), 48 * 1024);
    }

    #[test]
    fn store_mark_dirty_hits_and_misses() {
        let mut c = small_cache(2);
        assert!(!c.store_mark_dirty(addr(0, 0)), "cold store misses");
        c.fill(addr(0, 0));
        assert!(c.store_mark_dirty(addr(0, 0)));
        // Evicting the dirty line queues a writeback with the right address.
        c.fill(addr(0, 1));
        c.fill(addr(0, 2)); // evicts line (0,0), which is dirty
        assert_eq!(c.pop_writeback(), Some(addr(0, 0)));
        assert_eq!(c.pop_writeback(), None);
    }

    #[test]
    fn allocate_dirty_write_allocates_and_evicts() {
        let mut c = small_cache(1);
        assert!(c.allocate_dirty(addr(0, 0)));
        assert!(c.probe(addr(0, 0)));
        // Allocating another line in the same 1-way set evicts the dirty one.
        assert!(c.allocate_dirty(addr(0, 1)));
        assert_eq!(c.pop_writeback(), Some(addr(0, 0)));
        assert_eq!(c.pending_writebacks(), 0);
        // Clean evictions produce no writeback.
        c.fill(addr(0, 2));
        assert!(c.allocate_dirty(addr(0, 3)));
        assert_eq!(
            c.pop_writeback(),
            Some(addr(0, 1)),
            "dirty line 1 evicted by fill"
        );
        assert_eq!(c.pop_writeback(), None, "clean line 2 evicted silently");
    }

    /// `has_way` answers exactly what `reserve` and `allocate_dirty` do, in
    /// every state a short deterministic mix of fills, reservations, dirty
    /// allocations and invalidations reaches, sectored and not.
    #[test]
    fn has_way_matches_reserve_and_allocate_dirty() {
        for mut c in [small_cache(2), sectored_cache(2)] {
            let addrs: Vec<Addr> = (0..4)
                .flat_map(|k| [addr(0, k), addr(0, k) + 32, addr(1, k)])
                .collect();
            let mut seed = 0x2545_f491_4f6c_dd1du64;
            let mut seen = [false; 2];
            for _ in 0..400 {
                for &a in &addrs {
                    let can = c.has_way(a);
                    seen[usize::from(can)] = true;
                    assert_eq!(can, c.clone().allocate_dirty(a), "{a:?}");
                    assert_eq!(can, c.clone().reserve(a), "{a:?}");
                    if c.probe(a) {
                        assert!(can, "a store hit completes: {a:?}");
                    }
                }
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let a = addrs[(seed >> 8) as usize % addrs.len()];
                match seed % 5 {
                    0 | 1 => {
                        c.reserve(a);
                    }
                    2 => c.fill(a),
                    3 => {
                        c.allocate_dirty(a);
                    }
                    _ => c.store_invalidate(a),
                }
            }
            assert_eq!(
                seen, [true; 2],
                "the mix must reach a full set and a free one"
            );
        }
    }

    /// A write-back store to a line whose fill is still in flight lands on
    /// the way that fill completes, whether that way was empty or the other
    /// way held a line: the set then owns the line once, valid and dirty,
    /// and no way is left awaiting a fill that will not come.
    #[test]
    fn allocate_dirty_on_a_line_in_flight_keeps_one_copy() {
        for other in [None, Some(addr(0, 1))] {
            let mut c = small_cache(2);
            if let Some(b) = other {
                c.fill(b);
            }
            let a = addr(0, 0);
            assert!(c.reserve(a));
            assert!(c.allocate_dirty(a));
            c.fill(a);
            let set = &c.lines[..2];
            let owners: Vec<&Line> = set
                .iter()
                .filter(|l| l.present() && l.tag == c.tag(a))
                .collect();
            assert_eq!(owners.len(), 1, "{other:?}: {set:?}");
            let l = owners[0];
            assert_eq!((l.valid, l.reserved, l.dirty), (1, 0, 1), "{other:?}");
            assert!(set.iter().all(|l| l.reserved == 0), "{other:?}: {set:?}");
            if let Some(b) = other {
                assert!(c.probe(b), "the other line stays");
                assert_eq!(c.pop_writeback(), None);
            }
        }
    }

    #[test]
    fn cache_restore_rejects_a_set_owning_a_line_twice() {
        let mut c = small_cache(2);
        c.fill(addr(0, 0));
        c.reserve(addr(0, 1));
        c.lines[1].tag = c.lines[0].tag;
        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();
        let mut restored = small_cache(2);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            restored.restore_state(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(
                "cache set owns a line twice"
            ))
        ));
    }

    #[test]
    fn store_invalidate_clears_dirty() {
        let mut c = small_cache(2);
        c.allocate_dirty(addr(0, 0));
        c.store_invalidate(addr(0, 0));
        // The invalidated line must not generate a writeback when reused.
        c.fill(addr(0, 1));
        c.fill(addr(0, 2));
        assert_eq!(c.pop_writeback(), None);
    }

    #[test]
    fn reserve_evicting_dirty_line_writes_back() {
        let mut c = small_cache(1);
        c.allocate_dirty(addr(0, 0));
        assert!(c.reserve(addr(0, 1)));
        assert_eq!(c.pop_writeback(), Some(addr(0, 0)));
    }

    #[test]
    fn cache_codec_round_trips_lru_behavior() {
        let mut c = small_cache(2);
        c.fill(addr(0, 0));
        c.fill(addr(0, 1));
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Hit); // line 1 is now LRU
        c.allocate_dirty(addr(1, 0));
        c.reserve(addr(1, 1));

        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();

        let mut restored = small_cache(2);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();

        assert_eq!((restored.hits(), restored.misses()), (c.hits(), c.misses()));
        // Re-encode equality: the restored state is bit-identical.
        let mut e2 = gpu_snapshot::Encoder::new();
        restored.encode_state(&mut e2);
        assert_eq!(e2.finish(), framed);
        // The restored LRU order behaves like the original: a fill evicts
        // line 1 (least recent), keeping line 0.
        restored.fill(addr(0, 2));
        assert!(restored.probe(addr(0, 0)));
        assert!(!restored.probe(addr(0, 1)));
    }

    #[test]
    fn cache_restore_rejects_geometry_mismatch() {
        let c = small_cache(2);
        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();
        let mut wrong = small_cache(4);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            wrong.restore_state(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_size: 128,
            replacement: Replacement::Lru,
        });
    }

    // ---- sectored behavior ------------------------------------------------

    fn sectored_cache(ways: usize) -> Cache {
        Cache::with_sectors(
            CacheConfig {
                sets: 2,
                ways,
                line_size: 128,
                replacement: Replacement::Lru,
            },
            Some(32),
        )
    }

    #[test]
    fn sector_miss_on_resident_line() {
        let mut c = sectored_cache(2);
        c.fill(addr(0, 0)); // sector 0 of the line
        assert_eq!(c.load(addr(0, 0)), LoadOutcome::Hit);
        // Same line, different sector: the line is resident but the sector
        // was never fetched — a sectored cache misses where an unsectored
        // one would hit.
        assert_eq!(c.load(addr(0, 0) + 64), LoadOutcome::Miss);
        c.fill(addr(0, 0) + 64);
        assert_eq!(c.load(addr(0, 0) + 64), LoadOutcome::Hit);
        // The unsectored twin hits the whole line after one fill.
        let mut plain = small_cache(2);
        plain.fill(addr(0, 0));
        assert_eq!(plain.load(addr(0, 0) + 64), LoadOutcome::Hit);
    }

    #[test]
    fn sector_reserve_on_resident_line_needs_no_eviction() {
        let mut c = sectored_cache(1);
        c.fill(addr(0, 0));
        // Reserving another sector of the resident line reserves in place.
        assert!(c.reserve(addr(0, 0) + 32));
        assert!(c.probe(addr(0, 0)), "sector 0 survives the reservation");
        c.fill(addr(0, 0) + 32);
        assert!(c.probe(addr(0, 0) + 32));
        assert!(c.probe(addr(0, 0)));
    }

    #[test]
    fn store_invalidates_only_its_sector() {
        let mut c = sectored_cache(2);
        c.fill(addr(0, 0));
        c.fill(addr(0, 0) + 32);
        c.store_invalidate(addr(0, 0) + 32);
        assert!(c.probe(addr(0, 0)), "sibling sector survives");
        assert!(!c.probe(addr(0, 0) + 32));
    }

    #[test]
    fn sectored_eviction_is_whole_line() {
        let mut c = sectored_cache(1);
        c.fill(addr(0, 0));
        c.fill(addr(0, 0) + 32);
        c.fill(addr(0, 1)); // conflicting line evicts the whole line
        assert!(!c.probe(addr(0, 0)));
        assert!(!c.probe(addr(0, 0) + 32));
        assert!(c.probe(addr(0, 1)));
    }

    #[test]
    fn sectored_codec_round_trips_and_rejects_sector_mismatch() {
        let mut c = sectored_cache(2);
        c.fill(addr(0, 0));
        c.fill(addr(0, 0) + 96);
        c.reserve(addr(0, 1) + 32);
        let mut e = gpu_snapshot::Encoder::new();
        c.encode_state(&mut e);
        let framed = e.finish();

        let mut restored = sectored_cache(2);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();
        assert!(restored.probe(addr(0, 0)));
        assert!(restored.probe(addr(0, 0) + 96));
        assert!(!restored.probe(addr(0, 0) + 32));

        // An unsectored cache of the same shape must refuse the snapshot.
        let mut plain = small_cache(2);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            plain.restore_state(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_sector_size_panics() {
        let _ = Cache::with_sectors(
            CacheConfig {
                sets: 2,
                ways: 1,
                line_size: 128,
                replacement: Replacement::Lru,
            },
            Some(48),
        );
    }
}
