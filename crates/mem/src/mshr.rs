//! Miss-status holding registers (MSHRs).
//!
//! An MSHR table tracks outstanding line fills and merges subsequent misses
//! to the same line so only one downstream request is in flight per line.
//! The table's finite size is one of the resources whose exhaustion produces
//! the queueing behavior the paper observes (a full MSHR table stalls the L1,
//! extending "SM Base" / "L1toICNT" time).
//!
//! The table is generic over the *waiter* payload `T`: the primary miss's
//! request object travels downstream, while merged requests are parked here
//! until the fill returns.

use gpu_types::{Addr, IntMap};

/// Configuration of an MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrConfig {
    /// Maximum distinct outstanding lines.
    pub entries: usize,
    /// Maximum merged waiters per line (not counting the primary miss,
    /// which travels downstream).
    pub max_merged: usize,
}

/// A table of miss-status holding registers holding waiters of type `T`.
///
/// # Examples
///
/// ```
/// use gpu_mem::{MshrTable, MshrConfig};
/// use gpu_types::Addr;
///
/// let mut mshr: MshrTable<&str> = MshrTable::new(MshrConfig { entries: 32, max_merged: 8 });
/// let line = Addr::new(0x400);
/// assert!(mshr.allocate(line));            // primary miss: goes downstream
/// assert_eq!(mshr.try_merge(line, "w1"), Ok(()));
/// assert_eq!(mshr.fill(line), vec!["w1"]); // fill wakes the merged waiter
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<T> {
    config: MshrConfig,
    /// Merge lists by line address. Never more than `config.entries` of
    /// them, restored ones included, which is what lets the table hash its
    /// keys without SipHash's defence against chosen ones. Empty and
    /// without storage until the first line is allocated or restored, which
    /// reserves room for all `config.entries` at once.
    entries: IntMap<Vec<T>>,
    /// Waiters parked over all merge lists, kept rather than recounted:
    /// `try_merge` adds one, `fill` takes its list's away, and a restore
    /// recounts. Derived, so never serialized.
    parked: usize,
    /// No merge list is longer: a merge raises it to its list's length, a
    /// fill that leaves nothing parked zeroes it, and a restore recounts.
    /// It lets [`MshrTable::longest_over`] answer without walking the
    /// lists. Derived, so never serialized.
    longest: usize,
    /// Emptied merge lists, each `max_merged` long from the start:
    /// [`MshrTable::allocate`] reuses one, so once the table has held its
    /// working number of lines neither it nor a merge allocates. Room for
    /// `config.entries` lists is reserved at the first fill.
    spare: Vec<Vec<T>>,
}

impl<T> MshrTable<T> {
    /// Creates an empty table. It allocates nothing until its first line.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(config: MshrConfig) -> Self {
        assert!(config.entries > 0, "MSHR table needs at least one entry");
        MshrTable {
            config,
            entries: IntMap::default(),
            parked: 0,
            longest: 0,
            spare: Vec::new(),
        }
    }

    /// The table configuration.
    pub fn config(&self) -> &MshrConfig {
        &self.config
    }

    /// Number of outstanding lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if a fill for `line` is outstanding.
    pub fn is_pending(&self, line: Addr) -> bool {
        self.entries.contains_key(&line.get())
    }

    /// Returns `true` if a new line entry can be allocated.
    pub fn can_allocate(&self) -> bool {
        self.entries.len() < self.config.entries
    }

    /// Allocates an entry for a primary miss on `line`. Returns `false` if
    /// the table is full (the miss must stall and retry).
    ///
    /// # Panics
    ///
    /// Panics if `line` is already pending — the caller must check
    /// [`MshrTable::is_pending`] and merge instead.
    pub fn allocate(&mut self, line: Addr) -> bool {
        assert!(
            !self.is_pending(line),
            "allocate on already-pending line {line}; merge instead"
        );
        if !self.can_allocate() {
            return false;
        }
        let list = match self.spare.pop() {
            Some(list) => list,
            None => {
                self.reserve_bound();
                Vec::with_capacity(self.config.max_merged)
            }
        };
        self.entries.insert(line.get(), list);
        true
    }

    /// Reserves the whole bound in one step if the map has no storage, so
    /// it never grows. Removals leave tombstones that can bring a map with
    /// storage to `capacity() == 0`, but only once its lines are filled,
    /// which leaves spare lists: so this is called only with none in hand.
    fn reserve_bound(&mut self) {
        if self.entries.capacity() == 0 {
            self.entries.reserve(self.config.entries);
        }
    }

    /// Returns `true` if a waiter could merge onto the pending fill of
    /// `line` right now.
    pub fn can_merge(&self, line: Addr) -> bool {
        self.entries
            .get(&line.get())
            .is_some_and(|list| list.len() < self.config.max_merged)
    }

    /// Parks `waiter` on the pending fill of `line`.
    ///
    /// # Errors
    ///
    /// Returns the waiter back if `line` is not pending or its merge list is
    /// full (the access must stall).
    pub fn try_merge(&mut self, line: Addr, waiter: T) -> Result<(), T> {
        match self.entries.get_mut(&line.get()) {
            Some(list) if list.len() < self.config.max_merged => {
                list.push(waiter);
                self.parked += 1;
                self.longest = self.longest.max(list.len());
                Ok(())
            }
            _ => Err(waiter),
        }
    }

    /// Completes the fill for `line`, returning the merged waiters in
    /// arrival order (empty if the line was not pending or had no merges).
    pub fn fill(&mut self, line: Addr) -> Vec<T> {
        let mut waiters = Vec::new();
        self.fill_with(line, |w| waiters.push(w));
        waiters
    }

    /// [`MshrTable::fill`] handing each merged waiter to `wake` in arrival
    /// order and returning how many there were; the emptied list stays
    /// with the table, so a per-cycle caller allocates nothing.
    pub fn fill_with(&mut self, line: Addr, wake: impl FnMut(T)) -> usize {
        let Some(mut list) = self.entries.remove(&line.get()) else {
            return 0;
        };
        let waiters = list.len();
        self.parked -= waiters;
        if self.parked == 0 {
            self.longest = 0;
        }
        list.drain(..).for_each(wake);
        if self.spare.capacity() == 0 {
            self.spare.reserve_exact(self.config.entries);
        }
        self.spare.push(list);
        waiters
    }

    // ---- audit accessors (used by the simulator's invariant sanitizer) ----

    /// Total waiters parked across all merge lists (primary misses travel
    /// downstream and are not counted).
    pub fn waiters(&self) -> usize {
        debug_assert_eq!(
            self.parked,
            self.entries.values().map(Vec::len).sum::<usize>()
        );
        self.parked
    }

    /// Every parked waiter, list by list (in no fixed order across lists).
    pub fn iter_waiters(&self) -> impl Iterator<Item = &T> {
        self.entries.values().flatten()
    }

    /// Length of the longest merge list, zero when empty. With nothing
    /// parked — the common case the per-cycle audit meets — no list is
    /// walked.
    pub fn max_list_len(&self) -> usize {
        if self.waiters() == 0 {
            return 0;
        }
        self.entries.values().map(Vec::len).max().unwrap_or(0)
    }

    /// The longest merge list's length if it exceeds `limit`. The per-cycle
    /// audit asks this with the merge limit, which no list can exceed
    /// while the kept bound on the longest list is within it: then no list
    /// is walked.
    pub fn longest_over(&self, limit: usize) -> Option<usize> {
        debug_assert!(self.longest >= self.max_list_len(), "merge-list bound");
        if self.longest <= limit {
            return None;
        }
        Some(self.max_list_len()).filter(|&n| n > limit)
    }

    /// The outstanding line addresses, sorted (for reproducible reports).
    pub fn pending_lines(&self) -> Vec<Addr> {
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        lines.into_iter().map(Addr::new).collect()
    }

    /// Bitmask of the sectors of the `line_size`-byte line at `line` (line
    /// aligned) that have fills outstanding, when the table is keyed at
    /// `sector_bytes` granularity (bit `i` = sector `i`). A sectored
    /// pipeline keys its table by sector-aligned addresses, so several
    /// sectors of one line can be in flight at once; an unsectored table
    /// (`sector_bytes == line_size`) yields mask 0 or 1.
    pub fn pending_sector_mask(&self, line: Addr, line_size: u64, sector_bytes: u64) -> u32 {
        let base = line.get();
        let sectors = (line_size / sector_bytes).min(32);
        let mut mask = 0u32;
        for s in 0..sectors {
            if self.entries.contains_key(&(base + s * sector_bytes)) {
                mask |= 1 << s;
            }
        }
        mask
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the outstanding entries in line-address order (the table
    /// is a hash map, so iteration order must be pinned for deterministic
    /// snapshots). The waiter payload is caller-defined, hence the encode
    /// callback.
    pub fn encode_state_with(
        &self,
        e: &mut gpu_snapshot::Encoder,
        mut enc: impl FnMut(&T, &mut gpu_snapshot::Encoder),
    ) {
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        e.usize(lines.len());
        for line in lines {
            e.u64(line);
            let waiters = &self.entries[&line];
            e.usize(waiters.len());
            for w in waiters {
                enc(w, e);
            }
        }
    }

    /// Replaces this table's entries with a decoded checkpoint, using `dec`
    /// to read each waiter.
    ///
    /// # Errors
    ///
    /// Rejects snapshots that violate this table's configured capacity or
    /// merge limit, duplicate lines, and propagates decoder errors.
    pub fn restore_state_with(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
        mut dec: impl FnMut(&mut gpu_snapshot::Decoder) -> Result<T, gpu_snapshot::SnapshotError>,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        // `clear` keeps the storage and drops its tombstones, so from here
        // `capacity() == 0` means the map never had storage.
        self.entries.clear();
        self.parked = 0;
        self.longest = 0;
        let n = d.usize()?;
        if n > self.config.entries {
            return Err(InvalidValue("MSHR entry count exceeds table capacity"));
        }
        if n > 0 {
            self.reserve_bound();
        }
        for _ in 0..n {
            let line = d.u64()?;
            let m = d.usize()?;
            if m > self.config.max_merged {
                return Err(InvalidValue("MSHR merge list exceeds max_merged"));
            }
            let mut waiters = Vec::with_capacity(m);
            for _ in 0..m {
                waiters.push(dec(d)?);
            }
            if self.entries.insert(line, waiters).is_some() {
                return Err(InvalidValue("duplicate MSHR line in snapshot"));
            }
        }
        self.parked = self.entries.values().map(Vec::len).sum();
        self.longest = self.entries.values().map(Vec::len).max().unwrap_or(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize, merged: usize) -> MshrTable<u32> {
        MshrTable::new(MshrConfig {
            entries,
            max_merged: merged,
        })
    }

    #[test]
    fn allocate_merge_fill_lifecycle() {
        let mut m = table(2, 4);
        let line = Addr::new(0x1000);
        assert!(!m.is_pending(line));
        assert!(m.allocate(line));
        assert!(m.is_pending(line));
        assert_eq!(m.try_merge(line, 11), Ok(()));
        assert_eq!(m.try_merge(line, 12), Ok(()));
        assert_eq!(m.fill(line), vec![11, 12]);
        assert!(!m.is_pending(line));
        assert!(m.is_empty());
    }

    #[test]
    fn table_exhaustion_blocks_allocation() {
        let mut m = table(2, 4);
        assert!(m.allocate(Addr::new(0x000)));
        assert!(m.allocate(Addr::new(0x080)));
        assert!(!m.can_allocate());
        assert!(!m.allocate(Addr::new(0x100)));
        // Merging into existing entries still works while full.
        assert_eq!(m.try_merge(Addr::new(0x000), 4), Ok(()));
        m.fill(Addr::new(0x000));
        assert!(m.allocate(Addr::new(0x100)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merge_limit_rejects() {
        let mut m = table(4, 2);
        let line = Addr::new(0x200);
        assert!(m.allocate(line));
        assert_eq!(m.try_merge(line, 1), Ok(()));
        assert_eq!(m.try_merge(line, 2), Ok(()));
        assert_eq!(m.try_merge(line, 3), Err(3));
    }

    #[test]
    fn merge_on_unknown_line_rejects() {
        let mut m = table(4, 2);
        assert_eq!(m.try_merge(Addr::new(0x300), 9), Err(9));
    }

    #[test]
    fn fill_of_unknown_line_is_empty() {
        let mut m = table(1, 1);
        assert!(m.fill(Addr::new(0x42)).is_empty());
    }

    #[test]
    #[should_panic(expected = "merge instead")]
    fn double_allocate_panics() {
        let mut m = table(2, 2);
        let line = Addr::new(0x80);
        m.allocate(line);
        m.allocate(line);
    }

    #[test]
    fn merge_at_table_capacity_still_works() {
        // A full table blocks new allocations but must keep accepting
        // merges on its existing lines up to each line's merge limit.
        let mut m = table(1, 2);
        let line = Addr::new(0x000);
        assert!(m.allocate(line));
        assert!(!m.can_allocate());
        assert!(m.can_merge(line));
        assert_eq!(m.try_merge(line, 1), Ok(()));
        assert_eq!(m.try_merge(line, 2), Ok(()));
        assert!(!m.can_merge(line), "merge list is at max_merged");
        assert_eq!(m.try_merge(line, 3), Err(3));
        assert_eq!(m.fill(line), vec![1, 2]);
    }

    #[test]
    fn allocate_after_full_succeeds_only_after_release() {
        let mut m = table(2, 1);
        assert!(m.allocate(Addr::new(0x000)));
        assert!(m.allocate(Addr::new(0x080)));
        assert!(!m.allocate(Addr::new(0x100)), "table full: must stall");
        // The failed allocation must not have touched the table.
        assert!(!m.is_pending(Addr::new(0x100)));
        assert_eq!(m.len(), 2);
        m.fill(Addr::new(0x080));
        assert!(m.allocate(Addr::new(0x100)));
        assert!(m.is_pending(Addr::new(0x100)));
    }

    #[test]
    fn release_of_unknown_line_is_harmless() {
        let mut m = table(2, 2);
        assert!(m.allocate(Addr::new(0x200)));
        // Filling a line the table never saw returns no waiters and leaves
        // the genuine entry untouched.
        assert!(m.fill(Addr::new(0x999)).is_empty());
        assert_eq!(m.len(), 1);
        assert!(m.is_pending(Addr::new(0x200)));
    }

    #[test]
    fn mshr_codec_round_trips_in_sorted_order() {
        let mut m = table(4, 3);
        m.allocate(Addr::new(0x300));
        m.allocate(Addr::new(0x100));
        m.try_merge(Addr::new(0x300), 7).unwrap();
        m.try_merge(Addr::new(0x300), 8).unwrap();
        m.try_merge(Addr::new(0x100), 9).unwrap();

        let mut e = gpu_snapshot::Encoder::new();
        m.encode_state_with(&mut e, |w, e| e.u32(*w));
        let framed = e.finish();

        let mut restored = table(4, 3);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state_with(&mut d, |d| d.u32()).unwrap();
        d.expect_end().unwrap();

        assert_eq!(restored.len(), 2);
        assert_eq!(restored.fill(Addr::new(0x300)), vec![7, 8]);
        assert_eq!(restored.fill(Addr::new(0x100)), vec![9]);

        // Encoding twice from the same state is deterministic despite the
        // hash-map backing store.
        let mut e2 = gpu_snapshot::Encoder::new();
        m.encode_state_with(&mut e2, |w, e| e.u32(*w));
        assert_eq!(e2.finish(), framed);
    }

    #[test]
    fn mshr_restore_rejects_over_capacity() {
        let mut big = table(4, 4);
        for i in 0..3 {
            big.allocate(Addr::new(i * 0x80));
        }
        let mut e = gpu_snapshot::Encoder::new();
        big.encode_state_with(&mut e, |w, e| e.u32(*w));
        let framed = e.finish();
        let mut small = table(2, 4);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            small.restore_state_with(&mut d, |d| d.u32()),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    fn pending_sector_mask_reports_in_flight_sectors() {
        let mut m = table(8, 2);
        // A sectored pipeline keys the table by 32 B sector addresses.
        m.allocate(Addr::new(0x1000)); // sector 0 of line 0x1000
        m.allocate(Addr::new(0x1060)); // sector 3 of line 0x1000
        m.allocate(Addr::new(0x1080)); // sector 0 of the *next* line
        assert_eq!(m.pending_sector_mask(Addr::new(0x1000), 128, 32), 0b1001);
        assert_eq!(m.pending_sector_mask(Addr::new(0x1080), 128, 32), 0b0001);
        assert_eq!(m.pending_sector_mask(Addr::new(0x2000), 128, 32), 0);
        // Unsectored degenerate case: one "sector" per line.
        assert_eq!(m.pending_sector_mask(Addr::new(0x1000), 128, 128), 1);
        m.fill(Addr::new(0x1060));
        assert_eq!(m.pending_sector_mask(Addr::new(0x1000), 128, 32), 0b0001);
    }

    #[test]
    fn audit_accessors_track_occupancy() {
        let mut m = table(4, 3);
        assert_eq!(m.waiters(), 0);
        assert_eq!(m.max_list_len(), 0);
        assert!(m.pending_lines().is_empty());
        m.allocate(Addr::new(0x300));
        m.allocate(Addr::new(0x100));
        assert_eq!(m.try_merge(Addr::new(0x300), 7), Ok(()));
        assert_eq!(m.try_merge(Addr::new(0x300), 8), Ok(()));
        assert_eq!(m.try_merge(Addr::new(0x100), 9), Ok(()));
        assert_eq!(m.waiters(), 3);
        assert_eq!(m.max_list_len(), 2);
        assert_eq!(
            m.pending_lines(),
            vec![Addr::new(0x100), Addr::new(0x300)],
            "lines come back sorted"
        );
        m.fill(Addr::new(0x300));
        assert_eq!(m.waiters(), 1);
        assert_eq!(m.max_list_len(), 1);
    }
}
