//! Functional device memory: a sparse byte-addressable backing store with a
//! bump allocator, playing the role of the GPU's DRAM contents.
//!
//! Timing is *not* modeled here — this is the architectural state that the
//! functional executor reads and writes at issue time. The timing models
//! (`cache`, `dram`, the `gpu-sim` pipeline) only ever see addresses.

use std::collections::BTreeMap;

use gpu_types::Addr;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Splits an address into its page index and the byte offset inside it.
fn split(addr: Addr) -> (u64, usize) {
    let a = addr.get();
    (a >> PAGE_SHIFT, a as usize & (PAGE_SIZE - 1))
}

/// Sparse functional device memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use gpu_mem::DeviceMemory;
///
/// let mut mem = DeviceMemory::new();
/// let buf = mem.alloc(1024, 128);
/// mem.write_u32(buf, 0xdead_beef);
/// assert_eq!(mem.read_u32(buf), 0xdead_beef);
/// ```
#[derive(Debug)]
pub struct DeviceMemory {
    /// Resident pages by page index. Ordered: a decoded snapshot chooses
    /// the keys, and hashing and encoding walk them in address order.
    pages: BTreeMap<u64, Box<[u8]>>,
    next: u64,
}

impl Default for DeviceMemory {
    /// The same empty memory as [`DeviceMemory::new`]: allocation starts at
    /// the arena base, so address 0 is never handed out.
    fn default() -> Self {
        DeviceMemory::new()
    }
}

impl DeviceMemory {
    /// Base of the allocation arena. Non-zero so that address 0 stays an
    /// "invalid pointer" for kernels.
    const ARENA_BASE: u64 = 0x1_0000;

    /// Creates an empty device memory.
    pub fn new() -> Self {
        DeviceMemory {
            pages: BTreeMap::new(),
            next: Self::ARENA_BASE,
        }
    }

    /// Allocates `bytes` with the given power-of-two `align`ment and returns
    /// the region's base address. Memory is zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = Addr::new(self.next).align_up(align);
        self.next = base.get() + bytes;
        base
    }

    /// Bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - Self::ARENA_BASE
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        self.pages
            .entry(page)
            .or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Reads `n <= 8` bytes little-endian. An access inside one page
    /// resolves that page once; one that straddles two goes byte by byte.
    pub fn read_le(&self, addr: Addr, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let (page, off) = split(addr);
        let n = n as usize;
        let mut bytes = [0u8; 8];
        if off + n > PAGE_SIZE {
            for (i, b) in bytes[..n].iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
        } else if let Some(p) = self.pages.get(&page) {
            bytes[..n].copy_from_slice(&p[off..off + n]);
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `n <= 8` bytes of `value` little-endian, with the
    /// same one page lookup as [`DeviceMemory::read_le`]. A store makes its
    /// page resident whatever the value: zero is stored, not skipped.
    pub fn write_le(&mut self, addr: Addr, n: u64, value: u64) {
        debug_assert!(n <= 8);
        let (page, off) = split(addr);
        let n = n as usize;
        let bytes = value.to_le_bytes();
        if off + n > PAGE_SIZE {
            for (i, b) in bytes[..n].iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        } else if n > 0 {
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[..n]);
        }
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write_le(addr, 4, value as u64);
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Copies a `u32` slice into device memory starting at `addr`: one page
    /// lookup for each run of words inside a page, one
    /// [`DeviceMemory::write_u32`] for a word that straddles two.
    pub fn write_u32_slice(&mut self, mut addr: Addr, mut values: &[u32]) {
        while let Some(&first) = values.first() {
            let (page, off) = split(addr);
            let run = ((PAGE_SIZE - off) / 4).min(values.len());
            if run == 0 {
                self.write_u32(addr, first);
                (addr, values) = (addr + 4, &values[1..]);
                continue;
            }
            let words = self.page_mut(page)[off..off + 4 * run].chunks_exact_mut(4);
            for (word, v) in words.zip(values) {
                word.copy_from_slice(&v.to_le_bytes());
            }
            (addr, values) = (addr + 4 * run as u64, &values[run..]);
        }
    }

    /// Reads `len` consecutive `u32`s starting at `addr`, with the page
    /// lookups of [`DeviceMemory::write_u32_slice`].
    pub fn read_u32_slice(&self, mut addr: Addr, len: usize) -> Vec<u32> {
        let mut values = Vec::with_capacity(len);
        while values.len() < len {
            let (page, off) = split(addr);
            let run = ((PAGE_SIZE - off) / 4).min(len - values.len());
            if run == 0 {
                values.push(self.read_u32(addr));
                addr = addr + 4;
                continue;
            }
            match self.pages.get(&page) {
                Some(p) => values.extend(
                    p[off..off + 4 * run]
                        .chunks_exact(4)
                        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
                ),
                None => values.resize(values.len() + run, 0),
            }
            addr = addr + 4 * run as u64;
        }
        values
    }

    /// Atomically (functionally) adds to the `n`-byte word at `addr`,
    /// returning the previous value.
    pub fn fetch_add(&mut self, addr: Addr, n: u64, value: u64) -> u64 {
        debug_assert!(n <= 8);
        let (page, off) = split(addr);
        let n = n as usize;
        if off + n > PAGE_SIZE || n == 0 {
            let old = self.read_le(addr, n as u64);
            self.write_le(addr, n as u64, old.wrapping_add(value));
            return old;
        }
        let word = &mut self.page_mut(page)[off..off + n];
        let mut bytes = [0u8; 8];
        bytes[..n].copy_from_slice(word);
        let old = u64::from_le_bytes(bytes);
        word.copy_from_slice(&old.wrapping_add(value).to_le_bytes()[..n]);
        old
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the allocator cursor and every resident page in address
    /// order (the map's own).
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.u64(self.next);
        e.usize(self.pages.len());
        for (&i, page) in &self.pages {
            e.u64(i);
            e.bytes(page);
        }
    }

    /// Overwrites this memory's contents with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects pages of the wrong size or duplicated page indices, and
    /// propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        self.next = d.u64()?;
        self.pages.clear();
        for _ in 0..d.usize()? {
            let index = d.u64()?;
            let bytes = d.bytes()?;
            if bytes.len() != PAGE_SIZE {
                return Err(InvalidValue("device page has wrong size"));
            }
            if self
                .pages
                .insert(index, bytes.to_vec().into_boxed_slice())
                .is_some()
            {
                return Err(InvalidValue("duplicate device page in snapshot"));
            }
        }
        Ok(())
    }

    /// Folds the functional memory image (allocator cursor plus every
    /// resident page, in address order) into a stable content hash — the
    /// workload-inputs half of a run's `content_hash`.
    pub fn hash_state(&self, h: &mut gpu_snapshot::StableHasher) {
        h.u64(self.next);
        h.usize(self.pages.len());
        for (&i, page) in &self.pages {
            h.u64(i);
            h.bytes(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_disjointness() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(100, 128);
        let b = m.alloc(16, 128);
        assert!(a.is_aligned(128));
        assert!(b.is_aligned(128));
        assert!(b.get() >= a.get() + 100);
        assert!(a.get() > 0, "null page must stay unallocated");
    }

    #[test]
    fn a_default_memory_allocates_like_a_new_one() {
        let mut d = DeviceMemory::default();
        let mut n = DeviceMemory::new();
        let first = d.alloc(64, 128);
        assert!(first.get() > 0, "a default memory handed out address 0");
        assert_eq!(first, n.alloc(64, 128));
        assert_eq!(d.allocated_bytes(), n.allocated_bytes());
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut m = DeviceMemory::new();
        let boundary = Addr::new((1 << PAGE_SHIFT) - 2);
        m.write_u32(boundary, 0xa1b2_c3d4);
        assert_eq!(m.read_u32(boundary), 0xa1b2_c3d4);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = DeviceMemory::new();
        assert_eq!(m.read_u64(Addr::new(0x5000)), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = DeviceMemory::new();
        m.write_u64(Addr::new(0x100), u64::MAX - 3);
        assert_eq!(m.read_u64(Addr::new(0x100)), u64::MAX - 3);
    }

    #[test]
    fn slice_helpers() {
        let mut m = DeviceMemory::new();
        let buf = m.alloc(64, 4);
        m.write_u32_slice(buf, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32_slice(buf, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fetch_add_returns_old() {
        let mut m = DeviceMemory::new();
        let c = m.alloc(4, 4);
        assert_eq!(m.fetch_add(c, 4, 5), 0);
        assert_eq!(m.fetch_add(c, 4, 7), 5);
        assert_eq!(m.read_u32(c), 12);
    }

    #[test]
    fn device_codec_round_trips_sparse_pages() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(64, 128);
        m.write_u64(a, 0xFEED_F00D);
        m.write_u32(Addr::new(0x9_0000), 7); // page far from the arena

        let mut e = gpu_snapshot::Encoder::new();
        m.encode_state(&mut e);
        let framed = e.finish();

        let mut restored = DeviceMemory::new();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();

        assert_eq!(restored.read_u64(a), 0xFEED_F00D);
        assert_eq!(restored.read_u32(Addr::new(0x9_0000)), 7);
        assert_eq!(restored.allocated_bytes(), m.allocated_bytes());
        // The allocator cursor survives: the next alloc lands identically.
        assert_eq!(restored.alloc(16, 16), m.alloc(16, 16));

        // Re-encode equality and stable hashing agree between the copies.
        let mut h1 = gpu_snapshot::StableHasher::new();
        let mut h2 = gpu_snapshot::StableHasher::new();
        m.hash_state(&mut h1);
        restored.hash_state(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn allocated_bytes_tracks_bump() {
        let mut m = DeviceMemory::new();
        assert_eq!(m.allocated_bytes(), 0);
        m.alloc(10, 1);
        assert_eq!(m.allocated_bytes(), 10);
    }
}
