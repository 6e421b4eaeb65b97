//! Randomized tests for the memory substrates, driven by the workspace's
//! hermetic [`gpu_types::rng`] (fixed seeds, fully reproducible): the
//! set-associative cache against a reference model, the address map's
//! bijectivity, MSHR bookkeeping, and device-memory round trips.

use gpu_mem::{
    AddressMap, Cache, CacheConfig, DeviceMemory, LoadOutcome, MshrConfig, MshrTable, Replacement,
};
use gpu_types::rng::Rng;
use gpu_types::Addr;
use std::collections::HashMap;

/// Straightforward reference model of an LRU set-associative tag array.
struct RefCache {
    sets: usize,
    ways: usize,
    line: u64,
    // per set: Vec of tags, most-recent last
    content: HashMap<usize, Vec<u64>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line: u64) -> Self {
        RefCache {
            sets,
            ways,
            line,
            content: HashMap::new(),
        }
    }
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let l = addr / self.line;
        ((l as usize) % self.sets, l / self.sets as u64)
    }
    fn load(&mut self, addr: u64) -> bool {
        let (s, t) = self.set_and_tag(addr);
        let set = self.content.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&x| x == t) {
            set.remove(pos);
            set.push(t);
            true
        } else {
            false
        }
    }
    fn fill(&mut self, addr: u64) {
        let (s, t) = self.set_and_tag(addr);
        let ways = self.ways;
        let set = self.content.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&x| x == t) {
            set.remove(pos);
        } else if set.len() == ways {
            set.remove(0); // evict LRU
        }
        set.push(t);
    }
    fn store_invalidate(&mut self, addr: u64) {
        let (s, t) = self.set_and_tag(addr);
        if let Some(set) = self.content.get_mut(&s) {
            set.retain(|&x| x != t);
        }
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Load(u64),
    Fill(u64),
    StoreInvalidate(u64),
}

fn gen_cache_ops(rng: &mut Rng) -> Vec<CacheOp> {
    // Confine addresses to a small region so sets/ways actually collide.
    let len = rng.gen_range_usize(0, 300);
    (0..len)
        .map(|_| {
            let a = rng.gen_range_u64(0, 8192);
            match rng.gen_range_u32(0, 3) {
                0 => CacheOp::Load(a),
                1 => CacheOp::Fill(a),
                _ => CacheOp::StoreInvalidate(a),
            }
        })
        .collect()
}

const CASES: u64 = 256;

/// The LRU cache agrees with the reference model on every hit/miss,
/// as long as no fills are outstanding (reservations are exercised by
/// the pipeline tests).
#[test]
fn lru_cache_matches_reference() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x000C_AC4E_0000 + case);
        let sets = 1usize << rng.gen_range_u32(0, 4);
        let ways = rng.gen_range_usize(1, 5);
        let ops = gen_cache_ops(&mut rng);
        let mut cache = Cache::new(CacheConfig {
            sets,
            ways,
            line_size: 128,
            replacement: Replacement::Lru,
        });
        let mut model = RefCache::new(sets, ways, 128);
        for op in ops {
            match op {
                CacheOp::Load(a) => {
                    let got = cache.load(Addr::new(a)) == LoadOutcome::Hit;
                    let want = model.load(a);
                    assert_eq!(got, want, "case {case}: load {a:#x}");
                }
                CacheOp::Fill(a) => {
                    cache.fill(Addr::new(a));
                    model.fill(a);
                }
                CacheOp::StoreInvalidate(a) => {
                    cache.store_invalidate(Addr::new(a));
                    model.store_invalidate(a);
                }
            }
        }
    }
}

/// Partition + local address uniquely reconstructs the device address:
/// the mapping loses no information and partitions tile the space.
#[test]
fn address_map_is_injective() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xADD2_0000 + case);
        let partitions = rng.gen_range_usize(1, 9);
        let banks = rng.gen_range_usize(1, 17);
        let n_addrs = rng.gen_range_usize(1, 100);
        let addrs: Vec<u64> = (0..n_addrs)
            .map(|_| rng.gen_range_u64(0, 1_000_000))
            .collect();
        let map = AddressMap::new(partitions, 256, banks, 2048);
        let mut seen: HashMap<(u32, u64), u64> = HashMap::new();
        for &a in &addrs {
            let key = (
                map.partition_of(Addr::new(a)).get(),
                map.local_addr(Addr::new(a)),
            );
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(
                    prev, a,
                    "case {case}: two addresses map to same (partition, local)"
                );
            }
            seen.insert(key, a);
            assert!(map.bank_of(Addr::new(a)) < banks, "case {case}");
        }
    }
}

/// Consecutive chunks rotate across all partitions evenly.
#[test]
fn partitions_interleave_uniformly() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1A7E_0000 + case);
        let partitions = rng.gen_range_usize(1, 9);
        let chunks = rng.gen_range_u64(1, 64);
        let map = AddressMap::new(partitions, 256, 8, 2048);
        let mut counts = vec![0u64; partitions];
        for c in 0..chunks * partitions as u64 {
            counts[map.partition_of(Addr::new(c * 256)).index()] += 1;
        }
        for &c in &counts {
            assert_eq!(c, chunks, "case {case}");
        }
    }
}

/// MSHR: waiters come back exactly once, in order, and entry count
/// never exceeds the configured capacity.
#[test]
fn mshr_conserves_waiters() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x354_0000 + case);
        let entries = rng.gen_range_usize(1, 8);
        let max_merged = rng.gen_range_usize(1, 8);
        let n_lines = rng.gen_range_usize(1, 100);
        let lines: Vec<u64> = (0..n_lines).map(|_| rng.gen_range_u64(0, 16)).collect();
        let mut mshr: MshrTable<u64> = MshrTable::new(MshrConfig {
            entries,
            max_merged,
        });
        let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut ticket = 0u64;
        for line in lines {
            let addr = Addr::new(line * 128);
            if mshr.is_pending(addr) {
                let t = ticket;
                ticket += 1;
                match mshr.try_merge(addr, t) {
                    Ok(()) => expected.entry(line).or_default().push(t),
                    Err(_) => {
                        assert!(!mshr.can_merge(addr), "case {case}");
                        // Full merge list: fill the line and retry later.
                        let got = mshr.fill(addr);
                        assert_eq!(
                            got,
                            expected.remove(&line).unwrap_or_default(),
                            "case {case}"
                        );
                    }
                }
            } else if mshr.allocate(addr) {
                expected.insert(line, Vec::new());
            } else {
                assert!(!mshr.can_allocate(), "case {case}");
                // Drain one arbitrary pending line to make room.
                if let Some((&l, _)) = expected.iter().next() {
                    let got = mshr.fill(Addr::new(l * 128));
                    assert_eq!(got, expected.remove(&l).unwrap_or_default(), "case {case}");
                }
            }
            assert!(mshr.len() <= entries, "case {case}");
        }
        // Drain everything left.
        let keys: Vec<u64> = expected.keys().copied().collect();
        for l in keys {
            let got = mshr.fill(Addr::new(l * 128));
            assert_eq!(got, expected.remove(&l).unwrap(), "case {case}");
        }
        assert!(mshr.is_empty(), "case {case}");
    }
}

/// Device memory: last write wins, reads never tear across pages.
#[test]
fn device_memory_read_your_writes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD3A_0000 + case);
        let n_writes = rng.gen_range_usize(1, 200);
        let writes: Vec<(u64, u32)> = (0..n_writes)
            .map(|_| (rng.gen_range_u64(0, 20_000), rng.next_u32()))
            .collect();
        let mut mem = DeviceMemory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(a, v) in &writes {
            mem.write_u32(Addr::new(a), v);
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                model.insert(a + i as u64, *b);
            }
        }
        for &(a, _) in &writes {
            let mut want = [0u8; 4];
            for (i, b) in want.iter_mut().enumerate() {
                *b = *model.get(&(a + i as u64)).unwrap_or(&0);
            }
            assert_eq!(
                mem.read_u32(Addr::new(a)),
                u32::from_le_bytes(want),
                "case {case}: read {a:#x}"
            );
        }
    }
}

/// Device memory as it was before accesses resolved their page once: a map
/// of pages read and written one byte at a time, a page made resident by
/// the first byte stored to it, whatever its value.
#[derive(Default)]
struct ByteMemory {
    pages: std::collections::BTreeMap<u64, Vec<u8>>,
    next: u64,
}

impl ByteMemory {
    const PAGE: u64 = 4096;

    fn read_le(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let a = addr + i;
            let byte = self
                .pages
                .get(&(a / Self::PAGE))
                .map_or(0, |p| p[(a % Self::PAGE) as usize]);
            v | u64::from(byte) << (8 * i)
        })
    }

    fn write_le(&mut self, addr: u64, n: u64, value: u64) {
        for i in 0..n {
            let a = addr + i;
            let page = self
                .pages
                .entry(a / Self::PAGE)
                .or_insert_with(|| vec![0; Self::PAGE as usize]);
            page[(a % Self::PAGE) as usize] = (value >> (8 * i)) as u8;
        }
    }

    fn hash(&self) -> u64 {
        let mut h = gpu_snapshot::StableHasher::new();
        h.u64(self.next);
        h.usize(self.pages.len());
        for (&i, page) in &self.pages {
            h.u64(i);
            h.bytes(page);
        }
        h.finish()
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = gpu_snapshot::Encoder::new();
        e.u64(self.next);
        e.usize(self.pages.len());
        for (&i, page) in &self.pages {
            e.u64(i);
            e.bytes(page);
        }
        e.finish()
    }
}

/// Word-granular device memory against the byte-at-a-time model: random
/// widths 0–8 at addresses crowded around page boundaries, stores of zero
/// (which must still make their page resident), `fetch_add` and the slice
/// helpers all read back alike and leave the same `hash_state` and
/// `encode_state`. There are more pages than a case has stores, so which
/// pages are resident depends on single accesses.
#[test]
fn device_memory_matches_a_byte_at_a_time_model() {
    const PAGES: u64 = 96;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD3B_0000 + case);
        let mut mem = DeviceMemory::new();
        let mut model = ByteMemory::default();
        let bytes = rng.gen_range_u64(1, 9000);
        model.next = mem.alloc(bytes, 128).get() + bytes;
        // Mostly a few words; now and then enough to cross two boundaries.
        let slice_len = |rng: &mut Rng| match rng.gen_range_u32(0, 8) {
            0 => rng.gen_range_usize(1024, 2200),
            _ => rng.gen_range_usize(0, 6),
        };
        for step in 0..120 {
            let what = format!("case {case} step {step}");
            // Two accesses in three start within eight bytes of a page
            // boundary, so many straddle it and many end exactly on it.
            let page = rng.gen_range_u64(0, PAGES) * ByteMemory::PAGE;
            let addr = if rng.gen_range_u32(0, 3) > 0 {
                page + ByteMemory::PAGE - 8 + rng.gen_range_u64(0, 10)
            } else {
                page + rng.gen_range_u64(0, ByteMemory::PAGE)
            };
            let n = rng.gen_range_u64(0, 9);
            let value = if rng.gen_range_u32(0, 4) == 0 {
                0
            } else {
                rng.next_u64()
            };
            let at = Addr::new(addr);
            match rng.gen_range_u32(0, 5) {
                0 => {
                    mem.write_le(at, n, value);
                    model.write_le(addr, n, value);
                }
                1 => {
                    let old = model.read_le(addr, n);
                    assert_eq!(mem.fetch_add(at, n, value), old, "{what}");
                    model.write_le(addr, n, old.wrapping_add(value));
                }
                2 => {
                    let words: Vec<u32> = (0..slice_len(&mut rng))
                        .map(|_| if value == 0 { 0 } else { rng.next_u32() })
                        .collect();
                    mem.write_u32_slice(at, &words);
                    for (i, &w) in words.iter().enumerate() {
                        model.write_le(addr + 4 * i as u64, 4, u64::from(w));
                    }
                }
                3 => {
                    let len = slice_len(&mut rng);
                    let want: Vec<u32> = (0..len)
                        .map(|i| model.read_le(addr + 4 * i as u64, 4) as u32)
                        .collect();
                    assert_eq!(mem.read_u32_slice(at, len), want, "{what}");
                }
                _ => {}
            }
            assert_eq!(mem.read_le(at, n), model.read_le(addr, n), "{what}");
        }
        let mut h = gpu_snapshot::StableHasher::new();
        mem.hash_state(&mut h);
        assert_eq!(h.finish(), model.hash(), "case {case}: hash_state");
        let mut e = gpu_snapshot::Encoder::new();
        mem.encode_state(&mut e);
        assert_eq!(e.finish(), model.encode(), "case {case}: encode_state");
    }
}
