//! A counting global allocator shared by the allocation-freedom suites
//! (`no_alloc`, `profile_no_alloc`, and the simulator's, memory system's and
//! executor's through `#[path]`): `mod common;` installs it for the whole
//! test binary. It counts allocations and the bytes they ask for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per-thread, so sibling `#[test]`s and the harness's own threads
    /// allocating concurrently cannot leak into the measuring thread's
    /// before/after delta. Const-initialised and destructor-free: touching
    /// it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for by the calling thread: each allocation's size plus
    /// each reallocation's growth. Frees are not subtracted.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the slot is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
#[allow(dead_code)]
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has asked for so far (allocation sizes plus
/// reallocation growth).
#[allow(dead_code)]
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
