//! The one store of a machine's in-flight memory requests.
//!
//! A [`MemRequest`] is created once, at issue, and lives in its GPU's
//! [`RequestTable`] until it retires. Every queue, pipe, network port and
//! MSHR merge list on its way holds a [`ReqHandle`] — four bytes — instead
//! of the record, and whoever holds the handle stamps the record in the
//! table (DESIGN.md, "A request is stored once"). The DRAM controllers are
//! the exception: their API takes requests by value, so a partition lends a
//! record out of the table when it enqueues it and takes it back when the
//! channel completes it.

use std::ops::{Index, IndexMut};

use gpu_mem::MemRequest;

/// Where a request's record sits in its GPU's [`RequestTable`]: what the
/// pipeline structures carry. Its value says only which slot holds the
/// record, so it never reaches a model decision, an ordering, a hash or a
/// snapshot — a snapshot writes the record where its handle sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqHandle(u32);

/// End of the free list.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
enum Slot {
    Live(MemRequest),
    /// A freed slot, linking to the next free one.
    Free(u32),
}

/// A slab of request records with a free list. It holds no storage before
/// its first request and grows only when every slot is live, so it reaches
/// the peak number of requests in flight at once and stays there: a freed
/// slot is the next one handed out.
#[derive(Debug)]
pub struct RequestTable {
    slots: Vec<Slot>,
    /// The most recently freed slot ([`NONE`]: none is free).
    free: u32,
    live: u64,
    /// Records out on loan to the DRAM controllers ([`RequestTable::lend`]).
    lent: u64,
}

impl Default for RequestTable {
    fn default() -> Self {
        RequestTable::new()
    }
}

impl RequestTable {
    /// An empty table. It allocates nothing until its first insert.
    pub fn new() -> Self {
        RequestTable {
            slots: Vec::new(),
            free: NONE,
            live: 0,
            lent: 0,
        }
    }

    /// Stores `req` and returns its handle.
    pub fn insert(&mut self, req: MemRequest) -> ReqHandle {
        self.live += 1;
        if self.free == NONE {
            let at = u32::try_from(self.slots.len()).expect("request table overflow");
            assert_ne!(at, NONE, "request table overflow");
            self.slots.push(Slot::Live(req));
            return ReqHandle(at);
        }
        let at = self.free;
        let slot = &mut self.slots[at as usize];
        let Slot::Free(next) = *slot else {
            unreachable!("the free list links free slots");
        };
        self.free = next;
        *slot = Slot::Live(req);
        ReqHandle(at)
    }

    /// Takes the record out of the table and frees its slot: the request
    /// retires, or leaves for a DRAM channel ([`RequestTable::lend`]).
    ///
    /// # Panics
    ///
    /// Panics if `h`'s slot is free.
    pub fn remove(&mut self, h: ReqHandle) -> MemRequest {
        let slot = &mut self.slots[h.0 as usize];
        let Slot::Live(req) = std::mem::replace(slot, Slot::Free(self.free)) else {
            panic!("request handle {} read after its slot was freed", h.0);
        };
        self.free = h.0;
        self.live -= 1;
        req
    }

    /// Moves the record out to a DRAM controller, which owns the requests
    /// it serves; [`RequestTable::reclaim`] takes it back at completion.
    /// The handle is dead from here on.
    pub fn lend(&mut self, h: ReqHandle) -> MemRequest {
        self.lent += 1;
        self.remove(h)
    }

    /// Stores a record a DRAM controller completed, under a new handle.
    pub fn reclaim(&mut self, req: MemRequest) -> ReqHandle {
        self.lent -= 1;
        self.insert(req)
    }

    /// Records in the table.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Records out on loan to the DRAM controllers.
    pub fn lent(&self) -> u64 {
        self.lent
    }

    /// Requests in flight: the records in the table and those on loan —
    /// the one count of them the machine keeps.
    pub fn in_flight(&self) -> u64 {
        self.live + self.lent
    }

    /// Sets the loan count of a restored machine, whose DRAM controllers
    /// decoded their requests themselves.
    pub(crate) fn restore_lent(&mut self, lent: u64) {
        self.lent = lent;
    }

    /// Slots the table has grown to: the most records it has held at once.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

impl Index<ReqHandle> for RequestTable {
    type Output = MemRequest;

    /// # Panics
    ///
    /// Panics if `h`'s slot is free: a handle outlived its request.
    fn index(&self, h: ReqHandle) -> &MemRequest {
        match &self.slots[h.0 as usize] {
            Slot::Live(req) => req,
            Slot::Free(_) => panic!("request handle {} read after its slot was freed", h.0),
        }
    }
}

impl IndexMut<ReqHandle> for RequestTable {
    fn index_mut(&mut self, h: ReqHandle) -> &mut MemRequest {
        match &mut self.slots[h.0 as usize] {
            Slot::Live(req) => req,
            Slot::Free(_) => panic!("request handle {} read after its slot was freed", h.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{AccessKind, PipelineSpace, RequestId};
    use gpu_types::{Addr, Cycle, SmId};

    fn req(id: u64) -> MemRequest {
        MemRequest::new(
            RequestId::new(id),
            Addr::new(id * 128),
            128,
            AccessKind::Load,
            PipelineSpace::Global,
            SmId::new(0),
            id,
            Cycle::new(id),
        )
    }

    #[test]
    fn a_freed_slot_is_reused_before_the_table_grows() {
        let mut t = RequestTable::new();
        assert_eq!(t.slots(), 0);
        let a = t.insert(req(1));
        let b = t.insert(req(2));
        assert_eq!(t[a].id, RequestId::new(1));
        assert_eq!(t.remove(a).id, RequestId::new(1));
        let c = t.insert(req(3));
        assert_eq!(c, a, "the freed slot is handed out again");
        assert_eq!(t.slots(), 2);
        assert_eq!(t.live(), 2);
        assert_eq!(t[b].id, RequestId::new(2));
        assert_eq!(t[c].id, RequestId::new(3));
    }

    #[test]
    fn a_loan_leaves_the_live_count_and_comes_back() {
        let mut t = RequestTable::new();
        let a = t.insert(req(1));
        let out = t.lend(a);
        assert_eq!((t.live(), t.lent()), (0, 1));
        let back = t.reclaim(out);
        assert_eq!((t.live(), t.lent()), (1, 0));
        assert_eq!(t[back].id, RequestId::new(1));
    }

    #[test]
    #[should_panic(expected = "after its slot was freed")]
    fn reading_a_freed_slot_panics() {
        let mut t = RequestTable::new();
        let a = t.insert(req(1));
        t.insert(req(2));
        t.remove(a);
        let _ = &t[a];
    }

    /// What a pipeline queue stores per request, beside the record's own
    /// pin in `gpu_mem::request`: a `DelayQueue` entry is a ready cycle and
    /// a handle.
    #[test]
    fn a_queue_entry_is_a_cycle_and_a_handle() {
        assert!(std::mem::size_of::<(Cycle, ReqHandle)>() <= 16);
        assert_eq!(std::mem::size_of::<MemRequest>(), 136);
    }

    #[test]
    fn a_slot_is_no_larger_than_its_record() {
        assert_eq!(std::mem::size_of::<ReqHandle>(), 4);
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<MemRequest>()
        );
    }
}
