use std::collections::VecDeque;
use std::fmt;

use crate::Cycle;

/// Error returned when pushing into a full [`BoundedQueue`] or [`DelayQueue`].
///
/// Carries the rejected element back to the caller so it can be retried next
/// cycle — this is how back-pressure propagates upstream through the memory
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> PushError<T> {
    /// Returns the element that could not be enqueued.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A finite-capacity FIFO queue.
///
/// Every queue in the simulated memory pipeline (L1 miss queue, interconnect
/// ports, ROP queue, L2 queue, DRAM controller queue, return queues) is a
/// `BoundedQueue`. When a queue is full the producer must stall, which is the
/// mechanism by which *queueing latency* — one of the paper's two dominant
/// dynamic latency contributors — arises in the model.
///
/// # Examples
///
/// ```
/// use gpu_types::BoundedQueue;
///
/// let mut q = BoundedQueue::new(1);
/// q.push("req").unwrap();
/// let rejected = q.push("more").unwrap_err();
/// assert_eq!(rejected.into_inner(), "more");
/// assert_eq!(q.pop(), Some("req"));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a zero-capacity queue could never
    /// transport anything and always indicates a configuration bug.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Attempts to enqueue `item`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `item` back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        if self.items.len() >= self.capacity {
            Err(PushError(item))
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest element without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Returns the number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no elements are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if the queue cannot accept another element.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Iterates over queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// A FIFO whose entries only become poppable a fixed number of cycles after
/// they were pushed.
///
/// This models fixed-latency pipeline segments — e.g. the raster-operations
/// (ROP) pipeline in front of the L2, or interconnect zero-load traversal —
/// while still being a finite resource (entries occupy a slot for their whole
/// transit, so a saturated segment back-pressures its producer).
///
/// # Examples
///
/// ```
/// use gpu_types::{Cycle, DelayQueue};
///
/// let mut q = DelayQueue::new(4, 10);
/// q.push(Cycle::new(100), "pkt").unwrap();
/// assert_eq!(q.pop_ready(Cycle::new(109)), None);       // still in flight
/// assert_eq!(q.pop_ready(Cycle::new(110)), Some("pkt")); // delay elapsed
/// ```
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    items: VecDeque<(Cycle, T)>,
    capacity: usize,
    delay: u64,
}

impl<T> DelayQueue<T> {
    /// Creates a delay queue with the given slot `capacity` and fixed
    /// `delay` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, delay: u64) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DelayQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            delay,
        }
    }

    /// Attempts to enqueue `item` at time `now`; it becomes poppable at
    /// `now + delay`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `item` back if all slots are occupied.
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), PushError<T>> {
        if self.items.len() >= self.capacity {
            Err(PushError(item))
        } else {
            self.items.push_back((now + self.delay, item));
            Ok(())
        }
    }

    /// Pops the oldest element whose delay has elapsed by `now`, preserving
    /// FIFO order (a ready element behind a not-yet-ready one stays queued).
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        match self.items.front() {
            Some((ready_at, _)) if *ready_at <= now => self.items.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Peeks at the oldest element if its delay has elapsed by `now`.
    pub fn front_ready(&self, now: Cycle) -> Option<&T> {
        match self.items.front() {
            Some((ready_at, item)) if *ready_at <= now => Some(item),
            _ => None,
        }
    }

    /// The absolute cycle at which the head entry becomes poppable (`None`
    /// when nothing is in flight). The queue is strictly FIFO, so no
    /// [`DelayQueue::pop_ready`] can succeed before this cycle: it is the
    /// queue's next event for idle-cycle skipping.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.items.front().map(|(ready_at, _)| *ready_at)
    }

    /// Returns the number of in-flight elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if all slots are occupied.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Returns the configured fixed delay in cycles.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// Returns the configured slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over in-flight entries from oldest to newest as
    /// `(ready_at, item)` pairs — the raw state a snapshot must capture to
    /// reconstruct the queue exactly.
    pub fn entries(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.items.iter().map(|(at, item)| (*at, item))
    }

    /// Enqueues `item` with an explicit absolute ready time, bypassing the
    /// `now + delay` computation. This exists for snapshot restore: entries
    /// must re-enter the queue with their original ready times, in their
    /// original order.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `item` back if all slots are occupied.
    pub fn push_with_ready_at(&mut self, ready_at: Cycle, item: T) -> Result<(), PushError<T>> {
        if self.items.len() >= self.capacity {
            Err(PushError(item))
        } else {
            self.items.push_back((ready_at, item));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_order() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.push(99).unwrap_err().into_inner(), 99);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.free(), 2);
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn bounded_front_and_iter() {
        let mut q = BoundedQueue::new(2);
        q.push('a').unwrap();
        q.push('b').unwrap();
        assert_eq!(q.front(), Some(&'a'));
        let collected: Vec<_> = q.iter().copied().collect();
        assert_eq!(collected, vec!['a', 'b']);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn delay_queue_respects_delay() {
        let mut q = DelayQueue::new(2, 5);
        q.push(Cycle::new(0), 1).unwrap();
        q.push(Cycle::new(2), 2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.pop_ready(Cycle::new(4)), None);
        assert_eq!(q.front_ready(Cycle::new(5)), Some(&1));
        assert_eq!(q.pop_ready(Cycle::new(5)), Some(1));
        // FIFO: item 2 ready at cycle 7.
        assert_eq!(q.pop_ready(Cycle::new(6)), None);
        assert_eq!(q.pop_ready(Cycle::new(7)), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn next_ready_is_the_head_entry_time() {
        let mut q = DelayQueue::new(4, 10);
        assert_eq!(q.next_ready(), None);
        q.push(Cycle::new(3), 'x').unwrap();
        q.push(Cycle::new(0), 'y').unwrap();
        // The head gates the queue even when a later entry is older.
        assert_eq!(q.next_ready(), Some(Cycle::new(13)));
        assert_eq!(q.pop_ready(Cycle::new(12)), None);
        assert_eq!(q.pop_ready(Cycle::new(13)), Some('x'));
        assert_eq!(q.next_ready(), Some(Cycle::new(10)));
    }

    #[test]
    fn delay_queue_is_strictly_fifo() {
        // Even if a later push would be "ready" it cannot overtake the head.
        let mut q = DelayQueue::new(4, 10);
        q.push(Cycle::new(0), 'x').unwrap();
        q.push(Cycle::new(0), 'y').unwrap();
        assert_eq!(q.pop_ready(Cycle::new(10)), Some('x'));
        assert_eq!(q.pop_ready(Cycle::new(10)), Some('y'));
    }

    #[test]
    fn delay_queue_zero_delay_available_same_cycle() {
        let mut q = DelayQueue::new(1, 0);
        q.push(Cycle::new(3), 7u8).unwrap();
        assert_eq!(q.pop_ready(Cycle::new(3)), Some(7));
        assert_eq!(q.delay(), 0);
        assert_eq!(q.capacity(), 1);
    }

    #[test]
    fn delay_queue_state_round_trips_through_entries() {
        let mut q = DelayQueue::new(4, 10);
        q.push(Cycle::new(0), 'x').unwrap();
        q.push(Cycle::new(3), 'y').unwrap();
        let saved: Vec<(Cycle, char)> = q.entries().map(|(at, c)| (at, *c)).collect();
        assert_eq!(saved, vec![(Cycle::new(10), 'x'), (Cycle::new(13), 'y')]);

        let mut restored = DelayQueue::new(4, 10);
        for (at, c) in saved {
            restored.push_with_ready_at(at, c).unwrap();
        }
        assert_eq!(restored.pop_ready(Cycle::new(9)), None);
        assert_eq!(restored.pop_ready(Cycle::new(10)), Some('x'));
        assert_eq!(restored.pop_ready(Cycle::new(13)), Some('y'));
    }

    #[test]
    fn push_with_ready_at_respects_capacity() {
        let mut q = DelayQueue::new(1, 0);
        q.push_with_ready_at(Cycle::new(5), 1u8).unwrap();
        assert_eq!(
            q.push_with_ready_at(Cycle::new(5), 2u8)
                .unwrap_err()
                .into_inner(),
            2
        );
    }

    #[test]
    fn push_error_displays() {
        let e = PushError(());
        assert_eq!(e.to_string(), "queue full");
    }
}
