//! Shared snapshot-codec helpers for the pipeline queues that both the SM
//! and the memory partition own. A queue holds request handles; a snapshot
//! holds the record each handle names, where the handle sits, and a restore
//! stores each decoded record in the table under a fresh handle.

use gpu_mem::MemRequest;
use gpu_snapshot::{Decoder, Encoder, SnapshotError};
use gpu_types::{BoundedQueue, Cycle, DelayQueue};

use crate::requests::{ReqHandle, RequestTable};

/// Serializes a delay queue of requests: occupancy, then each entry with
/// its absolute ready time (so a restored run replays the exact same pop
/// schedule).
pub(crate) fn encode_req_queue(e: &mut Encoder, q: &DelayQueue<ReqHandle>, reqs: &RequestTable) {
    e.usize(q.len());
    for (ready_at, &h) in q.entries() {
        e.u64(ready_at.get());
        reqs[h].encode_state(e);
    }
}

/// Rebuilds `q` (keeping its configured capacity and delay) from a decoded
/// checkpoint. `over` names the queue in the over-capacity error.
pub(crate) fn restore_req_queue(
    q: &mut DelayQueue<ReqHandle>,
    d: &mut Decoder,
    reqs: &mut RequestTable,
    over: &'static str,
) -> Result<(), SnapshotError> {
    let mut fresh = DelayQueue::new(q.capacity(), q.delay());
    for _ in 0..d.usize()? {
        let ready_at = Cycle::new(d.u64()?);
        let h = reqs.insert(MemRequest::decode(d)?);
        fresh
            .push_with_ready_at(ready_at, h)
            .map_err(|_| SnapshotError::InvalidValue(over))?;
    }
    *q = fresh;
    Ok(())
}

/// Serializes a bounded FIFO of requests in queue order.
pub(crate) fn encode_req_fifo(e: &mut Encoder, q: &BoundedQueue<ReqHandle>, reqs: &RequestTable) {
    e.usize(q.len());
    for &h in q.iter() {
        reqs[h].encode_state(e);
    }
}

/// Rebuilds `q` (keeping its configured capacity) from a decoded checkpoint.
pub(crate) fn restore_req_fifo(
    q: &mut BoundedQueue<ReqHandle>,
    d: &mut Decoder,
    reqs: &mut RequestTable,
    over: &'static str,
) -> Result<(), SnapshotError> {
    let mut fresh = BoundedQueue::new(q.capacity());
    for _ in 0..d.usize()? {
        fresh
            .push(reqs.insert(MemRequest::decode(d)?))
            .map_err(|_| SnapshotError::InvalidValue(over))?;
    }
    *q = fresh;
    Ok(())
}

/// Decodes one request into the table: the waiter and packet decoder of an
/// MSHR table or a crossbar.
pub(crate) fn decode_req(
    d: &mut Decoder,
    reqs: &mut RequestTable,
) -> Result<ReqHandle, SnapshotError> {
    Ok(reqs.insert(MemRequest::decode(d)?))
}
