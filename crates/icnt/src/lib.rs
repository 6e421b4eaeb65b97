//! Interconnection-network model for the `gpu-latency` simulator.
//!
//! A GPU's SMs talk to its memory partitions over an on-chip network; in
//! GF100-class parts this is a crossbar. [`Crossbar`] models one direction of
//! such a network (instantiate it twice: request network SM→partition, reply
//! network partition→SM) with:
//!
//! - a fixed zero-load traversal latency,
//! - finite per-destination output queues, and
//! - per-cycle injection/ejection bandwidth limits.
//!
//! Contention is not modeled with routers and virtual channels; it *emerges*
//! from the finite queues and bandwidth limits, which is the level of detail
//! the paper's latency components need: time a request spends queued between
//! the L1 and the network is `L1toICNT`, and time inside the network plus in
//! the partition input queue is `ICNTtoROP`.
//!
//! # Examples
//!
//! ```
//! use gpu_icnt::{Crossbar, IcntConfig};
//! use gpu_types::Cycle;
//!
//! let mut xbar: Crossbar<&str> = Crossbar::new(2, 2, IcntConfig {
//!     latency: 8,
//!     output_queue: 4,
//!     inject_per_src: 1,
//!     eject_per_dst: 1,
//! });
//! let now = Cycle::new(0);
//! xbar.begin_cycle();
//! xbar.try_inject(0, 1, "pkt", now).unwrap();
//! assert_eq!(xbar.eject(1, Cycle::new(7)), None);     // still in flight
//! assert_eq!(xbar.eject(1, Cycle::new(8)), Some("pkt"));
//! ```

#![forbid(unsafe_code)]

use gpu_types::{Cycle, DelayQueue};

/// Crossbar configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcntConfig {
    /// Zero-load traversal latency in cycles.
    pub latency: u64,
    /// Per-destination queue capacity (slots occupied during traversal and
    /// while awaiting ejection).
    pub output_queue: usize,
    /// Packets each source may inject per cycle.
    pub inject_per_src: usize,
    /// Packets each destination may eject per cycle.
    pub eject_per_dst: usize,
}

/// Aggregate crossbar statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcntStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets delivered.
    pub ejected: u64,
    /// Injection attempts rejected by a full queue or bandwidth limit.
    pub inject_stalls: u64,
}

/// One direction of an SM↔partition crossbar network.
#[derive(Debug)]
pub struct Crossbar<T> {
    config: IcntConfig,
    sources: usize,
    queues: Vec<DelayQueue<T>>,
    injected_this_cycle: Vec<usize>,
    ejected_this_cycle: Vec<usize>,
    stats: IcntStats,
}

impl<T> Crossbar<T> {
    /// Creates a crossbar with `sources` injection ports and `dests`
    /// ejection ports.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or bandwidth/queue parameter is zero.
    pub fn new(sources: usize, dests: usize, config: IcntConfig) -> Self {
        assert!(
            sources > 0 && dests > 0,
            "crossbar dimensions must be positive"
        );
        assert!(
            config.inject_per_src > 0 && config.eject_per_dst > 0,
            "bandwidth limits must be positive"
        );
        Crossbar {
            config,
            sources,
            queues: (0..dests)
                .map(|_| DelayQueue::new(config.output_queue, config.latency))
                .collect(),
            injected_this_cycle: vec![0; sources],
            ejected_this_cycle: vec![0; dests],
            stats: IcntStats::default(),
        }
    }

    /// Number of injection ports.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Number of ejection ports.
    pub fn dests(&self) -> usize {
        self.queues.len()
    }

    /// The configuration.
    pub fn config(&self) -> &IcntConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IcntStats {
        self.stats
    }

    /// Resets per-cycle bandwidth accounting; call once at the top of every
    /// simulated cycle.
    pub fn begin_cycle(&mut self) {
        self.injected_this_cycle.iter_mut().for_each(|c| *c = 0);
        self.ejected_this_cycle.iter_mut().for_each(|c| *c = 0);
    }

    /// Returns `true` if `src` may inject toward `dst` this cycle (bandwidth
    /// and queue space permitting).
    pub fn can_inject(&self, src: usize, dst: usize) -> bool {
        self.injected_this_cycle[src] < self.config.inject_per_src && !self.queues[dst].is_full()
    }

    /// Attempts to inject `item` from `src` toward `dst` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns `item` back if the source's per-cycle bandwidth is spent or
    /// the destination queue is full; the caller must retry next cycle
    /// (back-pressure).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn try_inject(&mut self, src: usize, dst: usize, item: T, now: Cycle) -> Result<(), T> {
        if self.injected_this_cycle[src] >= self.config.inject_per_src {
            self.stats.inject_stalls += 1;
            return Err(item);
        }
        match self.queues[dst].push(now, item) {
            Ok(()) => {
                self.injected_this_cycle[src] += 1;
                self.stats.injected += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.inject_stalls += 1;
                Err(e.into_inner())
            }
        }
    }

    /// Ejects the next delivered packet at `dst`, if its traversal latency
    /// has elapsed and ejection bandwidth remains this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn eject(&mut self, dst: usize, now: Cycle) -> Option<T> {
        if self.ejected_this_cycle[dst] >= self.config.eject_per_dst {
            return None;
        }
        let item = self.queues[dst].pop_ready(now)?;
        self.ejected_this_cycle[dst] += 1;
        self.stats.ejected += 1;
        Some(item)
    }

    /// Peeks at the next deliverable packet at `dst` without consuming
    /// bandwidth.
    pub fn peek(&self, dst: usize, now: Cycle) -> Option<&T> {
        self.queues[dst].front_ready(now)
    }

    /// The earliest cycle at which a packet can eject: the smallest head
    /// ready time over the destination queues ([`Cycle::MAX`] when nothing
    /// is in flight). A head that is already deliverable but was not
    /// ejected (receiver full, bandwidth spent) answers `now` — the
    /// receiver may take it any cycle.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        self.queues
            .iter()
            .filter_map(DelayQueue::next_ready)
            .min()
            .map_or(Cycle::MAX, |at| at.max(now))
    }

    /// Total packets currently inside the network.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Returns `true` if nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the in-flight packets (per destination, with their absolute
    /// ready times) and the accumulated statistics. The per-cycle bandwidth
    /// counters are *not* serialized: snapshots are taken at cycle
    /// boundaries, where [`Crossbar::begin_cycle`] resets them anyway.
    /// The packet payload is caller-defined, hence the encode callback.
    pub fn encode_state_with(
        &self,
        e: &mut gpu_snapshot::Encoder,
        mut enc: impl FnMut(&T, &mut gpu_snapshot::Encoder),
    ) {
        e.usize(self.queues.len());
        for q in &self.queues {
            e.usize(q.len());
            for (ready_at, item) in q.entries() {
                e.u64(ready_at.get());
                enc(item, e);
            }
        }
        e.u64(self.stats.injected);
        e.u64(self.stats.ejected);
        e.u64(self.stats.inject_stalls);
    }

    /// Replaces this crossbar's in-flight packets and statistics with a
    /// decoded checkpoint, using `dec` to read each packet.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose destination count or queue occupancy exceeds
    /// this crossbar's configuration, and propagates decoder errors.
    pub fn restore_state_with(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
        mut dec: impl FnMut(&mut gpu_snapshot::Decoder) -> Result<T, gpu_snapshot::SnapshotError>,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        if d.usize()? != self.queues.len() {
            return Err(InvalidValue("crossbar destination count mismatch"));
        }
        for q in &mut self.queues {
            *q = DelayQueue::new(self.config.output_queue, self.config.latency);
            for _ in 0..d.usize()? {
                let ready_at = Cycle::new(d.u64()?);
                let item = dec(d)?;
                q.push_with_ready_at(ready_at, item)
                    .map_err(|_| InvalidValue("crossbar queue occupancy exceeds capacity"))?;
            }
        }
        self.stats.injected = d.u64()?;
        self.stats.ejected = d.u64()?;
        self.stats.inject_stalls = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar(latency: u64, queue: usize) -> Crossbar<u32> {
        Crossbar::new(
            2,
            2,
            IcntConfig {
                latency,
                output_queue: queue,
                inject_per_src: 1,
                eject_per_dst: 1,
            },
        )
    }

    #[test]
    fn traversal_takes_latency_cycles() {
        let mut x = xbar(10, 8);
        x.begin_cycle();
        x.try_inject(0, 1, 42, Cycle::new(100)).unwrap();
        assert_eq!(x.eject(1, Cycle::new(109)), None);
        assert_eq!(x.peek(1, Cycle::new(110)), Some(&42));
        assert_eq!(x.eject(1, Cycle::new(110)), Some(42));
        assert!(x.is_idle());
    }

    #[test]
    fn next_event_is_the_earliest_head_arrival() {
        let mut x = xbar(10, 8);
        assert_eq!(x.next_event(Cycle::new(5)), Cycle::MAX);
        x.begin_cycle();
        x.try_inject(0, 1, 1, Cycle::new(100)).unwrap();
        x.begin_cycle();
        x.try_inject(0, 0, 2, Cycle::new(103)).unwrap();
        assert_eq!(x.next_event(Cycle::new(104)), Cycle::new(110));
        // A deliverable packet nobody ejected yet can move any cycle.
        assert_eq!(x.next_event(Cycle::new(112)), Cycle::new(112));
        assert_eq!(x.eject(1, Cycle::new(112)), Some(1));
        assert_eq!(x.next_event(Cycle::new(112)), Cycle::new(113));
    }

    #[test]
    fn injection_bandwidth_is_per_source_per_cycle() {
        let mut x = xbar(1, 8);
        x.begin_cycle();
        assert!(x.can_inject(0, 0));
        x.try_inject(0, 0, 1, Cycle::new(0)).unwrap();
        assert!(!x.can_inject(0, 0), "source 0 spent its slot");
        assert_eq!(x.try_inject(0, 1, 2, Cycle::new(0)), Err(2));
        // Source 1 still has bandwidth.
        x.try_inject(1, 0, 3, Cycle::new(0)).unwrap();
        // Next cycle the limit resets.
        x.begin_cycle();
        x.try_inject(0, 1, 2, Cycle::new(1)).unwrap();
        assert_eq!(x.stats().inject_stalls, 1);
        assert_eq!(x.stats().injected, 3);
    }

    #[test]
    fn ejection_bandwidth_limits_drain_rate() {
        let mut x = xbar(0, 8);
        x.begin_cycle();
        x.try_inject(0, 0, 1, Cycle::new(0)).unwrap();
        x.try_inject(1, 0, 2, Cycle::new(0)).unwrap();
        assert_eq!(x.eject(0, Cycle::new(0)), Some(1));
        assert_eq!(x.eject(0, Cycle::new(0)), None, "one ejection per cycle");
        x.begin_cycle();
        assert_eq!(x.eject(0, Cycle::new(1)), Some(2));
    }

    #[test]
    fn full_queue_backpressures() {
        let mut x = xbar(100, 2);
        x.begin_cycle();
        x.try_inject(0, 0, 1, Cycle::new(0)).unwrap();
        x.try_inject(1, 0, 2, Cycle::new(0)).unwrap();
        x.begin_cycle();
        assert!(!x.can_inject(0, 0));
        assert_eq!(x.try_inject(0, 0, 3, Cycle::new(1)), Err(3));
        assert_eq!(x.in_flight(), 2);
    }

    #[test]
    fn contention_creates_queueing_delay() {
        // Two sources hammer one destination; with eject rate 1/cycle the
        // second packet of each cycle waits an extra cycle.
        let mut x = xbar(5, 16);
        x.begin_cycle();
        x.try_inject(0, 0, 10, Cycle::new(0)).unwrap();
        x.try_inject(1, 0, 11, Cycle::new(0)).unwrap();
        // Both arrive at cycle 5; only one ejects per cycle.
        assert_eq!(x.eject(0, Cycle::new(5)), Some(10));
        assert_eq!(x.eject(0, Cycle::new(5)), None);
        x.begin_cycle();
        assert_eq!(x.eject(0, Cycle::new(6)), Some(11));
        assert_eq!(x.stats().ejected, 2);
    }

    #[test]
    fn crossbar_codec_round_trips_in_flight_packets() {
        let mut x = xbar(10, 8);
        x.begin_cycle();
        x.try_inject(0, 1, 42, Cycle::new(100)).unwrap();
        x.try_inject(1, 0, 7, Cycle::new(100)).unwrap();
        x.begin_cycle();
        x.try_inject(0, 1, 43, Cycle::new(101)).unwrap();
        assert_eq!(x.try_inject(1, 1, 9, Cycle::new(101)), Ok(())); // 2nd src
        assert_eq!(x.try_inject(1, 1, 9, Cycle::new(101)), Err(9)); // stall

        let mut e = gpu_snapshot::Encoder::new();
        x.encode_state_with(&mut e, |item, e| e.u32(*item));
        let framed = e.finish();

        let mut restored = xbar(10, 8);
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state_with(&mut d, |d| d.u32()).unwrap();
        d.expect_end().unwrap();

        assert_eq!(restored.stats(), x.stats());
        assert_eq!(restored.in_flight(), x.in_flight());
        // Re-encode equality.
        let mut e2 = gpu_snapshot::Encoder::new();
        restored.encode_state_with(&mut e2, |item, e| e.u32(*item));
        assert_eq!(e2.finish(), framed);
        // Delivery times survive the round trip exactly.
        restored.begin_cycle();
        assert_eq!(restored.eject(0, Cycle::new(110)), Some(7));
        assert_eq!(restored.eject(1, Cycle::new(110)), Some(42));
        restored.begin_cycle();
        assert_eq!(restored.eject(1, Cycle::new(110)), None, "not ready yet");
        assert_eq!(restored.eject(1, Cycle::new(111)), Some(43));
    }

    #[test]
    fn crossbar_restore_rejects_shape_mismatch() {
        let x = xbar(10, 8);
        let mut e = gpu_snapshot::Encoder::new();
        x.encode_state_with(&mut e, |item, e| e.u32(*item));
        let framed = e.finish();
        let mut wrong: Crossbar<u32> = Crossbar::new(
            2,
            3, // snapshot has 2 destinations
            IcntConfig {
                latency: 10,
                output_queue: 8,
                inject_per_src: 1,
                eject_per_dst: 1,
            },
        );
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        assert!(matches!(
            wrong.restore_state_with(&mut d, |d| d.u32()),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dims_panic() {
        let _: Crossbar<u8> = Crossbar::new(
            0,
            1,
            IcntConfig {
                latency: 1,
                output_queue: 1,
                inject_per_src: 1,
                eject_per_dst: 1,
            },
        );
    }
}

#[cfg(test)]
mod conservation_tests {
    use super::*;

    /// Packet conservation under randomized traffic: everything injected is
    /// eventually ejected, exactly once, per destination, in FIFO order.
    #[test]
    fn randomized_traffic_conserves_packets() {
        // Deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sources = 4;
        let dests = 3;
        let mut x: Crossbar<(usize, u64)> = Crossbar::new(
            sources,
            dests,
            IcntConfig {
                latency: 12,
                output_queue: 6,
                inject_per_src: 1,
                eject_per_dst: 1,
            },
        );
        let mut seq = 0u64;
        let mut injected = vec![0u64; dests];
        let mut ejected: Vec<Vec<(usize, u64)>> = vec![Vec::new(); dests];
        let mut now = Cycle::ZERO;
        for _ in 0..2000 {
            x.begin_cycle();
            for src in 0..sources {
                if rand() % 3 == 0 {
                    let dst = (rand() % dests as u64) as usize;
                    if x.can_inject(src, dst) {
                        x.try_inject(src, dst, (dst, seq), now).unwrap();
                        injected[dst] += 1;
                        seq += 1;
                    }
                }
            }
            for (dst, sink) in ejected.iter_mut().enumerate() {
                if let Some(pkt) = x.eject(dst, now) {
                    sink.push(pkt);
                }
            }
            now.tick();
        }
        // Drain.
        while !x.is_idle() {
            x.begin_cycle();
            for (dst, sink) in ejected.iter_mut().enumerate() {
                if let Some(pkt) = x.eject(dst, now) {
                    sink.push(pkt);
                }
            }
            now.tick();
        }
        for dst in 0..dests {
            assert_eq!(ejected[dst].len() as u64, injected[dst], "dest {dst}");
            // Right destination and strictly increasing sequence (FIFO per
            // destination, since all injections happen in global seq order).
            for w in ejected[dst].windows(2) {
                assert!(w[0].1 < w[1].1, "FIFO violated at dest {dst}");
            }
            assert!(ejected[dst].iter().all(|p| p.0 == dst));
        }
        let stats = x.stats();
        assert_eq!(stats.injected, seq);
        assert_eq!(stats.ejected, seq);
    }
}
