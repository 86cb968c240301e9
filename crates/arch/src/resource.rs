//! Virtual-time reservation resources.
//!
//! Shared, serialized hardware and software resources — the PCIe DMA
//! engine, the address-space-wide page-table lock of regular page tables,
//! the per-core locks of PSPT — are modeled as *reservation clocks*:
//!
//! ```text
//! start = max(now, free);   free' = start + service;   caller waits start+service - now
//! ```
//!
//! A core that arrives while the resource is busy observes queueing delay;
//! a core that arrives when it is idle pays only the service time. This is
//! the standard analytic treatment of a FIFO server and is what produces
//! the paper's two headline serialization effects: regular page tables
//! collapsing past ~24 cores (every fault funnels through one lock) and
//! 2 MB pages losing under memory pressure (the DMA engine saturates).

use crate::clock::Cycles;

/// A serialized resource with a virtual-time reservation clock.
#[derive(Debug, Default)]
pub struct VirtualResource {
    free_at: Cycles,
    /// Total service cycles ever reserved (occupancy accounting).
    busy: Cycles,
    /// Total queueing delay observed by callers.
    queued: Cycles,
}

/// Outcome of a reservation: when service started and ended, and how much
/// of the caller's wait was queueing behind earlier reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Virtual time service began.
    pub start: Cycles,
    /// Virtual time service completed; the caller's clock should advance
    /// to this point.
    pub end: Cycles,
    /// `start - now`: time spent waiting behind earlier users.
    pub queue_delay: Cycles,
}

impl VirtualResource {
    /// An idle resource.
    pub fn new() -> VirtualResource {
        VirtualResource::default()
    }

    /// Reserves `service` cycles of exclusive use starting no earlier than
    /// `now`, charging the caller at most `max_queue` cycles of queueing.
    /// Returns when service starts/ends; the caller is expected to
    /// advance its own clock by `end - now`.
    ///
    /// Physically, a resource's genuine queue depth is bounded by the
    /// number of clients that can have requests outstanding (each
    /// simulated core blocks on its own fault), so any delay beyond
    /// `clients × service` is an artifact of out-of-order arrivals: the
    /// epoch engine commits each core's kernel entries at that core's
    /// own clock, and clocks skew between barriers, so a core can reach
    /// a resource after reservations made "in its future" by cores that
    /// ran ahead, and must not be charged for them. Callers pass a cap
    /// comfortably above the genuine bound (`Cycles::MAX` for none).
    pub fn acquire(&mut self, now: Cycles, service: Cycles, max_queue: Cycles) -> Reservation {
        let start = self.free_at.max(now);
        let end = start + service;
        let queue_delay = start - now;
        self.free_at = end;
        self.busy += service;
        self.queued += queue_delay;
        if queue_delay <= max_queue {
            return Reservation {
                start,
                end,
                queue_delay,
            };
        }
        // Clamp: serve at now + max_queue (the resource books the excess
        // twice, a deliberate approximation in the skewed case).
        let start = now + max_queue;
        Reservation {
            start,
            end: start + service,
            queue_delay: max_queue,
        }
    }

    /// Total cycles of service ever reserved.
    #[inline]
    pub fn total_busy(&self) -> Cycles {
        self.busy
    }

    /// Total queueing delay ever imposed on callers. The ratio
    /// `total_queued / total_busy` is a direct saturation signal used by
    /// the experiment reports.
    #[inline]
    pub fn total_queued(&self) -> Cycles {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNCAPPED: Cycles = Cycles::MAX;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = VirtualResource::new();
        let res = r.acquire(1000, 50, UNCAPPED);
        assert_eq!(
            res,
            Reservation {
                start: 1000,
                end: 1050,
                queue_delay: 0
            }
        );
        // The next arrival at 1000 waits for the first to finish.
        assert_eq!(r.acquire(1000, 0, UNCAPPED).start, 1050);
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = VirtualResource::new();
        r.acquire(0, 100, UNCAPPED);
        let res = r.acquire(30, 10, UNCAPPED);
        assert_eq!(res.start, 100);
        assert_eq!(res.end, 110);
        assert_eq!(res.queue_delay, 70);
        assert_eq!(r.total_queued(), 70);
        assert_eq!(r.total_busy(), 110);
    }

    #[test]
    fn late_arrival_after_idle_gap_does_not_queue() {
        let mut r = VirtualResource::new();
        r.acquire(0, 100, UNCAPPED);
        let res = r.acquire(500, 10, UNCAPPED);
        assert_eq!(res.start, 500);
        assert_eq!(res.queue_delay, 0);
    }

    #[test]
    fn occupancy_is_exact_for_interleaved_arrivals() {
        // Eight clients' arrival streams, interleaved out of stamp order.
        let mut r = VirtualResource::new();
        for k in 0..1000u64 {
            for i in 0..8 {
                r.acquire(i * 1000 + k, 7, UNCAPPED);
            }
        }
        assert_eq!(r.total_busy(), 8 * 1000 * 7);
        // All 8000 reservations must fit back-to-back at minimum.
        assert!(r.acquire(0, 0, UNCAPPED).start >= 8 * 1000 * 7);
    }

    #[test]
    fn bounded_acquire_clamps_only_excess() {
        let mut r = VirtualResource::new();
        r.acquire(0, 1000, UNCAPPED);
        // Genuine small queue: below the cap, unchanged.
        let a = r.acquire(500, 10, 5000);
        assert_eq!(a.start, 1000);
        assert_eq!(a.queue_delay, 500);
        // A latecomer far behind reservations made ahead of its clock:
        // delay capped.
        r.acquire(0, 1_000_000, UNCAPPED);
        let b = r.acquire(100, 10, 2000);
        assert_eq!(b.queue_delay, 2000);
        assert_eq!(b.start, 2100);
    }

    #[test]
    fn reservations_never_overlap() {
        // Sequential sanity: ends are monotone and starts respect the
        // previous end.
        let mut r = VirtualResource::new();
        let mut prev_end = 0;
        for now in [0u64, 10, 5, 200, 190, 191] {
            let res = r.acquire(now, 13, UNCAPPED);
            assert!(res.start >= prev_end.min(res.start));
            assert!(res.start >= now);
            assert_eq!(res.end, res.start + 13);
            assert!(res.end > prev_end || prev_end == 0);
            prev_end = res.end;
        }
    }
}
