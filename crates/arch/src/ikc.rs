//! The Inter-Kernel Communication (IKC) channel.
//!
//! Paper §2.1: IHK's IKC layer "performs data transfer and signal
//! notification between the host and the manycore co-processor". The
//! lightweight kernel uses it to ship heavy system calls to the host
//! (§2.2: "heavy system calls are shipped to and executed on the host")
//! and to coordinate the backing-store transfers that the DMA engine
//! carries.
//!
//! The model is a pair of ring-buffer message queues over the PCIe link:
//! a request costs a doorbell write and a message copy in each direction
//! plus the host-side service time; concurrent requests from many cores
//! serialize on the channel, which is what makes offloaded syscalls a
//! scalability hazard the lightweight kernel avoids on its fast paths.

use crate::clock::Cycles;
use crate::cost::CostModel;
use crate::fault::{FaultInjector, FaultSite};
use crate::resource::VirtualResource;

/// One request shipped to the host: `service` cycles of host work,
/// `payload` bytes copied each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IkcMessage {
    /// Host-side service time in (device-clock) cycles.
    pub service: Cycles,
    /// Request + response payload bytes.
    pub payload: u64,
}

/// Completion report for one IKC round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IkcCompletion {
    /// When the caller may resume (device virtual time).
    pub done_at: Cycles,
    /// Time spent queueing behind other channel users.
    pub queue_delay: Cycles,
}

/// A host↔device message channel.
#[derive(Debug)]
pub struct IkcChannel {
    /// Channel occupancy (ring slots + host handler are serialized).
    channel: VirtualResource,
    /// One-way message latency (doorbell + IPI to the host core).
    latency: Cycles,
    /// Payload copy throughput, bytes per 1024 cycles (shares the PCIe
    /// link speed with the DMA engine).
    bytes_per_kcycle: u64,
    requests: u64,
    payload_bytes: u64,
}

impl IkcChannel {
    /// A channel using the cost table's PCIe characteristics.
    pub fn new(cost: &CostModel) -> IkcChannel {
        IkcChannel {
            channel: VirtualResource::new(),
            latency: cost.dma_latency,
            bytes_per_kcycle: cost.dma_bytes_per_kcycle,
            requests: 0,
            payload_bytes: 0,
        }
    }

    /// Service time occupied on the channel for `msg`.
    pub fn service_time(&self, msg: IkcMessage) -> Cycles {
        msg.service + msg.payload * 1024 / self.bytes_per_kcycle
    }

    /// Performs a round trip starting at device time `now`, rolling
    /// `inj`'s IKC drop dice: each injected drop loses the message, and
    /// the caller discovers it only after a resend timeout of one full
    /// unqueued round trip (service + both hops). Returns the completion
    /// of the eventually-successful trip — `done_at` already includes
    /// all timeout penalties, counted as queueing (wait, not work) —
    /// plus the number of drops suffered. Dropped messages never
    /// occupied the channel (they died on the wire), so only the final
    /// trip reserves it.
    pub fn round_trip(
        &mut self,
        now: Cycles,
        msg: IkcMessage,
        inj: &mut FaultInjector,
    ) -> (IkcCompletion, u32) {
        let service = self.service_time(msg);
        let mut drops = 0u32;
        let mut start = now;
        while inj.roll(FaultSite::Ikc, 0) {
            drops += 1;
            start += service + 2 * self.latency;
            assert!(
                drops < 64,
                "64 consecutive IKC drops — fault rate beyond the clamp?"
            );
        }
        self.requests += 1;
        self.payload_bytes += msg.payload;
        // Bounded like the DMA engine: a core has one offload
        // outstanding, so the cap only clamps the out-of-order arrivals
        // of cores whose clocks skew between barriers.
        let r = self.channel.acquire(start, service, 256 * service.max(64));
        let done = IkcCompletion {
            done_at: r.end + 2 * self.latency, // request + response hops
            queue_delay: r.queue_delay + (start - now),
        };
        (done, drops)
    }

    /// The cost of serving `msg` without the channel, once the host's
    /// offload daemon is dead: the call is emulated synchronously,
    /// paying the service time both ways plus the doorbell hops a
    /// healthy round trip would have pipelined, so it is strictly
    /// slower than [`IkcChannel::round_trip`] on an idle channel.
    pub fn sync_fallback(&self, msg: IkcMessage) -> Cycles {
        2 * self.service_time(msg) + 4 * self.latency
    }

    /// Total round trips.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total payload bytes copied.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn channel() -> IkcChannel {
        IkcChannel::new(&CostModel::default())
    }

    /// The empty plan: no message is ever dropped.
    fn quiet() -> FaultInjector {
        FaultInjector::new(&FaultPlan::new(0))
    }

    fn msg(service: Cycles, payload: u64) -> IkcMessage {
        IkcMessage { service, payload }
    }

    #[test]
    fn syscall_cost_scales_with_payload() {
        let mut c = channel();
        let (small, _) = c.round_trip(0, msg(1_000, 256), &mut quiet());
        let (big, _) = c.round_trip(1_000_000, msg(1_000, 1 << 20), &mut quiet());
        let (small, big) = (small.done_at, big.done_at - 1_000_000);
        assert!(
            big > 10 * small,
            "1MB payload must dwarf 256B: {small} vs {big}"
        );
        assert_eq!(c.requests(), 2);
        assert_eq!(c.payload_bytes(), 256 + (1 << 20));
    }

    #[test]
    fn concurrent_offloads_serialize() {
        let mut c = channel();
        let (a, _) = c.round_trip(0, msg(10_000, 0), &mut quiet());
        let (b, _) = c.round_trip(0, msg(10_000, 0), &mut quiet());
        assert_eq!(a.queue_delay, 0);
        assert!(b.queue_delay >= 10_000, "second request queues: {b:?}");
    }

    #[test]
    fn drops_pay_resend_timeouts() {
        let msg = msg(1_000, 256);
        let timeout = channel().service_time(msg) + 2 * CostModel::default().dma_latency;
        let (base, _) = channel().round_trip(0, msg, &mut quiet());
        // Heavy drops: completions get pushed out by timeout penalties.
        let mut inj = FaultInjector::new(&FaultPlan::new(11).ikc_drops(0.5));
        let mut total_drops = 0;
        let mut penalized = 0;
        for _ in 0..64 {
            let (done, d) = channel().round_trip(0, msg, &mut inj);
            total_drops += d;
            if d > 0 {
                penalized += 1;
                assert_eq!(done.done_at, base.done_at + d as u64 * timeout);
                assert_eq!(done.queue_delay, d as u64 * timeout);
            }
        }
        assert!(total_drops > 10, "50% over 64 trips: {total_drops}");
        assert!(penalized > 5);
    }

    #[test]
    fn round_trip_includes_both_hops() {
        let mut c = channel();
        let m = msg(1_000, 256);
        let (done, _) = c.round_trip(500, m, &mut quiet());
        let cost = CostModel::default();
        assert_eq!(done.done_at, 500 + c.service_time(m) + 2 * cost.dma_latency);
    }

    #[test]
    fn sync_fallback_is_slower_than_a_round_trip() {
        let mut c = channel();
        let m = msg(15_000, 64 << 10);
        let (done, _) = c.round_trip(0, m, &mut quiet());
        let sync = c.sync_fallback(m);
        assert!(
            sync > done.done_at,
            "degraded mode must cost more: {} vs {sync}",
            done.done_at
        );
        // The fallback leaves the channel alone.
        assert_eq!(c.requests(), 1);
        assert_eq!(c.payload_bytes(), 64 << 10);
    }
}
