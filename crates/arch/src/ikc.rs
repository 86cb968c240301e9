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

/// Message classes with distinct host-side service behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IkcMessage {
    /// Signal-only doorbell (no payload, no host work).
    Notify,
    /// A system call forwarded to the host: `service` cycles of host
    /// work, `payload` bytes copied each way.
    Syscall {
        /// Host-side service time in (device-clock) cycles.
        service: Cycles,
        /// Request + response payload bytes.
        payload: u64,
    },
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
        match msg {
            IkcMessage::Notify => 64,
            IkcMessage::Syscall { service, payload } => {
                service + payload * 1024 / self.bytes_per_kcycle
            }
        }
    }

    /// Performs a round trip starting at device time `now`.
    pub fn round_trip(&mut self, now: Cycles, msg: IkcMessage) -> IkcCompletion {
        self.requests += 1;
        if let IkcMessage::Syscall { payload, .. } = msg {
            self.payload_bytes += payload;
        }
        let service = self.service_time(msg);
        // Bounded like the DMA engine: a core has one offload
        // outstanding, so the cap only clamps the out-of-order arrivals
        // of cores whose clocks skew between barriers.
        let r = self
            .channel
            .acquire_bounded(now, service, 256 * service.max(64));
        IkcCompletion {
            done_at: r.end + 2 * self.latency, // request + response hops
            queue_delay: r.queue_delay,
        }
    }

    /// One-way message latency (doorbell + IPI hop).
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// [`IkcChannel::round_trip`] with fault injection: each injected
    /// drop loses the message, and the caller discovers it only after a
    /// resend timeout of one full unqueued round trip (service +
    /// both hops). Returns the completion of the eventually-successful
    /// trip — `done_at` already includes all timeout penalties — plus
    /// the number of drops suffered. Dropped messages never occupied
    /// the channel (they died on the wire), so only the final trip
    /// reserves it. With `inj == None` this is exactly `round_trip`.
    pub fn round_trip_checked(
        &mut self,
        now: Cycles,
        msg: IkcMessage,
        inj: Option<&mut FaultInjector>,
    ) -> (IkcCompletion, u32) {
        let mut drops = 0u32;
        let mut start = now;
        if let Some(inj) = inj {
            while inj.roll(FaultSite::Ikc) {
                drops += 1;
                start += self.service_time(msg) + 2 * self.latency;
                assert!(
                    drops < 64,
                    "64 consecutive IKC drops — fault rate beyond the clamp?"
                );
            }
        }
        let mut done = self.round_trip(start, msg);
        done.queue_delay += start - now; // timeouts are wait, not work
        (done, drops)
    }

    /// Total round trips.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total payload bytes copied.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Total queueing delay imposed on callers.
    pub fn queued_cycles(&self) -> Cycles {
        self.channel.total_queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> IkcChannel {
        IkcChannel::new(&CostModel::default())
    }

    #[test]
    fn notify_is_cheap() {
        let mut c = channel();
        let done = c.round_trip(0, IkcMessage::Notify);
        assert!(
            done.done_at < 10_000,
            "a doorbell is a few microseconds: {done:?}"
        );
        assert_eq!(c.requests(), 1);
    }

    #[test]
    fn syscall_cost_scales_with_payload() {
        let mut c = channel();
        let small = c
            .round_trip(
                0,
                IkcMessage::Syscall {
                    service: 1_000,
                    payload: 256,
                },
            )
            .done_at;
        let big = c
            .round_trip(
                1_000_000,
                IkcMessage::Syscall {
                    service: 1_000,
                    payload: 1 << 20,
                },
            )
            .done_at
            - 1_000_000;
        assert!(
            big > 10 * small,
            "1MB payload must dwarf 256B: {small} vs {big}"
        );
        assert_eq!(c.payload_bytes(), 256 + (1 << 20));
    }

    #[test]
    fn concurrent_offloads_serialize() {
        let mut c = channel();
        let a = c.round_trip(
            0,
            IkcMessage::Syscall {
                service: 10_000,
                payload: 0,
            },
        );
        let b = c.round_trip(
            0,
            IkcMessage::Syscall {
                service: 10_000,
                payload: 0,
            },
        );
        assert_eq!(a.queue_delay, 0);
        assert!(b.queue_delay >= 10_000, "second request queues: {b:?}");
        assert!(c.queued_cycles() >= 10_000);
    }

    #[test]
    fn checked_round_trip_pays_timeouts_on_drops() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut c = channel();
        let msg = IkcMessage::Syscall {
            service: 1_000,
            payload: 256,
        };
        // No injector: identical to the plain path.
        let plain = c.round_trip(0, msg);
        let mut c2 = channel();
        let (checked, drops) = c2.round_trip_checked(0, msg, None);
        assert_eq!(drops, 0);
        assert_eq!(checked, plain);
        // Heavy drops: completions get pushed out by timeout penalties.
        let mut inj = FaultInjector::new(&FaultPlan::new(11).ikc_drops(0.5));
        let mut total_drops = 0;
        let mut penalized = 0;
        for _ in 0..64 {
            let base = channel().round_trip(0, msg).done_at;
            let (done, d) = channel().round_trip_checked(0, msg, Some(&mut inj));
            total_drops += d;
            if d > 0 {
                penalized += 1;
                let timeout = channel().service_time(msg) + 2 * channel().latency();
                assert_eq!(done.done_at, base + d as u64 * timeout);
                assert_eq!(done.queue_delay, d as u64 * timeout);
            }
        }
        assert!(total_drops > 10, "50% over 64 trips: {total_drops}");
        assert!(penalized > 5);
    }

    #[test]
    fn round_trip_includes_both_hops() {
        let mut c = channel();
        let done = c.round_trip(500, IkcMessage::Notify);
        let cost = CostModel::default();
        assert!(done.done_at >= 500 + 64 + 2 * cost.dma_latency);
    }
}
