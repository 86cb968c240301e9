//! System-call offloading to the host.
//!
//! The paper's lightweight kernel keeps only the hot paths on the
//! co-processor; "heavy system calls are shipped to and executed on the
//! host" (§2.1) over the IKC channel. File I/O — SCALE writes history
//! and restart files — is the prime example.
//!
//! The offload engine wraps an [`IkcChannel`] and charges the round trip
//! (queueing included) to the calling core's clock, so offload-heavy
//! phases serialize visibly, which is precisely why the kernel design
//! keeps them off the paging fast path. The channel counts round trips
//! and payload bytes; the kernel counts synchronous fallbacks
//! (`sync_syscalls`) and the calls its offload-death rule reads.

use cmcp_arch::{CoreClock, Cycles, FaultInjector, IkcChannel, IkcMessage};

use cmcp_arch::CostModel;

/// Host-side service-time catalogue (cycles of host work at device
/// clock), loosely calibrated to Linux syscall latencies plus the
/// host-kernel proxy thread dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall {
    /// `open`/`close`-class metadata operation.
    Metadata,
    /// `read` of `bytes` from a host file.
    Read(u64),
    /// `write` of `bytes` to a host file.
    Write(u64),
}

impl Syscall {
    /// IKC message for this call.
    pub fn message(self) -> IkcMessage {
        match self {
            Syscall::Metadata => IkcMessage::Syscall {
                service: 8_000,
                payload: 256,
            },
            Syscall::Read(bytes) => IkcMessage::Syscall {
                service: 12_000,
                payload: bytes,
            },
            Syscall::Write(bytes) => IkcMessage::Syscall {
                service: 15_000,
                payload: bytes,
            },
        }
    }
}

/// The per-address-space offload engine.
#[derive(Debug)]
pub struct OffloadEngine {
    channel: IkcChannel,
}

impl OffloadEngine {
    /// An engine over a channel with `cost`'s link characteristics.
    pub fn new(cost: &CostModel) -> OffloadEngine {
        OffloadEngine {
            channel: IkcChannel::new(cost),
        }
    }

    /// Executes `call` on behalf of the core whose clock is `clock`,
    /// blocking it for the full round trip.
    pub fn syscall(&mut self, clock: &mut CoreClock, call: Syscall) -> Cycles {
        let now = clock.now();
        let done = self.channel.round_trip(now, call.message());
        let wait = done.done_at.saturating_sub(now);
        clock.advance(wait);
        wait
    }

    /// [`OffloadEngine::syscall`] with IKC fault injection: each dropped
    /// message costs the caller a resend timeout (folded into the
    /// returned wait). Returns the wait and the number of drops.
    pub fn syscall_with_faults(
        &mut self,
        clock: &mut CoreClock,
        call: Syscall,
        inj: Option<&mut FaultInjector>,
    ) -> (Cycles, u32) {
        let now = clock.now();
        let (done, drops) = self.channel.round_trip_checked(now, call.message(), inj);
        let wait = done.done_at.saturating_sub(now);
        clock.advance(wait);
        (wait, drops)
    }

    /// Synchronous fallback after offload-engine death: the call is
    /// emulated locally without touching the (dead) channel, costing
    /// the message's service time both ways plus the doorbell hops it
    /// would have pipelined — strictly slower than a healthy offload,
    /// which is the degradation the run reports surface.
    pub fn sync_syscall(&mut self, clock: &mut CoreClock, call: Syscall) -> Cycles {
        let msg = call.message();
        let wait = 2 * self.channel.service_time(msg) + 4 * self.channel.latency();
        clock.advance(wait);
        wait
    }

    /// Total round trips across cores (the synchronous fallback makes
    /// none).
    pub fn total_calls(&self) -> u64 {
        self.channel.requests()
    }

    /// Total payload bytes shipped over IKC.
    pub fn total_payload(&self) -> u64 {
        self.channel.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OffloadEngine {
        OffloadEngine::new(&CostModel::default())
    }

    #[test]
    fn syscall_blocks_the_caller() {
        let mut e = engine();
        let mut clock = CoreClock::new();
        let wait = e.syscall(&mut clock, Syscall::Metadata);
        assert!(wait > 8_000, "at least the host service time: {wait}");
        assert_eq!(clock.now(), wait);
        assert_eq!(e.total_calls(), 1);
        assert_eq!(e.total_payload(), 256);
    }

    #[test]
    fn writes_cost_more_with_more_bytes() {
        let mut e = engine();
        let mut clock = CoreClock::new();
        let small = e.syscall(&mut clock, Syscall::Write(4 << 10));
        // Leave a gap so the channel is idle again.
        clock.advance(10_000_000);
        let big = e.syscall(&mut clock, Syscall::Write(4 << 20));
        assert!(
            big > 5 * small,
            "4MB write must dwarf 4kB: {small} vs {big}"
        );
        assert_eq!(e.total_payload(), (4 << 10) + (4 << 20));
    }

    #[test]
    fn faulted_syscall_without_plan_matches_plain() {
        let mut e = engine();
        let mut clock = CoreClock::new();
        let plain = e.syscall(&mut clock, Syscall::Metadata);
        let mut e2 = engine();
        let mut clock2 = CoreClock::new();
        let (wait, drops) = e2.syscall_with_faults(&mut clock2, Syscall::Metadata, None);
        assert_eq!(drops, 0);
        assert_eq!(wait, plain);
    }

    #[test]
    fn sync_fallback_is_slower_than_healthy_offload() {
        let mut e = engine();
        let mut clock = CoreClock::new();
        let offloaded = e.syscall(&mut clock, Syscall::Write(64 << 10));
        clock.advance(10_000_000);
        let sync = e.sync_syscall(&mut clock, Syscall::Write(64 << 10));
        assert!(
            sync > offloaded,
            "degraded mode must cost more: {offloaded} vs {sync}"
        );
        assert_eq!(clock.now(), offloaded + 10_000_000 + sync);
        // The fallback leaves the dead channel alone; the kernel counts
        // it as a `sync_syscalls` instead.
        assert_eq!(e.total_calls(), 1);
        assert_eq!(e.total_payload(), 64 << 10);
    }

    #[test]
    fn concurrent_callers_serialize_on_the_channel() {
        let mut e = engine();
        let waits: Vec<u64> = (0..4)
            .map(|_| e.syscall(&mut CoreClock::new(), Syscall::Read(1 << 20)))
            .collect();
        assert!(
            waits[3] > waits[0] * 2,
            "the fourth caller queues behind three 1MB reads: {waits:?}"
        );
        assert_eq!(e.total_calls(), 4);
    }
}
